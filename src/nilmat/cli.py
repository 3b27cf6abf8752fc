"""Command line front end.

Every subcommand reads exact JSON files, computes exactly, and writes
deterministic output: identical inputs give byte-identical output. Domain
errors exit with status 1, usage errors with status 2.
"""

import argparse
import contextlib
import functools
import os
import sys
from itertools import chain

# json is imported where it is used, and omega, polytope, qflag and
# reference by the fills of the commands whose handlers use them, so that
# start-up loads only what the chosen command needs; a handler runs only
# after its command's fill, which binds the module names it reads
from . import boolrel
from .exactmat import (
    MatrixError,
    RMatrix,
    _json_list,
    _parse_int,
    format_rational,
    parse_rational,
)


def _load_json(path):
    import json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise MatrixError(f"cannot read {path}: {exc}") from exc
    # ValueError covers malformed JSON, bytes that are not UTF-8 and integer
    # literals longer than int() accepts
    except (ValueError, RecursionError) as exc:
        raise MatrixError(f"{path} is not valid JSON: {exc}") from exc


def _write_files(exports):
    """Write every (path, data) export, where data is bytes or an iterable
    of byte chunks, replacing no target until all are written: each goes to
    a temporary sibling first, created with "x" so that its permissions
    follow the umask. Any error, one raised by a chunk iterator included,
    removes every temporary and leaves every target as it was. Two exports
    that name one file, or an export to a directory, are refused before
    anything is written: the later one would replace the earlier, and a
    directory could not be replaced until an earlier target had been."""
    # realpath costs a few system calls per path, and one export cannot clash
    if len(exports) > 1:
        seen = set()
        for path, _ in exports:
            real = os.path.realpath(path)
            if real in seen:
                raise MatrixError(f"two exports name one file: {path}")
            if os.path.isdir(real):
                raise MatrixError(f"cannot write {path}: Is a directory")
            seen.add(real)
    staged = []
    try:
        for k, (path, data) in enumerate(exports):
            temp = f"{path}.{os.getpid()}-{k}.tmp"
            with open(temp, "xb") as fh:
                staged.append(temp)
                fh.writelines([data] if isinstance(data, bytes) else data)
        for temp, (path, _) in zip(staged, exports):
            os.replace(temp, path)
    except BaseException as exc:
        for temp in staged:
            with contextlib.suppress(OSError):
                os.remove(temp)
        if isinstance(exc, OSError):
            raise MatrixError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise


def _read_matrix(path):
    return RMatrix.from_json_dict(_load_json(path))


def _read_frame(path):
    return qflag.FlagFrame.from_json_dict(_load_json(path))


def _read_pattern(path):
    return boolrel.BoolMatrix.from_json_dict(_load_json(path))


def _dump(obj):
    import json

    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# The two writers below give _dump's bytes, joined by hand: these outputs
# hold only ints and texts of digits, signs and slashes, which need no
# escaping.


def _print_matrix(m, out):
    entries = [
        '    [\n      "' + '",\n      "'.join(row) + '"\n    ]'
        for row in m.to_json_dict()["entries"]
    ]
    out.write(
        f'{{\n  "cols": {m.cols},\n  "entries": {_json_list(entries)},\n  "rows": {m.rows}\n}}\n'
    )


def _print_pattern(pattern, out):
    bits = [f"    [\n      {i + 1},\n      {j + 1}\n    ]" for i, j in pattern.bits()]
    out.write(f'{{\n  "bits": {_json_list(bits)},\n  "n": {pattern.n}\n}}\n')


# -- subcommand handlers -------------------------------------------------------


def _cmd_nilcheck(args, out):
    a = _read_matrix(args.matrix)
    if args.ambient == "omega":
        cls = omega.nilpotency_class(a)
    else:
        if args.ambient == "d" and not qflag.is_doubly_stochastic(a):
            raise MatrixError("matrix is not doubly stochastic")
        cls = qflag.nilpotency_class(a)
    out.write(f"{cls}\n" if cls is not None else "not nilpotent\n")
    return 0


def _cmd_omega_count(args, out):
    count = omega.count_max_nilpotent(args.n, args.k, sys.get_int_max_str_digits())
    out.write(f"{format_rational(count)}\n")
    return 0


# (element separator, block open, block close, block separator, line open,
# line close) of each omega enumerate layout; the JSON one gives the bytes
# of _dump's {"n", "k", "count", "partitions"} with every partition item
# followed by the item separator, which the last item drops
_TEXT_LAYOUT = (",", "", "", "|", "", "\n")
_JSON_LAYOUT = (",\n        ", "[\n        ", "\n      ]", ",\n      ", "[\n      ", "\n    ],\n    ")


def _rendered_chunks(n, k, layout):
    """(count, text) of each head's chunk of partitions, in order.

    Each tail is rendered once as 2k closed texts: its block j plain, then
    block j after the element separator (empty for an empty block), each
    followed by the text that closes block j. Equal texts are one string,
    shared by every tail. For each set of blocks that a head fills, one list
    picks, per tail and block, the plain text where the head leaves the
    block empty and the separated one where it fills it, and leaves a slot
    before each for the head's opening text. A head's chunk is its k opening
    texts written into those slots by one slice assignment and one join, so
    no Python call runs per line."""
    sep, block_open, block_close, block_sep, line_open, line_close = layout
    closers = [block_close + block_sep] * (k - 1) + [block_close + line_close]
    plain_text = functools.cache(lambda block: sep.join(map(str, block)))
    closed = functools.cache(lambda text, j: text + closers[j])

    def tail_texts(blocks):
        plain = list(map(plain_text, blocks))
        after = [sep + text if text else "" for text in plain]
        return [*map(closed, plain, range(k)), *map(closed, after, range(k))]

    chunk_parts = {}  # the blocks a head fills -> its chunk's parts, openings unset
    for head, tails in omega._partition_chunks(n, k, tail_texts):
        # a bytes key: a tuple built straight from a map is resized, which
        # strands a spare tuple in the interpreter's free list once per head
        filled = bytes(map(bool, head))
        parts = chunk_parts.get(filled)
        if parts is None:
            picks = [j + k * f for j, f in enumerate(filled)]
            parts = chunk_parts[filled] = [None] * (2 * k * len(tails))
            parts[1::2] = [texts[i] for texts in tails for i in picks]
        opening = [block_open + text for text in map(plain_text, head)]
        opening[0] = line_open + opening[0]
        parts[0::2] = opening * len(tails)
        yield len(tails), "".join(parts)


def _json_chunks(n, k, count, rendered):
    """The --json document as byte chunks, from the rendered (size, text)
    head chunks: each is held until the next has come, so that the last
    one alone drops its trailing item separator. The partitions written
    must number count, which the document names first."""
    held = f'{{\n  "count": {count},\n  "k": {k},\n  "n": {n},\n  "partitions": [\n    '
    written = 0
    for size, text in rendered:
        yield held.encode()
        held, written = text, written + size
    assert written == count, f"wrote {written} partitions, counted {count}"
    yield (held.removesuffix(",\n    ") + "\n  ]\n}\n").encode()


def _cmd_omega_enumerate(args, out):
    if not args.json:
        # streamed a head at a time: each write holds at most 4,651 lines
        for _, text in _rendered_chunks(args.n, args.k, _TEXT_LAYOUT):
            out.write(text)
        return 0
    # streamed too; the first chunk is rendered before anything else, so
    # that n and k meet the enumerator's checks before the count and the file
    rendered = _rendered_chunks(args.n, args.k, _JSON_LAYOUT)
    first = next(rendered)
    count = omega.count_max_nilpotent(args.n, args.k)
    _write_files([(args.json, _json_chunks(args.n, args.k, count, chain([first], rendered)))])
    out.write(f"wrote {count} partitions to {args.json}\n")
    return 0


def _cmd_omega_pattern(args, out):
    if args.order is not None:
        pattern = omega.pattern_from_order(args.order)
    else:
        pattern = omega.pattern_from_partition(args.partition)
    _print_pattern(pattern, out)
    return 0


def _cmd_omega_member(args, out):
    a = _read_matrix(args.matrix)
    pattern = _read_pattern(args.pattern)
    out.write("true\n" if omega.membership(a, pattern, args.kind) else "false\n")
    return 0


def _cmd_q_iso(args, out):
    frame = _read_frame(args.frame)
    a = _read_matrix(args.matrix)
    if args.inverse:
        _print_matrix(qflag.iso_backward(a, frame), out)
    else:
        _print_matrix(qflag.iso_forward(a, frame), out)
    return 0


def _cmd_q_member(args, out):
    frame = _read_frame(args.frame)
    a = _read_matrix(args.matrix)
    result = qflag.flag_membership(a, frame)
    if args.doubly_stochastic:
        result = result and qflag.is_doubly_stochastic(a)
    out.write("true\n" if result else "false\n")
    return 0


def _cmd_q_make_nilpotent(args, out):
    frame = _read_frame(args.frame)
    b = _read_matrix(args.b)
    _print_matrix(qflag.make_stochastic_nilpotent(frame, b, args.alpha), out)
    return 0


def _cmd_polytope_build(args, out):
    frame = _read_frame(args.frame)
    h = polytope.build_h_polytope(frame)
    v = polytope.enumerate_vertices(h)
    lines = [
        f"d = {h.d}\n",
        f"inequalities = {len(h.rows)}\n",
        f"vertices = {len(v.rays)}\n",
        f"bounded = {'true' if polytope.is_bounded(h) else 'false'}\n",
    ]
    if args.census:
        census = polytope.facet_census(h)
        body = ", ".join(f"{size}: {count}" for size, count in sorted(census.items()))
        lines.append(f"facet census = {{{body}}}\n")
    # serialise every export before opening any file, so a failed export
    # leaves existing files as they were; stdout is written last, so any
    # error leaves it empty
    exports = [
        (path, polytope.export_polytope(h, fmt))
        for path, fmt in ((args.out, "json"), (args.off, "off"))
        if path
    ]
    _write_files(exports)
    lines += [f"wrote {path}\n" for path, _ in exports]
    out.write("".join(lines))
    return 0


def _cmd_verify(args, out):
    ok, checks = reference.verify(args.dataset)
    if args.json:
        out.write(_dump({"dataset": args.dataset, "ok": ok, "checks": checks}))
    else:
        for c in checks:
            status = "PASS" if c["ok"] else "FAIL"
            out.write(f"{status} {c['name']}: {c['detail']}\n")
            if not c["ok"] and c["diff"]:
                out.write(f"     {c['diff']}\n")
        out.write("all checks passed\n" if ok else "verification FAILED\n")
    return 0 if ok else 1


# -- parser --------------------------------------------------------------------


def _usage_checked(parse):
    """argparse type: a value that parse rejects is a usage error (exit 2)
    whose message names the option."""

    def convert(text):
        try:
            return parse(text)
        except MatrixError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _ascii_ints(parser):
    """Options of type int take ASCII digits only. Registered under int,
    the converter keeps argparse's "invalid int value" message."""
    parser.register("type", int, _parse_int)


def build_parser():
    """The root parser and its five command parsers, held by name in its
    commands attribute. They stay empty until main fills one, with its
    arguments and subcommands, the first time its command is chosen."""
    parser = argparse.ArgumentParser(
        prog="nilmat",
        description=(
            "Exact tools for nilpotent subsemigroups of nonnegative and "
            "doubly stochastic matrix semigroups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = {name: sub.add_parser(name, help=text) for name, text, _ in _COMMANDS}
    return parser


def _fill_nilcheck(p):
    global omega, qflag
    from . import omega, qflag

    p.add_argument("--matrix", required=True)
    p.add_argument(
        "--ambient",
        required=True,
        choices=["omega", "q", "d"],
        help="which zero element applies: the zero matrix (omega) or the flat matrix (q, d)",
    )
    p.set_defaults(func=_cmd_nilcheck)


def _fill_omega(p):
    global omega
    from . import omega

    sub = p.add_subparsers(dest="subcommand", required=True)
    c = sub.add_parser("count", help="number of maximal nilpotent subsemigroups of class k")
    _ascii_ints(c)
    c.add_argument("--n", type=int, required=True)
    c.add_argument("--k", type=int, required=True)
    c.set_defaults(func=_cmd_omega_count)

    e = sub.add_parser("enumerate", help="ordered partitions of {1..n} into k blocks")
    _ascii_ints(e)
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--k", type=int, required=True)
    e.add_argument("--json", help="write a JSON file instead of text lines")
    e.set_defaults(func=_cmd_omega_enumerate)

    pat = sub.add_parser("pattern", help="support pattern of an order or ordered partition")
    one = pat.add_mutually_exclusive_group(required=True)
    one.add_argument(
        "--order", type=_usage_checked(omega.LinearOrder.parse), help='linear order like "2,3,1"'
    )
    one.add_argument(
        "--partition",
        type=_usage_checked(omega.OrderedPartition.parse),
        help='ordered partition like "1,3|2"',
    )
    pat.set_defaults(func=_cmd_omega_pattern)

    m = sub.add_parser("member", help="membership of a matrix in a pattern subsemigroup")
    m.add_argument("--pattern", required=True)
    m.add_argument("--matrix", required=True)
    m.add_argument("--kind", required=True, choices=list(omega.KINDS))
    m.set_defaults(func=_cmd_omega_member)


def _fill_q(p):
    global qflag
    from . import qflag

    sub = p.add_subparsers(dest="subcommand", required=True)
    iso = sub.add_parser("iso", help="reduce by a frame, or embed with --inverse")
    iso.add_argument("--frame", required=True)
    iso.add_argument("--matrix", required=True)
    iso.add_argument("--inverse", action="store_true")
    iso.set_defaults(func=_cmd_q_iso)

    m = sub.add_parser("member", help="membership in a flag's nilpotent subsemigroup")
    m.add_argument("--frame", required=True)
    m.add_argument("--matrix", required=True)
    m.add_argument("--doubly-stochastic", action="store_true")
    m.set_defaults(func=_cmd_q_member)

    nc = sub.add_parser("nilclass", help="nilpotency class relative to the flat matrix")
    nc.add_argument("--matrix", required=True)
    nc.set_defaults(func=_cmd_nilcheck, ambient="q")

    mk = sub.add_parser("make-nilpotent", help="doubly stochastic nilpotent from a reduced matrix")
    mk.add_argument("--frame", required=True)
    mk.add_argument("--b", required=True)
    mk.add_argument(
        "--alpha", type=_usage_checked(parse_rational), help='exact rational like "1/16"'
    )
    mk.set_defaults(func=_cmd_q_make_nilpotent)


def _fill_polytope(p):
    global polytope, qflag
    from . import polytope, qflag

    sub = p.add_subparsers(dest="subcommand", required=True)
    b = sub.add_parser("build", help="inequalities, vertices, census, exports")
    b.add_argument("--frame", required=True)
    b.add_argument("--out", help="write exact JSON here")
    b.add_argument("--off", help="write an approximate OFF mesh here")
    b.add_argument("--census", action="store_true")
    b.set_defaults(func=_cmd_polytope_build)


def _fill_verify(p):
    global reference
    from . import reference

    p.add_argument("dataset", choices=sorted(reference.DATASETS))
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_verify)


# each command's name, help text and fill, which adds the command's
# arguments and subcommands and imports the modules its handlers read
_COMMANDS = (
    ("nilcheck", "nilpotency class of a matrix in a chosen ambient", _fill_nilcheck),
    ("omega", "patterns and counts in the nonnegative ambient", _fill_omega),
    ("q", "the unit row/column sum ambient", _fill_q),
    ("polytope", "doubly stochastic polytopes of flags", _fill_polytope),
    ("verify", "recompute a bundled dataset and diff", _fill_verify),
)


@functools.cache
def _parser():
    """The root parser and the fills not yet run, built once and reused."""
    return build_parser(), {name: fill for name, _, fill in _COMMANDS}


def main(argv=None):
    """Run one command line. One that starts with a command word is parsed
    once, by that command's parser; the root parses any other, with every
    command filled, since it may pass the line to any of them."""
    argv = sys.argv[1:] if argv is None else argv
    root, unfilled = _parser()
    command = root.commands.get(argv[0]) if argv else None
    for name in list(unfilled) if command is None else argv[:1]:
        if name in unfilled:
            unfilled.pop(name)(root.commands[name])
    if command is None:
        args = root.parse_args(argv)
    else:
        # words left over are reported as the root's parse_args reports them
        args, extras = command.parse_known_args(argv[1:])
        if extras:
            root.error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args, sys.stdout)
    except MatrixError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
