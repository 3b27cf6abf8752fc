import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from types import SimpleNamespace

import pytest

from conftest import rng, rand_frame, rand_matrix, rand_tree_frame
import nilmat
from nilmat import cli
from nilmat.cli import main
from nilmat.exactmat import MatrixError, RMatrix
from nilmat.qflag import FlagFrame, q_zero
from nilmat import omega, polytope, reference
from omega_oracles import assignment_partitions

F = Fraction


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def write_matrix(path, m):
    return write_json(path, m.to_json_dict())


def frame_file(tmp_path, n=4, name="frame.json"):
    return write_json(tmp_path / name, FlagFrame.standard(n).to_json_dict())


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_omega_count(capsys):
    code, out, _ = run(capsys, "omega", "count", "--n", "4", "--k", "3")
    assert code == 0
    assert out == "36\n"


def test_omega_count_domain_error(capsys):
    code, _, err = run(capsys, "omega", "count", "--n", "3", "--k", "9")
    assert code == 1
    assert "error:" in err


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["omega", "count", "--n", "4"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["nope"])
    assert exc.value.code == 2
    # int() would read other scripts' digits and underscores: "٢,1" as 2,1
    for option, value in (
        ("--order", "1,x"),
        ("--partition", "1,,2"),
        ("--order", "\u0662,1"),
        ("--order", "1_0,1"),
        ("--partition", "1|\uff12"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["omega", "pattern", option, value])
        assert exc.value.code == 2
        assert f"argument {option}:" in capsys.readouterr().err
    # an Arabic-Indic 5 and a fullwidth 2 would count (5, 2) and print 30
    for command in ("count", "enumerate"):
        for n, k, bad in (
            ("x", "2", "--n"),
            ("1/2", "1", "--n"),
            ("\u0665", "2", "--n"),
            ("5", "\uff12", "--k"),
        ):
            with pytest.raises(SystemExit) as exc:
                main(["omega", command, "--n", n, "--k", k])
            assert exc.value.code == 2
            value = n if bad == "--n" else k
            assert f"argument {bad}: invalid int value: {value!r}" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["q", "make-nilpotent", "--frame", "f.json", "--b", "b.json", "--alpha", "x"])
    assert exc.value.code == 2
    assert "argument --alpha:" in capsys.readouterr().err


def test_in_process_calls_match_fresh_processes(tmp_path, monkeypatch, capsys):
    """main builds the parser once; every later call must still give the
    bytes and exit code of a fresh `python -m nilmat.cli` process. Each
    subcommand runs once to success: its handler reads the modules that its
    command's fill imported, which in one process an earlier fill may have
    bound already, and a fresh process shows a fill that misses one."""
    sequence = [
        ["omega", "count", "--n", "4", "--k", "3"],
        ["omega", "count", "--n", "3", "--k", "9"],
        ["omega", "count", "--n", "4"],
        ["omega", "count", "--n", "4", "--k", "3", "extra"],
        ["nope"],
        ["--bogus", "verify", "example1"],
        ["omega", "pattern", "--order", "1,x"],
        ["polytope", "build", "--frame", "frame.json", "--census"],
        ["q", "make-nilpotent", "--frame", "frame.json", "--b", "b.json", "--alpha", "x"],
        ["omega", "count", "--n", "4", "--k", "3"],
        ["nilcheck", "--matrix", "upper.json", "--ambient", "omega"],
        ["omega", "enumerate", "--n", "3", "--k", "2"],
        ["omega", "pattern", "--order", "2,1"],
        ["omega", "member", "--pattern", "pattern.json", "--matrix", "upper.json", "--kind", "omega"],
        ["q", "iso", "--frame", "frame.json", "--matrix", "flat.json"],
        ["q", "member", "--frame", "frame.json", "--matrix", "flat.json"],
        ["q", "nilclass", "--matrix", "flat.json"],
        ["q", "make-nilpotent", "--frame", "frame.json", "--b", "b.json"],
        ["verify", "example1"],
    ]
    write_json(tmp_path / "frame.json", reference.reference_frame().to_json_dict())
    write_matrix(tmp_path / "upper.json", RMatrix([[0, 1], [0, 0]]))
    write_matrix(tmp_path / "flat.json", q_zero(4))
    write_matrix(tmp_path / "b.json", RMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]))
    pattern = omega.pattern_from_order(omega.LinearOrder.parse("2,1"))
    write_json(tmp_path / "pattern.json", pattern.to_json_dict())
    monkeypatch.chdir(tmp_path)
    # usage text wraps at the terminal width
    monkeypatch.setenv("COLUMNS", "80")
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilmat.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))

    builds = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
    cli._parser.cache_clear()
    in_process = []
    for argv in sequence:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        in_process.append((code, captured.out, captured.err))
    assert len(builds) == 1
    assert [code for code, _, _ in in_process] == [0, 1, 2, 2, 2, 2, 2, 0, 2, 0] + [0] * 9

    for argv, got in zip(sequence, in_process):
        fresh = subprocess.run(
            [sys.executable, "-m", "nilmat.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
        )
        assert got == (fresh.returncode, fresh.stdout, fresh.stderr), argv


def test_a_command_line_starting_with_a_command_skips_the_root_parser(monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("the root parser ran")

    root = cli.build_parser()
    monkeypatch.setattr(root, "parse_args", refuse)
    monkeypatch.setattr(root, "parse_known_args", refuse)
    monkeypatch.setattr(cli, "build_parser", lambda: root)
    cli._parser.cache_clear()
    assert run(capsys, "omega", "count", "--n", "4", "--k", "3") == (0, "36\n", "")
    cli._parser.cache_clear()


@pytest.mark.parametrize(
    "argv",
    [
        ["omega", "enumerate", "--n", "3", "--k", "2", "--json"],
        ["polytope", "build", "--frame", "frame.json", "--out"],
        ["polytope", "build", "--frame", "frame.json", "--off"],
    ],
)
def test_unwritable_output_path_is_a_domain_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "frame.json", reference.reference_frame().to_json_dict())
    target = os.path.join("missing", "x")
    code, _, err = run(capsys, *argv, target)
    assert code == 1
    assert err.startswith(f"error: cannot write {target}: ")


def test_failed_export_keeps_existing_files(tmp_path, monkeypatch, capsys):
    # the OFF mesh is refused at d = 6; neither target may be touched
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "frame.json", FlagFrame.standard(5).to_json_dict())
    for name in ("x.json", "x.off"):
        (tmp_path / name).write_bytes(b"keep me\n")
    code, out, err = run(
        capsys, "polytope", "build", "--frame", "frame.json", "--out", "x.json", "--off", "x.off"
    )
    assert code == 1
    assert err == "error: OFF export defined for 3-dimensional polytopes only\n"
    assert "wrote" not in out
    for name in ("x.json", "x.off"):
        assert (tmp_path / name).read_bytes() == b"keep me\n"


@pytest.mark.parametrize("existing", [None, b"keep me\n"], ids=["fresh", "existing"])
def test_unwritable_second_export_writes_neither(existing, tmp_path, monkeypatch, capsys):
    # the JSON target is writable and the OFF target is not: all or nothing
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "frame.json", reference.reference_frame().to_json_dict())
    if existing is not None:
        (tmp_path / "ok.json").write_bytes(existing)
    target = os.path.join("missing", "x.off")
    code, out, err = run(
        capsys, "polytope", "build", "--frame", "frame.json", "--out", "ok.json", "--off", target
    )
    assert code == 1 and out == ""
    assert err.startswith(f"error: cannot write {target}: ")
    assert ".tmp" not in err
    expected = ["frame.json"] if existing is None else ["frame.json", "ok.json"]
    assert sorted(os.listdir(tmp_path)) == expected
    if existing is not None:
        assert (tmp_path / "ok.json").read_bytes() == existing


@pytest.mark.parametrize("existing", [None, b"keep me\n"], ids=["fresh", "existing"])
@pytest.mark.parametrize("first", ["P", os.path.join(".", "P")], ids=["same", "dot-slash"])
def test_two_exports_to_one_file_are_refused(first, existing, tmp_path, monkeypatch, capsys):
    # the OFF mesh would replace the JSON export it was written after
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "frame.json", reference.reference_frame().to_json_dict())
    if existing is not None:
        (tmp_path / "P").write_bytes(existing)
    code, out, err = run(
        capsys, "polytope", "build", "--frame", "frame.json", "--out", first, "--off", "P"
    )
    assert code == 1 and out == ""
    assert err == "error: two exports name one file: P\n"
    expected = ["frame.json"] if existing is None else ["P", "frame.json"]
    assert sorted(os.listdir(tmp_path)) == expected
    if existing is not None:
        assert (tmp_path / "P").read_bytes() == existing


@pytest.mark.parametrize(
    "opt, message",
    [
        ("--census", "facet census defined for 3-dimensional polytopes only"),
        ("--off", "OFF export defined for 3-dimensional polytopes only"),
    ],
    ids=["census", "off"],
)
def test_refused_build_leaves_stdout_empty(opt, message, tmp_path, monkeypatch, capsys):
    # d = 6: the census and the OFF mesh are refused after vertex enumeration
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "frame.json", FlagFrame.standard(5).to_json_dict())
    argv = ["polytope", "build", "--frame", "frame.json", opt]
    if opt == "--off":
        argv.append("x.off")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"
    assert not (tmp_path / "x.off").exists()


def test_omega_enumerate_text_and_json(tmp_path, capsys):
    code, out, _ = run(capsys, "omega", "enumerate", "--n", "3", "--k", "2")
    assert code == 0
    assert out.splitlines() == ["1,2|3", "1,3|2", "1|2,3", "2,3|1", "2|1,3", "3|1,2"]

    target = tmp_path / "parts.json"
    code, out, _ = run(
        capsys, "omega", "enumerate", "--n", "3", "--k", "2", "--json", str(target)
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["count"] == 6
    assert payload["partitions"][0] == [[1, 2], [3]]


def test_omega_enumerate_text_streams(monkeypatch):
    # text goes out in many bounded writes, one per head assignment of the
    # elements 1..ceil(n/2), and their bytes are the pinned ones
    writes = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=writes.append))
    assert main(["omega", "enumerate", "--n", "8", "--k", "4"]) == 0
    assert len(writes) > 1
    assert max(text.count("\n") for text in writes) <= 4096
    assert (
        hashlib.sha256("".join(writes).encode()).hexdigest()
        == "ecd2061ad908902f894fc9433fa421845fc68985816a48615941ad450fa934bd"
    )

    # memory stays far below the 3.4 MB that (9, 4) prints
    argv = ["omega", "enumerate", "--n", "9", "--k", "4"]
    written = []
    monkeypatch.setattr(sys, "stdout", SimpleNamespace(write=lambda text: written.append(len(text))))
    assert main(argv) == 0  # warm-up: imports and caches
    written.clear()
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(written) == 186480 * len("1,2,3,4,5,6|7|8|9\n")
    assert peak < 1_000_000


@pytest.mark.parametrize(
    "content",
    [None, b'{"rows": [', b"\xff\xfe", b"[" * 100000, b'{"rows": ' + b"9" * 5000 + b"}"],
    ids=["missing", "malformed", "not-utf8", "deep-nesting", "long-integer"],
)
def test_unreadable_json_is_a_domain_error(content, tmp_path, capsys):
    path = tmp_path / "m.json"
    if content is not None:
        path.write_bytes(content)
    code, out, err = run(capsys, "nilcheck", "--matrix", str(path), "--ambient", "omega")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and str(path) in err
    assert "Traceback" not in err


def test_output_too_long_to_write_is_a_domain_error(tmp_path, capsys):
    # Python writes no int of more than 4300 digits by default: 2^15000 - 2
    # has 4516, and the conjugate below has entries of about 6000
    code, out, err = run(capsys, "omega", "count", "--n", "15000", "--k", "2")
    assert (code, out) == (1, "")
    assert err == "error: number has too many digits to write out\n"
    big = 10**3000 - 1
    frame = FlagFrame(RMatrix([[1, big, 1], [1, -big, 0], [1, 0, -1]]), (1, 2))
    f = write_json(tmp_path / "f.json", frame.to_json_dict())
    m = write_matrix(tmp_path / "m.json", RMatrix([[0, big], [0, 0]]))
    code, out, err = run(capsys, "q", "iso", "--frame", f, "--matrix", m, "--inverse")
    assert (code, out) == (1, "")
    assert err == "error: number has too many digits to write out\n"


@pytest.mark.parametrize("k", ["50000", "100000"])
def test_omega_count_too_long_is_refused_before_it_is_computed(k, capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "omega", "count", "--n", "100000", "--k", k)
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (1, "", "error: number has too many digits to write out\n")


def test_omega_count_digit_limit_0_is_unlimited(capsys):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        code, out, _ = run(capsys, "omega", "count", "--n", "15000", "--k", "2")
        expected = f"{2**15000 - 2}\n"
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (0, expected)


def test_omega_pattern(capsys):
    code, out, _ = run(capsys, "omega", "pattern", "--order", "2,3,1")
    assert code == 0
    assert json.loads(out) == {"n": 3, "bits": [[2, 1], [2, 3], [3, 1]]}

    code, out, _ = run(capsys, "omega", "pattern", "--partition", "1,3|2")
    assert code == 0
    assert json.loads(out) == {"n": 3, "bits": [[1, 2], [3, 2]]}

    # exactly one of the two options: neither or both is a usage error, and
    # so is a repeated element ("1,1|2" once printed a 2x2 pattern)
    for options in ([], ["--order", "2,1", "--partition", "1|2"], ["--partition", "1,1|2"]):
        with pytest.raises(SystemExit) as exc:
            main(["omega", "pattern", *options])
        assert exc.value.code == 2
        assert capsys.readouterr().err.startswith("usage: ")


def dumped(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_omega_pattern_writes_the_json_module_bytes(capsys):
    """omega pattern joins its JSON by hand. For n <= 6, each of the 5,316
    ordered partitions and each linear order must give the bytes of
    json.dumps(..., indent=2, sort_keys=True) and a newline."""
    for n in range(1, 7):
        partitions = [p for k in range(1, n + 1) for p in omega.enumerate_partitions(n, k)]
        orders = [omega.LinearOrder(seq) for seq in itertools.permutations(range(1, n + 1))]
        cases = [("--partition", p, omega.pattern_from_partition(p)) for p in partitions]
        cases += [("--order", o, omega.pattern_from_order(o)) for o in orders]
        for option, label, pattern in cases:
            code, out, _ = run(capsys, "omega", "pattern", option, str(label))
            assert (code, out) == (0, dumped(pattern.to_json_dict()))


def test_matrix_outputs_write_the_json_module_bytes():
    # the writer of q iso, q iso --inverse and q make-nilpotent, on 1x1 to
    # 7x7 matrices with negative, fractional and zero entries
    r = rng(8)
    entries = set()
    for size in range(1, 8):
        for _ in range(6):
            m = rand_matrix(r, size)
            out = io.StringIO()
            cli._print_matrix(m, out)
            assert out.getvalue() == dumped(m.to_json_dict())
            entries.update(x for row in m.to_rows() for x in row)
    assert min(entries) < 0 and 0 in entries and any(x.denominator > 1 for x in entries)


def test_omega_member(tmp_path, capsys):
    pattern = tmp_path / "pattern.json"
    pattern.write_text(json.dumps({"n": 2, "bits": [[1, 2]]}))
    matrix = write_matrix(tmp_path / "a.json", RMatrix([[0, 2], [0, 0]]))
    code, out, _ = run(
        capsys, "omega", "member", "--pattern", str(pattern), "--matrix", matrix,
        "--kind", "omega",
    )
    assert code == 0 and out == "true\n"

    lower = tmp_path / "lower.json"
    lower.write_text(json.dumps({"n": 2, "bits": [[2, 1]]}))
    code, out, _ = run(
        capsys, "omega", "member", "--pattern", str(lower), "--matrix", matrix,
        "--kind", "omega",
    )
    assert code == 0 and out == "false\n"

    for bad_bits in (5, None):
        pattern.write_text(json.dumps({"n": 2, "bits": bad_bits}))
        code, out, err = run(
            capsys, "omega", "member", "--pattern", str(pattern), "--matrix", matrix,
            "--kind", "omega",
        )
        assert code == 1 and out == "" and "error:" in err


def test_omega_member_refuses_an_oversized_pattern_at_once(tmp_path, capsys):
    pattern = write_json(tmp_path / "pattern.json", {"n": 10**20, "bits": []})
    matrix = write_matrix(tmp_path / "a.json", RMatrix([[0]]))
    code, out, err = run(
        capsys, "omega", "member", "--pattern", pattern, "--matrix", matrix, "--kind", "omega"
    )
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_omega_pattern_refuses_a_pattern_too_large_to_read_back(capsys):
    order = ",".join(map(str, range(1, 1002)))
    code, out, err = run(capsys, "omega", "pattern", "--order", order)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize", "typing"}
COMMAND_ONLY = {"json", "nilmat.omega", "nilmat.polytope", "nilmat.qflag", "nilmat.reference"}


@pytest.mark.parametrize(
    "statement, module, absent",
    [
        pytest.param("import nilmat.cli", "nilmat.cli", INTROSPECTION, id="nilmat.cli"),
        pytest.param("import nilmat", "nilmat", INTROSPECTION, id="nilmat"),
        pytest.param(
            "import nilmat.cli; nilmat.cli.build_parser()",
            "nilmat.cli",
            INTROSPECTION | COMMAND_ONLY,
            id="build_parser",
        ),
        pytest.param(
            'import nilmat.cli; nilmat.cli.main(["omega", "count", "--n", "4", "--k", "2"])',
            "nilmat.omega",
            {"nilmat.polytope"},
            id="omega-count",
        ),
        pytest.param(
            'import nilmat.cli; nilmat.cli.main(["omega", "pattern", "--partition", "1,3|2"])',
            "nilmat.omega",
            {"json", "nilmat.polytope"},
            id="omega-pattern",
        ),
    ],
)
def test_import_loads_no_introspection_modules(statement, module, absent):
    """`import nilmat.cli` and build_parser() run before every command;
    dataclasses pulls in inspect, ast, dis and tokenize, about half of that
    start-up time, and json and the modules past exactmat and boolrel are
    loaded only by the commands that use them. The modules are counted as
    the difference of sys.modules around the statement, so that a site hook
    preloading one of them does not matter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(nilmat.__file__)))
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "before = set(sys.modules)\n"
        f"{statement}\n"
        "print(' '.join(sorted(set(sys.modules) - before)), file=sys.stderr)\n"
    )
    fresh = subprocess.run(
        [sys.executable, "-I", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert fresh.returncode == 0, fresh.stderr
    loaded = set(fresh.stderr.split())
    assert module in loaded
    assert not loaded & absent


def test_nilcheck_ambients(tmp_path, capsys):
    upper = write_matrix(tmp_path / "u.json", RMatrix([[0, 1], [0, 0]]))
    code, out, _ = run(capsys, "nilcheck", "--matrix", upper, "--ambient", "omega")
    assert code == 0 and out == "2\n"

    flat = write_matrix(tmp_path / "flat.json", q_zero(3))
    code, out, _ = run(capsys, "nilcheck", "--matrix", flat, "--ambient", "q")
    assert code == 0 and out == "1\n"
    code, out, _ = run(capsys, "nilcheck", "--matrix", flat, "--ambient", "d")
    assert code == 0 and out == "1\n"

    ident = write_matrix(tmp_path / "i.json", RMatrix.identity(3))
    code, out, _ = run(capsys, "nilcheck", "--matrix", ident, "--ambient", "q")
    assert code == 0 and out == "not nilpotent\n"

    neg = write_matrix(tmp_path / "neg.json", RMatrix([[2, -1], [-1, 2]]))
    code, _, err = run(capsys, "nilcheck", "--matrix", neg, "--ambient", "omega")
    assert code == 1 and "error:" in err
    code, _, err = run(capsys, "nilcheck", "--matrix", neg, "--ambient", "d")
    assert code == 1 and "error:" in err


def test_nilcheck_rejects_decimal_entries(tmp_path, capsys):
    bad = write_json(
        tmp_path / "bad.json", {"rows": 1, "cols": 1, "entries": [["0.5"]]}
    )
    code, _, err = run(capsys, "nilcheck", "--matrix", bad, "--ambient", "omega")
    assert code == 1
    assert "error:" in err


def test_q_iso_round_trip(tmp_path, capsys):
    frame = frame_file(tmp_path)
    b = RMatrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    b_file = write_matrix(tmp_path / "b.json", b)
    code, out, _ = run(capsys, "q", "iso", "--frame", frame, "--matrix", b_file, "--inverse")
    assert code == 0
    embedded = RMatrix.from_json_dict(json.loads(out))

    emb_file = write_matrix(tmp_path / "emb.json", embedded)
    code, out, _ = run(capsys, "q", "iso", "--frame", frame, "--matrix", emb_file)
    assert code == 0
    assert RMatrix.from_json_dict(json.loads(out)) == b

    bad_frame = write_json(tmp_path / "bad.json", dict(FlagFrame.standard(4).to_json_dict(), dims=1))
    code, out, err = run(capsys, "q", "iso", "--frame", bad_frame, "--matrix", emb_file)
    assert code == 1 and out == ""
    assert err == "error: not a sequence of integers: 1\n"


def test_q_member_and_nilclass(tmp_path, capsys):
    frame = frame_file(tmp_path)
    flat = write_matrix(tmp_path / "flat.json", q_zero(4))
    code, out, _ = run(capsys, "q", "member", "--frame", frame, "--matrix", flat)
    assert code == 0 and out == "true\n"
    code, out, _ = run(
        capsys, "q", "member", "--frame", frame, "--matrix", flat, "--doubly-stochastic"
    )
    assert code == 0 and out == "true\n"

    ident = write_matrix(tmp_path / "i.json", RMatrix.identity(4))
    code, out, _ = run(capsys, "q", "member", "--frame", frame, "--matrix", ident)
    assert code == 0 and out == "false\n"

    code, out, _ = run(capsys, "q", "nilclass", "--matrix", flat)
    assert code == 0 and out == "1\n"


def test_q_make_nilpotent(tmp_path, capsys):
    frame = frame_file(tmp_path)
    shift = write_matrix(
        tmp_path / "shift.json", RMatrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    )
    code, out, _ = run(capsys, "q", "make-nilpotent", "--frame", frame, "--b", shift)
    assert code == 0
    made = RMatrix.from_json_dict(json.loads(out))
    made_file = write_matrix(tmp_path / "made.json", made)
    code, out, _ = run(capsys, "q", "nilclass", "--matrix", made_file)
    assert code == 0 and out == "3\n"

    code, _, err = run(
        capsys, "q", "make-nilpotent", "--frame", frame, "--b", shift, "--alpha", "100",
    )
    assert code == 1 and "error:" in err


def test_polytope_build(tmp_path, capsys):
    frame = write_json(
        tmp_path / "frame.json", reference.reference_frame().to_json_dict()
    )
    out_file = tmp_path / "poly.json"
    off_file = tmp_path / "poly.off"
    code, out, _ = run(
        capsys, "polytope", "build", "--frame", frame, "--census",
        "--out", str(out_file), "--off", str(off_file),
    )
    assert code == 0
    assert "d = 3" in out
    assert "inequalities = 8" in out
    assert "vertices = 10" in out
    assert "bounded = true" in out
    assert "facet census = {3: 2, 4: 2, 5: 2, 6: 1}" in out
    payload = json.loads(out_file.read_text())
    assert len(payload["vertices"]) == 10
    assert off_file.read_text().startswith("OFF\n10 7 15\n")


def test_polytope_build_output_is_deterministic(tmp_path, capsys):
    frame = write_json(
        tmp_path / "frame.json", reference.reference_frame().to_json_dict()
    )
    runs = []
    for _ in range(2):
        code, out, _ = run(capsys, "polytope", "build", "--frame", frame, "--census")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]


# sha256 of stdout and of each written file, pinned from the exhaustive
# tight-subset enumerator that preceded the double description routine
GOLDEN_BUILDS = {
    "frame-a": {
        "stdout": "b3aab1fef0c4ec3da417db8803f4d7a5e99f86b3eb9afc99b3ffc44d122c13ba",
        "poly.json": "a5ad4b1b259d4ae5fbf15a99edb9fa5917c489b876e817b8747b195167eff31a",
        "poly.off": "9e6b02214006054e141aa4ec10183f4b1cbef5a2bbeb94d77f563e8600d957bd",
    },
    "frame-b": {
        "stdout": "a18366a3222c852b4e1160d00f7d111afb19746546e192f7982ff97c88064017",
        "poly.json": "7c231bac204a02b03a71169949cbc99dd5146428dca089fcb44ebbc5d3d4653d",
        "poly.off": "45c7397ec7149dd4d0cde62f16f59bc4d4901737b2b02310cccee86fa986d1c1",
    },
    "standard-5": {
        "stdout": "082b448f9e7bf904a83df95ff2e538f9f94b614b72b6f3e33a904024bf0f4fb9",
        "poly.json": "f7cc5d9ad1b84dca338f9bfbb3bef2ccefcfdfdb730404c4aea97465a5dcf098",
    },
    # one sha256 over the stdout, JSON and OFF bytes of every build, in
    # seed order: 40 dense n=4 frames and 12 tree n=5 frames
    "seeded-d3": {"all": "8c3b55ff15ffa4dcac07b8c2894fed99c702367cd6ccac7b13385b8634e386a1"},
    "seeded-d6": {"all": "53252ec0dfdce82ba7d15b5e7dfcc65d66b28f28e395567ab2bd72b86a0560e5"},
    # 8 dense n=5 frames with --out (25 rows, 135-524 vertices, denominators
    # of up to 9 digits), pinned from the double description that sorted
    # its vertices as Fraction tuples
    "seeded-d6-dense": {"all": "89909d41cb64a995e9ca101a25ba3eb6c311cb7d91523d9950bf2fc3292b9c83"},
}


def golden_builds(name):
    """(frame, options) of each `polytope build` run behind a GOLDEN_BUILDS
    entry, in order."""
    full = ["--census", "--out", "poly.json", "--off", "poly.off"]
    if name == "seeded-d3":
        return [(rand_frame(rng(k), 4), full) for k in range(40)]
    if name == "seeded-d6":
        return [(rand_tree_frame(rng(k), 5), ["--out", "poly.json"]) for k in range(12)]
    if name == "seeded-d6-dense":
        return [(rand_frame(rng(k), 5), ["--out", "poly.json"]) for k in range(8)]
    if name == "standard-5":
        return [(FlagFrame.standard(5), ["--out", "poly.json"])]
    return [(reference.reference_frame(which=name), full)]


@pytest.mark.parametrize("name", sorted(GOLDEN_BUILDS))
def test_polytope_build_bytes_are_pinned(name, tmp_path, monkeypatch, capsys):
    # relative output names keep the "wrote ..." lines free of tmp paths
    monkeypatch.chdir(tmp_path)
    digests, every = {}, hashlib.sha256()
    for frame, opts in golden_builds(name):
        write_json(tmp_path / "frame.json", frame.to_json_dict())
        code, out, _ = run(capsys, "polytope", "build", "--frame", "frame.json", *opts)
        assert code == 0
        outputs = {"stdout": out.encode()}
        for written in ("poly.json", "poly.off"):
            if written in opts:
                outputs[written] = (tmp_path / written).read_bytes()
        for key, data in outputs.items():
            digests[key] = hashlib.sha256(data).hexdigest()
            every.update(data)
    if "all" in GOLDEN_BUILDS[name]:
        digests = {"all": every.hexdigest()}
    assert digests == GOLDEN_BUILDS[name]


def test_polytope_build_reads_no_fraction_views(tmp_path, monkeypatch, capsys):
    # the census, the counts and the JSON export come from the integer rows,
    # rays and masks alone
    monkeypatch.chdir(tmp_path)
    argv = ["polytope", "build", "--frame", "frame.json", "--census", "--out", "poly.json"]
    expected = []
    for frame in (reference.reference_frame(), rand_frame(rng(3), 4)):
        write_json(tmp_path / "frame.json", frame.to_json_dict())
        code, out, _ = run(capsys, *argv)
        expected.append((code, out, (tmp_path / "poly.json").read_bytes()))

    def refuse(self):
        raise AssertionError("a Fraction view was built")

    monkeypatch.setattr(polytope.VPolytope, "vertices", property(refuse))
    for frame, before in zip((reference.reference_frame(), rand_frame(rng(3), 4)), expected):
        write_json(tmp_path / "frame.json", frame.to_json_dict())
        code, out, _ = run(capsys, *argv)
        assert (code, out, (tmp_path / "poly.json").read_bytes()) == before
        assert code == 0 and "facet census = {" in out


@pytest.mark.parametrize(
    "frame, opts",
    [
        (reference.reference_frame(), ["--census", "--out", "poly.json", "--off", "poly.off"]),
        (rand_tree_frame(rng(0), 5), ["--out", "poly.json"]),
    ],
    ids=["d3", "d6"],
)
def test_polytope_build_solves_once(frame, opts, tmp_path, monkeypatch, capsys):
    # the start vertex is the one solve: its d edge directions come from one
    # elimination. The benchmark's self-test test_counts_repeat_exactly
    # needs this call (it asserts polytope.enumerate_vertices.solves > 0);
    # ROADMAP item 6 reads the vertex off the elimination too and retires both
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "frame.json", frame.to_json_dict())
    calls = []
    solve = polytope.solve_unique
    monkeypatch.setattr(polytope, "solve_unique", lambda m, b: calls.append(m) or solve(m, b))
    code, _, _ = run(capsys, "polytope", "build", "--frame", "frame.json", *opts)
    assert code == 0
    assert len(calls) == 1


# sha256 of `omega enumerate` output, pinned from the assignment-vector
# enumerator that preceded the block-carrying one
def test_omega_enumerate_bytes_are_pinned(tmp_path, monkeypatch, capsys):
    code, out, _ = run(capsys, "omega", "enumerate", "--n", "8", "--k", "4")
    assert code == 0
    assert len(out.splitlines()) == 40824
    assert (
        hashlib.sha256(out.encode()).hexdigest()
        == "ecd2061ad908902f894fc9433fa421845fc68985816a48615941ad450fa934bd"
    )
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "omega", "enumerate", "--n", "7", "--k", "4", "--json", "p.json")
    assert code == 0
    assert out == "wrote 8400 partitions to p.json\n"
    assert (
        hashlib.sha256((tmp_path / "p.json").read_bytes()).hexdigest()
        == "8899f7c7772aafb6a1910a5f602f5dd7aaef63be618221b0512b214e2e309809"
    )


# sha256 over every text output with 1 <= k <= n <= 8, in order of n then
# k, followed by the --json files for n = 8 and k = 2, 4, 7; pinned from
# the renderer that formatted one str.format template per line
def test_omega_enumerate_bytes_are_pinned_over_a_wide_range(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    every = hashlib.sha256()
    for n in range(1, 9):
        for k in range(1, n + 1):
            code, out, _ = run(capsys, "omega", "enumerate", "--n", str(n), "--k", str(k))
            assert code == 0
            every.update(out.encode())
    for k in (2, 4, 7):
        argv = ["omega", "enumerate", "--n", "8", "--k", str(k), "--json", "p.json"]
        assert run(capsys, *argv)[0] == 0
        every.update((tmp_path / "p.json").read_bytes())
    assert every.hexdigest() == "2ef2a8284388994412ab4be5a5d340788e2c174f545f8dd56b243e578f5253c7"


def test_omega_enumerate_json_streams(tmp_path, monkeypatch, capsys):
    # the document goes to the file a head chunk at a time, so memory stays
    # far below the 6.7 MB that (8, 4) writes
    monkeypatch.chdir(tmp_path)
    argv = ["omega", "enumerate", "--n", "8", "--k", "4", "--json", "p.json"]
    assert main(argv) == 0  # warm-up: imports and caches
    tracemalloc.start()
    try:
        assert main(argv) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().out == "wrote 40824 partitions to p.json\n" * 2
    assert (tmp_path / "p.json").stat().st_size == 6695199
    assert peak < 1_000_000


def test_a_failing_chunk_stream_leaves_every_target_as_it_was(tmp_path):
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    first.write_bytes(b"old a")
    second.write_bytes(b"old b")

    def chunks(error):
        yield b"new "
        yield b"b, half"
        raise error

    exports = [(str(first), b"new a"), (str(second), chunks(RuntimeError("mid-way")))]
    with pytest.raises(RuntimeError, match="mid-way"):
        cli._write_files(exports)
    exports = [(str(first), b"new a"), (str(second), chunks(OSError(28, "No space left")))]
    message = f"^cannot write {re.escape(str(second))}: No space left$"
    with pytest.raises(MatrixError, match=message):
        cli._write_files(exports)
    assert (first.read_bytes(), second.read_bytes()) == (b"old a", b"old b")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]

    cli._write_files([(str(first), b"new a"), (str(second), iter([b"new ", b"b"]))])
    assert (first.read_bytes(), second.read_bytes()) == (b"new a", b"new b")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.json", "b.json"]


def test_omega_enumerate_json_count_is_cross_checked(tmp_path, monkeypatch):
    # a count that disagrees with the partitions written stops the stream,
    # and the existing file stays as it was
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p.json").write_bytes(b"old")
    monkeypatch.setattr(omega, "count_max_nilpotent", lambda n, k: 35)
    with pytest.raises(AssertionError, match="wrote 36 partitions, counted 35"):
        main(["omega", "enumerate", "--n", "4", "--k", "3", "--json", "p.json"])
    assert (tmp_path / "p.json").read_bytes() == b"old"
    assert [p.name for p in tmp_path.iterdir()] == ["p.json"]


def test_omega_enumerate_matches_json_dumps_and_the_oracle(tmp_path, monkeypatch, capsys):
    # the hand-joined layouts against the stdlib encoder and str(partition)
    monkeypatch.chdir(tmp_path)
    for n in range(1, 8):
        for k in range(1, n + 1):
            expected = list(assignment_partitions(n, k))
            code, out, _ = run(capsys, "omega", "enumerate", "--n", str(n), "--k", str(k))
            assert (code, out) == (0, "".join(f"{p}\n" for p in expected))
            argv = ["omega", "enumerate", "--n", str(n), "--k", str(k), "--json", "p.json"]
            code, out, _ = run(capsys, *argv)
            assert (code, out) == (0, f"wrote {len(expected)} partitions to p.json\n")
            payload = {
                "n": n,
                "k": k,
                "count": len(expected),
                "partitions": [[list(b) for b in p.blocks] for p in expected],
            }
            dumped = json.dumps(payload, indent=2, sort_keys=True) + "\n"
            assert (tmp_path / "p.json").read_text() == dumped


def test_verify_dataset(capsys):
    code, out, _ = run(capsys, "verify", "example1")
    assert code == 0
    lines = out.splitlines()
    assert sum(1 for line in lines if line.startswith("PASS")) == 6
    assert not any(line.startswith("FAIL") for line in lines)
    assert lines[-1] == "all checks passed"

    code, out, _ = run(capsys, "verify", "example1", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert len(payload["checks"]) == 6

    with pytest.raises(MatrixError, match="unknown verification dataset: 'example2'"):
        reference.verify("example2")


@pytest.mark.parametrize("name", [["example1"], ("example1",), None, 1], ids=repr)
def test_verify_refuses_dataset_names_that_are_not_strings(name):
    with pytest.raises(MatrixError, match=f"dataset name must be a string, got {type(name).__name__}"):
        reference.verify(name)


@pytest.mark.parametrize(
    "name, which, message",
    [
        ("x", "frame-a", "unknown verification dataset: 'x'"),
        (None, "frame-a", "dataset name must be a string, got NoneType"),
        ("example1", "frame-c", "unknown frame of example1: 'frame-c'"),
        ("example1", None, "unknown frame of example1: None"),
        ("example1", ["frame-a"], r"unknown frame of example1: \['frame-a'\]"),
    ],
    ids=["unknown-dataset", "dataset-None", "unknown-frame", "frame-None", "frame-list"],
)
def test_reference_frame_refuses_unknown_datasets_and_frames(name, which, message):
    with pytest.raises(MatrixError, match=message):
        reference.reference_frame(name, which)


def test_verify_detects_tampering():
    tampered = {
        which: {
            "matrix": entry["matrix"],
            "inequalities": entry["inequalities"],
            "vertices": set(entry["vertices"]),
            "census": entry["census"],
        }
        for which, entry in reference.DATASETS["example1"].items()
    }
    spoiled = tampered["frame-a"]["vertices"] - {(F(1, 2), F(1, 2), F(0))}
    tampered["frame-a"]["vertices"] = spoiled | {(F(1, 2), F(1, 2), F(1, 100))}
    checks = reference.run_checks(tampered)
    bad = [c for c in checks if not c["ok"]]
    assert len(bad) == 1
    assert bad[0]["name"] == "frame-a vertices"
    assert "missing" in bad[0]["diff"] and "unexpected" in bad[0]["diff"]
    assert "1/100" in bad[0]["diff"]


def test_verify_prints_a_failed_check_with_its_diff(monkeypatch, capsys):
    spoiled = dict(reference.DATASETS["example1"])
    spoiled["frame-b"] = dict(spoiled["frame-b"], census={3: 3, 4: 1})
    monkeypatch.setitem(reference.DATASETS, "example1", spoiled)
    code, out, _ = run(capsys, "verify", "example1")
    assert code == 1
    lines = out.splitlines()
    assert sum(line.startswith("PASS") for line in lines) == 5
    assert lines[-3:] == [
        "FAIL frame-b facet census: {3-gon x4}",
        "     expected {3-gon x3, 4-gon x1}, got {3-gon x4}",
        "verification FAILED",
    ]
