"""The CLI's error contract under fuzzing: whatever the argv and whatever
the JSON files hold, `cli.main` returns 0 or 1 or exits with status 0 or
2 (argparse's usage errors and --help), and never lets an exception out.

Each file role (frame, matrix, pattern) gets a document drawn from valid
ones, valid ones with one field spoilt or with bytes cut off, drawn
matrices and frames, and arbitrary JSON; argv comes from every
subcommand's options, with values that are those files, missing files,
small and large integers, rational literals and junk."""

import contextlib
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from nilmat import cli
from nilmat.boolrel import BoolMatrix
from nilmat.exactmat import RMatrix
from nilmat.qflag import FlagFrame
from nilmat.reference import reference_frame

FUZZ = settings(max_examples=400, deadline=None, derandomize=True, database=None)

ROLES = ("frame", "matrix", "pattern")

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([-(10**40), 1.5, float("nan")]),
    st.sampled_from(["1", "-1/2", "3/4", "0", "1.5", "1e3", "1/0", "x", "", "9" * 5000]),
)
any_json = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def drawn_matrices(draw):
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    entry = st.sampled_from(["0", "1", "-1", "1/2", "-2/3", "3"]) | scalars
    return {
        "rows": draw(st.sampled_from([rows, rows, 0, "2", True])),
        "cols": cols,
        "entries": [[draw(entry) for _ in range(cols)] for _ in range(rows)],
    }


def _valid_docs():
    frames = [FlagFrame.standard(n) for n in (2, 3, 4, 5, 6)]
    frames += [FlagFrame.standard(4, dims=[2, 3]), reference_frame(which="frame-b")]
    matrices = [
        RMatrix([[0, 1], [0, 0]]),
        RMatrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]]),
        RMatrix([["1/2", "1/2"], ["1/2", "1/2"]]),
        RMatrix([[1, -1, 2], [0, 1, 0], [4, 0, 1]]),
        RMatrix.identity(3),
    ]
    return {
        "frame": [f.to_json_dict() for f in frames],
        "matrix": [m.to_json_dict() for m in matrices],
        "pattern": [BoolMatrix.from_pairs(3, [(0, 1), (1, 2)]).to_json_dict()],
    }


VALID = _valid_docs()


def spoil(doc, key, value):
    """doc with one field replaced, at the top level or one level down."""
    doc = json.loads(json.dumps(doc))
    target = doc["F"] if "F" in doc and key in doc["F"] else doc
    target[key] = value
    return doc


@st.composite
def documents(draw, role):
    """The bytes of one JSON file for a role."""
    kind = draw(st.sampled_from(["valid", "valid", "spoilt", "cut", "huge", "drawn", "any"]))
    if kind == "huge":
        # an integer literal longer than int() accepts by default
        return b'{"n": ' + b"9" * 5000 + b', "bits": []}'
    if kind == "any":
        doc = draw(any_json)
    elif kind == "drawn" and role == "frame":
        doc = {"F": draw(drawn_matrices()), "dims": draw(st.lists(st.integers(-1, 5), max_size=4))}
    elif kind == "drawn":
        doc = draw(drawn_matrices())
    else:
        doc = draw(st.sampled_from(VALID[role]))
        if kind == "spoilt":
            key = draw(st.sampled_from(sorted(set(doc) | set(doc.get("F", {})))))
            doc = spoil(doc, key, draw(any_json))
    text = json.dumps(doc).encode()
    if kind == "cut":
        text = text[: draw(st.integers(0, len(text)))]
    return text


def file_of(role):
    return st.sampled_from([f"{role}.json", "missing.json"])


ints = st.sampled_from(["-1", "0", "1", "2", "3", "4", "5", "6", "3000", "100000", "x", "1.5", ""])
rationals = st.sampled_from(["1/16", "1/2", "0", "-1", "2", "1/0", "0.5", "x", "9" * 5000])
outs = st.sampled_from(["out.json", "out.off", os.path.join("no-such-dir", "x")])
choice = st.sampled_from(["omega", "q", "d", "m0", "m0plus", "m", "example1", "bogus"])
junk = st.sampled_from(["--nope", "-h", "--help", "1,2", "1|2", "", "--"])

# each subcommand's options, with the values they are drawn from (None for
# a flag); the first `required` options are always given
COMMANDS = {
    ("nilcheck",): ({"--matrix": file_of("matrix"), "--ambient": choice}, 2),
    ("omega", "count"): ({"--n": ints, "--k": ints}, 2),
    ("omega", "enumerate"): ({"--n": ints, "--k": ints, "--json": outs}, 2),
    ("omega", "pattern"): (
        {
            "--order": st.sampled_from(["2,3,1", "1,1", "1,x", "0,1", "1"]),
            "--partition": st.sampled_from(["1,3|2", "1|1", "1,,2", "2|", "1|2|3"]),
        },
        0,
    ),
    ("omega", "member"): (
        {"--pattern": file_of("pattern"), "--matrix": file_of("matrix"), "--kind": choice},
        3,
    ),
    ("q", "iso"): (
        {"--frame": file_of("frame"), "--matrix": file_of("matrix"), "--inverse": None},
        2,
    ),
    ("q", "member"): (
        {"--frame": file_of("frame"), "--matrix": file_of("matrix"), "--doubly-stochastic": None},
        2,
    ),
    ("q", "nilclass"): ({"--matrix": file_of("matrix")}, 1),
    ("q", "make-nilpotent"): (
        {"--frame": file_of("frame"), "--b": file_of("matrix"), "--alpha": rationals},
        2,
    ),
    ("polytope", "build"): (
        {"--frame": file_of("frame"), "--out": outs, "--off": outs, "--census": None},
        1,
    ),
}


@st.composite
def argvs(draw):
    if draw(st.integers(0, 9)) == 0:
        return [draw(st.sampled_from(["verify", "nope", "-h"])), draw(choice)]
    command = draw(st.sampled_from(sorted(COMMANDS)))
    options, required = COMMANDS[command]
    argv = list(command)
    for k, (option, values) in enumerate(options.items()):
        if k < required or draw(st.booleans()):
            argv.append(option)
            if values is not None:
                argv.append(draw(values))
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(junk))
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@FUZZ
@given(argv=argvs(), contents=st.tuples(*map(documents, ROLES)))
def test_main_exits_0_1_or_2_without_a_traceback(workdir, argv, contents):
    files = {f"{role}.json" for role in ROLES} | {"missing.json", "out.json", "out.off"}
    for role, data in zip(ROLES, contents):
        (workdir / f"{role}.json").write_bytes(data)
    argv = [str(workdir / a) if a in files or a.startswith("no-such-dir") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code in (0, 2), argv
        else:
            assert code in (0, 1), argv
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert err.getvalue().startswith("error: ")
