"""The library's error contract under fuzzing: every public call that takes
data (sizes, counts, scalars, entry lists, JSON objects and literals)
returns or raises MatrixError, whatever that data is.

Each call gets valid arguments, drawn small (sizes at most 8, since
FlagFrame.standard(1000) is valid and slow), with one value replaced by a
hostile one: None, floats and NaN, booleans, strings, bytes, dicts, ragged
lists, generators, 10**20 or 10**5000. The value replaced may be a whole
argument or one deep inside it, such as a single matrix entry.

Out of scope: a parameter that takes a nilmat object (an RMatrix, a
BoolMatrix, a FlagFrame, an HPolytope) is always given a valid one here.
Given anything else it keeps Python's AttributeError or TypeError, as
arithmetic operators and indexing do. Every public name of the library
modules is in CALLS or in EXEMPT, with the reason it is left out."""

import json
from collections.abc import Iterator
from fractions import Fraction
from itertools import islice
from types import FunctionType

import pytest
from hypothesis import given, settings, strategies as st

from nilmat import boolrel, exactmat, omega, polytope, qflag, reference
from nilmat.boolrel import BoolMatrix, is_maximal_nilpotent_pattern
from nilmat.exactmat import (
    MatrixError,
    RMatrix,
    format_rational,
    int_tuple,
    mat_vec,
    parse_rational,
    solve_unique,
)
from nilmat.omega import (
    KINDS,
    LinearOrder,
    OrderedPartition,
    count_max_nilpotent,
    enumerate_partitions,
    iter_ordered_partitions,
    membership,
)
from nilmat.polytope import (
    HPolytope,
    LinearInequality,
    build_h_polytope,
    export_polytope,
    matrix_from_params,
)
from nilmat.qflag import FlagFrame, make_stochastic_nilpotent, q_zero, scale_toward_zero

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# made in the strategy: Hypothesis shows sampled_from's elements with repr,
# which refuses an int of more than 4,300 digits
huge = st.sampled_from([20, 5000, 5000]).map(lambda e: 10**e)
scalars = st.sampled_from(
    [None, True, False, 0.0, 1.5, float("nan"), float("inf"), -(10**20), -1, 0, 1, 2, 3, 8]
    + ["", "x", "1.5", "1e3", "1/0", "-2/3", "9" * 5000, b"", b"1"]
)
# a huge int about half the time, so that every message quoting an input
# meets one
atoms = huge | scalars


def _generator(items):
    return (x for x in items)


hostile = st.one_of(
    atoms,
    st.lists(atoms, max_size=3),
    st.lists(st.lists(atoms, max_size=3), max_size=3),
    st.dictionaries(st.sampled_from(["", "n", "rows", "bits"]), atoms, max_size=2),
    st.lists(atoms, max_size=3).map(_generator),
)


def _paths(doc, path=()):
    """The key path of every value inside doc, doc itself included."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _paths(child, path + (key,))


@st.composite
def spoilt(draw, valid):
    """A list of arguments drawn from valid, as it is one time in eight, or
    with one value inside it replaced by a hostile one, mostly a single
    atom. The value replaced is a random prefix of a random path, so that
    whole arguments and values deep inside them are both hit."""
    arguments = json.loads(json.dumps(draw(valid)))
    if draw(st.integers(0, 7)) == 0:
        return arguments
    path = draw(st.sampled_from(list(_paths(arguments))[1:]))
    path = path[: draw(st.integers(1, len(path)))]
    parent = arguments
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = draw(atoms | hostile)
    return arguments


literals = st.sampled_from(["0", "1", "-1", "1/2", "-2/3", " +2/4 ", "3", 2, -4])
small = st.integers(1, 8)


def args(*strategies):
    return st.tuples(*strategies).map(list)


@st.composite
def row_lists(draw, rows=None, cols=None):
    rows = draw(st.integers(1, 4)) if rows is None else rows
    cols = draw(st.integers(1, 4)) if cols is None else cols
    return [[draw(literals) for _ in range(cols)] for _ in range(rows)]


@st.composite
def matrix_docs(draw):
    rows = draw(row_lists())
    return {"rows": len(rows), "cols": len(rows[0]), "entries": rows}


@st.composite
def sized(draw, items):
    """[n, items(n)] for a small size n."""
    n = draw(st.integers(1, 4))
    return [n, draw(items(n))]


def _masks(n):
    return st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n)


def _pairs(n):
    return st.lists(st.lists(st.integers(0, n - 1), min_size=2, max_size=2), max_size=4)


def _pattern_docs():
    def doc(n):
        bits = st.lists(st.lists(st.integers(1, n), min_size=2, max_size=2), max_size=4)
        return bits.map(lambda b: {"n": n, "bits": b})

    return st.integers(1, 4).flatmap(doc)


def _inequalities(d):
    # [constant, coeffs] pairs; _hpolytope makes them LinearInequality values
    row = args(literals, st.lists(literals, min_size=d, max_size=d))
    return st.lists(row, max_size=4)


def _hpolytope(d, rows):
    # a row still of two items becomes LinearInequality(constant, coeffs),
    # so that a spoilt constant or coeffs reaches the constructor's checks
    if isinstance(rows, list):
        rows = [LinearInequality(*r) if isinstance(r, list) and len(r) == 2 else r for r in rows]
    return HPolytope(d, rows)


def _frame_docs():
    frames = [FlagFrame.standard(n) for n in (2, 3, 4, 5)]
    frames += [FlagFrame.standard(4, dims=[2, 3]), reference.reference_frame(which="frame-b")]
    return [f.to_json_dict() for f in frames]


def _first(result):
    # a generator checks its arguments when iterated
    if isinstance(result, Iterator):
        list(islice(result, 3))


NONE = st.just(())
Q_MATRICES = st.sampled_from(
    [RMatrix.identity(3), RMatrix([[0, 1], [1, 0]]), RMatrix([[2, -1], [-1, 2]])]
)

# name -> (call, its nilmat-object arguments, its valid data arguments)
CALLS = {
    "RMatrix": (RMatrix, NONE, args(row_lists())),
    "RMatrix.identity": (RMatrix.identity, NONE, args(small)),
    "RMatrix.zero": (RMatrix.zero, NONE, args(small, small)),
    "RMatrix.filled": (RMatrix.filled, NONE, args(small, small, literals)),
    "RMatrix.from_json_dict": (RMatrix.from_json_dict, NONE, args(matrix_docs())),
    "parse_rational": (parse_rational, NONE, args(st.sampled_from(["1", "-2/3", " +2/4 "]))),
    "format_rational": (format_rational, NONE, args(literals)),
    "int_tuple": (int_tuple, NONE, args(st.lists(st.integers(-3, 3), max_size=4))),
    "BoolMatrix": (BoolMatrix, NONE, sized(_masks)),
    "BoolMatrix.empty": (BoolMatrix.empty, NONE, args(small)),
    "BoolMatrix.full": (BoolMatrix.full, NONE, args(small)),
    "BoolMatrix.from_pairs": (BoolMatrix.from_pairs, NONE, sized(_pairs)),
    "BoolMatrix.from_json_dict": (BoolMatrix.from_json_dict, NONE, args(_pattern_docs())),
    "BoolMatrix.has_bit": (
        BoolMatrix.has_bit,
        st.sampled_from([[BoolMatrix.full(3)], [BoolMatrix.from_pairs(3, [(0, 2)])]]),
        args(st.integers(0, 2), st.integers(0, 2)),
    ),
    "LinearOrder": (LinearOrder, NONE, args(st.permutations([1, 2, 3]))),
    "LinearOrder.parse": (LinearOrder.parse, NONE, args(st.sampled_from(["2,3,1", " 2 , 1"]))),
    "OrderedPartition": (
        OrderedPartition,
        NONE,
        args(st.sampled_from([[[1, 3], [2]], [[1], [2], [3]], [[2, 1]]])),
    ),
    "OrderedPartition.parse": (
        OrderedPartition.parse,
        NONE,
        args(st.sampled_from(["1,3|2", "1|2|3", "2,1"])),
    ),
    # a huge n meets the digit check, or with max_digits 0 MAX_COUNT_WORK,
    # before any big-integer work
    "count_max_nilpotent": (
        count_max_nilpotent,
        NONE,
        args(st.integers(1, 60), small, st.integers(0, 50)),
    ),
    "iter_ordered_partitions": (iter_ordered_partitions, NONE, args(small, small)),
    "enumerate_partitions": (enumerate_partitions, NONE, args(small, small)),
    "membership": (
        membership,
        st.sampled_from(
            [
                [RMatrix([[0, 1], [0, 0]]), BoolMatrix.from_pairs(2, [(0, 1)])],
                [RMatrix([[0, -1, 0], [0, 0, 2], [0, 0, 0]]), BoolMatrix.full(3)],
            ]
        ),
        args(st.sampled_from(KINDS)),
    ),
    "is_maximal_nilpotent_pattern": (
        is_maximal_nilpotent_pattern,
        st.sampled_from(
            [[BoolMatrix.from_pairs(3, [(0, 1), (0, 2), (1, 2)])], [BoolMatrix.empty(2)]]
        ),
        args(st.sampled_from(["bn", "rook"])),
    ),
    "FlagFrame": (
        FlagFrame,
        st.sampled_from([[FlagFrame.standard(4).f], [reference.reference_frame().f]]),
        args(st.sampled_from([[3], [1, 3], [2, 3], [1, 2, 3]])),
    ),
    "FlagFrame.standard": (
        FlagFrame.standard,
        NONE,
        st.integers(2, 6).map(lambda n: [n, list(range(1, n))]),
    ),
    "FlagFrame.from_json_dict": (
        FlagFrame.from_json_dict,
        NONE,
        args(st.sampled_from(_frame_docs())),
    ),
    "q_zero": (q_zero, NONE, args(small)),
    "scale_toward_zero": (scale_toward_zero, args(Q_MATRICES), args(literals)),
    "make_stochastic_nilpotent": (
        make_stochastic_nilpotent,
        st.just([FlagFrame.standard(3), RMatrix([[0, 1], [0, 0]])]),
        args(st.sampled_from([None, "1/16", "1/4", 8])),
    ),
    # 3, 2 and 1 positions: a list of another length meets the count check
    "matrix_from_params": (
        matrix_from_params,
        st.sampled_from(
            [[FlagFrame.standard(4)], [FlagFrame.standard(4, dims=[1, 3])], [FlagFrame.standard(3)]]
        ),
        args(st.lists(literals, min_size=1, max_size=3)),
    ),
    "mat_vec": (
        mat_vec,
        st.sampled_from([[RMatrix.identity(2)], [RMatrix([[1, 2], [3, 4]])]]),
        args(st.lists(literals, min_size=2, max_size=2)),
    ),
    "solve_unique": (
        solve_unique,
        st.sampled_from([[RMatrix.identity(2)], [RMatrix([[1, 1], [2, 2]])]]),
        args(st.lists(literals, min_size=2, max_size=2)),
    ),
    "LinearInequality.evaluate": (
        LinearInequality.evaluate,
        st.sampled_from(
            [[LinearInequality(1, (1, 1))], [LinearInequality(Fraction(1, 2), (2, -3))]]
        ),
        args(st.lists(literals, min_size=2, max_size=2)),
    ),
    "HPolytope": (_hpolytope, NONE, sized(_inequalities)),
    "export_polytope": (
        export_polytope,
        st.just([build_h_polytope(reference.reference_frame())]),
        args(st.sampled_from(["json", "off"])),
    ),
    "reference.verify": (reference.verify, NONE, args(st.just("example1"))),
    "reference.reference_frame": (
        reference.reference_frame,
        NONE,
        args(st.just("example1"), st.sampled_from(["frame-a", "frame-b"])),
    ),
}

ONLY_MATRIX = "takes only a matrix"
ONLY_PATTERN = "takes only a pattern"
ONLY_H = "takes only an HPolytope"
MATRIX_AND_FRAME = "takes only a matrix and a frame"

# public names, as module.qualname, that CALLS leaves out, each with why
EXEMPT = {
    "exactmat.RMatrix.to_rows": ONLY_MATRIX,
    "exactmat.RMatrix.inverse": ONLY_MATRIX,
    "exactmat.RMatrix.min_entry": ONLY_MATRIX,
    "exactmat.RMatrix.max_entry": ONLY_MATRIX,
    "exactmat.RMatrix.nonzero_positions": ONLY_MATRIX,
    "exactmat.RMatrix.count_nonzero": ONLY_MATRIX,
    "exactmat.RMatrix.to_json_dict": ONLY_MATRIX,
    "exactmat.rank": ONLY_MATRIX,
    "exactmat.null_space": ONLY_MATRIX,
    "boolrel.BoolMatrix.bits": ONLY_PATTERN,
    "boolrel.BoolMatrix.bit_count": ONLY_PATTERN,
    "boolrel.BoolMatrix.is_empty": ONLY_PATTERN,
    "boolrel.BoolMatrix.is_subset": "takes only two patterns",
    "boolrel.BoolMatrix.to_json_dict": ONLY_PATTERN,
    "boolrel.support_pattern": ONLY_MATRIX,
    "boolrel.is_acyclic": ONLY_PATTERN,
    "boolrel.nilpotency_index": ONLY_PATTERN,
    "boolrel.is_rook": ONLY_PATTERN,
    "boolrel.closure": "takes only patterns",
    "omega.pattern_from_order": "takes only a LinearOrder",
    "omega.pattern_from_partition": "takes only an OrderedPartition",
    "omega.nilpotency_class": ONLY_MATRIX,
    "omega.pattern_class": ONLY_PATTERN,
    "omega.monomial_conjugator": "takes only two OrderedPartitions",
    "omega.nilpotent_nonzero_count": ONLY_MATRIX,
    "omega.is_unit": ONLY_MATRIX,
    "qflag.is_in_q": ONLY_MATRIX,
    "qflag.is_doubly_stochastic": ONLY_MATRIX,
    "qflag.FlagFrame.to_json_dict": "takes only the frame",
    "qflag.flags_equal": "takes only two frames",
    "qflag.iso_forward": MATRIX_AND_FRAME,
    "qflag.iso_backward": MATRIX_AND_FRAME,
    "qflag.flag_membership": MATRIX_AND_FRAME,
    "qflag.is_strictly_block_upper": MATRIX_AND_FRAME,
    "qflag.nilpotency_class": ONLY_MATRIX,
    "qflag.stochastic_scaling_range": ONLY_MATRIX,
    "polytope.LinearInequality": "a named tuple of any two values; its users check them",
    "polytope.VPolytope": "no public constructor; enumerate_vertices builds it",
    "polytope.build_h_polytope": "takes only a frame",
    "polytope.enumerate_vertices": ONLY_H,
    "polytope.is_bounded": ONLY_H,
    "polytope.facet_incidence": ONLY_H,
    "polytope.facet_census": ONLY_H,
    "reference.run_checks": "takes a dataset dict shaped like DATASETS",
}


def public_names():
    """module.qualname of every public class, function and method the
    library modules define; error classes, properties and attributes are
    left out, as they take no data."""
    for module in (exactmat, boolrel, omega, qflag, polytope, reference):
        short = module.__name__.rpartition(".")[2]
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if isinstance(value, FunctionType):
                yield f"{short}.{name}"
            elif isinstance(value, type) and not issubclass(value, Exception):
                yield f"{short}.{name}"
                for attr, member in vars(value).items():
                    if not attr.startswith("_") and isinstance(
                        member, (FunctionType, classmethod, staticmethod)
                    ):
                        yield f"{short}.{name}.{attr}"


def test_every_public_name_is_fuzzed_or_exempt():
    """A CALLS name is the qualname, or module.qualname where the module
    matters to a reader. A new public name fails here until it is fuzzed,
    exempted or made private; a stale entry fails too."""
    names = set(public_names())
    fuzzed = {q for q in names if q in CALLS or q.partition(".")[2] in CALLS}
    assert sorted(names - fuzzed - set(EXEMPT)) == []
    assert sorted(fuzzed & set(EXEMPT)) == []
    assert sorted(set(EXEMPT) - names) == []
    assert sorted(set(CALLS) - names - {q.partition(".")[2] for q in names}) == []


@pytest.mark.parametrize("name", sorted(CALLS))
@FUZZ
@given(data=st.data())
def test_public_calls_return_or_raise_matrix_error(name, data):
    call, objects, valid = CALLS[name]
    arguments = [*data.draw(objects, label="objects"), *data.draw(spoilt(valid), label="data")]
    try:
        _first(call(*arguments))
    except MatrixError:
        pass


# past the int-to-str limit of 4,300 digits, so repr and str refuse it
TOO_LONG = 10**5000


def _scaled(alpha):
    return make_stochastic_nilpotent(FlagFrame.standard(3), RMatrix([[0, 1], [0, 0]]), alpha)


@pytest.mark.parametrize(
    "call",
    [
        lambda: HPolytope(1, [TOO_LONG]),
        lambda: FlagFrame.standard(3, [1, TOO_LONG]),
        lambda: BoolMatrix.from_json_dict({"n": 2, "bits": [[TOO_LONG, 1]]}),
        lambda: BoolMatrix.from_json_dict({"n": 2, "bits": [[TOO_LONG]]}),
        lambda: _scaled(TOO_LONG),
        lambda: _scaled(Fraction(TOO_LONG, 3)),
        lambda: membership(RMatrix.identity(2), BoolMatrix.full(2), TOO_LONG),
        lambda: is_maximal_nilpotent_pattern(BoolMatrix.empty(2), TOO_LONG),
    ],
    ids=[
        "HPolytope",
        "FlagFrame.standard",
        "pattern-bit",
        "pattern-pair",
        "alpha-int",
        "alpha-fraction",
        "membership-kind",
        "maximality-kind",
    ],
)
def test_messages_quoting_an_int_too_long_to_write_are_matrix_errors(call):
    with pytest.raises(MatrixError, match="bits|too long"):
        call()
