"""The integer-row kernel of nilmat.exactmat checked against the
Fraction-per-entry oracle it replaced (tests/exactmat_oracle.py), on
rational matrices with mixed denominators, negative entries, zero rows,
repeated rows and zero columns, plus the ring laws, the hash contract and
the reading and writing of matrix JSON."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import exactmat_oracle as oracle
from nilmat.exactmat import (
    MatrixError,
    RMatrix,
    SingularMatrix,
    format_rational,
    mat_vec,
    null_space,
    rank,
    solve_unique,
)

# derandomized and without an example database, so every run checks the
# same examples and writes nothing
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

SIZES = st.integers(1, 5)
SCALARS = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))


@st.composite
def entry_rows(draw, rows, cols):
    """rows x cols lists of Fractions, often with zero, repeated or
    scaled-repeated rows and zero columns."""
    data = [[draw(SCALARS) for _ in range(cols)] for _ in range(rows)]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["zero row", "repeated row", "scaled row", "zero column"]))
        i = draw(st.integers(0, rows - 1))
        src = data[draw(st.integers(0, rows - 1))]
        if kind == "zero row":
            data[i] = [Fraction(0)] * cols
        elif kind == "repeated row":
            data[i] = list(src)
        elif kind == "scaled row":
            c = draw(SCALARS)
            data[i] = [c * x for x in src]
        else:
            j = draw(st.integers(0, cols - 1))
            for row in data:
                row[j] = Fraction(0)
    return data


@st.composite
def shaped(draw, *shape):
    """Entry rows for each (rows, cols) pair in shape."""
    return [draw(entry_rows(r, c)) for r, c in shape]


@st.composite
def chain3(draw):
    """Three entry-row lists whose shapes chain for A * B * C."""
    a, b, c, d = (draw(SIZES) for _ in range(4))
    return draw(shaped((a, b), (b, c), (c, d)))


@st.composite
def operands(draw):
    """Entry rows for A, A2 of one shape and B that chains with A."""
    r, k, c = (draw(SIZES) for _ in range(3))
    return draw(shaped((r, k), (r, k), (k, c)))


@st.composite
def squares(draw, count):
    n = draw(SIZES)
    return draw(shaped(*[(n, n)] * count))


def both(data):
    return RMatrix(data), oracle.RMatrix(data)


def canonical(m):
    """m equals, and hashes like, the matrix built from its own entries."""
    again = RMatrix(m.to_rows())
    return m == again and hash(m) == hash(again)


@PROPERTY
@given(operands(), SCALARS)
def test_arithmetic_matches_the_oracle(data, c):
    (a, oa), (a2, oa2), (b, ob) = (both(d) for d in data)
    results = [
        (a * b, oa * ob),
        (a + a2 * c, oa + oa2 * c),
        (a + -c * a2, oa + -c * oa2),
        (a * c, oa * c),
    ]
    for got, want in results:
        assert got.to_rows() == want.to_rows()
        assert canonical(got)
    assert a.min_entry() == oa.min_entry() and a.max_entry() == oa.max_entry()


@PROPERTY
@given(squares(1), st.lists(SCALARS, min_size=5, max_size=5))
def test_elimination_matches_the_oracle(data, rhs):
    (a, oa) = both(data[0])
    rhs = rhs[: a.rows]
    try:
        want = oa.inverse()
    except SingularMatrix as exc:
        with pytest.raises(SingularMatrix) as got:
            a.inverse()
        assert str(got.value) == str(exc)
    else:
        inv = a.inverse()
        assert inv.to_rows() == want.to_rows()
        assert canonical(inv)
    assert rank(a) == oracle.rank(oa)
    assert solve_unique(a, rhs) == oracle.solve_unique(oa, rhs)
    assert mat_vec(a, rhs) == oracle.mat_vec(oa, rhs)


@PROPERTY
@given(st.tuples(SIZES, SIZES).flatmap(lambda s: entry_rows(*s)))
def test_rectangular_rank_and_null_space_match_the_oracle(data):
    a, oa = both(data)
    assert rank(a) == oracle.rank(oa)
    assert null_space(a) == oracle.null_space(oa)
    assert rank(RMatrix(list(zip(*data)))) == rank(a)


@PROPERTY
@given(chain3())
def test_associativity_and_transpose_of_a_product(data):
    a, b, c = (RMatrix(d) for d in data)
    assert (a * b) * c == a * (b * c)
    # transposes read from the entry rows: (AB)^T = B^T A^T
    at, bt, abt = (RMatrix(list(zip(*m))) for m in (data[0], data[1], (a * b).to_rows()))
    assert abt == bt * at


@PROPERTY
@given(squares(3))
def test_distributivity_and_inverse_of_a_product(data):
    a, b, c = (RMatrix(d) for d in data)
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c
    if rank(a) == a.rows and rank(b) == b.rows:
        assert (a * b).inverse() == b.inverse() * a.inverse()


@PROPERTY
@given(squares(1), SCALARS.filter(bool))
def test_equal_matrices_hash_equally(data, c):
    a = RMatrix(data[0])
    strings = RMatrix([[f"{x.numerator * 3}/{x.denominator * 3}" for x in row] for row in data[0]])
    for same in (
        strings,
        (a * c) * (1 / c),
        a + RMatrix.zero(a.rows),
        RMatrix.identity(a.rows) * a,
        -1 * (-1 * a),
    ):
        assert same == a
        assert hash(same) == hash(a)
    assert (a * c == a) == (c == 1 or a == RMatrix.zero(a.rows))


@st.composite
def literals(draw):
    """(entry, value): an int, or a "p/q" literal for the Fraction value,
    often unreduced, signed, "-0", without "/1" or padded with whitespace."""
    value = draw(SCALARS)
    if value.denominator == 1 and draw(st.booleans()):
        return int(value), value
    k = draw(st.integers(1, 4))
    p, q = value.numerator * k, value.denominator * k
    sign = "-" if p < 0 else draw(st.sampled_from(["", "+", "-"] if p == 0 else ["", "+"]))
    text = f"{sign}{abs(p)}" + ("" if q == 1 and draw(st.booleans()) else f"/{q}")
    pad = st.sampled_from(["", " ", "\t", "\n ", "  "])
    return draw(pad) + text + draw(pad), value


@st.composite
def literal_grids(draw):
    rows, cols = draw(SIZES), draw(SIZES)
    grid = [[draw(literals()) for _ in range(cols)] for _ in range(rows)]
    return [[e for e, _ in row] for row in grid], [[v for _, v in row] for row in grid]


@PROPERTY
@given(literal_grids())
def test_json_entries_read_as_their_fractions(grid):
    entries, values = grid
    m = RMatrix.from_json_dict({"rows": len(entries), "cols": len(entries[0]), "entries": entries})
    want = RMatrix(values)
    assert m == want and hash(m) == hash(want)
    assert (m._num, m._den) == (want._num, want._den)
    # the canonical form: the lcm of the reduced denominators, and the
    # entries scaled by it
    den = math.lcm(*(x.denominator for row in values for x in row))
    assert m._den == den
    assert m._num == tuple(tuple(int(x * den) for x in row) for row in values)
    assert m.to_rows() == oracle.RMatrix(entries).to_rows()
    assert RMatrix(entries) == m
    written = m.to_json_dict()
    assert written["entries"] == [[format_rational(x) for x in row] for row in values]
    assert RMatrix.from_json_dict(written) == m


# each refused entry and the message it has always been refused with
REFUSED = [
    ("0.5", "not an exact rational literal: '0.5'"),
    ("1e3", "not an exact rational literal: '1e3'"),
    ("1/0", "not an exact rational literal: '1/0'"),
    ("1/-2", "not an exact rational literal: '1/-2'"),
    (" 1 / 2", "not an exact rational literal: ' 1 / 2'"),
    ("", "not an exact rational literal: ''"),
    (0.5, "inexact or unsupported entry type: float"),
    (2.0, "inexact or unsupported entry type: float"),
    (True, "inexact or unsupported entry type: bool"),
    (False, "inexact or unsupported entry type: bool"),
    (None, "inexact or unsupported entry type: NoneType"),
    ("9" * 5000, "rational literal too long (5000 characters)"),
    ("1/" + "7" * 5000, "rational literal too long (5002 characters)"),
]


@pytest.mark.parametrize("entry, message", REFUSED, ids=[repr(e)[:12] for e, _ in REFUSED])
def test_refused_entries_keep_their_messages(entry, message):
    doc = {"rows": 2, "cols": 2, "entries": [["1", entry], ["0", "1"]]}
    for read in (RMatrix.from_json_dict, lambda d: RMatrix(d["entries"])):
        with pytest.raises(MatrixError) as exc:
            read(doc)
        assert str(exc.value) == message
    with pytest.raises(MatrixError) as exc:
        format_rational(entry)
    assert str(exc.value) == message


def test_writing_refuses_numbers_too_long_for_text():
    big = 10**5000
    for m in (RMatrix([[big, 1]]), RMatrix([[1, Fraction(1, big)]])):
        with pytest.raises(MatrixError, match="^number has too many digits to write out$"):
            m.to_json_dict()
