"""Property tests for the one Gauss-Jordan routine behind inverse, rank,
solve_unique and null_space, on small integer matrices that often carry
zero rows, repeated rows and zero columns."""

import pytest
from hypothesis import given, settings, strategies as st

from nilmat.exactmat import RMatrix, SingularMatrix, mat_vec, null_space, rank, solve_unique

# derandomized and without an example database, so every run checks the
# same examples and writes nothing
PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

ENTRIES = st.integers(-3, 3)


@st.composite
def int_matrices(draw, square=False):
    rows = draw(st.integers(1, 5))
    cols = rows if square else draw(st.integers(1, 5))
    data = [[draw(ENTRIES) for _ in range(cols)] for _ in range(rows)]
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["zero row", "repeated row", "zero column"]))
        i = draw(st.integers(0, rows - 1))
        if kind == "zero row":
            data[i] = [0] * cols
        elif kind == "repeated row":
            data[i] = list(data[draw(st.integers(0, rows - 1))])
        else:
            j = draw(st.integers(0, cols - 1))
            for row in data:
                row[j] = 0
    return RMatrix(data)


@PROPERTY
@given(int_matrices(square=True))
def test_inverse_is_two_sided_and_exists_exactly_at_full_rank(a):
    n = a.rows
    if rank(a) < n:
        with pytest.raises(SingularMatrix):
            a.inverse()
        return
    inv = a.inverse()
    assert a * inv == RMatrix.identity(n)
    assert inv * a == RMatrix.identity(n)


@PROPERTY
@given(int_matrices(square=True), st.lists(ENTRIES, min_size=5, max_size=5))
def test_solve_unique_solves_exactly_at_full_rank(a, b):
    b = b[: a.rows]
    x = solve_unique(a, b)
    if rank(a) < a.rows:
        assert x is None
    else:
        assert mat_vec(a, x) == tuple(b)


@PROPERTY
@given(int_matrices())
def test_rank_plus_nullity_is_column_count(m):
    basis = null_space(m)
    assert rank(m) + len(basis) == m.cols
    for v in basis:
        assert all(y == 0 for y in mat_vec(m, v))
    if basis:
        assert rank(RMatrix(basis)) == len(basis)
