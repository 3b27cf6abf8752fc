import math
import sys
from fractions import Fraction

import pytest

from conftest import rng, rand_matrix, rand_nonsingular
from nilmat.exactmat import (
    MAX_ENTRIES,
    RMatrix,
    MatrixError,
    DimensionMismatch,
    SingularMatrix,
    parse_rational,
    format_rational,
    mat_vec,
    null_space,
    rank,
    solve_unique,
)
from nilmat.qflag import FlagFrame, q_zero

F = Fraction


def flat(n):
    return RMatrix.filled(n, n, F(1, n))


def test_parse_rational_accepts_exact_literals():
    assert parse_rational("3") == 3
    assert parse_rational("-7/2") == F(-7, 2)
    assert parse_rational("+4/6") == F(2, 3)
    assert parse_rational(" 5/3 ") == F(5, 3)


# one digit past the interpreter's int-from-string limit, in either part
TOO_LONG = "1" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize(
    "bad",
    ["1.5", "1e3", "2/0", "2/-3", "", "x", "1/2/3", "0x1"]
    + [
        # int() reads any script's decimal digits; a literal takes ASCII only
        pytest.param("\u0661\u0662", id="arabic-indic-12"),
        pytest.param("\uff11/2", id="fullwidth-numerator"),
        pytest.param("1/1\u0662", id="arabic-indic-in-denominator"),
        pytest.param(TOO_LONG, id="long-numerator"),
        pytest.param("1/" + TOO_LONG, id="long-denominator"),
    ],
)
def test_parse_rational_rejects_inexact_or_malformed(bad):
    with pytest.raises(MatrixError):
        parse_rational(bad)


def test_format_rational():
    assert format_rational(F(6, 4)) == "3/2"
    assert format_rational(F(-8, 2)) == "-4"
    assert format_rational(0) == "0"
    for inexact in (0.1, True, "1.5"):
        with pytest.raises(MatrixError):
            format_rational(inexact)


def test_constructor_rejects_floats_and_ragged():
    with pytest.raises(MatrixError):
        RMatrix([[0.5]])
    with pytest.raises(MatrixError):
        RMatrix([[True]])
    with pytest.raises(MatrixError):
        RMatrix([[1, 2], [3]])
    with pytest.raises(MatrixError):
        RMatrix([])
    # every entry is read before the shape is checked
    for rows in ([[1, 0.5], [1]], [[], [0.5]]):
        with pytest.raises(MatrixError, match="^inexact or unsupported entry type: float$"):
            RMatrix(rows)


@pytest.mark.parametrize(
    "rows",
    [
        None,
        5,
        1.5,
        [1, 2],
        ["12", "34"],
        [{1: 0, 2: 0}, {3: 0, 4: 0}],
        [[1, 2], "34"],
        [[1], 10**5000],
    ],
)
def test_constructor_refuses_what_is_not_a_list_of_rows(rows):
    with pytest.raises(MatrixError):
        RMatrix(rows)


def test_constructor_takes_tuples_and_iterables_of_rows():
    expected = RMatrix([[1, 2], [3, 4]])
    assert RMatrix(((1, 2), (3, 4))) == expected
    assert RMatrix(row for row in [[1, 2], (3, 4)]) == expected


def test_identity_multiplication_is_neutral():
    r = rng(1)
    x = rand_matrix(r, 3, 5)
    assert RMatrix.identity(3) * x == x
    assert x * RMatrix.identity(5) == x


def test_flat_matrix_is_idempotent():
    o4 = flat(4)
    assert o4 * o4 == o4


def _interpolated(t, n):
    # t * flat + (1 - t) * identity
    return t * flat(n) + (1 - t) * RMatrix.identity(n)


def test_interpolated_square_matches_closed_form():
    t = F(1, 2)
    a = _interpolated(t, 3)
    expected = (1 - t) ** 2 * RMatrix.identity(3) + (1 - (1 - t) ** 2) * flat(3)
    assert a * a == expected


def test_power_of_strict_upper_triangle_vanishes():
    a = RMatrix([[0, 1, 2], [0, 0, 3], [0, 0, 0]])
    assert (a ** 3).is_zero()
    assert not (a ** 2).is_zero()


def test_interpolated_fourth_power_matches_closed_form():
    t = F(1, 3)
    a = _interpolated(t, 4)
    expected = (1 - t) ** 4 * RMatrix.identity(4) + (1 - (1 - t) ** 4) * flat(4)
    assert a ** 4 == expected


def test_transposition_matrix_squares_to_identity():
    p = RMatrix([[0, 1], [1, 0]])
    assert p ** 2 == RMatrix.identity(2)


def test_power_addition_law():
    r = rng(2)
    for _ in range(10):
        a = rand_matrix(r, 3, max_den=2)
        j, k = r.randint(1, 4), r.randint(1, 4)
        assert a ** (j + k) == (a ** j) * (a ** k)


def test_power_rejects_bad_exponents_and_shapes():
    a = RMatrix([[1, 2]])
    with pytest.raises(DimensionMismatch):
        a ** 2
    with pytest.raises(MatrixError):
        RMatrix.identity(2) ** 0
    with pytest.raises(MatrixError):
        RMatrix([[1, 2], [3, 4]]) ** True


def test_inverse_identity():
    assert RMatrix.identity(4).inverse() == RMatrix.identity(4)


def test_inverse_of_reference_frame_matrix():
    f = RMatrix([[1, 1, 1, 1], [1, -1, 0, 0], [1, 0, -1, 0], [1, 0, 0, -1]])
    inv = f.inverse()
    quarter = F(1, 4)
    expected = quarter * RMatrix(
        [[1, 1, 1, 1], [1, -3, 1, 1], [1, 1, -3, 1], [1, 1, 1, -3]]
    )
    assert inv == expected
    assert f * inv == RMatrix.identity(4)
    assert inv * f == RMatrix.identity(4)


def test_singular_and_dimension_errors_are_distinct():
    with pytest.raises(SingularMatrix):
        RMatrix([[1, 1], [1, 1]]).inverse()
    with pytest.raises(DimensionMismatch):
        RMatrix([[1, 2, 3]]).inverse()
    with pytest.raises(DimensionMismatch):
        RMatrix([[1, 2]]) * RMatrix([[1, 2]])
    with pytest.raises(DimensionMismatch, match="^matrix addition needs equal shapes$"):
        RMatrix([[1, 2]]) + RMatrix([[1], [2]])
    with pytest.raises(DimensionMismatch, match="^matrix subtraction needs equal shapes$"):
        RMatrix([[1, 2]]) - RMatrix([[1, 2, 3]])
    assert issubclass(SingularMatrix, MatrixError)
    assert issubclass(DimensionMismatch, MatrixError)
    assert not issubclass(SingularMatrix, DimensionMismatch)
    # an operand that is no matrix and no exact scalar falls to Python's
    # operator protocol, which raises TypeError
    one = RMatrix([[1]])
    for op in (lambda: one + 1, lambda: one * 1.5, lambda: 1.5 * one):
        with pytest.raises(TypeError):
            op()


def test_singular_message_names_the_first_column_without_a_pivot():
    # column 1 has no pivot, but column 2 does: the rank would say 2
    with pytest.raises(SingularMatrix, match=r"^matrix is singular \(zero pivot column 1\)$"):
        RMatrix([[1, 2, 3], [2, 4, 7], [0, 0, 1]]).inverse()


def test_random_inverses_are_two_sided():
    r = rng(3)
    for n in range(1, 7):
        a = rand_nonsingular(r, n)
        inv = a.inverse()
        assert a * inv == RMatrix.identity(n)
        assert inv * a == RMatrix.identity(n)


def test_results_stay_in_reduced_form():
    a = RMatrix([["2/4", "6/9"], ["10/15", "1"]])
    prod = a * a
    for row in prod.to_rows():
        for x in row:
            assert math.gcd(x.numerator, x.denominator) == 1
            assert x.denominator > 0


def test_json_round_trip_and_strictness():
    a = RMatrix([[F(1, 3), -2], [0, F(7, 2)]])
    d = a.to_json_dict()
    assert d["entries"] == [["1/3", "-2"], ["0", "7/2"]]
    assert repr(RMatrix([[1, "1/2"]])) == "RMatrix(1x2: 1 1/2)"
    assert RMatrix.from_json_dict(d) == a
    assert RMatrix.from_json_dict({"rows": 1, "cols": 2, "entries": [[1, "2/3"]]}) == RMatrix(
        [[1, F(2, 3)]]
    )
    with pytest.raises(MatrixError):
        RMatrix.from_json_dict({"rows": 1, "cols": 1, "entries": [["0.5"]]})
    with pytest.raises(MatrixError):
        RMatrix.from_json_dict({"rows": 1, "cols": 1, "entries": [[0.5]]})
    with pytest.raises(MatrixError):
        RMatrix.from_json_dict({"rows": 1, "cols": 1, "entries": [[True]]})
    with pytest.raises(MatrixError):
        RMatrix.from_json_dict({"rows": 2, "cols": 1, "entries": [["1"]]})
    for rows, cols in ((True, 1), (1, True)):
        with pytest.raises(MatrixError):
            RMatrix.from_json_dict({"rows": rows, "cols": cols, "entries": [["1"]]})


def test_solve_unique_and_singularity():
    a = RMatrix([[2, 1], [1, 3]])
    sol = solve_unique(a, [F(5), F(10)])
    assert sol == (F(1), F(3))
    assert mat_vec(a, sol) == (F(5), F(10))
    assert solve_unique(RMatrix([[1, 1], [2, 2]]), [1, 2]) is None
    with pytest.raises(DimensionMismatch, match="^solve_unique needs a square matrix$"):
        solve_unique(RMatrix([[1, 2]]), [1])
    # a string or a dict would iterate as characters or keys
    for rhs in (None, 5, {0: 1, 1: 2}, "12"):
        with pytest.raises(MatrixError, match="^right-hand side must be a tuple or list$"):
            solve_unique(a, rhs)


def test_rank_and_null_space():
    a = RMatrix([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(a) == 2
    basis = null_space(a)
    assert len(basis) == 1
    assert mat_vec(a, basis[0]) == (F(0), F(0), F(0))
    assert rank(RMatrix.identity(4)) == 4
    assert null_space(RMatrix.identity(3)) == []


def test_row_and_column_sums():
    # sums are products with a column or a row of ones
    a = RMatrix([[1, 2], [3, 4]])
    assert a * RMatrix([[1], [1]]) == RMatrix([[3], [7]])
    assert RMatrix([[1, 1]]) * a == RMatrix([[4, 6]])
    assert a.transpose() == RMatrix([[1, 3], [2, 4]])


@pytest.mark.parametrize("size", [True, False, 1.0, "2", 0, -1])
def test_constructors_refuse_sizes_that_are_not_positive_ints(size):
    for build in (
        RMatrix.identity,
        RMatrix.zero,
        lambda k: RMatrix.zero(2, k),
        lambda k: RMatrix.filled(k, 2, 1),
        lambda k: RMatrix.filled(2, k, 1),
    ):
        with pytest.raises(MatrixError):
            build(size)


def test_constructors_refuse_oversized_shapes_at_once():
    for build in (
        lambda: RMatrix.identity(10**20),
        lambda: RMatrix.zero(10**20),
        lambda: RMatrix.zero(2, MAX_ENTRIES),
        lambda: RMatrix.filled(MAX_ENTRIES + 1, 1, 0),
        lambda: RMatrix.identity(10**5000),
        lambda: q_zero(10**20),
        lambda: FlagFrame.standard(10**20),
    ):
        with pytest.raises(MatrixError, match="limited to"):
            build()
    assert RMatrix.zero(1, MAX_ENTRIES).cols == MAX_ENTRIES


def test_constructors_build_in_canonical_form():
    assert RMatrix.identity(3) == RMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert RMatrix.zero(2, 3) == RMatrix([[0] * 3] * 2)
    for value in (F(2, 4), "-6/8", 3, "0/5"):
        m = RMatrix.filled(2, 3, value)
        assert m == RMatrix([[value] * 3] * 2)
        assert hash(m) == hash(RMatrix([[value] * 3] * 2))
