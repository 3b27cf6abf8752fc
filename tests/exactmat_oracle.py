"""Fraction-per-entry rational kernel: the RMatrix, Gauss-Jordan routine and
wrappers that nilmat.exactmat used before it stored integer rows over one
common denominator. Every entry is a fractions.Fraction and every row
operation divides; slow, but obviously right. Test-only oracle."""

from fractions import Fraction

from nilmat.exactmat import (
    ONE,
    ZERO,
    DimensionMismatch,
    MatrixError,
    SingularMatrix,
    parse_rational,
)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise MatrixError(f"inexact or unsupported entry type: {type(x).__name__}")


class RMatrix:
    """Immutable dense matrix with one Fraction per entry."""

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows_of_entries):
        data = tuple(tuple(_as_fraction(x) for x in row) for row in rows_of_entries)
        if not data or not data[0]:
            raise MatrixError("matrix needs at least one row and one column")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise MatrixError("rows have unequal lengths")
        self.rows = len(data)
        self.cols = width
        self._data = data

    def column(self, j):
        return tuple(r[j] for r in self._data)

    def to_rows(self):
        return [list(r) for r in self._data]

    @property
    def is_square(self):
        return self.rows == self.cols

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition needs equal shapes")
        return RMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._data, other._data)]
        )

    def __sub__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix subtraction needs equal shapes")
        return RMatrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self._data, other._data)]
        )

    def __neg__(self):
        return RMatrix([[-x for x in row] for row in self._data])

    def __mul__(self, other):
        if isinstance(other, RMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            cols = [other.column(j) for j in range(other.cols)]
            return RMatrix([[_dot(row, col) for col in cols] for row in self._data])
        c = _as_fraction(other)
        return RMatrix([[c * x for x in row] for row in self._data])

    def __rmul__(self, other):
        return self.__mul__(other)

    def transpose(self):
        return RMatrix([self.column(j) for j in range(self.cols)])

    def inverse(self):
        if not self.is_square:
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.rows
        a = [
            list(row) + [ONE if i == j else ZERO for j in range(n)]
            for i, row in enumerate(self._data)
        ]
        pivots = _reduce(a, n, stop_at_gap=True)
        if len(pivots) < n:
            raise SingularMatrix(f"matrix is singular (zero pivot column {len(pivots)})")
        return RMatrix([row[n:] for row in a])

    def min_entry(self):
        return min(x for row in self._data for x in row)

    def max_entry(self):
        return max(x for row in self._data for x in row)


def _dot(xs, ys, total=ZERO):
    for x, y in zip(xs, ys):
        if x and y:
            total += x * y
    return total


def mat_vec(m, vec):
    if len(vec) != m.cols:
        raise DimensionMismatch("vector length must equal column count")
    v = [_as_fraction(x) for x in vec]
    return tuple(_dot(row, v) for row in m.to_rows())


def _reduce(a, width, stop_at_gap=False):
    """Gauss-Jordan elimination of the first `width` columns of Fraction
    rows, in place, scaling each pivot row to a leading one."""
    rows = len(a)
    pivots = []
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if a[i][c] != 0), None)
        if piv is None:
            if stop_at_gap:
                break
            continue
        a[r], a[piv] = a[piv], a[r]
        p = a[r][c]
        top = a[r] = [x / p for x in a[r]]
        for i in range(rows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], top)]
        pivots.append(c)
        if r + 1 == rows:
            break
    return pivots


def rank(m):
    return len(_reduce(m.to_rows(), m.cols))


def solve_unique(m, rhs):
    if not m.is_square:
        raise DimensionMismatch("solve_unique needs a square matrix")
    if len(rhs) != m.rows:
        raise DimensionMismatch("right-hand side length must equal row count")
    n = m.rows
    a = [list(row) + [_as_fraction(v)] for row, v in zip(m.to_rows(), rhs)]
    if len(_reduce(a, n, stop_at_gap=True)) < n:
        return None
    return tuple(row[n] for row in a)


def null_space(m):
    cols = m.cols
    a = m.to_rows()
    pivots = _reduce(a, cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [ZERO] * cols
        v[free] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = -a[i][free]
        basis.append(tuple(v))
    return basis
