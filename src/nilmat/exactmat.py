"""Exact rational scalars and dense rational matrices.

Scalars are fractions.Fraction, which keeps every value reduced with a
positive denominator. Matrices are immutable and all operations are pure
functions, so values can be shared freely between threads. Nothing in this
module ever rounds; if a computation cannot be done exactly it raises.
"""

import re
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/[1-9]\d*)?\Z")


class MatrixError(ValueError):
    """Base class for matrix domain errors."""


class DimensionMismatch(MatrixError):
    """Operand shapes are incompatible."""


class SingularMatrix(MatrixError):
    """A matrix that needed to be invertible is singular."""


def parse_rational(text):
    """Parse an exact rational literal "p" or "p/q".

    Decimal points, exponents and nonpositive denominators are rejected:
    inputs must already be exact.
    """
    if not isinstance(text, str):
        raise MatrixError(f"rational literal must be a string, got {type(text).__name__}")
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise MatrixError(f"not an exact rational literal: {text!r}")
    return Fraction(s)


def format_rational(value):
    v = Fraction(value)
    if v.denominator == 1:
        return str(v.numerator)
    return f"{v.numerator}/{v.denominator}"


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return parse_rational(x)
    raise MatrixError(f"inexact or unsupported entry type: {type(x).__name__}")


class RMatrix:
    """Immutable dense matrix over the rationals.

    Entries may be given as int, Fraction, or exact "p/q" strings; floats
    are refused. Indexing is 0-based via m[i, j].
    """

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

    @classmethod
    def identity(cls, n):
        return cls([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @classmethod
    def zero(cls, rows, cols=None):
        if cols is None:
            cols = rows
        return cls([[ZERO] * cols for _ in range(rows)])

    @classmethod
    def filled(cls, rows, cols, value):
        v = _as_fraction(value)
        return cls([[v] * cols for _ in range(rows)])

    # -- access -------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return self._data[i][j]

    def row(self, i):
        return self._data[i]

    def column(self, j):
        return tuple(r[j] for r in self._data)

    def to_rows(self):
        """Mutable copy as a list of lists."""
        return [list(r) for r in self._data]

    @property
    def is_square(self):
        return self.rows == self.cols

    def __eq__(self, other):
        return (
            isinstance(other, RMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self._data == other._data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self._data))

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(x) for x in row) for row in self._data)
        return f"RMatrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch("matrix addition needs equal shapes")
        return RMatrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self._data, other._data)]
        )

    def __sub__(self, other):
        if not isinstance(other, RMatrix):
            return NotImplemented
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
            return RMatrix(
                [[_dot(row, col) for col in cols] for row in self._data]
            )
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return RMatrix([[c * x for x in row] for row in self._data])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k):
        if not isinstance(k, int) or k < 1:
            raise MatrixError("matrix power needs a positive integer exponent")
        if not self.is_square:
            raise DimensionMismatch("matrix power needs a square matrix")
        result = None
        base = self
        e = k
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def transpose(self):
        return RMatrix([self.column(j) for j in range(self.cols)])

    def inverse(self):
        """Exact inverse by Gauss-Jordan elimination of [A | I].

        A column with no nonzero entry left to pivot on means the matrix is
        singular.
        """
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

    # -- inspection ----------------------------------------------------------

    def row_sums(self):
        return tuple(sum(row, ZERO) for row in self._data)

    def col_sums(self):
        return tuple(sum(self.column(j), ZERO) for j in range(self.cols))

    def is_zero(self):
        return all(x == 0 for row in self._data for x in row)

    def min_entry(self):
        return min(x for row in self._data for x in row)

    def max_entry(self):
        return max(x for row in self._data for x in row)

    def nonzero_positions(self):
        """0-based (i, j) pairs of nonzero entries, row-major."""
        return [
            (i, j)
            for i, row in enumerate(self._data)
            for j, x in enumerate(row)
            if x != 0
        ]

    def count_nonzero(self):
        return sum(1 for row in self._data for x in row if x != 0)

    # -- JSON ----------------------------------------------------------------

    def to_json_dict(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[format_rational(x) for x in row] for row in self._data],
        }

    @classmethod
    def from_json_dict(cls, obj):
        if not isinstance(obj, dict):
            raise MatrixError("matrix JSON must be an object")
        try:
            rows = obj["rows"]
            cols = obj["cols"]
            entries = obj["entries"]
        except (KeyError, TypeError) as exc:
            raise MatrixError(f"matrix JSON missing field: {exc}") from exc
        if any(not isinstance(k, int) or isinstance(k, bool) or k < 1 for k in (rows, cols)):
            raise MatrixError("matrix JSON needs positive integer rows/cols")
        if not isinstance(entries, list) or len(entries) != rows:
            raise MatrixError("matrix JSON entries must list one row per matrix row")
        if any(not isinstance(row, list) or len(row) != cols for row in entries):
            raise MatrixError("matrix JSON row has wrong length")
        return cls(entries)


def _dot(xs, ys, total=ZERO):
    """total + xs . ys, skipping zero factors."""
    for x, y in zip(xs, ys):
        if x and y:
            total += x * y
    return total


def mat_vec(m, vec):
    """Matrix times column vector, as a tuple of Fractions."""
    if len(vec) != m.cols:
        raise DimensionMismatch("vector length must equal column count")
    v = [_as_fraction(x) for x in vec]
    return tuple(_dot(row, v) for row in m.to_rows())


def _reduce(a, width, stop_at_gap=False):
    """Gauss-Jordan elimination of the first `width` columns, in place.

    `a` is a list of row lists, possibly augmented ([A | I], [A | b]):
    whole rows take part in every row operation. Each pivot is the first
    nonzero entry of its column at or below the current row; its row is
    scaled to a leading one and the column is cleared in every other
    row. Returns the pivot columns, the i-th pivot sitting in row i. With
    stop_at_gap the elimination ends at the first column without a pivot,
    which is all a square system needs to know it is singular.
    """
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
    """Exact rank via Gaussian elimination."""
    return len(_reduce(m.to_rows(), m.cols))


def solve_unique(m, rhs):
    """Solve a square system exactly; None when the matrix is singular."""
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
    """Basis of the right null space, as tuples of Fractions."""
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
