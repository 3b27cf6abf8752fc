"""Exact rational scalars and dense rational matrices.

A matrix is stored as integer rows over one positive common denominator,
normalised so that the denominator shares no factor with every numerator;
scalars going in may be int, fractions.Fraction or exact "p/q" strings,
and scalars coming out are Fractions. Products, sums and scaling work on
the integers and normalise once per result, and elimination is
fraction-free (Bareiss 1968). Matrices are immutable and all operations
are pure functions, so values can be shared freely between threads.
Nothing in this module ever rounds; if a computation cannot be done
exactly it raises.
"""

import math
import re
from fractions import Fraction
from itertools import chain
from operator import mul

ZERO = Fraction(0)
ONE = Fraction(1)

# the most entries a matrix built from its size alone (identity, zero,
# filled, the flat matrix, a standard frame) may have: far past anything
# exact elimination can finish, and small enough to fail at once rather
# than exhaust memory
MAX_ENTRIES = 10**6

# ASCII: \d alone would also match other scripts' digits, which int() reads,
# as it reads underscores between digits
_RATIONAL_RE = re.compile(r"[+-]?\d+(?:/[1-9]\d*)?\Z", re.ASCII)


class MatrixError(ValueError):
    """Base class for matrix domain errors."""


class DimensionMismatch(MatrixError):
    """Operand shapes are incompatible."""


class SingularMatrix(MatrixError):
    """A matrix that needed to be invertible is singular."""


def _parse_int(text):
    """The int of an integer literal: a str of ASCII digits with an
    optional sign and surrounding whitespace. Anything else, more digits
    than int() accepts included, is a MatrixError."""
    if "/" in text:
        raise MatrixError(f"not an integer literal: {text!r}")
    return _parse_pair(text)[0]


def _parse_pair(text):
    """(p, q) with text == "p/q" (q = 1 for "p"), q positive and not
    necessarily coprime to p; text is a str."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise MatrixError(f"not an exact rational literal: {text!r}")
    p, _, q = s.partition("/")
    try:
        return int(p), int(q) if q else 1
    except ValueError as exc:
        # int() refuses more digits than sys.get_int_max_str_digits()
        raise MatrixError(f"rational literal too long ({len(s)} characters)") from exc


def parse_rational(text):
    """Parse an exact rational literal "p" or "p/q".

    Decimal points, exponents, nonpositive denominators and digits other
    than ASCII 0-9 are rejected: inputs must already be exact.
    """
    if not isinstance(text, str):
        raise MatrixError(f"rational literal must be a string, got {type(text).__name__}")
    return Fraction(*_parse_pair(text))


def _format_pair(p, q):
    """The one exact text writer: "p" or "p/q" of p / q in lowest terms, for q > 0."""
    g = math.gcd(p, q)
    if g != 1:
        p //= g
        q //= g
    try:
        return str(p) if q == 1 else f"{p}/{q}"
    except ValueError:
        # str() refuses ints of more than sys.get_int_max_str_digits() digits
        raise MatrixError("number has too many digits to write out") from None


def _json_list(items):
    """A JSON list, at indent 2 inside the top-level object, of items
    already written at their own indent, as json.dumps(..., indent=2)
    writes it. The hand-joined JSON outputs share it: with indent set,
    json.dumps runs its pure-Python encoder."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def format_rational(value):
    """Exact text "p" or "p/q" of an int, a Fraction or an exact rational
    literal; anything else, floats and booleans included, is refused."""
    return _format_pair(*_int_pair(value))


def _is_int(x):
    # bool is an int subclass, and True must not pass for 1
    return isinstance(x, int) and not isinstance(x, bool)


def _shown(value, show=repr):
    """show(value) for an error message; an int past the int-to-str digit
    limit, which repr and str refuse, is named by its bit length instead."""
    try:
        return show(value)
    except ValueError:
        if _is_int(value):
            return f"<int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} holding an int too long to write out>"


def int_tuple(values):
    """values as a tuple of ints; MatrixError for a non-iterable or for
    any element that is not an int (floats and booleans included)."""
    try:
        values = tuple(values)
    except TypeError:
        raise MatrixError(f"not a sequence of integers: {_shown(values)}") from None
    if not all(_is_int(x) for x in values):
        raise MatrixError(f"not a sequence of integers: {_shown(values)}")
    return values


def _sequence(value, what):
    """value, when it is a tuple or list; a string or a dict would iterate
    as characters or keys."""
    if not isinstance(value, (tuple, list)):
        raise MatrixError(f"{what} must be a tuple or list")
    return value


def _shape(rows, cols):
    """(rows, cols) checked as the shape of a matrix to build: positive
    ints, not bools, with at most MAX_ENTRIES entries in all."""
    for k in (rows, cols):
        if not _is_int(k):
            raise MatrixError(f"matrix size must be an integer, got {type(k).__name__}")
        if k < 1:
            raise MatrixError("matrix needs at least one row and one column")
    if max(rows, cols) > MAX_ENTRIES or rows * cols > MAX_ENTRIES:
        raise MatrixError(f"matrices built by size are limited to {MAX_ENTRIES} entries")
    return rows, cols


def _size(n):
    """n checked as the size of an n x n matrix to build."""
    return _shape(n, n)[0]


def _int_pair(x):
    """(p, q) with x == p / q and q positive, for an int, a Fraction or an
    exact rational literal; p and q need not be coprime."""
    if isinstance(x, str):
        return _parse_pair(x)
    if _is_int(x):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise MatrixError(f"inexact or unsupported entry type: {type(x).__name__}")


def _rational(x):
    """x as an exact int or Fraction, both of which carry numerator and
    denominator."""
    if isinstance(x, Fraction) or _is_int(x):
        return x
    return Fraction(*_int_pair(x))


def _int_vector(values):
    """(ints, den) with values[i] == ints[i] / den: the one exact-rational sequence reader."""
    pairs = [_int_pair(x) for x in values]
    den = math.lcm(*(q for _, q in pairs))
    return [p * (den // q) for p, q in pairs], den


def _ingested(rows_of_entries):
    """(num, den) with rows_of_entries == num / den, for a list of entry
    rows: every entry read by _int_vector before the shape is checked, and
    the integers cut back into rows. _normalised then divides out what the
    entries did not have in lowest terms: a common denominator over its
    gcd with all numerators is the lcm of the reduced denominators."""
    flat, den = _int_vector(chain.from_iterable(rows_of_entries))
    if not rows_of_entries or not rows_of_entries[0]:
        raise MatrixError("matrix needs at least one row and one column")
    width = len(rows_of_entries[0])
    if any(len(row) != width for row in rows_of_entries):
        raise MatrixError("rows have unequal lengths")
    return tuple(zip(*[iter(flat)] * width)), den


def _normalised(num, den, m=None):
    """The matrix num / den, from integer row tuples and a positive
    denominator, with their common factor divided out; stored in m (a
    matrix being initialised) when given, else in a new RMatrix."""
    if den != 1:
        g = math.gcd(den, *chain.from_iterable(num))
        if g != 1:
            num = tuple(tuple(x // g for x in row) for row in num)
            den //= g
    if m is None:
        m = object.__new__(RMatrix)
    m.rows = len(num)
    m.cols = len(num[0])
    m._num = num
    m._den = den
    return m


class RMatrix:
    """Immutable dense matrix over the rationals.

    Entries may be given as int, Fraction, or exact "p/q" strings; floats
    are refused. Indexing is 0-based via m[i, j] and returns a Fraction.
    """

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, rows_of_entries):
        try:
            rows_of_entries = [_sequence(row, "each matrix row") for row in rows_of_entries]
        except TypeError:
            raise MatrixError(f"not a sequence of matrix rows: {_shown(rows_of_entries)}") from None
        _normalised(*_ingested(rows_of_entries), self)

    @classmethod
    def identity(cls, n):
        n = _size(n)
        return _normalised(tuple(tuple(int(i == j) for j in range(n)) for i in range(n)), 1)

    @classmethod
    def zero(cls, rows, cols=None):
        return cls.filled(rows, rows if cols is None else cols, 0)

    @classmethod
    def filled(cls, rows, cols, value):
        rows, cols = _shape(rows, cols)
        p, q = _int_pair(value)
        return _normalised(((p,) * cols,) * rows, q)

    # -- access -------------------------------------------------------------

    def __getitem__(self, key):
        i, j = key
        return Fraction(self._num[i][j], self._den)

    def column(self, j):
        return tuple(Fraction(r[j], self._den) for r in self._num)

    def to_rows(self):
        """Mutable copy as a list of lists of Fractions."""
        return [[Fraction(x, self._den) for x in r] for r in self._num]

    @property
    def is_square(self):
        return self.rows == self.cols

    def __eq__(self, other):
        return isinstance(other, RMatrix) and self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._den, self._num))

    def __repr__(self):
        body = "; ".join(" ".join(format_rational(x) for x in row) for row in self.to_rows())
        return f"RMatrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic ----------------------------------------------------------

    def _plus(self, other, sign, what):
        if not isinstance(other, RMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise DimensionMismatch(f"matrix {what} needs equal shapes")
        den = math.lcm(self._den, other._den)
        s, t = den // self._den, sign * (den // other._den)
        return _normalised(
            tuple(
                tuple(s * x + t * y for x, y in zip(r1, r2))
                for r1, r2 in zip(self._num, other._num)
            ),
            den,
        )

    def __add__(self, other):
        return self._plus(other, 1, "addition")

    def __sub__(self, other):
        return self._plus(other, -1, "subtraction")

    def __neg__(self):
        return _normalised(tuple(tuple(-x for x in row) for row in self._num), self._den)

    def __mul__(self, other):
        if isinstance(other, RMatrix):
            if self.cols != other.rows:
                raise DimensionMismatch(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            cols = tuple(zip(*other._num))
            return _normalised(
                tuple(tuple(sum(map(mul, row, col)) for col in cols) for row in self._num),
                self._den * other._den,
            )
        if isinstance(other, (int, Fraction)):
            p, q = _int_pair(other)
            return _normalised(tuple(tuple(p * x for x in row) for row in self._num), self._den * q)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, k):
        if not _is_int(k) or k < 1:
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
        return _normalised(tuple(zip(*self._num)), self._den)

    def inverse(self):
        """Exact inverse by fraction-free Gauss-Jordan elimination of
        [N | I], where this matrix is N / den.

        A column with no nonzero entry left to pivot on means the matrix is
        singular. Otherwise every pivot ends as the same D, and the
        inverse is den * (right half) / D.
        """
        if not self.is_square:
            raise DimensionMismatch("only square matrices can be inverted")
        n = self.rows
        a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self._num)]
        pivots = _reduce(a, n)
        if len(pivots) < n:
            gap = next((c for c, p in enumerate(pivots) if c != p), len(pivots))
            raise SingularMatrix(f"matrix is singular (zero pivot column {gap})")
        d = a[0][0]
        scale = self._den if d > 0 else -self._den
        return _normalised(tuple(tuple(scale * x for x in row[n:]) for row in a), abs(d))

    # -- inspection ----------------------------------------------------------

    def is_zero(self):
        return not any(chain.from_iterable(self._num))

    def min_entry(self):
        return Fraction(min(chain.from_iterable(self._num)), self._den)

    def max_entry(self):
        return Fraction(max(chain.from_iterable(self._num)), self._den)

    def nonzero_positions(self):
        """0-based (i, j) pairs of nonzero entries, row-major."""
        return [
            (i, j)
            for i, row in enumerate(self._num)
            for j, x in enumerate(row)
            if x != 0
        ]

    def count_nonzero(self):
        return sum(1 for row in self._num for x in row if x != 0)

    # -- JSON ----------------------------------------------------------------

    def to_json_dict(self):
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[_format_pair(x, self._den) for x in row] for row in self._num],
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
        if any(not _is_int(k) or k < 1 for k in (rows, cols)):
            raise MatrixError("matrix JSON needs positive integer rows/cols")
        if not isinstance(entries, list) or len(entries) != rows:
            raise MatrixError("matrix JSON entries must list one row per matrix row")
        if any(not isinstance(row, list) or len(row) != cols for row in entries):
            raise MatrixError("matrix JSON row has wrong length")
        return _normalised(*_ingested(entries))


def mat_vec(m, vec):
    """Matrix times column vector, as a tuple of Fractions."""
    if len(_sequence(vec, "vector")) != m.cols:
        raise DimensionMismatch("vector length must equal column count")
    v, vden = _int_vector(vec)
    den = m._den * vden
    return tuple(Fraction(sum(map(mul, row, v)), den) for row in m._num)


def _reduce(a, width):
    """Fraction-free Gauss-Jordan elimination of the first `width` columns,
    in place.

    `a` is a list of integer row lists, possibly augmented ([A | I],
    [A | b]): whole rows take part in every row operation. Each pivot is
    the first nonzero entry of its column at or below the current row.
    With p the pivot and prev the one before it (1 at the start), every
    other row becomes (p * row - row[c] * pivot row) / prev, which Bareiss
    (1968) shows divides exactly: entries stay integer minors of `a`.
    Afterwards row i, for i < len(pivots), holds the same nonzero D at
    its pivot column pivots[i] and 0 at every other pivot column, so the
    reduced row echelon form is a[i][j] / D. Returns the pivot columns.
    """
    rows = len(a)
    pivots = []
    prev = 1
    for c in range(width):
        r = len(pivots)
        piv = next((i for i in range(r, rows) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        top = a[r]
        p = top[c]
        for i in range(rows):
            if i != r:
                f = a[i][c]
                if f:
                    a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], top)]
                elif p != prev:
                    a[i] = [p * x // prev for x in a[i]]
        prev = p
        pivots.append(c)
        if r + 1 == rows:
            break
    return pivots


def rank(m):
    """Exact rank via Gaussian elimination."""
    return len(_reduce([list(row) for row in m._num], m.cols))


def solve_unique(m, rhs):
    """Solve a square system exactly; None when the matrix is singular."""
    if not m.is_square:
        raise DimensionMismatch("solve_unique needs a square matrix")
    if len(_sequence(rhs, "right-hand side")) != m.rows:
        raise DimensionMismatch("right-hand side length must equal row count")
    n = m.rows
    b, bden = _int_vector(rhs)
    a = [list(row) + [v] for row, v in zip(m._num, b)]
    if len(_reduce(a, n)) < n:
        return None
    # (N / den) x = b / bden, so x = den * (N^-1 b) / bden
    d = a[0][0] * bden
    return tuple(Fraction(m._den * row[n], d) for row in a)


def null_space(m):
    """Basis of the right null space, as tuples of Fractions."""
    cols = m.cols
    a = [list(row) for row in m._num]
    pivots = _reduce(a, cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(cols):
        if free in pivot_set:
            continue
        v = [ZERO] * cols
        v[free] = ONE
        for i, pc in enumerate(pivots):
            v[pc] = Fraction(-a[i][free], a[i][pc])
        basis.append(tuple(v))
    return basis
