"""Matrices with unit row and column sums, flags, and scaling.

The square matrices whose rows and columns all sum to 1 form a semigroup
whose zero element is the flat matrix with every entry 1/n. Conjugating by
a frame (all-ones first column, zero-sum remaining columns) splits off a
constant 1x1 block and identifies the semigroup with full (n-1)x(n-1)
matrices; maximal nilpotent subsemigroups correspond to flags of subspaces
inside the zero-sum hyperplane and become strictly block upper triangular
on the other side of the identification.
"""

from bisect import bisect_right
from fractions import Fraction
from operator import mul

from .exactmat import (
    RMatrix,
    MatrixError,
    SingularMatrix,
    DimensionMismatch,
    rank,
    ONE,
    ZERO,
    _normalised,
    _rational,
    _shown,
    _size,
    int_tuple,
)

# The membership, frame and block checks below read a matrix a as its
# integer rows a._num over the positive denominator a._den: an entry, row
# sum or column sum equals 1 exactly when its integer counterpart equals
# a._den, and 0 exactly when that is 0.


def q_zero(n):
    """The flat matrix with all entries 1/n, the semigroup's zero."""
    n = _size(n)
    return _normalised(((1,) * n,) * n, n)


def _in_q_by_action(a):
    # cross-route: the all-ones vector is fixed and the zero-sum hyperplane
    # is invariant (probed on the difference vectors e_1 - e_j), by integer
    # matrix-vector products
    n = a.rows
    ones = (1,) * n
    if any(sum(map(mul, row, ones)) != a._den for row in a._num):
        return False
    for j in range(1, n):
        u = [0] * n
        u[0] = 1
        u[j] = -1
        if sum(sum(map(mul, row, u)) for row in a._num) != 0:
            return False
    return True


def is_in_q(a):
    """All row sums and column sums equal 1.

    Entries may be negative; only the doubly stochastic test below adds
    nonnegativity.
    """
    if not a.is_square:
        raise DimensionMismatch("membership needs a square matrix")
    den = a._den
    result = all(sum(row) == den for row in a._num) and all(
        sum(col) == den for col in zip(*a._num)
    )
    assert result == _in_q_by_action(a), "sum test and action test disagree"
    return result


def is_doubly_stochastic(a):
    """Unit row/column sums plus nonnegative entries."""
    if not a.is_square:
        return False
    return is_in_q(a) and a.min_entry() >= 0


class FlagFrame:
    """A flag inside the zero-sum hyperplane, given concretely.

    f is a nonsingular transition matrix whose first column is all ones
    and whose remaining columns are a basis of the zero-sum hyperplane;
    dims lists the strictly increasing dimension breakpoints of the flag,
    ending at n-1. The i-th flag subspace is spanned by basis columns
    2 .. dims[i]+1.

    positions holds the flag's block pattern: the 0-based reduced positions
    (i, j), in row-major order, whose coordinates lie in different blocks,
    i before j. They are the support a member's reduced matrix may have and
    the parameters of the flag's polytope.
    """

    __slots__ = ("f", "f_inv", "dims", "positions")

    def __init__(self, f, dims):
        if not f.is_square or f.rows < 2:
            raise MatrixError("frame matrix must be square of size >= 2")
        n = f.rows
        if any(r[0] != f._den for r in f._num):
            raise MatrixError("first frame column must be all ones")
        for j, col in enumerate(zip(*f._num)):
            if j and sum(col) != 0:
                raise MatrixError(f"frame column {j + 1} must have zero sum")
        try:
            f_inv = f.inverse()
        except SingularMatrix as exc:
            raise MatrixError("frame matrix is singular") from exc
        dims = int_tuple(dims)
        if (
            not dims
            or any(d < 1 for d in dims)
            or any(a >= b for a, b in zip(dims, dims[1:]))
            or dims[-1] != n - 1
        ):
            raise MatrixError(f"dims must increase strictly to {n - 1}, got {_shown(dims)}")
        self.f = f
        self.f_inv = f_inv
        self.dims = dims
        # reduced coordinate j lies in block bisect_right(dims, j), 0-based
        block = [bisect_right(dims, j) for j in range(n - 1)]
        self.positions = tuple(
            (i, j) for i in range(n - 1) for j in range(i + 1, n - 1) if block[i] < block[j]
        )

    @property
    def n(self):
        return self.f.rows

    @classmethod
    def standard(cls, n, dims=None):
        """Frame with the difference basis e_i - e_(i+1); complete flag by
        default."""
        n = _size(n)
        cols = [[ONE] * n]
        for i in range(n - 1):
            col = [ZERO] * n
            col[i] = ONE
            col[i + 1] = -ONE
            cols.append(col)
        f = RMatrix(cols).transpose()
        return cls(f, dims if dims is not None else range(1, n))

    def to_json_dict(self):
        return {"F": self.f.to_json_dict(), "dims": list(self.dims)}

    @classmethod
    def from_json_dict(cls, obj):
        if not isinstance(obj, dict) or "F" not in obj or "dims" not in obj:
            raise MatrixError('frame JSON must be {"F": matrix, "dims": [...]}')
        return cls(RMatrix.from_json_dict(obj["F"]), obj["dims"])


def flags_equal(frame1, frame2):
    """Do two frames present the same flag?

    Frames are interchangeable labels: the flag is the chain of column
    spans at each breakpoint, compared here by exact rank.
    """
    if frame1.n != frame2.n or frame1.dims != frame2.dims:
        return False
    for d in frame1.dims:
        cols = [frame1.f.column(j) for j in range(1, d + 1)]
        cols += [frame2.f.column(j) for j in range(1, d + 1)]
        if rank(RMatrix(cols).transpose()) != d:
            return False
    return True


def iso_forward(a, frame):
    """Conjugate by the frame and strip the constant block.

    For members the conjugated matrix has first row and column (1, 0...0);
    anything else means the input is not in the semigroup (or the frame is
    broken) and raises.
    """
    if a.rows != frame.n or a.cols != frame.n:
        raise DimensionMismatch("matrix size must match the frame")
    m = frame.f_inv * a * frame.f
    top, *rest = m._num
    if top[0] != m._den or any(top[1:]) or any(r[0] for r in rest):
        raise MatrixError("conjugation is not block diagonal: matrix has a row or column sum != 1")
    return _normalised(tuple(r[1:] for r in rest), m._den)


def iso_backward(b, frame):
    """Inverse of iso_forward: embed a reduced matrix back into the
    unit-sum semigroup."""
    n = frame.n
    if b.rows != n - 1 or b.cols != n - 1:
        raise DimensionMismatch("reduced matrix must have size n-1")
    block = ((b._den,) + (0,) * (n - 1),) + tuple((0,) + r for r in b._num)
    return frame.f * _normalised(block, b._den) * frame.f_inv


def flag_membership(a, frame):
    """Is the matrix in the maximal nilpotent subsemigroup of the flag?

    Equivalent to the reduced matrix being strictly block upper
    triangular with respect to the frame's dimension breakpoints.
    """
    return is_strictly_block_upper(iso_forward(a, frame), frame)


def is_strictly_block_upper(b, frame):
    """Does a reduced (n-1)-matrix respect the frame's block pattern?"""
    if b.rows != frame.n - 1 or b.cols != frame.n - 1:
        raise DimensionMismatch("reduced matrix must have size n-1")
    return set(frame.positions).issuperset(b.nonzero_positions())


def nilpotency_class(a):
    """Least k with a^k equal to the flat matrix, or None.

    The flat matrix is the zero element here, and any nilpotent member
    dies by the (n-1)-th power.
    """
    if not is_in_q(a):
        raise MatrixError("nilpotency class is relative to the unit-sum semigroup")
    n = a.rows
    z = q_zero(n)
    p = a
    limit = n - 1 if n > 1 else 1
    for k in range(1, limit + 1):
        if p == z:
            return k
        p = p * a
    return None


def scale_toward_zero(a, alpha):
    """Affine scaling alpha*a + (1-alpha)*flat.

    alpha = 0 collapses everything to the flat matrix and would break the
    membership equivalence, so it is rejected.
    """
    alpha = _rational(alpha)
    if alpha == 0:
        raise MatrixError("scaling by 0 collapses to the zero element")
    if not is_in_q(a):
        raise MatrixError("scaling defined on the unit-sum semigroup")
    return alpha * a + (1 - alpha) * q_zero(a.rows)


def stochastic_scaling_range(a):
    """Closed interval of alpha keeping the scaled matrix doubly
    stochastic, computed entrywise.

    Each entry yields alpha*(entry - 1/n) >= -1/n; entries above 1/n bound
    alpha from below, entries below 1/n from above. The flat matrix is
    rejected since every alpha would work.
    """
    if not is_in_q(a):
        raise MatrixError("scaling range defined on the unit-sum semigroup")
    n = a.rows
    if a == q_zero(n):
        raise MatrixError("scaling range undefined for the zero element")
    inv_n = Fraction(1, n)
    lo = None
    hi = None
    for row in a.to_rows():
        for x in row:
            if x > inv_n:
                bound = 1 / (1 - n * x)
                if lo is None or bound > lo:
                    lo = bound
            elif x < inv_n:
                bound = 1 / (1 - n * x)
                if hi is None or bound < hi:
                    hi = bound
    # a differs from the flat matrix but all entries sum to n, so entries
    # on both sides of 1/n exist
    assert lo is not None and hi is not None and lo < 0 < hi
    two_entry_lo = 1 / (1 - n * a.max_entry())
    two_entry_hi = 1 / (1 - n * a.min_entry())
    assert two_entry_lo <= lo and hi <= two_entry_hi
    return (lo, hi)


def make_stochastic_nilpotent(frame, b, alpha=None):
    """Scale the flag member built from a strictly block triangular
    reduced matrix until it is doubly stochastic.

    With alpha omitted, take the midpoint of (0, min over nonzero entries
    of 1/(2n|entry|)), which always lands inside the stochastic range. A
    supplied alpha must lie in the exact scaling range. The result keeps
    the nilpotency class of the unscaled member.
    """
    if not is_strictly_block_upper(b, frame):
        raise MatrixError("reduced matrix does not respect the frame's block pattern")
    if alpha is not None:
        alpha = _rational(alpha)
    a = iso_backward(b, frame)
    n = frame.n
    z = q_zero(n)
    if a == z:
        if alpha == 0:
            raise MatrixError("scaling by 0 collapses to the zero element")
        return z
    if alpha is None:
        # half of min 1/(2n|x|) over the nonzero entries x = num / den
        alpha = Fraction(a._den, 4 * n * max(abs(x) for r in a._num for x in r))
    else:
        lo, hi = stochastic_scaling_range(a)
        if not lo <= alpha <= hi:
            bounds = ", ".join(_shown(x, str) for x in (lo, hi))
            raise MatrixError(
                f"alpha {_shown(alpha, str)} outside the stochastic scaling range [{bounds}]"
            )
    result = scale_toward_zero(a, alpha)
    assert is_doubly_stochastic(result)
    return result
