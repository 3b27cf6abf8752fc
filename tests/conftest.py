"""Shared deterministic random generators for the test suite."""

import contextlib
import random
import warnings
from fractions import Fraction
from itertools import combinations

from nilmat.exactmat import RMatrix, MatrixError, ZERO, ONE
from nilmat.qflag import FlagFrame, iso_backward

# Hypothesis imports this module to report a failing example; through libcst
# it raises mypy_extensions' TypedDict DeprecationWarning, which under
# `-W error` turns the report into an INTERNALERROR. Importing it here, once,
# with that warning ignored keeps every other warning an error.
with warnings.catch_warnings(), contextlib.suppress(ImportError):
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


def rng(seed):
    return random.Random(seed)


def rand_fraction(r, lo=-3, hi=3, max_den=4):
    return Fraction(r.randint(lo, hi), r.randint(1, max_den))


def rand_matrix(r, rows, cols=None, lo=-3, hi=3, max_den=4):
    cols = rows if cols is None else cols
    return RMatrix(
        [[rand_fraction(r, lo, hi, max_den) for _ in range(cols)] for _ in range(rows)]
    )


def rand_nonneg_matrix(r, n, density=0.6, hi=3, max_den=3):
    return RMatrix(
        [
            [
                Fraction(r.randint(1, hi), r.randint(1, max_den))
                if r.random() < density
                else ZERO
                for _ in range(n)
            ]
            for _ in range(n)
        ]
    )


def rand_nonsingular(r, n, lo=-3, hi=3, max_den=2):
    while True:
        m = rand_matrix(r, n, lo=lo, hi=hi, max_den=max_den)
        try:
            m.inverse()
        except MatrixError:
            continue
        return m


def all_dims(n):
    """Every flag's dims at size n: the breakpoints inside 1..n-2, then n-1."""
    inner = range(1, n - 1)
    return [c + (n - 1,) for k in range(n - 1) for c in combinations(inner, k)]


def rand_frame(r, n, dims=None):
    """Random frame: all-ones column plus small-integer zero-sum columns."""
    while True:
        cols = [[ONE] * n]
        for _ in range(n - 1):
            body = [Fraction(r.randint(-3, 3)) for _ in range(n - 1)]
            cols.append(body + [-sum(body, ZERO)])
        try:
            return FlagFrame(
                RMatrix(list(zip(*cols))),
                dims if dims is not None else range(1, n),
            )
        except MatrixError:
            continue


def rand_tree_frame(r, n):
    """Random frame: all-ones column plus signed differences e_i - e_j,
    which give sparse polytopes (13-16 inequalities at n = 5, d = 6)."""
    while True:
        cols = [[ONE] * n]
        for _ in range(n - 1):
            i, j = r.sample(range(n), 2)
            col = [ZERO] * n
            col[i], col[j] = ONE, -ONE
            cols.append(col)
        try:
            return FlagFrame(RMatrix(list(zip(*cols))), range(1, n))
        except MatrixError:
            continue


def rand_q_matrix(r, frame, lo=-2, hi=2, max_den=2):
    """Random member of the unit-sum semigroup, via the frame embedding."""
    return iso_backward(rand_matrix(r, frame.n - 1, lo=lo, hi=hi, max_den=max_den), frame)


def rand_block_upper(r, frame, density=0.7, lo=-2, hi=2, max_den=2):
    """Random reduced matrix respecting the frame's block pattern."""
    size = frame.n - 1
    rows = [[ZERO] * size for _ in range(size)]
    for i, j in frame.positions:
        if r.random() < density:
            rows[i][j] = rand_fraction(r, lo, hi, max_den)
    return RMatrix(rows)


def rand_pattern_supported(r, pattern, hi=3, max_den=3, density=0.8):
    """Random nonnegative matrix supported inside a Boolean pattern."""
    n = pattern.n
    rows = [[ZERO] * n for _ in range(n)]
    for i, j in pattern.bits():
        if r.random() < density:
            rows[i][j] = Fraction(r.randint(1, hi), r.randint(1, max_den))
    return RMatrix(rows)
