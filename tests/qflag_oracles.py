"""Oracles that nilmat.qflag used before it read frames as integer rows.

`fraction_standard_frame` builds the difference-basis frame from Fraction
columns and a transpose; `fraction_flags_equal` ranks the Fraction columns
of both frames at each breakpoint."""

from nilmat.exactmat import ONE, ZERO, RMatrix, rank
from nilmat.qflag import FlagFrame


def fraction_standard_frame(n, dims=None):
    """Frame with the difference basis e_i - e_(i+1); complete flag by
    default."""
    cols = [[ONE] * n]
    for i in range(n - 1):
        col = [ZERO] * n
        col[i] = ONE
        col[i + 1] = -ONE
        cols.append(col)
    return FlagFrame(RMatrix(cols).transpose(), dims if dims is not None else range(1, n))


def fraction_flags_equal(frame1, frame2):
    """Do the column spans of the two frames agree at every breakpoint?"""
    if frame1.n != frame2.n or frame1.dims != frame2.dims:
        return False
    for d in frame1.dims:
        cols = [frame1.f.column(j) for j in range(1, d + 1)]
        cols += [frame2.f.column(j) for j in range(1, d + 1)]
        if rank(RMatrix(cols).transpose()) != d:
            return False
    return True
