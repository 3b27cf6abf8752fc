"""Oracles that nilmat.qflag used before it read frames as integer rows.

`fraction_standard_frame` builds the difference-basis frame from Fraction
columns, zipped into rows; `fraction_flags_equal` ranks the Fraction
columns of both frames at each breakpoint, side by side."""

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
    return FlagFrame(RMatrix(list(zip(*cols))), dims if dims is not None else range(1, n))


def fraction_flags_equal(frame1, frame2):
    """Do the column spans of the two frames agree at every breakpoint?"""
    if frame1.n != frame2.n or frame1.dims != frame2.dims:
        return False
    for d in frame1.dims:
        rows = zip(frame1.f.to_rows(), frame2.f.to_rows())
        if rank(RMatrix([r1[1 : d + 1] + r2[1 : d + 1] for r1, r2 in rows])) != d:
            return False
    return True
