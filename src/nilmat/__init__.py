"""Exact tools for nilpotent subsemigroups of matrix semigroups.

Modules:
  exactmat  exact rational matrices and linear algebra
  boolrel   Boolean matrices, support patterns, closure, maximality test
  omega     patterns, counting, and units in the nonnegative ambient
  qflag     unit row/column sum matrices, flags, stochastic scaling
  polytope  exact H-to-V conversion of the doubly stochastic polytopes
  reference bundled example1 data and the checks of nilmat verify
  cli       command line front end (entry point: nilmat)
"""

__version__ = "0.1.0"

from .exactmat import (
    RMatrix,
    MatrixError,
    DimensionMismatch,
    SingularMatrix,
    parse_rational,
    format_rational,
)
from .boolrel import BoolMatrix

__all__ = [
    "RMatrix",
    "BoolMatrix",
    "MatrixError",
    "DimensionMismatch",
    "SingularMatrix",
    "parse_rational",
    "format_rational",
    "__version__",
]
