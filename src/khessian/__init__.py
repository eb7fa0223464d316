"""Numerical machinery for conformal k-Hessian equations: symmetric-function
cone algebra, gauge conversions, radial reduction, geometric diagnostics, and
Newton/continuation solvers for the radial model problems."""

__version__ = "0.1.0"

# scipy is imported in the functions that call it, never at module level:
# any scipy subpackage costs 0.3-0.8 s to load, and most commands use none.
from . import analysis, conformal, radial, solver, symfunc  # noqa: F401
