"""Exception types raised by dickesim.

All failures raised on purpose derive from DickeSimError so callers can
catch one base class.  ValidationError also derives from ValueError
because that is what most numpy-adjacent code expects from bad input.
"""


class DickeSimError(Exception):
    """Base class for every error this package raises deliberately."""


class ValidationError(DickeSimError, ValueError):
    """An input failed a documented precondition; message names the check."""


class SingularMatrixError(DickeSimError):
    """Linear system singular to working precision; message carries the diagnostic."""


class NotPositiveSemidefiniteError(DickeSimError):
    """Matrix has an eigenvalue below the allowed PSD tolerance."""


class DegenerateKernelError(DickeSimError):
    """Null space is empty or multi-dimensional at working precision."""


class CapacityError(DickeSimError):
    """Problem size exceeds a documented dense-path limit."""


class NumericRangeError(DickeSimError):
    """Requested quantity overflows double precision even after rescaling."""


class BifurcationNotFoundError(DickeSimError):
    """No stability change inside the scanned parameter range."""
