"""Exception types shared across the package.

Every domain failure (bad input, inadmissible geometry, a solve that misses its
contract) is a `SteklovError`; anything else escaping the package is a bug.
"""


class SteklovError(Exception):
    """Base of the package's domain errors."""


class InvalidParameterError(SteklovError, ValueError):
    """An argument violates an operation's preconditions."""


class InvalidGluingError(SteklovError, ValueError):
    """A gluing request is geometrically inadmissible (overlapping arcs, neck too large, ...)."""


class BracketError(SteklovError, ValueError):
    """Root bracket does not straddle a sign change."""


class AssemblyError(SteklovError, RuntimeError):
    """Finite-element assembly failed (degenerate triangle, inconsistent complex)."""


class FactorizationError(SteklovError, RuntimeError):
    """A sparse factorization (DtN or pencil) failed or left the diagonal."""


class SolverError(SteklovError, RuntimeError):
    """Eigensolve did not meet its residual contract."""


class ResolutionError(SteklovError, RuntimeError):
    """A quadrature or mesh is too coarse for the requested tolerance."""
