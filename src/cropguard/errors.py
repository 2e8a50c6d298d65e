"""Exception types shared across the package."""


class CropguardError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CropguardError, ValueError):
    """Raised when an input is rejected: outside the domain of an
    operation (non-finite numbers, negative quantities that must be
    non-negative, controls outside [0, 1], parameters that violate the
    model's standing assumptions), degenerate for it, or an array of the
    wrong shape (``GridMismatchError``).  The one type to catch for a
    rejected input."""


class NonFiniteError(DomainError):
    """Raised when a value that must be finite is inf or NaN.  Raised by
    a field that ``rk4_forward`` integrates, it marks a stage state that
    overflowed, so the run reports it as a blow-up rather than as a
    rejected input."""


class DegenerateParameterError(DomainError):
    """Raised when a formula's denominator is zero for admissible
    parameters: the long-run bounds at d = 0 (``attracting_region``), the
    coexistence reduction at sigma = 0 (``coexistence``) and the threshold
    denominator R = 0 in ``r0``."""


class GridMismatchError(DomainError):
    """Raised when arrays that must share a time grid have inconsistent
    lengths or incompatible grids, or a run lacks the controls that a
    pass over it needs."""


class BlowUpError(CropguardError, RuntimeError):
    """Raised when a trajectory leaves the representable range (non-finite
    state) during integration.  Carries the time at which it happened."""

    def __init__(self, t: float, message: str | None = None):
        self.t = t
        super().__init__(message or f"state became non-finite at t = {t:.6g}")

    def __reduce__(self):
        # ``args`` holds only the message; rebuild from (t, message) so the
        # error crosses a process boundary with its type and time intact
        return type(self), (self.t, str(self))
