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
    """Raised when a formula's denominator is, or underflows to, zero for
    admissible parameters: 4 eta d (``attracting_region``), sigma (the
    coexistence reduction), phi alpha K (``susceptible_free``), and
    m1 (a eta + gamma) or R (``r0``)."""


class GridMismatchError(DomainError):
    """Raised when a per-node array (a run's states, controls or
    costates) does not have one row of the right width per grid node, or
    is ragged or non-numeric."""


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
