"""Exception types shared across the package."""


class CropguardError(Exception):
    """Base class for all package-specific errors."""


class DomainError(CropguardError, ValueError):
    """Raised when an input value is rejected: outside the domain of an
    operation (non-finite numbers, negative quantities that must be
    non-negative, controls outside [0, 1], parameters that violate the
    model's standing assumptions) or degenerate for it.  The one type to
    catch for a rejected value; arrays of the wrong shape raise
    ``GridMismatchError``."""


class NonFiniteError(DomainError):
    """Raised when a value that must be finite is inf or NaN.  Inside an
    integrator it marks a stage state that overflowed, so ``_rk4``
    reports it as a blow-up rather than as a rejected input."""


class DegenerateParameterError(DomainError):
    """Raised when a formula's denominator is too close to zero for the
    requested quantity to be meaningful (for example a vanishing pest
    conversion margin, or zero natural death rate in a long-run bound),
    though the parameters themselves are admissible."""


class GridMismatchError(CropguardError, ValueError):
    """Raised when arrays that must share a time grid have inconsistent
    lengths or incompatible grids."""


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
