"""Core crop-pest-awareness model.

Four interacting pools: crop biomass ``X``, susceptible pests ``S``,
infected pests ``I``, and a public-awareness level ``A``.  Pests consume
the crop through a saturating (Holling type II) response, aware farmers
deploy a bio-pesticide that converts susceptible pests to infected ones,
and awareness is driven by a global source plus reporting proportional
to the pest burden.

    dX/dt = r X (1 - X/K) - alpha X S/(c+X) - phi alpha X I/(c+X)
    dS/dt = m1 alpha X S/(c+X) - lam A S/(a+A) - d S
    dI/dt = m2 phi alpha X I/(c+X) + lam A S/(a+A) - (d+delta) I
    dA/dt = gamma + sigma (S+I) - eta A

The controlled variant scales the bio-pesticide activity term by ``u1``
and the global awareness source by ``u2``, both in [0, 1].

This module holds the parameter and state containers plus every
right-hand side used elsewhere: the controlled field (the uncontrolled
one is its u = (1, 1) case), its Jacobian, the adjoint (costate) field
of the optimal-control problem, and the running cost of the objective
functional.  Each field is written once as a positional function for
the integration kernels, with ``f(t, y)``-style adapters over it.  All
operations are pure functions evaluated in double precision.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateParameterError, DomainError

# Components of a numerically integrated trajectory may dip this far
# below zero from floating-point drift before validators complain.
POSITIVITY_TOL = 1e-9


class State(NamedTuple):
    """Model state: crop biomass, susceptible/infected pests, awareness."""

    X: float
    S: float
    I: float
    A: float


class Costate(NamedTuple):
    """Adjoint multipliers paired with (X, S, I, A)."""

    p1: float
    p2: float
    p3: float
    p4: float


class ControlValue(NamedTuple):
    """Bio-pesticide efficiency u1 and awareness-campaign effort u2."""

    u1: float
    u2: float


class RegionBounds(NamedTuple):
    """Containment bounds for the attracting region of the flow.

    Trajectories started inside the region satisfy X <= M,
    X + S + I <= W_max and A <= A_max for all time.
    """

    M: float
    W_max: float
    A_max: float

    def contains(self, s: Sequence[float], slack: float = 1e-6) -> bool:
        X, S, I, A = s
        return (
            min(X, S, I, A) >= -POSITIVITY_TOL
            and X <= self.M + slack
            and X + S + I <= self.W_max + slack
            and A <= self.A_max + slack
        )


@dataclass(frozen=True)
class ModelParams:
    """Model rates.  Defaults are the published baseline values.

    Units follow the nondimensionalized per-square-metre, per-day scheme
    of the source data: rates are 1/day, biomasses are biomass/m^2.
    ``lam`` is the aware-people activity rate (written lambda in the
    mathematical model; renamed here because of the Python keyword).
    """

    r: float = 0.1        # crop growth rate
    K: float = 1.0        # crop carrying capacity
    alpha: float = 0.025  # pest attack/consumption rate
    phi: float = 0.3      # attack reduction factor of infected pests
    c: float = 1.0        # crop half-saturation constant
    a: float = 0.5        # awareness half-saturation constant
    lam: float = 0.025    # aware-people activity rate
    d: float = 0.01       # pest natural mortality
    delta: float = 0.1    # disease-related extra pest mortality
    m1: float = 0.8       # susceptible-pest conversion efficiency
    m2: float = 0.6       # infected-pest conversion efficiency
    gamma: float = 0.003  # global-source awareness rate
    sigma: float = 0.015  # aware-people growth rate
    eta: float = 0.015    # awareness fading rate

    def __post_init__(self) -> None:
        for name in _PARAM_FIELDS:
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DomainError(f"parameter {name} must be finite, got {v!r}")
            if v < 0:
                raise DomainError(f"parameter {name} must be >= 0, got {v}")
        for name in ("K", "c", "a", "eta"):
            if getattr(self, name) <= 0:
                raise DomainError(f"parameter {name} must be > 0")
        if not self.phi < 1:
            raise DomainError(f"phi must be < 1, got {self.phi}")
        if not self.m1 > self.m2:
            raise DomainError(
                "conversion efficiencies must satisfy m1 > m2, got "
                f"m1={self.m1}, m2={self.m2}"
            )


_PARAM_FIELDS = (
    "r", "K", "alpha", "phi", "c", "a", "lam",
    "d", "delta", "m1", "m2", "gamma", "sigma", "eta",
)


@dataclass(frozen=True)
class ObjectiveWeights:
    """Weights of the objective integrand A1 S^2 - A2 A^2 + (B1 u1^2 + B2 u2^2)/2.

    Defaults are the baseline weights used by the bundled optimization runs.
    """

    A1: float = 1015.0
    A2: float = 1010.0
    B1: float = 1.6
    B2: float = 1.0

    def __post_init__(self) -> None:
        for name in ("A1", "A2", "B1", "B2"):
            v = getattr(self, name)
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise DomainError(f"weight {name} must be finite, got {v!r}")
        if self.B1 <= 0 or self.B2 <= 0:
            raise DomainError("control weights B1 and B2 must be > 0")
        if self.A1 < 0 or self.A2 < 0:
            raise DomainError("state weights A1 and A2 must be >= 0")


def _unpack(p: ModelParams) -> tuple[float, ...]:
    return (p.r, p.K, p.alpha, p.phi, p.c, p.a, p.lam,
            p.d, p.delta, p.m1, p.m2, p.gamma, p.sigma, p.eta)


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise DomainError(f"non-finite input value {v!r}")


def check_state(s: Sequence[float], tol: float = POSITIVITY_TOL) -> State:
    """Validate a state-like 4-sequence and return it as a State.

    Components must be finite and no more than ``tol`` below zero
    (tol=0 enforces true non-negativity on user-constructed states).
    """
    X, S, I, A = s
    _require_finite(X, S, I, A)
    if min(X, S, I, A) < -tol:
        raise DomainError(f"state has negative component beyond {tol:g}: {tuple(s)}")
    return State(X, S, I, A)


@functools.lru_cache(maxsize=32)
def model_field(params: ModelParams) -> Callable[..., tuple]:
    """Return the controlled field as a positional f(X, S, I, A, u1, u2).

    u1 scales the bio-pesticide activity term in dS/dt and dI/dt, u2
    scales the global awareness source in dA/dt.  At u = (1, 1) it is
    the uncontrolled field exactly (1.0 * x == x).  Parameters are
    captured in locals so the closure stays cheap inside fixed-step
    integration loops; one closure is kept per recent parameter set.
    """
    r, K, alpha, phi, c, a, lam, d, delta, m1, m2, gamma, sigma, eta = _unpack(params)

    def f(X: float, S: float, I: float, A: float, u1: float, u2: float) -> tuple:
        crop = alpha * X / (c + X)
        activity = u1 * lam * A / (a + A)
        dX = r * X * (1.0 - X / K) - crop * S - phi * crop * I
        dS = m1 * crop * S - activity * S - d * S
        dI = m2 * phi * crop * I + activity * S - (d + delta) * I
        dA = u2 * gamma + sigma * (S + I) - eta * A
        return (dX, dS, dI, dA)

    return f


def vector_field(params: ModelParams) -> Callable[[float, Sequence[float]], tuple]:
    """Return the uncontrolled field f(t, y) with y = (X, S, I, A)."""
    f = model_field(params)
    return lambda t, y: f(*y, 1.0, 1.0)


def controlled_vector_field(
    params: ModelParams,
    u_at: Callable[[float], Sequence[float]],
) -> Callable[[float, Sequence[float]], tuple]:
    """Return the controlled field f(t, y); ``u_at(t)`` supplies (u1, u2)."""
    f = model_field(params)
    return lambda t, y: f(*y, *u_at(t))


def rhs_uncontrolled(params: ModelParams, s: Sequence[float]) -> tuple:
    """Time derivative (dX, dS, dI, dA) of the uncontrolled system."""
    X, S, I, A = s
    _require_finite(X, S, I, A)
    return model_field(params)(X, S, I, A, 1.0, 1.0)


def rhs_controlled(params: ModelParams, s: Sequence[float], u: Sequence[float]) -> tuple:
    """Time derivative of the controlled system at control values u = (u1, u2)."""
    X, S, I, A = s
    u1, u2 = u
    _require_finite(X, S, I, A, u1, u2)
    if not (-1e-12 <= u1 <= 1 + 1e-12 and -1e-12 <= u2 <= 1 + 1e-12):
        raise DomainError(f"controls must lie in [0, 1], got {(u1, u2)}")
    return model_field(params)(X, S, I, A, u1, u2)


def jacobian(params: ModelParams, s: Sequence[float]) -> np.ndarray:
    """4x4 Jacobian of the uncontrolled field at state s.

    Entries (1,4) and (4,1) are identically zero: the crop equation has
    no direct awareness dependence and vice versa.
    """
    X, S, I, A = s
    _require_finite(X, S, I, A)
    r, K, alpha, phi, c, a, lam, d, delta, m1, m2, gamma, sigma, eta = _unpack(params)

    cx = c + X
    crop = alpha * X / cx
    crop_dX = alpha * c / (cx * cx)
    aA = a + A
    activity = lam * A / aA
    activity_dA = lam * a / (aA * aA)

    return np.array([
        [r * (1.0 - 2.0 * X / K) - crop_dX * S - phi * crop_dX * I,
         -crop, -phi * crop, 0.0],
        [m1 * crop_dX * S, m1 * crop - activity - d, 0.0, -activity_dA * S],
        [m2 * phi * crop_dX * I, activity, m2 * phi * crop - d - delta,
         activity_dA * S],
        [0.0, sigma, sigma, -eta],
    ])


@functools.lru_cache(maxsize=32)
def adjoint_model(params: ModelParams, w: ObjectiveWeights) -> Callable[..., tuple]:
    """Return the costate field as a positional g(p1, p2, p3, p4, X, S, I, A, u1).

    The field depends on the controls only through u1.  Parameters and
    weights are captured in locals to keep per-call cost low inside
    integration loops; one closure is kept per recent argument pair.
    """
    r, K, alpha, phi, c, a, lam, d, delta, m1, m2, gamma, sigma, eta = _unpack(params)
    A1, A2 = w.A1, w.A2

    def g(p1: float, p2: float, p3: float, p4: float,
          X: float, S: float, I: float, A: float, u1: float) -> tuple:
        cx = c + X
        crop = alpha * X / cx
        crop_dX = alpha * c / (cx * cx)
        aA = a + A
        activity = u1 * lam * A / aA
        activity_dA_S = u1 * lam * a * S / (aA * aA)
        dp1 = (p1 * (crop_dX * S + phi * crop_dX * I - r * (1.0 - 2.0 * X / K))
               - p2 * m1 * crop_dX * S
               - p3 * m2 * phi * crop_dX * I)
        dp2 = (-2.0 * A1 * S + p1 * crop
               + p2 * (activity - m1 * crop + d)
               - p3 * activity - p4 * sigma)
        dp3 = (p1 * phi * crop
               + p3 * (d + delta - m2 * phi * crop)
               - p4 * sigma)
        dp4 = 2.0 * A2 * A + (p2 - p3) * activity_dA_S + p4 * eta
        return (dp1, dp2, dp3, dp4)

    return g


def adjoint_field(params: ModelParams, w: ObjectiveWeights) -> Callable[..., tuple]:
    """Return the pointwise costate field g(t, p, s, u).

    The backward integrator supplies the state s and control u sampled
    (by linear interpolation) along a stored forward trajectory.
    """
    g = adjoint_model(params, w)
    return lambda t, p, s, u: g(*p, *s, u[0])


def costate_rhs(
    params: ModelParams,
    s: Sequence[float],
    p: Sequence[float],
    u: Sequence[float],
    w: ObjectiveWeights,
) -> tuple:
    """Adjoint time derivative (dp1, dp2, dp3, dp4).

    Equals the negated gradient of the Hamiltonian with respect to the
    state; the cost gradient contributes -2 A1 S to dp2/dt and +2 A2 A
    to dp4/dt.
    """
    X, S, I, A = s
    p1, p2, p3, p4 = p
    u1, u2 = u
    _require_finite(X, S, I, A, p1, p2, p3, p4, u1, u2)
    return adjoint_model(params, w)(p1, p2, p3, p4, X, S, I, A, u1)


def running_cost(s: Sequence[float], u: Sequence[float], w: ObjectiveWeights) -> float:
    """Objective integrand A1 S^2 - A2 A^2 + (B1 u1^2 + B2 u2^2) / 2."""
    _X, S, _I, A = s
    u1, u2 = u
    return w.A1 * S * S - w.A2 * A * A + 0.5 * (w.B1 * u1 * u1 + w.B2 * u2 * u2)


def hamiltonian(
    params: ModelParams,
    s: Sequence[float],
    p: Sequence[float],
    u: Sequence[float],
    w: ObjectiveWeights,
) -> float:
    """Pontryagin Hamiltonian: running cost plus costate-weighted dynamics."""
    f = rhs_controlled(params, s, u)
    return running_cost(s, u, w) + sum(pi * fi for pi, fi in zip(p, f))


def attracting_region(params: ModelParams, x0: float) -> RegionBounds:
    """Containment bounds (M, W_max, A_max) for trajectories started at X(0) = x0.

    M = max(x0, K) caps the crop, W_max = (r+4d)M/(4d) caps the total
    consumer-weighted biomass X + S + I, and A_max = (4 gamma d +
    sigma (r+4d) M)/(4 eta d) caps awareness.
    """
    if not math.isfinite(x0) or x0 < 0:
        raise DomainError(f"x0 must be finite and >= 0, got {x0!r}")
    if params.d == 0 or params.eta == 0:
        raise DegenerateParameterError(
            "long-run bounds are undefined when d = 0 or eta = 0"
        )
    M = max(x0, params.K)
    r, d = params.r, params.d
    W_max = (r + 4.0 * d) * M / (4.0 * d)
    A_max = (4.0 * params.gamma * d + params.sigma * (r + 4.0 * d) * M) / (
        4.0 * params.eta * d
    )
    return RegionBounds(M, W_max, A_max)
