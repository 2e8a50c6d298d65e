"""Core crop-pest-awareness model.

Four interacting pools: crop biomass ``X``, susceptible pests ``S``,
infected pests ``I``, and a public-awareness level ``A``.  Pests consume
the crop through a saturating (Holling type II) response, aware farmers
deploy a bio-pesticide that converts susceptible pests to infected ones,
and awareness is driven by a global source plus reporting proportional
to the pest burden.

    dX/dt = r X (1 - X/K) - h S - phi h I
    dS/dt = m1 h S - g S - d S
    dI/dt = m2 phi h I + g S - (d+delta) I
    dA/dt = gamma + sigma (S+I) - eta A

    with h = alpha X/(c+X) and g = lam A/(a+A)

The controlled variant scales the bio-pesticide activity rate by ``u1``
(g = u1 lam A/(a+A)) and the global awareness source by ``u2`` (u2
gamma in dA/dt), both in [0, 1].

This module holds the parameter and state containers plus every
right-hand side used elsewhere: the controlled field (the uncontrolled
one is its u = (1, 1) case), its Jacobian, the adjoint (costate) field
of the optimal-control problem, and the running cost of the objective
functional.  The field is written once, as the six assignments of the
source text ``_FIELD``; ``_bind_compiled`` compiles code around that
text once per process and binds it to a parameter set by a closure
call.  The positional function ``model_field`` is compiled this way, and
so is the model's RK4 kernel in ``integrate``, which inlines the text at
each stage; ``rhs_uncontrolled`` and ``rhs_controlled`` evaluate
``model_field`` at one state.  The costate field is
affine in the costates; its coefficients are written once, as the
negated transposed Jacobian plus the cost gradient, by
``costate_matrix``, which works on arrays for the costate kernel and
on floats for the pointwise ``costate_rhs``.  ``check_state``,
``check_controls`` and ``check_count`` hold the rules for a valid
state, an admissible control and a count.  All operations are pure
functions evaluated in double precision.
"""

from __future__ import annotations

import functools
import math
import operator
import textwrap
from dataclasses import dataclass, fields
from typing import Callable, Mapping, NamedTuple, Sequence

import numpy as np

from .errors import DegenerateParameterError, DomainError, NonFiniteError

# Components of a numerically integrated trajectory may dip this far
# below zero from floating-point drift before validators complain.
POSITIVITY_TOL = 1e-9
# The upper bound of the control box [0, CONTROL_MAX], and how far controls
# may pass its bounds from rounding in a caller's arithmetic and still count
# as admissible, and as on the bound.
CONTROL_MAX = 1.0
CONTROL_TOL = 1e-12


class State(NamedTuple):
    """Model state: crop biomass, susceptible/infected pests, awareness."""

    X: float
    S: float
    I: float
    A: float


# Initial state of the CLI runs and of parameter sweeps, unless overridden.
DEFAULT_STATE = State(0.2, 0.07, 0.05, 0.5)


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


_PARAM_FIELDS = tuple(f.name for f in fields(ModelParams))
_param_values = operator.itemgetter(*_PARAM_FIELDS)


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


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise NonFiniteError(f"non-finite input value {v!r}")


def check_state(s: Sequence[float]) -> State:
    """Validate a state-like 4-sequence and return it as a State.

    Components must be finite and no more than ``POSITIVITY_TOL`` below zero.
    """
    X, S, I, A = s
    _require_finite(X, S, I, A)
    if min(X, S, I, A) < -POSITIVITY_TOL:
        raise DomainError(f"state has negative component beyond {POSITIVITY_TOL:g}: {tuple(s)}")
    return State(X, S, I, A)


def check_controls(u) -> None:
    """Reject inadmissible controls ``u``, one (u1, u2) pair or an array of
    them: a non-finite value raises ``NonFiniteError``, one outside
    [0, ``CONTROL_MAX``] by more than ``CONTROL_TOL`` ``DomainError``."""
    u = np.asarray(u, dtype=float)
    if not np.isfinite(u).all():
        raise NonFiniteError(f"controls must be finite, got {float(u[~np.isfinite(u)][0])!r}")
    if u.min() < -CONTROL_TOL or u.max() > CONTROL_MAX + CONTROL_TOL:
        raise DomainError(f"controls must lie in [0, {CONTROL_MAX:g}], "
                          f"got values from {u.min()} to {u.max()}")


def check_count(value, name: str, least: int = 1) -> int:
    """``value`` as a plain int: any integral value but a bool, at least
    ``least``; anything else raises ``DomainError``."""
    try:
        n = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        n = None
    if n is None or n < least:
        raise DomainError(f"{name} must be an integer of at least {least}, got {value!r}")
    return n


# The controlled field, written once: it reads the state X, S, I, A, the
# controls u1, u2, the parameters by their field names and the state-free
# terms of ``_STATE_FREE``, and assigns the derivatives dX, dS, dI, dA.
# Python evaluates ``m2_phi * crop * I`` left to right, so every result is
# bit-identical to the module docstring's equations evaluated as written.
_FIELD = """\
crop = alpha * X / (c + X)
transfer = u1 * lam * A / (a + A) * S
dX = r * X * (1.0 - X / K) - crop * S - phi * crop * I
dS = m1 * crop * S - transfer - d * S
dI = m2_phi * crop * I + transfer - loss_I * I
dA = u2 * gamma + sigma * (S + I) - eta * A
"""
# Formed once per parameter set, not once per evaluation.
_STATE_FREE = """\
m2_phi = m2 * phi
loss_I = d + delta
"""


def _bind_compiled(source: str, name: str, namespace: dict) -> Callable[[Mapping], Callable]:
    """Return ``bind(values)``: the function ``name`` that ``source`` defines,
    with the parameters it reads as ``_FIELD`` does bound to ``values``, a
    mapping such as ``vars(params)``.  ``source`` is compiled on the first call,
    once per process, with ``namespace`` as its globals.  The text that
    reaches ``compile`` is ``source`` and this module's constants;
    parameter values are arguments of the closure call, never formatted
    into code.
    """
    code = textwrap.indent(f"{_STATE_FREE}{source}return {name}\n", "    ")

    @functools.cache
    def compiled() -> Callable:
        scope = dict(namespace)
        exec(compile(f"def closure({', '.join(_PARAM_FIELDS)}):\n{code}", f"<cropguard {name}>",
                     "exec"), scope)
        return scope["closure"]

    def bind(values: Mapping) -> Callable:
        return compiled()(*_param_values(values))

    return bind


_bind_field = _bind_compiled(
    "def f(X, S, I, A, u1, u2):\n" + textwrap.indent(f"{_FIELD}return (dX, dS, dI, dA)\n", "    "),
    "f", {})


def model_field(params: ModelParams) -> Callable[..., tuple]:
    """Return the controlled field as a positional f(X, S, I, A, u1, u2).

    u1 scales the bio-pesticide activity term in dS/dt and dI/dt, u2
    scales the global awareness source in dA/dt.  At u = (1, 1) it is
    the uncontrolled field exactly (1.0 * x == x).  It runs the text
    ``_FIELD`` with the parameters captured in the closure.
    """
    return _bind_field(vars(params))


def rhs_uncontrolled(params: ModelParams, s: Sequence[float]) -> tuple:
    """Time derivative (dX, dS, dI, dA) of the uncontrolled system."""
    X, S, I, A = s
    _require_finite(X, S, I, A)
    return model_field(params)(X, S, I, A, 1.0, 1.0)


def rhs_controlled(params: ModelParams, s: Sequence[float], u: Sequence[float]) -> tuple:
    """Time derivative of the controlled system at control values u = (u1, u2)."""
    X, S, I, A = s
    u1, u2 = u
    _require_finite(X, S, I, A)
    check_controls((u1, u2))
    return model_field(params)(X, S, I, A, u1, u2)


def jacobian(params: ModelParams, s: Sequence[float]) -> np.ndarray:
    """4x4 Jacobian of the uncontrolled field at state s, the one-point ``_jacobians``.

    Entries (1,4) and (4,1) are identically zero: the crop equation has no direct awareness
    dependence and vice versa.  A state that ``check_state`` rejects raises its error.
    """
    return _jacobians(vars(params), [check_state(s)])[0]


def _jacobians(values: Mapping, points) -> np.ndarray:
    """The uncontrolled Jacobian at each of ``points``, (m, 4) states, as one C-ordered (m, 4, 4)
    stack, filled entry-major and copied once; a parameter value may be an array of length m.
    An entry that overflows or divides by zero (c + X underflowing) is inf or nan, silently."""
    X, S, I, A = np.asarray(points, dtype=float).reshape(-1, 4).T
    J = np.zeros((4, 4, len(X)))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for (i, j), value in _jacobian_entries(values, X, S, I, A, 1.0):
            J[i, j] = value
    return np.ascontiguousarray(J.transpose(2, 0, 1))


def _jacobian_entries(values, X, S, I, A, u1) -> list:
    """Nonzero entries ((row, column), value) of the controlled field's Jacobian.

    ``values`` maps each parameter name to its value, as ``vars(params)``
    does.  Arguments and values are floats or arrays of one shape, so a
    parameter may vary with the state.  At u1 = 1 these are the
    uncontrolled Jacobian's entries exactly (1.0 * x == x).
    """
    r, K, alpha, phi, c, a, lam, d, delta, m1, m2, gamma, sigma, eta = (
        values[name] for name in _PARAM_FIELDS)
    cx = c + X
    crop = alpha * X / cx
    crop_dX = alpha * c / (cx * cx)
    aA = a + A
    activity = u1 * lam * A / aA
    activity_dA_S = u1 * lam * a / (aA * aA) * S
    return [
        ((0, 0), r * (1.0 - 2.0 * X / K) - crop_dX * S - phi * crop_dX * I),
        ((0, 1), -crop), ((0, 2), -phi * crop),
        ((1, 0), m1 * crop_dX * S), ((1, 1), m1 * crop - activity - d), ((1, 3), -activity_dA_S),
        ((2, 0), m2 * phi * crop_dX * I), ((2, 1), activity),
        ((2, 2), m2 * phi * crop - d - delta), ((2, 3), activity_dA_S),
        ((3, 1), sigma), ((3, 2), sigma), ((3, 3), -eta),
    ]


def costate_matrix(params: ModelParams, w: ObjectiveWeights, X, S, I, A, u1) -> np.ndarray:
    """The costate field dp/dt = M p + b as one matrix G acting on (p, 1).

    dp/dt = -dH/dx is affine in p: M = -J^T with J the Jacobian of the
    field at control u1 (the field depends on the controls only through
    u1), and b = (0, -2 A1 S, 0, 2 A2 A) is the negated gradient of the
    running cost.  G = [[M, b], [0, 0]], so dp/dt = (G @ (p, 1))[:4] and
    the affine maps of an integration step compose by matrix products.
    Arguments are floats or arrays of one shape; G has shape (..., 5, 5).
    """
    G = np.zeros((5, 5) + np.shape(X))  # entry-major: each entry is filled contiguously
    for (i, j), value in _jacobian_entries(vars(params), X, S, I, A, u1):
        G[j, i] = -value
    G[1, 4] = -2.0 * w.A1 * S
    G[3, 4] = 2.0 * w.A2 * A
    return np.moveaxis(G, (0, 1), (-2, -1))


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
    to dp4/dt.  Controls that ``check_controls`` rejects raise its error.
    """
    X, S, I, A = s
    p1, p2, p3, p4 = p
    u1, u2 = u
    _require_finite(X, S, I, A, p1, p2, p3, p4)
    check_controls((u1, u2))
    G = costate_matrix(params, w, X, S, I, A, u1)
    return tuple((G[:4] @ (p1, p2, p3, p4, 1.0)).tolist())


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
    sigma (r+4d) M)/(4 eta d) caps awareness; 4 eta d = 0, as at d = 0, raises.
    """
    if not math.isfinite(x0) or x0 < 0:
        raise DomainError(f"x0 must be finite and >= 0, got {x0!r}")
    M = max(x0, params.K)
    r, d = params.r, params.d
    fade = 4.0 * params.eta * d
    if fade == 0.0:
        raise DegenerateParameterError("long-run bounds are undefined when d = 0 or 4 eta d = 0")
    W_max = (r + 4.0 * d) * M / (4.0 * d)
    A_max = (4.0 * params.gamma * d + params.sigma * (r + 4.0 * d) * M) / fade
    return RegionBounds(M, W_max, A_max)
