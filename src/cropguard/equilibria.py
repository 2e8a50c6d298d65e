"""Equilibrium families of the crop-pest-awareness system.

Four families exist: the axial point (bare ground), the pest-free point
(crop at carrying capacity), the susceptible-pest-free point (every
surviving pest is infected), and coexistence points with all four
components positive.

The first three have closed forms.  Coexistence points come from a
reduction to the awareness level A: the susceptible-pest balance pins
X*(A), the crop and awareness balances then give S*(A) and I*(A)
linearly, and the leftover infected-pest balance h(A), cleared of its
denominators, is a quartic P(A) whose real roots are the candidate
levels.  P is derived here from the balances; the coefficients printed
in the paper do not withstand a residual check, so they are not used.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import DegenerateParameterError, DomainError, NonFiniteError
from .model import (POSITIVITY_TOL, ModelParams, State, _bind_field, _require_finite,
                    attracting_region, model_field)

_SHIFT = np.eye(3, 4)  # the rows below the first of each companion matrix


class EquilibriumKind(enum.Enum):
    AXIAL = "Axial"
    PEST_FREE = "PestFree"
    SUSCEPTIBLE_FREE = "SusceptibleFree"
    COEXISTENCE = "Coexistence"


@dataclass(frozen=True)
class Equilibrium:
    """A steady state with its defect under the uncontrolled dynamics.

    ``residual_norm`` is the max-norm of the right-hand side at the
    point; every equilibrium this module returns keeps it below 1e-10.
    """

    kind: EquilibriumKind
    point: State
    residual_norm: float


@dataclass(frozen=True)
class Nonexistent:
    """Typed report that an equilibrium family has no admissible member."""

    kind: EquilibriumKind
    reason: str


def _make(kind: EquilibriumKind, field: Callable, point: Sequence[float]) -> Equilibrium:
    # Tiny negative components are floating-point dust from the closed
    # forms; anything larger means the caller's admissibility check failed.
    clean = []
    for v in point:
        if v < 0.0:
            if v < -POSITIVITY_TOL:
                raise DomainError(f"equilibrium has negative component: {tuple(point)}")
            v = 0.0
        clean.append(v)
    s = State(*clean)
    _require_finite(*s)
    residual = max(abs(v) for v in field(*s, 1.0, 1.0))
    return Equilibrium(kind, s, residual)


def axial(params: ModelParams) -> Equilibrium:
    """Bare-ground steady state (0, 0, 0, gamma/eta)."""
    return _make(EquilibriumKind.AXIAL, model_field(params),
                 (0.0, 0.0, 0.0, params.gamma / params.eta))


def pest_free(params: ModelParams) -> Equilibrium:
    """Pest-free steady state (K, 0, 0, gamma/eta)."""
    return _make(EquilibriumKind.PEST_FREE, model_field(params),
                 (params.K, 0.0, 0.0, params.gamma / params.eta))


def susceptible_free(params: ModelParams) -> Union[Equilibrium, Nonexistent]:
    """Steady state with only infected pests, or why it does not exist.

    Exists iff d + delta < m2 phi alpha K / (c + K), so never at alpha = 0;
    then X = c (d+delta) / (m2 phi alpha - (d+delta)), that divisor being
    above m2 phi alpha c / (c + K) > 0, I = r (c+X)(K-X) / (phi alpha K)
    and A = (gamma + sigma I) / eta.  An underflowing phi alpha K raises.
    """
    p = params
    consumption = p.m2 * p.phi * p.alpha
    death = p.d + p.delta
    threshold = consumption * p.K / (p.c + p.K)
    if not death < threshold:
        return Nonexistent(
            EquilibriumKind.SUSCEPTIBLE_FREE,
            "requires d+delta < m2*phi*alpha*K/(c+K): "
            f"{death:.6g} >= {threshold:.6g}",
        )
    X = p.c * death / (consumption - death)
    uptake = p.phi * p.alpha * p.K
    if uptake == 0.0:
        raise DegenerateParameterError("the susceptible-free point's phi alpha K underflows to 0")
    I = p.r * (p.c + X) * (p.K - X) / uptake
    A = (p.gamma + p.sigma * I) / p.eta
    return _make(EquilibriumKind.SUSCEPTIBLE_FREE, model_field(params), (X, 0.0, I, A))


def _times_linear(f, g) -> list:
    """Coefficients (highest first) of f g for f = (f1, f0) of degree one.

    Each is a sum of at most two products, as np.convolve forms them, of
    floats or of arrays alike.
    """
    f1, f0 = f
    return [f1 * g[0], *(f1 * g[k] + f0 * g[k - 1] for k in range(1, len(g))), f0 * g[-1]]


def _reduction(params: ModelParams, alpha):
    """Coefficients (highest first) of the coexistence quartic and its pieces.

    The susceptible-pest balance pins crop uptake,
    X/(c+X) = N(A)/(m1 alpha (a+A)) with N(A) = lam A + d (a+A), so
    X*(A) = c N / den with den(A) = m1 alpha (a+A) - N.  The awareness
    balance gives S + I = (eta A - gamma)/sigma and the crop balance
    S + phi I = r (K-X)(c+X)/(alpha K), so den^2 S* and den^2 I* are
    polynomials, and the infected-pest balance h(A) times (a+A) den^2 is
    the quartic P(A).  Returns P, N, den, den^2 S* and den^2 I* as lists
    of coefficients, at the attack rate ``alpha``: a float, or an array
    of rates, which makes every coefficient but N's an array over them.
    Every product has a factor of degree one (``_times_linear``), and a
    zero slope of den (alpha m1 = lam + d) stays in place.  Only sigma
    divides (the crop balance's 1/alpha cancels); at alpha = 0,
    den = -N < 0 for A > 0, so ``coexistence`` keeps no root.
    """
    p = params
    if p.sigma == 0.0:
        raise DegenerateParameterError("the coexistence reduction needs sigma > 0")
    r, K, phi, c, a = p.r, p.K, p.phi, p.c, p.a
    lam, d, delta, m1, m2 = p.lam, p.d, p.delta, p.m1, p.m2
    N = [lam + d, d * a]
    den = [m1 * alpha - N[0], m1 * alpha * a - N[1]]
    total = _times_linear((p.eta / p.sigma, -p.gamma / p.sigma), _times_linear(den, den))
    rcm1 = r * c * m1
    crop = _times_linear((rcm1, rcm1 * a), [K * den[0] - c * N[0], K * den[1] - c * N[1]])
    I_den2 = [(t - v / K) / (1.0 - phi) for t, v in zip(total, [0.0, *crop])]
    S_den2 = [t - v for t, v in zip(total, I_den2)]
    scale = m2 * phi / m1
    w = (scale * N[0] - (d + delta), scale * N[1] - (d + delta) * a)
    P = [u + v for u, v in zip(_times_linear(w, I_den2), _times_linear((lam, 0.0), S_den2))]
    return P, N, den, S_den2, I_den2


def _horner(coeffs: list[float], x: float) -> float:  # np.polyval's order, so its floats
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


def _roots(P: np.ndarray) -> list[np.ndarray | None]:
    """numpy.roots of each row of P, an (n, 5) array; None for a non-finite
    row or one whose companion matrix overflows.

    Rows with both end coefficients nonzero share one eigvals call over
    their finite companion matrices, built as numpy.roots builds them, so
    each keeps numpy.roots' floats; ``_np_roots`` takes the others, whose
    zero ends numpy.roots strips.
    """
    finite = np.isfinite(P).all(axis=1)
    full = finite & (P[:, 0] != 0.0) & (P[:, 4] != 0.0)
    companion = np.empty((np.count_nonzero(full), 4, 4))
    with np.errstate(over="ignore"):  # an overflowing companion is refused, not warned of
        companion[:, 0] = -P[full, 1:] / P[full, :1]
        companion[:, 1:] = _SHIFT
        fits = np.isfinite(companion[:, 0]).all(axis=1)
        eigs = iter(np.linalg.eigvals(companion[fits]))
        shared = iter([next(eigs) if fit else None for fit in fits.tolist()])
        return [next(shared) if f else _np_roots(row) if ok else None
                for f, ok, row in zip(full.tolist(), finite.tolist(), P)]


def _np_roots(row: np.ndarray) -> np.ndarray | None:
    """numpy.roots of ``row``, or None where its companion matrix overflows."""
    try:
        return np.roots(row)
    except np.linalg.LinAlgError:  # eigvals refuses a companion that is not finite
        return None


def _coexistence_at(params: ModelParams, alpha) -> list[list[Equilibrium] | None]:
    """``coexistence`` at each attack rate of ``alpha``, a float or a 1-D
    array, the other rates from ``params``: one list of points per rate
    (None where the reduction or its companion matrix overflows).

    The reduction runs once over all rates and the quartics' roots come
    from one ``_roots`` call; each rate's roots are then polished, filtered
    and back-substituted on their own, at ``vars(params)`` with the rate
    put in for alpha, so no ModelParams is built per rate.
    """
    P, N, den, S_den2, I_den2 = _reduction(params, alpha)
    a_cap = attracting_region(params, params.K).A_max
    table = np.array([*P, *den, *S_den2, *I_den2]).reshape(15, -1).T
    values = vars(params)
    return [
        None if zs is None else _points(
            {**values, "alpha": rate}, (row[:5], N, row[5:7], row[7:11], row[11:]), zs, a_cap)
        for rate, row, zs in zip(np.atleast_1d(alpha).tolist(), table.tolist(), _roots(table[:, :5]))
    ]


def _points(values: dict, reduction, zs, a_cap: float) -> list[Equilibrium]:
    """The coexistence points, residuals from the field bound to ``values``, from
    the roots ``zs`` of P, ``reduction`` being its ``_reduction`` as float lists."""
    P, N, den, S_den2, I_den2 = reduction
    dP = [c * (4 - i) for i, c in enumerate(P[:4])]  # np.polyder's products
    roots: list[float] = []
    for z in zs:
        if abs(z.imag) > 1e-9 * max(1.0, abs(z)):
            continue
        A = float(z.real)
        slope = _horner(dP, A)
        if slope != 0.0:
            A -= _horner(P, A) / slope
        if 0.0 < A <= a_cap:
            roots.append(A)

    out: list[Equilibrium] = []
    last_a, field = None, _bind_field(values)
    for A in sorted(roots):
        if last_a is not None and abs(A - last_a) <= 1e-9 * max(1.0, abs(A)):
            continue
        last_a = A
        dn = _horner(den, A)
        dn2 = dn * dn
        if dn <= 0.0 or dn2 == 0.0:  # S* and I* divide by dn2
            continue
        X = values["c"] * _horner(N, A) / dn
        S = _horner(S_den2, A) / dn2
        I = _horner(I_den2, A) / dn2
        if min(X, S, I) < -POSITIVITY_TOL:
            continue
        out.append(_make(EquilibriumKind.COEXISTENCE, field, (X, S, I, A)))
    return out


def coexistence(params: ModelParams) -> list[Equilibrium]:
    """All admissible coexistence equilibria, sorted by awareness level.

    The awareness levels are the real roots of the quartic P(A) (see
    _reduction), taken as numpy.roots takes them (see _roots), polished by
    one Newton step on P and kept in (0, A_max], with A_max the containment
    bound started at the carrying capacity, which bounds every steady state
    (X* <= K).  Only roots with a positive X* denominator whose square does
    not underflow, and all components >= 0, qualify; with none, it returns [].
    This is the one-rate case of ``_coexistence_at``; a reduction (from alpha
    ~ 1e155 at the defaults) or companion that overflows raises NonFiniteError.
    """
    (points,) = _coexistence_at(params, params.alpha)
    if points is None:
        raise NonFiniteError(f"the coexistence reduction overflows at alpha = {params.alpha!r}")
    return points


def all_equilibria(params: ModelParams) -> list[Union[Equilibrium, Nonexistent]]:
    """Every equilibrium family at these parameters, in canonical order.

    Nonexistent families appear as Nonexistent entries; coexistence
    contributes zero or more points.
    """
    found: list[Union[Equilibrium, Nonexistent]] = [
        axial(params), pest_free(params), susceptible_free(params)]
    no_root = Nonexistent(EquilibriumKind.COEXISTENCE, "no admissible root of the reduced residual")
    return found + (coexistence(params) or [no_root])
