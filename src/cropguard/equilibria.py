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
from typing import Sequence, Union

import numpy as np

from .errors import DegenerateParameterError, DomainError
from .model import (
    POSITIVITY_TOL,
    ModelParams,
    State,
    attracting_region,
    rhs_uncontrolled,
)


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


def _make(kind: EquilibriumKind, params: ModelParams, point: Sequence[float]) -> Equilibrium:
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
    residual = max(abs(v) for v in rhs_uncontrolled(params, s))
    return Equilibrium(kind, s, residual)


def axial(params: ModelParams) -> Equilibrium:
    """Bare-ground steady state (0, 0, 0, gamma/eta)."""
    return _make(EquilibriumKind.AXIAL, params, (0.0, 0.0, 0.0, params.gamma / params.eta))


def pest_free(params: ModelParams) -> Equilibrium:
    """Pest-free steady state (K, 0, 0, gamma/eta)."""
    return _make(
        EquilibriumKind.PEST_FREE, params, (params.K, 0.0, 0.0, params.gamma / params.eta)
    )


def susceptible_free(params: ModelParams) -> Union[Equilibrium, Nonexistent]:
    """Steady state with only infected pests, or why it does not exist.

    Exists iff d + delta < m2 phi alpha K / (c + K); then
    X = c (d+delta) / (m2 phi alpha - (d+delta)),
    I = r (c+X)(K-X) / (phi alpha K) and A = (gamma + sigma I) / eta.
    """
    p = params
    consumption = p.m2 * p.phi * p.alpha
    death = p.d + p.delta
    if abs(consumption - death) <= 1e-14:
        raise DegenerateParameterError(
            "m2*phi*alpha is within 1e-14 of d+delta; the susceptible-free "
            "crop level is undefined"
        )
    threshold = consumption * p.K / (p.c + p.K)
    if not death < threshold:
        return Nonexistent(
            EquilibriumKind.SUSCEPTIBLE_FREE,
            "requires d+delta < m2*phi*alpha*K/(c+K): "
            f"{death:.6g} >= {threshold:.6g}",
        )
    X = p.c * death / (consumption - death)
    I = p.r * (p.c + X) * (p.K - X) / (p.phi * p.alpha * p.K)
    A = (p.gamma + p.sigma * I) / p.eta
    return _make(EquilibriumKind.SUSCEPTIBLE_FREE, params, (X, 0.0, I, A))


def _reduction(params: ModelParams):
    """Coefficients (highest first) of the coexistence quartic and its pieces.

    The susceptible-pest balance pins crop uptake,
    X/(c+X) = N(A)/(m1 alpha (a+A)) with N(A) = lam A + d (a+A), so
    X*(A) = c N / den with den(A) = m1 alpha (a+A) - N.  The awareness
    balance gives S + I = (eta A - gamma)/sigma and the crop balance
    S + phi I = r (K-X)(c+X)/(alpha K), so den^2 S* and den^2 I* are
    polynomials, and the infected-pest balance h(A) times (a+A) den^2 is
    the quartic P(A).  Returns P, N, den, den^2 S* and den^2 I* as float
    lists; np.convolve keeps a zero slope of den (alpha m1 = lam + d).
    """
    p = params
    if p.sigma == 0.0 or p.alpha == 0.0:
        raise DegenerateParameterError(
            "the coexistence reduction needs sigma > 0 and alpha > 0"
        )
    r, K, alpha, phi, c, a = p.r, p.K, p.alpha, p.phi, p.c, p.a
    lam, d, delta, m1, m2 = p.lam, p.d, p.delta, p.m1, p.m2
    a_plus = np.array([1.0, a])
    N = np.array([lam + d, d * a])
    den = m1 * alpha * a_plus - N
    total = np.convolve([p.eta / p.sigma, -p.gamma / p.sigma], np.convolve(den, den))
    crop = np.convolve(r * c * m1 * a_plus, K * den - c * N) / K
    I_den2 = np.polysub(total, crop) / (1.0 - phi)
    S_den2 = total - I_den2
    P = np.polyadd(
        np.convolve(m2 * phi / m1 * N - (d + delta) * a_plus, I_den2),
        np.convolve([lam, 0.0], S_den2),
    )
    return P.tolist(), N.tolist(), den.tolist(), S_den2.tolist(), I_den2.tolist()


def _horner(coeffs: list[float], x: float) -> float:  # np.polyval's order, so its floats
    y = 0.0
    for c in coeffs:
        y = y * x + c
    return y


def coexistence(params: ModelParams) -> list[Equilibrium]:
    """All admissible coexistence equilibria, sorted by awareness level.

    The awareness levels are the real roots of the quartic P(A) (see
    _reduction), taken with numpy.roots, polished by one Newton step on P
    and kept in (0, A_max], with A_max the containment bound started at
    the carrying capacity, which bounds every steady state (X* <= K).
    Only roots with a positive X* denominator and all components >= 0
    qualify.  Returns an empty list when no admissible root exists.
    """
    P, N, den, S_den2, I_den2 = _reduction(params)
    a_cap = attracting_region(params, params.K).A_max
    dP = [c * (4 - i) for i, c in enumerate(P[:4])]  # np.polyder's products
    roots: list[float] = []
    for z in np.roots(P):
        if abs(z.imag) > 1e-9 * max(1.0, abs(z)):
            continue
        A = float(z.real)
        slope = _horner(dP, A)
        if slope != 0.0:
            A -= _horner(P, A) / slope
        if 0.0 < A <= a_cap:
            roots.append(A)

    out: list[Equilibrium] = []
    last_a = None
    for A in sorted(roots):
        if last_a is not None and abs(A - last_a) <= 1e-9 * max(1.0, abs(A)):
            continue
        last_a = A
        dn = _horner(den, A)
        if dn <= 0.0:
            continue
        dn2 = dn * dn
        X = params.c * _horner(N, A) / dn
        S = _horner(S_den2, A) / dn2
        I = _horner(I_den2, A) / dn2
        if min(X, S, I) < -POSITIVITY_TOL:
            continue
        out.append(_make(EquilibriumKind.COEXISTENCE, params, (X, S, I, A)))
    return out


def all_equilibria(params: ModelParams) -> list[Union[Equilibrium, Nonexistent]]:
    """Every equilibrium family at these parameters, in canonical order.

    Nonexistent families appear as Nonexistent entries; coexistence
    contributes zero or more points.
    """
    found: list[Union[Equilibrium, Nonexistent]] = [axial(params), pest_free(params)]
    found.append(susceptible_free(params))
    stars = coexistence(params)
    if stars:
        found.extend(stars)
    else:
        found.append(
            Nonexistent(EquilibriumKind.COEXISTENCE, "no admissible root of the reduced residual")
        )
    return found
