"""The coexistence solve as it stood with numpy's polynomial helpers.

A reference transcription: the reduction multiplies with ``np.polymul``
and the solve evaluates with ``np.polyval`` and ``np.polyder``, where
cropguard.equilibria now uses ``np.convolve`` and its own Horner rule.
Both must return the same floats.  ``np.polymul`` strips leading zeros,
so this reference raises ValueError when alpha m1 == lam + d exactly (den
is then constant); only the tests use it.
"""

from __future__ import annotations

import numpy as np

from cropguard.equilibria import Equilibrium, EquilibriumKind, _make
from cropguard.errors import DegenerateParameterError
from cropguard.model import POSITIVITY_TOL, ModelParams, attracting_region


def reduction(params: ModelParams):
    """P, N, den, den^2 S* and den^2 I* as numpy arrays (highest first)."""
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
    total = np.polymul([p.eta / p.sigma, -p.gamma / p.sigma], np.polymul(den, den))
    crop = np.polymul(r * c * m1 * a_plus, K * den - c * N) / K
    I_den2 = np.polysub(total, crop) / (1.0 - phi)
    S_den2 = total - I_den2
    P = np.polyadd(
        np.polymul(m2 * phi / m1 * N - (d + delta) * a_plus, I_den2),
        np.polymul([lam, 0.0], S_den2),
    )
    return P, N, den, S_den2, I_den2


def reference_coexistence(params: ModelParams) -> list[Equilibrium]:
    """Admissible coexistence points, by the rules of equilibria.coexistence."""
    P, N, den, S_den2, I_den2 = reduction(params)
    a_cap = attracting_region(params, params.K).A_max
    dP = np.polyder(P)
    roots: list[float] = []
    for z in np.roots(P):
        if abs(z.imag) > 1e-9 * max(1.0, abs(z)):
            continue
        A = float(z.real)
        slope = float(np.polyval(dP, A))
        if slope != 0.0:
            A -= float(np.polyval(P, A)) / slope
        if 0.0 < A <= a_cap:
            roots.append(A)

    out: list[Equilibrium] = []
    last_a = None
    for A in sorted(roots):
        if last_a is not None and abs(A - last_a) <= 1e-9 * max(1.0, abs(A)):
            continue
        last_a = A
        dn = float(np.polyval(den, A))
        if dn <= 0.0:
            continue
        dn2 = dn * dn
        X = params.c * float(np.polyval(N, A)) / dn
        S = float(np.polyval(S_den2, A)) / dn2
        I = float(np.polyval(I_den2, A)) / dn2
        if min(X, S, I) < -POSITIVITY_TOL:
            continue
        out.append(_make(EquilibriumKind.COEXISTENCE, params, (X, S, I, A)))
    return out
