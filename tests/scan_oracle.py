"""Bracket-scan oracle for the coexistence points.

This is the root finder cropguard used before it solved the coexistence
quartic directly, kept unchanged (``coexistence`` renamed
``scan_coexistence``) as an independent reference: it scans the
infected-pest residual h(A) over 4096 uniform brackets, splits the bracket
that holds the X* pole, and bisects every sign change to |h| < 1e-12.  It
finds simple roots only (no sign change, no root) and costs about 8k
Python evaluations of h per call.
"""

from __future__ import annotations

import math
from typing import Callable

from cropguard.equilibria import Equilibrium, EquilibriumKind, _make
from cropguard.errors import DegenerateParameterError, DomainError
from cropguard.model import POSITIVITY_TOL, ModelParams, attracting_region, model_field

# Bisection targets for the coexistence residual h(A).
_ROOT_RESIDUAL_TOL = 1e-12
_N_BRACKETS = 4096


def _coexistence_closed_forms(params: ModelParams):
    """Return den(A), X*(A), S*(A), I*(A) and the scalar residual h(A).

    h(A) is the infected-pest balance evaluated on the reduced curve;
    its admissible roots are the coexistence awareness levels.
    """
    p = params
    if p.sigma == 0.0 or p.alpha == 0.0:
        raise DegenerateParameterError(
            "the coexistence reduction needs sigma > 0 and alpha > 0"
        )
    r, K, alpha, phi, c, a = p.r, p.K, p.alpha, p.phi, p.c, p.a
    lam, d, delta, m1, m2 = p.lam, p.d, p.delta, p.m1, p.m2
    gamma, sigma, eta = p.gamma, p.sigma, p.eta
    scale = sigma * alpha * K * (phi - 1.0)  # negative since phi < 1

    def den(A: float) -> float:
        return (m1 * alpha - d) * (a + A) - lam * A

    def point_at(A: float) -> tuple[float, float, float]:
        X = c * (lam * A + d * (a + A)) / den(A)
        grow = r * (K - X) * (c + X)
        lift = K * (eta * A - gamma)
        S = (alpha * phi * lift - sigma * grow) / scale
        I = (sigma * grow - alpha * lift) / scale
        return X, S, I

    def h(A: float) -> float:
        X, S, I = point_at(A)
        return (
            m2 * phi * alpha * X * I / (c + X)
            + lam * A * S / (a + A)
            - (d + delta) * I
        )

    return den, point_at, h


def _bisect(f: Callable[[float], float], x0: float, x1: float, f0: float, f1: float) -> float:
    """Bisection of a bracketed sign change down to |f| < 1e-12."""
    for _ in range(200):
        xm = 0.5 * (x0 + x1)
        fm = f(xm)
        if abs(fm) < _ROOT_RESIDUAL_TOL or (x1 - x0) < 1e-15 * max(1.0, abs(xm)):
            return xm
        if (f0 < 0.0) != (fm < 0.0):
            x1, f1 = xm, fm
        else:
            x0, f0 = xm, fm
    return 0.5 * (x0 + x1)


def scan_coexistence(
    params: ModelParams,
    search_bounds: tuple[float, float] | None = None,
) -> list[Equilibrium]:
    """All admissible coexistence equilibria, sorted by awareness level.

    The residual h(A) is scanned over 4096 uniform brackets (default
    interval (1e-8, A_max] with A_max the containment bound started at
    the carrying capacity); sign changes are refined by bisection to
    |h| < 1e-12.  Only roots with a positive X* denominator and all
    components >= 0 qualify.  Returns an empty list when no admissible
    root exists.
    """
    den, point_at, h = _coexistence_closed_forms(params)

    a_cap = attracting_region(params, params.K).A_max
    if search_bounds is None:
        lo, hi = 1e-8, a_cap
    else:
        lo, hi = search_bounds
        if not (math.isfinite(lo) and math.isfinite(hi)) or not 0.0 < lo < hi:
            raise DomainError(f"search bounds must satisfy 0 < lo < hi, got {search_bounds}")
        if hi > a_cap * (1.0 + 1e-9) + 1e-12:
            raise DomainError(
                f"search upper bound {hi:.6g} exceeds the containment bound {a_cap:.6g}"
            )
    if not hi > lo:
        return []

    # The X* denominator is linear in A, so it changes sign at most once;
    # brackets straddling that pole are subdivided and only the side where
    # X* can be positive is scanned.
    slope = (params.m1 * params.alpha - params.d) - params.lam
    pole = None
    if slope != 0.0:
        candidate = -(params.m1 * params.alpha - params.d) * params.a / slope
        if lo < candidate < hi:
            pole = candidate

    edges = [lo + (hi - lo) * k / _N_BRACKETS for k in range(_N_BRACKETS + 1)]
    roots: list[float] = []

    def scan(x0: float, x1: float) -> None:
        if not x1 > x0 or den(x0) <= 0.0 or den(x1) <= 0.0:
            return
        f0, f1 = h(x0), h(x1)
        if not (math.isfinite(f0) and math.isfinite(f1)):
            return
        if f0 == 0.0:
            roots.append(x0)
        elif (f0 < 0.0) != (f1 < 0.0):
            roots.append(_bisect(h, x0, x1, f0, f1))

    for x0, x1 in zip(edges, edges[1:]):
        if pole is not None and x0 < pole < x1:
            eps = 1e-12 * max(1.0, abs(pole))
            scan(x0, pole - eps)
            scan(pole + eps, x1)
        else:
            scan(x0, x1)

    out: list[Equilibrium] = []
    last_a = None
    for A in sorted(roots):
        if last_a is not None and abs(A - last_a) <= 1e-9 * max(1.0, abs(A)):
            continue
        last_a = A
        X, S, I = point_at(A)
        if min(X, S, I) < -POSITIVITY_TOL or den(A) <= 0.0:
            continue
        out.append(_make(EquilibriumKind.COEXISTENCE, model_field(params), (X, S, I, A)))
    return out
