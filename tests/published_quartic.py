"""The paper's printed quartic for the coexistence awareness level.

A record of the misprint: evaluated at true coexistence roots this
polynomial does not vanish, while P(A) = (a+A) den(A)^2 h(A), which
cropguard.equilibria solves, does.  Only the tests use it.
"""

from __future__ import annotations

from typing import Sequence

from cropguard.errors import DegenerateParameterError
from cropguard.model import ModelParams


def quartic_coefficients(params: ModelParams) -> tuple[float, float, float, float, float]:
    """The published quartic coefficients (D0..D4) for the awareness level.

    Transcribed verbatim: evaluating this quartic at the roots of the
    reduced residual h(A) generally does not give zero, which is why the
    solver derives its own quartic instead.  See quartic_residuals.
    """
    p = params
    pivot = p.phi * p.m2 - p.m1
    if abs(pivot) <= 1e-14:
        raise DegenerateParameterError("phi*m2 is within 1e-14 of m1; quartic undefined")
    if p.alpha == 0.0 or p.m1 == 0.0 or p.sigma == 0.0 or p.r == 0.0:
        raise DegenerateParameterError(
            "quartic coefficients need alpha, m1, sigma, r all nonzero"
        )
    r, K, alpha, phi, c, a = p.r, p.K, p.alpha, p.phi, p.c, p.a
    lam, d, delta, m1, m2 = p.lam, p.d, p.delta, p.m1, p.m2
    gamma, sigma, eta = p.gamma, p.sigma, p.eta

    d0 = m1 + (m1 * (d - delta) + lam * m1 * delta - phi * m2 * (d + lam)) / (alpha * pivot)
    d1 = (
        ((K - 2 * c) * m2 * phi * alpha + (3 * c - K) * delta) * (d + lam)
        + alpha * (2 * c - K) * (d + lam + delta)
    ) / (alpha**2 * m1 * pivot)
    d2 = (
        -m1 * lam * gamma
        - (
            (m1 * lam - m2 * phi * lam)
            * (alpha**2 * m1 * K * gamma + sigma * r * (alpha * K * m1 - d))
        )
        / (sigma * m1 * alpha * pivot)
        + (
            ((d + delta) * m1 - m2 * phi * d) * (sigma * r * lam + alpha**2 * m1 * K * eta)
        )
        / (sigma * m1 * alpha * pivot)
    )
    d3 = (
        ((d + delta) * m1 - m2 * phi * d)
        * (alpha**2 * m1 * K * gamma + sigma * r * (alpha * K * m1 - d))
    ) / (sigma * m1 * alpha * pivot)
    d4 = (
        a * c**2 * d**2 * (phi - 1.0)
        + a * c * eta**2 * d * delta * (phi - 1.0)
        + c**2 * d * sigma * r * delta * (d + lam)
    ) / (sigma * r * m1 * pivot)
    return (d0, d1, d2, d3, d4)


def quartic_residuals(params: ModelParams, a_values: Sequence[float]) -> list[float]:
    """Evaluate the published quartic at given awareness levels.

    Cross-checks the printed coefficients against roots of h(A); large
    values flag the discrepancy between the two.
    """
    d0, d1, d2, d3, d4 = quartic_coefficients(params)
    return [(((d0 * A + d1) * A + d2) * A + d3) * A + d4 for A in a_values]
