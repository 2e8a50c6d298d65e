"""Closed-form roots of monic real cubics and quartics.

The quartic is depressed, split into two quadratics through the largest
real root of its resolvent cubic (Ferrari's method), and each root is
then polished by a few complex Newton steps on the original polynomial.
This keeps 4x4 eigenvalue work free of any general eigensolver while
staying accurate to near machine precision for simple roots.
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError

_TINY = 1e-300


def _quadratic_roots(b: float, c: float) -> tuple[complex, complex]:
    """Roots of y^2 + b y + c with the usual cancellation-safe split."""
    disc = b * b - 4.0 * c
    if disc >= 0.0:
        s = math.sqrt(disc)
        q = -0.5 * (b + math.copysign(s, b))
        if abs(q) > _TINY:
            return (complex(q), complex(c / q))
        return (complex(-0.5 * b + 0.5 * s), complex(-0.5 * b - 0.5 * s))
    s = math.sqrt(-disc)
    return (complex(-0.5 * b, 0.5 * s), complex(-0.5 * b, -0.5 * s))


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def cubic_real_roots(b: float, c: float, d: float) -> list[float]:
    """All real roots of x^3 + b x^2 + c x + d (Cardano / trigonometric)."""
    if not all(map(math.isfinite, (b, c, d))):
        raise DomainError("cubic coefficients must be finite")
    # depress with x = y - b/3
    p = c - b * b / 3.0
    q = 2.0 * b**3 / 27.0 - b * c / 3.0 + d
    shift = b / 3.0
    disc = 0.25 * q * q + p**3 / 27.0
    if disc > 0.0:
        s = math.sqrt(disc)
        u = _cbrt(-0.5 * q + s)
        v = _cbrt(-0.5 * q - s)
        ys = [u + v]
    elif p == 0.0 and q == 0.0:
        ys = [0.0]
    elif disc == 0.0:
        u = _cbrt(-0.5 * q)
        ys = [2.0 * u, -u]
    else:
        # three distinct real roots
        m = 2.0 * math.sqrt(-p / 3.0)
        arg = 3.0 * q / (p * m)
        arg = max(-1.0, min(1.0, arg))
        theta = math.acos(arg) / 3.0
        ys = [m * math.cos(theta - 2.0 * math.pi * k / 3.0) for k in range(3)]
    roots = [y - shift for y in ys]
    # one Newton step per root tightens the depressed-form rounding
    for i, x in enumerate(roots):
        f = ((x + b) * x + c) * x + d
        fp = (3.0 * x + 2.0 * b) * x + c
        if fp != 0.0 and math.isfinite(f) and math.isfinite(fp):
            step = f / fp
            if math.isfinite(step):
                roots[i] = x - step
    return roots


def _polish(root: complex, b: float, c: float, d: float, e: float) -> complex:
    """Newton iterations on the monic quartic in complex arithmetic; a last
    step that raises a passing residual by more than the tolerance is
    undone, as f' nearly vanishes beside a multiple root and f/f' jumps."""
    tol = 1e-15 * (1.0 + max(abs(b), abs(c), abs(d), abs(e)))
    z = root
    for _ in range(12):
        f = (((z + b) * z + c) * z + d) * z + e
        fp = ((4.0 * z + 3.0 * b) * z + 2.0 * c) * z + d
        if abs(fp) <= _TINY:
            break
        step = f / fp
        z_new = z - step
        if not (cmath.isfinite(z_new)):
            break
        if abs(f) <= tol:
            f_new = (((z_new + b) * z_new + c) * z_new + d) * z_new + e
            return z if abs(f_new) - abs(f) > tol else z_new
        z = z_new
        if abs(step) <= 1e-16 * max(1.0, abs(z)):
            break
    return z


def quartic_roots(b: float, c: float, d: float, e: float) -> list[complex]:
    """All four roots of x^4 + b x^3 + c x^2 + d x + e.

    Ferrari resolvent factorization with Newton polish.  Real
    coefficients are assumed; conjugate symmetry of the output holds to
    rounding but is not enforced.
    """
    if not all(map(math.isfinite, (b, c, d, e))):
        raise DomainError("quartic coefficients must be finite")
    # scale x = kappa * y so the working coefficients are O(1); the
    # resolvent route loses digits when magnitudes spread widely
    kappa = max(abs(b), abs(c) ** 0.5, abs(d) ** (1.0 / 3.0), abs(e) ** 0.25)
    if kappa == 0.0:
        return [0j, 0j, 0j, 0j]
    if not 0.25 <= kappa <= 4.0:
        return [kappa * z for z in quartic_roots(b / kappa, c / kappa**2, d / kappa**3, e / kappa**4)]
    # depress with x = y - b/4: y^4 + p y^2 + q y + r
    b2 = b * b
    p = c - 3.0 * b2 / 8.0
    q = d - 0.5 * b * c + b2 * b / 8.0
    r = e - 0.25 * b * d + b2 * c / 16.0 - 3.0 * b2 * b2 / 256.0
    shift = 0.25 * b

    # largest real root of the resolvent z^3 + 2p z^2 + (p^2-4r) z - q^2:
    # positive for q != 0 unless rounding loses it, 0 for a negligible q
    z0 = 0.0
    if abs(q) > 1e-14 * (1.0 + max(abs(p), abs(r))):
        z0 = max(cubic_real_roots(2.0 * p, p * p - 4.0 * r, -q * q))
    if z0 <= 0.0:
        # biquadratic, y^2 solving u^2 + p u + r = 0: the polish absorbs q y
        u1, u2 = _quadratic_roots(p, r)
        ys = [cmath.sqrt(u1), -cmath.sqrt(u1), cmath.sqrt(u2), -cmath.sqrt(u2)]
    else:
        s = math.sqrt(z0)
        t = 0.5 * (p + z0 + q / s)
        v = 0.5 * (p + z0 - q / s)
        # (y^2 + s y + v)(y^2 - s y + t)
        ys = list(_quadratic_roots(s, v)) + list(_quadratic_roots(-s, t))
    return [_polish(y - shift, b, c, d, e) for y in ys]
