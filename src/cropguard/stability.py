"""Linear stability analysis and a numeric Hopf-bifurcation scan.

Characteristic polynomials of the 4x4 Jacobian come from the
Faddeev-LeVerrier trace recursion and give the Routh-Hurwitz sign
conditions; the verdict comes from the eigenvalues of the Jacobian itself
(``numpy.linalg.eigvals``), for all of a parameter set's equilibria in one
stacked pass, of which ``classify`` is the one-row case.  The basic
reproduction-style threshold R0 = alpha K / R separates stability of the
pest-free state.

The Hopf scan samples the attack rate alpha and computes the coexistence
point and the Routh-Hurwitz combination Psi = C1 C2 C3 - C3^2 - C4 C1^2
at every sample in one batch: one coexistence solve over all rates, one
stack of Jacobians and one stacked Faddeev-LeVerrier recursion.  It closes
each sign change by regula falsi steps with a bisection safeguard, down to
Psi's own rounding bound, and confirms it with positivity side conditions
plus a finite-difference transversality slope of the leading real part.
Each step is the same batched evaluation (``_star_chars``) at one rate, and
both transversality probes are one evaluation at two rates.  Solves and
Jacobians take the parameter values with alpha set to the rate.
"""

from __future__ import annotations

import enum
import logging
import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .equilibria import Equilibrium, _coexistence_at
from .errors import DegenerateParameterError, DomainError
from .model import ModelParams, _jacobians, check_count

logger = logging.getLogger(__name__)

# Real parts within this band of zero count as marginal rather than a
# definite sign; separates genuine Hopf loci from floating-point noise.
EIG_TOL = 1e-9

# A Psi sign change counts as a crossing only when |Psi| at its
# end is this small relative to the bracket ends.
_PSI_REL_TOL = 1e-6
_TRANSVERSALITY_EPS = 1e-4
_TRANSVERSALITY_MIN_SLOPE = 1e-8
_EYE = np.eye(4)


class Verdict(enum.Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    MARGINAL = "Marginal"


class CharPoly4(NamedTuple):
    """Coefficients of the monic quartic rho^4 + C1 rho^3 + C2 rho^2 + C3 rho + C4."""

    c1: float
    c2: float
    c3: float
    c4: float

    def __call__(self, rho: complex) -> complex:
        return (((rho + self.c1) * rho + self.c2) * rho + self.c3) * rho + self.c4


@dataclass(frozen=True)
class StabilityReport:
    """Verdict for one equilibrium with its supporting numbers.

    ``rh_margins`` holds the five displayed stability conditions
    (C2, C3, C4, C1C2-C3, (C1C2-C3)C3 - C1^2 C4); C1 itself is its own
    margin and is available from ``char``.  ``rh_stable`` is the
    conjunction of all six signs.
    """

    equilibrium: Equilibrium
    verdict: Verdict
    max_real_part: float
    pure_imaginary: bool
    rh_stable: bool
    rh_margins: tuple[float, float, float, float, float]
    char: CharPoly4
    eigenvalues: tuple[complex, complex, complex, complex]


@dataclass(frozen=True)
class HopfCandidate:
    """A confirmed sign change of Psi(alpha) with its certificates."""

    alpha_star: float
    psi_values: tuple[float, float]
    transversality_slope: float
    side_conditions: tuple[float, float, float, float]


def _char_coeffs(J: np.ndarray) -> list[np.ndarray]:
    """[C1, C2, C3, C4] of each matrix of a (..., 4, 4) stack, each (...,).

    The Faddeev-LeVerrier recursion: M1 = J, Ck = -tr(Mk)/k (the float
    tr(Mk)/(-k)) and M(k+1) = J (Mk + Ck I).  Each trace is summed left to
    right, as np.trace sums one matrix's.
    """
    M, coeffs = J, []
    for k in (1, 2, 3, 4):
        if coeffs:
            M = J @ (M + coeffs[-1][..., None, None] * _EYE)
        coeffs.append(np.add.accumulate(M.diagonal(0, -2, -1), axis=-1)[..., -1] / -k)
    return coeffs


def _char_rows(J: np.ndarray) -> list[CharPoly4]:
    """The ``CharPoly4`` of each matrix of a (..., 4, 4) stack.  Where the recursion's matrix
    products overflow, coefficients read inf or nan; numpy's warnings for that are silenced."""
    with np.errstate(over="ignore", invalid="ignore"):
        return [CharPoly4(*row) for row in np.transpose(_char_coeffs(J)).reshape(-1, 4).tolist()]


def char_poly(J: Sequence[Sequence[float]]) -> CharPoly4:
    """Characteristic polynomial of a 4x4 matrix (Faddeev-LeVerrier).

    Coefficients are for det(rho I - J) written as a monic quartic.
    """
    A = np.asarray(J, dtype=float)
    if A.shape != (4, 4):
        raise DomainError(f"need a 4x4 matrix, got shape {A.shape}")
    if not np.isfinite(A).all():
        raise DomainError("matrix entries must be finite")
    return _char_rows(A)[0]


def routh_hurwitz(cp: CharPoly4) -> tuple[bool, tuple[float, float, float, float, float]]:
    """Routh-Hurwitz verdict and the five displayed margins.

    The margins are (C2, C3, C4, C1C2-C3, (C1C2-C3)C3 - C1^2 C4); the
    stability flag additionally requires C1 > 0, which is tested rather
    than assumed.
    """
    c1, c2, c3, c4 = cp
    h1 = c1 * c2 - c3
    h2 = h1 * c3 - c1 * c1 * c4
    margins = (c2, c3, c4, h1, h2)
    is_stable = c1 > 0.0 and all(m > 0.0 for m in margins)
    return is_stable, margins


def psi(cp: CharPoly4) -> float:
    """Hopf locator Psi = C1 C2 C3 - C3^2 - C4 C1^2 (zero at a crossing).

    This is the last Routh-Hurwitz margin, (C1 C2 - C3) C3 - C1^2 C4.
    """
    return routh_hurwitz(cp)[1][4]


def r0(params: ModelParams) -> float:
    """Pest-invasion threshold alpha K / R.

    R is the smaller of (c+K)(lam gamma + d(a eta + gamma))/(m1 (a eta
    + gamma)) and (c+K)(d+delta)/(m2 phi); the pest-free state is
    stable when the ratio is below one.  The second bound drops out when
    m2 phi = 0.  A first denominator m1 (a eta + gamma) that underflows
    to 0, or R = 0, as at d = lam = 0, raises DegenerateParameterError.
    """
    p = params
    pool = p.a * p.eta + p.gamma
    if p.m1 * pool == 0.0:
        raise DegenerateParameterError("threshold denominator m1 (a eta + gamma) is zero")
    R = (p.c + p.K) * (p.lam * p.gamma + p.d * pool) / (p.m1 * pool)
    if p.m2 * p.phi > 0.0:
        R = min(R, (p.c + p.K) * (p.d + p.delta) / (p.m2 * p.phi))
    if R == 0.0:
        raise DegenerateParameterError("threshold denominator R is zero")
    return p.alpha * p.K / R


def classify(params: ModelParams, eq: Equilibrium) -> StabilityReport:
    """Stability report for an equilibrium of the uncontrolled system.

    Eigenvalues come from ``numpy.linalg.eigvals`` of the Jacobian, after
    a non-finite one has been rejected.  This is the one-row case of
    ``_reports``.  A ``Nonexistent`` raises DomainError.
    """
    return _reports(params, [eq])[0]


def _reports(params: ModelParams, eqs: Sequence[Equilibrium]) -> list[StabilityReport]:
    """``classify`` of each of ``eqs`` at ``params``: one (n, 4, 4) Jacobian stack
    (``_jacobians``), one ``_char_rows`` and one ``eigvals`` call, then each report.

    At attack rates near the coexistence quartic's overflow (alpha ~ 1e100 and up), the
    C1-C4 and H1/H2 margins read inf or nan (see ``_char_rows``).  The verdicts still come
    from ``eigvals`` of the finite Jacobians.  A ``Nonexistent`` in ``eqs`` raises."""
    if absent := [eq.kind.value for eq in eqs if not isinstance(eq, Equilibrium)]:
        raise DomainError(f"no {' or '.join(absent)} equilibrium exists to classify")
    J = _jacobians(vars(params), [eq.point for eq in eqs])
    if not np.isfinite(J).all():
        raise DomainError("matrix entries must be finite")
    eigs = np.linalg.eigvals(J).reshape(-1, 4).astype(complex).tolist()
    reports = []
    for eq, cp, roots in zip(eqs, _char_rows(J), eigs):
        rh_stable, margins = routh_hurwitz(cp)
        max_re = max(z.real for z in roots)
        pure_imag = any(abs(z.real) <= EIG_TOL and abs(z.imag) > EIG_TOL for z in roots)
        verdict = (Verdict.STABLE if max_re < -EIG_TOL else
                   Verdict.MARGINAL if abs(max_re) <= EIG_TOL else Verdict.UNSTABLE)
        reports.append(StabilityReport(
            eq, verdict, max_re, pure_imag, rh_stable, margins, cp, tuple(roots)))
    return reports


def _star_chars(
    params: ModelParams, alphas, near: float | None = None
) -> tuple[list[Equilibrium | None], np.ndarray]:
    """Coexistence point at each attack rate of ``alphas``, a float or a 1-D
    array, in one batch, with its Jacobian.

    Each rate takes the point whose awareness level is nearest ``near``
    (continuity along the scan), ``near`` then becoming that point's level;
    while ``near`` is None a rate takes its highest-awareness point.
    Returns the points (None where there is none) and their Jacobians as
    one (m, 4, 4) stack, m the number of points.  A rate whose reduction
    overflows has no point.
    """
    try:
        with np.errstate(over="ignore", invalid="ignore"):  # an overflowing rate's row is None
            rows = _coexistence_at(params, alphas)
    except DomainError:
        rows = [None] * np.size(alphas)
    stars: list[Equilibrium | None] = []
    for points in rows:
        star = None
        if points:
            star = points[-1] if near is None else min(points, key=lambda s: abs(s.point.A - near))
            near = star.point.A
        stars.append(star)
    found = [star is not None for star in stars]
    values = {**vars(params), "alpha": np.atleast_1d(alphas)[found]}
    return stars, _jacobians(values, [star.point for star in stars if star is not None])


_Sample = tuple[float, float, float, CharPoly4]  # (alpha, Psi, A, char-poly)


def _scan_samples(params: ModelParams, alphas, near: float | None = None) -> list[_Sample | None]:
    """The ``_Sample`` of the coexistence point at each attack rate of
    ``alphas``, a float or a 1-D array (see ``_star_chars``), or None where
    there is none."""
    stars, jacobians = _star_chars(params, alphas, near)
    chars = iter(_char_rows(jacobians))
    return [None if star is None else (alpha, psi(cp := next(chars)), star.point.A, cp)
            for alpha, star in zip(np.atleast_1d(alphas).tolist(), stars)]


def params_with_alpha(params: ModelParams, alpha: float) -> ModelParams:
    return replace(params, alpha=alpha)


def _regula_falsi(params: ModelParams, x0: float, f0: float, x1: float, f1: float,
                 near: float) -> _Sample | None:
    """Last (alpha, Psi, A, char-poly) of Anderson-Bjorck regula falsi on Psi over
    x0 < x1 (f0, f1 of opposite sign), or None: an end kept twice running (x1 counts
    as the last step) has its Psi scaled by 1 - fm/f (or 1/2 if not positive), f the
    Psi replaced; bisect when two steps have not halved it.  Each step is one
    ``_scan_samples`` at its rate.  It stops once |Psi| is within the rounding bound
    of its own evaluation, 2 eps (|C1 C2 C3| + C3^2 + |C4| C1^2), below which its
    sign is noise, or, on a jump that never gets there, at the width floor."""
    best, kept_lo, before_last, last = None, True, math.inf, math.inf
    while x1 - x0 >= 1e-15 * max(1.0, x1):
        xm = x1 - f1 * (x1 - x0) / (f1 - f0)
        if x1 - x0 > 0.5 * before_last or not x0 < xm < x1:
            xm = 0.5 * (x0 + x1)
        before_last, last = last, x1 - x0
        (sample,) = _scan_samples(params, xm, near)
        if sample is None:
            break
        best, fm, (c1, c2, c3, c4) = sample, sample[1], sample[3]
        if abs(fm) <= 2.0 * math.ulp(1.0) * (abs(c1 * c2 * c3) + c3 * c3 + abs(c4) * c1 * c1):
            break
        if (f0 < 0.0) != (fm < 0.0):
            m = 1.0 - fm / f1
            if kept_lo:
                f0 *= m if m > 0.0 else 0.5
            x1, f1 = xm, fm
        else:
            m = 1.0 - fm / f0
            if not kept_lo:
                f1 *= m if m > 0.0 else 0.5
            x0, f0 = xm, fm
        kept_lo = x1 == xm
    return best


def hopf_scan(
    params: ModelParams,
    alpha_range: tuple[float, float],
    n_samples: int = 81,
) -> list[HopfCandidate]:
    """Locate Hopf crossings of the coexistence point over an alpha range.

    Samples Psi(alpha) on a uniform grid in one batch (``_scan_samples``),
    skips (and logs) samples where no coexistence point exists, and closes
    each sign change between two samples with _regula_falsi, which stops
    once |Psi| is within its rounding bound; a sample with Psi exactly zero
    between neighbours of opposite sign is itself the crossing.  A crossing
    becomes a candidate when |Psi| there is below 1e-6 of the larger
    bracket-end |Psi| (a jump between coexistence branches is not a
    crossing), its side conditions (C2, C3, C4, C1C2-C3) are positive, and
    its central-difference transversality slope of the leading complex pair
    exceeds 1e-8 in magnitude.  Every point and Jacobian comes from
    ``_star_chars``: at the default 81 samples, one batch, 7 regula falsi
    steps and one two-rate batch for both transversality probes, the upper
    probe's point nearest the lower one's.  Returns an empty list (with a
    logged diagnostic) when the coexistence point exists nowhere in the range.
    """
    lo, hi = alpha_range
    if not (math.isfinite(lo) and math.isfinite(hi)) or not 0.0 < lo < hi:
        raise DomainError(f"alpha range must satisfy 0 < lo < hi, got {alpha_range}")
    n_samples = check_count(n_samples, "n_samples", least=2)

    samples = _scan_samples(params, np.linspace(lo, hi, n_samples))
    valid = [s for s in samples if s is not None]
    if not valid:
        logger.warning(
            "hopf_scan: no coexistence equilibrium anywhere in alpha range [%g, %g]",
            lo, hi,
        )
        return []
    n_skipped = len(samples) - len(valid)
    if n_skipped:
        logger.info("hopf_scan: %d of %d samples had no coexistence point", n_skipped, len(samples))

    out: list[HopfCandidate] = []
    padded = [None, *samples, None]
    for before, here, after in zip(padded, padded[1:], padded[2:]):
        on_sample = here is not None and here[1] == 0.0
        left, right = (before, after) if on_sample else (here, after)
        if left is None or right is None:
            continue
        ends = (left[1], right[1])
        if not min(ends) < 0.0 < max(ends):
            continue
        best = here if on_sample else _regula_falsi(params, *left[:2], *right[:2], left[2])
        if best is None:
            continue
        x_star, f_star, a_star, char = best
        if abs(f_star) >= _PSI_REL_TOL * max(abs(ends[0]), abs(ends[1])):
            continue
        side = routh_hurwitz(char)[1][:4]
        if not all(v > 0.0 for v in side):
            continue
        stars, J = _star_chars(params, x_star + np.array([-1.0, 1.0]) * _TRANSVERSALITY_EPS, a_star)
        pairs = [z.real[np.abs(z.imag) > EIG_TOL] for z in np.linalg.eigvals(J)]
        if None in stars or not all(pair.size for pair in pairs):
            continue
        re_lo, re_hi = (float(pair.max()) for pair in pairs)
        slope = (re_hi - re_lo) / (2.0 * _TRANSVERSALITY_EPS)
        if abs(slope) <= _TRANSVERSALITY_MIN_SLOPE:
            continue
        out.append(HopfCandidate(x_star, ends, slope, side))
    return out
