"""Characteristic polynomial, Routh-Hurwitz margins, verdicts, Hopf scan."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.optimize import brentq, linear_sum_assignment
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import admissible_params, make_random_params
from polymul_reduction import reference_coexistence
from cropguard.equilibria import (
    EquilibriumKind, Nonexistent, _coexistence_at, all_equilibria, axial, coexistence, pest_free)
from cropguard.errors import DegenerateParameterError, DomainError, NonFiniteError
from cropguard import model, stability
from cropguard.model import ModelParams, jacobian
from cropguard.stability import (
    EIG_TOL,
    CharPoly4,
    StabilityReport,
    Verdict,
    char_poly,
    classify,
    hopf_scan,
    params_with_alpha,
    psi,
    r0,
    routh_hurwitz,
)
from test_equilibria import _fold_draw


class TestCharPoly:
    def test_matches_numpy_on_random_matrices(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            J = rng.uniform(-2.0, 2.0, size=(4, 4))
            got = char_poly(J)
            ref = np.poly(J)  # leading 1, then c1..c4
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.allclose(got, ref[1:], atol=1e-10 * scale)

    def test_equals_the_trace_transcription(self):
        # the recursion on one matrix with np.trace and Python floats in
        # between; the stacked recursion must give its floats
        def transcription(J):
            eye, M, coeffs = np.eye(4), J, []
            for k in (1, 2, 3, 4):
                if coeffs:
                    M = J @ (M + coeffs[-1] * eye)
                coeffs.append(-float(np.trace(M)) / k)
            return coeffs

        rng = np.random.default_rng(61)
        for _ in range(500):
            J = rng.standard_normal((4, 4)) * 10.0 ** rng.uniform(-6, 6, (4, 4))
            assert list(char_poly(J)) == transcription(J)

    def test_known_diagonal_matrix(self):
        # eigenvalues 1, 2, 3, 4
        cp = char_poly(np.diag([1.0, 2.0, 3.0, 4.0]))
        assert cp == pytest.approx((-10.0, 35.0, -50.0, 24.0), abs=1e-12)

    def test_evaluation_is_horner_of_the_monic_polynomial(self):
        cp = CharPoly4(1.0, -2.0, 0.5, 3.0)
        for z in (0.0, 1.0, -2.5, complex(0.3, 1.7)):
            expected = z**4 + 1.0 * z**3 - 2.0 * z**2 + 0.5 * z + 3.0
            assert cp(z) == pytest.approx(expected, rel=1e-12)

    def test_rejects_wrong_shapes_and_nonfinite(self):
        from cropguard.errors import DomainError

        with pytest.raises(DomainError):
            char_poly(np.zeros((3, 3)))
        with pytest.raises(DomainError):
            char_poly(np.full((4, 4), np.nan))


class TestRouthHurwitz:
    def test_margin_arithmetic(self):
        cp = CharPoly4(2.0, 3.0, 1.0, 0.5)
        stable, (m2, m3, m4, h1, h2) = routh_hurwitz(cp)
        assert (m2, m3, m4) == (3.0, 1.0, 0.5)
        assert h1 == pytest.approx(2.0 * 3.0 - 1.0)
        assert h2 == pytest.approx((2.0 * 3.0 - 1.0) * 1.0 - 4.0 * 0.5)
        assert stable

    def test_all_roots_in_left_half_plane_is_stable(self):
        # roots -1, -2, -3, -4
        cp = char_poly(np.diag([-1.0, -2.0, -3.0, -4.0]))
        stable, margins = routh_hurwitz(cp)
        assert stable and all(m > 0.0 for m in margins)

    def test_one_right_root_breaks_a_margin(self):
        cp = char_poly(np.diag([-1.0, -2.0, -3.0, 4.0]))
        stable, margins = routh_hurwitz(cp)
        assert not stable
        assert min(margins) < 0.0

    def test_pure_imaginary_pair_zeroes_the_composite_margin(self):
        # roots +-i, -1, -2: (x^2+1)(x^2+3x+2)
        cp = CharPoly4(3.0, 3.0, 3.0, 2.0)
        stable, margins = routh_hurwitz(cp)
        assert not stable
        assert margins[4] == pytest.approx(0.0, abs=1e-12)

    def test_psi_equals_the_composite_margin(self):
        rng = np.random.default_rng(67)
        for _ in range(200):
            cp = CharPoly4(*rng.uniform(-3.0, 3.0, size=4).tolist())
            _, margins = routh_hurwitz(cp)
            c1, c2, c3, c4 = cp
            direct = c1 * c2 * c3 - c3 * c3 - c4 * c1 * c1
            assert psi(cp) == pytest.approx(direct, rel=1e-12, abs=1e-12)
            assert psi(cp) == margins[4]


class TestInvasionNumber:
    def test_threshold_values_on_the_default_scenario(self, baseline):
        assert r0(baseline) == pytest.approx(7.0 / 12.0, abs=1e-12)
        assert r0(params_with_alpha(baseline, 0.06)) == pytest.approx(1.4, abs=1e-12)

    def test_scales_linearly_with_consumption(self, baseline):
        base = r0(baseline)
        assert r0(params_with_alpha(baseline, 0.05)) == pytest.approx(2.0 * base)

    def test_unit_value_separates_pest_free_stability(self):
        rng = np.random.default_rng(71)
        checked = 0
        for _ in range(300):
            p = make_random_params(rng)
            value = r0(p)
            # near the unit value the leading eigenvalue sits inside the
            # marginal band, so only clear cases are classified here
            if abs(value - 1.0) < 1e-3:
                continue
            checked += 1
            verdict = classify(p, pest_free(p)).verdict
            if value < 1.0:
                assert verdict is Verdict.STABLE, (value, p)
            else:
                assert verdict is Verdict.UNSTABLE, (value, p)
        assert checked > 250

    def test_without_infected_consumption_only_the_first_bound_counts(self):
        # phi = 0: (c+K)(d+delta)/(m2 phi) drops out, and the unit value
        # still separates the pest-free verdicts
        rng = np.random.default_rng(72)
        stable = unstable = 0
        for _ in range(200):
            p = replace(make_random_params(rng), phi=0.0)
            value = r0(p)
            if abs(value - 1.0) < 1e-3:
                continue
            verdict = classify(p, pest_free(p)).verdict
            if value < 1.0:
                assert verdict is Verdict.STABLE, (value, p)
                stable += 1
            else:
                assert verdict is Verdict.UNSTABLE, (value, p)
                unstable += 1
        assert stable > 20 and unstable > 20

    def test_zero_threshold_denominator_raises(self):
        # d = lam = 0 makes the first bound, and so R, zero
        with pytest.raises(DegenerateParameterError):
            r0(ModelParams(d=0.0, lam=0.0))
        # the first bound's denominator m1 (a eta + gamma) underflows to 0
        with pytest.raises(DegenerateParameterError, match=r"m1 \(a eta \+ gamma\) is zero"):
            r0(ModelParams(m1=1e-200, m2=1e-201, a=1e-200, gamma=1e-200))


def _closed_form_eigs(p, kind):
    """Eigenvalues of the axial or pest-free Jacobian from its triangular
    factorization: the oracle for ``classify``'s."""
    fade = p.lam * p.gamma / (p.a * p.eta + p.gamma) + p.d
    if kind is EquilibriumKind.AXIAL:
        return (p.r, -fade, -(p.d + p.delta), -p.eta)
    uptake = p.alpha * p.K / (p.c + p.K)
    return (-p.r, p.m1 * uptake - fade, p.m2 * p.phi * uptake - (p.d + p.delta), -p.eta)


class TestClassify:
    def test_axial_is_always_unstable_with_eigenvalue_r(self):
        rng = np.random.default_rng(73)
        for _ in range(100):
            p = make_random_params(rng)
            rep = classify(p, axial(p))
            assert rep.verdict is Verdict.UNSTABLE
            assert abs(rep.max_real_part - p.r) < 1e-9

    def test_report_fields_are_mutually_consistent(self):
        rng = np.random.default_rng(79)
        for _ in range(60):
            p = make_random_params(rng)
            for eq in (axial(p), pest_free(p)):
                rep = classify(p, eq)
                assert rep.equilibrium is eq
                assert len(rep.eigenvalues) == 4
                max_re = max(z.real for z in rep.eigenvalues)
                assert rep.max_real_part == pytest.approx(max_re, abs=1e-12)
                if rep.max_real_part > EIG_TOL:
                    assert rep.verdict is Verdict.UNSTABLE
                elif rep.max_real_part < -EIG_TOL:
                    assert rep.verdict is Verdict.STABLE
                else:
                    assert rep.verdict is Verdict.MARGINAL
                if rep.verdict is Verdict.STABLE:
                    assert rep.rh_stable
                    assert all(m > 0.0 for m in rep.rh_margins)

    def test_interior_point_verdict_and_leading_eigenvalue(self, baseline):
        p = params_with_alpha(baseline, 0.06)
        rep = classify(p, coexistence(p)[0])
        assert rep.verdict is Verdict.STABLE
        assert rep.max_real_part == pytest.approx(-0.00783949986832, rel=1e-6)
        assert not rep.pure_imaginary
        assert rep.rh_stable

    def test_a_verdict_at_the_hopf_point_is_marginal(self, baseline):
        # 1e-13 below the crossing the leading pair's real part is -3.1e-17
        p = params_with_alpha(baseline, 0.8307020425373)
        (rep,) = [classify(p, eq) for eq in coexistence(p)]
        assert rep.verdict is Verdict.MARGINAL
        assert abs(rep.max_real_part) < 1e-16

    @pytest.mark.parametrize("r, delta, d", [(0.3, 0.07, 0.015625), (0.375, 0.09375, 0.001)])
    def test_a_double_eigenvalue_passes_the_cross_check(self, r, delta, d):
        # alpha = 0, gamma = 0 and eta = d give the pest-free point the
        # eigenvalue -d twice
        p = ModelParams(r=r, alpha=0.0, phi=0.5, a=1.0, lam=0.5, d=d, delta=delta,
                        m1=1.0, m2=0.5, gamma=0.0, sigma=0.125, eta=d)
        rep = classify(p, pest_free(p))
        assert rep.verdict is Verdict.STABLE
        assert rep.max_real_part == pytest.approx(-d, rel=1e-6)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(admissible_params())
    @example(ModelParams(r=0.3, alpha=0.0, phi=0.5, a=1.0, lam=0.5, d=0.015625, delta=0.07,
                         m1=1.0, m2=0.5, gamma=0.0, sigma=0.125, eta=0.015625))
    @example(ModelParams(r=0.375, alpha=0.0, phi=0.5, a=1.0, lam=0.5, d=0.001, delta=0.09375,
                         m1=1.0, m2=0.5, gamma=0.0, sigma=0.125, eta=0.001))
    def test_axial_and_pest_free_eigenvalues_match_their_closed_forms(self, p):
        # the examples make -d a double eigenvalue of the pest-free point
        for eq in (axial(p), pest_free(p)):
            roots = classify(p, eq).eigenvalues
            for ev in _closed_form_eigs(p, eq.kind):
                nearest = min(abs(z - ev) for z in roots)
                assert nearest <= 1e-6 * max(1.0, abs(ev)), (eq.kind, ev, roots)

    def test_eigenvalues_are_the_roots_of_the_characteristic_polynomial(self):
        # an independent route to each report's eigenvalues: numpy.roots of
        # its char-poly, matched one to one
        rng = np.random.default_rng(37)
        n_reports, worst = 0, 0.0
        for _ in range(200):
            p = make_random_params(rng)
            for eq in all_equilibria(p):
                if isinstance(eq, Nonexistent):
                    continue
                rep = classify(p, eq)
                assert all(type(z) is complex for z in rep.eigenvalues)
                ref = np.roots([1.0, *rep.char])
                cost = np.abs(np.subtract.outer(rep.eigenvalues, ref))
                rows, cols = linear_sum_assignment(cost)
                worst = max(worst, cost[rows, cols].max() / np.abs(ref).max())
                n_reports += 1
        assert n_reports > 400
        assert worst <= 1e-9

    def test_a_nonexistent_point_raises_a_domain_error(self):
        # at alpha = 0 neither pest-carrying point exists
        p = ModelParams(alpha=0.0)
        found = all_equilibria(p)
        absent = [eq for eq in found if isinstance(eq, Nonexistent)]
        assert len(absent) == 2
        for eq in absent:
            with pytest.raises(DomainError, match=f"no {eq.kind.value} equilibrium"):
                classify(p, eq)
        with pytest.raises(DomainError, match="no SusceptibleFree or Coexistence equilibrium"):
            stability._reports(p, found)

    def test_char_poly_agrees_with_the_jacobian(self, baseline):
        eq = pest_free(baseline)
        rep = classify(baseline, eq)
        direct = char_poly(jacobian(baseline, eq.point))
        assert rep.char == pytest.approx(tuple(direct), rel=1e-12)


def _report_one_by_one(params, eq):
    """The per-matrix recipe: ``jacobian``, ``char_poly``, ``routh_hurwitz``
    and ``eigvals`` of one Jacobian, the verdict set by EIG_TOL."""
    J = jacobian(params, eq.point)
    cp = char_poly(J)
    rh_stable, margins = routh_hurwitz(cp)
    roots = np.linalg.eigvals(J).astype(complex).tolist()
    max_re = max(z.real for z in roots)
    if max_re < -EIG_TOL:
        verdict = Verdict.STABLE
    elif abs(max_re) <= EIG_TOL:
        verdict = Verdict.MARGINAL
    else:
        verdict = Verdict.UNSTABLE
    pure_imag = any(abs(z.real) <= EIG_TOL and abs(z.imag) > EIG_TOL for z in roots)
    return StabilityReport(eq, verdict, max_re, pure_imag, rh_stable, margins, cp, tuple(roots))


# the unshifted alpha grid of the benchmark's analysis workload
ANALYSIS_ALPHAS = [0.02 + i * (1.2 - 0.02) / 11 for i in range(12)]


class TestStackedReports:
    """The reports of one stacked pass over a parameter set's equilibria,
    and ``classify`` of each, are == to the per-matrix recipe's."""

    @staticmethod
    def check(p):
        eqs = [eq for eq in all_equilibria(p) if not isinstance(eq, Nonexistent)]
        want = [_report_one_by_one(p, eq) for eq in eqs]
        assert stability._reports(p, eqs) == want
        assert [classify(p, eq) for eq in eqs] == want
        return eqs

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(admissible_params())
    def test_random_parameters(self, p):
        self.check(p)

    @pytest.mark.parametrize("alpha", ANALYSIS_ALPHAS)
    def test_the_analysis_grid(self, baseline, alpha):
        self.check(params_with_alpha(baseline, alpha))

    def test_without_consumption_and_at_the_susceptible_free_threshold(self, baseline):
        edge = (baseline.d + baseline.delta) / (baseline.m2 * baseline.phi)
        assert edge == 0.6111111111111112
        assert len(self.check(params_with_alpha(baseline, 0.0))) == 2
        assert len(self.check(params_with_alpha(baseline, edge))) == 3

    def test_a_non_finite_jacobian_raises_before_eigvals(self, baseline, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: pytest.fail("eigvals called"))
        eq = pest_free(baseline)
        bad = replace(eq, point=eq.point._replace(S=float("inf")))
        with pytest.raises(DomainError, match="matrix entries must be finite"):
            stability._reports(baseline, [eq, bad])


def _jacobian_by_floats(values, point):
    """One 4x4 Jacobian filled entry by entry from Python floats: the
    reference for each row of a ``_jacobians`` stack."""
    J = np.zeros((4, 4))
    for (i, j), value in model._jacobian_entries(values, *point, 1.0):
        J[i, j] = value
    return J


def _char_of_one(J):
    """C1..C4 of one 4x4 matrix as floats, the reference for ``_char_rows``."""
    return CharPoly4(*map(float, stability._char_coeffs(J)))


class TestOneJacobianBuilder:
    """Each row of a ``_jacobians`` stack is bit for bit the one-matrix
    float fill, and ``_char_rows`` of the stack is == the one-matrix
    recursion of each."""

    @staticmethod
    def check(J, values, points):
        # ``values`` has alpha a float or an array, one rate per point
        alphas = np.broadcast_to(values["alpha"], len(points)).tolist()
        want = [_jacobian_by_floats({**values, "alpha": alpha}, point)
                for alpha, point in zip(alphas, points)]
        assert J.flags.c_contiguous and J.shape == (len(points), 4, 4)
        assert [Jk.tobytes() for Jk in J] == [Jw.tobytes() for Jw in want]
        assert stability._char_rows(J) == [_char_of_one(Jw) for Jw in want]

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(admissible_params())
    def test_random_parameters_at_their_equilibria(self, p):
        points = [eq.point for eq in all_equilibria(p) if not isinstance(eq, Nonexistent)]
        self.check(model._jacobians(vars(p), points), vars(p), points)
        assert [jacobian(p, point).tobytes() for point in points] == [
            _jacobian_by_floats(vars(p), point).tobytes() for point in points]

    def test_the_default_scan_grid(self, baseline):
        alphas = np.linspace(0.3, 1.2, 81)
        stars, jacobians = stability._star_chars(baseline, alphas)
        assert None not in stars
        self.check(jacobians, {**vars(baseline), "alpha": alphas}, [star.point for star in stars])

    def test_a_state_whose_products_overflow_is_filled_silently(self, baseline):
        # (c + X)^2 overflows, so d(crop)/dX reads 0, as it does in float arithmetic
        point = (1e200, 0.1, 0.1, 0.1)
        want = _jacobian_by_floats(vars(baseline), point)
        assert want[0, 0] == -2e199
        assert jacobian(baseline, point).tobytes() == want.tobytes()


class TestOverflowingReduction:
    """From alpha ~ 1e155 at the defaults the coexistence reduction's
    coefficients overflow: one rate raises a typed error naming it, and a
    batch loses only the samples of the rates that overflow."""

    def test_one_rate_raises_a_non_finite_error(self, baseline):
        with pytest.raises(NonFiniteError, match=r"overflows at alpha = 1e\+160"):
            coexistence(params_with_alpha(baseline, 1e160))
        assert len(coexistence(params_with_alpha(baseline, 1e154))) == 1

    def test_only_the_overflowing_rates_lose_their_samples(self, baseline):
        alphas = np.array([0.5, 0.9, 1e200, 1e300])
        got = stability._scan_samples(baseline, alphas)
        assert got[:2] == stability._scan_samples(baseline, alphas[:2])
        assert got[2:] == [None, None]
        stars, jacobians = stability._star_chars(baseline, 1e200)
        assert stars == [None] and jacobians.shape == (0, 4, 4)

    def test_a_scan_over_overflowing_rates_finds_nothing(self, baseline):
        assert hopf_scan(baseline, (1e299, 1e300), 3) == []

    def test_a_scan_whose_companion_matrices_overflow_finds_nothing(self):
        # r = sigma = 1e160 make P's leading coefficient tiny against the others
        assert hopf_scan(ModelParams(r=1e160, sigma=1e160), (0.3, 1.2), 5) == []


class TestOverflowingRecursion:
    """Below the reduction's overflow the char-poly recursion can overflow
    (C4 ~ J^4 does past entries of ~1e77): its coefficients read inf or nan,
    and no RuntimeWarning (an error in this suite) escapes."""

    def test_char_poly_of_a_huge_matrix(self):
        cp = char_poly(np.full((4, 4), 1e200))
        assert np.isfinite(cp.c1)
        assert not np.isfinite(cp[1:]).any()

    def test_a_scan_where_the_recursion_overflows_finds_nothing(self, baseline):
        # coexistence points exist at these rates; their Psi is not finite
        assert all(stability._star_chars(baseline, np.array([1e120, 1e150]))[0])
        assert hopf_scan(baseline, (1e120, 1e150), 5) == []


def _pair_real(params, alpha):
    """Real part of the complex eigenvalue pair at the highest-awareness
    coexistence point: points from the polymul transcription, eigenvalues
    from numpy.linalg."""
    p = params_with_alpha(params, alpha)
    eigs = np.linalg.eigvals(jacobian(p, reference_coexistence(p)[-1].point))
    return max(z.real for z in eigs if abs(z.imag) > EIG_TOL)


def _leading_complex_real_part(params, alpha, near):
    """One transversality probe on its own: ``_star_chars`` at the single
    rate alpha from ``near``, then the largest real part of a complex
    eigenvalue of its Jacobian, or None."""
    (star,), J = stability._star_chars(params, alpha, near)
    if star is None:
        return None
    eigs = np.linalg.eigvals(J[0])
    pairs = eigs.real[np.abs(eigs.imag) > EIG_TOL]
    return float(pairs.max()) if pairs.size else None


class TestHopfScan:
    def test_crossing_found_at_strong_consumption(self, baseline):
        candidates = hopf_scan(baseline, (0.3, 2.0), n_samples=120)
        assert len(candidates) == 1
        cand = candidates[0]
        assert cand.alpha_star == pytest.approx(0.8357, abs=5e-3)
        assert cand.transversality_slope > 0.0
        assert all(v > 0.0 for v in cand.side_conditions)
        lo, hi = cand.psi_values
        assert lo * hi <= 0.0

    def test_crossing_matches_an_eigenvalue_reference(self, baseline):
        # the reference roots _pair_real by brentq (the bracket-scan
        # oracle's bisection to |h| < 1e-12 would leave its crossing ~5e-12
        # off)
        ref = brentq(lambda alpha: _pair_real(baseline, alpha), 0.8, 0.9, xtol=1e-14, rtol=1e-14)
        candidates = hopf_scan(baseline, (0.3, 1.2), n_samples=81)
        assert len(candidates) == 1
        assert candidates[0].alpha_star == pytest.approx(ref, rel=1e-12)

    def test_the_transversality_slope_is_a_python_float(self, baseline):
        (cand,) = hopf_scan(baseline, (0.3, 1.2), n_samples=81)
        assert type(cand.transversality_slope) is float

    def test_regula_falsi_cuts_the_solves_and_keeps_the_crossing(self, baseline, monkeypatch):
        ref = brentq(lambda alpha: _pair_real(baseline, alpha), 0.8, 0.9, xtol=1e-15, rtol=1e-15)
        single, batches = [], []
        star_chars = stability._star_chars

        def spy(params, alphas, near=None):
            (single if np.ndim(alphas) == 0 else batches).append(alphas)
            return star_chars(params, alphas, near)

        monkeypatch.setattr(stability, "_star_chars", spy)
        (cand,) = hopf_scan(baseline, (0.3, 1.2), n_samples=81)
        # the 81 samples are one batch, only the 7 regula falsi steps, which
        # stop at Psi's rounding bound, take a point one attack rate at a
        # time, and both transversality probes are one two-rate batch
        assert len(single) == 7
        assert [len(alphas) for alphas in batches] == [81, 2]
        assert cand.alpha_star == pytest.approx(ref, rel=1e-12)

    def test_both_probes_keep_the_slope_of_two_single_rate_probes(self, monkeypatch):
        # random crossings over a wide range: the probe pair is one two-rate
        # call at alpha* -+ eps, and its slope is == to the one of two
        # single-rate probes that both start from the pair's ``near``
        eps = stability._TRANSVERSALITY_EPS
        rng = np.random.default_rng(1)
        checked = 0
        while checked < 50:
            p, pairs = make_random_params(rng), {}
            star_chars = stability._star_chars

            def spy(params, alphas, near=None):
                if np.size(alphas) == 2:
                    pairs[tuple(alphas.tolist())] = near
                return star_chars(params, alphas, near)

            monkeypatch.setattr(stability, "_star_chars", spy)
            candidates = hopf_scan(p, (0.01, 5.0), n_samples=81)
            monkeypatch.undo()
            for cand in candidates:
                a = cand.alpha_star
                near = pairs[a - eps, a + eps]
                lo = _leading_complex_real_part(p, a - eps, near)
                hi = _leading_complex_real_part(p, a + eps, near)
                assert cand.transversality_slope == (hi - lo) / (2.0 * eps)
                checked += 1

    def test_perturbed_crossings_match_an_eigenvalue_reference(self, baseline):
        # stopping regula falsi at Psi's rounding bound keeps alpha* on the
        # reference: 30 crossings of the defaults perturbed by up to 30%
        # (m1 > m2 kept), each against brentq on _pair_real
        rng = np.random.default_rng(5)
        names = [name for name in vars(baseline) if name != "alpha"]
        checked = 0
        while checked < 30:
            values = {name: getattr(baseline, name) * rng.uniform(0.7, 1.3) for name in names}
            if values["m1"] <= values["m2"]:
                continue
            p = replace(baseline, **values)
            for cand in hopf_scan(p, (0.3, 1.2), n_samples=81):
                a = cand.alpha_star
                ref = brentq(lambda alpha: _pair_real(p, alpha), a * (1.0 - 1e-6),
                             a * (1.0 + 1e-6), xtol=1e-15, rtol=1e-15)
                assert a == pytest.approx(ref, rel=1e-12), values
                checked += 1

    def test_the_default_scan_builds_no_model_params(self, baseline, monkeypatch):
        built = []
        post_init = ModelParams.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(ModelParams, "__post_init__", counted)
        (cand,) = hopf_scan(baseline, (0.3, 1.2), 81)
        assert cand.alpha_star == pytest.approx(0.830702042537439, abs=1e-12)
        assert built == []

    def test_no_crossing_in_the_weak_consumption_window(self, baseline):
        # the interior point only exists above alpha ~ 0.043 and stays
        # firmly damped through this window; verified by direct
        # eigenvalue evaluation, not an artifact of the scan density
        assert hopf_scan(baseline, (0.03, 0.12), n_samples=40) == []

    def test_scan_without_any_interior_point_warns_and_returns_empty(
        self, baseline, caplog
    ):
        with caplog.at_level("WARNING"):
            out = hopf_scan(baseline, (0.02, 0.04), n_samples=5)
        assert out == []
        assert any("no coexistence" in r.getMessage() for r in caplog.records)

    def test_scan_without_a_coexistence_reduction_warns_and_returns_empty(
        self, baseline, caplog
    ):
        # sigma = 0 leaves every sample without a coexistence point
        with caplog.at_level("WARNING"):
            assert hopf_scan(replace(baseline, sigma=0.0), (0.3, 1.2), n_samples=5) == []
        assert any("no coexistence" in r.getMessage() for r in caplog.records)

    def test_an_alpha_range_from_zero_is_rejected(self, baseline):
        with pytest.raises(DomainError, match="alpha range must satisfy 0 < lo < hi"):
            hopf_scan(baseline, (0.0, 1.0))

    def test_verdict_flips_across_the_crossing(self, baseline):
        for alpha, expected in ((0.8, Verdict.STABLE), (0.9, Verdict.UNSTABLE)):
            p = params_with_alpha(baseline, alpha)
            reps = [classify(p, eq) for eq in coexistence(p)]
            assert any(rep.verdict is expected for rep in reps), alpha


ALPHA_STAR = 0.52  # between the samples 0.5 and 0.6 of the synthetic scans


def _samples_one_by_one(params, alphas, near=None):
    """The scan's samples one attack rate at a time, from the public
    functions: ``coexistence`` at the rate, its point nearest ``near`` (the
    highest-awareness one while ``near`` is None), whose awareness level
    becomes ``near``, then ``jacobian``, ``char_poly`` and ``psi``."""
    out = []
    for alpha in np.atleast_1d(alphas).tolist():
        p = params_with_alpha(params, alpha)
        try:
            points = coexistence(p)
        except DomainError:  # a reduction that overflows or needs sigma > 0
            points = []
        if not points:
            out.append(None)
            continue
        star = points[-1] if near is None else min(points, key=lambda s: abs(s.point.A - near))
        near = star.point.A
        cp = char_poly(jacobian(p, star.point))
        out.append((alpha, psi(cp), near, cp))
    return out


@st.composite
def _alpha_grids(draw, fold: ModelParams):
    """(params, alphas, one): admissible parameters over a random grid of
    attack rates and a single rate, or the fold draw ``fold`` over a
    random sub-grid of its three-point window (0.4598, 0.4859), upward or
    downward, and a single rate in that window."""
    if draw(st.booleans()):
        lo, width = draw(st.floats(0.005, 1.5)), draw(st.floats(1e-3, 1.0))
        alphas = np.linspace(lo, lo + width, draw(st.integers(2, 30)))
        return draw(admissible_params()), alphas, draw(st.floats(0.005, 2.5))
    window = st.floats(0.4598, 0.4859)
    lo, hi = sorted((draw(window), draw(window)))
    alphas = np.linspace(lo, hi, draw(st.integers(2, 30)))[::draw(st.sampled_from([1, -1]))]
    return fold, alphas, draw(window)


class TestBatchedSamples:
    """The batched samples (alpha, Psi, A, C1..C4) are == to the per-alpha
    ones, and None exactly where those are."""

    def test_the_default_scan(self, baseline):
        alphas = np.linspace(0.3, 1.2, 81)
        got = stability._scan_samples(baseline, alphas)
        assert got == _samples_one_by_one(baseline, alphas)
        assert None not in got

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_alpha_grids(_fold_draw()), st.none() | st.floats(0.0, 5.0))
    def test_random_parameters_over_alpha_grids(self, grid, near):
        # from a drawn start ``near``, over a grid and at a single float rate
        p, alphas, one = grid
        assert stability._scan_samples(p, alphas, near) == _samples_one_by_one(p, alphas, near)
        assert stability._scan_samples(p, one, near) == _samples_one_by_one(p, one, near)

    @pytest.mark.parametrize("step", [1, -1])
    def test_the_fold_window_where_near_picks_among_three_points(self, step):
        # upward the scan enters the window on the upper branch, downward
        # on the lower one, which is not the highest-awareness point
        p = _fold_draw()
        alphas = np.linspace(0.4598, 0.4859, 40)[::step]
        assert max(len(points) for points in _coexistence_at(p, alphas)) == 3
        got = stability._scan_samples(p, alphas)
        assert got == _samples_one_by_one(p, alphas)
        assert None not in got

    def test_a_grid_through_a_constant_denominator(self):
        # at alpha = (lam + d)/m1 = 0.5 the quartic's leading coefficient is
        # 0, so that row's roots come from numpy.roots, not the batch
        p = ModelParams(lam=0.375, d=0.025)
        alphas = np.sort(np.append(np.linspace(0.3, 0.7, 20), 0.5))
        assert 0.5 * p.m1 == p.lam + p.d
        got = stability._scan_samples(p, alphas)
        assert got == _samples_one_by_one(p, alphas)
        assert got[alphas.tolist().index(0.5)] is not None


class TestHopfScanRejections:
    """Each check that turns a sign change of Psi away, driven by a stand-in
    for the coexistence point: at each alpha its Jacobian is block diagonal
    with the eigenvalues ``pair(alpha)`` and ``others``.  By Orlando's
    formula Psi is a multiple of the product of all pairwise root sums, so
    it changes sign where the two roots of ``pair`` sum through zero."""

    @staticmethod
    def scan(monkeypatch, pair, others=(-1.0, -2.0), exists=lambda alpha: True):
        def star_chars(params, alphas, near=None):
            # a float rate or an array of them, as the samples, the regula
            # falsi steps and the transversality probes pass them
            stars, jacobians = [], []
            for alpha in np.atleast_1d(alphas).tolist():
                if not exists(alpha):
                    stars.append(None)
                    continue
                z1, z2 = pair(alpha)
                if np.imag(z1):  # a rotation block for a complex pair
                    re, im = np.real(z1), np.imag(z1)
                    block = [[re, im], [-im, re]]
                else:
                    block = np.diag([z1, z2])
                stars.append(SimpleNamespace(point=SimpleNamespace(A=alpha)))
                jacobians.append(block_diag(block, np.diag(others)))
            return stars, np.array(jacobians).reshape(-1, 4, 4)

        monkeypatch.setattr(stability, "_star_chars", star_chars)
        return hopf_scan(ModelParams(), (0.3, 0.7), n_samples=5)

    @staticmethod
    def crossing_pair(alpha):
        """A conjugate pair whose real part crosses zero at ALPHA_STAR."""
        return complex(alpha - ALPHA_STAR, 1.0), complex(alpha - ALPHA_STAR, -1.0)

    def test_the_stand_in_crossing_is_found(self, monkeypatch):
        # the control for the rejections below: each changes one thing
        (cand,) = self.scan(monkeypatch, self.crossing_pair)
        assert cand.alpha_star == pytest.approx(ALPHA_STAR, abs=1e-12)
        assert cand.transversality_slope == pytest.approx(1.0, rel=1e-6)

    def test_a_bisection_that_loses_the_point_is_rejected(self, monkeypatch):
        exists = lambda alpha: not 0.5 < alpha < 0.6  # noqa: E731
        assert self.scan(monkeypatch, self.crossing_pair, exists=exists) == []

    def test_a_point_missing_beside_the_crossing_is_rejected(self, monkeypatch):
        # no point at the transversality offset alpha* + 1e-4
        exists = lambda alpha: abs(alpha - ALPHA_STAR - 1e-4) > 1e-9  # noqa: E731
        assert self.scan(monkeypatch, self.crossing_pair, exists=exists) == []

    def test_a_jump_between_branches_is_rejected(self, monkeypatch):
        # Psi changes sign at ALPHA_STAR without passing near zero
        def pair(alpha):
            re = -0.1 if alpha < ALPHA_STAR else 0.1
            return complex(re, 1.0), complex(re, -1.0)

        assert self.scan(monkeypatch, pair) == []

    def test_the_safeguard_bounds_the_steps_on_a_jump(self, monkeypatch):
        # regula falsi crawls on a jump; the bisection steps hold it to
        # twice the 52 stand-in calls that bisection alone took
        calls = []

        def pair(alpha):
            re = -0.1 if alpha < ALPHA_STAR else 0.1
            return complex(re, 1.0), complex(re, -1.0)

        def exists(alpha):
            calls.append(alpha)
            return True

        assert self.scan(monkeypatch, pair, exists=exists) == []
        assert len(calls) <= 104

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_a_crossing_on_a_sample_is_reported_once(self, monkeypatch, sign):
        # the real part is zero at the sample alpha = 0.6, so Psi is too
        def pair(alpha):
            re = sign * (alpha - 0.6)
            return complex(re, 1.0), complex(re, -1.0)

        (cand,) = self.scan(monkeypatch, pair)
        assert cand.alpha_star == 0.6
        lo, hi = cand.psi_values
        assert lo * hi < 0.0
        assert cand.transversality_slope == pytest.approx(sign, rel=1e-6)

    def test_a_crossing_with_a_failed_side_condition_is_rejected(self, monkeypatch):
        # a positive real root makes C4 negative
        assert self.scan(monkeypatch, self.crossing_pair, others=(1.0, -2.0)) == []

    def test_a_crossing_without_a_complex_pair_beside_it_is_rejected(self, monkeypatch):
        # the pair is complex only within 5e-5 of ALPHA_STAR, real at the
        # transversality offsets of 1e-4
        def pair(alpha):
            mu = alpha - ALPHA_STAR
            s = np.emath.sqrt(mu * mu - 5e-5 ** 2)
            return mu + s, mu - s

        assert self.scan(monkeypatch, pair) == []

    def test_a_crossing_with_a_flat_real_part_is_rejected(self, monkeypatch):
        # real part 0.1 (alpha - ALPHA_STAR)^3: slope 1e-9 over the offsets
        def pair(alpha):
            re = 0.1 * (alpha - ALPHA_STAR) ** 3
            return complex(re, 1.0), complex(re, -1.0)

        assert self.scan(monkeypatch, pair) == []


class TestParamsWithAlpha:
    def test_returns_modified_copy(self, baseline):
        p2 = params_with_alpha(baseline, 0.5)
        assert p2.alpha == 0.5
        assert baseline.alpha == 0.025
        assert p2.K == baseline.K

    def test_validation_still_applies(self, baseline):
        from cropguard.errors import DomainError

        with pytest.raises(DomainError):
            params_with_alpha(baseline, -1.0)
