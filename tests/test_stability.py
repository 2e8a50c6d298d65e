"""Characteristic polynomial, Routh-Hurwitz margins, verdicts, Hopf scan."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import brentq

from conftest import make_random_params
from polymul_reduction import reference_coexistence
from cropguard.equilibria import axial, coexistence, pest_free
from cropguard.errors import DegenerateParameterError
from cropguard import stability
from cropguard.model import ModelParams, jacobian
from cropguard.stability import (
    EIG_TOL,
    CharPoly4,
    Verdict,
    char_poly,
    classify,
    hopf_scan,
    params_with_alpha,
    psi,
    r0,
    routh_hurwitz,
)
from scan_oracle import scan_coexistence


class TestCharPoly:
    def test_matches_numpy_on_random_matrices(self):
        rng = np.random.default_rng(61)
        for _ in range(300):
            J = rng.uniform(-2.0, 2.0, size=(4, 4))
            got = char_poly(J)
            ref = np.poly(J)  # leading 1, then c1..c4
            scale = max(1.0, float(np.max(np.abs(ref))))
            assert np.allclose(got, ref[1:], atol=1e-10 * scale)

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

    def test_char_poly_agrees_with_the_jacobian(self, baseline):
        eq = pest_free(baseline)
        rep = classify(baseline, eq)
        direct = char_poly(jacobian(baseline, eq.point))
        assert rep.char == pytest.approx(tuple(direct), rel=1e-12)


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
        # the reference roots the real part of the coexistence point's
        # complex eigenvalue pair: points from the bracket-scan oracle,
        # eigenvalues from numpy.linalg, the crossing from brentq
        def pair_real(alpha):
            p = params_with_alpha(baseline, alpha)
            eigs = np.linalg.eigvals(jacobian(p, scan_coexistence(p)[-1].point))
            return max(z.real for z in eigs if abs(z.imag) > EIG_TOL)

        ref = brentq(pair_real, 0.8, 0.9, xtol=1e-14, rtol=1e-14)
        candidates = hopf_scan(baseline, (0.3, 1.2), n_samples=81)
        assert len(candidates) == 1
        assert candidates[0].alpha_star == pytest.approx(ref, rel=1e-8)

    def test_regula_falsi_cuts_the_solves_and_keeps_the_crossing(self, baseline, monkeypatch):
        # the reference roots the complex pair's real part as above, but at
        # the polymul-transcription points: the scan oracle's own bisection
        # to |h| < 1e-12 leaves its crossing ~5e-12 off
        def pair_real(alpha):
            p = params_with_alpha(baseline, alpha)
            eigs = np.linalg.eigvals(jacobian(p, reference_coexistence(p)[-1].point))
            return max(z.real for z in eigs if abs(z.imag) > EIG_TOL)

        ref = brentq(pair_real, 0.8, 0.9, xtol=1e-15, rtol=1e-15)
        calls = []
        star_char_at = stability._star_char_at

        def spy(params, alpha, near):
            calls.append(alpha)
            return star_char_at(params, alpha, near)

        monkeypatch.setattr(stability, "_star_char_at", spy)
        (cand,) = hopf_scan(baseline, (0.3, 1.2), n_samples=81)
        assert len(calls) <= 100  # 127 when the bracket was bisected
        assert cand.alpha_star == pytest.approx(ref, rel=1e-12)

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

    def test_verdict_flips_across_the_crossing(self, baseline):
        for alpha, expected in ((0.8, Verdict.STABLE), (0.9, Verdict.UNSTABLE)):
            p = params_with_alpha(baseline, alpha)
            reps = [classify(p, eq) for eq in coexistence(p)]
            assert any(rep.verdict is expected for rep in reps), alpha


ALPHA_STAR = 0.52  # between the samples 0.5 and 0.6 of the synthetic scans


class TestHopfScanRejections:
    """Each check that turns a sign change of Psi away, driven by a stand-in
    for the coexistence point: at each alpha its characteristic polynomial
    has the roots ``pair(alpha)`` and ``others``.  By Orlando's formula Psi
    is a multiple of the product of all pairwise root sums, so it changes
    sign where the two roots of ``pair`` sum through zero."""

    @staticmethod
    def scan(monkeypatch, pair, others=(-1.0, -2.0), exists=lambda alpha: True):
        def star_char_at(params, alpha, near):
            if not exists(alpha):
                return None
            c = np.real(np.poly([*pair(alpha), *others]))
            return SimpleNamespace(point=SimpleNamespace(A=alpha)), CharPoly4(*c[1:].tolist())

        monkeypatch.setattr(stability, "_star_char_at", star_char_at)
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
