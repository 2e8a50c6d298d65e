"""Equilibrium families: existence conditions, residuals, root finding."""

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import admissible_params, make_random_params
from cropguard.equilibria import (
    Equilibrium,
    EquilibriumKind,
    Nonexistent,
    all_equilibria,
    axial,
    coexistence,
    pest_free,
    susceptible_free,
)
from cropguard.model import ModelParams, rhs_uncontrolled
from cropguard.stability import Verdict, classify, params_with_alpha
from polymul_reduction import reduction, reference_coexistence
from published_quartic import quartic_coefficients, quartic_residuals
from scan_oracle import scan_coexistence


def _residual(params, point) -> float:
    return max(abs(v) for v in rhs_uncontrolled(params, point))


class TestBoundaryFamilies:
    def test_axial_point(self, baseline):
        eq = axial(baseline)
        assert eq.kind is EquilibriumKind.AXIAL
        assert eq.point == (0.0, 0.0, 0.0, pytest.approx(0.2, rel=1e-15))
        assert eq.residual_norm < 1e-10

    def test_pest_free_point(self, baseline):
        eq = pest_free(baseline)
        assert eq.kind is EquilibriumKind.PEST_FREE
        assert eq.point.X == baseline.K
        assert eq.point.S == 0.0 and eq.point.I == 0.0
        assert eq.point.A == pytest.approx(baseline.gamma / baseline.eta, rel=1e-15)

    def test_axial_and_pest_free_always_exist(self):
        rng = np.random.default_rng(41)
        for _ in range(100):
            p = make_random_params(rng)
            assert _residual(p, axial(p).point) < 1e-10
            assert _residual(p, pest_free(p).point) < 1e-10


class TestSusceptibleFree:
    def test_nonexistent_below_the_infection_threshold(self, baseline):
        out = susceptible_free(baseline)
        assert isinstance(out, Nonexistent)
        assert "d+delta" in out.reason

    def test_threshold_condition_decides_existence(self):
        rng = np.random.default_rng(43)
        seen_both = set()
        for _ in range(200):
            p = make_random_params(rng)
            thr = p.m2 * p.phi * p.alpha * p.K / (p.c + p.K)
            out = susceptible_free(p)
            exists = isinstance(out, Equilibrium)
            seen_both.add(exists)
            assert exists == (p.d + p.delta < thr)
            if exists:
                assert out.residual_norm < 1e-10
                assert out.point.S == 0.0
                assert out.point.X > 0.0 and out.point.I > 0.0 and out.point.A > 0.0
        assert seen_both == {True, False}

    def test_known_point_with_strong_infected_feeding(self):
        # m1=0.8, m2=0.6, phi=0.9, alpha=0.5 and baseline otherwise:
        # the crop level solves 0.27 X/(1+X) = 0.11, giving X = 11/16,
        # and the infected branch lands on exact dyadic values
        p = ModelParams(m1=0.8, m2=0.6, phi=0.9, alpha=0.5)
        out = susceptible_free(p)
        assert isinstance(out, Equilibrium)
        assert out.point.X == pytest.approx(0.6875, abs=1e-12)
        assert out.point.I == pytest.approx(0.1171875, abs=1e-12)
        assert out.point.A == pytest.approx(0.3171875, abs=1e-12)
        assert out.residual_norm < 1e-12


class TestCoexistence:
    def test_no_interior_root_at_defaults(self, baseline):
        assert coexistence(baseline) == []

    def test_single_root_at_moderate_consumption(self, baseline):
        roots = coexistence(params_with_alpha(baseline, 0.06))
        assert len(roots) == 1
        eq = roots[0]
        assert eq.kind is EquilibriumKind.COEXISTENCE
        assert eq.point.A == pytest.approx(0.5252727462499827, rel=1e-9)
        assert eq.point.X == pytest.approx(0.905376028106, rel=1e-6)
        assert eq.point.S == pytest.approx(0.289869412872, rel=1e-6)
        assert eq.point.I == pytest.approx(0.0354033333781, rel=1e-6)
        assert eq.residual_norm < 1e-10

    def test_roots_sorted_by_awareness_and_admissible(self):
        rng = np.random.default_rng(47)
        found = 0
        for _ in range(100):
            p = make_random_params(rng)
            roots = coexistence(p)
            levels = [eq.point.A for eq in roots]
            assert levels == sorted(levels)
            for eq in roots:
                found += 1
                assert all(v > 0.0 for v in eq.point)
                assert eq.residual_norm < 1e-10
                assert _residual(p, eq.point) < 1e-10
        assert found > 20

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(admissible_params())
    def test_quartic_roots_agree_with_the_bracket_scan(self, p):
        # the scan stops bisecting at |h| < 1e-12, which on a flat h leaves
        # its own root up to ~1e-9 off; a larger gap passes only when the
        # quartic root is the better steady state
        got = coexistence(p)
        ref = scan_coexistence(p)
        assert len(got) == len(ref)
        for eq, want in zip(got, ref):
            assert eq.residual_norm < 1e-10
            gap = abs(eq.point.A - want.point.A) / want.point.A
            assert gap <= 1e-9 or (gap <= 1e-6 and eq.residual_norm < want.residual_norm)

    def test_polished_roots_are_steady_states_to_rounding(self):
        # numpy.roots alone leaves a 7e-13 defect at draw 144; the Newton
        # step on P keeps every defect below 3e-14
        rng = np.random.default_rng(47)
        found = 0
        for _ in range(250):
            for eq in coexistence(make_random_params(rng)):
                found += 1
                assert eq.residual_norm < 1e-13
        assert found > 100

    def test_near_vanishing_leading_coefficient(self):
        # alpha m1 is within 4e-4 of lam + d, the slope of den(A), which
        # enters P's leading coefficient squared (~4e-8): P is nearly cubic
        # and its fourth root sits near A = -6e7.  The admissible root must
        # still come back, where a Ferrari solve loses it
        p = ModelParams(
            r=0.7230323361425965, K=3.164606301195934, alpha=0.6055566112622778,
            phi=0.13647167321119125, c=4.270017496426071, a=3.8660490104706255,
            lam=0.48848776808284894, d=0.06976309916436702, delta=0.3425086684445438,
            m1=0.922508557165949, m2=0.4438675401301252, gamma=0.03153314390378797,
            sigma=0.1820405061262738, eta=0.08881797274728678,
        )
        assert abs(p.alpha * p.m1 - (p.lam + p.d)) < 4e-4
        (eq,) = coexistence(p)
        (ref,) = scan_coexistence(p)
        assert eq.point.A == pytest.approx(1.8655512299990, rel=1e-12)
        assert eq.point.A == pytest.approx(ref.point.A, rel=1e-9)
        assert eq.residual_norm < 1e-12

    def test_a_constant_denominator_gives_its_one_point(self):
        # alpha m1 == lam + d makes den(A) constant; np.polymul would strip
        # its zero slope and leave the reduction's pieces different lengths
        p = ModelParams(alpha=0.5, lam=0.375, d=0.025)
        assert p.alpha * p.m1 == p.lam + p.d
        with pytest.raises(ValueError):
            reduction(p)
        (eq,) = coexistence(p)
        (ref,) = scan_coexistence(p)
        for got, want in zip(eq.point, ref.point):
            assert got == pytest.approx(want, rel=1e-10)
        assert eq.residual_norm < 1e-16

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(admissible_params())
    def test_points_equal_the_polymul_transcription(self, p):
        got = coexistence(p)
        want = reference_coexistence(p)
        assert [eq.point for eq in got] == [eq.point for eq in want]
        assert [eq.residual_norm for eq in got] == [eq.residual_norm for eq in want]


def _fold_draw() -> ModelParams:
    """Draw 847 of make_random_params(default_rng(3)), 1 of 3000 draws with
    three coexistence points: a fold window over alpha in about
    (0.459821, 0.4859), one point outside it."""
    rng = np.random.default_rng(3)
    for _ in range(847):
        make_random_params(rng)
    return make_random_params(rng)


class TestFoldWindow:
    """Pins today's behaviour near the fold pair; the 1e-9 filter on the
    imaginary part of numpy.roots' roots is left as it is."""

    def test_draw_is_the_recorded_one(self):
        assert _fold_draw().alpha == 0.46185293626058843

    @pytest.mark.parametrize("alpha", [None, 0.465, 0.48])
    def test_three_points_inside_the_window(self, alpha):
        p = _fold_draw()
        if alpha is not None:
            p = params_with_alpha(p, alpha)
        got = coexistence(p)
        ref = scan_coexistence(p)
        assert len(got) == len(ref) == 3
        for eq, want in zip(got, ref):
            assert abs(eq.point.A - want.point.A) <= 1e-9 * want.point.A
            assert eq.residual_norm < 1e-12
        assert [classify(p, eq).verdict for eq in got] == [
            Verdict.UNSTABLE, Verdict.UNSTABLE, Verdict.STABLE]

    @pytest.mark.parametrize("alpha", [0.4598, 0.49])
    def test_one_point_outside_the_window(self, alpha):
        p = params_with_alpha(_fold_draw(), alpha)
        assert len(coexistence(p)) == len(scan_coexistence(p)) == 1


class TestAllEquilibria:
    def test_defaults_give_two_points_and_two_reports(self, baseline):
        out = all_equilibria(baseline)
        kinds = [e.kind for e in out]
        assert kinds == [
            EquilibriumKind.AXIAL,
            EquilibriumKind.PEST_FREE,
            EquilibriumKind.SUSCEPTIBLE_FREE,
            EquilibriumKind.COEXISTENCE,
        ]
        assert isinstance(out[0], Equilibrium)
        assert isinstance(out[1], Equilibrium)
        assert isinstance(out[2], Nonexistent)
        assert isinstance(out[3], Nonexistent)
        assert "no admissible root" in out[3].reason

    def test_every_returned_point_is_a_true_steady_state(self):
        rng = np.random.default_rng(53)
        for _ in range(50):
            p = make_random_params(rng)
            for entry in all_equilibria(p):
                if isinstance(entry, Equilibrium):
                    assert entry.residual_norm < 1e-10


class TestQuarticDiagnostics:
    GOLDEN_DEFAULT = (
        5.7225806451612895,
        -32.95967741935483,
        -0.019539838709677418,
        -0.007646774193548388,
        0.04707829301075267,
    )

    def test_coefficients_frozen_at_defaults(self, baseline):
        got = quartic_coefficients(baseline)
        assert got == pytest.approx(self.GOLDEN_DEFAULT, rel=1e-12)

    def test_coefficients_finite_for_random_parameters(self):
        rng = np.random.default_rng(59)
        for _ in range(100):
            coeffs = quartic_coefficients(make_random_params(rng))
            assert all(np.isfinite(coeffs))

    def test_reported_polynomial_disagrees_with_the_true_root(self, baseline):
        # the closed-form reduction and the scanned residual root do not
        # agree; the diagnostic exists precisely to expose that gap
        p = params_with_alpha(baseline, 0.06)
        a_star = coexistence(p)[0].point.A
        (residual,) = quartic_residuals(p, [a_star])
        assert abs(residual) > 0.1
        assert residual == pytest.approx(-0.9411383254541212, rel=1e-9)

    def test_residuals_vanish_on_the_polynomials_own_roots(self, baseline):
        d0, d1, d2, d3, d4 = quartic_coefficients(baseline)
        roots = np.roots([d0, d1, d2, d3, d4])
        real = [z.real for z in roots if abs(z.imag) < 1e-12]
        assert real, "expected at least one real root of the reported quartic"
        for res in quartic_residuals(baseline, real):
            assert abs(res) < 1e-8
