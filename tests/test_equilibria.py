"""Equilibrium families: existence conditions, residuals, root finding."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import admissible_params, make_random_params
from cropguard import equilibria
from cropguard.equilibria import (
    Equilibrium,
    EquilibriumKind,
    Nonexistent,
    _coexistence_at,
    _make,
    _roots,
    all_equilibria,
    axial,
    coexistence,
    pest_free,
    susceptible_free,
)
from cropguard.errors import DegenerateParameterError, DomainError, NonFiniteError
from cropguard.model import ModelParams, model_field, rhs_uncontrolled
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

    @pytest.mark.parametrize("component, cleaned", [(-1e-12, 0.0), (-1e-6, None)])
    def test_negative_dust_is_cleared_and_a_real_negative_rejected(
        self, baseline, component, cleaned
    ):
        point = (baseline.K, 0.0, component, 0.2)
        if cleaned is None:
            with pytest.raises(DomainError, match="equilibrium has negative component"):
                _make(EquilibriumKind.PEST_FREE, model_field(baseline), point)
        else:
            assert _make(EquilibriumKind.PEST_FREE, model_field(baseline), point).point.I == cleaned


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

    def test_an_underflowing_infected_denominator_raises(self):
        # the point exists, but phi alpha K = 1e-330 rounds to 0
        p = ModelParams(K=1e-160, alpha=1e-100, phi=1e-70, c=1e-180, m1=1e171, m2=1e170)
        with pytest.raises(DegenerateParameterError, match="phi alpha K underflows"):
            susceptible_free(p)

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

    @pytest.mark.parametrize("alpha, reason", [
        (0.0, "0.11 >= 0"),
        # (d+delta)/(m2 phi): m2 phi alpha equals d+delta to rounding
        (0.6111111111111112, "0.11 >= 0.055"),
    ])
    def test_nonexistent_without_consumption_and_at_the_threshold(self, alpha, reason):
        out = susceptible_free(ModelParams(alpha=alpha))
        assert isinstance(out, Nonexistent)
        assert out.reason.endswith(f": {reason}"), out.reason


class TestCoexistence:
    def test_no_interior_root_at_defaults(self, baseline):
        assert coexistence(baseline) == []

    def test_no_interior_root_without_consumption(self):
        # alpha cancels from the reduction; at alpha = 0 its X* denominator
        # is negative for every A > 0, so no root qualifies
        assert coexistence(ModelParams(alpha=0.0)) == []

    def test_a_root_numpy_reports_twice_gives_one_point(self, baseline, monkeypatch):
        # numpy.roots splits a true double root by ~3e-8 (above the 1e-9
        # cut) or makes it complex, so a doubled root list stands in for it;
        # the roots are the companion matrix's eigenvalues
        p = params_with_alpha(baseline, 0.06)
        (want,) = coexistence(p)
        eigvals = np.linalg.eigvals
        monkeypatch.setattr(np.linalg, "eigvals", lambda a: np.repeat(eigvals(a), 2, axis=-1))
        assert coexistence(p) == [want]

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

    def test_an_overflowing_companion_matrix_is_refused(self, monkeypatch):
        # a row whose -P[1:]/P[0] overflows gets None, with no warning (an
        # error in this suite), in the shared batch or where numpy.roots
        # strips a zero end; the other rows keep numpy.roots' floats
        P = np.array([[1.0, -10.0, 35.0, -50.0, 24.0],
                      [1e-300, 1e300, 1.0, 1.0, 1.0],
                      [1e-300, 1e300, 1.0, 1.0, 0.0],
                      [0.0, 2.0, -6.0, 4.0, 8.0]])
        got = _roots(P)
        assert got[1] is None and got[2] is None
        assert [got[i].tobytes() for i in (0, 3)] == [np.roots(P[i]).tobytes() for i in (0, 3)]
        # one such row leaves the others of the default scan's batch in the
        # shared eigvals call, not sent one by one through numpy.roots
        scan = np.array(equilibria._reduction(ModelParams(), np.linspace(0.3, 1.2, 81))[0]).T
        clean, P = _roots(scan), scan.copy()
        P[40] = [1e-300, 1e10, 1e10, 1e10, 1e10]
        one_by_one = []
        monkeypatch.setattr(equilibria, "_np_roots", one_by_one.append)
        got = _roots(P)
        assert one_by_one == [] and got[40] is None
        assert all(np.array_equal(a, b) for i, (a, b) in enumerate(zip(got, clean)) if i != 40)
        with pytest.raises(NonFiniteError, match="overflows"):
            coexistence(ModelParams(r=1e160, sigma=1e160))

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

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(admissible_params(), st.lists(st.floats(0.005, 2.0), min_size=1, max_size=12))
    def test_each_rate_of_a_batch_equals_the_polymul_transcription(self, p, alphas):
        got = _coexistence_at(p, np.array(alphas))
        for alpha, points in zip(alphas, got):
            shifted = params_with_alpha(p, alpha)
            if shifted.alpha * shifted.m1 == shifted.lam + shifted.d:
                continue  # the transcription's polymul cannot take this rate
            want = reference_coexistence(shifted)
            assert [eq.point for eq in points] == [eq.point for eq in want]
            assert [eq.residual_norm for eq in points] == [eq.residual_norm for eq in want]

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(admissible_params())
    def test_points_equal_the_polymul_transcription(self, p):
        got = coexistence(p)
        want = reference_coexistence(p)
        assert [eq.point for eq in got] == [eq.point for eq in want]
        assert [eq.residual_norm for eq in got] == [eq.residual_norm for eq in want]


class TestResidualAtTheRate:
    """Each batched point's residual is the one ``rhs_uncontrolled`` gives at
    a ModelParams with that attack rate, bit for bit."""

    @staticmethod
    def check(p, alphas):
        rows = _coexistence_at(p, alphas)
        assert sum(map(len, rows)) >= len(alphas) - 2
        for alpha, points in zip(alphas.tolist(), rows):
            for eq in points:
                assert eq.residual_norm == _residual(replace(p, alpha=alpha), eq.point)

    def test_the_default_scan_grid(self, baseline):
        self.check(baseline, np.linspace(0.3, 1.2, 81))

    def test_the_fold_window(self):
        self.check(_fold_draw(), np.linspace(0.4598, 0.4859, 40))

    def test_a_grid_through_a_constant_denominator(self):
        p = ModelParams(lam=0.375, d=0.025)
        self.check(p, np.sort(np.append(np.linspace(0.3, 0.7, 20), 0.5)))


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

    @settings(max_examples=1200, deadline=None, derandomize=True, database=None)
    @given(admissible_params(), st.data())
    def test_every_family_answers_at_the_edges_of_existence(self, p, data):
        # alpha = 0, the susceptible-free threshold (d+delta)/(m2 phi) and
        # anything in between: each family reports a point or Nonexistent
        threshold = (p.d + p.delta) / (p.m2 * p.phi)
        alpha = data.draw(st.sampled_from([0.0, threshold]) | st.floats(0.0, 1.0))
        p = replace(p, alpha=alpha)
        for entry in all_equilibria(p):
            if isinstance(entry, Equilibrium):
                classify(p, entry)


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
