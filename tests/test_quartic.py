"""Closed-form cubic and quartic root solvers against a numpy oracle."""

import math

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment

from cropguard import quartic
from cropguard.errors import DomainError
from cropguard.model import jacobian
from cropguard.quartic import _polish, cubic_real_roots, quartic_roots
from cropguard.stability import char_poly
from conftest import make_random_params, make_random_state


def _sorted(roots):
    return sorted(roots, key=lambda z: (round(z.real, 9), round(z.imag, 9)))


def _assert_matches_numpy(b, c, d, e, tol):
    got = _sorted(quartic_roots(b, c, d, e))
    ref = _sorted([complex(z) for z in np.roots([1.0, b, c, d, e])])
    assert len(got) == 4
    for g, r in zip(got, ref):
        assert abs(g - r) <= tol * max(1.0, abs(r))


class TestCubic:
    def test_three_distinct_real_roots(self):
        # (x-1)(x-2)(x-3)
        roots = sorted(cubic_real_roots(-6.0, 11.0, -6.0))
        assert roots == pytest.approx([1.0, 2.0, 3.0], abs=1e-12)

    def test_single_real_root(self):
        # (x-2)(x^2+1) = x^3 - 2x^2 + x - 2
        roots = cubic_real_roots(-2.0, 1.0, -2.0)
        assert len(roots) == 1
        assert roots[0] == pytest.approx(2.0, abs=1e-12)

    def test_triple_root(self):
        # (x+1)^3
        roots = cubic_real_roots(3.0, 3.0, 1.0)
        assert all(r == pytest.approx(-1.0, abs=1e-5) for r in roots)

    def test_random_cubics_against_numpy(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            b, c, d = rng.uniform(-5.0, 5.0, size=3).tolist()
            got = sorted(cubic_real_roots(b, c, d))
            ref = sorted(
                z.real for z in np.roots([1.0, b, c, d]) if abs(z.imag) < 1e-9
            )
            assert len(got) == len(ref)
            for g, r in zip(got, ref):
                assert abs(g - r) <= 1e-8 * max(1.0, abs(r))


# Each case lists its four roots as (root, m).  A root of multiplicity m
# moves by ~eps^(1/m) under rounding of the coefficients; the close pair
# 1, 1 + 1e-6 counts as a double root, as the two behave as one at this
# noise level.
CLUSTERED_CASES = {
    "(x-1)^2 (x-2)^2": [(1.0, 2), (1.0, 2), (2.0, 2), (2.0, 2)],
    "(x-1)^3 (x+2)": [(1.0, 3), (1.0, 3), (1.0, 3), (-2.0, 1)],
    "(x-0.5)^4": [(0.5, 4)] * 4,
    "(x^2+1)^2": [(1j, 2), (1j, 2), (-1j, 2), (-1j, 2)],
    "(x-1)(x-1-1e-6)(x+1)(x+3)": [(1.0, 2), (1.0 + 1e-6, 2), (-1.0, 1), (-3.0, 1)],
    "(x-1e-3)^2 (x+2)(x-3)": [(1e-3, 2), (1e-3, 2), (-2.0, 1), (3.0, 1)],
}


class TestQuartic:
    @pytest.mark.parametrize("case", CLUSTERED_CASES)
    def test_clustered_roots_within_their_conditioning(self, case):
        # the oracle is the known roots: each computed root is paired with
        # one of them (minimum total distance) and must lie within
        # 10 eps^(1/m) max(1, |root|).  Measured: Ferrari at most 0.1 of
        # the bound, numpy.roots at most 0.6
        true = np.array([r for r, _ in CLUSTERED_CASES[case]], dtype=complex)
        bound = np.array([10.0 * np.finfo(float).eps ** (1.0 / m) * max(1.0, abs(r))
                          for r, m in CLUSTERED_CASES[case]])
        _, b, c, d, e = np.poly(true).real
        got = np.array(quartic_roots(b, c, d, e))
        dist = np.abs(got[:, None] - true[None, :])
        rows, cols = linear_sum_assignment(dist)
        assert (dist[rows, cols] <= bound[cols]).all(), (got, dist[rows, cols])


    def test_four_distinct_real_roots(self):
        # (x-1)(x-2)(x+1)(x+3) = x^4 + x^3 - 7x^2 - x + 6
        _assert_matches_numpy(1.0, -7.0, -1.0, 6.0, 1e-12)

    def test_biquadratic(self):
        # x^4 - 5x^2 + 4 has roots +-1, +-2
        roots = _sorted(quartic_roots(0.0, -5.0, 0.0, 4.0))
        expect = [-2.0, -1.0, 1.0, 2.0]
        for g, r in zip(roots, expect):
            assert g == pytest.approx(complex(r, 0.0), abs=1e-12)

    def test_complex_pair(self):
        # (x^2+1)(x-2)(x+3) = x^4 + x^3 - 5x^2 + x - 6
        _assert_matches_numpy(1.0, -5.0, 1.0, -6.0, 1e-12)

    def test_quadruple_root_within_conditioning_limits(self):
        # (x-1)^4: a root of multiplicity four moves ~eps^(1/4) under
        # coefficient noise, so only ~1e-4 accuracy is meaningful
        roots = quartic_roots(-4.0, 6.0, -4.0, 1.0)
        for z in roots:
            assert abs(z - 1.0) < 1e-3

    def test_double_pair(self):
        # (x^2-1)^2
        roots = _sorted(quartic_roots(0.0, -2.0, 0.0, 1.0))
        for z, r in zip(roots, [-1.0, -1.0, 1.0, 1.0]):
            assert abs(z - r) < 1e-6

    def test_random_quartics_against_numpy(self):
        rng = np.random.default_rng(29)
        for _ in range(500):
            b, c, d, e = rng.uniform(-5.0, 5.0, size=4).tolist()
            _assert_matches_numpy(b, c, d, e, 1e-10)

    def test_residual_is_small_at_every_returned_root(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            b, c, d, e = rng.uniform(-3.0, 3.0, size=4).tolist()
            for z in quartic_roots(b, c, d, e):
                residual = ((z + b) * z + c) * z * z + d * z + e
                scale = max(1.0, abs(z)) ** 4
                assert abs(residual) < 1e-9 * scale

    def test_model_characteristic_polynomials(self):
        # the production workload: eigenvalues of 4x4 community matrices
        rng = np.random.default_rng(37)
        for _ in range(200):
            p = make_random_params(rng)
            s = make_random_state(rng)
            cp = char_poly(jacobian(p, s))
            _assert_matches_numpy(cp.c1, cp.c2, cp.c3, cp.c4, 1e-9)


class TestEdgesOfTheMethod:
    @pytest.mark.parametrize("solve, coefficients, kind", [
        (cubic_real_roots, (math.nan, 0.0, 0.0), "cubic"),
        (quartic_roots, (0.0, math.inf, 0.0, 0.0), "quartic"),
    ])
    def test_non_finite_coefficients_are_rejected(self, solve, coefficients, kind):
        with pytest.raises(DomainError, match=f"{kind} coefficients must be finite"):
            solve(*coefficients)

    @pytest.mark.parametrize("solve, coefficients, roots", [
        # x^3 - 3x + 2 = (x-1)^2 (x+2): a zero discriminant
        (cubic_real_roots, (0.0, -3.0, 2.0), [-2.0, 1.0]),
        (quartic_roots, (0.0, 0.0, 0.0, 0.0), [0j, 0j, 0j, 0j]),
    ])
    def test_exact_degenerate_cases(self, solve, coefficients, roots):
        assert solve(*coefficients) == roots

    def test_a_resolvent_root_lost_to_rounding_falls_back_to_the_biquadratic(
        self, monkeypatch
    ):
        # q = -8.2e-13 is above the negligible-q cut, so the resolvent is
        # solved, but its largest real root comes out -1.1e-21 instead of
        # a positive one
        seen = []
        solve = quartic.cubic_real_roots

        def spy(*resolvent):
            seen.append(solve(*resolvent))
            return seen[-1]

        monkeypatch.setattr(quartic, "cubic_real_roots", spy)
        coefficients = (0.0, -0.9920992145357101, -8.227079899687556e-13, -0.08223089024411223)
        got = _sorted(quartic_roots(*coefficients))
        (zs,) = seen
        assert -1.2e-21 < max(zs) < -1.1e-21
        ref = _sorted([complex(z) for z in np.roots([1.0, *coefficients])])
        assert max(abs(g - r) for g, r in zip(got, ref)) <= 4.5e-16

    @pytest.mark.parametrize("coefficients, roots", [
        # pest-free Jacobians at alpha = 0, gamma = 0 and d = eta, with the
        # double eigenvalue -d: Ferrari's estimates are exact, and a Newton
        # step from there through f' ~ 0 lands at 0.21 and at -0.041
        ((0.416875, 0.037982421875000005, 0.0008968811035156253, 6.271362304687479e-06),
         [-0.3, -0.085625, -0.015625, -0.015625]),
        ((0.47175, 0.036471750000000004, 7.153225000000044e-05, 3.553124999993708e-08),
         [-0.375, -0.09475, -0.001, -0.001]),
    ])
    def test_a_double_root_keeps_its_estimates(self, coefficients, roots):
        # the computed coefficients split the double root by ~1e-9
        got = _sorted(quartic_roots(*coefficients))
        for g, r in zip(got, roots):
            assert abs(g - r) <= 2e-9

    def test_an_overflowing_newton_step_is_not_taken(self):
        # from 0, f = 1 over f' = 1e-299 steps to -1e299, where the next
        # step overflows; quartic_roots scales its coefficients to O(1)
        # first, so only a direct call starts this close to such a slope
        assert _polish(0j, 0.0, 0.0, 1e-299, 1.0) == -1e299
