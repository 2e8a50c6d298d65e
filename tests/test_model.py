"""Vector field, Jacobian, adjoint field, and parameter validation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import admissible_params, make_random_params, make_random_state
from cropguard.errors import DomainError, NonFiniteError
from cropguard.model import (
    POSITIVITY_TOL,
    ControlValue,
    Costate,
    ModelParams,
    ObjectiveWeights,
    State,
    attracting_region,
    check_state,
    costate_rhs,
    hamiltonian,
    jacobian,
    model_field,
    rhs_controlled,
    rhs_uncontrolled,
    running_cost,
)


def test_default_parameter_values(baseline):
    assert baseline.r == 0.1
    assert baseline.K == 1.0
    assert baseline.alpha == 0.025
    assert baseline.phi == 0.3
    assert baseline.c == 1.0
    assert baseline.a == 0.5
    assert baseline.lam == 0.025
    assert baseline.d == 0.01
    assert baseline.delta == 0.1
    assert baseline.m1 == 0.8
    assert baseline.m2 == 0.6
    assert baseline.gamma == 0.003
    assert baseline.sigma == 0.015
    assert baseline.eta == 0.015


def test_default_objective_weights(weights):
    assert (weights.A1, weights.A2, weights.B1, weights.B2) == (1015.0, 1010.0, 1.6, 1.0)


@pytest.mark.parametrize(
    "bad",
    [
        dict(r=-0.1),
        dict(K=-1.0),
        dict(K=0.0),
        dict(alpha=-0.5),
        dict(phi=1.5),
        dict(phi=1.0),
        dict(m1=0.5, m2=0.6),
        dict(m1=0.6, m2=0.6),
        dict(gamma=-0.001),
        dict(eta=0.0),
        dict(c=0.0),
        dict(a=-0.5),
        dict(r=math.nan),
        dict(d=math.inf),
    ],
)
def test_invalid_parameters_rejected(bad):
    with pytest.raises(DomainError):
        ModelParams(**bad)


def test_zero_rates_are_admissible_edge_cases():
    # nonnegative knobs may sit at zero; only the structural positives
    # (K, c, a, eta) and the orderings are strict
    p = ModelParams(r=0.0, alpha=0.0, gamma=0.0, sigma=0.0)
    assert p.r == 0.0 and p.alpha == 0.0


def test_invalid_weights_rejected():
    with pytest.raises(DomainError):
        ObjectiveWeights(B1=0.0)
    with pytest.raises(DomainError):
        ObjectiveWeights(B2=-1.0)
    with pytest.raises(DomainError):
        ObjectiveWeights(A1=math.nan)


def test_check_state_tolerates_roundoff_negatives():
    # values within the positivity band pass through unchanged; the
    # band exists for integrator output, not to silently repair inputs
    tiny = -0.5 * POSITIVITY_TOL
    s = check_state((1.0, tiny, 0.0, 2.0))
    assert s == State(1.0, tiny, 0.0, 2.0)
    with pytest.raises(DomainError):
        check_state((1.0, 4.0 * tiny, 0.0, 2.0))


def test_check_state_rejects_genuine_negatives_and_nonfinite():
    with pytest.raises(DomainError):
        check_state((1.0, -1e-6, 0.0, 0.1))
    with pytest.raises(NonFiniteError):  # a DomainError of its own type
        check_state((math.nan, 0.0, 0.0, 0.1))


def test_rhs_value_at_a_hand_computed_point(baseline):
    # X=0.5, S=0.2, I=0.1, A=0.4 at defaults, each term evaluated by hand
    s = State(0.5, 0.2, 0.1, 0.4)
    crop = 0.025 * 0.5 / 1.5
    aware = 0.025 * 0.4 / 0.9
    dX = 0.1 * 0.5 * 0.5 - crop * 0.2 - 0.3 * crop * 0.1
    dS = 0.8 * crop * 0.2 - aware * 0.2 - 0.01 * 0.2
    dI = 0.6 * 0.3 * crop * 0.1 + aware * 0.2 - 0.11 * 0.1
    dA = 0.003 + 0.015 * 0.3 - 0.015 * 0.4
    got = rhs_uncontrolled(baseline, s)
    assert got == pytest.approx((dX, dS, dI, dA), rel=1e-12)


def docstring_field(p, X, S, I, A, u1, u2):
    """The four equations of the model module docstring, transcribed literally."""
    h = p.alpha * X / (p.c + X)
    g = u1 * p.lam * A / (p.a + A)
    return (
        p.r * X * (1 - X / p.K) - h * S - p.phi * h * I,
        p.m1 * h * S - g * S - p.d * S,
        p.m2 * p.phi * h * I + g * S - (p.d + p.delta) * I,
        u2 * p.gamma + p.sigma * (S + I) - p.eta * A,
    )


unit = st.floats(0.0, 1.0)


@settings(max_examples=300, deadline=None)
@given(admissible_params(), unit, unit, unit, unit, unit, unit)
def test_field_is_bit_identical_to_the_docstring_equations(p, fX, fS, fI, fA, u1, u2):
    """Every term the field hoists or shares must leave each bit in place."""
    box = attracting_region(p, p.K)
    X = fX * box.M
    S = fS * (box.W_max - X)
    I = fI * (box.W_max - X - S)
    A = fA * box.A_max
    assert model_field(p)(X, S, I, A, u1, u2) == docstring_field(p, X, S, I, A, u1, u2)


def test_full_intervention_reduces_to_uncontrolled():
    """u = (1, 1) leaves the uncontrolled field unchanged, term by term."""
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = make_random_params(rng)
        s = make_random_state(rng)
        assert rhs_controlled(p, s, (1.0, 1.0)) == rhs_uncontrolled(p, s)


def test_controls_scale_awareness_transfer_and_inflow():
    p = ModelParams()
    s = State(0.5, 0.2, 0.1, 0.4)
    f1 = rhs_controlled(p, s, (1.0, 1.0))
    f0 = rhs_controlled(p, s, (0.0, 0.0))
    transfer = p.lam * s.A * s.S / (p.a + s.A)
    assert f0[0] == f1[0]
    assert f0[1] - f1[1] == pytest.approx(transfer, rel=1e-12)
    assert f1[2] - f0[2] == pytest.approx(transfer, rel=1e-12)
    assert f1[3] - f0[3] == pytest.approx(p.gamma, rel=1e-12)


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(11)
    for _ in range(30):
        p = make_random_params(rng)
        s = make_random_state(rng)
        J = jacobian(p, s)
        assert J.shape == (4, 4)
        for j in range(4):
            h = 1e-6 * max(1.0, abs(s[j]))
            sp = np.array(s, dtype=float)
            sm = sp.copy()
            sp[j] += h
            sm[j] -= h
            fd = (
                np.asarray(rhs_uncontrolled(p, State(*sp)))
                - np.asarray(rhs_uncontrolled(p, State(*sm)))
            ) / (2.0 * h)
            scale = np.maximum(1.0, np.abs(J[:, j]))
            assert np.max(np.abs(J[:, j] - fd) / scale) < 1e-6


def test_jacobian_awareness_row_is_linear(baseline):
    # dA/dt = gamma + sigma (S + I) - eta A has constant derivatives
    J = jacobian(baseline, State(0.7, 0.3, 0.2, 1.1))
    assert J[3].tolist() == [0.0, baseline.sigma, baseline.sigma, -baseline.eta]


def test_costate_rhs_is_negative_state_gradient_of_hamiltonian():
    rng = np.random.default_rng(13)
    for _ in range(30):
        p = make_random_params(rng)
        s = make_random_state(rng)
        lam = Costate(*rng.uniform(-5.0, 5.0, size=4).tolist())
        u = ControlValue(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
        w = ObjectiveWeights(
            A1=rng.uniform(0.1, 20.0),
            A2=rng.uniform(0.1, 20.0),
            B1=rng.uniform(0.1, 5.0),
            B2=rng.uniform(0.1, 5.0),
        )
        g = costate_rhs(p, s, lam, u, w)
        for j in range(4):
            h = 1e-6 * max(1.0, abs(s[j]))
            sp = np.array(s, dtype=float)
            sm = sp.copy()
            sp[j] += h
            sm[j] -= h
            fd = -(
                hamiltonian(p, State(*sp), lam, u, w)
                - hamiltonian(p, State(*sm), lam, u, w)
            ) / (2.0 * h)
            assert abs(g[j] - fd) / max(1.0, abs(g[j])) < 1e-5


@pytest.mark.parametrize("u, error", [
    ((2.0, 0.5), DomainError), ((0.5, -1e-9), DomainError), ((math.nan, 0.5), NonFiniteError),
])
def test_costate_rhs_rejects_inadmissible_controls(baseline, weights, u, error):
    # the rule rhs_controlled and every run apply
    with pytest.raises(DomainError, match="controls must") as info:
        costate_rhs(baseline, State(0.4, 0.2, 0.1, 0.8), (1.0, -2.0, 0.5, 3.0), u, weights)
    assert type(info.value) is error


def test_hamiltonian_is_cost_plus_costate_dot_dynamics(baseline, weights):
    s = State(0.4, 0.2, 0.1, 0.8)
    lam = Costate(1.0, -2.0, 0.5, 3.0)
    u = ControlValue(0.3, 0.7)
    f = rhs_controlled(baseline, s, u)
    expected = running_cost(s, u, weights) + sum(p * fi for p, fi in zip(lam, f))
    assert hamiltonian(baseline, s, lam, u, weights) == pytest.approx(expected, rel=1e-14)


def test_running_cost_value():
    w = ObjectiveWeights(A1=2.0, A2=3.0, B1=4.0, B2=5.0)
    got = running_cost(State(9.0, 0.5, 9.0, 0.2), (0.1, 0.2), w)
    assert got == pytest.approx(2.0 * 0.25 - 3.0 * 0.04 + 0.5 * (4.0 * 0.01 + 5.0 * 0.04))


def test_attracting_region_at_defaults(baseline):
    region = attracting_region(baseline, 0.2)
    assert region.M == 1.0
    assert region.W_max == pytest.approx(3.5, rel=1e-12)
    assert region.A_max == pytest.approx(3.7, rel=1e-12)


def test_attracting_region_tracks_large_initial_crop(baseline):
    region = attracting_region(baseline, 4.0)
    assert region.M == 4.0
    assert region.W_max > attracting_region(baseline, 0.2).W_max


def test_region_contains_respects_slack(baseline):
    region = attracting_region(baseline, 0.2)
    assert region.contains(State(1.0, 0.5, 0.5, 1.0))
    assert region.contains(State(region.M + 1e-8, 0.0, 0.0, 0.0), slack=1e-6)
    assert not region.contains(State(region.M + 1.0, 0.0, 0.0, 0.0), slack=1e-6)
