"""Forward-backward sweep: convergence, PMP certificates, frozen channels."""

import math

import numpy as np
import pytest

from cropguard.errors import DomainError, GridMismatchError
from cropguard.integrate import TimeGrid, integrate_cost, rk4_backward, rk4_forward
from cropguard.model import (
    ControlValue,
    Costate,
    ModelParams,
    ObjectiveWeights,
    State,
    adjoint_field,
    controlled_vector_field,
    hamiltonian,
)
from cropguard.optimal_control import (
    SweepOptions,
    control_update,
    solve,
    stationarity_residual,
)


class TestControlUpdate:
    def test_matches_the_projected_closed_form(self, baseline, weights):
        rng = np.random.default_rng(83)
        for _ in range(100):
            s = State(*rng.uniform(0.01, 2.0, size=4).tolist())
            p = Costate(*rng.uniform(-200.0, 200.0, size=4).tolist())
            got = control_update(s, p, baseline, weights)
            raw1 = (
                (p.p2 - p.p3)
                * baseline.lam
                * s.A
                * s.S
                / (weights.B1 * (baseline.a + s.A))
            )
            raw2 = -p.p4 * baseline.gamma / weights.B2
            assert got.u1 == min(1.0, max(0.0, raw1))
            assert got.u2 == min(1.0, max(0.0, raw2))
            assert 0.0 <= got.u1 <= 1.0 and 0.0 <= got.u2 <= 1.0

    def test_zero_costate_gives_clean_zero_controls(self, baseline, weights):
        got = control_update(State(1.0, 0.5, 0.2, 0.4), Costate(0, 0, 0, 0), baseline, weights)
        assert got == (0.0, 0.0)
        assert math.copysign(1.0, got.u2) == 1.0  # no negative zero leaks out


class TestSweepOptions:
    def test_defaults(self, control_grid):
        opts = SweepOptions(grid=control_grid)
        assert opts.max_iterations == 5000
        assert opts.tolerance == 1e-6
        assert opts.relaxation_theta == 0.5
        assert opts.initial_controls is None
        assert not opts.freeze_u1 and not opts.freeze_u2

    @pytest.mark.parametrize(
        "bad",
        [
            dict(max_iterations=0),
            dict(tolerance=0.0),
            dict(relaxation_theta=0.0),
            dict(relaxation_theta=1.5),
        ],
    )
    def test_invalid_options_rejected(self, control_grid, bad):
        with pytest.raises(DomainError):
            SweepOptions(grid=control_grid, **bad)

    def test_initial_controls_validated(self, baseline, weights, y0):
        grid = TimeGrid(0.0, 1.0, 10)
        with pytest.raises(GridMismatchError):
            solve(
                baseline,
                weights,
                y0,
                SweepOptions(grid=grid, initial_controls=np.full((5, 2), 0.5)),
            )
        with pytest.raises(DomainError):
            solve(
                baseline,
                weights,
                y0,
                SweepOptions(grid=grid, initial_controls=np.full((11, 2), 1.5)),
            )
        for rows in (
            [(0.5, 0.5, 9.0)] * 11,  # too wide: was silently truncated
            [0.5] * 11,  # scalar rows
            [(0.5, 0.5)] * 10 + [(0.5,)],  # ragged
            [(0.5, 0.5)] * 10 + [(0.5, 0.5, 0.5)],  # ragged
        ):
            with pytest.raises(GridMismatchError):
                solve(baseline, weights, y0, SweepOptions(grid=grid, initial_controls=rows))


class TestConvergedScenario:
    """Properties of the converged 100-day sweep (session fixture)."""

    def test_converges_with_descending_objective(self, converged_sweep):
        sol = converged_sweep
        assert sol.converged
        assert 0 < sol.iterations_used < 100
        assert len(sol.objective_history) == sol.iterations_used
        assert len(sol.change_history) == sol.iterations_used
        assert sol.objective_history[0] == pytest.approx(-11813.0625, rel=1e-6)
        assert sol.final_objective == pytest.approx(-15163.3871, rel=1e-6)
        assert sol.final_objective < sol.objective_history[0]

    def test_stationarity_residual_is_tiny(self, converged_sweep, baseline, weights):
        sol = converged_sweep
        assert sol.stationarity_residual < 1e-6
        recomputed = stationarity_residual(sol, baseline, weights)
        assert recomputed == pytest.approx(sol.stationarity_residual, rel=1e-9)

    def test_controls_respect_bounds_and_saturate(self, converged_sweep):
        u = np.asarray(converged_sweep.controls)
        assert u.shape == (10001, 2)
        assert u.min() >= 0.0
        assert u.max() <= 1.0
        assert u[:, 1].max() == 1.0  # the inflow channel saturates early on
        assert u[-1].tolist() == [0.0, 0.0]  # zero terminal costates force zero controls

    def test_terminal_costates_are_exactly_zero(self, converged_sweep):
        assert converged_sweep.costates[-1] == (0.0, 0.0, 0.0, 0.0)

    def test_row_views_equal_the_stored_arrays(self, converged_sweep):
        sol = converged_sweep
        assert np.array_equal(np.asarray(sol.controls), sol.states.controls)
        assert np.array_equal(np.asarray(sol.costates), sol.states.costates)
        assert isinstance(sol.controls[0], ControlValue)
        assert isinstance(sol.costates[0], Costate)
        assert sol.controls is sol.controls  # built once, on first access
        with pytest.raises(AttributeError):
            sol.controls = ()

    def test_solution_is_self_consistent(self, converged_sweep, weights, y0, control_grid):
        sol = converged_sweep
        assert sol.states.grid == control_grid
        assert sol.states.node(0) == pytest.approx(tuple(y0))
        assert len(sol.costates) == 10001
        recomputed = integrate_cost(sol.states, np.asarray(sol.controls), weights)
        assert recomputed == pytest.approx(sol.final_objective, rel=1e-12)

    def test_controls_minimize_the_hamiltonian_pointwise(
        self, converged_sweep, baseline, weights
    ):
        """The PMP certificate: at every sampled node the returned control
        beats random admissible alternatives."""
        sol = converged_sweep
        rng = np.random.default_rng(89)
        idx = rng.integers(0, len(sol.controls), size=50)
        for i in idx:
            s = sol.states.node(int(i))
            p = sol.costates[int(i)]
            h_star = hamiltonian(baseline, s, p, sol.controls[int(i)], weights)
            slack = 1e-8 * max(1.0, abs(h_star))
            for _ in range(20):
                v = ControlValue(rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0))
                assert h_star <= hamiltonian(baseline, s, p, v, weights) + slack


class TestAdjointGradient:
    def test_directional_derivative_matches_finite_differences(self, baseline, weights, y0):
        """At a non-stationary control the adjoint-based gradient of J in
        a bump direction agrees with central differences on J itself."""
        grid = TimeGrid(0.0, 5.0, 500)
        times = grid.times()

        # smooth bump on [1, 2], zero value and slope at the edges, so
        # stage-time sampling and nodal quadrature agree to O(h^2)
        def bump_at(t):
            return math.sin(math.pi * (t - 1.0)) ** 2 if 1.0 <= t <= 2.0 else 0.0

        bump = np.array([bump_at(t) for t in times])

        def run(eps: float):
            u_of_t = lambda t: (0.5 + eps * bump_at(t), 0.5)
            traj = rk4_forward(controlled_vector_field(baseline, u_of_t), y0, grid)
            u_nodes = np.column_stack([0.5 + eps * bump, np.full(len(times), 0.5)])
            return traj, u_nodes

        traj0, u0 = run(0.0)
        costates = rk4_backward(
            adjoint_field(baseline, weights), (0.0,) * 4, traj0, u0, grid
        )
        s = traj0.states
        grad_u1 = weights.B1 * u0[:, 0] - (costates[:, 1] - costates[:, 2]) * (
            baseline.lam * s[:, 3] * s[:, 1] / (baseline.a + s[:, 3])
        )
        analytic = np.trapezoid(grad_u1 * bump, dx=grid.h)

        eps = 1e-4
        tp, up = run(eps)
        tm, um = run(-eps)
        fd = (
            integrate_cost(tp, up, weights) - integrate_cost(tm, um, weights)
        ) / (2.0 * eps)
        assert fd == pytest.approx(analytic, rel=1e-3)


class TestFrozenChannels:
    GRID = TimeGrid(0.0, 20.0, 1000)

    def test_freeze_u1_switches_the_channel_off(self, baseline, weights, y0):
        # freezing means the channel is held identically at zero, even
        # when the initial guess says otherwise
        init = np.column_stack([np.full(1001, 0.3), np.full(1001, 0.5)])
        sol = solve(
            baseline,
            weights,
            y0,
            SweepOptions(grid=self.GRID, initial_controls=init, freeze_u1=True),
        )
        u = np.asarray(sol.controls)
        assert sol.converged
        assert np.all(u[:, 0] == 0.0)
        assert u[:, 1].max() > 0.0
        assert sol.stationarity_residual < 1e-5

    def test_freeze_u2_switches_the_channel_off(self, baseline, weights, y0):
        sol = solve(
            baseline,
            weights,
            y0,
            SweepOptions(grid=self.GRID, freeze_u2=True),
        )
        u = np.asarray(sol.controls)
        assert sol.converged
        assert np.all(u[:, 1] == 0.0)
        assert sol.stationarity_residual < 1e-5

    def test_zero_weights_and_zero_guess_converge_immediately(self, baseline, y0):
        w = ObjectiveWeights(A1=0.0, A2=0.0, B1=1.6, B2=1.0)
        sol = solve(
            baseline,
            w,
            y0,
            SweepOptions(grid=self.GRID, initial_controls=np.zeros((1001, 2))),
        )
        assert sol.converged
        assert sol.iterations_used == 1
        assert np.all(np.asarray(sol.controls) == 0.0)
        assert sol.stationarity_residual == 0.0


class TestIterationBudget:
    def test_budget_exhaustion_reports_nonconvergence(self, baseline, weights, y0):
        sol = solve(
            baseline,
            weights,
            y0,
            SweepOptions(grid=TimeGrid(0.0, 20.0, 1000), max_iterations=2),
        )
        assert not sol.converged
        assert sol.iterations_used == 2
        assert len(sol.objective_history) == 2
        assert math.isfinite(sol.stationarity_residual)
        assert len(sol.controls) == 1001

    def test_convergence_respects_the_relative_tolerance(self, baseline, weights, y0):
        opts = SweepOptions(grid=TimeGrid(0.0, 10.0, 500), tolerance=1e-6)
        sol = solve(baseline, weights, y0, opts)
        assert sol.converged
        u_scale = max(1.0, float(np.max(np.abs(sol.controls))))
        assert sol.change_history[-1] <= opts.tolerance * u_scale
