"""Relaxed forward-backward sweep oracle.

This is the loop ``cropguard.optimal_control.solve`` ran before it mixed
the fixed-point map with Anderson acceleration, kept as an independent
reference.  Each iteration forms Phi(u), the clipped pointwise minimizers
of the Hamiltonian on the states and costates of u, and takes the relaxed
step u <- u + theta (Phi(u) - u), at the solver's own weight
``optimal_control._THETA``; it stops when the applied change is at
most tolerance * max(1, |u|_inf).  Like ``solve`` when its last pass
gives no snap, it then snaps u to Phi(u) and refreshes the states and
costates once more.  It shares the forward and costate passes, Phi and
the certificate with ``solve``, so comparing the two checks the
iteration, not the integrators.
"""

from __future__ import annotations

import numpy as np

from cropguard.integrate import Trajectory, integrate_cost, rk4_adjoint, rk4_model
from cropguard.model import ModelParams, ObjectiveWeights, State
from cropguard.optimal_control import (
    _THETA,
    StopReason,
    SweepOptions,
    SweepSolution,
    _candidates,
    _hinged_gradient,
)


def plain_solve(
    params: ModelParams, w: ObjectiveWeights, y0: State, opts: SweepOptions
) -> SweepSolution:
    """The relaxed sweep on the same options as ``solve``; no stall check."""
    grid = opts.grid
    y0 = State(*map(float, y0))
    # the control box's ceiling: 1 for a free channel, 0 for a frozen one
    ceiling = np.array([not opts.freeze_u1, not opts.freeze_u2], dtype=float)
    u = np.full((grid.n_steps + 1, 2), 0.5) * ceiling

    def forward_backward(u: np.ndarray):
        traj = rk4_model(params, y0, grid, u)
        return traj, rk4_adjoint(params, w, traj)

    objective_history, change_history, residual_history = [], [], []
    stop = StopReason.BUDGET
    traj, costates = forward_backward(u)
    for _ in range(opts.max_iterations):
        objective_history.append(integrate_cost(traj, w))
        f = _candidates(traj.states, costates, params, w, ceiling) - u
        residual_history.append(float(np.abs(f).max()))
        u_new = u + _THETA * f
        change = float(np.abs(u_new - u).max())
        change_history.append(change)
        u = u_new
        traj, costates = forward_backward(u)
        if change <= opts.tolerance * max(1.0, float(np.abs(u).max())):
            stop = StopReason.CONVERGED
            break

    u = _candidates(traj.states, costates, params, w, ceiling)
    traj, costates = forward_backward(u)
    return SweepSolution(
        states=Trajectory(grid, traj.states, u, costates),
        objective_history=tuple(objective_history),
        change_history=tuple(change_history),
        residual_history=tuple(residual_history),
        stop_reason=stop,
        stationarity_residual=_hinged_gradient(u, traj.states, costates, params, w, ceiling),
        final_objective=integrate_cost(traj, w),
    )
