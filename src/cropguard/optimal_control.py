"""Forward-backward sweep solver for the two-control pest problem.

Each iteration integrates the controlled state system forward, the
adjoint system backward from zero terminal costates, forms candidate
controls from the pointwise minimality condition of the Hamiltonian,
and mixes them into the current iterate with a relaxation weight.  The
loop stops when the applied control change is small relative to the
control magnitude.  The returned solution carries a stationarity
residual: the hinged Hamiltonian-gradient magnitude, which vanishes at
an exact interior optimum and is one-sided at the control bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError, GridMismatchError
from .integrate import TimeGrid, Trajectory, integrate_cost, rk4_adjoint, rk4_model
from .model import ControlValue, Costate, ModelParams, ObjectiveWeights, State, check_state

_PIN_TOL = 1e-12


@dataclass(frozen=True)
class SweepOptions:
    """Iteration knobs for the forward-backward sweep.

    ``initial_controls`` of None starts from the interior guess
    u = (0.5, 0.5) at every node, avoiding dead clamps on the first
    backward pass.  ``freeze_u1``/``freeze_u2`` pin a control channel
    to zero throughout (it is excluded from updates, convergence
    measurement, and the stationarity residual).
    """

    grid: TimeGrid
    max_iterations: int = 5000
    tolerance: float = 1e-6
    relaxation_theta: float = 0.5
    initial_controls: Sequence[ControlValue] | None = None
    freeze_u1: bool = False
    freeze_u2: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.grid, TimeGrid):
            raise DomainError("grid must be a TimeGrid")
        if not (isinstance(self.max_iterations, int) and self.max_iterations >= 1):
            raise DomainError(f"max_iterations must be a positive count, got {self.max_iterations}")
        if not (math.isfinite(self.tolerance) and self.tolerance > 0.0):
            raise DomainError(f"tolerance must be positive, got {self.tolerance}")
        if not (math.isfinite(self.relaxation_theta) and 0.0 < self.relaxation_theta <= 1.0):
            raise DomainError(
                f"relaxation_theta must lie in (0, 1], got {self.relaxation_theta}"
            )


@dataclass(frozen=True)
class SweepSolution:
    """Converged (or best-effort) sweep iterate with certificates."""

    states: Trajectory
    costates: tuple[Costate, ...]
    controls: tuple[ControlValue, ...]
    objective_history: tuple[float, ...]
    change_history: tuple[float, ...]
    iterations_used: int
    converged: bool
    stationarity_residual: float
    final_objective: float
    freeze_u1: bool = False
    freeze_u2: bool = False

    def objective(self) -> float:
        return self.final_objective


def control_update(
    s: State, p: Costate, params: ModelParams, w: ObjectiveWeights
) -> ControlValue:
    """Pointwise minimizer of the Hamiltonian in (u1, u2), clipped to [0, 1]."""
    raw1 = (p.p2 - p.p3) * params.lam * s.A * s.S / (w.B1 * (params.a + s.A))
    raw2 = -p.p4 * params.gamma / w.B2
    return ControlValue(min(1.0, max(0.0, raw1)), min(1.0, max(0.0, raw2)))


def _candidates(
    states: np.ndarray, costates: np.ndarray, params: ModelParams, w: ObjectiveWeights
) -> np.ndarray:
    S = states[:, 1]
    A = states[:, 3]
    p2 = costates[:, 1]
    p3 = costates[:, 2]
    p4 = costates[:, 3]
    out = np.empty((states.shape[0], 2))
    out[:, 0] = np.clip((p2 - p3) * params.lam * A * S / (w.B1 * (params.a + A)), 0.0, 1.0)
    out[:, 1] = np.clip(-p4 * params.gamma / w.B2, 0.0, 1.0)
    out += 0.0  # normalizes -0.0 from clipped negatives
    return out


def _hinged_gradient(
    u: np.ndarray, states: np.ndarray, costates: np.ndarray,
    params: ModelParams, w: ObjectiveWeights, freeze_u1: bool, freeze_u2: bool,
) -> float:
    """Max hinged |dH/du| over nodes: one-sided at the bounds, zero contribution
    from a bound the gradient pushes against."""
    S = states[:, 1]
    A = states[:, 3]
    p2, p3, p4 = costates[:, 1], costates[:, 2], costates[:, 3]
    residual = 0.0
    specs = []
    if not freeze_u1:
        specs.append((u[:, 0], w.B1 * u[:, 0] - (p2 - p3) * params.lam * A * S / (params.a + A)))
    if not freeze_u2:
        specs.append((u[:, 1], w.B2 * u[:, 1] + p4 * params.gamma))
    for ui, g in specs:
        low = ui <= _PIN_TOL
        high = ui >= 1.0 - _PIN_TOL
        vals = np.abs(g)
        vals = np.where(low, np.maximum(0.0, -g), vals)
        vals = np.where(high, np.maximum(0.0, g), vals)
        residual = max(residual, float(vals.max()))
    return residual


def stationarity_residual(
    sol: SweepSolution, params: ModelParams, w: ObjectiveWeights
) -> float:
    """Recompute the hinged Hamiltonian-gradient certificate of a solution."""
    u = np.asarray(sol.controls, dtype=float)
    p = np.asarray(sol.costates, dtype=float)
    return _hinged_gradient(u, sol.states.states, p, params, w, sol.freeze_u1, sol.freeze_u2)


def solve(
    params: ModelParams, w: ObjectiveWeights, y0: State, opts: SweepOptions
) -> SweepSolution:
    """Run the forward-backward sweep to convergence or iteration cap.

    Convergence: applied max-norm control change <= tolerance *
    max(1, max-norm of the updated controls).  The objective of each
    iterate is recorded before its update, so objective_history[k] is
    the cost of the controls the k-th forward pass used.  A final
    forward/backward refresh keeps states and costates consistent with
    the returned controls without extending the history.
    """
    grid = opts.grid
    y0 = State(*map(float, y0))
    check_state(y0)
    n_nodes = grid.n_steps + 1

    if opts.initial_controls is None:
        u = np.full((n_nodes, 2), 0.5)
    else:
        u = np.array([(c[0], c[1]) for c in opts.initial_controls], dtype=float)
        if u.shape != (n_nodes, 2):
            raise GridMismatchError(
                f"initial_controls must supply {n_nodes} nodes, got shape {u.shape}"
            )
        if not np.isfinite(u).all() or u.min() < -_PIN_TOL or u.max() > 1.0 + _PIN_TOL:
            raise DomainError("initial controls must be finite and lie in [0, 1]")
        u = np.clip(u, 0.0, 1.0)
    if opts.freeze_u1:
        u[:, 0] = 0.0
    if opts.freeze_u2:
        u[:, 1] = 0.0

    theta = opts.relaxation_theta

    objective_history: list[float] = []
    change_history: list[float] = []
    converged = False
    traj = rk4_model(params, y0, grid, u)
    costates = rk4_adjoint(params, w, traj, u, grid)
    iterations = 0

    def clipped_candidates() -> np.ndarray:
        cand = _candidates(traj.states, costates, params, w)
        if opts.freeze_u1:
            cand[:, 0] = 0.0
        if opts.freeze_u2:
            cand[:, 1] = 0.0
        return cand

    for _ in range(opts.max_iterations):
        iterations += 1
        objective_history.append(integrate_cost(traj, u, w))
        u_new = u + theta * (clipped_candidates() - u)
        change = float(np.abs(u_new - u).max())
        change_history.append(change)
        u = u_new
        traj = rk4_model(params, y0, grid, u)
        costates = rk4_adjoint(params, w, traj, u, grid)
        if change <= opts.tolerance * max(1.0, float(np.abs(u).max())):
            converged = True
            break

    # Snap to the exact pointwise minimizer so bound-clamped nodes sit at
    # 0/1 rather than a relaxation-limited distance away, then refresh the
    # state/costate pair for consistency with the returned controls.
    u = clipped_candidates()
    traj = rk4_model(params, y0, grid, u)
    costates = rk4_adjoint(params, w, traj, u, grid)
    residual = _hinged_gradient(u, traj.states, costates, params, w,
                                opts.freeze_u1, opts.freeze_u2)
    final_objective = integrate_cost(traj, u, w)
    controls = tuple(ControlValue(float(a), float(b)) for a, b in u)
    costate_rows = tuple(Costate(*map(float, row)) for row in costates)
    states = Trajectory(grid=grid, states=traj.states, controls=u.copy(),
                        costates=np.asarray(costates))
    return SweepSolution(
        states=states,
        costates=costate_rows,
        controls=controls,
        objective_history=tuple(objective_history),
        change_history=tuple(change_history),
        iterations_used=iterations,
        converged=converged,
        stationarity_residual=residual,
        final_objective=final_objective,
        freeze_u1=opts.freeze_u1,
        freeze_u2=opts.freeze_u2,
    )
