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
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import DomainError, GridMismatchError
from .integrate import TimeGrid, Trajectory, integrate_cost, rk4_adjoint, rk4_model
from .model import ControlValue, Costate, ModelParams, ObjectiveWeights, State, check_state

_PIN_TOL = 1e-12


@dataclass(frozen=True)
class SweepOptions:
    """Iteration knobs for the forward-backward sweep.

    ``initial_controls`` holds one (u1, u2) row per grid node; None
    starts from the interior guess u = (0.5, 0.5) at every node,
    avoiding dead clamps on the first backward pass.  ``freeze_u1``/``freeze_u2`` pin a control channel
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
    """Converged (or best-effort) sweep iterate with certificates.

    The controls and costates are stored once, as the (n+1, 2) and
    (n+1, 4) arrays ``states.controls`` and ``states.costates``.
    ``controls`` and ``costates`` are read-only tuples of
    ``ControlValue`` / ``Costate`` rows over them, built on first access.
    """

    states: Trajectory
    objective_history: tuple[float, ...]
    change_history: tuple[float, ...]
    iterations_used: int
    converged: bool
    stationarity_residual: float
    final_objective: float
    freeze_u1: bool = False
    freeze_u2: bool = False

    @cached_property
    def controls(self) -> tuple[ControlValue, ...]:
        return tuple(map(ControlValue._make, self.states.controls.tolist()))

    @cached_property
    def costates(self) -> tuple[Costate, ...]:
        return tuple(map(Costate._make, self.states.costates.tolist()))


def _stationary_controls(s, p, params: ModelParams, w: ObjectiveWeights) -> tuple:
    """Unclipped minimizer (u1*, u2*) of the Hamiltonian: dH/du_i = B_i (u_i - u_i*).

    ``s`` = (X, S, I, A) and ``p`` = (p1, p2, p3, p4) hold floats or per-node arrays.
    """
    _X, S, _I, A = s
    _p1, p2, p3, p4 = p
    return ((p2 - p3) * params.lam * A * S / (w.B1 * (params.a + A)),
            -p4 * params.gamma / w.B2)


def control_update(
    s: State, p: Costate, params: ModelParams, w: ObjectiveWeights
) -> ControlValue:
    """Pointwise minimizer of the Hamiltonian in (u1, u2), clipped to [0, 1]."""
    raw1, raw2 = _stationary_controls(s, p, params, w)
    return ControlValue(min(1.0, max(0.0, raw1)), min(1.0, max(0.0, raw2)))


def _candidates(
    states: np.ndarray, costates: np.ndarray, params: ModelParams, w: ObjectiveWeights,
    free: np.ndarray,
) -> np.ndarray:
    """Clipped minimizers per node, zero in the channels that ``free`` marks 0."""
    raw = np.column_stack(_stationary_controls(states.T, costates.T, params, w))
    return (np.clip(raw, 0.0, 1.0) + 0.0) * free  # + 0.0 normalizes -0.0 from clipped negatives


def _hinged_gradient(
    u: np.ndarray, states: np.ndarray, costates: np.ndarray,
    params: ModelParams, w: ObjectiveWeights, free: np.ndarray,
) -> float:
    """Max hinged |dH/du| over nodes and the channels that ``free`` marks 1:
    one-sided at the bounds, zero contribution from a bound the gradient
    pushes against."""
    star = np.column_stack(_stationary_controls(states.T, costates.T, params, w))
    g = (w.B1, w.B2) * (u - star)
    vals = np.where(u <= _PIN_TOL, np.maximum(0.0, -g),
                    np.where(u >= 1.0 - _PIN_TOL, np.maximum(0.0, g), np.abs(g)))
    return max(0.0, float((vals * free).max()))  # max(0.0, -0.0) is 0.0


def _free_mask(freeze_u1: bool, freeze_u2: bool) -> np.ndarray:
    """1 for each control channel the sweep updates, 0 for a frozen one."""
    return np.array([not freeze_u1, not freeze_u2], dtype=float)


def stationarity_residual(
    sol: SweepSolution, params: ModelParams, w: ObjectiveWeights
) -> float:
    """Recompute the hinged Hamiltonian-gradient certificate of a solution."""
    run = sol.states
    return _hinged_gradient(run.controls, run.states, run.costates, params, w,
                            _free_mask(sol.freeze_u1, sol.freeze_u2))


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
    free = _free_mask(opts.freeze_u1, opts.freeze_u2)

    if opts.initial_controls is None:
        u = np.full((n_nodes, 2), 0.5)
    else:
        try:
            u = np.asarray(opts.initial_controls, dtype=float)
        except (TypeError, ValueError) as exc:
            raise GridMismatchError(
                f"initial_controls must be {n_nodes} rows of (u1, u2): {exc}"
            ) from exc
        if u.shape != (n_nodes, 2):
            raise GridMismatchError(
                f"initial_controls must have shape ({n_nodes}, 2), got {u.shape}"
            )
        if not np.isfinite(u).all() or u.min() < -_PIN_TOL or u.max() > 1.0 + _PIN_TOL:
            raise DomainError("initial controls must be finite and lie in [0, 1]")
        u = np.clip(u, 0.0, 1.0)
    u = u * free

    def forward_backward(u: np.ndarray) -> tuple[Trajectory, np.ndarray]:
        traj = rk4_model(params, y0, grid, u)
        return traj, rk4_adjoint(params, w, traj, u, grid)

    theta = opts.relaxation_theta
    objective_history: list[float] = []
    change_history: list[float] = []
    converged = False
    traj, costates = forward_backward(u)
    for _ in range(opts.max_iterations):
        objective_history.append(integrate_cost(traj, u, w))
        u_new = u + theta * (_candidates(traj.states, costates, params, w, free) - u)
        change = float(np.abs(u_new - u).max())
        change_history.append(change)
        u = u_new
        traj, costates = forward_backward(u)
        if change <= opts.tolerance * max(1.0, float(np.abs(u).max())):
            converged = True
            break

    # Snap to the exact pointwise minimizer so bound-clamped nodes sit at
    # 0/1 rather than a relaxation-limited distance away, then refresh the
    # state/costate pair for consistency with the returned controls.
    u = _candidates(traj.states, costates, params, w, free)
    traj, costates = forward_backward(u)
    return SweepSolution(
        states=Trajectory(grid, traj.states, u, costates),
        objective_history=tuple(objective_history),
        change_history=tuple(change_history),
        iterations_used=len(change_history),
        converged=converged,
        stationarity_residual=_hinged_gradient(u, traj.states, costates, params, w, free),
        final_objective=integrate_cost(traj, u, w),
        freeze_u1=opts.freeze_u1,
        freeze_u2=opts.freeze_u2,
    )
