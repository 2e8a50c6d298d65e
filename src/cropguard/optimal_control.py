"""Forward-backward sweep solver for the two-control pest problem.

Each iteration integrates the controlled state system forward, the
adjoint system backward from zero terminal costates, and forms the
candidate controls Phi(u): the pointwise minimizers of the Hamiltonian,
clipped to [0, 1].  The optimum is a fixed point of Phi.  The iterate is
updated by type-II Anderson mixing of Phi (Walker & Ni, SIAM J. Numer.
Anal. 49 (2011) 1715): the last few residual differences are combined by
least squares, mixed with the weight ``relaxation_theta`` and projected
back onto [0, 1].  The first iteration, and any iteration whose
least-squares problem is ill-conditioned, whose residual |Phi(u) - u|
grew, or whose mixed step would pass the stop rule that the plain step
fails, takes the plain relaxed step u + theta (Phi(u) - u) instead and
restarts the mixing history.  The loop stops when the
applied control change is small relative to the control magnitude, and
gives up early when the best residual stops improving.  The returned
controls are snapped, so that bound-clamped nodes sit at 0 or 1 rather
than a relaxation-limited distance away; a converged sweep usually
snaps from its last pass and needs one more forward/backward pass, not
two (see ``solve``).  The returned solution carries a stationarity
residual: the hinged Hamiltonian-gradient magnitude, which vanishes at
an exact interior optimum and is one-sided at the control bounds.

Every sweep starts from u = 0.5 on the free control channels.  On a
fine grid it is nested (mesh refinement; Betts, Practical Methods for
Optimal Control and Estimation Using Nonlinear Programming, 2nd ed.,
SIAM 2010, ch. 4): it first runs on a grid ten times coarser to a
looser stop rule, which finds the switching structure at a tenth of the
cost per pass.  The fine grid then starts from Phi of the coarse stage's
last pass: its states and costates, which are smooth, are interpolated
linearly onto the fine nodes and minimize the Hamiltonian there, so the
kinks of the clipped controls fall at fine resolution instead of being
cut across.  The iteration histories, and so the rows of the CLI's
``history.csv``, begin with the coarse iterations.  A coarse stage that
does not converge (it stalls, runs out of budget, or blows up because
RK4 is unstable at the longer step) is dropped, and the sweep runs on
the fine grid as if it had never started.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .errors import BlowUpError, DomainError
from .integrate import TimeGrid, Trajectory, _forward_backward, _Pass, integrate_cost
from .model import (CONTROL_TOL, ControlValue, Costate, ModelParams, ObjectiveWeights, State,
                    check_count, check_state)

# Anderson mixing: residual differences kept, and the condition number of
# their least-squares problem above which the history is dropped.
_DEPTH = 5
_MAX_CONDITION = 1e10
# Iterations without a new best residual before the sweep is declared
# stalled.  Converged runs over 120 random problems (tf = 20, 2000 steps)
# went at most 7 iterations without one; all 9 runs that stalled also left
# the relaxed sweep unconverged after 300 iterations.
_STALL_WINDOW = 15
# Nested iteration: a grid of at least _COARSEN * _MIN_COARSE_STEPS steps
# is first swept on one _COARSEN times coarser, until the relative control
# change is below _COARSE_TOL.  At the defaults, 1e-3 takes 8 coarse and 4
# fine iterations, with a first fine residual of 5.9e-5.  Over the 120
# problems of tests/stall_survey.py, 5e-3 left two more of them stalled
# (112 converged), and 1e-4 took 930 coarse passes against 843 to save 2
# of 829 fine ones.
_COARSEN = 10
_MIN_COARSE_STEPS = 50
_COARSE_TOL = 1e-3
# Bytes a grid node costs ``solve`` at least: at the defaults on tf = 100,
# peak RSS went 33 -> 116 -> 199 -> 282 MiB from 1k to 100k, 200k and 300k
# steps, 870 B a step, against 256 for a model run (``integrate._NODE_BYTES``).
# Each grid's costate maps (200 B a step) and its last run (48 B) live
# between passes, so the forward passes peak on top of them.
SOLVE_NODE_BYTES = 900


class StopReason(enum.Enum):
    """Why ``solve`` stopped iterating."""

    CONVERGED = "converged"
    BUDGET = "iteration budget exhausted"
    STALLED = "stalled"


@dataclass(frozen=True)
class SweepOptions:
    """Iteration knobs for the forward-backward sweep.

    ``relaxation_theta`` is the Anderson mixing weight, and the weight
    of the plain relaxed steps that start and restart the mixing.
    ``freeze_u1``/``freeze_u2`` pin a control channel to zero
    throughout (it is excluded from updates, convergence measurement,
    and the stationarity residual).
    """

    grid: TimeGrid
    max_iterations: int = 5000
    tolerance: float = 1e-6
    relaxation_theta: float = 0.5
    freeze_u1: bool = False
    freeze_u2: bool = False

    def __post_init__(self) -> None:
        if not isinstance(self.grid, TimeGrid):
            raise DomainError("grid must be a TimeGrid")
        count = check_count(self.max_iterations, "max_iterations")
        object.__setattr__(self, "max_iterations", count)
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
    The controls are the snap ``solve`` describes, and the states and
    costates are the forward and backward passes on them.
    ``residual_history[k]`` is |Phi(u) - u|_inf at the k-th iterate, and
    ``stop_reason`` says why the loop ended.  ``iterations_used`` is the
    length of ``change_history``, and ``converged`` is true exactly when
    ``stop_reason`` is ``StopReason.CONVERGED``.  The first
    ``coarse_iterations`` entries of each history come from the coarse
    stage of a nested solve.
    """

    states: Trajectory
    objective_history: tuple[float, ...]
    change_history: tuple[float, ...]
    residual_history: tuple[float, ...]
    stop_reason: StopReason
    stationarity_residual: float
    final_objective: float
    coarse_iterations: int = 0

    @property
    def iterations_used(self) -> int:
        return len(self.change_history)

    @property
    def converged(self) -> bool:
        return self.stop_reason is StopReason.CONVERGED

    @cached_property
    def controls(self) -> tuple[ControlValue, ...]:
        return tuple(map(ControlValue._make, self.states.controls.tolist()))

    @cached_property
    def costates(self) -> tuple[Costate, ...]:
        return tuple(map(Costate._make, self.states.costates.tolist()))


def _stationary_controls(states, costates, params: ModelParams, w: ObjectiveWeights):
    """Unclipped minimizers (u1*, u2*) of the Hamiltonian, one row per node:
    dH/du_i = B_i (u_i - u_i*)."""
    S, A = states[:, 1], states[:, 3]
    p2, p3, p4 = costates[:, 1], costates[:, 2], costates[:, 3]
    return np.column_stack(((p2 - p3) * params.lam * A * S / (w.B1 * (params.a + A)),
                            -p4 * params.gamma / w.B2))


def _candidates(
    states: np.ndarray, costates: np.ndarray, params: ModelParams, w: ObjectiveWeights,
    free: np.ndarray,
) -> np.ndarray:
    """Clipped minimizers per node, zero in the channels that ``free`` marks 0."""
    raw = _stationary_controls(states, costates, params, w)
    return (np.clip(raw, 0.0, 1.0) + 0.0) * free  # + 0.0 normalizes -0.0 from clipped negatives


def _hinged_gradient(
    u: np.ndarray, states: np.ndarray, costates: np.ndarray,
    params: ModelParams, w: ObjectiveWeights, free: np.ndarray,
) -> float:
    """Max hinged |dH/du| over nodes and the channels that ``free`` marks 1:
    one-sided at the bounds, zero contribution from a bound the gradient
    pushes against."""
    g = (w.B1, w.B2) * (u - _stationary_controls(states, costates, params, w))
    vals = np.where(u <= CONTROL_TOL, np.maximum(0.0, -g),
                    np.where(u >= 1.0 - CONTROL_TOL, np.maximum(0.0, g), np.abs(g)))
    return max(0.0, float((vals * free).max()))  # max(0.0, -0.0) is 0.0


def _free_mask(freeze_u1: bool, freeze_u2: bool) -> np.ndarray:
    """1 for each control channel the sweep updates, 0 for a frozen one."""
    return np.array([not freeze_u1, not freeze_u2], dtype=float)


def _anderson(u, f, d_u, d_f) -> Callable[[float], np.ndarray] | None:
    """Type-II Anderson steps from u with residual f = Phi(u) - u: a
    function of the weight theta giving the step mixed with that weight
    and projected onto the admissible controls.  The mixing coefficients
    do not depend on theta, so every weight shares one least-squares
    solve.  None when that problem is rank-deficient or ill-conditioned.
    A frozen channel is 0 in u, in f and in every stored difference, so
    its step is 0 too."""
    dF = np.column_stack(d_f)
    gamma, _, rank, sv = np.linalg.lstsq(dF, f.ravel(), rcond=None)
    if rank < len(d_f) or sv[0] > _MAX_CONDITION * sv[-1]:
        return None
    dU = np.column_stack(d_u)

    def mixed(theta: float) -> np.ndarray:
        step = theta * f - ((dU + theta * dF) @ gamma).reshape(u.shape)
        return np.clip(u + step, 0.0, 1.0)
    return mixed


def _meets_stop_rule(u_new, u, tolerance: float) -> bool:
    """The stop rule: max-norm change <= tolerance * max(1, |u_new|_inf)."""
    return float(np.abs(u_new - u).max()) <= tolerance * max(1.0, float(np.abs(u_new).max()))


def solve(
    params: ModelParams, w: ObjectiveWeights, y0: State, opts: SweepOptions
) -> SweepSolution:
    """Run the Anderson-accelerated forward-backward sweep to convergence,
    stall or iteration cap.

    Convergence: applied max-norm control change <= tolerance *
    max(1, max-norm of the updated controls).  A stall: the best
    residual |Phi(u) - u|_inf has not improved for ``_STALL_WINDOW``
    iterations; the sweep then stops with ``StopReason.STALLED``.  The
    objective of each iterate is recorded before its update, so
    objective_history[k] is the cost of the controls the k-th forward
    pass used, and residual_history[k] its residual.

    The returned controls are snapped without extending the history.
    When the sweep converges and Phi(u_k) of the last pass also meets
    the stop rule against u_k, the snap is the type-II Anderson estimate
    at weight 1 from that pass's data (Phi(u_k) itself when the mixing
    history is empty), and one forward/backward refresh gives its states
    and costates.  If Phi(u_k) misses the stop rule, the stationarity
    residual there is above ``tolerance``, or the sweep stalled or ran
    out of budget, the snap is Phi at the last updated iterate, followed
    by its own refresh: one pass more.  Either way the states and
    costates are those of the returned controls.

    The sweep starts from u = 0.5 on the free channels.  A grid of at
    least ``_COARSEN * _MIN_COARSE_STEPS`` steps is first swept on a
    grid ``_COARSEN`` times coarser, to the looser stop rule
    ``_COARSE_TOL``, and the sweep on the grid itself starts from the
    candidate controls ``_candidates`` of the stage's last forward/backward
    pass, its states and costates interpolated linearly onto the fine
    nodes.  The histories then
    hold the coarse iterations followed by the fine ones,
    ``coarse_iterations`` says how many, ``iterations_used`` counts both,
    and ``max_iterations`` bounds their sum.  Each stage starts with a
    plain step and counts its own stall window.  Only a converged coarse
    stage is kept: one that stalls, exhausts the budget or blows up is
    dropped with its history, and the fine sweep starts from u = 0.5 with
    the whole budget, so the result is the direct solve's at the cost of
    at most ``max_iterations`` coarse passes.  A grid whose nodes cannot
    fit in memory at ``SOLVE_NODE_BYTES`` each raises a domain error
    before anything is allocated.

    Each grid keeps a record of its last pass (``integrate._Pass``), and
    each pass after the first continues it (``_forward_backward``): from
    the first node whose controls changed, where both controls usually
    sit on their bounds, the forward pass integrates and the costate
    pass builds the step maps; the nodes before it and the maps that read
    no later node are kept.  The nodes and the costates are those of
    whole passes bit for bit.
    """
    grid = opts.grid
    grid.check_memory(SOLVE_NODE_BYTES)
    y0 = check_state(tuple(map(float, y0)))
    free = _free_mask(opts.freeze_u1, opts.freeze_u2)
    theta = opts.relaxation_theta

    def sweep(record: _Pass, u: np.ndarray, tolerance: float, budget: int):
        """Iterate from u for at most ``budget`` iterations on the grid of
        ``record``, each pass continuing the one it holds.  Returns the
        last updated iterate, on which no forward/backward pass has run
        yet, why the stage stopped, the last pass's (run, costates) (None
        if the budget is 0), the stage's
        (objectives, changes, residuals) histories, and the controls to
        snap to without another pass: on convergence, when Phi of the
        last pass itself meets the stop rule, the type-II Anderson
        estimate at weight 1 from that pass's data, or that Phi when
        there is no mixing history; None otherwise."""
        history = objectives, changes, residuals = [], [], []
        last = None
        # the last _DEPTH iterate differences u_k - u_(k-1) and residual
        # differences f_k - f_(k-1), flattened; f = Phi(u) - u
        d_u, d_f = [], []
        u_prev = f_prev = None
        for _ in range(budget):
            run, costates = last = _forward_backward(params, w, y0, u, record)
            objectives.append(integrate_cost(run, w))
            phi = _candidates(run.states, costates, params, w, free)
            f = phi - u
            residual = float(np.abs(f).max())
            if residuals and residual > residuals[-1]:
                d_u.clear()  # a grown residual restarts the mixing
                d_f.clear()
            elif f_prev is not None:
                d_u.append((u - u_prev).ravel())
                d_f.append((f - f_prev).ravel())
                del d_u[:-_DEPTH], d_f[:-_DEPTH]
            residuals.append(residual)
            u_prev, f_prev = u, f

            plain = u + theta * f
            mixed = _anderson(u, f, d_u, d_f) if d_f else None
            u_new = None if mixed is None else mixed(theta)
            # A mixed step can cancel to almost no move while u is far from a
            # fixed point (the stored u differences are then nearly dependent);
            # it must not pass the stop rule that the plain step would fail.
            if u_new is None or (_meets_stop_rule(u_new, u, tolerance)
                                 and not _meets_stop_rule(plain, u, tolerance)):
                d_u.clear()
                d_f.clear()
                mixed, u_new = None, plain
            changes.append(float(np.abs(u_new - u).max()))
            if _meets_stop_rule(u_new, u, tolerance):
                snap = None
                if _meets_stop_rule(phi, u, tolerance):  # weight 1 on this pass's history
                    snap = phi if mixed is None else mixed(1.0)
                return u_new, StopReason.CONVERGED, last, history, snap
            u = u_new
            if len(residuals) - 1 - int(np.argmin(residuals)) >= _STALL_WINDOW:
                return u, StopReason.STALLED, last, history, None
        return u, StopReason.BUDGET, last, history, None

    u = np.full((grid.n_steps + 1, 2), 0.5) * free
    coarse_history = ((), (), ())  # kept only from a converged coarse stage
    if grid.n_steps >= _COARSEN * _MIN_COARSE_STEPS:
        coarse = TimeGrid(grid.t0, grid.tf, grid.n_steps // _COARSEN)
        u_coarse = np.full((coarse.n_steps + 1, 2), 0.5) * free
        try:
            _, coarse_stop, last, stage_history, _ = sweep(
                _Pass(coarse), u_coarse, max(opts.tolerance, _COARSE_TOL), opts.max_iterations)
        except BlowUpError:  # RK4 can be unstable at the longer coarse step
            coarse_stop = None
        if coarse_stop is StopReason.CONVERGED:
            coarse_history = stage_history
            # Phi of the last coarse pass on the fine nodes: its states and
            # costates are smooth, so linear interpolation does not cut
            # across the kinks of the clipped controls.
            run, costates = last
            fine = np.column_stack([np.interp(grid.times(), coarse.times(), c)
                                    for c in np.hstack((run.states, costates)).T])
            u = _candidates(fine[:, :4], fine[:, 4:], params, w, free)
    coarse_iterations = len(coarse_history[1])
    record = _Pass(grid)
    u, stop, _, fine_history, snap = sweep(
        record, u, opts.tolerance, opts.max_iterations - coarse_iterations)
    objective_history, change_history, residual_history = (
        (*coarse, *fine) for coarse, fine in zip(coarse_history, fine_history))

    # Keep the snap from the last pass if its refreshed certificate meets the
    # tolerance; otherwise snap to Phi at the returned iterate and refresh.
    certificate = math.inf
    if snap is not None:
        run, costates = _forward_backward(params, w, y0, snap, record)
        certificate = _hinged_gradient(snap, run.states, costates, params, w, free)
    if certificate <= opts.tolerance:
        u = snap
    else:
        run, costates = _forward_backward(params, w, y0, u, record)
        u = _candidates(run.states, costates, params, w, free)
        run, costates = _forward_backward(params, w, y0, u, record)
        certificate = _hinged_gradient(u, run.states, costates, params, w, free)
    return SweepSolution(
        states=Trajectory(grid, run.states, u, costates),
        objective_history=objective_history,
        change_history=change_history,
        coarse_iterations=coarse_iterations,
        stop_reason=stop,
        residual_history=residual_history,
        stationarity_residual=certificate,
        final_objective=integrate_cost(run, w),
    )
