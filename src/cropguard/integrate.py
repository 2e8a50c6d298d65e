"""Fixed-step classical Runge-Kutta integration and objective quadrature.

Forward integration advances the state on a uniform grid; backward
integration carries costates from the final time down to the start,
sampling the stored state and control trajectories by linear
interpolation at the half-step points.  The objective functional is
accumulated with the composite trapezoidal rule on the same grid.

Fixed steps keep every run bit-for-bit reproducible; there is no
adaptive error control here by design.  ``rk4_forward`` and
``rk4_backward`` integrate any ``f(t, y)`` or ``g(t, p, s, u)``.  The
model's kernels are faster: ``rk4_model`` unrolls the RK4 step on four
scalar locals and reproduces ``rk4_forward`` on the model's field bit
for bit; ``rk4_adjoint`` uses that the costate field is affine in the
costates, builds every backward step's RK4 map by batched matrix
products and solves the recurrence blockwise, which matches
``rk4_backward`` on ``adjoint_field`` to rounding, not bit for bit.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BlowUpError, DomainError, GridMismatchError
from .model import ModelParams, ObjectiveWeights, State, costate_matrix, model_field

_ARITH_ERRORS = (ZeroDivisionError, OverflowError, ValueError)
# Steps per batch of costate maps: ~200 KB temporaries are reused from the heap;
# 10k steps at once faulted in ~4000 fresh pages per call, a third of its time.
_MAP_CHUNK = 1024


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid: n_steps steps of width h = (tf - t0)/n_steps."""

    t0: float
    tf: float
    n_steps: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t0) and math.isfinite(self.tf)):
            raise DomainError("grid endpoints must be finite")
        if not self.tf > self.t0:
            raise DomainError(f"need tf > t0, got [{self.t0}, {self.tf}]")
        if not (isinstance(self.n_steps, int) and self.n_steps >= 1):
            raise DomainError(f"n_steps must be a positive integer, got {self.n_steps!r}")

    @property
    def h(self) -> float:
        return (self.tf - self.t0) / self.n_steps

    def times(self) -> np.ndarray:
        """Node times, length n_steps + 1."""
        return np.linspace(self.t0, self.tf, self.n_steps + 1)

    @classmethod
    def from_step(cls, t0: float, tf: float, dt: float) -> "TimeGrid":
        """Grid whose step is as close to dt as a whole number of steps allows."""
        if not (math.isfinite(dt) and dt > 0):
            raise DomainError(f"dt must be positive and finite, got {dt!r}")
        n = max(1, round((tf - t0) / dt))
        return cls(t0, tf, n)


def default_step(tf: float) -> float:
    """Default step size: 0.01 day up to tf = 100, 0.05 day beyond."""
    return 0.01 if tf <= 100.0 else 0.05


@dataclass
class Trajectory:
    """States (and optionally controls/costates) sampled on a TimeGrid.

    ``states`` has one row per grid node.  The row layout is
    (X, S, I, A) for model runs, but the integrator itself is
    dimension-agnostic so scalar convergence tests use it too.
    """

    grid: TimeGrid
    states: np.ndarray
    controls: np.ndarray | None = None
    costates: np.ndarray | None = None

    def __post_init__(self) -> None:
        n_nodes = self.grid.n_steps + 1
        self.states = np.asarray(self.states, dtype=float)
        if self.states.shape[0] != n_nodes:
            raise GridMismatchError(
                f"states have {self.states.shape[0]} rows, grid has {n_nodes} nodes"
            )
        if not np.isfinite(self.states).all():
            raise DomainError("trajectory states contain non-finite values")
        for name in ("controls", "costates"):
            arr = getattr(self, name)
            if arr is None:
                continue
            arr = np.asarray(arr, dtype=float)
            if arr.shape[0] != n_nodes:
                raise GridMismatchError(
                    f"{name} have {arr.shape[0]} rows, grid has {n_nodes} nodes"
                )
            if not np.isfinite(arr).all():
                raise DomainError(f"trajectory {name} contain non-finite values")
            setattr(self, name, arr)

    def times(self) -> np.ndarray:
        return self.grid.times()

    def node(self, i: int) -> State:
        return State(*self.states[i])

    def final_state(self) -> State:
        return self.node(-1)


def rk4_forward(
    f: Callable[[float, tuple], Sequence[float]],
    y0: Sequence[float],
    grid: TimeGrid,
) -> Trajectory:
    """Integrate dy/dt = f(t, y) over the grid with classical RK4.

    Node 0 of the result equals y0.  A non-finite state after any step
    aborts with a blow-up error naming the offending time.
    """
    y = tuple(float(v) for v in y0)
    for v in y:
        if not math.isfinite(v):
            raise DomainError(f"initial state must be finite, got {y}")
    t0, h, n = grid.t0, grid.h, grid.n_steps
    h2, h6 = 0.5 * h, h / 6.0
    out = [y]
    for i in range(n):
        t = t0 + i * h
        try:
            k1 = f(t, y)
            k2 = f(t + h2, tuple(a + h2 * b for a, b in zip(y, k1)))
            k3 = f(t + h2, tuple(a + h2 * b for a, b in zip(y, k2)))
            k4 = f(t + h, tuple(a + h * b for a, b in zip(y, k3)))
            y = tuple(
                a + h6 * (b + 2.0 * (c + dd) + e)
                for a, b, c, dd, e in zip(y, k1, k2, k3, k4)
            )
        except _ARITH_ERRORS as exc:
            raise BlowUpError(t, f"integration failed at t = {t:.6g}: {exc}") from exc
        for v in y:
            if not math.isfinite(v):
                raise BlowUpError(t + h)
        out.append(y)
    return Trajectory(grid, np.array(out, dtype=float))


def _node_array(arr: np.ndarray | Trajectory, n_nodes: int, what: str) -> np.ndarray:
    """Validate per-node data and return it as a 2-D float array."""
    if isinstance(arr, Trajectory):
        arr = arr.states
    a = np.asarray(arr, dtype=float)
    if a.ndim != 2 or a.shape[0] != n_nodes:
        raise GridMismatchError(
            f"{what} must have one row per grid node ({n_nodes}), got shape {a.shape}"
        )
    return a


def _rows(arr: np.ndarray | Trajectory | None, n_nodes: int, what: str, width: int):
    """Validate per-node data and return it as a list of float tuples."""
    if arr is None:
        return [(0.0,) * width] * n_nodes
    return [tuple(row) for row in _node_array(arr, n_nodes, what).tolist()]


def rk4_backward(
    g: Callable[..., Sequence[float]],
    p_terminal: Sequence[float],
    state_traj: Trajectory | np.ndarray,
    u_traj: np.ndarray | None,
    grid: TimeGrid,
) -> np.ndarray:
    """Integrate dp/dt = g(t, p, s, u) from tf down to t0.

    ``g`` is evaluated pointwise; the stored state and control
    trajectories are sampled at the step endpoints and, at half steps,
    by linear interpolation between adjacent nodes (their midpoint).
    The returned array has one row per node and row -1 equals
    p_terminal bit-for-bit.
    """
    if isinstance(state_traj, Trajectory) and state_traj.grid != grid:
        raise GridMismatchError("state trajectory was integrated on a different grid")
    n = grid.n_steps
    n_nodes = n + 1
    t0, h = grid.t0, grid.h
    srows = _rows(state_traj, n_nodes, "states", 4)
    urows = _rows(u_traj, n_nodes, "controls", 2)

    p = tuple(float(v) for v in p_terminal)
    for v in p:
        if not math.isfinite(v):
            raise DomainError(f"terminal costate must be finite, got {p}")
    h2, h6 = 0.5 * h, h / 6.0
    out: list[tuple] = [p] * n_nodes
    for j in range(n, 0, -1):
        t1 = t0 + j * h
        s1, s0 = srows[j], srows[j - 1]
        u1, u0 = urows[j], urows[j - 1]
        sm = tuple(0.5 * (a + b) for a, b in zip(s0, s1))
        um = tuple(0.5 * (a + b) for a, b in zip(u0, u1))
        try:
            k1 = g(t1, p, s1, u1)
            k2 = g(t1 - h2, tuple(a - h2 * b for a, b in zip(p, k1)), sm, um)
            k3 = g(t1 - h2, tuple(a - h2 * b for a, b in zip(p, k2)), sm, um)
            k4 = g(t1 - h, tuple(a - h * b for a, b in zip(p, k3)), s0, u0)
            p = tuple(
                a - h6 * (b + 2.0 * (c + dd) + e)
                for a, b, c, dd, e in zip(p, k1, k2, k3, k4)
            )
        except _ARITH_ERRORS as exc:
            raise BlowUpError(t1, f"adjoint integration failed at t = {t1:.6g}: {exc}") from exc
        for v in p:
            if not math.isfinite(v):
                raise BlowUpError(t1 - h)
        out[j - 1] = p
    return np.array(out, dtype=float)


def rk4_model(
    params: ModelParams,
    y0: Sequence[float],
    grid: TimeGrid,
    u: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the model over the grid with classical RK4.

    ``u`` holds the controls (u1, u2), one row per node; the step from
    node i samples node i, the midpoint of nodes i and i+1, and node
    i+1.  ``u`` of None integrates the uncontrolled system, u = (1, 1).
    Results and errors equal those of ``rk4_forward`` on the matching
    field bit for bit.
    """
    f = model_field(params)
    n = grid.n_steps
    y = tuple(float(v) for v in y0)
    for v in y:
        if not math.isfinite(v):
            raise DomainError(f"initial state must be finite, got {y}")
    if u is None:
        controls = (itertools.repeat(1.0),) * 6
    else:
        u = _node_array(u, n + 1, "controls")
        mid = 0.5 * (u[:-1] + u[1:])
        controls = [c.tolist() for c in (u[:-1, 0], u[:-1, 1], mid[:, 0], mid[:, 1],
                                          u[1:, 0], u[1:, 1])]
    t0, h = grid.t0, grid.h
    h2, h6 = 0.5 * h, h / 6.0
    isfinite = math.isfinite
    X, S, I, A = y
    out = [y]
    # (u1, u2) at node i, (m1, m2) at the midpoint, (v1, v2) at node i+1
    for i, u1, u2, m1, m2, v1, v2 in zip(range(n), *controls):
        try:
            aX, aS, aI, aA = f(X, S, I, A, u1, u2)
            bX, bS, bI, bA = f(X + h2 * aX, S + h2 * aS, I + h2 * aI, A + h2 * aA, m1, m2)
            cX, cS, cI, cA = f(X + h2 * bX, S + h2 * bS, I + h2 * bI, A + h2 * bA, m1, m2)
            dX, dS, dI, dA = f(X + h * cX, S + h * cS, I + h * cI, A + h * cA, v1, v2)
        except _ARITH_ERRORS as exc:
            t = t0 + i * h
            raise BlowUpError(t, f"integration failed at t = {t:.6g}: {exc}") from exc
        X = X + h6 * (aX + 2.0 * (bX + cX) + dX)
        S = S + h6 * (aS + 2.0 * (bS + cS) + dS)
        I = I + h6 * (aI + 2.0 * (bI + cI) + dI)
        A = A + h6 * (aA + 2.0 * (bA + cA) + dA)
        if not (isfinite(X) and isfinite(S) and isfinite(I) and isfinite(A)):
            raise BlowUpError(t0 + i * h + h)
        out.append((X, S, I, A))
    return Trajectory(grid, np.array(out, dtype=float))


def rk4_adjoint(
    params: ModelParams,
    w: ObjectiveWeights,
    state_traj: Trajectory | np.ndarray,
    u: np.ndarray,
    grid: TimeGrid,
) -> np.ndarray:
    """Integrate the model's costates from p(tf) = 0 down to t0.

    States and controls are sampled as ``rk4_backward`` samples them.
    The costate field is affine in p, so the RK4 step from node j is an
    exact affine map, a 5x5 matrix T_j acting on (p_j, 1).  The maps are
    built in batches of steps, each from ``costate_matrix`` at its own
    nodes and midpoints, and written in place into the block-padded
    array that ``_solve_backward`` walks.  The result matches
    ``rk4_backward`` on ``adjoint_field(params, w)`` from p(tf) = 0 to
    rounding, not bit for bit, as terms are summed in another order
    (the tests allow 1e-13 of max|p|).  A non-finite costate raises a
    blow-up error at the time of the first such node back from tf.
    """
    if isinstance(state_traj, Trajectory) and state_traj.grid != grid:
        raise GridMismatchError("state trajectory was integrated on a different grid")
    n = grid.n_steps
    states = _node_array(state_traj, n + 1, "states")
    u1 = _node_array(u, n + 1, "controls")[:, 0]
    h = grid.h
    L = math.isqrt(n - 1) + 1
    pad = -n % L
    eye = np.eye(5)
    # blocks of L = ceil(sqrt(n)) steps; T[pad + j] maps the costate at node
    # j+1 to node j, and identity maps below node 0 fill the lowest block
    T = np.empty((n + pad, 5, 5))
    T[:pad] = eye
    with np.errstate(all="ignore"):
        for a in range(0, n, _MAP_CHUNK):
            b = min(a + _MAP_CHUNK, n)
            # rows 0..b-a sample nodes a..b, the rest the midpoints between them
            s = np.concatenate((states[a:b + 1], 0.5 * (states[a:b] + states[a + 1:b + 1])))
            v = np.concatenate((u1[a:b + 1], 0.5 * (u1[a:b] + u1[a + 1:b + 1])))
            G = costate_matrix(params, w, *s.T, v)
            # the step into node j reads node j+1 (its first stage), the midpoint and node j
            G0, G1, Gh = G[:b - a], G[1:b - a + 1], G[b - a + 1:]
            k2 = Gh @ (eye - 0.5 * h * G1)
            k3 = Gh @ (eye - 0.5 * h * k2)
            k4 = G0 @ (eye - h * k3)
            T[pad + a:pad + b] = eye - h / 6.0 * (G1 + 2.0 * (k2 + k3) + k4)
        p = _solve_backward(T.reshape(-1, L, 5, 5))[pad:]
    bad = np.flatnonzero(~np.isfinite(p).all(axis=1))
    if bad.size:
        raise BlowUpError(grid.t0 + bad[-1] * h)
    return p


def _solve_backward(steps: np.ndarray) -> np.ndarray:
    """Solve x_k = T_k x_{k+1}, k = K-1..0, from x_K = (0, 0, 0, 0, 1).

    ``steps`` holds T_0..T_{K-1} cut into blocks of equal length, shape
    (blocks, L, 5, 5).  Returns the first four components of x_0..x_K,
    one row per node.  Pass 1 composes each block's map, vectorized
    across blocks; a loop from the top block down carries the value
    from each block to the next; pass 2 applies the maps inside all
    blocks at once, from the top of each block down.
    """
    blocks, L = steps.shape[:2]
    composite = steps[:, -1]
    for i in range(L - 2, -1, -1):
        composite = steps[:, i] @ composite
    entry = np.empty((blocks, 5, 1))
    entry[-1] = [[0.0], [0.0], [0.0], [0.0], [1.0]]
    for b in range(blocks - 2, -1, -1):
        entry[b] = composite[b + 1] @ entry[b + 1]
    x = np.zeros((blocks * L + 1, 5, 1))
    inner = x[:-1].reshape(blocks, L, 5, 1)
    for i in range(L - 1, -1, -1):
        entry = inner[:, i] = steps[:, i] @ entry
    return x[:, :4, 0]


def integrate_cost(
    traj: Trajectory,
    u_traj: np.ndarray | None,
    w: ObjectiveWeights,
) -> float:
    """Trapezoidal value of the objective integral along a trajectory.

    Controls come from ``u_traj`` if given, else from the trajectory's
    own stored controls; both must share the trajectory's grid.
    """
    states = traj.states
    if states.ndim != 2 or states.shape[1] != 4:
        raise DomainError(f"cost needs (X, S, I, A) states, got shape {states.shape}")
    u = u_traj if u_traj is not None else traj.controls
    if u is None:
        raise GridMismatchError("no controls stored on the trajectory or supplied")
    u = np.asarray(u, dtype=float)
    if u.shape != (states.shape[0], 2):
        raise GridMismatchError(
            f"controls must have shape ({states.shape[0]}, 2), got {u.shape}"
        )
    S = states[:, 1]
    A = states[:, 3]
    vals = (
        w.A1 * S * S
        - w.A2 * A * A
        + 0.5 * (w.B1 * u[:, 0] ** 2 + w.B2 * u[:, 1] ** 2)
    )
    return float(np.trapezoid(vals, dx=traj.grid.h))
