"""Fixed-step classical Runge-Kutta integration and objective quadrature.

Forward integration advances the state on a uniform grid; the costate
pass carries the costates from the final time down to the start,
sampling the stored state and control trajectories at the step
endpoints and, at half steps, at the midpoint of adjacent nodes.  The
objective functional is accumulated with the composite trapezoidal
rule on the same grid.

Fixed steps keep every run bit-for-bit reproducible; there is no
adaptive error control here by design.  ``rk4_forward`` runs the
generic RK4 loop, unrolled on four scalar components, for any
``f(t, y)``; the tests take it as the reference.  ``rk4_model`` runs
the model's own kernel, ``_KERNEL``: the same loop with the field's
text (``model._FIELD``) inlined at each of the four stages, compiled
once per process and bound to each parameter set, so a step makes no
Python call.  Both give the same nodes and errors bit for bit.  Every
run carries its controls; an uncontrolled one carries u = (1, 1).  The
kernel runs the grid in the chunks of ``_chunks``, each carrying the
global step index, and ``rk4_model`` joins their nodes into one array.
``rk4_adjoint`` is a separate kernel: it uses that the costate field
is affine in the costates, builds every backward step's RK4 map by
batched matrix products and solves the recurrence blockwise.
``_forward_backward``, the sweep's pass, runs both on one grid and
continues the last pass there (``_Pass``): from the first node whose
controls changed it decides once where both passes start, keeps the
last run's nodes and the costate maps below that step, and runs only
the rest, so a sweep's later passes integrate only what their new
controls can reach.  ``rk4_model`` and ``rk4_adjoint`` are the whole
passes of the same code.
"""

from __future__ import annotations

import itertools
import math
import os
import re
import sys
import textwrap
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import BlowUpError, DomainError, GridMismatchError, NonFiniteError
from .model import (_FIELD, ModelParams, ObjectiveWeights, State, _bind_compiled, check_controls,
                    check_count, costate_matrix, running_cost)

_ARITH_ERRORS = (ZeroDivisionError, OverflowError, ValueError)
# Bytes per node that a model run's memory bound assumes: a 400k-step
# simulate peaks ~80 B per step above a 40k-step one (its nodes and the CSV's
# cells).
_NODE_BYTES = 256
# Steps per chunk (``_chunks``) of either pass: a forward chunk's stage
# controls and nodes (~0.4 MB) are all a run holds before it stores the nodes
# as an array, and a costate chunk's ~200 KB of temporaries are reused from
# the heap (10k steps faulted in ~4000 fresh pages a call, a third of its time).
_CHUNK_STEPS = 1024


def _max_steps(node_bytes: int) -> int:
    """The most steps whose stored nodes fit in physical memory, at
    ``node_bytes`` each; ``sys.maxsize`` where the memory size is unknown."""
    try:
        memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return sys.maxsize
    return memory // node_bytes if memory > 0 else sys.maxsize


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
        object.__setattr__(self, "n_steps", check_count(self.n_steps, "n_steps"))

    @property
    def h(self) -> float:
        return (self.tf - self.t0) / self.n_steps

    def times(self) -> np.ndarray:
        """Node times, length n_steps + 1."""
        return np.linspace(self.t0, self.tf, self.n_steps + 1)

    def check_memory(self, node_bytes: int) -> None:
        """Raise a domain error unless the grid's nodes fit in physical
        memory at ``node_bytes`` each (``_max_steps``): a longer run could
        only end killed.  This is the one memory rule: each run applies it
        at its own cost per node before it allocates."""
        limit = _max_steps(node_bytes)
        if self.n_steps > limit:  # a count past any float cannot take :.6g
            got = f"{self.n_steps:.6g}" if self.n_steps < 1e308 else "more than 1e+308"
            raise DomainError(f"n_steps must be at most {limit}, the nodes that fit in "
                              f"physical memory; got {got}")

    @classmethod
    def from_step(cls, t0: float, tf: float, dt: float) -> "TimeGrid":
        """Grid whose step is as close to dt as a whole number of steps
        allows; the step count (tf - t0)/dt must be finite.  Whether the
        grid's nodes fit in memory is for the run to check
        (``check_memory``)."""
        if not (math.isfinite(dt) and dt > 0):
            raise DomainError(f"dt must be positive and finite, got {dt!r}")
        steps = (tf - t0) / dt
        if not math.isfinite(steps):
            raise DomainError(f"(tf - t0)/dt must be a finite step count, got {steps}")
        return cls(t0, tf, max(1, round(steps)))


def default_step(tf: float) -> float:
    """Default step size: 0.01 day up to tf = 100, 0.05 day beyond."""
    return 0.01 if tf <= 100.0 else 0.05


@dataclass
class Trajectory:
    """A run on a TimeGrid: states, controls, and the costates if any.

    Each array has one row per grid node; states are (X, S, I, A) rows,
    controls (u1, u2) rows and costates (p1, p2, p3, p4) rows.  A run
    carries the controls that drove it, which must pass ``check_controls``;
    an uncontrolled run's (None) are u = (1, 1), a read-only view that
    costs no memory.  ``rk4_adjoint`` and ``integrate_cost`` read them
    and the grid from it.
    """

    grid: TimeGrid
    states: np.ndarray
    controls: np.ndarray | None = None
    costates: np.ndarray | None = None

    def __post_init__(self) -> None:
        n_nodes = self.grid.n_steps + 1
        for name in ("states", "costates"):
            arr = getattr(self, name)
            if arr is None and name == "costates":
                continue
            arr = _node_array(arr, n_nodes, name, 4)
            if not np.isfinite(arr).all():
                raise DomainError(f"trajectory {name} contain non-finite values")
            setattr(self, name, arr)
        self.controls = _controls(self.controls, n_nodes)

    def times(self) -> np.ndarray:
        return self.grid.times()

    def node(self, i: int) -> State:
        return State(*self.states[i])


def _initial_state(y0) -> tuple:
    """y0 as a tuple of floats; a non-finite component raises a domain error."""
    y = tuple(float(v) for v in y0)
    for v in y:
        if not math.isfinite(v):
            raise DomainError(f"initial state must be finite, got {y}")
    return y


def _failed_step(t: float, exc: Exception) -> BlowUpError:
    """The blow-up error for a field evaluation that raised ``exc`` in the
    step from time t."""
    return BlowUpError(t, f"integration failed at t = {t:.6g}: {exc}")


def _nodes(out: list) -> np.ndarray:
    """A run's list of 4-tuple nodes as an (n, 4) float array."""
    return np.fromiter(itertools.chain.from_iterable(out), float, 4 * len(out)).reshape(-1, 4)


def _stage(k: str, controls: str, step: str | None = None) -> str:
    """Stage ``k`` (a to d) of ``_KERNEL``'s step as source text.  It sets
    the stage state Xk, Sk, Ik, Ak to the node plus ``step`` ("h2 * a"
    gives Xb = X + h2 * aX; with no step the stage reads the node
    itself), then runs ``_FIELD`` on that state and the controls
    ``controls``1 and ``controls``2, assigning the slopes kX, kS, kI, kA."""
    names = {"u1": controls + "1", "u2": controls + "2"}
    lines = []
    for v in "XSIA":
        names["d" + v] = k + v
        if step is not None:
            names[v] = v + k
            lines.append(f"{v}{k} = {v} + {step}{v}\n")
    field = re.sub(r"\b(?:[XSIA]|u[12]|d[XSIA])\b", lambda m: names.get(m[0], m[0]), _FIELD)
    return textwrap.indent("".join(lines) + field, " " * 12)


# The model's RK4 step: ``rk4_forward``'s loop with the field's text in
# place of each call of ``f``, so a step makes no Python call.  Python
# evaluates every expression as ``rk4_forward`` and ``model_field`` do, so
# the nodes and the errors are theirs bit for bit.  ``kernel`` runs steps
# first, first + 1, ... of the grid (t0, h) from the node (X, S, I, A), one
# step per entry of the stage controls, and appends each node it reaches to
# ``out``; the step index keeps each time t0 + i * h that of one whole run.
_KERNEL = """\
def kernel(X, S, I, A, t0, h, first, stages, out):
    h2, h6 = 0.5 * h, h / 6.0
    try:
        # step i runs from t0 + i * h; (u1, u2) at its start, (w1, w2) at its
        # midpoint, (v1, v2) at its end
        for i, u1, u2, w1, w2, v1, v2 in zip(count(first), *stages):
""" + _stage("a", "u") + _stage("b", "w", "h2 * a") + _stage("c", "w", "h2 * b") \
    + _stage("d", "v", "h * c") + """\
            X = X + h6 * (aX + 2.0 * (bX + cX) + dX)
            S = S + h6 * (aS + 2.0 * (bS + cS) + dS)
            I = I + h6 * (aI + 2.0 * (bI + cI) + dI)
            A = A + h6 * (aA + 2.0 * (bA + cA) + dA)
            if not (isfinite(X) and isfinite(S) and isfinite(I) and isfinite(A)):
                raise BlowUpError(t0 + i * h + h)
            out.append((X, S, I, A))
    except _ARITH_ERRORS as exc:
        raise _failed_step(t0 + i * h, exc) from exc
    return out
"""
_bind_kernel = _bind_compiled(_KERNEL, "kernel", {
    "count": itertools.count, "isfinite": math.isfinite, "BlowUpError": BlowUpError,
    "_ARITH_ERRORS": _ARITH_ERRORS, "_failed_step": _failed_step})


def rk4_forward(
    f: Callable[[float, tuple], Sequence[float]],
    y0: Sequence[float],
    grid: TimeGrid,
) -> Trajectory:
    """Integrate dy/dt = f(t, y) over the grid with classical RK4.

    y has four components.  Node 0 of the result equals y0.  The step
    from t evaluates f at t, twice at t + h/2 and at t + h.  A grid
    whose nodes cannot fit in memory (``TimeGrid.check_memory`` at
    ``_NODE_BYTES``) raises a domain error before the first step.  A
    failing evaluation raises a blow-up error at its step's start time,
    a non-finite node one at the node's time.  A ``DomainError`` other
    than ``NonFiniteError`` passes through unchanged: f rejected a
    finite input.
    """
    grid.check_memory(_NODE_BYTES)
    t0, h = grid.t0, grid.h
    h2, h6 = 0.5 * h, h / 6.0
    isfinite = math.isfinite
    out = [_initial_state(y0)]
    X, S, I, A = out[0]
    for i in range(grid.n_steps):
        t = t0 + i * h
        try:
            aX, aS, aI, aA = f(t, (X, S, I, A))
            bX, bS, bI, bA = f(t + h2, (X + h2 * aX, S + h2 * aS, I + h2 * aI, A + h2 * aA))
            cX, cS, cI, cA = f(t + h2, (X + h2 * bX, S + h2 * bS, I + h2 * bI, A + h2 * bA))
            dX, dS, dI, dA = f(t + h, (X + h * cX, S + h * cS, I + h * cI, A + h * cA))
        except _ARITH_ERRORS as exc:
            if isinstance(exc, DomainError) and not isinstance(exc, NonFiniteError):
                raise  # the field rejected its input: not a blow-up
            raise _failed_step(t, exc) from exc
        X = X + h6 * (aX + 2.0 * (bX + cX) + dX)
        S = S + h6 * (aS + 2.0 * (bS + cS) + dS)
        I = I + h6 * (aI + 2.0 * (bI + cI) + dI)
        A = A + h6 * (aA + 2.0 * (bA + cA) + dA)
        if not (isfinite(X) and isfinite(S) and isfinite(I) and isfinite(A)):
            raise BlowUpError(t + h)
        out.append((X, S, I, A))
    return Trajectory(grid, _nodes(out))


def _node_array(arr, n_nodes: int, what: str, width: int) -> np.ndarray:
    """Per-node data as an (n_nodes, width) float array; any other shape,
    ragged rows or non-numeric cells raise a grid mismatch error."""
    try:
        a = np.asarray(arr, dtype=float)
    except (TypeError, ValueError) as exc:
        raise GridMismatchError(f"{what} must be {n_nodes} rows of {width}: {exc}") from exc
    if a.shape != (n_nodes, width):
        raise GridMismatchError(f"{what} must have shape ({n_nodes}, {width}), got {a.shape}")
    return a


def _controls(u, n_nodes: int) -> np.ndarray:
    """``u`` as ``n_nodes`` rows of admissible controls; None as u = (1, 1)."""
    if u is None:
        return np.broadcast_to(1.0, (n_nodes, 2))
    u = _node_array(u, n_nodes, "controls", 2)
    check_controls(u)
    return u


def _chunks(first: int, n: int, *nodes: np.ndarray):
    """Steps first..n-1 in runs of ``_CHUNK_STEPS``: for each, its first
    step a, its length k and, of each per-node array in ``nodes``, the
    samples its steps read: nodes a..a+k, then the k midpoints between."""
    for a in range(first, n, _CHUNK_STEPS):
        b = min(a + _CHUNK_STEPS, n)
        yield a, b - a, [np.concatenate((x[a:b + 1], 0.5 * (x[a:b] + x[a + 1:b + 1])))
                         for x in nodes]


def rk4_model(
    params: ModelParams,
    y0: Sequence[float],
    grid: TimeGrid,
    u: np.ndarray | None = None,
) -> Trajectory:
    """Integrate the model over the grid with classical RK4.

    ``u`` holds the controls (u1, u2), one row per node; the step from
    node i samples node i, the midpoint of nodes i and i+1, and node
    i+1.  ``u`` of None runs the uncontrolled system, u = (1, 1), through
    the same steps, and the run carries u = (1, 1) as ``Trajectory``
    does.  A grid whose nodes cannot fit in memory
    (``TimeGrid.check_memory`` at ``_NODE_BYTES``) raises a domain error
    before anything is allocated; controls that ``check_controls``
    rejects raise its error before the first step.  The steps run in
    ``_KERNEL``, ``rk4_forward``'s loop with the field's text inlined, so
    results and errors equal those of ``rk4_forward`` on ``model_field``
    bit for bit.  They run in the chunks of ``_chunks``, each from the
    last node of the one before with its global step index and the
    grid's own t0 and h, so the nodes and the errors are those of one run
    over the whole grid; only one chunk's stage controls exist at a time.
    """
    grid.check_memory(_NODE_BYTES)
    controls = _controls(u, grid.n_steps + 1)
    return _forward(params, grid, controls, np.array([_initial_state(y0)]), 0)


def _forward(params: ModelParams, grid: TimeGrid, controls: np.ndarray, nodes: np.ndarray,
             first: int) -> Trajectory:
    """The run on ``controls`` that keeps nodes 0..first of ``nodes`` and
    runs the kernel from step ``first`` on."""
    n, t0, h = grid.n_steps, grid.t0, grid.h
    kernel = _bind_kernel(vars(params))
    chunks = [nodes[:first + 1]]
    y = tuple(chunks[0][-1].tolist())
    for a, k, (v,) in _chunks(first, n, controls):
        # the stage controls: nodes a..a+k-1, the midpoints, nodes a+1..a+k
        c1, c2 = v.T.tolist()
        stages = [c1[:k], c2[:k], c1[k + 1:], c2[k + 1:], c1[1:k + 1], c2[1:k + 1]]
        out = kernel(*y, t0, h, a, stages, [])
        y = out[-1]
        chunks.append(_nodes(out))
    return Trajectory(grid, np.concatenate(chunks), controls)


class _Pass:
    """The last forward-backward pass on one grid, which the next pass on
    it continues (``_forward_backward``): its run (None before the first
    pass), the maps T_j of its costate pass in the block-padded array of
    shape (blocks, L, 5, 5) that ``_solve_backward`` walks, and each
    block's product, shape (blocks, 5, 5)."""

    def __init__(self, grid: TimeGrid):
        n = grid.n_steps
        # blocks of L = ceil(sqrt(n)) steps; T[pad + j] maps the costate at
        # node j+1 to node j, and identity maps below node 0 fill the lowest block
        L = math.isqrt(n - 1) + 1
        pad = -n % L
        self.grid, self.run = grid, None
        self.steps = np.empty(((n + pad) // L, L, 5, 5))
        self.steps.reshape(-1, 5, 5)[:pad] = np.eye(5)
        self.composites = np.empty((len(self.steps), 5, 5))


def _forward_backward(params: ModelParams, w: ObjectiveWeights, y0: Sequence[float],
                      u: np.ndarray | None, last: _Pass) -> tuple[Trajectory, np.ndarray]:
    """The run ``rk4_model(params, y0, last.grid, u)`` and its costates
    ``rk4_adjoint(params, w, run)``, bit for bit, continuing ``last``, the
    pass before on that grid with the same parameters, weights and
    initial state.

    If the controls first differ from its run's (bit for bit) at node m,
    both passes start at step m - 1 (step 0 when m is 0; neither runs a
    step when no row differs): the run keeps the nodes 0..m-1 of its
    run, and the costate pass the maps T_0..T_(m-2), which read no later
    node, and the products of the blocks they fill.  ``last`` then holds
    this pass, its maps rewritten in place, and its run carries a copy
    of ``u`` (u = (1, 1) for None), so that editing ``u`` in place cannot
    change what the next pass compares against.  The caller checks the
    grid's memory bound.
    """
    grid = last.grid
    controls = _controls(u, grid.n_steps + 1).copy()
    if last.run is None:
        first, nodes = 0, np.array([_initial_state(y0)])
    else:
        first, nodes = max(0, _first_changed_row(controls, last.run.controls) - 1), last.run.states
    last.run = run = _forward(params, grid, controls, nodes, first)
    return run, _costates(params, w, run, last, first)


def _first_changed_row(a: np.ndarray, b: np.ndarray) -> int:
    """The first row in which two float arrays of one shape differ bit for
    bit; their length when none does."""
    changed = np.flatnonzero((a.view(np.int64) != b.view(np.int64)).any(axis=1))
    return int(changed[0]) if changed.size else len(a)


def rk4_adjoint(params: ModelParams, w: ObjectiveWeights, run: Trajectory) -> np.ndarray:
    """Integrate the model's costates from p(tf) = 0 down to t0 along a run.

    The grid, the states and the controls (u = (1, 1) for an uncontrolled
    run) all come from the run.  The step from node j+1 down to node j
    samples states and controls at node j+1, at the midpoint of the two
    nodes and at node j.  The costate field is affine in p, so that RK4
    step is an exact affine map, a 5x5 matrix T_j acting on (p_j, 1).
    The maps are built in the chunks of ``_chunks``, each from
    ``costate_matrix`` at its own nodes and midpoints, and written in
    place into the block-padded array that ``_solve_backward`` walks.
    The result matches a stage-by-stage backward RK4 on ``costate_rhs``
    (the oracle in the tests) to rounding, not bit for bit, as terms are
    summed in another order (the tests allow 1e-13 of max|p|).  A
    non-finite costate raises a blow-up error at the time of the first
    such node back from tf.
    """
    return _costates(params, w, run, _Pass(run.grid), 0)


def _costates(params: ModelParams, w: ObjectiveWeights, run: Trajectory, maps: _Pass,
              first: int) -> np.ndarray:
    """``rk4_adjoint`` along ``run``, building the maps of steps first..n-1
    into ``maps`` in place; those below, and the products of the blocks
    they fill, are kept."""
    grid, states, u1 = run.grid, run.states, run.controls[:, 0]
    n, h = grid.n_steps, grid.h
    eye = np.eye(5)
    T = maps.steps.reshape(-1, 5, 5)
    L, pad = maps.steps.shape[1], len(T) - n
    with np.errstate(all="ignore"):
        for a, k, (s, v) in _chunks(first, n, states, u1):
            G = costate_matrix(params, w, *s.T, v)
            # the step into node j reads node j+1 (its first stage), the midpoint and node j
            G0, G1, Gh = G[:k], G[1:k + 1], G[k + 1:]
            k2 = Gh @ (eye - 0.5 * h * G1)
            k3 = Gh @ (eye - 0.5 * h * k2)
            k4 = G0 @ (eye - h * k3)
            T[pad + a:pad + a + k] = eye - h / 6.0 * (G1 + 2.0 * (k2 + k3) + k4)
        p = _solve_backward(maps.steps, maps.composites, (pad + first) // L)[pad:]
    bad = np.flatnonzero(~np.isfinite(p).all(axis=1))
    if bad.size:
        raise BlowUpError(grid.t0 + bad[-1] * h)
    return p


def _solve_backward(steps: np.ndarray, composites: np.ndarray, kept: int) -> np.ndarray:
    """Solve x_k = T_k x_{k+1}, k = K-1..0, from x_K = (0, 0, 0, 0, 1).

    ``steps`` holds T_0..T_{K-1} cut into blocks of equal length, shape
    (blocks, L, 5, 5).  Returns the first four components of x_0..x_K,
    one row per node.  Pass 1 composes each block's map into
    ``composites``, vectorized across blocks; the first ``kept`` blocks
    already hold theirs.  A loop from the top block down carries the
    value from each block to the next; pass 2 applies the maps inside
    all blocks at once, from the top of each block down.
    """
    blocks, L = steps.shape[:2]
    composite = steps[kept:, -1]
    for i in range(L - 2, -1, -1):
        composite = steps[kept:, i] @ composite
    composites[kept:] = composite
    entry = np.empty((blocks, 5, 1))
    entry[-1] = [[0.0], [0.0], [0.0], [0.0], [1.0]]
    for b in range(blocks - 2, -1, -1):
        entry[b] = composites[b + 1] @ entry[b + 1]
    x = np.zeros((blocks * L + 1, 5, 1))
    inner = x[:-1].reshape(blocks, L, 5, 1)
    for i in range(L - 1, -1, -1):
        entry = inner[:, i] = steps[:, i] @ entry
    return x[:, :4, 0]


def integrate_cost(run: Trajectory, w: ObjectiveWeights) -> float:
    """Trapezoidal value of the objective integral along a run, on its
    grid with its controls (u = (1, 1) for an uncontrolled run)."""
    vals = running_cost(run.states.T, run.controls.T, w)
    return float(np.trapezoid(vals, dx=run.grid.h))
