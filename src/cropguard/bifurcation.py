"""Long-horizon simulation sweeps for bifurcation-diagram data.

A sweep overrides one model parameter at a time, integrates the
uncontrolled system on the sweep's grid (by default 2000 days, 40,000
steps), discards a transient fraction of its steps, and records
componentwise extrema of the tail together with stability verdicts of
the pest-free and coexistence equilibria at that parameter value.  Tail
extrema of a settled run collapse onto the stable equilibrium.  A spread
tail may be a slow transient: at alpha = 0.5 the coexistence point's
leading complex pair decays over ~5,000 days.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

from .equilibria import coexistence, pest_free
from .errors import BlowUpError, DomainError
from .integrate import _NODE_BYTES, TimeGrid, rk4_model
from .model import _PARAM_FIELDS, DEFAULT_STATE, ModelParams, State, check_state
from .stability import Verdict, classify

_NAN_STATE = State(math.nan, math.nan, math.nan, math.nan)


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep description.

    Every value is integrated on ``grid``, by default 2000 days at the
    step 0.05; ``transient_fraction`` of its steps is discarded before
    extrema are taken.
    """

    parameter_name: str
    values: tuple[float, ...]
    grid: TimeGrid = TimeGrid(0.0, 2000.0, 40000)
    transient_fraction: float = 0.7
    initial_state: State = DEFAULT_STATE

    def __post_init__(self) -> None:
        if self.parameter_name not in _PARAM_FIELDS:
            raise DomainError(
                f"unknown parameter {self.parameter_name!r}; expected one of {_PARAM_FIELDS}"
            )
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise DomainError("sweep needs at least one parameter value")
        if not all(math.isfinite(v) for v in vals):
            raise DomainError("sweep values must be finite")
        object.__setattr__(self, "values", vals)
        if not isinstance(self.grid, TimeGrid):
            raise DomainError("grid must be a TimeGrid")
        if not 0.0 <= self.transient_fraction < 1.0:
            raise DomainError(
                f"transient_fraction must lie in [0, 1), got {self.transient_fraction}"
            )
        state = check_state(tuple(map(float, self.initial_state)))
        object.__setattr__(self, "initial_state", state)


@dataclass(frozen=True)
class SweepRow:
    """Tail extrema and verdicts at one parameter value.

    ``failed`` marks integration blow-up or an inadmissible parameter
    override; extrema are NaN in that case.  Verdicts are still
    attached whenever the equilibrium analysis itself succeeds.
    """

    parameter_value: float
    tail_min: State
    tail_max: State
    pest_free_verdict: Verdict | None
    coexistence_verdicts: tuple[Verdict, ...]
    failed: bool = False

    def tail_gap(self) -> State:
        return State(*(hi - lo for lo, hi in zip(self.tail_min, self.tail_max)))


def _verdicts(params: ModelParams) -> tuple[Verdict | None, tuple[Verdict, ...]]:
    pf = classify(params, pest_free(params)).verdict
    try:
        stars = coexistence(params)
    except DomainError:
        return pf, ()
    return pf, tuple(classify(params, eq).verdict for eq in stars)


def _row(params: ModelParams, spec: SweepSpec, value: float) -> SweepRow:
    """Integrate and summarise the sweep at one parameter value."""
    try:
        p = replace(params, **{spec.parameter_name: value})
    except DomainError:
        return SweepRow(value, _NAN_STATE, _NAN_STATE, None, (), failed=True)
    pf_verdict, star_verdicts = _verdicts(p)
    try:
        traj = rk4_model(p, spec.initial_state, spec.grid)
    except BlowUpError:
        return SweepRow(value, _NAN_STATE, _NAN_STATE, pf_verdict, star_verdicts, failed=True)
    tail = traj.states[int(spec.transient_fraction * spec.grid.n_steps):]
    return SweepRow(
        parameter_value=value,
        tail_min=State(*(float(v) for v in tail.min(axis=0))),
        tail_max=State(*(float(v) for v in tail.max(axis=0))),
        pest_free_verdict=pf_verdict,
        coexistence_verdicts=star_verdicts,
    )


def _rows(params: ModelParams, spec: SweepSpec, values: tuple[float, ...]) -> list[SweepRow]:
    return [_row(params, spec, v) for v in values]


def run_sweep(params: ModelParams, spec: SweepSpec) -> list[SweepRow]:
    """Integrate the uncontrolled system once per parameter value.

    Rows come back in input order.  A grid whose nodes cannot fit in
    memory (``TimeGrid.check_memory`` at ``_NODE_BYTES``, a model run's
    bound) raises a domain error before any row is computed or process
    started.  A blow-up at one value yields a failed row and the sweep
    continues.  The rows are dealt round-robin over the usable CPUs
    (``os.sched_getaffinity``, so ``taskset`` limits them): the calling
    process computes the first share and forked workers the others.
    Each row is computed alone, so the result does not depend on the CPU
    count.  With one row or one usable CPU, or without ``fork``, no
    process is started.
    """
    spec.grid.check_memory(_NODE_BYTES)
    values = spec.values
    jobs = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        jobs = min(len(values), len(os.sched_getaffinity(0)))
    if jobs == 1:
        return _rows(params, spec, values)

    # imported here: they cost every other command ~15 ms at start-up
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # fork, not spawn: a spawned worker would import numpy and the package
    # again, a sizeable part of a 10-row sweep on 2 CPUs
    with ProcessPoolExecutor(jobs - 1, mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(_rows, params, spec, values[k::jobs]) for k in range(1, jobs)]
        shares = [_rows(params, spec, values[::jobs])] + [f.result() for f in futures]
    # row i is entry i // jobs of share i % jobs
    return [shares[i % jobs][i // jobs] for i in range(len(values))]
