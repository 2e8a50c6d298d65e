"""Long-horizon simulation sweeps for bifurcation-diagram data.

A sweep overrides one model parameter at a time, integrates the
uncontrolled system over a long horizon, discards a transient fraction,
and records componentwise extrema of the tail together with stability
verdicts of the pest-free and coexistence equilibria at that parameter
value.  Tail extrema of a converged run collapse onto the stable
equilibrium; a spread tail indicates sustained oscillation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

from .equilibria import coexistence, pest_free
from .errors import BlowUpError, DegenerateParameterError, DomainError
from .integrate import TimeGrid, default_step, rk4_model
from .model import _PARAM_FIELDS, ModelParams, State, check_state
from .stability import Verdict, classify

_NAN_STATE = State(math.nan, math.nan, math.nan, math.nan)


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep description.

    ``transient_fraction`` of the horizon is discarded before extrema
    are taken; ``dt`` of None selects the horizon-based default step.
    """

    parameter_name: str
    values: tuple[float, ...]
    tf: float = 2000.0
    transient_fraction: float = 0.7
    initial_state: State = State(0.2, 0.07, 0.05, 0.5)
    dt: float | None = None

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
        if not (math.isfinite(self.tf) and self.tf > 0.0):
            raise DomainError(f"horizon must be positive, got {self.tf}")
        if not 0.0 <= self.transient_fraction < 1.0:
            raise DomainError(
                f"transient_fraction must lie in [0, 1), got {self.transient_fraction}"
            )
        if self.dt is not None and not (math.isfinite(self.dt) and self.dt > 0.0):
            raise DomainError(f"dt must be positive, got {self.dt}")
        state = State(*map(float, self.initial_state))
        check_state(state)
        object.__setattr__(self, "initial_state", state)

    def grid(self) -> TimeGrid:
        dt = self.dt if self.dt is not None else default_step(self.tf)
        return TimeGrid.from_step(0.0, self.tf, dt)


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
    except (DegenerateParameterError, DomainError):
        return pf, ()
    return pf, tuple(classify(params, eq).verdict for eq in stars)


def run_sweep(params: ModelParams, spec: SweepSpec) -> list[SweepRow]:
    """Integrate the uncontrolled system once per parameter value.

    Rows come back in input order.  A blow-up at one value yields a
    failed row and the sweep continues.
    """
    grid = spec.grid()
    k0 = int(spec.transient_fraction * grid.n_steps)
    rows: list[SweepRow] = []
    for value in spec.values:
        try:
            p = replace(params, **{spec.parameter_name: value})
        except (DomainError, DegenerateParameterError):
            rows.append(SweepRow(value, _NAN_STATE, _NAN_STATE, None, (), failed=True))
            continue
        pf_verdict, star_verdicts = _verdicts(p)
        try:
            traj = rk4_model(p, spec.initial_state, grid)
        except BlowUpError:
            rows.append(SweepRow(value, _NAN_STATE, _NAN_STATE, pf_verdict, star_verdicts, failed=True))
            continue
        tail = traj.states[k0:]
        rows.append(
            SweepRow(
                parameter_value=value,
                tail_min=State(*(float(v) for v in tail.min(axis=0))),
                tail_max=State(*(float(v) for v in tail.max(axis=0))),
                pest_free_verdict=pf_verdict,
                coexistence_verdicts=star_verdicts,
            )
        )
    return rows
