"""Parameter sweeps: tail statistics, verdict columns, failure rows."""

import concurrent.futures
import math
import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest

from cropguard import bifurcation
from cropguard.bifurcation import SweepRow, SweepSpec, run_sweep
from cropguard.equilibria import coexistence
from cropguard.errors import BlowUpError, DegenerateParameterError, DomainError
from cropguard.integrate import TimeGrid, rk4_model
from cropguard.model import State
from cropguard.stability import Verdict, params_with_alpha


class TestSweepSpec:
    def test_defaults(self):
        spec = SweepSpec(parameter_name="alpha", values=(0.1,))
        assert spec.grid == TimeGrid.from_step(0.0, 2000.0, 0.05)
        assert spec.grid.n_steps == 40000
        assert spec.transient_fraction == 0.7
        assert spec.initial_state == State(0.2, 0.07, 0.05, 0.5)

    def test_explicit_step_controls_the_grid(self):
        grid = TimeGrid.from_step(0.0, 10.0, 0.5)
        spec = SweepSpec(parameter_name="alpha", values=(0.1,), grid=grid)
        assert spec.grid is grid and spec.grid.n_steps == 20

    @pytest.mark.parametrize(
        "bad",
        [
            dict(parameter_name="not_a_knob", values=(0.1,)),
            dict(parameter_name="alpha", values=()),
            dict(parameter_name="alpha", values=(math.nan,)),
            dict(parameter_name="alpha", values=(0.1,), grid=2000.0),
            dict(parameter_name="alpha", values=(0.1,), transient_fraction=1.0),
            dict(parameter_name="alpha", values=(0.1,), transient_fraction=-0.1),
        ],
    )
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(DomainError):
            SweepSpec(**bad)


class TestRunSweep:
    def test_rows_preserve_input_order_and_carry_verdicts(self, baseline):
        spec = SweepSpec(
            parameter_name="alpha", values=(0.06, 0.1), grid=TimeGrid.from_step(0.0, 200.0, 0.05)
        )
        rows = run_sweep(baseline, spec)
        assert [r.parameter_value for r in rows] == [0.06, 0.1]
        for row in rows:
            assert isinstance(row, SweepRow)
            assert not row.failed
            assert all(np.isfinite(row.tail_min))
            assert all(np.isfinite(row.tail_max))
            assert all(lo <= hi for lo, hi in zip(row.tail_min, row.tail_max))
            assert all(g >= 0.0 for g in row.tail_gap())
            assert isinstance(row.pest_free_verdict, Verdict)
            assert row.coexistence_verdicts, "interior point exists at these values"

    def test_tail_window_matches_a_direct_integration(self, baseline):
        spec = SweepSpec(
            parameter_name="alpha",
            values=(0.06,),
            grid=TimeGrid.from_step(0.0, 10.0, 1.0),
            transient_fraction=0.7,
        )
        (row,) = run_sweep(baseline, spec)
        p = params_with_alpha(baseline, 0.06)
        traj = rk4_model(p, spec.initial_state, TimeGrid.from_step(0.0, 10.0, 1.0))
        tail = traj.states[7:]  # nodes 7..10 after a 70% transient
        assert row.tail_min == pytest.approx(tail.min(axis=0), rel=1e-15)
        assert row.tail_max == pytest.approx(tail.max(axis=0), rel=1e-15)

    def test_settled_versus_oscillating_tails(self, baseline):
        """Near the default consumption the interior point attracts and
        the tail is flat; far above the crossing a limit cycle leaves a
        macroscopic peak-to-peak gap."""
        spec = SweepSpec(parameter_name="alpha", values=(0.1, 1.0))
        steady, cycling = run_sweep(baseline, spec)
        assert steady.tail_gap().X < 1e-6
        assert cycling.tail_gap().X > 0.05

    def test_blowup_marks_the_row_failed_but_keeps_verdicts(self, baseline):
        spec = SweepSpec(parameter_name="r", values=(8.0,),
                         grid=TimeGrid.from_step(0.0, 100.0, 2.0))
        (row,) = run_sweep(baseline, spec)
        assert row.failed
        assert all(math.isnan(v) for v in row.tail_min)
        assert all(math.isnan(v) for v in row.tail_max)
        assert isinstance(row.pest_free_verdict, Verdict)

    def test_invalid_parameter_value_fails_only_its_row(self, baseline):
        # m2 above m1 violates the conversion ordering; the sweep keeps
        # going and reports the bad value as a failed row
        spec = SweepSpec(
            parameter_name="m2", values=(0.3, 0.9), grid=TimeGrid.from_step(0.0, 20.0, 0.1)
        )
        ok, bad = run_sweep(baseline, spec)
        assert not ok.failed
        assert bad.failed
        assert all(math.isnan(v) for v in bad.tail_min)
        assert bad.pest_free_verdict is None
        assert bad.coexistence_verdicts == ()

    def test_a_degenerate_coexistence_reduction_leaves_the_verdicts_empty(self, baseline):
        # sigma = 0 is an admissible model but the coexistence reduction
        # divides by it: the row is integrated and keeps its pest-free
        # verdict, with no coexistence verdicts (an empty CLI cell)
        params = params_with_alpha(baseline, 0.5)
        with pytest.raises(DegenerateParameterError):
            coexistence(replace(params, sigma=0.0))
        spec = SweepSpec(parameter_name="sigma", values=(0.0, 0.015),
                         grid=TimeGrid.from_step(0.0, 20.0, 0.1))
        degenerate, regular = run_sweep(params, spec)
        for row in (degenerate, regular):
            assert not row.failed
            assert all(np.isfinite(row.tail_min)) and all(np.isfinite(row.tail_max))
            assert isinstance(row.pest_free_verdict, Verdict)
        assert degenerate.coexistence_verdicts == ()
        assert regular.coexistence_verdicts == (Verdict.STABLE,)


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count that ``run_sweep`` sees, whatever the host has."""
    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return use


@pytest.fixture
def pools(monkeypatch):
    """The arguments of every ProcessPoolExecutor that gets constructed."""
    made = []

    class Spy(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append((args, kwargs))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Spy)
    return made


def _alpha_spec(n):
    values = tuple(np.linspace(0.3, 1.2, n).tolist())
    return SweepSpec(parameter_name="alpha", values=values,
                     grid=TimeGrid.from_step(0.0, 200.0, 0.05))


class TestParallelRows:
    """Rows are dealt over the usable CPUs; the result is the one-CPU result."""

    @pytest.mark.parametrize("n_values, n_cpus", [(10, 2), (7, 2), (7, 3), (1, 2)])
    def test_rows_equal_the_one_cpu_rows(self, baseline, cpus, n_values, n_cpus):
        spec = _alpha_spec(n_values)
        cpus(1)
        serial = run_sweep(baseline, spec)
        cpus(n_cpus)
        rows = run_sweep(baseline, spec)
        assert rows == serial
        assert [r.parameter_value for r in rows] == list(spec.values)

    def test_failed_rows_in_a_worker_share(self, baseline, cpus, pools):
        # with two CPUs the worker takes rows 1 and 3: an inadmissible
        # override (r < 0) and a blow-up (r = 8 at h = 2)
        spec = SweepSpec(parameter_name="r", values=(0.5, -1.0, 1.0, 8.0),
                         grid=TimeGrid.from_step(0.0, 100.0, 2.0))
        cpus(1)
        serial = run_sweep(baseline, spec)
        cpus(2)
        rows = run_sweep(baseline, spec)
        assert len(pools) == 1
        assert [r.failed for r in rows] == [False, True, False, True]
        assert rows[1].pest_free_verdict is None
        assert isinstance(rows[3].pest_free_verdict, Verdict)
        assert repr(rows) == repr(serial)  # NaN extrema compare by their text

    @pytest.mark.parametrize("n_values, n_cpus", [(10, 1), (1, 4)])
    def test_no_pool_for_one_cpu_or_one_row(self, baseline, cpus, pools, n_values, n_cpus):
        cpus(n_cpus)
        assert len(run_sweep(baseline, _alpha_spec(n_values))) == n_values
        assert pools == []

    def test_a_grid_too_large_for_memory_is_refused_before_any_row(
        self, baseline, cpus, pools, one_mib_of_memory, monkeypatch
    ):
        monkeypatch.setattr(bifurcation, "_rows", lambda *args: pytest.fail("a row ran"))
        spec = SweepSpec(parameter_name="alpha", values=(0.3, 0.6),
                         grid=TimeGrid(0.0, 1.0, one_mib_of_memory // 256 + 1))
        cpus(2)
        with pytest.raises(DomainError, match="fit in physical memory; got 4097$"):
            run_sweep(baseline, spec)
        assert pools == []

    def test_the_caller_takes_one_share(self, baseline, cpus, pools):
        cpus(3)
        run_sweep(baseline, _alpha_spec(5))
        ((args, kwargs),) = pools
        assert args == (2,)
        assert kwargs["mp_context"].get_start_method() == "fork"

    def test_worker_error_reaches_the_caller_with_its_type(self, baseline, cpus, monkeypatch):
        verdicts = bifurcation._verdicts
        spec = _alpha_spec(4)

        def failing(params):
            if params.alpha == spec.values[1]:  # in the worker's share
                raise BlowUpError(3.5, f"raised in process {os.getpid()}")
            return verdicts(params)

        monkeypatch.setattr(bifurcation, "_verdicts", failing)
        cpus(2)
        with pytest.raises(BlowUpError) as info:
            run_sweep(baseline, spec)
        assert info.value.t == 3.5
        assert str(info.value) != f"raised in process {os.getpid()}"

    def test_importing_the_package_loads_no_pool(self):
        # the pool modules cost every command's start-up; only a sweep that
        # forks imports them
        code = ("import sys, cropguard.cli; "
                "print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
