"""Survey of the sweep over 120 random optimal-control problems.

Draws 40 problems from each of ``numpy.random.default_rng(1)``, ``(2)``
and ``(3)``: parameters and initial state from ``make_random_params`` /
``make_random_state``, then A1 and A2 log-uniform in [0.1, 1e4] and B1
and B2 log-uniform in [0.03, 10].  Each is solved on tf = 20 with 2000
steps and ``max_iterations=300``.  Prints how many converged, stalled,
ran out of budget or blew up, the number of forward passes on the fine
grid (the fine iterations plus the one to three passes each solve runs
after them) and on the 10x coarser one (dropped coarse stages included),
their sum in fine-pass equivalents (fine + coarse / 10), the share of
forward steps on each grid that were reused from the pass before rather
than run, the share of costate maps on each grid reused rather than
built (each pass, ``integrate._forward_backward``, continues the one
before on its grid; steps are counted in the kernel and maps in
``costate_matrix``, apart), the largest
and the median stationarity residual of the converged draws, and the
(seed, index) pairs of the stalled draws.  Exits 1 when fewer than
``MIN_CONVERGED`` problems converge, any blows up, a converged draw's
residual is above ``MAX_CERTIFICATE``, the fine-grid passes exceed
``MAX_FINE_PASSES`` or any costate pass builds another number of maps
than the kernel steps its forward pass ran.

Run from the repository root, not collected by pytest:

    PYTHONPATH=src python tests/stall_survey.py
"""

from __future__ import annotations

import math
import sys
import time
from collections import Counter

import numpy as np

from conftest import make_random_params, make_random_state
from cropguard import integrate, optimal_control
from cropguard.errors import BlowUpError
from cropguard.integrate import TimeGrid, _forward_backward
from cropguard.model import ObjectiveWeights
from cropguard.optimal_control import StopReason, SweepOptions, solve

SEEDS = (1, 2, 3)
DRAWS = 40
OPTIONS = SweepOptions(grid=TimeGrid(0.0, 20.0, 2000), max_iterations=300)
# The sweep converges on 114 problems and stalls on 6, at (1,1) (1,2) (1,13)
# (2,9) (2,14) (3,8).  Fewer converged, or any blow-up, fails the survey.
MIN_CONVERGED = 114
# The bench's stationarity gate, and the fine-grid passes the survey takes.
MAX_CERTIFICATE = 1e-6
MAX_FINE_PASSES = 716


def draws(seed: int):
    """The survey's problems from one seed: (params, weights, y0) per draw."""
    rng = np.random.default_rng(seed)
    for _ in range(DRAWS):
        params, y0 = make_random_params(rng), make_random_state(rng)
        A1, A2 = 10.0 ** rng.uniform(-1.0, 4.0, size=2)
        B1, B2 = 10.0 ** rng.uniform(math.log10(0.03), 1.0, size=2)
        yield params, ObjectiveWeights(A1=A1, A2=A2, B1=B1, B2=B2), y0


def _reused(total: int, run: int) -> str:
    """Steps (or maps) reused out of ``total`` when ``run`` of them ran."""
    return f"{total - run:,} of {total:,} ({(total - run) / total:.0%})" if total else "none"


def main() -> int:
    start = time.perf_counter()
    outcomes = Counter()
    passes = Counter()  # forward passes per grid step count
    run = Counter()  # kernel steps those passes ran, per grid step count
    backward = Counter()  # costate passes per grid step count
    built = Counter()  # costate maps those passes built, per grid step count
    pass_grid = None  # the step count of the pass in progress
    pass_work = [0, 0]  # the kernel steps and the costate maps of the pass in progress
    mismatched = 0  # costate passes that built other than their forward pass's steps
    bind, matrix = integrate._bind_kernel, integrate.costate_matrix

    def counting_bind(values):
        kernel = bind(values)

        def counted(X, S, I, A, t0, h, first, stages, out):
            run[pass_grid] += len(stages[0])
            pass_work[0] += len(stages[0])
            return kernel(X, S, I, A, t0, h, first, stages, out)
        return counted

    def counting_matrix(params, w, X, S, I, A, u1):
        # a batch of k maps samples k + 1 nodes and k midpoints
        built[pass_grid] += len(X) // 2
        pass_work[1] += len(X) // 2
        return matrix(params, w, X, S, I, A, u1)

    def spy(params, w, y0, u, last):
        nonlocal pass_grid, mismatched
        pass_grid = last.grid.n_steps
        passes[pass_grid] += 1
        pass_work[:] = 0, 0
        before = last.run
        try:
            return _forward_backward(params, w, y0, u, last)
        finally:
            if last.run is not before:  # the forward pass ended, so the costate pass ran
                backward[pass_grid] += 1
                mismatched += pass_work[0] != pass_work[1]

    optimal_control._forward_backward = spy
    integrate._bind_kernel = counting_bind
    integrate.costate_matrix = counting_matrix
    stalled, certificates = [], []
    for seed in SEEDS:
        for index, (params, w, y0) in enumerate(draws(seed)):
            try:
                sol = solve(params, w, y0, OPTIONS)
            except BlowUpError:
                outcomes["blow-up"] += 1
                continue
            outcomes[sol.stop_reason.value] += 1
            if sol.stop_reason is StopReason.STALLED:
                stalled.append((seed, index))
            elif sol.converged:
                certificates.append(sol.stationarity_residual)
    n_fine = OPTIONS.grid.n_steps
    n_coarse = n_fine // optimal_control._COARSEN
    fine, coarse = passes[n_fine], passes[n_coarse]
    converged = outcomes[StopReason.CONVERGED.value]
    print(
        f"{sum(outcomes.values())} problems: "
        f"{converged} converged, "
        f"{outcomes[StopReason.STALLED.value]} stalled, "
        f"{outcomes[StopReason.BUDGET.value]} out of budget, "
        f"{outcomes['blow-up']} blew up; "
        f"{fine} fine-grid + {coarse} coarse-grid passes = "
        f"{fine + coarse / optimal_control._COARSEN:.1f} fine-pass equivalents; "
        f"{_reused(fine * n_fine, run[n_fine])} fine and "
        f"{_reused(coarse * n_coarse, run[n_coarse])} coarse forward steps reused; "
        f"{_reused(backward[n_fine] * n_fine, built[n_fine])} fine and "
        f"{_reused(backward[n_coarse] * n_coarse, built[n_coarse])} coarse costate maps "
        f"reused, {mismatched} passes unlike their forward pass; "
        f"converged residual max {max(certificates, default=math.nan):.3g}, "
        f"median {np.median(certificates) if certificates else math.nan:.3g}; "
        f"stalled (seed, index): {' '.join(f'({s},{i})' for s, i in stalled) or 'none'}; "
        f"{time.perf_counter() - start:.1f} s"
    )
    if (converged < MIN_CONVERGED or outcomes["blow-up"] or mismatched
            or max(certificates, default=0.0) > MAX_CERTIFICATE or fine > MAX_FINE_PASSES):
        print(f"fail: need at least {MIN_CONVERGED} converged, no blow-up, converged "
              f"residuals at most {MAX_CERTIFICATE:g}, at most {MAX_FINE_PASSES} "
              f"fine-grid passes and as many costate maps built as kernel steps run "
              f"in every pass")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
