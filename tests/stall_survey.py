"""Survey of the sweep over 120 random optimal-control problems.

Draws 40 problems from each of ``numpy.random.default_rng(1)``, ``(2)``
and ``(3)``: parameters and initial state from ``make_random_params`` /
``make_random_state``, then A1 and A2 log-uniform in [0.1, 1e4] and B1
and B2 log-uniform in [0.03, 10].  Each is solved on tf = 20 with 2000
steps and ``max_iterations=300``.  Prints how many converged, stalled,
ran out of budget or blew up, the number of forward passes on the fine
grid (the fine iterations plus the snap and refresh passes of each
solve) and on the 10x coarser one (dropped coarse stages included),
their sum in fine-pass equivalents (fine + coarse / 10), and the
(seed, index) pairs of the stalled draws.  Exits 1 when fewer than
``MIN_CONVERGED`` problems converge or any blows up.

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
from cropguard import optimal_control
from cropguard.errors import BlowUpError
from cropguard.integrate import TimeGrid, rk4_model
from cropguard.model import ObjectiveWeights
from cropguard.optimal_control import StopReason, SweepOptions, solve

SEEDS = (1, 2, 3)
DRAWS = 40
OPTIONS = SweepOptions(grid=TimeGrid(0.0, 20.0, 2000), max_iterations=300)
# The sweep converges on 114 problems and stalls on 6, at (1,1) (1,2) (1,13)
# (2,9) (2,14) (3,8).  Fewer converged, or any blow-up, fails the survey.
MIN_CONVERGED = 114


def draws(seed: int):
    """The survey's problems from one seed: (params, weights, y0) per draw."""
    rng = np.random.default_rng(seed)
    for _ in range(DRAWS):
        params, y0 = make_random_params(rng), make_random_state(rng)
        A1, A2 = 10.0 ** rng.uniform(-1.0, 4.0, size=2)
        B1, B2 = 10.0 ** rng.uniform(math.log10(0.03), 1.0, size=2)
        yield params, ObjectiveWeights(A1=A1, A2=A2, B1=B1, B2=B2), y0


def main() -> int:
    start = time.perf_counter()
    outcomes = Counter()
    passes = Counter()  # forward passes per grid step count

    def spy(params, y0, grid, u=None):
        passes[grid.n_steps] += 1
        return rk4_model(params, y0, grid, u)

    optimal_control.rk4_model = spy
    stalled = []
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
    fine = passes[OPTIONS.grid.n_steps]
    coarse = passes[OPTIONS.grid.n_steps // optimal_control._COARSEN]
    converged = outcomes[StopReason.CONVERGED.value]
    print(
        f"{sum(outcomes.values())} problems: "
        f"{converged} converged, "
        f"{outcomes[StopReason.STALLED.value]} stalled, "
        f"{outcomes[StopReason.BUDGET.value]} out of budget, "
        f"{outcomes['blow-up']} blew up; "
        f"{fine} fine-grid + {coarse} coarse-grid passes = "
        f"{fine + coarse / optimal_control._COARSEN:.1f} fine-pass equivalents; "
        f"stalled (seed, index): {' '.join(f'({s},{i})' for s, i in stalled) or 'none'}; "
        f"{time.perf_counter() - start:.1f} s"
    )
    if converged < MIN_CONVERGED or outcomes["blow-up"]:
        print(f"fail: need at least {MIN_CONVERGED} converged and no blow-up")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
