"""Survey of the sweep over 120 random optimal-control problems.

Draws 40 problems from each of ``numpy.random.default_rng(1)``, ``(2)``
and ``(3)``: parameters and initial state from ``make_random_params`` /
``make_random_state``, then A1 and A2 log-uniform in [0.1, 1e4] and B1
and B2 log-uniform in [0.03, 10].  Each is solved on tf = 20 with 2000
steps and ``max_iterations=300``.  Prints how many converged, stalled,
ran out of budget or blew up, the number of forward passes on the fine
grid (the fine iterations plus the snap and refresh passes of each
solve), and the (seed, index) pairs of the stalled draws.

Run from the repository root, not collected by pytest:

    PYTHONPATH=src python tests/stall_survey.py
"""

from __future__ import annotations

import math
import time
from collections import Counter

import numpy as np

from conftest import make_random_params, make_random_state
from cropguard.errors import BlowUpError
from cropguard.integrate import TimeGrid
from cropguard.model import ObjectiveWeights
from cropguard.optimal_control import StopReason, SweepOptions, solve

SEEDS = (1, 2, 3)
DRAWS = 40
OPTIONS = SweepOptions(grid=TimeGrid(0.0, 20.0, 2000), max_iterations=300)


def draws(seed: int):
    """The survey's problems from one seed: (params, weights, y0) per draw."""
    rng = np.random.default_rng(seed)
    for _ in range(DRAWS):
        params, y0 = make_random_params(rng), make_random_state(rng)
        A1, A2 = 10.0 ** rng.uniform(-1.0, 4.0, size=2)
        B1, B2 = 10.0 ** rng.uniform(math.log10(0.03), 1.0, size=2)
        yield params, ObjectiveWeights(A1=A1, A2=A2, B1=B1, B2=B2), y0


def main() -> None:
    start = time.perf_counter()
    outcomes = Counter()
    fine_passes = 0
    stalled = []
    for seed in SEEDS:
        for index, (params, w, y0) in enumerate(draws(seed)):
            try:
                sol = solve(params, w, y0, OPTIONS)
            except BlowUpError:
                outcomes["blow-up"] += 1
                continue
            outcomes[sol.stop_reason.value] += 1
            fine_passes += sol.iterations_used - sol.coarse_iterations + 2
            if sol.stop_reason is StopReason.STALLED:
                stalled.append((seed, index))
    print(
        f"{sum(outcomes.values())} problems: "
        f"{outcomes[StopReason.CONVERGED.value]} converged, "
        f"{outcomes[StopReason.STALLED.value]} stalled, "
        f"{outcomes[StopReason.BUDGET.value]} out of budget, "
        f"{outcomes['blow-up']} blew up; "
        f"{fine_passes} fine-grid passes; "
        f"stalled (seed, index): {' '.join(f'({s},{i})' for s, i in stalled) or 'none'}; "
        f"{time.perf_counter() - start:.1f} s"
    )


if __name__ == "__main__":
    main()
