"""Shared fixtures: baseline scenario objects and expensive reference runs.

Session-scoped fixtures hold the two costly computations (a 2000-day
baseline trajectory and a converged control sweep on the 100-day
scenario) so module tests and acceptance checks reuse them.
"""

import numpy as np
import pytest
from hypothesis import strategies as st

from cropguard.integrate import TimeGrid, rk4_model
from cropguard.model import ModelParams, ObjectiveWeights, State
from cropguard.optimal_control import SweepOptions, solve


def make_random_params(rng: np.random.Generator) -> ModelParams:
    """Draw a valid parameter set spanning the admissible ranges.

    m1 is drawn above m2 so the infected conversion stays the weaker
    one, and every rate stays strictly positive.
    """
    m2 = rng.uniform(0.05, 0.85)
    return ModelParams(
        r=rng.uniform(0.01, 1.0),
        K=rng.uniform(0.1, 5.0),
        alpha=rng.uniform(0.005, 1.0),
        phi=rng.uniform(0.05, 0.95),
        c=rng.uniform(0.1, 5.0),
        a=rng.uniform(0.05, 5.0),
        lam=rng.uniform(0.001, 0.5),
        d=rng.uniform(0.001, 0.2),
        delta=rng.uniform(0.001, 0.5),
        m1=m2 + rng.uniform(0.02, 1.0 - m2),
        m2=m2,
        gamma=rng.uniform(0.0, 0.05),
        sigma=rng.uniform(0.001, 0.2),
        eta=rng.uniform(0.001, 0.2),
    )


@st.composite
def admissible_params(draw) -> ModelParams:
    """The ranges of make_random_params, drawn by hypothesis."""

    def uniform(lo, hi):
        return draw(st.floats(lo, hi, allow_nan=False, allow_infinity=False))

    m2 = uniform(0.05, 0.85)
    return ModelParams(
        r=uniform(0.01, 1.0),
        K=uniform(0.1, 5.0),
        alpha=uniform(0.005, 1.0),
        phi=uniform(0.05, 0.95),
        c=uniform(0.1, 5.0),
        a=uniform(0.05, 5.0),
        lam=uniform(0.001, 0.5),
        d=uniform(0.001, 0.2),
        delta=uniform(0.001, 0.5),
        m1=m2 + uniform(0.02, 1.0 - m2),
        m2=m2,
        gamma=uniform(0.0, 0.05),
        sigma=uniform(0.001, 0.2),
        eta=uniform(0.001, 0.2),
    )


def make_random_state(rng: np.random.Generator) -> State:
    return State(
        rng.uniform(0.05, 3.0),
        rng.uniform(0.01, 2.0),
        rng.uniform(0.01, 2.0),
        rng.uniform(0.02, 3.0),
    )


@pytest.fixture(scope="session")
def baseline() -> ModelParams:
    return ModelParams()


@pytest.fixture(scope="session")
def weights() -> ObjectiveWeights:
    return ObjectiveWeights()


@pytest.fixture(scope="session")
def y0() -> State:
    return State(0.2, 0.07, 0.05, 0.5)


@pytest.fixture(scope="session")
def long_run(baseline, y0):
    """Uncontrolled 2000-day baseline trajectory at the default step."""
    grid = TimeGrid(0.0, 2000.0, 40000)
    return rk4_model(baseline, y0, grid)


@pytest.fixture(scope="session")
def control_grid() -> TimeGrid:
    return TimeGrid(0.0, 100.0, 10000)


@pytest.fixture(scope="session")
def converged_sweep(baseline, weights, y0, control_grid):
    """Converged forward-backward sweep on the 100-day scenario."""
    return solve(baseline, weights, y0, SweepOptions(grid=control_grid))


@pytest.fixture(scope="session")
def uncontrolled_run(baseline, y0, control_grid):
    """Uncontrolled twin of the control scenario, on the same grid."""
    return rk4_model(baseline, y0, control_grid)
