"""The benchmark's four workloads and their inputs, generated from a seed.

The seed moves the inputs, never the amount of work: step counts, grid sizes
and sample counts are fixed per workload.  It scales each initial-state
component by a factor in [0.9, 1.1], which keeps the state well inside the
containment box, and shifts the alpha grids by up to 0.005.

Why these four (each stresses a different layer of cropguard):

- ``simulate``: one long uncontrolled run, 40k RK4 steps and 2.9 MB of
  CSV; about half RK4, half CSV writing.  No equilibria, no control.
- ``optimize``: the forward-backward sweep at its defaults (10k nodes,
  about 23 iterations of a controlled and an adjoint pass).  The dominant
  user cost; CSV writing is about 1%, no coexistence solves.
- ``sweep``: ten independent 40k-step trajectories reduced to tail
  extrema, one coexistence solve and classify per row, a tiny CSV.  The
  only workload that runs ``bifurcation``.
- ``analysis``: equilibria and stability over an alpha grid spanning no
  coexistence, damped and oscillatory coexistence, plus ``hopf_scan``.
  Nearly all coexistence root solving, no RK4 at all.
"""

from __future__ import annotations

import random

NAMES = ("simulate", "optimize", "sweep", "analysis")

DEFAULT_STATE = (0.2, 0.07, 0.05, 0.5)
STATE_JITTER = 0.1
ALPHA_JITTER = 0.005

SWEEP = dict(lo=0.3, hi=1.2, steps=10, transient=0.7)
# alpha = 0.02 has no coexistence point, 0.13-0.77 a damped one and
# 0.88-1.2 an oscillatory one (the Hopf point sits near 0.83).
ANALYSIS_GRID = dict(lo=0.02, hi=1.2, n=12)
HOPF = dict(lo=0.3, hi=1.2, n=81)

# Horizons and step sizes the program uses by default for each command.
HORIZON = {"simulate": (2000.0, 0.05), "sweep": (2000.0, 0.05), "optimize": (100.0, 0.01)}

# Shrunken sizes used only by the harness self-test.
SMALL = dict(tf={"simulate": 50.0, "sweep": 50.0, "optimize": 2.0},
             sweep_steps=3, analysis_n=3, hopf=(0.75, 0.95, 9))


def _num(x: float) -> str:
    return repr(float(x))


def build(name: str, seed: int, small: bool = False) -> dict:
    """Worker steps, expected outputs and the facts the oracle needs.

    Each step is ``{"cli": argv}`` for a cropguard command or
    ``{"hopf": [lo, hi, n], "out": path}`` for the library Hopf scan; paths
    are relative to the run's work directory, and ``csv`` lists the files
    the program writes.
    """
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    rng = random.Random(f"{name}:{seed}")
    y0 = tuple(v * rng.uniform(1 - STATE_JITTER, 1 + STATE_JITTER) for v in DEFAULT_STATE)
    shift = rng.uniform(-ALPHA_JITTER, ALPHA_JITTER)
    state_flags = [f for key, v in zip(("X0", "S0", "I0", "A0"), y0) for f in (f"--{key}", _num(v))]
    w = {"name": name, "seed": seed, "small": small, "y0": y0}

    if name in HORIZON:
        tf, dt = HORIZON[name]
        if small:
            tf = SMALL["tf"][name]
        w["tf"], w["n_steps"] = tf, round(tf / dt)
        extra = ["--tf", _num(tf), "--dt", _num(dt)] if small else []
    if name == "simulate":
        w["steps"] = [{"cli": ["simulate", *state_flags, *extra, "--out", "simulate.csv"]}]
    elif name == "optimize":
        w["steps"] = [{"cli": ["optimize", *state_flags, *extra, "--history-out", "history.csv",
                               "--out", "optimize.csv"]}]
    elif name == "sweep":
        n = SMALL["sweep_steps"] if small else SWEEP["steps"]
        lo, hi = SWEEP["lo"] + shift, SWEEP["hi"] + shift
        w["alphas"] = [lo + i * (hi - lo) / (n - 1) for i in range(n)]
        w["transient"] = SWEEP["transient"]
        w["steps"] = [{"cli": ["bifurcate", "--parameter", "alpha", "--from", _num(lo),
                               "--to", _num(hi), "--steps", str(n), *state_flags, *extra,
                               "--out", "sweep.csv"]}]
    else:
        n = SMALL["analysis_n"] if small else ANALYSIS_GRID["n"]
        lo, hi = ANALYSIS_GRID["lo"] + shift, ANALYSIS_GRID["hi"] + shift
        w["alphas"] = [lo + i * (hi - lo) / (n - 1) for i in range(n)]
        w["steps"] = []
        for i, alpha in enumerate(w["alphas"]):
            for cmd in ("equilibria", "stability"):
                w["steps"].append({"cli": [cmd, "--alpha", _num(alpha), "--out", f"{cmd}_{i}.csv"]})
        lo, hi, n = SMALL["hopf"] if small else (HOPF["lo"], HOPF["hi"], HOPF["n"])
        w["hopf"] = [lo + shift, hi + shift, n]
        w["steps"].append({"hopf": w["hopf"], "out": "hopf.json"})
    w["csv"] = [s["cli"][-1] for s in w["steps"] if "cli" in s]
    if name == "optimize":
        w["csv"].append("history.csv")
    return w
