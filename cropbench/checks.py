"""Correctness checks of one repetition's outputs against the oracle.

A ``Checker`` builds its references once, before any repetition runs, and
then judges each repetition from the files it left in the work directory.
``check`` returns the problems found (an empty list means the operation
succeeded), the largest relative deviation from the oracle, and facts the
driver reports alongside it.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np

import oracle

# Largest relative deviation from the oracle that still counts as correct.
# Measured where this benchmark was defined: simulate ~3e-12, sweep ~1e-9,
# optimize ~6e-8 (the last history J against the re-integrated objective;
# the states agree to ~1e-12), analysis ~1.3e-9.
TOLERANCE = {"simulate": 1e-9, "sweep": 1e-7, "optimize": 1e-6, "analysis": 1e-7}
# The Hopf scan stops bisecting once |Psi| < 1e-10, which leaves alpha* up to
# ~6e-3 (relative) from the crossing; it is checked against its own bound and
# reported on its own, so that where bisection stops does not set the
# workload's accuracy figure.
HOPF_TOLERANCE = 2e-2
STATIONARITY_BOUND = 1e-6


def _rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _table(path: str) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Checker:
    def __init__(self, wl: dict) -> None:
        self.wl = wl
        self.p = oracle.params()
        M, W, A = oracle.containment_box(self.p, wl["y0"][0])
        X, S, I, A0 = wl["y0"]
        if min(wl["y0"]) < 0 or X > M or X + S + I > W or A0 > A:
            raise ValueError(f"initial state {wl['y0']} lies outside the containment box")
        name = wl["name"]
        if name == "simulate":
            self.ref = oracle.trajectory(self.p, wl["y0"], wl["tf"], wl["n_steps"])
        elif name == "sweep":
            self.ref = oracle.sweep_tails(self.p, wl["alphas"], wl["y0"], wl["tf"],
                                          wl["n_steps"], wl["transient"])
            self.steady = [oracle.equilibria(oracle.params(alpha=a)) for a in wl["alphas"]]
        elif name == "analysis":
            self.steady = [oracle.equilibria(oracle.params(alpha=a)) for a in wl["alphas"]]
            self.hopf = oracle.hopf_alphas(self.p, *wl["hopf"])
        else:
            self._controlled: dict = {}

    def check(self, codes: list[int], work: str) -> tuple[list[str], float, dict]:
        problems = [f"step {i} exited with code {c}" for i, c in enumerate(codes) if c != 0]
        if problems:
            return problems, math.inf, {}
        try:
            problems, err, facts = getattr(self, "_" + self.wl["name"])(work)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            return [f"unreadable output: {exc}"], math.inf, {}
        if err > TOLERANCE[self.wl["name"]]:
            problems.append(f"max_rel_err {err:.3g} above tolerance {TOLERANCE[self.wl['name']]:g}")
        return problems, err, facts

    def _simulate(self, work: str):
        out = _table(os.path.join(work, "simulate.csv"))
        if out.shape != self.ref.shape[:1] + (5,):
            return [f"simulate.csv has shape {out.shape}"], math.inf, {}
        t = np.linspace(0.0, self.wl["tf"], self.wl["n_steps"] + 1)
        problems = [] if oracle.rel(out[:, 0], t) < 1e-11 else ["time column off the grid"]
        return problems, oracle.rel_columns(out[:, 1:], self.ref), {}

    def _sweep(self, work: str):
        rows = _rows(os.path.join(work, "sweep.csv"))
        problems = []
        if len(rows) != len(self.ref):
            return [f"sweep.csv has {len(rows)} rows, expected {len(self.ref)}"], math.inf, {}
        cols = ("X_min", "X_max", "S_min", "S_max", "I_min", "I_max", "A_min", "A_max")
        got = np.array([[float(r[c]) for c in cols] for r in rows])
        if oracle.rel([float(r["value"]) for r in rows], self.wl["alphas"]) > 1e-11:
            problems.append("swept values differ from the requested grid")
        for row, steady in zip(rows, self.steady):
            if row["failed"] != "false":
                problems.append(f"row {row['value']} failed")
            pest_free = next(s for s in steady if s.kind == "PestFree")
            stars = [s for s in steady if s.kind == "Coexistence"]
            if row["pest_free"] != oracle.verdict(pest_free.max_real):
                problems.append(f"pest-free verdict {row['pest_free']} at {row['value']}")
            expected = ";".join(oracle.verdict(s.max_real) for s in stars)
            if row["coexistence"] != expected:
                problems.append(f"coexistence verdicts {row['coexistence']!r} at {row['value']}")
        return problems, oracle.rel(got, self.ref), {}

    def _optimize(self, work: str):
        out = _table(os.path.join(work, "optimize.csv"))
        history = _table(os.path.join(work, "history.csv"))
        n = self.wl["n_steps"] + 1
        if out.shape != (n, 11):
            return [f"optimize.csv has shape {out.shape}"], math.inf, {}
        t, states, u, costates = out[:, 0], out[:, 1:5], out[:, 5:7], out[:, 7:11]
        key = u.tobytes()
        if key not in self._controlled:  # repetitions return the same controls
            self._controlled = {key: oracle.controlled_run(self.p, oracle.WEIGHTS,
                                                           self.wl["y0"], t, u)}
        ref_states, ref_J = self._controlled[key]
        residual = oracle.stationarity_residual(self.p, oracle.WEIGHTS, states, u, costates)
        problems = []
        if residual > STATIONARITY_BOUND:
            problems.append(f"stationarity residual {residual:.3g} above {STATIONARITY_BOUND:g}")
        err = max(oracle.rel_columns(states, ref_states), oracle.rel(history[-1, 1], ref_J))
        return problems, err, {"stationarity_residual": residual}

    def _analysis(self, work: str):
        problems, err = [], 0.0
        for i, (alpha, steady) in enumerate(zip(self.wl["alphas"], self.steady)):
            for cmd in ("equilibria", "stability"):
                rows = [r for r in _rows(os.path.join(work, f"{cmd}_{i}.csv"))
                        if r["verdict"] != "Nonexistent"]
                if [r["kind"] for r in rows] != [s.kind for s in steady]:
                    problems.append(f"{cmd} at alpha={alpha:.6g} lists "
                                    f"{[r['kind'] for r in rows]}, expected {[s.kind for s in steady]}")
                    continue
                for r, s in zip(rows, steady):
                    radius = float(np.abs(s.eigs).max())
                    point = [float(r[c]) for c in "XSIA"]
                    err = max(err, oracle.rel(point, s.point),
                              abs(float(r["max_real_eig"]) - s.max_real) / radius)
                    if abs(s.max_real) > 1e-7 and r["verdict"] != oracle.verdict(s.max_real):
                        problems.append(f"{cmd} verdict {r['verdict']} for {s.kind} at alpha={alpha:.6g}")
                    if cmd == "stability":
                        coeffs = np.poly(s.eigs)[1:].real
                        got = np.array([float(r[c]) for c in ("C1", "C2", "C3", "C4")])
                        scale = radius ** np.arange(1, 5)
                        err = max(err, float((np.abs(got - coeffs) / scale).max()))
        with open(os.path.join(work, "hopf.json"), encoding="utf-8") as fh:
            found = json.load(fh)
        hopf_err = 0.0
        if len(found) != len(self.hopf):
            problems.append(f"hopf_scan found {found}, oracle crossings {self.hopf}")
        elif found:
            hopf_err = oracle.rel(found, self.hopf)
            if hopf_err > HOPF_TOLERANCE:
                problems.append(f"hopf alpha* {found} vs oracle {self.hopf}")
        return problems, err, {"hopf_alpha_rel_err": hopf_err}
