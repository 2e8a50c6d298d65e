"""cropguard benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 cropbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--out RECORD.json] [--profile N]

Run it from anywhere inside a checkout; it finds the package in ``src/``.
Each repetition runs in a fresh interpreter (``worker.py``), one at a time,
with no thread pools.  Repetitions continue until ``--seconds`` have passed,
with at least three (one untraced/traced pair with ``--trace 1``); every
repetition is one attempted operation and counts as failed when a command
exits with an unexpected code or its output disagrees with the oracle
(``checks.py``, references built before the first repetition).

With ``--trace 0`` the last stdout line reports the medians over the
repetitions of ``wall_s``, ``setup_s``, ``peak_rss_mb`` and
``accuracy_digits`` (-log10 of the largest relative deviation from the
oracle).  With ``--trace 1`` untraced and traced repetitions alternate and
it reports the per-layer metrics of ``spans.py``, their medians over the
traced repetitions, plus ``trace.overhead_s`` (traced minus untraced median
wall time) and the raw ``max_rel_err``.  The line before it is a record of
the run: environment, seed, inputs, per-repetition figures and any problems;
``--out`` also writes that record to a file.

``--profile N`` runs one repetition under cProfile, prints its top N entries
and exits; it never runs during timed or traced repetitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

MIN_REPS = 3
# Times are reported at a reference machine speed: each repetition's times
# are scaled by REF_STEP_S / step_s, where step_s is the mean time of one
# worker.calibrate() step sampled while that repetition ran and REF_STEP_S
# that time on the reference machine (2-core Intel Xeon, Python 3.11).
# Unscaled figures stay in the record.
REF_STEP_S = 5e-6
TIME_UNITS = ("s", "us", "ns/B")
# Hard limits that keep one invocation well inside three minutes.
DEADLINE_S = 165.0
WORKER_TIMEOUT_S = 150.0
# Single-threaded BLAS in the workers: no thread pools, steadier timings.
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(ROOT),
    }


def git_commit(root: Path) -> str:
    """HEAD's commit read from .git without running git; 'unknown' outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Run:
    """One invocation: a workload's inputs, its work directory and its repetitions."""

    def __init__(self, wl: dict, work: Path) -> None:
        self.wl = wl
        self.work = work
        self.reps: list[dict] = []
        self.started = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def worker(self, trace: bool = False, profile: int = 0) -> dict:
        spec = {"root": str(ROOT), "steps": self.wl["steps"], "csv": self.wl["csv"],
                "trace": trace, "profile": profile}
        spec_path = self.work / "spec.json"
        spec_path.write_text(json.dumps(spec))
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(spec_path)],
            cwd=self.work, env={**os.environ, **WORKER_ENV}, capture_output=True, text=True,
            timeout=max(1.0, min(WORKER_TIMEOUT_S, DEADLINE_S - self.elapsed())),
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RuntimeError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        out = json.loads(lines[-1])
        out["process_s"] = time.perf_counter() - t0
        if "step_s" in out:
            scale = REF_STEP_S / out["step_s"]
            for key in ("wall_s", "setup_s"):
                if out[key] is not None:
                    out["raw_" + key], out[key] = out[key], out[key] * scale
            for name, (value, unit) in out.get("layers", {}).items():
                if unit in TIME_UNITS:
                    out["layers"][name] = (value * scale, unit)
        return out

    def repeat(self, checker, trace: bool) -> None:
        rep = {"traced": trace}
        try:
            rep.update(self.worker(trace=trace))
            rep["problems"], rep["max_rel_err"], facts = checker.check(rep["codes"], str(self.work))
            rep.update(facts)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            rep["problems"] = [str(exc)]
        self.reps.append(rep)

    def measure(self, checker, seconds: float, trace: bool) -> None:
        """Repeat until ``seconds`` have passed and the minimum count is met.

        A round is started only if a round of the mean length so far fits in
        the time left, so a run ends close to ``seconds`` on every workload.
        """
        kinds = (False, True) if trace else (False,)
        minimum = len(kinds) if trace else MIN_REPS
        t0 = time.perf_counter()
        while True:
            for kind in kinds:
                self.repeat(checker, kind)
            done = len(self.reps)
            spent = time.perf_counter() - t0
            per_round = spent / done * len(kinds)
            if done >= minimum and spent + per_round > seconds:
                return
            if self.elapsed() + per_round > DEADLINE_S:
                return


def _median(reps: list[dict], key: str) -> float | None:
    values = [r[key] for r in reps if r.get(key) is not None]
    return statistics.median(values) if values else None


def summarize(run: Run, trace: bool) -> dict:
    reps = run.reps
    errs = [r["max_rel_err"] for r in reps if math.isfinite(r.get("max_rel_err", math.inf))]
    # 1.0 (no correct digit) only when no repetition produced comparable output.
    max_err = max(errs) if errs else 1.0
    if not trace:
        metrics = {
            "wall_s": (_median(reps, "wall_s"), "s"),
            "setup_s": (_median(reps, "setup_s"), "s"),
            "peak_rss_mb": (_median(reps, "peak_rss_mb"), "MB"),
            "accuracy_digits": (-math.log10(max(max_err, 1e-17)), "digits"),
        }
    else:
        traced = [r for r in reps if r["traced"] and "layers" in r]
        metrics = {}
        for name in (traced[0]["layers"] if traced else {}):
            metrics[name] = (statistics.median(r["layers"][name][0] for r in traced),
                             traced[0]["layers"][name][1])
        untraced_wall = _median([r for r in reps if not r["traced"]], "wall_s")
        traced_wall = _median(traced, "wall_s")
        overhead = None if None in (untraced_wall, traced_wall) else traced_wall - untraced_wall
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["max_rel_err"] = (max_err, "ratio")
        metrics["stability.hopf_scan.alpha_rel_err"] = (
            max((r.get("hopf_alpha_rel_err", 0.0) for r in reps), default=0.0), "ratio")
    missing = [name for name, (value, _) in metrics.items() if value is None]
    if missing or not metrics:
        raise RuntimeError(f"no repetition produced {missing or 'any metric'}; "
                           f"problems: {[r['problems'] for r in reps][:3]}")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="also write the run record (JSON) to this path")
    ap.add_argument("--profile", type=int, default=0, metavar="N",
                    help="print the top N cProfile entries of one repetition and exit")
    ap.add_argument("--small", action="store_true", help=argparse.SUPPRESS)  # self-test inputs
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cropguard" / "__init__.py").is_file():
        print(f"cropguard sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    import checks

    wl = workloads.build(args.workload, args.seed, small=args.small)
    work = ROOT / ".cropbench-work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        run = Run(wl, work)
        if args.profile:
            print(run.worker(profile=args.profile)["profile"])
            return 0
        checker = checks.Checker(wl)
        run.worker()  # untimed warm-up: byte-compiles the package, fills the file cache
        run.measure(checker, args.seconds, bool(args.trace))
        metrics = summarize(run, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another invocation is still using it

    failed = sum(1 for r in run.reps if r["problems"])
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "inputs": {
            k: wl[k] for k in ("y0", "alphas", "hopf", "tf", "n_steps") if k in wl},
        "attempted": len(run.reps), "failed": failed,
        "problems": sorted({p for r in run.reps for p in r["problems"]})[:20],
        "reps": [{k: r.get(k) for k in ("traced", "wall_s", "setup_s", "raw_wall_s", "raw_setup_s",
                                        "step_s", "peak_rss_mb", "process_s")}
                 | {"max_rel_err": r.get("max_rel_err") if math.isfinite(r.get("max_rel_err", math.inf))
                    else None} for r in run.reps],
        "metrics": metrics,
    }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": failed == 0, "attempted": len(run.reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
