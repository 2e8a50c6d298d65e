"""Fast self-test of the benchmark harness on shrunken inputs.

    python3 cropbench/selftest.py

Runs every workload once untraced and once traced with the self-test sizes
(short horizons, few grid points) and checks the result line against
BENCHMARK.json: the exact keys, a correct run, and every named metric
present with its unit.  It also checks that the seed moves the inputs but
not the work size, that ``--profile`` prints a profile, and that the
benchmark refuses to report from a tree without the package sources.  The
file name keeps it out of pytest's collection, so tier-1 time is unchanged.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=170)


def check_result(proc: subprocess.CompletedProcess, expected: dict[str, str], label: str) -> list[str]:
    if proc.returncode != 0:
        return [f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    errors = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0 or result.get("attempted", 0) < 1:
        errors.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')} "
                      f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append(f"{label}: missing {sorted(set(expected) - set(metrics))}, "
                      f"unexpected {sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        m = metrics.get(name, {})
        if m.get("unit") != unit or not isinstance(m.get("value"), (int, float)):
            errors.append(f"{label}: {name} reads {m}, expected a number in {unit}")
    return errors


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    errors = []
    if [w["name"] for w in bench["workloads"]] != list(workloads.NAMES):
        errors.append(f"BENCHMARK.json workloads differ from {workloads.NAMES}")

    for name in workloads.NAMES:
        a, b = workloads.build(name, 1), workloads.build(name, 2)
        if a != workloads.build(name, 1):
            errors.append(f"{name}: the same seed gave different inputs")
        if a["y0"] == b["y0"] or [len(s) for s in a["steps"]] != [len(s) for s in b["steps"]]:
            errors.append(f"{name}: seeds should move the inputs and keep the work size")
        for trace, expected in (("0", e2e), ("1", layers)):
            proc = run("cropbench/run.py", "--workload", name, "--seed", "7", "--seconds", "0",
                       "--trace", trace, "--small")
            errors += check_result(proc, expected, f"{name} --trace {trace}")
        print(f"{name}: checked", flush=True)

    proc = run("cropbench/run.py", "--workload", "analysis", "--seed", "7", "--seconds", "0",
               "--small", "--profile", "5")
    if proc.returncode != 0 or "function calls" not in proc.stdout:
        errors.append(f"--profile printed no profile: {proc.stderr.strip()[-500:]}")

    bare = ROOT / ".cropbench-work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = run(*bench["command"][1:], "--workload", "simulate", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.parent.rmdir()
    except OSError:
        pass  # a benchmark run is still using it
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append("a tree without src/cropguard should fail without printing a result")

    for e in errors:
        print("FAIL", e)
    print("self-test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
