"""One repetition of a workload, in a fresh interpreter.

    python3 cropbench/worker.py SPEC.json

The driver writes SPEC.json and starts this script with the work directory
as its current directory.  The script runs the spec's steps and prints one
JSON line: ``setup_s`` (start of the measured part of this script to the
first command dispatch: importing numpy and cropguard, building the parser,
merging the config), ``wall_s`` (dispatch to return of every command, CSV
writing included, plus the library Hopf scan), ``step_s`` (the machine's
speed while they ran, see ``SpeedProbe``), ``peak_rss_mb``, the exit codes,
and with ``trace`` the per-layer metrics.  With ``profile`` it runs the
steps under cProfile instead and prints the top entries; those runs are
never timed.
"""

import json
import os
import resource
import signal
import sys
import time


def calibrate(steps: int) -> None:
    """A fixed plain-Python RK4 loop on a linear 4-D system."""
    def field(y):
        a, b, c, d = y
        return (-0.1 * a + 0.01 * b, -0.2 * b + 0.01 * c, -0.3 * c + 0.01 * d, -0.4 * d + 0.01 * a)

    h = 0.01
    y = (1.0, 1.0, 1.0, 1.0)
    for _ in range(steps):
        k1 = field(y)
        k2 = field(tuple(v + 0.5 * h * k for v, k in zip(y, k1)))
        k3 = field(tuple(v + 0.5 * h * k for v, k in zip(y, k2)))
        k4 = field(tuple(v + h * k for v, k in zip(y, k3)))
        y = tuple(v + h / 6.0 * (p + 2.0 * (q + r) + s) for v, p, q, r, s in zip(y, k1, k2, k3, k4))


class SpeedProbe:
    """Samples the machine's speed while a repetition runs.

    The machine this runs on changes speed by up to 1.6x from one second to
    the next (other tenants share its cores).  Every ``interval`` seconds a
    SIGALRM handler times a short ``calibrate`` burst; ``spent`` accumulates
    the handler's time so that callers can subtract it from what they
    measure, and ``step_s`` is the mean time of one calibration step, which
    the driver divides out.
    """

    def __init__(self, interval: float = 0.1, steps: int = 400) -> None:
        self.interval, self.steps = interval, steps
        self.bursts: list[float] = []
        self.spent = 0.0

    def burst(self, *_) -> None:
        t0 = time.perf_counter()
        calibrate(self.steps)
        dt = time.perf_counter() - t0
        self.bursts.append(dt)
        self.spent += dt

    def start(self) -> None:
        for _ in range(5):  # samples for short repetitions, before anything is timed
            self.burst()
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self.burst)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        for _ in range(5):
            self.burst()

    def step_s(self) -> float:
        return sum(self.bursts) / len(self.bursts) / self.steps


def _run_steps(spec: dict, cli, hopf_scan, model_params, probe=None) -> tuple[list, float]:
    codes = []
    hopf_s = 0.0
    for step in spec["steps"]:
        if "cli" in step:
            codes.append(cli.main(step["cli"]))
            continue
        lo, hi, n = step["hopf"]
        t0, p0 = time.perf_counter(), probe.spent if probe else 0.0
        found = hopf_scan(model_params(), (lo, hi), n)
        hopf_s += time.perf_counter() - t0 - ((probe.spent if probe else 0.0) - p0)
        with open(step["out"], "w", encoding="utf-8") as fh:
            json.dump([c.alpha_star for c in found], fh)
    return codes, hopf_s


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    probe = None if spec.get("profile") else SpeedProbe()
    if probe:
        probe.start()
    t_start = time.perf_counter()
    sys.path.insert(0, os.path.join(spec["root"], "src"))
    import numpy  # noqa: F401  (its import is part of the measured set-up)
    import cropguard
    from cropguard import cli

    tracer = None
    if spec.get("trace"):
        from spans import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()

    # (start, duration, probe time before start) of every command dispatch;
    # wrapping the dispatch table times exactly what cli.main hands over.
    dispatched: list = []

    def timed(command):
        def run(cfg, args):
            t0, p0 = time.perf_counter(), probe.spent if probe else 0.0
            try:
                return command(cfg, args)
            finally:
                p1 = probe.spent if probe else 0.0
                dispatched.append((t0, time.perf_counter() - t0 - (p1 - p0), p0))
        return run

    for key, command in list(cli._DISPATCH.items()):
        cli._DISPATCH[key] = timed(command)

    if spec.get("profile"):
        import cProfile
        import io
        import pstats

        prof = cProfile.Profile()
        codes, _ = prof.runcall(_run_steps, spec, cli, cropguard.hopf_scan, cropguard.ModelParams)
        text = io.StringIO()
        pstats.Stats(prof, stream=text).sort_stats("cumulative").print_stats(spec["profile"])
        print(json.dumps({"codes": codes, "profile": text.getvalue()}))
        return 0

    codes, hopf_s = _run_steps(spec, cli, cropguard.hopf_scan, cropguard.ModelParams, probe)
    probe.stop()
    result = {
        "codes": codes,
        "setup_s": dispatched[0][0] - t_start - dispatched[0][2] if dispatched else None,
        "wall_s": sum(d for _, d, _ in dispatched) + hopf_s,
        "step_s": probe.step_s(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        csv_bytes = sum(os.path.getsize(p) for p in spec["csv"] if os.path.exists(p))
        result["layers"] = layer_metrics(tracer, csv_bytes)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
