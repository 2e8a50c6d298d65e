"""Command-line front end emitting CSV data for the model's analyses.

Subcommands: simulate (time series), equilibria (steady states with
verdicts), stability (characteristic-polynomial detail per steady
state), bifurcate (tail-extrema parameter sweeps), optimize
(forward-backward sweep solution and iteration history).

Configuration precedence: built-in defaults, then a ``key = value``
config file (``#`` comments), then command-line flags.  ``lambda`` is
the config/flag spelling of the aware-activity rate.  Exit codes:
0 success, 2 configuration error, 3 integration blow-up, 4 sweep
non-convergence.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

from .bifurcation import SweepSpec, run_sweep
from .equilibria import EquilibriumKind, Nonexistent, all_equilibria
from .errors import BlowUpError, CropguardError
from .integrate import TimeGrid, default_step, rk4_model
from .model import _PARAM_FIELDS, ModelParams, ObjectiveWeights, State
from .optimal_control import SweepOptions, solve
from .stability import classify, r0

_WEIGHT_KEYS = ("A1", "A2", "B1", "B2")
_STATE_KEYS = ("X0", "S0", "I0", "A0")
_GRID_KEYS = ("tf", "dt")
# config spelling -> ModelParams field
_PARAM_KEYS = {("lambda" if f == "lam" else f): f for f in _PARAM_FIELDS}
_ALL_KEYS = tuple(_PARAM_KEYS) + _WEIGHT_KEYS + _STATE_KEYS + _GRID_KEYS

_DEFAULT_TF = {"simulate": 2000.0, "bifurcate": 2000.0, "optimize": 100.0}


class ConfigError(CropguardError, ValueError):
    """Raised for unusable configuration input."""


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    weights: ObjectiveWeights
    y0: State
    tf: float
    dt: float


def parse_config_file(path: str) -> dict[str, float]:
    """Read ``key = value`` lines; unknown keys and bad numbers raise."""
    out: dict[str, float] = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.rstrip()!r}")
        if key not in _ALL_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            out[key] = float(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad number for {key}: {value!r}") from exc
    return out


def effective_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file, and flags into a validated RunConfig."""
    merged: dict[str, float] = {}
    if getattr(args, "config", None):
        merged.update(parse_config_file(args.config))
    ns = vars(args)
    for key in _ALL_KEYS:
        if ns.get(key) is not None:
            merged[key] = ns[key]

    try:
        params = ModelParams(
            **{field: merged[key] for key, field in _PARAM_KEYS.items() if key in merged}
        )
        weights = ObjectiveWeights(**{k: merged[k] for k in _WEIGHT_KEYS if k in merged})
    except (CropguardError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    y0 = State(
        merged.get("X0", 0.2),
        merged.get("S0", 0.07),
        merged.get("I0", 0.05),
        merged.get("A0", 0.5),
    )
    tf = merged.get("tf", _DEFAULT_TF.get(args.command, 2000.0))
    if not tf > 0.0:
        raise ConfigError(f"tf must be positive, got {tf}")
    dt = merged.get("dt", default_step(tf))
    if not 0.0 < dt <= tf:
        raise ConfigError(f"dt must lie in (0, tf], got {dt}")
    return RunConfig(params=params, weights=weights, y0=y0, tf=tf, dt=dt)


def dump_config(cfg: RunConfig) -> str:
    """Effective configuration as config-file text; floats round-trip exactly."""
    lines = []
    for key, field in _PARAM_KEYS.items():
        lines.append(f"{key} = {getattr(cfg.params, field)!r}")
    for key in _WEIGHT_KEYS:
        lines.append(f"{key} = {getattr(cfg.weights, key)!r}")
    for key, value in zip(_STATE_KEYS, cfg.y0):
        lines.append(f"{key} = {value!r}")
    lines.append(f"tf = {cfg.tf!r}")
    lines.append(f"dt = {cfg.dt!r}")
    return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    return "%.12g" % value


def _write_csv(stream: TextIO, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    stream.write(",".join(header) + "\n")
    for row in rows:
        stream.write(",".join(cell if isinstance(cell, str) else _fmt(cell) for cell in row))
        stream.write("\n")


def _emit_csv(path: str | None, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write CSV rows to ``path``, or to stdout when it is None or ``-``."""
    if path is None or path == "-":
        _write_csv(sys.stdout, header, rows)
        return
    with open(path, "w", encoding="utf-8", newline="\n") as stream:
        _write_csv(stream, header, rows)


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    grid = TimeGrid.from_step(0.0, cfg.tf, cfg.dt)
    traj = rk4_model(cfg.params, cfg.y0, grid)
    times = traj.times()
    _emit_csv(
        args.out,
        ("t", "X", "S", "I", "A"),
        ((times[i], *traj.states[i]) for i in range(len(times))),
    )
    return 0


def _equilibria_rows(cfg: RunConfig):
    threshold = r0(cfg.params)
    for eq in all_equilibria(cfg.params):
        if isinstance(eq, Nonexistent):
            yield (eq.kind.value, "", "", "", "", "", "Nonexistent", "", "", eq.reason)
            continue
        report = classify(cfg.params, eq)
        r0_cell = _fmt(threshold) if eq.kind is EquilibriumKind.PEST_FREE else ""
        yield (
            eq.kind.value,
            *eq.point,
            eq.residual_norm,
            report.verdict.value,
            report.max_real_part,
            r0_cell,
            "",
        )


def cmd_equilibria(cfg: RunConfig, args: argparse.Namespace) -> int:
    _emit_csv(
        args.out,
        ("kind", "X", "S", "I", "A", "residual", "verdict", "max_real_eig", "R0", "reason"),
        _equilibria_rows(cfg),
    )
    return 0


def cmd_stability(cfg: RunConfig, args: argparse.Namespace) -> int:
    rows = []
    for eq in all_equilibria(cfg.params):
        if isinstance(eq, Nonexistent):
            continue
        rep = classify(cfg.params, eq)
        rows.append(
            (
                eq.kind.value,
                *eq.point,
                rep.verdict.value,
                rep.max_real_part,
                "true" if rep.pure_imaginary else "false",
                "true" if rep.rh_stable else "false",
                *rep.char,
                *rep.rh_margins[3:],
            )
        )
    _emit_csv(
        args.out,
        (
            "kind", "X", "S", "I", "A", "verdict", "max_real_eig",
            "pure_imaginary", "rh_stable", "C1", "C2", "C3", "C4", "H1", "H2",
        ),
        rows,
    )
    return 0


def cmd_bifurcate(cfg: RunConfig, args: argparse.Namespace) -> int:
    if args.steps < 1:
        raise ConfigError(f"--steps must be at least 1, got {args.steps}")
    if args.steps == 1:
        values = (args.sweep_from,)
    else:
        lo, hi = args.sweep_from, args.sweep_to
        step = (hi - lo) / (args.steps - 1)
        values = tuple(lo + i * step for i in range(args.steps))
    spec = SweepSpec(
        parameter_name=_PARAM_KEYS.get(args.parameter, args.parameter),
        values=values,
        tf=cfg.tf,
        transient_fraction=args.transient,
        initial_state=cfg.y0,
        dt=cfg.dt,
    )
    rows = run_sweep(cfg.params, spec)
    def cells():
        for row in rows:
            yield (
                row.parameter_value,
                row.tail_min.X, row.tail_max.X,
                row.tail_min.S, row.tail_max.S,
                row.tail_min.I, row.tail_max.I,
                row.tail_min.A, row.tail_max.A,
                "true" if row.failed else "false",
                row.pest_free_verdict.value if row.pest_free_verdict else "",
                ";".join(v.value for v in row.coexistence_verdicts),
            )
    _emit_csv(
        args.out,
        (
            "value", "X_min", "X_max", "S_min", "S_max", "I_min", "I_max",
            "A_min", "A_max", "failed", "pest_free", "coexistence",
        ),
        cells(),
    )
    return 0


def cmd_optimize(cfg: RunConfig, args: argparse.Namespace) -> int:
    grid = TimeGrid.from_step(0.0, cfg.tf, cfg.dt)
    opts = SweepOptions(
        grid=grid,
        max_iterations=args.max_iterations,
        tolerance=args.tolerance,
        relaxation_theta=args.theta,
        freeze_u1=args.freeze_u1,
        freeze_u2=args.freeze_u2,
    )
    sol = solve(cfg.params, cfg.weights, cfg.y0, opts)
    times = sol.states.times()
    _emit_csv(
        args.out,
        ("t", "X", "S", "I", "A", "u1", "u2", "p1", "p2", "p3", "p4"),
        (
            (times[i], *sol.states.states[i], *sol.controls[i], *sol.costates[i])
            for i in range(len(times))
        ),
    )
    if args.history_out:
        _emit_csv(
            args.history_out,
            ("iter", "J", "control_change"),
            (
                (float(i + 1), sol.objective_history[i], sol.change_history[i])
                for i in range(sol.iterations_used)
            ),
        )
    if not sol.converged:
        print(
            f"sweep did not converge within {opts.max_iterations} iterations "
            f"(last control change {sol.change_history[-1]:.3e})",
            file=sys.stderr,
        )
        return 4
    return 0


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="key = value config file")
    sub.add_argument("--out", help="output CSV path (default: stdout)")
    sub.add_argument(
        "--dump-config", action="store_true",
        help="print the effective configuration and exit",
    )
    group = sub.add_argument_group("model and run overrides")
    for key in _ALL_KEYS:
        group.add_argument(f"--{key}", type=float, default=None, dest=key)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cropguard",
        description="Crop-pest-awareness dynamics: simulation, equilibria, "
                    "stability, bifurcation sweeps, and optimal control.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("simulate", help="integrate the uncontrolled system")
    _add_config_flags(sub)

    sub = commands.add_parser("equilibria", help="steady states with verdicts")
    _add_config_flags(sub)

    sub = commands.add_parser("stability", help="characteristic-polynomial detail")
    _add_config_flags(sub)

    sub = commands.add_parser("bifurcate", help="tail-extrema parameter sweep")
    _add_config_flags(sub)
    sub.add_argument("--parameter", required=True, choices=sorted(_PARAM_KEYS),
                     help="model parameter to sweep")
    sub.add_argument("--from", dest="sweep_from", type=float, required=True)
    sub.add_argument("--to", dest="sweep_to", type=float, required=True)
    sub.add_argument("--steps", type=int, required=True)
    sub.add_argument("--transient", type=float, default=0.7,
                     help="fraction of the horizon discarded before extrema")

    sub = commands.add_parser("optimize", help="forward-backward sweep optimal control")
    _add_config_flags(sub)
    sub.add_argument("--history-out", help="CSV path for per-iteration J and control change")
    sub.add_argument("--max-iterations", dest="max_iterations", type=int, default=5000)
    sub.add_argument("--tolerance", type=float, default=1e-6)
    sub.add_argument("--theta", type=float, default=0.5,
                     help="relaxation weight for control updates")
    sub.add_argument("--freeze-u1", dest="freeze_u1", action="store_true",
                     help="pin u1 to 0")
    sub.add_argument("--freeze-u2", dest="freeze_u2", action="store_true",
                     help="pin u2 to 0")

    return parser


_DISPATCH = {
    "simulate": cmd_simulate,
    "equilibria": cmd_equilibria,
    "stability": cmd_stability,
    "bifurcate": cmd_bifurcate,
    "optimize": cmd_optimize,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = effective_config(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.dump_config:
        sys.stdout.write(dump_config(cfg))
        return 0
    try:
        return _DISPATCH[args.command](cfg, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"integration blow-up: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
