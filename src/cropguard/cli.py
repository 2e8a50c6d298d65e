"""Command-line front end emitting CSV data for the model's analyses.

Subcommands: simulate (time series), equilibria (steady states with
verdicts), stability (characteristic-polynomial detail per steady
state), bifurcate (tail-extrema parameter sweeps), optimize
(forward-backward sweep solution and iteration history).

Configuration precedence: built-in defaults, then a ``key = value``
config file (``#`` comments), then command-line flags.  ``lambda`` is
the config/flag spelling of the aware-activity rate.  Output paths are
checked before the run: a missing or unwritable directory, a path that
names an existing directory, or a ``--history-out`` that names the same
file as ``--out`` (stdout included) is a configuration error, and so is
an option value, a parameter set or an initial state that the library
rejects.  Exit codes: 0 success, 2 configuration error (any
``DomainError``), 3 integration blow-up, 4 sweep non-convergence, 1
when the reader closes stdout early (``cropguard ... | head``); the
rest of the output is discarded without a traceback.

Every command computes its rows before it opens ``--out``, so a blow-up
(exit 3) or a rejected parameter set leaves an existing file untouched.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import io
import os
import sys
from dataclasses import astuple, dataclass, fields
from typing import Iterable, Iterator, Sequence

import numpy as np

from .bifurcation import SweepSpec, run_sweep
from .equilibria import EquilibriumKind, Nonexistent, all_equilibria
from .errors import BlowUpError, DomainError
from .integrate import _CHUNK_STEPS, TimeGrid, default_step, rk4_model
from .model import (
    _PARAM_FIELDS, DEFAULT_STATE, ModelParams, ObjectiveWeights, State, check_count, check_state,
)
from .optimal_control import StopReason, SweepOptions, solve
from .stability import _reports, r0

_WEIGHT_KEYS = tuple(f.name for f in fields(ObjectiveWeights))
_STATE_KEYS = tuple(f"{c}0" for c in State._fields)
_GRID_KEYS = ("tf", "dt")
# config spelling -> ModelParams field
_PARAM_KEYS = {("lambda" if f == "lam" else f): f for f in _PARAM_FIELDS}
_ALL_KEYS = tuple(_PARAM_KEYS) + _WEIGHT_KEYS + _STATE_KEYS + _GRID_KEYS
_CELL = "%.12g"  # the format of every number in a CSV cell

class ConfigError(DomainError):
    """Raised for an unusable config file, flag value or output path."""


@dataclass(frozen=True)
class RunConfig:
    params: ModelParams
    weights: ObjectiveWeights
    y0: State
    tf: float
    dt: float
    grid: TimeGrid  # from tf and dt


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

    params = ModelParams(
        **{field: merged[key] for key, field in _PARAM_KEYS.items() if key in merged}
    )
    weights = ObjectiveWeights(**{k: merged[k] for k in _WEIGHT_KEYS if k in merged})
    y0 = check_state([merged.get(key, v) for key, v in zip(_STATE_KEYS, DEFAULT_STATE)])
    tf = merged.get("tf", 100.0 if args.command == "optimize" else 2000.0)
    dt = merged.get("dt", default_step(tf))
    grid = TimeGrid.from_step(0.0, tf, dt)
    if not dt <= tf:
        raise ConfigError(f"dt must lie in (0, tf], got {dt}")
    return RunConfig(params=params, weights=weights, y0=y0, tf=tf, dt=dt, grid=grid)


def dump_config(cfg: RunConfig) -> str:
    """Effective configuration as config-file text; floats round-trip exactly."""
    values = (*astuple(cfg.params), *astuple(cfg.weights), *cfg.y0, cfg.tf, cfg.dt)
    return "".join(f"{key} = {value!r}\n" for key, value in zip(_ALL_KEYS, values, strict=True))


def _output(path: str | None):
    """A context giving the stream to write ``path``: stdout (left open)
    when it is None or ``-``, else the file, opened for writing now; a
    file that cannot be opened is a configuration error."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror}") from exc


def _emit_csv(path: str | None, header: Sequence[str], body: Iterable[str]) -> None:
    """Write a CSV table to ``path``, or to stdout when it is None or
    ``-``: the header line, then each string of ``body``, the rows' text
    from ``_numbers`` or ``_cells``."""
    with _output(path) as stream:
        stream.write(",".join(header) + "\n")
        for text in body:
            # in pieces: unbuffered (python -u), one write is one write(2),
            # which a reader closing the pipe cuts short without an error, and
            # the text layer drops the rest; only the write after it fails
            for start in range(0, len(text), io.DEFAULT_BUFFER_SIZE):
                stream.write(text[start:start + io.DEFAULT_BUFFER_SIZE])


def _numbers(*columns) -> Iterator[str]:
    """Rows of numbers as CSV text: the 1-D or (n, k) ``columns`` side
    by side, one string per block of ``_CHUNK_STEPS`` rows, each block
    formatted by one ``%`` of a line of ``%.12g`` cells."""
    cells = np.column_stack(columns)
    line = ",".join([_CELL] * cells.shape[1]) + "\n"
    for a in range(0, len(cells), _CHUNK_STEPS):
        block = cells[a:a + _CHUNK_STEPS]
        yield (line * len(block)) % tuple(block.ravel().tolist())


def _cells(rows: Iterable[Sequence]) -> Iterator[str]:
    """Rows of mixed cells as CSV text, one string per row: a string
    cell as it is, a number as ``%.12g``."""
    for row in rows:
        yield ",".join(c if isinstance(c, str) else _CELL % c for c in row) + "\n"


def _check_outputs(args: argparse.Namespace) -> None:
    """Fail before the run when an output CSV path is empty, a directory
    or not writable, or when ``--history-out`` names the same file as
    ``--out`` (stdout included), which the history would overwrite."""
    out, history = args.out, getattr(args, "history_out", None)
    files = [None if path in (None, "-") else os.path.realpath(path) for path in (out, history)]
    if history and files[0] == files[1]:
        raise ConfigError(f"--history-out and --out both name {files[1] or 'stdout'}")
    for path in (out, history):
        if path is None or path == "-":
            continue
        directory = os.path.dirname(path) or "."
        if os.path.isdir(path):
            code = errno.EISDIR
        elif not (path and os.path.isdir(directory)):
            code = errno.ENOENT
        elif not os.access(directory, os.W_OK | os.X_OK):
            code = errno.EACCES
        else:
            continue
        raise ConfigError(f"cannot write {path}: {os.strerror(code)}")


def _given(args: argparse.Namespace, *names: str) -> dict:
    """The named options that were given: an unset one takes the library's default."""
    return {name: getattr(args, name) for name in names if getattr(args, name) is not None}


def cmd_simulate(cfg: RunConfig, args: argparse.Namespace) -> int:
    """integrate the uncontrolled system"""
    traj = rk4_model(cfg.params, cfg.y0, cfg.grid)
    _emit_csv(args.out, ("t", *State._fields), _numbers(traj.times(), traj.states))
    return 0


def _classified(params: ModelParams):
    """Each ``all_equilibria`` entry with its ``_reports`` report (None if Nonexistent)."""
    found = all_equilibria(params)
    reports = iter(_reports(params, [eq for eq in found if not isinstance(eq, Nonexistent)]))
    return [(eq, None if isinstance(eq, Nonexistent) else next(reports)) for eq in found]


def cmd_equilibria(cfg: RunConfig, args: argparse.Namespace) -> int:
    """steady states with verdicts"""
    threshold = r0(cfg.params)  # a degenerate parameter set fails before --out opens
    rows = [
        (eq.kind.value, "", "", "", "", "", "Nonexistent", "", "", eq.reason) if rep is None
        else (eq.kind.value, *eq.point, eq.residual_norm, rep.verdict.value, rep.max_real_part,
              threshold if eq.kind is EquilibriumKind.PEST_FREE else "", "")
        for eq, rep in _classified(cfg.params)
    ]
    _emit_csv(
        args.out,
        ("kind", *State._fields, "residual", "verdict", "max_real_eig", "R0", "reason"),
        _cells(rows),
    )
    return 0


def cmd_stability(cfg: RunConfig, args: argparse.Namespace) -> int:
    """characteristic-polynomial detail"""
    rows = [
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
        for eq, rep in _classified(cfg.params)
        if rep is not None
    ]
    _emit_csv(
        args.out,
        ("kind", *State._fields, "verdict", "max_real_eig", "pure_imaginary", "rh_stable",
         "C1", "C2", "C3", "C4", "H1", "H2"),
        _cells(rows),
    )
    return 0


def cmd_bifurcate(cfg: RunConfig, args: argparse.Namespace) -> int:
    """tail-extrema parameter sweep"""
    steps = check_count(args.steps, "--steps")
    if steps == 1:
        values = (args.sweep_from,)
    else:
        lo, hi = args.sweep_from, args.sweep_to
        step = (hi - lo) / (steps - 1)
        values = tuple(lo + i * step for i in range(steps))
    spec = SweepSpec(
        parameter_name=_PARAM_KEYS[args.parameter],
        values=values,
        grid=cfg.grid,
        initial_state=cfg.y0,
        **_given(args, "transient_fraction"),
    )
    rows = run_sweep(cfg.params, spec)
    _emit_csv(
        args.out,
        ("value", *(f"{c}_{end}" for c in State._fields for end in ("min", "max")),
         "failed", "pest_free", "coexistence"),
        _cells(
            (
                row.parameter_value,
                *(v for pair in zip(row.tail_min, row.tail_max) for v in pair),
                "true" if row.failed else "false",
                row.pest_free_verdict.value if row.pest_free_verdict else "",
                ";".join(v.value for v in row.coexistence_verdicts),
            )
            for row in rows
        ),
    )
    return 0


def cmd_optimize(cfg: RunConfig, args: argparse.Namespace) -> int:
    """forward-backward sweep optimal control"""
    opts = SweepOptions(
        grid=cfg.grid,
        freeze_u1=args.freeze_u1,
        freeze_u2=args.freeze_u2,
        **_given(args, "max_iterations", "tolerance"),
    )
    sol = solve(cfg.params, cfg.weights, cfg.y0, opts)
    run = sol.states
    _emit_csv(
        args.out,
        ("t", *State._fields, "u1", "u2", "p1", "p2", "p3", "p4"),
        _numbers(run.times(), run.states, run.controls, run.costates),
    )
    if args.history_out:
        _emit_csv(
            args.history_out,
            ("iter", "J", "control_change"),
            _numbers(np.arange(1.0, sol.iterations_used + 1), sol.objective_history,
                     sol.change_history),
        )
    if sol.converged:
        return 0
    if sol.stop_reason is StopReason.STALLED:
        why = (
            f"sweep stalled after {sol.iterations_used} iterations: the best "
            f"fixed-point residual |Phi(u) - u| "
            f"({min(sol.residual_history[sol.coarse_iterations:]):.3e}) "
            f"stopped improving"
        )
    else:
        why = (
            f"sweep did not converge within {opts.max_iterations} iterations "
            f"(last control change {sol.change_history[-1]:.3e})"
        )
    print(why, file=sys.stderr)
    return 4


_DISPATCH = {
    "simulate": cmd_simulate,
    "equilibria": cmd_equilibria,
    "stability": cmd_stability,
    "bifurcate": cmd_bifurcate,
    "optimize": cmd_optimize,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cropguard",
        description="Crop-pest-awareness dynamics: simulation, equilibria, "
                    "stability, bifurcation sweeps, and optimal control.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    subs = {}
    for name, command in _DISPATCH.items():  # each command's docstring is its --help line
        sub = subs[name] = commands.add_parser(name, help=command.__doc__)
        sub.add_argument("--config", help="key = value config file")
        sub.add_argument("--out", help="output CSV path (default: stdout)")
        sub.add_argument(
            "--dump-config", action="store_true",
            help="print the effective configuration and exit",
        )
        group = sub.add_argument_group("model and run overrides")
        for key in _ALL_KEYS:
            group.add_argument(f"--{key}", type=float, default=None, dest=key)

    sub = subs["bifurcate"]
    sub.add_argument("--parameter", required=True, choices=sorted(_PARAM_KEYS),
                     help="model parameter to sweep")
    sub.add_argument("--from", dest="sweep_from", type=float, required=True)
    sub.add_argument("--to", dest="sweep_to", type=float, required=True)
    sub.add_argument("--steps", type=int, required=True)
    sub.add_argument("--transient", dest="transient_fraction", type=float,
                     help="fraction of the horizon discarded before extrema")

    sub = subs["optimize"]
    sub.add_argument("--history-out", help="CSV path for per-iteration J and control change")
    sub.add_argument("--max-iterations", dest="max_iterations", type=int)
    sub.add_argument("--tolerance", type=float)
    sub.add_argument("--freeze-u1", dest="freeze_u1", action="store_true",
                     help="pin u1 to 0")
    sub.add_argument("--freeze-u2", dest="freeze_u2", action="store_true",
                     help="pin u2 to 0")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        try:
            return _run(argv)
        finally:
            sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull so the
        # flush at interpreter exit does not fail (Python's signal docs,
        # "Note on SIGPIPE")
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1


def _run(argv: Sequence[str] | None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = effective_config(args)
        if args.dump_config:
            sys.stdout.write(dump_config(cfg))
            return 0
        _check_outputs(args)
        return _DISPATCH[args.command](cfg, args)
    except DomainError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except BlowUpError as exc:
        print(f"integration blow-up: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
