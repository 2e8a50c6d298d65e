"""Spans around cropguard's public functions, kept in memory, and the
per-layer metrics reduced from them.

``Tracer.install`` wraps every public module-level function of the layer
modules below.  Modules such as ``cli``, ``bifurcation``, ``optimal_control``
and ``stability`` bind names with ``from ... import``, so each wrapper is put
in place of the original wherever a module (or a module-level dict such as
the CLI's dispatch table) refers to it.  A span is ``[name, start, end,
parent, info]``; a span's self time is its duration minus the durations of
its direct children, which cover disjoint parts of it on one thread.

The field factories (``vector_field``, ``controlled_vector_field``,
``adjoint_field``) also get their returned closures wrapped in a counter, so
field evaluations are counted exactly without a span per evaluation.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from collections import Counter

LAYERS = ("model", "integrate", "equilibria", "quartic", "stability",
          "bifurcation", "optimal_control", "cli")

# factory -> (evaluation counter, kind tag of the returned field)
_FIELD_FACTORIES = {
    "model.vector_field": ("field", "uncontrolled"),
    "model.controlled_vector_field": ("field", "controlled"),
    "model.adjoint_field": ("adjoint", "adjoint"),
}

# Facts recorded on a span from the call's bound arguments and its result.
_ANNOTATE = {
    "integrate.rk4_forward": lambda a, r: {
        "steps": a["grid"].n_steps, "kind": getattr(a["f"], "field_kind", "other")},
    "integrate.rk4_backward": lambda a, r: {"steps": a["grid"].n_steps},
    "equilibria.coexistence": lambda a, r: {"roots": len(r)},
    "stability.hopf_scan": lambda a, r: {"candidates": len(r)},
    "bifurcation.run_sweep": lambda a, r: {
        "rows": len(r), "failed": sum(1 for row in r if row.failed)},
    "optimal_control.solve": lambda a, r: {
        "iterations": r.iterations_used, "residual": r.stationarity_residual},
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.evals: Counter = Counter()
        self._stack: list[int] = []

    def install(self) -> None:
        wrapped: dict = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"cropguard.{layer}")
            for name, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    wrapped[fn] = self._wrap(f"{layer}.{name}", fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cropguard" or mod_name.startswith("cropguard.")):
                continue
            for name, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    setattr(mod, name, wrapped[value])
                elif isinstance(value, dict) and not name.startswith("__"):
                    for key, item in list(value.items()):
                        if isinstance(item, types.FunctionType) and item in wrapped:
                            value[key] = wrapped[item]

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        annotate = _ANNOTATE.get(name)
        signature = inspect.signature(fn) if annotate else None
        field = _FIELD_FACTORIES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if annotate is not None:
                try:
                    rec[4] = annotate(signature.bind(*args, **kwargs).arguments, result)
                except (AttributeError, KeyError, TypeError):
                    pass  # an API change loses the annotation, not the run
            if field is not None:
                result = self._counted(result, *field)
            return result

        return traced

    def _counted(self, f, counter: str, kind: str):
        evals = self.evals

        def counted(*args):
            evals[counter] += 1
            return f(*args)

        counted.field_kind = kind
        return counted


def layer_metrics(tracer: Tracer, csv_bytes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as ``name -> (value, unit)``.

    Every name is emitted on every workload; a layer the workload does not
    reach reads 0.  ``calls`` and ``us_per_call`` count the outermost call
    of a recursion once and use inclusive time; ``self_s`` sums self time
    over all spans of the name.  ``cli.csv.self_s`` is the self time of the
    ``cmd_*`` functions, which is their CSV formatting and writing.
    """
    spans = tracer.spans
    children = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    agg: dict[str, dict] = {}
    under_hopf = [False] * len(spans)
    for i, (name, start, end, parent, info) in enumerate(spans):
        if parent >= 0:
            under_hopf[i] = under_hopf[parent] or spans[parent][0] == "stability.hopf_scan"
        key = name
        if name == "integrate.rk4_forward":
            key = f"{name}.{(info or {}).get('kind', 'other')}"
        a = agg.setdefault(key, Counter())
        a["self_s"] += end - start - children[i]
        if parent < 0 or spans[parent][0] != name:  # outermost call of a recursion
            a["calls"] += 1
            a["incl_s"] += end - start
        for k, v in (info or {}).items():
            if k != "kind":
                a[k] += v
        if name == "equilibria.coexistence" and under_hopf[i]:
            agg.setdefault("hopf", Counter())["coexistence_calls"] += 1

    def get(key: str) -> Counter:
        return agg.get(key, Counter())

    def per(num: float, den: float, scale: float = 1.0) -> float:
        return num / den * scale if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    csv_self = sum(a["self_s"] for k, a in agg.items() if k.startswith("cli.cmd_"))
    out["cli.csv.self_s"] = (csv_self, "s")
    out["cli.csv.bytes"] = (csv_bytes, "B")
    out["cli.csv.ns_per_byte"] = (per(csv_self, csv_bytes, 1e9), "ns/B")
    out["model.field.evals"] = (tracer.evals["field"], "count")
    out["model.adjoint.evals"] = (tracer.evals["adjoint"], "count")
    for key in ("integrate.rk4_forward.uncontrolled", "integrate.rk4_forward.controlled",
                "integrate.rk4_backward"):
        a = get(key)
        out[f"{key}.calls"] = (a["calls"], "count")
        out[f"{key}.steps"] = (a["steps"], "count")
        out[f"{key}.self_s"] = (a["self_s"], "s")
        out[f"{key}.us_per_step"] = (per(a["self_s"], a["steps"], 1e6), "us")
    a = get("integrate.integrate_cost")
    out["integrate.integrate_cost.calls"] = (a["calls"], "count")
    out["integrate.integrate_cost.self_s"] = (a["self_s"], "s")
    a = get("equilibria.coexistence")
    out["equilibria.coexistence.calls"] = (a["calls"], "count")
    out["equilibria.coexistence.self_s"] = (a["self_s"], "s")
    out["equilibria.coexistence.us_per_call"] = (per(a["incl_s"], a["calls"], 1e6), "us")
    out["equilibria.coexistence.roots"] = (a["roots"], "count")
    a = get("equilibria.all_equilibria")
    out["equilibria.all_equilibria.calls"] = (a["calls"], "count")
    out["equilibria.all_equilibria.self_s"] = (a["self_s"], "s")
    for key in ("quartic.quartic_roots", "stability.classify"):
        a = get(key)
        out[f"{key}.calls"] = (a["calls"], "count")
        out[f"{key}.us_per_call"] = (per(a["incl_s"], a["calls"], 1e6), "us")
    a = get("stability.hopf_scan")
    out["stability.hopf_scan.self_s"] = (a["self_s"], "s")
    out["stability.hopf_scan.coexistence_calls"] = (get("hopf")["coexistence_calls"], "count")
    out["stability.hopf_scan.candidates"] = (a["candidates"], "count")
    a = get("bifurcation.run_sweep")
    out["bifurcation.run_sweep.rows"] = (a["rows"], "count")
    out["bifurcation.run_sweep.failed_rows"] = (a["failed"], "count")
    out["bifurcation.run_sweep.self_s"] = (a["self_s"], "s")
    out["bifurcation.run_sweep.s_per_row"] = (per(a["incl_s"], a["rows"]), "s")
    a = get("optimal_control.solve")
    s_per_iteration = per(a["incl_s"], a["iterations"])
    out["optimal_control.solve.iterations"] = (a["iterations"], "count")
    out["optimal_control.solve.s_per_iteration"] = (s_per_iteration, "s")
    out["optimal_control.solve.self_s"] = (a["self_s"], "s")
    out["optimal_control.solve.stationarity_residual"] = (a["residual"], "1")
    # ROADMAP's worst case (the 5000-iteration cap) without a 27-minute run.
    out["optimal_control.projected_5000_iter_s"] = (s_per_iteration * 5000, "s")
    return out
