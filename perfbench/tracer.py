"""Run-time span tracer that wraps the package's public functions from outside.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces each
function in ``SPANS`` by a wrapper in every ``pointer_cell_sim`` module
namespace (and class) that holds it, so calls made through ``from x import
f`` bindings are seen as well.  A function missing at some commit is simply
not wrapped: its span is absent and its metrics read 0.

Spans keep name, start, end and parent in memory; ``iteration_metrics``
turns one iteration's spans into inclusive time, self time (duration minus
the part covered by child spans) and counts.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time

PACKAGE = "pointer_cell_sim"


def _sweep_points(args, kwargs):
    cfg = args[0] if args else kwargs.get("cfg")
    return {"runner.sweep_points": len(getattr(cfg, "sweep", None) or ())}


def _lc_convolve_sizes(args, kwargs):
    a, b = args[:2]
    la, lb = len(a[0]), len(b[0])
    return {"logspace.lc_convolve.long_calls": int(min(la, lb) > 64),
            "logspace.lc_convolve.out_terms": la + lb - 1}


def _dense_dim(args, kwargs):
    apparatus = args[1] if len(args) > 1 else kwargs.get("apparatus")
    return {"core.dense_dim": int(apparatus.K.shape[0])}


# (span name, module, attribute path, counter hook taking (args, kwargs))
SPANS = (
    ("config.parse_config", "config", "parse_config", None),
    ("runner.run", "runner", "run", None),
    ("runner.sweep", "runner", "sweep", _sweep_points),
    ("runner.perturb", "runner", "perturb", None),
    ("runner.ldp_rows", "runner", "ldp_rows", None),
    ("runner.ldp_conditions_text", "runner", "ldp_conditions_text", None),
    ("coleman_hepp.traversal_schedule", "coleman_hepp", "traversal_schedule", None),
    ("coleman_hepp.sector_overlap", "coleman_hepp", "sector_overlap", None),
    ("coleman_hepp.cell_values", "coleman_hepp", "FactorizedSectorOverlap.cell_values", None),
    ("coleman_hepp.chain_cells", "coleman_hepp", "chain_cells", None),
    ("coleman_hepp.build_dense", "coleman_hepp", "build_dense", None),
    ("coarse_ldp.magnetization_chain", "coarse_ldp", "IntensiveObservable.magnetization_chain", None),
    ("coarse_ldp.coarse_grain", "coarse_ldp", "coarse_grain", None),
    ("coarse_ldp.value_indices", "coarse_ldp", "CellPartitionSpec.value_indices", None),
    ("coarse_ldp.estimate_rate", "coarse_ldp", "estimate_rate", None),
    ("coarse_ldp.up_count_log_pmf", "coarse_ldp", "up_count_log_pmf", None),
    ("logspace.lc_convolve", "logspace", "lc_convolve", _lc_convolve_sizes),
    ("logspace.lc_sum", "logspace", "lc_sum", None),
    ("core.Apparatus.init", "core", "Apparatus.__init__", None),
    ("core.evolve_sectors", "core", "evolve_sectors", _dense_dim),
    ("core.f_tensor", "core", "f_tensor", None),
    ("core.check_f_properties", "core", "check_f_properties", None),
    ("verify.find_pointer_map", "verify", "find_pointer_map", None),
    ("verify.fit_decay_rate", "verify", "fit_decay_rate", None),
    ("verify.check_exact_condition", "verify", "check_exact_condition", None),
    ("verify.check_weakened_condition", "verify", "check_weakened_condition", None),
    ("report.render_csv", "report", "render_csv", None),
)

RUNNER_SPANS = ("runner.run", "runner.sweep", "runner.perturb", "runner.ldp_rows",
                "runner.ldp_conditions_text")
LAYERS = ("config", "runner", "coleman_hepp", "coarse_ldp", "logspace", "core", "verify", "report")
MAX_COUNTERS = ("core.dense_dim",)

# per-layer metric -> unit.  "<span>.s" is inclusive time, "<span>.self_s" or
# "<span>_s" self or inclusive time as named, "<span>.calls" the span count.
PER_LAYER = {
    "config.parse_config.s": "s",
    "runner.self_s": "s",
    "runner.sweep_points": "count",
    "coleman_hepp.traversal_schedule.s": "s",
    "coleman_hepp.traversal_schedule.calls": "count",
    "coleman_hepp.sector_overlap.self_s": "s",
    "coleman_hepp.cell_values.self_s": "s",
    "coleman_hepp.chain_cells.self_s": "s",
    "coarse_ldp.magnetization_chain.self_s": "s",
    "coarse_ldp.coarse_grain.self_s": "s",
    "coarse_ldp.value_indices.self_s": "s",
    "coarse_ldp.value_indices.calls": "count",
    "coarse_ldp.estimate_rate.s": "s",
    "coarse_ldp.up_count_log_pmf.s": "s",
    "logspace.lc_convolve.s": "s",
    "logspace.lc_convolve.self_s": "s",
    "logspace.lc_convolve.calls": "count",
    "logspace.lc_convolve.long_calls": "count",
    "logspace.lc_convolve.out_terms": "count",
    "logspace.lc_sum.self_s": "s",
    "coleman_hepp.build_dense.self_s": "s",
    "core.Apparatus.init_s": "s",
    "core.evolve_sectors.self_s": "s",
    "core.f_tensor.s": "s",
    "core.check_f_properties.s": "s",
    "core.dense_dim": "count",
    "verify.find_pointer_map.s": "s",
    "verify.fit_decay_rate.s": "s",
    "verify.check_exact_condition.s": "s",
    "verify.check_weakened_condition.s": "s",
    "report.render_csv.s": "s",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "cli.self_s": "s",
    "traced.spans": "count",
}


class Tracer:
    """Collects spans of wrapped calls; one instance per traced worker."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, float] = {}
        self.installed: list[str] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _stack(self) -> list[int]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name: str, hook):
        spans, stack_of = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                self._count(hook, args, kwargs)
            stack = stack_of()
            index = len(spans)
            spans.append([name, time.perf_counter(), None, stack[-1] if stack else None])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = time.perf_counter()
        return wrapper

    def _count(self, hook, args, kwargs) -> None:
        try:
            increments = hook(args, kwargs)
        except (AttributeError, IndexError, KeyError, TypeError, ValueError):
            return  # argument shape changed: the counter is absent
        for key, value in increments.items():
            if key in MAX_COUNTERS:
                self.counters[key] = max(self.counters.get(key, 0), value)
            else:
                self.counters[key] = self.counters.get(key, 0) + value

    # -- installation ------------------------------------------------------
    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, module_name, path, hook in SPANS:
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                continue
            if "." in path:
                self._install_method(module, path, name, hook)
            else:
                self._install_function(modules, module, path, name, hook)

    def _install_function(self, modules, module, attr, name, hook) -> None:
        original = getattr(module, attr, None)
        if not callable(original):
            return
        wrapper = self._wrap(original, name, hook)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapper)
        self.installed.append(name)

    def _install_method(self, module, path, name, hook) -> None:
        cls_name, attr = path.split(".", 1)
        cls = getattr(module, cls_name, None)
        raw = getattr(cls, "__dict__", {}).get(attr)
        if raw is None:
            return
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(self._wrap(raw.__func__, name, hook))
        elif callable(raw):
            replacement = self._wrap(raw, name, hook)
        else:
            return
        self._undo.append((cls, attr, raw))
        setattr(cls, attr, replacement)
        self.installed.append(name)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._undo):
            setattr(obj, key, original)
        self._undo.clear()

    # -- aggregation -------------------------------------------------------
    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def iteration_metrics(self, wall_s: float) -> dict[str, float]:
        """Per-layer metrics of the spans recorded since the last ``reset``."""
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        child = [0.0] * len(self.spans)
        top_level = 0.0
        for name, start, end, parent in self.spans:
            duration = end - start
            if parent is None:
                top_level += duration
            else:
                child[parent] += duration
        for (name, start, end, _), covered in zip(self.spans, child):
            total[name] = total.get(name, 0.0) + (end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - covered)
            calls[name] = calls.get(name, 0) + 1

        out = {key: 0.0 for key in PER_LAYER}
        for key in PER_LAYER:
            for suffix, source in ((".self_s", self_time), ("_s", total), (".s", total),
                                   (".calls", calls)):
                span = key[: -len(suffix)]
                if key.endswith(suffix) and span in source:
                    out[key] = source[span]
                    break
        out["runner.self_s"] = sum(self_time.get(name, 0.0) for name in RUNNER_SPANS)
        for layer in LAYERS:
            out[f"layer.{layer}.self_s"] = sum(
                value for name, value in self_time.items() if name.split(".", 1)[0] == layer)
        out["cli.self_s"] = wall_s - top_level
        out["traced.spans"] = len(self.spans)
        for key, value in self.counters.items():
            out[key] = value
        return out
