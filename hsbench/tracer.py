"""Outside-in tracing of hideseek: spans around the calls into each layer.

`Tracer.install()` wraps every public function defined in the layer
modules, rebinding it in every hideseek namespace that imported it by name,
plus scipy's `linprog` as matrixgame sees it and HiGHS's `_highs_wrapper`
inside scipy, so HiGHS core time splits from scipy's Python wrapper time.
Nothing under `src/` is edited. Spans stay in memory until `dump()`.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import types

LAYERS = ("instance", "routes", "payoff", "matrixgame", "voi", "experiments", "cli")

# (metric, unit) in report order; BENCHMARK.json's per_layer list matches it.
METRICS = (
    ("routes.enumerate_routes.s", "s"),
    ("routes.prefix_classes.calls", "count"),
    ("payoff.base_matrix.s", "s"),
    ("payoff.switch_matrix.s", "s"),
    ("payoff.feedback_matrix.calls", "count"),
    ("payoff.feedback_matrix.s", "s"),
    ("payoff.feedback_matrix.self_s", "s"),
    ("payoff.subgame_matrix.calls", "count"),
    ("payoff.subgame_matrix.s", "s"),
    ("matrixgame.game_value.calls", "count"),
    ("matrixgame.game_value.s", "s"),
    ("matrixgame.find_pure_saddle.s", "s"),
    ("matrixgame.shortcut_hit_ratio", "ratio"),
    ("matrixgame.solve_zero_sum.calls", "count"),
    ("matrixgame.solve_zero_sum.s", "s"),
    ("matrixgame.linprog.calls", "count"),
    ("matrixgame.linprog.s", "s"),
    ("matrixgame.highs_core.s", "s"),
    ("matrixgame.lp_overhead.s", "s"),
    ("matrixgame.row_lp_fallbacks", "count"),
    ("matrixgame.max_cert_gap", "payoff"),
    ("voi.build_voi_report.s", "s"),
    ("voi.cstar.s", "s"),
    ("voi.report_to_csv.s", "s"),
    ("cli.main.calls", "count"),
    ("cli.main.self_s", "s"),
    ("experiments.sweep.s", "s"),
    ("experiments.sweep.cells", "count"),
    ("experiments.simulate.s", "s"),
    ("experiments.simulate.trials_per_s", "1/s"),
    ("experiments.simulate.subgame_solves", "count"),
    ("instance.load_instance.s", "s"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)

# Metrics that must repeat exactly across traced runs of the same seed.
COUNTS = tuple(name for name, unit in METRICS if unit == "count")

SPAN_FIELDS = ("name", "parent", "cmd", "start_ns", "end_ns")


class Tracer:
    """Span recorder. A span is [name index, parent span, command id, start, end]."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list[int]] = []
        self.cmd = -1  # id shared by all spans of one CLI command
        self._stack: list[int] = []
        self.max_cert_gap = 0.0
        self.trials = 0
        self.sweep_cells = 0

    def wrap(self, name: str, fn, observe=None):
        idx = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [idx, stack[-1] if stack else -1, self.cmd, clock(), 0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def _observe_solution(self, sol):
        self.max_cert_gap = max(self.max_cert_gap, sol.row_gap, sol.col_gap)

    def _observe_simulation(self, result):
        self.trials += result.trials

    def _observe_sweep(self, rows):
        self.sweep_cells += len(rows)

    def install(self) -> None:
        """Wrap the layers' public functions and the two scipy LP entry points."""
        import hideseek
        import scipy.optimize._linprog_highs as linprog_highs

        observers = {
            "matrixgame.solve_zero_sum": self._observe_solution,
            "experiments.simulate": self._observe_simulation,
            "experiments.sweep": self._observe_sweep,
        }
        modules = [importlib.import_module(f"hideseek.{layer}") for layer in LAYERS]
        wrapped = {}  # id(original) -> (original, wrapper)
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                if (
                    not attr.startswith("_")
                    and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__
                ):
                    name = f"{layer}.{attr}"
                    wrapped[id(obj)] = (obj, self.wrap(name, obj, observers.get(name)))
        # Modules import each other's functions by name, so rebind every alias.
        for ns in (hideseek, *modules):
            for attr, obj in list(vars(ns).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(ns, attr, hit[1])
        matrixgame = modules[LAYERS.index("matrixgame")]
        matrixgame.linprog = self.wrap("matrixgame.linprog", matrixgame.linprog)
        linprog_highs._highs_wrapper = self.wrap(
            "matrixgame.highs_core", linprog_highs._highs_wrapper
        )

    def summarize(self) -> dict[str, float]:
        """Per-layer calls, total and self seconds, and the derived metrics.

        Self time is a span's duration minus its direct children's; code is
        single-threaded, so children never overlap.
        """
        spans, names = self.spans, self.names
        dur = [end - start for _, _, _, start, end in spans]
        child = [0] * len(spans)
        for k, (_, parent, *_rest) in enumerate(spans):
            if parent >= 0:
                child[parent] += dur[k]
        calls: dict[str, int] = {}
        total: dict[str, int] = {}
        own: dict[str, int] = {}
        for k, (idx, *_rest) in enumerate(spans):
            name = names[idx]
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0) + dur[k]
            own[name] = own.get(name, 0) + dur[k] - child[k]

        def ancestor_names(k):
            k = spans[k][1]
            while k >= 0:
                yield names[spans[k][0]]
                k = spans[k][1]

        lp_under_value = lp_under_simulate = 0
        for k, (idx, parent, *_rest) in enumerate(spans):
            if names[idx] != "matrixgame.solve_zero_sum":
                continue
            if parent >= 0 and names[spans[parent][0]] == "matrixgame.game_value":
                lp_under_value += 1
            if "experiments.simulate" in ancestor_names(k):
                lp_under_simulate += 1

        def s(name):
            return total.get(name, 0) / 1e9

        values = {}
        for metric, _unit in METRICS:
            layer_fn, _, stat = metric.rpartition(".")
            if stat == "calls":
                values[metric] = calls.get(layer_fn, 0)
            elif stat == "s":
                values[metric] = s(layer_fn)
            elif stat == "self_s":
                values[metric] = own.get(layer_fn, 0) / 1e9
        gv_calls = calls.get("matrixgame.game_value", 0)
        # base: matrixgame.game_value.calls; 0 when no game_value ran
        values["matrixgame.shortcut_hit_ratio"] = (
            1.0 - lp_under_value / gv_calls if gv_calls else 0.0
        )
        values["matrixgame.lp_overhead.s"] = s("matrixgame.linprog") - s("matrixgame.highs_core")
        values["matrixgame.row_lp_fallbacks"] = (
            calls.get("matrixgame.linprog", 0) - calls.get("matrixgame.solve_zero_sum", 0)
        )
        values["matrixgame.max_cert_gap"] = self.max_cert_gap
        values["experiments.sweep.cells"] = self.sweep_cells
        sim_s = s("experiments.simulate")
        values["experiments.simulate.trials_per_s"] = self.trials / sim_s if sim_s else 0.0
        values["experiments.simulate.subgame_solves"] = lp_under_simulate
        values["trace.spans"] = len(spans)
        return values

    def dump(self, path, meta: dict) -> None:
        """Write every span, times relative to the first span's start."""
        t0 = self.spans[0][3] if self.spans else 0
        rows = [[idx, parent, cmd, start - t0, end - t0] for idx, parent, cmd, start, end in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({**meta, "names": self.names, "fields": SPAN_FIELDS, "spans": rows}, fh)
