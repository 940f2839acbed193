"""In-memory span tracer for the traced benchmark run, and the per-layer
metrics derived from its spans.

The tracer wraps the public functions of each saddlelab module from outside
the program. Several modules import a function by name (``spectral`` and
``cncverify`` bind ``hvp``; ``harness`` and ``cncverify`` bind ``loss_grad``),
so every module attribute that holds a traced function is replaced, not only
the defining one. Each span records name, start, end, parent and run id; the
spans stay in memory until the run ends and are then written out as JSON lines.
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np

# (module, function) pairs wrapped in the traced run; the span name is
# "<module>.<function>", with the cli's "cmd_" prefix dropped.
TRACED = (
    ("model", "hvp"), ("model", "loss_grad"), ("model", "forward"),
    ("losses", "loss_on_logits"),
    ("optim", "sam_step"),
    ("spectral", "lanczos"), ("spectral", "spectral_density"),
    ("spectral", "extreme_eigs"), ("spectral", "classwise_spectrum_report"),
    ("spectral", "save_spectrum"),
    ("cncverify", "theorem1_report"),
    ("harness", "load_config"), ("harness", "run_experiment"), ("harness", "evaluate"),
    ("harness", "save_checkpoint"),
    ("harness", "tail_lambda_min"), ("harness", "sweep_rho"),
    ("datagen", "generate"), ("datagen", "balanced_test_split"),
    ("cli", "cmd_train"), ("cli", "cmd_sweep_rho"),
)

PERCENTILE_MIN_CALLS = 1000  # p99 needs at least ten samples above it


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _hvp_flops(args, kwargs, result):
    """Matmul flops of one forward-over-reverse HVP, from the layer shapes and
    batch rows: per layer 3 products forward, 2 reverse, 3 more for l > 0."""
    sizes = _arg(args, kwargs, 0, "spec").layer_sizes
    rows = len(_arg(args, kwargs, 2, "batch"))
    per_row = sum(a * b * (5 + 3 * (l > 0)) for l, (a, b) in enumerate(zip(sizes, sizes[1:])))
    return {"flops": 2 * rows * per_row}


def _file_bytes(*positions):
    def extract(args, kwargs, result):
        return {"bytes": sum(os.path.getsize(args[i]) for i in positions)}
    return extract


def _cnc_rows(args, kwargs, result):
    settings = _arg(args, kwargs, 5, "settings")
    return {"rows": settings.num_batches * len(result)}


# attributes read from a call's arguments and result after its span has ended
EXTRACT = {
    "model.hvp": _hvp_flops,
    "spectral.lanczos": lambda a, k, r: {"early_stop": bool(r.early_stop)},
    "spectral.extreme_eigs": lambda a, k, r: {"nonconverged": not r.converged},
    "spectral.save_spectrum": _file_bytes(1, 2),
    "harness.save_checkpoint": _file_bytes(1),
    "cncverify.theorem1_report": _cnc_rows,
}


class Tracer:
    """Context manager that patches every binding of the TRACED functions and
    restores them on exit. Span records are [name, start_ns, end_ns, parent
    index, run id, attrs]."""

    def __init__(self):
        self.spans = []
        self.run_id = ""
        self._stack = []
        self._patched = []

    def _wrap(self, name, fn):
        spans, stack, extract = self.spans, self._stack, EXTRACT.get(name)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.run_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if extract is not None:
                rec[5] = extract(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if k.startswith("saddlelab.") and m is not None]
        for mod_name, fn_name in TRACED:
            original = getattr(sys.modules[f"saddlelab.{mod_name}"], fn_name)
            wrapper = self._wrap(f"{mod_name}.{fn_name.removeprefix('cmd_')}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, run, attrs) in enumerate(self.spans):
                rec = {"id": i, "name": name, "start_ns": start, "end_ns": end,
                       "parent": parent, "run": run}
                if attrs:
                    rec.update(attrs)
                fh.write(json.dumps(rec) + "\n")


class SpanIndex:
    """Busy, self and per-call times and counts over the spans of chosen runs."""

    def __init__(self, spans, runs):
        self.spans = spans
        self.ids = [i for i, s in enumerate(spans) if s[4] in runs]
        self._by_name = {}
        self._child = {}
        for i in self.ids:
            name, start, end, parent = spans[i][:4]
            self._by_name.setdefault(name, []).append(i)
            if parent >= 0:
                self._child[parent] = self._child.get(parent, 0) + end - start

    def of(self, name):
        return self._by_name.get(name, [])

    def dur_s(self, i) -> float:
        return (self.spans[i][2] - self.spans[i][1]) * 1e-9

    def busy_s(self, name) -> float:
        return sum(self.dur_s(i) for i in self.of(name))

    def self_s(self, name) -> float:
        return sum(self.dur_s(i) - self._child.get(i, 0) * 1e-9 for i in self.of(name))

    def attr_sum(self, name, key) -> float:
        return sum((self.spans[i][5] or {}).get(key, 0) for i in self.of(name))

    def nearest(self, i, names):
        """Name of the closest ancestor of span i among names, or None."""
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return self.spans[parent][0]
            parent = self.spans[parent][3]
        return None

    def count_under(self, name, target, among=()) -> int:
        """Spans called name whose nearest ancestor among `among` and `target`
        is `target`."""
        among = (target, *among)
        return sum(1 for i in self.of(name) if self.nearest(i, among) == target)

    def percentile_us(self, name, q) -> float:
        ids = self.of(name)
        if len(ids) < PERCENTILE_MIN_CALLS:
            return 0.0
        return float(np.percentile([self.dur_s(i) * 1e6 for i in ids], q))

    def top_level_s(self) -> float:
        return sum(self.dur_s(i) for i in self.ids if self.spans[i][3] < 0)


def per_layer_metrics(ix: SpanIndex) -> dict:
    """Every per-layer metric of BENCHMARK.json except the trace.* and
    process.* ones, from one SpanIndex."""
    steps = len(ix.of("optim.sam_step"))
    cnc_grads = ix.count_under("model.loss_grad", "cncverify.theorem1_report")
    cnc_rows = ix.attr_sum("cncverify.theorem1_report", "rows")
    m = {}
    for name in ("model.hvp", "model.loss_grad", "model.forward", "losses.loss_on_logits",
                 "optim.sam_step", "spectral.lanczos", "harness.evaluate"):
        m[f"{name}.calls"] = len(ix.of(name))
    for name in ("model.hvp", "model.loss_grad", "model.forward", "losses.loss_on_logits",
                 "spectral.spectral_density", "spectral.extreme_eigs",
                 "spectral.classwise_spectrum_report", "spectral.save_spectrum",
                 "cncverify.theorem1_report", "harness.evaluate", "harness.save_checkpoint",
                 "harness.tail_lambda_min", "datagen.generate", "datagen.balanced_test_split",
                 "cli.train", "cli.sweep_rho"):
        m[f"{name}.busy_s"] = ix.busy_s(name)
    for name in ("optim.sam_step", "spectral.lanczos", "spectral.spectral_density",
                 "cncverify.theorem1_report", "harness.run_experiment"):
        m[f"{name}.self_s"] = ix.self_s(name)
    for name in ("model.hvp", "model.loss_grad"):
        m[f"{name}.p50_us"] = ix.percentile_us(name, 50)
        m[f"{name}.p99_us"] = ix.percentile_us(name, 99)
    m["model.hvp.gflops_computed"] = ix.attr_sum("model.hvp", "flops") / 1e9
    step_grads = ix.count_under("model.loss_grad", "optim.sam_step")
    m["optim.grads_per_step"] = step_grads / steps if steps else 0.0
    m["spectral.lanczos.hvps"] = ix.count_under("model.hvp", "spectral.lanczos")
    m["spectral.lanczos.early_stops"] = ix.attr_sum("spectral.lanczos", "early_stop")
    m["spectral.extreme_eigs.refine_hvps"] = ix.count_under(
        "model.hvp", "spectral.extreme_eigs", ("spectral.lanczos",))
    m["spectral.extreme_eigs.nonconverged"] = ix.attr_sum("spectral.extreme_eigs", "nonconverged")
    m["spectral.save_spectrum.bytes"] = ix.attr_sum("spectral.save_spectrum", "bytes")
    m["harness.save_checkpoint.bytes"] = ix.attr_sum("harness.save_checkpoint", "bytes")
    m["cncverify.theorem1_report.grads"] = cnc_grads
    m["cncverify.theorem1_report.hvps"] = ix.count_under(
        "model.hvp", "cncverify.theorem1_report", ("spectral.extreme_eigs",))
    m["cncverify.batch_rows"] = cnc_rows
    m["cncverify.grads_per_row"] = cnc_grads / cnc_rows if cnc_rows else 0.0
    return m
