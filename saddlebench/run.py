"""saddlelab benchmark: named workloads through the public entry points.

    python3 saddlebench/run.py --workload w2_probe --seed 1 --seconds 40 --trace 0

Run from the root of a checkout. The package is imported from ``src/`` of
that checkout (nothing is installed). With ``--trace 0`` the workload is
repeated untraced for about ``--seconds`` of timed work (at least one
iteration) and the end-to-end metrics are reported; with ``--trace 1`` an
untraced, a traced and another untraced iteration give the per-layer metrics
of the traced one. Every iteration's outputs are checked outside the timed
region, and every repeat of the same seed, traced or not, must be
byte-identical to the first. The last stdout line is the result JSON; the
full report, with the environment and per-iteration rows, and the spans of a
traced run are written under ``.bench_out/``. See README.md here.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import checks
from spans import SpanIndex, Tracer, per_layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOAD_INPUTS = BENCH / "workloads"

# imported by main() from the checkout's src/, so a checkout without the
# program fails before any work is measured
harness = cli = None

SETUP_REPEATS = 8
SWEEP_RHOS = "0,0.05,0.5"

SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from saddlelab.datagen import balanced_test_split, generate
from saddlelab.harness import load_config
from saddlelab.linalg import SeededRng
cfg = load_config(sys.argv[2])
root = SeededRng(cfg.seed)
ds = generate(cfg.dataset.profile(), cfg.dataset.geometry(), root.child("datagen"))
balanced_test_split(ds, cfg.dataset.test_per_class, root.child("testgen"))
"""


@dataclasses.dataclass
class Op:
    """One counted operation: a run, a CLI call or a sweep cell."""

    name: str
    out: Path
    error: str | None = None
    failures: list = dataclasses.field(default_factory=list)
    digest: str = ""
    notes: dict = dataclasses.field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None or bool(self.failures)


def _cli(op: Op, argv) -> None:
    """cli.main(argv) with its output captured; a nonzero exit or an escaped
    exception fails op, and the benchmark keeps going."""
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"exit code {code}: {stderr.getvalue().strip()}")
    except Exception:  # noqa: BLE001 - a failed operation is counted, not fatal
        op.error = traceback.format_exc(limit=3)


def _write_config(template: str, seed: int, path: Path) -> Path:
    cfg = json.loads((WORKLOAD_INPUTS / template).read_text(encoding="utf-8"))
    cfg["seed"] = seed
    cfg["output_dir"] = str(path.parent / "unused")
    path.write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")
    return path


# --------------------------------------------------------------------------
# workloads: prepare (generated configs), run (timed), check (untimed)
# --------------------------------------------------------------------------

class W2Probe:
    """ROADMAP W2 through `cli train`: 10 SAM epochs, then class-wise spectra
    and CNC at epoch 10."""

    def prepare(self, seed, inputs):
        self.config = _write_config("w2_probe.json", seed, inputs / "w2_probe.json")
        self.setup_config = self.config

    def run(self, work):
        op = Op("train", work / "run")
        _cli(op, ["train", "--config", str(self.config), "--out", str(op.out)])
        return [op]

    def check(self, ops):
        cfg = json.loads(self.config.read_text(encoding="utf-8"))
        if ops[0].error is None:
            ops[0].failures += checks.check_run_dir(ops[0].out, cfg)


class RhoSweep:
    """`cli sweep-rho` over three rhos on W2's data and model, training only."""

    def prepare(self, seed, inputs):
        self.config = _write_config("rho_sweep.json", seed, inputs / "rho_sweep.json")
        self.setup_config = self.config

    def run(self, work):
        sweep = Op("sweep-rho", work / "sweep")
        _cli(sweep, ["sweep-rho", "--config", str(self.config), "--rhos", SWEEP_RHOS,
                     "--out", str(sweep.out)])
        # one counted operation per cell; a failed call fails every cell
        return [Op(f"rho={rho}", sweep.out / f"rho_{i}_{float(rho):g}", error=sweep.error)
                for i, rho in enumerate(SWEEP_RHOS.split(","))]

    def check(self, ops):
        cfg = json.loads(self.config.read_text(encoding="utf-8"))
        lines = (ops[0].out.parent / "sweep.csv").read_text(encoding="utf-8").splitlines()
        for op, line in zip(ops, lines[1:]):
            if op.error is not None:
                continue
            op.notes["sweep_row"] = line
            *_, tail_lambda_min, error = line.split(",", 4)
            if error:
                op.failures.append(f"sweep row error: {error}")
                continue
            op.failures += checks.check_run_dir(op.out, cfg)
            if not math.isfinite(float(tail_lambda_min or "nan")):
                op.failures.append(f"tail_lambda_min is {tail_lambda_min!r}")


WORKLOADS = {"w2_probe": W2Probe, "rho_sweep": RhoSweep}


# --------------------------------------------------------------------------
# measurement
# --------------------------------------------------------------------------

def _blas_threads() -> dict:
    """Default thread count of each loaded OpenBLAS (numpy's and scipy's)."""
    import ctypes
    found = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                found[Path(path).name] = int(getattr(lib, symbol)())
                break
    return found


def environment() -> dict:
    import scipy
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_default_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "platform": platform.platform(),
    }


def measure_setup(config: Path, repeats: int) -> list:
    """Wall time of fresh interpreters that import saddlelab, load the config
    and generate the dataset; returns (seconds, error) per repeat."""
    out = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC), str(config)],
                              capture_output=True, text=True, check=False)
        out.append((time.perf_counter() - t0,
                    None if proc.returncode == 0 else proc.stderr.strip()[-2000:]))
    return out


def run_iteration(workload, work: Path, tracer=None) -> dict:
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    load_before = os.getloadavg()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    with tracer if tracer is not None else contextlib.nullcontext():
        c0, t0 = time.process_time(), time.perf_counter()
        ops = workload.run(work)
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    load_after = os.getloadavg()
    try:
        workload.check(ops)
    except Exception:  # noqa: BLE001 - a check that cannot run fails the iteration
        ops[0].failures.append(traceback.format_exc(limit=3))
    for op in ops:
        if op.out.is_dir():
            op.digest = checks.dir_digest(op.out) + op.notes.get("sweep_row", "")
    return {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu,
            "loadavg_before": load_before, "loadavg_after": load_after,
            "minor_faults": ru1.ru_minflt - ru0.ru_minflt,
            "major_faults": ru1.ru_majflt - ru0.ru_majflt,
            "involuntary_switches": ru1.ru_nivcsw - ru0.ru_nivcsw, "ops": ops}


def compare_repeats(rows) -> None:
    """Same-seed repeats must write byte-identical outputs."""
    first = rows[0]["ops"]
    for row in rows[1:]:
        for op, ref in zip(row["ops"], first):
            if op.digest != ref.digest:
                op.failures.append(f"outputs differ from the first same-seed iteration "
                                   f"({op.digest[:12]} != {ref.digest[:12]})")


def selftest(tracer, base: Path) -> list:
    """Tiny traced run whose outputs must pass the run checks, whose extreme
    eigenvalues must match a dense Hessian, and whose counts must equal their
    closed forms."""
    cfg = json.loads((WORKLOAD_INPUTS / "w1_quickstart.json").read_text(encoding="utf-8"))
    cfg["dataset"].update(n_max=60, beta=5.0, test_per_class=20)
    cfg["model"]["layer_sizes"] = [6, 4, 2]
    cfg.update(epochs=3, batch_size=16, spectrum_epochs=[3], cnc_epochs=[3], seed=7)
    cfg["reweight"]["threshold_epoch"] = 2
    cfg["lr"]["milestones"] = [[2, 0.1]]
    cfg["spectral"].update(lanczos_iters=8, num_probes=3)
    cfg["cnc"].update(num_batches=4, rhos=[0.0, 0.5])
    path, out = base / "selftest.json", base / "selftest"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    tracer.run_id = "selftest"
    try:
        with tracer:
            result = harness.run_experiment(harness.load_config(path), out_dir=out)
        failures = (checks.check_run_dir(out, cfg)
                    + checks.dense_hessian_check(out, path, cfg["epochs"]))
    except Exception:  # noqa: BLE001 - reported as a failed self-test
        return [f"selftest failed: {traceback.format_exc(limit=3)}"]
    m = per_layer_metrics(SpanIndex(tracer.spans, {"selftest"}))
    classes = len(result.dataset.class_counts)
    iters, probes = cfg["spectral"]["lanczos_iters"], cfg["spectral"]["num_probes"]
    batches, rhos = cfg["cnc"]["num_batches"], cfg["cnc"]["rhos"]
    steps = cfg["epochs"] * -(-len(result.dataset) // cfg["batch_size"])
    expected = {
        "spectral.lanczos.early_stops": 0,
        # (classes + full) entries x (probes + extreme-eig run), plus CNC's run
        "spectral.lanczos.hvps": ((classes + 1) * (probes + 1) + 1) * iters,
        "optim.sam_step.calls": steps,
        "optim.grads_per_step": 2.0,
        "cncverify.theorem1_report.grads":
            batches * (1 + sum(1 if r == 0.0 else 4 for r in rhos)),
        "cncverify.theorem1_report.hvps": batches * sum(r != 0.0 for r in rhos),
    }
    return [f"selftest: {f}" for f in failures] + [
        f"selftest {k}: counted {m[k]!r}, closed form {v!r}"
        for k, v in expected.items() if m[k] != v]


def trace_metrics(tracer, untraced, traced) -> dict:
    """The per_layer metrics of BENCHMARK.json, in its order; `untraced` is the
    iteration that directly follows the traced one."""
    ix = SpanIndex(tracer.spans, {"workload"})
    m = per_layer_metrics(ix)
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    m["trace.coverage"] = ix.top_level_s() / traced["wall_s"]
    m["trace.spans"] = len(ix.ids)
    # the untraced iteration's: a traced iteration takes far fewer faults
    m["process.minor_faults"] = untraced["minor_faults"]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {e["name"]: {"value": m[e["name"]], "unit": e["unit"]} for e in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    global harness, cli
    sys.path.insert(0, str(SRC))
    try:
        from saddlelab import cli, harness
    except ImportError as exc:
        print(f"cannot import saddlelab from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(harness.__file__).resolve().is_relative_to(SRC):
        print(f"saddlelab resolved outside {SRC}: {harness.__file__}", file=sys.stderr)
        return 2

    os.environ.pop(harness.OUTPUT_DIR_ENV, None)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    base = OUT / tag
    shutil.rmtree(base, ignore_errors=True)
    (base / "inputs").mkdir(parents=True)
    workload = WORKLOADS[args.workload]()
    workload.prepare(args.seed, base / "inputs")
    work = base / "work"

    setup, rows, metrics, extra_failures = [], [], {}, []
    if args.trace:
        # untraced, traced, untraced: the traced iteration is compared with the
        # untraced one that follows it in the same warm process, and the first
        # two untraced ones show what iteration order alone changes
        tracer = Tracer()
        tracer.run_id = "workload"
        for t in (None, tracer, None):
            rows.append(run_iteration(workload, work, t))
        extra_failures = selftest(tracer, base)
        metrics = trace_metrics(tracer, rows[2], rows[1])
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        # half the set-ups before the iterations and half after, so that they
        # sample more than one state of a machine whose speed drifts
        setup = measure_setup(workload.setup_config, SETUP_REPEATS // 2)
        elapsed = 0.0
        # stop at whichever iteration boundary lies closest to --seconds
        while not rows or elapsed + 0.5 * elapsed / len(rows) < args.seconds:
            rows.append(run_iteration(workload, work))
            elapsed += rows[-1]["wall_s"]
        setup += measure_setup(workload.setup_config, SETUP_REPEATS - SETUP_REPEATS // 2)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    compare_repeats(rows)

    ops = [op for r in rows for op in r["ops"]]
    attempted = len(ops) + len(setup) + (1 if args.trace else 0)
    failed = (sum(op.failed for op in ops) + sum(err is not None for _, err in setup)
              + (1 if extra_failures else 0))
    if not args.trace:
        metrics = {
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rows), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in rows), "unit": "s"},
            "setup_s": {"value": statistics.median(t for t, _ in setup), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "ok_rate": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "attempted": attempted, "failed": failed,
        "operations_counted": "setup interpreters, runs, CLI calls and sweep cells"
                              + (", plus the tracer self-test" if args.trace else ""),
        "setup_s": [t for t, _ in setup],
        "setup_errors": [e for _, e in setup if e is not None],
        "selftest_failures": extra_failures,
        "iterations": [dict(r, ops=[dataclasses.asdict(op) | {"out": str(op.out)}
                                    for op in r["ops"]]) for r in rows],
        "metrics": metrics,
    }
    (OUT / f"report-{tag}.json").write_text(json.dumps(report, indent=1, default=str) + "\n",
                                           encoding="utf-8")
    if failed == 0:  # keep the outputs of a failed run for inspection
        shutil.rmtree(base)
    for op in ops:
        for problem in ([op.error] if op.error else []) + op.failures:
            print(f"FAILED {op.name} ({op.out.relative_to(base)}): {problem}")
    for problem in extra_failures:
        print(f"FAILED {problem}")
    for r in rows:
        print(f"iteration traced={int(r['traced'])} wall_s={r['wall_s']:.3f} "
              f"cpu_s={r['cpu_s']:.3f} minor_faults={r['minor_faults']} "
              f"loadavg={r['loadavg_before'][0]:.2f}->{r['loadavg_after'][0]:.2f}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
