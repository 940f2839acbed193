"""Output checks run after each timed iteration, outside the timed region.

Each function returns a list of failure messages; an empty list means the
outputs passed. They read only what the program wrote, and the ground-truth
check rebuilds a dense Hessian from the program's own exact HVPs.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

MASS_TOL = 1e-6  # a broadened density must integrate to 1 within this


def dir_digest(path: Path) -> str:
    """sha256 over the relative names and bytes of every file under path."""
    h = hashlib.sha256()
    for f in sorted(p for p in Path(path).rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode() + b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


def check_run_dir(out: Path, cfg: dict) -> list:
    """metrics.csv rows, listed artifacts, density mass, eigenpair convergence
    and the rho = 0 CNC row of one run_experiment output directory."""
    failures = []
    rows = (out / "metrics.csv").read_text(encoding="utf-8").splitlines()[1:]
    if len(rows) != cfg["epochs"]:
        failures.append(f"metrics.csv has {len(rows)} rows, expected {cfg['epochs']}")
    summary = json.loads((out / "summary.json").read_text(encoding="utf-8"))
    missing = [a for a in summary["artifacts"] if not (out / a).is_file()]
    if missing:
        failures.append(f"artifacts listed in summary.json are missing: {missing}")
    tol = cfg["spectral"]["residual_tol"]
    for name in summary["artifacts"]:
        if name in missing:
            continue
        if name.startswith("spectrum_") and name.endswith(".csv"):
            grid, density = np.loadtxt(out / name, delimiter=",", skiprows=1, unpack=True)
            mass = float(np.trapezoid(density, grid))
            if not abs(mass - 1.0) <= MASS_TOL:
                failures.append(f"{name}: density integrates to {mass!r}")
        elif name.startswith("spectrum_") and name.endswith(".json"):
            side = json.loads((out / name).read_text(encoding="utf-8"))
            if not (side["converged"] and side["residual_min"] <= tol
                    and side["residual_max"] <= tol):
                failures.append(f"{name}: extreme eigenpair not converged "
                                f"(residuals {side['residual_min']!r}, {side['residual_max']!r})")
        elif name.startswith("cnc_") and name.endswith(".json"):
            failures += check_cnc(out / name)
    return failures


def check_cnc(path: Path) -> list:
    """The rho = 0 row reuses the plain gradients, so its ratio is exactly 1."""
    report = json.loads(Path(path).read_text(encoding="utf-8"))
    return [f"{Path(path).name}: rho=0 measured_ratio is {r['measured_ratio']!r}, not 1"
            for r in report["rows"] if r["rho"] == 0.0 and r["measured_ratio"] != 1.0]


def dense_hessian_check(out: Path, cfg_path: Path, epoch: int) -> list:
    """lambda_min and lambda_max of every spectrum sidecar against eigvalsh of
    the dense Hessian built column by column from hvp on unit vectors. The
    eigenvalue error is bounded by the eigen-residual, so the tolerance is
    residual_tol."""
    from saddlelab import harness, model
    from saddlelab.datagen import generate
    from saddlelab.linalg import SeededRng

    cfg = harness.load_config(cfg_path)
    ckpt = harness.load_checkpoint(out / f"checkpoint_{epoch}.json")
    layout, dim = model.param_layout(cfg.model)
    w = model.ParamVector(ckpt.params, layout)
    ds = generate(cfg.dataset.profile(), cfg.dataset.geometry(),
                  SeededRng(cfg.seed).child("datagen"))
    loss = cfg.loss.bind(ds.class_counts).with_class_weights(None)
    eye = np.eye(dim)
    failures = []
    for side_path in sorted(out.glob(f"spectrum_{epoch}_class*.json")):
        side = json.loads(side_path.read_text(encoding="utf-8"))
        cid = side["class_id"]
        batch = (model.Batch(ds.features, ds.labels) if cid is None
                 else model.per_class_batch(ds, cid))
        hess = np.column_stack([model.hvp(cfg.model, w, batch, loss, e) for e in eye])
        eigs = np.linalg.eigvalsh(0.5 * (hess + hess.T))
        for key, exact in (("lambda_min", eigs[0]), ("lambda_max", eigs[-1])):
            if not abs(side[key] - exact) <= cfg.spectral.residual_tol:
                failures.append(f"{side_path.name}: {key} {side[key]!r} != dense {exact!r}")
    return failures

