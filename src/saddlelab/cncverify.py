"""Empirical checks of the negative-curvature amplification story.

The correlated-negative-curvature quantity is the second moment of the
stochastic gradient's projection onto the minimum-curvature direction v_w.
The sharpness-aware gradient (evaluated at w + rho*grad, same batch inside
and out) should carry at least (1 + rho*lambda_min)^2 times that moment when
the first-order expansion of the perturbed gradient is accurate; on quadratic
objectives the expansion is exact, so the ratio is exact there. Every report
row also carries the measured expansion residual so the small-rho validity of
the check is visible rather than assumed.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .linalg import SeededRng, blas_threads, write_csv, write_json
from .losses import LossSpec
from .model import Batch, Linearization, MlpSpec, loss_grad
from .optim import sam_gradients
from .spectral import SpectralSettings, extreme_eigs

UNNORMALIZED = "unnormalized"
NORMALIZED = "normalized"

CNC_FORMAT_VERSION = 1


@dataclass(frozen=True)
class CncSettings:
    """The config's cnc section: mini-batch sampling, perturbation mode, and
    the rhos a run's snapshots check."""

    batch_size: int = 32
    num_batches: int = 100
    mode: str = UNNORMALIZED  # the theory uses the unnormalized perturbation
    rhos: tuple[float, ...] | None = None  # None -> check the epoch's effective rho

    def __post_init__(self):
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        if self.num_batches < 2:
            raise ParameterError("num_batches must be >= 2 for a standard error")
        if self.mode not in (UNNORMALIZED, NORMALIZED):
            raise ParameterError(f"unknown mode {self.mode!r}")
        if self.rhos is not None and not (self.rhos and all(r >= 0 for r in self.rhos)):
            raise ParameterError("cnc rhos must be non-empty and >= 0")


@dataclass
class Theorem1Row:
    rho: float
    lambda_min: float
    gamma_hat: float
    gamma_stderr: float
    sam_moment_hat: float
    sam_stderr: float
    measured_ratio: float | None  # None when the CNC moment is indistinguishable from 0
    predicted_factor: float
    taylor_residual: float  # mean ||grad_sam - (grad + H eps)||_2 over batches
    cnc_violation: bool


def _moment(values: np.ndarray):
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / math.sqrt(values.shape[0]))
    return mean, stderr


def sample_batches(ds, batch_size: int, num_batches: int, rng: SeededRng):
    """Index sets of mini-batches drawn without replacement within each batch.

    batch_size >= len(ds) degenerates to the full dataset every time (no
    stochasticity), which is the zero-variance case the report promises.
    """
    n = len(ds)
    if batch_size >= n:
        return [np.arange(n) for _ in range(num_batches)]
    return [rng.choice(n, size=batch_size, replace=False) for _ in range(num_batches)]


@blas_threads()
def theorem1_report(spec: MlpSpec, w: np.ndarray, ds: Batch, loss: LossSpec,
                    rho_list, settings: CncSettings, rng: SeededRng,
                    spectral: SpectralSettings):
    """One row per rho: both projection moments over a shared batch sequence,
    their ratio, the predicted (1 + rho*lambda_min)^2 factor, and the mean
    first-order expansion residual ||grad(w+eps) - (grad + H eps)||_2, exactly
    0 on quadratics and growing with rho elsewhere.

    lambda_min and v_w come from one extreme-eigenpair run on the full-dataset
    Hessian. Then one pass over the mini-batches: each batch drawn gives its
    plain gradient's projection onto v_w and, for every rho, its SAM
    gradient's projection and expansion residual, and is then dropped. The
    residuals' H eps products share one Linearization of the batch, built at
    the first nonzero rho's. Every row shares the plain moment, so the
    rho = 0 row has ratio exactly 1.

    cnc_violation is set, and every measured_ratio left None, when the plain
    moment is at most its standard error or the rounding floor, the mean over
    the batches of (dim * u * ||g_B||)^2 with u = eps/2: the squared
    worst-case rounding error of a length-dim dot product. Where the exact
    moment is 0, v_w's rounding-level leak out of the negative eigenspace
    still leaves each projection a few ulps of ||g_B||.
    """
    rho_list = list(rho_list)
    if not rho_list:
        raise ParameterError("rho_list must be non-empty")
    # no name holds the full-batch linearization, so it is freed once the
    # extreme run returns
    extremes = extreme_eigs(
        Linearization(spec, w, ds, loss),
        spectral.lanczos_iters, spectral.residual_tol, rng.child("extreme"))
    lam_min = extremes.lambda_min
    v_w = extremes.v_min
    normalized = settings.mode == NORMALIZED
    plain, norms = [], []
    # per rho, one (projection, residual) pair per batch
    per_rho = [[] for _ in rho_list]
    for idx in sample_batches(ds, settings.batch_size, settings.num_batches,
                              rng.child("batches")):
        batch = Batch(ds.features[idx], ds.labels[idx])

        def grad_fn(x):
            return loss_grad(spec, x, batch, loss)

        g_plain = grad_fn(w)[1]
        plain.append(float(v_w @ g_plain))
        norms.append(float(np.linalg.norm(g_plain)))
        lin = None
        for rho, pairs in zip(rho_list, per_rho):
            projection = float(v_w @ sam_gradients(grad_fn, w, rho, normalized)[3])
            residual = 0.0
            if rho != 0.0:
                # its own gradients, not the moment's: the bench self-test pins
                # the report at B(1 + sum(1 if rho == 0 else 4)) of them (ROADMAP item 1)
                _, g, eps, g_sam = sam_gradients(grad_fn, w, rho, normalized)
                if eps is not None:
                    if lin is None:
                        lin = Linearization(spec, w, batch, loss)
                    residual = float(np.linalg.norm(g_sam - (g + lin.apply(eps))))
            pairs.append((projection, residual))

    gamma_hat, gamma_se = _moment(np.array(plain) ** 2)
    floor = float(np.mean((w.shape[0] * np.finfo(np.float64).eps / 2 * np.array(norms)) ** 2))
    violation = gamma_hat <= max(gamma_se, floor)
    rows = []
    for rho, pairs in zip(rho_list, per_rho):
        projections, residuals = zip(*pairs)
        moment, moment_se = _moment(np.array(projections) ** 2)
        rows.append(Theorem1Row(
            rho=rho,
            lambda_min=lam_min,
            gamma_hat=gamma_hat,
            gamma_stderr=gamma_se,
            sam_moment_hat=moment,
            sam_stderr=moment_se,
            measured_ratio=None if violation else moment / gamma_hat,
            predicted_factor=(1.0 + rho * lam_min) ** 2,
            taylor_residual=0.0 if rho == 0.0 else float(np.mean(residuals)),
            cnc_violation=violation,
        ))
    return rows


def save_theorem1_report(rows, csv_path, json_path, settings: CncSettings,
                         spectral: SpectralSettings, meta: dict) -> None:
    write_csv(csv_path, [f.name for f in dataclasses.fields(Theorem1Row)],
              (vars(r).values() for r in rows))
    sidecar = {
        "format_version": CNC_FORMAT_VERSION,
        "settings": {
            "batch_size": settings.batch_size,
            "num_batches": settings.num_batches,
            "mode": settings.mode,
            "lanczos_iters": spectral.lanczos_iters,
            "residual_tol": spectral.residual_tol,
        },
        "rows": [dataclasses.asdict(r) for r in rows],
        **meta,
    }
    write_json(json_path, sidecar)
