"""Hessian eigen-spectrum diagnostics through matrix-free operator probes.

Every probe takes a symmetric operator: any object with apply(v) -> Hv and
dim, which in the program is a model.Linearization, one loss's Hessian on one
batch. A Lanczos run turns the operator into Ritz values/weights,
reorthogonalizing its basis only when a bound on the lost orthogonality says
it must (partial reorthogonalization); averaging Gaussian-broadened Ritz
quadrature over several random probes estimates the eigenvalue density.
Extreme eigenpairs come from the edge Ritz pairs refined by shifted power
iteration (spectrum shifted so the wanted end dominates), which needs nothing
beyond further HVPs. The |lambda_min / lambda_max| ratio summarizes how
saddle-like the landscape is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .linalg import SeededRng, blas_threads, write_csv, write_json
from .losses import LossSpec
from .model import Batch, Linearization, MlpSpec, per_class_batch

SPECTRUM_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SpectralSettings:
    """The config's `spectral` section: field names are its keys."""

    lanczos_iters: int = 80
    num_probes: int = 10
    broadening_sigma2: float = 1e-5
    residual_tol: float = 1e-6

    def __post_init__(self):
        if self.lanczos_iters < 2:
            raise ParameterError("lanczos_iters must be >= 2")
        if self.num_probes < 1:
            raise ParameterError("num_probes must be >= 1")
        if self.broadening_sigma2 <= 0:
            raise ParameterError("broadening_sigma2 must be > 0")
        if self.residual_tol <= 0:
            raise ParameterError("residual_tol must be > 0")


# Partial reorthogonalization (Simon 1984) keeps the bound on every
# |q_i . q_j|, i != j, of the Lanczos basis below this: the orthonormality
# the basis is held to.
ORTHOGONALITY_TARGET = 1e-12


@dataclass
class LanczosResult:
    alphas: np.ndarray  # diagonal of the tridiagonal matrix
    betas: np.ndarray  # off-diagonal (one shorter than alphas)
    basis: np.ndarray  # (k, dim) Krylov basis, row-major
    early_stop: bool  # hit an invariant subspace before the iteration budget
    reorth_steps: int  # steps whose residual was reorthogonalized against the basis


def lanczos(oracle, iters: int, rng: SeededRng) -> LanczosResult:
    """Tridiagonalize the operator restricted to a random Krylov subspace.

    The starting vector is a normalized Gaussian probe from rng. Partial
    reorthogonalization (Simon 1984) carries the omega recurrence, a bound on
    |q_{j+1} . q_i| for every earlier basis vector built from the alphas,
    betas and a fixed rounding term. Only when its largest entry exceeds
    ORTHOGONALITY_TARGET, and again on the step after, is the new residual
    reorthogonalized against the whole basis: one classical Gram-Schmidt
    pass, and a second only when the first cancelled more than half the norm
    (Daniel, Gragg, Kaufman & Stewart 1976). No random numbers are drawn
    beyond the probe. A residual norm at rounding level ends the recursion
    early with the early_stop flag set.
    """
    k = min(iters, oracle.dim)
    if k < 1:
        raise ParameterError("need at least one iteration")
    v = rng.normal(size=oracle.dim)
    basis = np.zeros((k, oracle.dim))
    basis[0] = v / np.linalg.norm(v)
    alphas = np.zeros(k)
    # omega[i + 1] bounds |q_j . q_i|, i != j, for the current j (omega_cur)
    # and the one before (omega_prev); entry 0 is the boundary omega_{j,-1}
    # and b[i + 1] = beta_i, b[0] = 0 to match. The unit entries q_j . q_j
    # are kept at 0: their terms cancel exactly
    omega_prev, omega_cur, b = np.zeros(k + 1), np.zeros(k + 1), np.zeros(k + 1)
    eps1 = math.sqrt(oracle.dim) * np.finfo(np.float64).eps / 2  # as in Larsen's PROPACK
    early = False
    scale = 0.0
    reorth_steps = 0
    again = False
    for j in range(k):
        z = np.asarray(oracle.apply(basis[j]), dtype=np.float64)
        alphas[j] = float(basis[j] @ z)
        # at j = 0 the last term is b[0] = 0 times the still-zero basis[-1];
        # when k = 1 that row is q_0, but z goes unused
        z = z - alphas[j] * basis[j] - b[j] * basis[j - 1]
        scale = max(scale, abs(alphas[j]), b[j])
        if j == k - 1:
            break
        beta = float(np.linalg.norm(z))
        omega = np.zeros(k + 1)
        if beta > 0.0:
            # q_i . A q_j = q_j . A q_i, each side expanded by the three-term
            # recurrence, gives q_{j+1} . q_i from the omegas of q_j and
            # q_{j-1}; every term is taken in absolute value, so the estimate
            # bounds the loss whatever the signs of the rounding errors
            # (Simon's signed form fell up to 9x below the measured loss)
            rounding = eps1 * max(scale, beta)
            omega[1 : j + 1] = (b[1 : j + 1] * omega_cur[2 : j + 2]
                                + np.abs(alphas[:j] - alphas[j]) * omega_cur[1 : j + 1]
                                + b[:j] * omega_cur[:j]
                                + b[j] * omega_prev[1 : j + 1] + rounding) / beta
            # q_{j+1} . q_j: the rounding of alpha_j and of the q_{j-1} term
            omega[j + 1] = 2.0 * rounding / beta
        else:
            omega[1 : j + 2] = np.inf
        if again or np.max(omega[1 : j + 2]) > ORTHOGONALITY_TARGET:
            q = basis[: j + 1]
            z -= q.T @ (q @ z)
            norm = float(np.linalg.norm(z))
            if norm < beta / math.sqrt(2.0):
                z -= q.T @ (q @ z)
                norm = float(np.linalg.norm(z))
            beta = norm
            omega[1 : j + 2] = eps1
            reorth_steps += 1
            # Simon's rule: q_j is only as orthogonal as its omega said, and
            # it enters the next residual, so reorthogonalize that one too
            again = not again
        # an exactly invariant Krylov space leaves a residual of rounding size
        # relative to the operator's scale (up to 3.5e-12 of it on 3,000
        # random diagonal operators of dimension < 40), so the stop is
        # relative and clear of it; real steps there were >= 1.4e-3 of it
        if beta <= 1e-10 * scale:
            early = True
            break
        b[j + 1] = beta
        basis[j + 1] = z / beta
        omega_prev, omega_cur = omega_cur, omega
    return LanczosResult(alphas=alphas[: j + 1], betas=b[1 : j + 1], basis=basis[: j + 1],
                         early_stop=early, reorth_steps=reorth_steps)


def ritz_decomposition(result: LanczosResult):
    """(ritz_values, ritz_weights, tridiag_eigvecs); weights are the squared
    first components, the quadrature weights of the probe's spectral measure
    (Golub & Welsch 1969)."""
    a, b = result.alphas, result.betas
    vals, vecs = np.linalg.eigh(np.diag(a) + np.diag(b, 1) + np.diag(b, -1))
    weights = vecs[0] ** 2
    return vals, weights, vecs


@dataclass
class SpectralDensity:
    grid: np.ndarray
    density: np.ndarray
    ritz_values: list  # one array per probe
    ritz_weights: list
    settings: SpectralSettings  # what the density ran with


def _auto_grid(all_vals: np.ndarray, sigma: float):
    lo = float(all_vals.min()) - 6.0 * sigma
    hi = float(all_vals.max()) + 6.0 * sigma
    # spacing <= sigma, whatever the span, keeps the trapezoid mass error of
    # each Gaussian bump below ~1e-8
    return np.linspace(lo, hi, max(math.ceil((hi - lo) / sigma) + 1, 512))


def spectral_density(oracle, settings: SpectralSettings, rng: SeededRng,
                     workers: int = 1) -> SpectralDensity:
    """Average Gaussian-broadened Ritz quadrature over independent probes.

    Probe p runs on worker p % workers: worker 0 is this thread and each
    other a pool thread, all applying the one oracle, so oracle.apply must
    be safe to call from several threads at once (a Linearization is). Each
    probe keeps its stream and the density is assembled in probe order, so
    the result is bitwise the same for any number of workers. This thread
    runs worker 0 because every pool thread adds a malloc arena: with every
    probe on pool threads, w2_probe's peak RSS rose from 60.7-61.0 MB to
    66.3 MB (4 runs each, 2 shared CPUs). After one worker fails the others
    start no further probe; once all have stopped, this thread's exception
    is raised here, else the first pool thread's.
    """
    from concurrent.futures import ThreadPoolExecutor  # loads logging, so only on use

    ritz = [None] * settings.num_probes
    stop = []  # non-empty once a thread has failed

    def run(k):
        try:
            for p in range(k, settings.num_probes, workers):
                if stop:
                    return
                # no name holds a probe's run, so its (iters, dim) basis is freed
                # before the next probe allocates its own
                ritz[p] = ritz_decomposition(
                    lanczos(oracle, settings.lanczos_iters, rng.child("probe", p)))[:2]
        except BaseException:
            stop.append(k)
            raise

    # leaving the block joins the pool's threads; result() raises a run's exception
    with ThreadPoolExecutor(workers, thread_name_prefix="spectral-density-probes") as pool:
        others = [pool.submit(run, k) for k in range(1, workers)]
        run(0)
    for other in others:
        other.result()
    per_probe_vals, per_probe_weights = (list(x) for x in zip(*ritz))
    sigma = math.sqrt(settings.broadening_sigma2)
    all_vals = np.concatenate(per_probe_vals)
    grid = _auto_grid(all_vals, sigma)
    density = np.zeros_like(grid)
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    # exp(-0.5 * 40**2) is exactly 0.0 in float64, so each bump is added only
    # within 40 sigma of its Ritz value: the sum is the full-grid one bitwise
    reach = 40.0 * sigma
    for vals, weights in zip(per_probe_vals, per_probe_weights):
        los = np.searchsorted(grid, vals - reach)
        his = np.searchsorted(grid, vals + reach, side="right")
        for lam, wgt, lo, hi in zip(vals, weights, los, his):
            density[lo:hi] += wgt * norm * np.exp(-0.5 * ((grid[lo:hi] - lam) / sigma) ** 2)
    density /= settings.num_probes
    return SpectralDensity(
        grid=grid,
        density=density,
        ritz_values=per_probe_vals,
        ritz_weights=per_probe_weights,
        settings=settings,
    )


@dataclass
class ExtremeEigs:
    lambda_min: float
    lambda_max: float
    v_min: np.ndarray  # unit norm, largest-magnitude component positive
    residual_min: float
    residual_max: float
    converged: bool


def _fix_sign(v: np.ndarray) -> np.ndarray:
    i = int(np.argmax(np.abs(v)))
    return -v if v[i] < 0 else v


# The HVP budget of each end's shifted power iteration in extreme_eigs.
MAX_REFINE_ITERS = 5000


def _refine_eigpair(oracle, v0: np.ndarray, shift: float, sign: float, tol: float):
    """Power iteration on sign*(H - shift*I); sign=-1 targets the bottom of the
    spectrum (the operator becomes shift*I - H), sign=+1 the top, for at most
    MAX_REFINE_ITERS passes (>= 1): each pass's HVP gives both the residual
    test and the step. Returns the last vector evaluated with its own
    Rayleigh quotient and residual, converged or not."""
    v = v0 / np.linalg.norm(v0)
    for i in range(MAX_REFINE_ITERS):
        hv = np.asarray(oracle.apply(v), dtype=np.float64)
        lam = float(v @ hv)
        residual = float(np.linalg.norm(hv - lam * v))
        if residual < tol or i == MAX_REFINE_ITERS - 1:
            break
        u = sign * (hv - shift * v)
        nu = float(np.linalg.norm(u))
        if nu == 0.0:
            # operator is shift*I on this vector; already an eigenvector
            break
        v = u / nu
    return _fix_sign(v), lam, residual, residual < tol


def extreme_eigs(oracle, iters: int, tol: float, rng: SeededRng) -> ExtremeEigs:
    """Extreme eigenpairs: Lanczos edge Ritz pairs, then shifted power
    iteration until the eigen-residual drops below tol (or MAX_REFINE_ITERS
    runs out, in which case converged=False and residuals tell the story)."""
    if iters < 2:
        raise ParameterError("iters must be >= 2")
    run = lanczos(oracle, iters, rng.child("lanczos"))
    vals, _, vecs = ritz_decomposition(run)
    v_min0 = run.basis.T @ vecs[:, 0]
    v_max0 = run.basis.T @ vecs[:, -1]
    lam_min_est, lam_max_est = float(vals[0]), float(vals[-1])

    v_min, lam_min, res_min, ok_min = _refine_eigpair(
        oracle, v_min0, shift=lam_max_est, sign=-1.0, tol=tol)
    v_max, lam_max, res_max, ok_max = _refine_eigpair(
        oracle, v_max0, shift=min(lam_min, lam_min_est), sign=1.0, tol=tol)
    return ExtremeEigs(
        lambda_min=lam_min,
        lambda_max=lam_max,
        v_min=v_min,
        residual_min=res_min,
        residual_max=res_max,
        converged=ok_min and ok_max,
    )


def nonconvexity_ratio(extremes: ExtremeEigs) -> float | None:
    """|lambda_min/lambda_max|, with 0 for positive-definite spectra; None,
    undefined, when lambda_max is 0."""
    if extremes.lambda_max == 0.0:
        return None
    if extremes.lambda_min > 0.0:
        return 0.0
    return abs(extremes.lambda_min / extremes.lambda_max)


@dataclass
class ClassSpectrumEntry:
    class_id: int | None  # None = spectrum of the full-dataset average loss
    density: SpectralDensity
    extremes: ExtremeEigs
    ratio: float | None  # nonconvexity_ratio's
    loss: float
    accuracy: float
    num_samples: int


@blas_threads()
def classwise_spectrum_report(spec: MlpSpec, w: np.ndarray, ds: Batch, loss: LossSpec,
                              classes, settings: SpectralSettings, rng: SeededRng):
    """Per-class curvature diagnostics plus the full-dataset contrast entry.

    Curvature is measured on the unweighted loss (class weights stripped):
    the full-dataset Hessian then decomposes exactly into the n_y/N-weighted
    sum of class Hessians, which is what makes the per-class view meaningful.
    """
    classes = list(classes)
    if not classes:
        raise ParameterError("classes must be non-empty")
    plain_loss = loss.with_class_weights(None)
    entries = []
    for cid in classes:
        batch = per_class_batch(ds, cid)
        entries.append(_spectrum_entry(spec, w, batch, plain_loss, cid, settings, rng.child("class", cid)))
    entries.append(_spectrum_entry(spec, w, ds, plain_loss, None, settings, rng.child("full")))
    return entries


# An entry of at least this many rows runs its density probes on two
# threads (spectral_density's workers=2). Per w2_probe entry at epoch-10 weights on 2
# shared CPUs, against one thread per entry, the split ran 1.33-1.85x as fast
# at 1,401 rows, 1.51-1.65x at 500, 1.23-1.50x at 324, 1.12-1.44x at 210,
# 0.89-1.05x at 57 and 0.78-0.93x at 10, over two sets of runs. It cost
# 1.02-1.05x the CPU time at 500 and 1,401 rows, but 1.33x at 324 and 1.35x
# at 210.
PROBE_SPLIT_ROWS = 256


def _spectrum_entry(spec, w, batch, loss, class_id, settings, rng) -> ClassSpectrumEntry:
    lin = Linearization(spec, w, batch, loss)
    density = spectral_density(lin, settings, rng.child("density"),
                               workers=2 if len(batch) >= PROBE_SPLIT_ROWS else 1)
    extremes = extreme_eigs(lin, settings.lanczos_iters, settings.residual_tol,
                            rng.child("extreme"))
    acc = float(np.mean(np.argmax(lin.logits, axis=1) == batch.labels))
    return ClassSpectrumEntry(
        class_id=class_id,
        density=density,
        extremes=extremes,
        ratio=nonconvexity_ratio(extremes),
        loss=lin.value,
        accuracy=acc,
        num_samples=len(batch),
    )


def save_spectrum(entry: ClassSpectrumEntry, csv_path, json_path, meta: dict) -> None:
    """CSV of (grid, density) plus a JSON sidecar with the Ritz data, extreme
    eigenpair summary, settings, and the caller's metadata (seed, epoch, ...)."""
    write_csv(csv_path, ("eigenvalue", "density"), zip(entry.density.grid, entry.density.density))
    sidecar = {
        "format_version": SPECTRUM_FORMAT_VERSION,
        "class_id": entry.class_id,
        "num_samples": entry.num_samples,
        "loss": entry.loss,
        "accuracy": entry.accuracy,
        **{k: v for k, v in vars(entry.extremes).items() if k != "v_min"},
        "nonconvexity_ratio": entry.ratio,
        "settings": {k: getattr(entry.density.settings, k)
                     for k in ("lanczos_iters", "num_probes", "broadening_sigma2")},
        "ritz_values": [vals.tolist() for vals in entry.density.ritz_values],
        "ritz_weights": [wts.tolist() for wts in entry.density.ritz_weights],
        **meta,
    }
    write_json(json_path, sidecar)
