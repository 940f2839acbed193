import dataclasses
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from saddlelab import linalg, model, spectral
from saddlelab.datagen import ClassGeometry, ImbalanceProfile, LabeledDataset, generate
from saddlelab.errors import NumericError, ParameterError
from saddlelab.harness import load_config, run_experiment
from saddlelab.linalg import SeededRng
from saddlelab.losses import LossSpec, loss_on_logits
from saddlelab.model import Batch, MlpSpec, hvp, init_params
from saddlelab.optim import LPFSGD, PGD, SAM, SGD, OptimizerConfig, OptimizerState, optimizer_step
from saddlelab.spectral import (
    ExtremeEigs,
    LanczosResult,
    SpectralSettings,
    classwise_spectrum_report,
    extreme_eigs,
    lanczos,
    nonconvexity_ratio,
    ritz_decomposition,
    spectral_density,
)

ROOT = Path(__file__).resolve().parents[1]


def operator(a):
    return SimpleNamespace(apply=a.__matmul__, dim=a.shape[0])


def random_symmetric(dim, seed):
    rng = SeededRng(seed)
    a = rng.normal(size=(dim, dim))
    return (a + a.T) / 2.0


def test_lanczos_recovers_diagonal_spectrum():
    oracle = operator(np.diag(np.arange(1.0, 11.0)))
    run = lanczos(oracle, 10, SeededRng(1).child("probe"))
    vals, _, _ = ritz_decomposition(run)
    assert np.max(np.abs(np.sort(vals) - np.arange(1.0, 11.0))) < 1e-10


def test_lanczos_scaled_identity_terminates_after_one_iter():
    oracle = operator(2.5 * np.eye(8))
    run = lanczos(oracle, 8, SeededRng(2).child("probe"))
    assert run.early_stop
    assert run.alphas.shape[0] == 1
    assert run.alphas[0] == pytest.approx(2.5, rel=1e-14)


# diagonal operators with repeated eigenvalues: (distinct values, their
# multiplicities, log10 of the scale, probe seed). The Krylov space of a
# generic probe is invariant after exactly len(values) steps; the first three
# leave a rounding residual above 1e-13 of the operator's scale there.
REPEATED_SPECTRA = [
    ((-2, -1, 0, 5), (1, 1, 1, 2), -0.6, 852),
    ((-5, -4, -3, -2, 3, 5), (1, 1, 1, 4, 1, 5), -0.68, 718),
    ((-5, -2, 1, 2, 3, 4, 5), (3, 2, 1, 1, 1, 3, 2), -1.24, 698),
    ((-5, -4, -2, 1, 2, 4), (1, 4, 4, 2, 1, 1), -2.99, 707),
    ((-4, 4), (9, 5), 2.99, 61),
    ((-2,), (9,), -2.81, 315),
]


@pytest.mark.parametrize("values, counts, log_scale, seed", REPEATED_SPECTRA)
def test_lanczos_stops_at_the_invariant_krylov_space(values, counts, log_scale, seed):
    diag = np.repeat(np.array(values, dtype=np.float64), counts) * 10.0 ** log_scale
    run = lanczos(operator(np.diag(diag)), diag.shape[0], SeededRng(seed))
    assert run.early_stop
    assert run.alphas.shape[0] == len(values)


def test_lanczos_full_iteration_matches_dense_solver():
    a = random_symmetric(100, 3)
    run = lanczos(operator(a), 100, SeededRng(4).child("probe"))
    vals, _, _ = ritz_decomposition(run)
    dense = np.linalg.eigvalsh(a)
    assert np.max(np.abs(np.sort(vals) - dense)) < 1e-8


EPS = np.finfo(np.float64).eps


def assert_gauss_rule(alphas, betas):
    """ritz_decomposition of the tridiagonal T against facts that need no
    eigensolver: its values and weights are the nodes and weights of the
    k-point Gauss rule of T's spectral measure at e_0 (Golub & Welsch 1969),
    so the rule reproduces (T^m)[0, 0] for every m < 2k."""
    k = alphas.shape[0]
    vals, weights, vecs = ritz_decomposition(LanczosResult(alphas, betas, None, False, 0))
    assert vals.shape == weights.shape == (k,) and vecs.shape == (k, k)
    assert np.all(np.diff(vals) >= 0.0)
    assert abs(weights.sum() - 1.0) <= 64 * EPS
    assert np.max(np.abs(vecs.T @ vecs - np.eye(k))) <= 64 * EPS
    # moments of T / r, r the largest |Ritz value|: each error is then
    # relative to r^m, the size of the rule's largest term
    r = np.abs(vals).max()
    t = (np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1)) / r
    t_m_e0 = np.eye(k)[0]
    nodes_m = np.ones(k)
    for m in range(2 * k):
        assert abs(weights @ nodes_m - t_m_e0[0]) <= 64 * (m + 1) * EPS, (k, m)
        t_m_e0 = t @ t_m_e0
        nodes_m *= vals / r


@pytest.mark.parametrize("scale", [1e-6, 1.0, 9.0])
def test_ritz_decomposition_is_the_gauss_rule_of_random_tridiagonals(scale):
    rng = np.random.default_rng(int(scale * 1e6))
    for k in range(1, 81):
        alphas = scale * rng.normal(size=k)
        betas = scale * rng.uniform(0.01, 1.0, size=k - 1)
        assert_gauss_rule(alphas, betas)


def test_ritz_decomposition_is_the_gauss_rule_of_w2_sized_lanczos_runs():
    # a diagonal operator of W2's dimension and spectral span: a bulk near 0
    # and outliers out to W2's class-wise extremes, -2.5 and 8.8; every
    # prefix of one Lanczos run is the tridiagonal of a shorter run
    rng = np.random.default_rng(5898)
    diag = np.concatenate([0.05 * rng.normal(size=5878), rng.uniform(-2.5, 8.8, size=20)])
    run = lanczos(SimpleNamespace(apply=lambda v: diag * v, dim=diag.shape[0]), 80, SeededRng(7))
    assert run.alphas.shape[0] == 80
    for k in range(1, 81):
        assert_gauss_rule(run.alphas[:k], run.betas[: k - 1])


def test_ritz_decomposition_of_one_step_is_exact():
    vals, weights, vecs = ritz_decomposition(LanczosResult(np.array([-0.3]), np.zeros(0), None, True, 0))
    assert vals.tolist() == [-0.3] and weights.tolist() == [1.0] and vecs.tolist() == [[1.0]]


def test_lanczos_basis_orthonormal():
    a = random_symmetric(60, 5)
    run = lanczos(operator(a), 60, SeededRng(6).child("probe"))
    gram = run.basis @ run.basis.T
    assert np.max(np.abs(gram - np.eye(run.alphas.shape[0]))) < 1e-12


def test_density_two_point_spectrum_splits_mass():
    op = operator(np.diag([1.0] * 50 + [-1.0] * 50))
    settings = SpectralSettings(lanczos_iters=80, num_probes=64)
    sd = spectral_density(op, settings, SeededRng(7).child("density"))
    for lo, hi in ((0.5, 1.5), (-1.5, -0.5)):
        sel = (sd.grid >= lo) & (sd.grid <= hi)
        assert abs(np.trapezoid(sd.density[sel], sd.grid[sel]) - 0.5) < 0.02


def test_density_zero_operator():
    op = operator(np.zeros((20, 20)))
    sd = spectral_density(op, SpectralSettings(lanczos_iters=20, num_probes=4),
                          SeededRng(8).child("density"))
    assert np.trapezoid(sd.density, sd.grid) == pytest.approx(1.0, abs=0.02)
    assert abs(sd.grid[int(np.argmax(sd.density))]) < 1e-3


def test_density_mass_is_one_for_random_operators():
    for seed in (10, 11, 12):
        a = random_symmetric(80, seed)
        sd = spectral_density(operator(a),
                              SpectralSettings(lanczos_iters=60, num_probes=6),
                              SeededRng(seed).child("density"))
        assert np.trapezoid(sd.density, sd.grid) == pytest.approx(1.0, abs=0.02)


def test_density_of_a_wide_spectrum_keeps_its_mass():
    # a span of 400 at sigma^2 = 1e-5 needs about 127,000 grid points to keep
    # the spacing at most sigma; a capped grid undersamples every bump
    op = operator(np.diag(np.linspace(-1.0, 400.0, 300)))
    settings = SpectralSettings(lanczos_iters=40, num_probes=3)
    sd = spectral_density(op, settings, SeededRng(16).child("density"))
    assert abs(np.trapezoid(sd.density, sd.grid) - 1.0) <= 1e-6
    assert np.max(np.diff(sd.grid)) <= np.sqrt(settings.broadening_sigma2)


def test_density_is_bitwise_the_same_on_any_number_of_workers():
    # probe p runs on worker p % 3: this thread takes probes 0, 3, 6 and two
    # pool threads the rest, each probe on its own stream; the pool is gone after
    a = random_symmetric(40, 14)
    settings = SpectralSettings(lanczos_iters=20, num_probes=7)
    before = threading.active_count()
    one, three = (spectral_density(operator(a), settings, SeededRng(15).child("density"), workers=k)
                  for k in (1, 3))
    assert threading.active_count() == before
    assert all(x.tobytes() == y.tobytes()
               for x, y in zip(one.ritz_values + one.ritz_weights + [one.grid, one.density],
                               three.ritz_values + three.ritz_weights + [three.grid, three.density]))


def test_density_holds_one_lanczos_basis_at_a_time():
    # each probe's run keeps its basis; it must be freed before the next probe
    # allocates its own, or the peak doubles
    dim, iters = 6000, 60
    diag = np.linspace(-1.0, 2.0, dim)
    oracle = SimpleNamespace(apply=lambda v: diag * v, dim=dim)
    settings = SpectralSettings(lanczos_iters=iters, num_probes=4)
    tracemalloc.start()
    try:
        spectral_density(oracle, settings, SeededRng(13).child("density"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * iters * dim * 8


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("field", ["broadening_sigma2", "residual_tol"])
def test_spectral_settings_reject_a_non_finite_value(field, value):
    # a non-finite residual_tol would let each end of extreme_eigs' refinement
    # spend its whole MAX_REFINE_ITERS budget
    with pytest.raises(ParameterError, match=f"{field} must be finite"):
        SpectralSettings(**{field: value})


def test_extreme_eigs_diagonal_case():
    op = operator(np.diag([2.0, -1.0]))
    ex = extreme_eigs(op, SpectralSettings(lanczos_iters=2, residual_tol=1e-10),
                      SeededRng(15).child("extreme"))
    assert ex.lambda_min == pytest.approx(-1.0, abs=1e-10)
    assert ex.lambda_max == pytest.approx(2.0, abs=1e-10)
    assert np.allclose(np.abs(ex.v_min), [0.0, 1.0], atol=1e-8)
    assert ex.converged


def test_extreme_eigs_match_dense_solver():
    a = random_symmetric(200, 16)
    ex = extreme_eigs(operator(a), SpectralSettings(lanczos_iters=80, residual_tol=1e-8),
                      SeededRng(17).child("e"))
    dense = np.linalg.eigvalsh(a)
    assert ex.lambda_min == pytest.approx(dense[0], abs=1e-6)
    assert ex.lambda_max == pytest.approx(dense[-1], abs=1e-6)
    assert ex.residual_min < 1e-8 and ex.residual_max < 1e-8
    assert np.linalg.norm(ex.v_min) == pytest.approx(1.0, abs=1e-10)


def test_extreme_eigs_hvp_count():
    # a full Lanczos run makes the edge Ritz pairs exact, so each end's refine
    # loop converges on its first pass: one HVP per end after Lanczos's six
    base = operator(np.diag([3.0, 1.0, -0.5, -2.0, 0.25, 4.0]))
    calls = []
    op = SimpleNamespace(apply=lambda v: calls.append(1) or base.apply(v), dim=6)
    ex = extreme_eigs(op, SpectralSettings(lanczos_iters=6, residual_tol=1e-8),
                      SeededRng(20).child("e"))
    assert ex.converged
    assert (ex.lambda_min, ex.lambda_max) == (pytest.approx(-2.0), pytest.approx(4.0))
    assert len(calls) == 6 + 2


def test_nonconverged_refine_reports_its_own_vector(monkeypatch):
    # three power steps cannot resolve a 0.001 gap: the returned eigenvalue and
    # residual must still be v_min's own, not those of the vector before it
    monkeypatch.setattr(spectral, "MAX_REFINE_ITERS", 3)
    a = np.diag(np.append(-1.0 + 0.001 * np.arange(19), 2.0))
    ex = extreme_eigs(operator(a), SpectralSettings(lanczos_iters=2, residual_tol=1e-10),
                      SeededRng(1).child("e"))
    assert not ex.converged
    v = ex.v_min
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    rayleigh = float(v @ a @ v)
    assert abs(rayleigh - ex.lambda_min) < 1e-12
    assert ex.residual_min == pytest.approx(np.linalg.norm(a @ v - rayleigh * v), rel=1e-12)


def test_linearization_operator_linearizes_once_and_calls_hvp_per_product(monkeypatch):
    spec = MlpSpec((4, 6, 3), "softplus")
    w = init_params(spec, SeededRng(36).child("init"))
    data = SeededRng(37)
    batch = Batch(data.normal(size=(11, 4)), data.generator.integers(0, 3, 11))
    loss = LossSpec(variant="ldam", class_counts=(6, 3, 2))
    lins, hvp_lins = [], []
    linearization = model.Linearization

    def counting_linearization(*args):
        lins.append(linearization(*args))
        return lins[-1]

    def counting_hvp(*args, lin=None):
        hvp_lins.append(lin)
        return hvp(*args, lin=lin)

    # model.hvp would build a model.Linearization if it were called without
    # lin; the bench counts products at the model.hvp binding
    monkeypatch.setattr(model, "Linearization", counting_linearization)
    monkeypatch.setattr(model, "hvp", counting_hvp)
    base = model.Linearization(spec, w, batch, loss)
    products = []
    oracle = SimpleNamespace(apply=lambda v: products.append(1) or base.apply(v), dim=base.dim)
    settings = SpectralSettings(lanczos_iters=6, num_probes=3, residual_tol=1e-9)
    spectral_density(oracle, settings, SeededRng(38).child("density"))
    extreme_eigs(oracle, settings, SeededRng(39).child("extreme"))
    assert len(lins) == 1
    assert len(hvp_lins) == len(products) > 3 * 6 + 6
    assert all(lin is lins[0] for lin in hvp_lins)


def test_extreme_eigs_sign_flip_swaps_extremes():
    a = random_symmetric(60, 18)
    settings = SpectralSettings(lanczos_iters=60, residual_tol=1e-9)
    ex_pos = extreme_eigs(operator(a), settings, SeededRng(19).child("e"))
    ex_neg = extreme_eigs(operator(-a), settings, SeededRng(19).child("e"))
    assert ex_neg.lambda_min == pytest.approx(-ex_pos.lambda_max, abs=1e-8)
    assert ex_neg.lambda_max == pytest.approx(-ex_pos.lambda_min, abs=1e-8)


def test_nonconvexity_ratio_values():
    def ex(lmin, lmax):
        return ExtremeEigs(lambda_min=lmin, lambda_max=lmax, v_min=np.array([1.0]),
                           residual_min=0.0, residual_max=0.0, converged=True)

    assert nonconvexity_ratio(ex(-1.0, 2.0)) == 0.5
    assert nonconvexity_ratio(ex(0.0, 2.0)) == 0.0
    assert nonconvexity_ratio(ex(0.3, 2.0)) == 0.0  # positive definite convention
    assert nonconvexity_ratio(ex(0.0, 0.0)) is None


def test_psd_operator_ratio_zero():
    rng = SeededRng(20)
    b = rng.normal(size=(40, 40))
    a = b @ b.T + 0.1 * np.eye(40)  # strictly positive definite by construction
    ex = extreme_eigs(operator(a), SpectralSettings(lanczos_iters=40, residual_tol=1e-8),
                      SeededRng(21).child("e"))
    assert ex.lambda_min > 0
    assert nonconvexity_ratio(ex) == 0.0


def test_oracle_purity():
    spec = MlpSpec((4, 6, 2))
    w = init_params(spec, SeededRng(22).child("init"))
    batch = Batch(SeededRng(23).normal(size=(9, 4)),
                  SeededRng(24).generator.integers(0, 2, 9))
    loss = LossSpec(variant="ce", class_counts=(5, 4))
    lin = model.Linearization(spec, w, batch, loss)
    v = SeededRng(25).normal(size=lin.dim)
    assert np.array_equal(lin.apply(v), lin.apply(v))


def _linear_model_dataset(balanced=True):
    counts = (30, 30) if balanced else (40, 8)
    geom = ClassGeometry(input_dim=3, class_mean_radius=2.0, within_class_std=0.8)
    rng = SeededRng(26).child("datagen")
    feats, labels = [], []
    means = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
    for j, n in enumerate(counts):
        feats.append(means[j] + rng.normal(size=(n, 3), std=0.8))
        labels.append(np.full(n, j, dtype=np.intp))
    return LabeledDataset(np.vstack(feats), np.concatenate(labels), counts, geom)


def test_classwise_report_convex_linear_model():
    # logistic regression (no hidden layer) has a PSD Hessian per class
    ds = _linear_model_dataset()
    spec = MlpSpec((3, 2), bias=True)
    w = init_params(spec, SeededRng(27).child("init"))
    loss = LossSpec(variant="ce", class_counts=ds.class_counts)
    settings = SpectralSettings(lanczos_iters=8, num_probes=2, residual_tol=1e-8)
    entries = classwise_spectrum_report(spec, w, ds, loss, [0, 1], settings,
                                        SeededRng(28).child("report"))
    assert len(entries) == 3  # two classes + full dataset
    for entry in entries:
        assert entry.extremes.lambda_min > -1e-8
        assert entry.ratio < 1e-6


def test_full_hessian_is_count_weighted_class_mixture():
    ds = _linear_model_dataset(balanced=False)
    spec = MlpSpec((3, 5, 2))
    w = init_params(spec, SeededRng(29).child("init"))
    loss = LossSpec(variant="ce", class_counts=ds.class_counts)
    n = len(ds)
    rng = SeededRng(30)
    full = Batch(ds.features, ds.labels)
    for _ in range(3):
        v = rng.normal(size=w.shape[0])
        hv_full = hvp(spec, w, full, loss, v)
        hv_mix = np.zeros_like(hv_full)
        for j, count in enumerate(ds.class_counts):
            sel = ds.labels == j
            hv_mix += (count / n) * hvp(spec, w, Batch(ds.features[sel], ds.labels[sel]), loss, v)
        assert np.max(np.abs(hv_full - hv_mix)) < 1e-10


def test_single_class_dataset_report_matches_full():
    feats = SeededRng(31).normal(size=(20, 3))
    ds = LabeledDataset(feats, np.zeros(20, dtype=np.intp), (20, 0), ClassGeometry(input_dim=3))
    spec = MlpSpec((3, 4, 2))
    w = init_params(spec, SeededRng(32).child("init"))
    loss = LossSpec(variant="ce", class_counts=(20, 1))
    settings = SpectralSettings(lanczos_iters=10, num_probes=2, residual_tol=1e-9)
    entries = classwise_spectrum_report(spec, w, ds, loss, [0], settings,
                                        SeededRng(33).child("report"))
    class_entry, full_entry = entries
    # same operator probed with different streams: extremes and pointwise
    # metrics agree, density differs only by probe noise
    assert class_entry.loss == full_entry.loss
    assert class_entry.accuracy == full_entry.accuracy
    assert class_entry.extremes.lambda_min == pytest.approx(full_entry.extremes.lambda_min, abs=1e-8)
    assert class_entry.extremes.lambda_max == pytest.approx(full_entry.extremes.lambda_max, abs=1e-8)


# W2's hidden layers and 80 Lanczos steps on untrained weights: the smallest
# settings found at which a spectrum entry's bytes differed between 1 and 2
# threads while such entries ran on the process's BLAS threads. The child
# writes one entry of classwise_spectrum_report(classes=[class_id]); args:
# out, num_classes, n_max, beta, class_id, entry index, num_probes, rows
THREADS_CHILD = """
import sys
from saddlelab.datagen import ClassGeometry, ImbalanceProfile, generate
from saddlelab.linalg import SeededRng
from saddlelab.losses import LossSpec
from saddlelab.model import MlpSpec, init_params
from saddlelab.spectral import SpectralSettings, classwise_spectrum_report, save_spectrum
out, (classes, n_max, beta, class_id, index, probes, rows) = sys.argv[1], map(int, sys.argv[2:])
rng = SeededRng(1)
ds = generate(ImbalanceProfile("longtail", classes, n_max, beta), ClassGeometry(input_dim=16),
              rng.child("data"))
spec = MlpSpec((16, 64, 64, classes))
entry = classwise_spectrum_report(spec, init_params(spec, rng.child("init")), ds,
                                  LossSpec(variant="ce", class_counts=ds.class_counts),
                                  [class_id], SpectralSettings(lanczos_iters=80, num_probes=probes),
                                  rng.child("spectrum"))[index]
assert entry.num_samples == rows, entry.num_samples
save_spectrum(entry, out + ".csv", out + ".json", {})
"""


def _spectrum_bytes_at_one_and_two_threads(tmp_path, case):
    """The bytes THREADS_CHILD writes for case under OPENBLAS_NUM_THREADS=1
    and =2; case is (num_classes, n_max, beta, class_id, entry index,
    num_probes, rows)."""
    if linalg._openblas() is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-c", THREADS_CHILD, str(out), *map(str, case)],
                              capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 0, proc.stderr
        outputs.append((Path(f"{out}.json").read_bytes(), Path(f"{out}.csv").read_bytes()))
    return outputs


def test_small_class_spectrum_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    one, two = _spectrum_bytes_at_one_and_two_threads(tmp_path, (10, 10, 10, 9, 0, 1, 1))
    assert one == two


# the 500-row class and the 550-row full batch, beyond model.CHUNK_ROWS, run
# their probes on two threads; both failed while entries of 256 rows or more
# ran on the BLAS thread count the process started with
@pytest.mark.parametrize("case", [(2, 500, 10, 0, 0, 2, 500), (2, 500, 10, 1, -1, 2, 550)],
                         ids=["500-row class", "550-row full batch"])
def test_large_entry_spectrum_bytes_do_not_depend_on_the_blas_thread_count(tmp_path, case):
    one, two = _spectrum_bytes_at_one_and_two_threads(tmp_path, case)
    assert one == two


def _split_case():
    """A 300-row class, past PROBE_SPLIT_ROWS, under a small tanh MLP."""
    ds = generate(ImbalanceProfile("longtail", 3, 300, 10.0), ClassGeometry(input_dim=4),
                  SeededRng(50).child("data"))
    spec = MlpSpec((4, 8, 3))
    w = init_params(spec, SeededRng(51).child("init"))
    loss = LossSpec(variant="ce", class_counts=ds.class_counts)
    return spec, w, ds, loss


def test_spectrum_report_runs_on_one_blas_thread(blas_readings, fake_blas):
    spec, w, ds, loss = _split_case()
    # class 0 and the full batch run their odd probes on a second thread
    readings = blas_readings(model, "hvp")
    classwise_spectrum_report(spec, w, ds, loss, [0, 2],
                              SpectralSettings(lanczos_iters=6, num_probes=2), SeededRng(56))
    assert readings and readings == [1] * len(readings)
    assert fake_blas.count == 4


def test_probe_split_is_bitwise_neutral(monkeypatch):
    spec, w, ds, loss = _split_case()
    assert ds.class_counts[0] >= spectral.PROBE_SPLIT_ROWS
    settings = SpectralSettings(lanczos_iters=12, num_probes=5)
    hvp_calls, refine_calls, lins = [], [], []
    linearization, refine_eigpair = model.Linearization, spectral._refine_eigpair

    def counting_linearization(*args):
        lins.append(linearization(*args))
        return lins[-1]

    # the bench counts products at the model.hvp binding, on both threads
    def recording_hvp(*args, lin=None):
        hvp_calls.append((threading.get_ident(), lin))
        return hvp(*args, lin=lin)

    def counting_refine(oracle, *args, **kwargs):
        op = SimpleNamespace(apply=lambda v: refine_calls.append(1) or oracle.apply(v),
                             dim=oracle.dim)
        return refine_eigpair(op, *args, **kwargs)

    def report():
        for calls in (hvp_calls, refine_calls, lins):
            calls.clear()
        entries = classwise_spectrum_report(spec, w, ds, loss, [0], settings, SeededRng(52))
        # class 0's entry and the full batch's, both past PROBE_SPLIT_ROWS:
        # every product is one model.hvp call, (probes + 1) full Lanczos runs
        # per entry and the refinement's products
        assert len(hvp_calls) == (2 * (settings.num_probes + 1) * settings.lanczos_iters
                                  + len(refine_calls))
        # one linearization per entry, shared by both threads
        assert len(lins) == 2
        assert all(any(lin is x for x in lins) for _, lin in hvp_calls)
        return entries[0], len({thread for thread, _ in hvp_calls})

    monkeypatch.setattr(model, "hvp", recording_hvp)
    monkeypatch.setattr(spectral, "Linearization", counting_linearization)
    monkeypatch.setattr(spectral, "_refine_eigpair", counting_refine)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the threads take turns far more often than at 5 ms
    before = threading.active_count()
    try:
        split, split_threads = report()
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == before
    monkeypatch.setattr(spectral, "PROBE_SPLIT_ROWS", len(ds) + 1)
    whole, whole_threads = report()
    assert (split_threads, whole_threads) == (2, 1)
    for a, b in ((split.density.ritz_values, whole.density.ritz_values),
                 (split.density.ritz_weights, whole.density.ritz_weights)):
        assert len(a) == len(b) == settings.num_probes
        assert all(x.tobytes() == y.tobytes() for x, y in zip(a, b))
    assert split.density.grid.tobytes() == whole.density.grid.tobytes()
    assert split.density.density.tobytes() == whole.density.density.tobytes()
    assert split.extremes.v_min.tobytes() == whole.extremes.v_min.tobytes()
    assert ({k: v for k, v in vars(split.extremes).items() if k != "v_min"}
            == {k: v for k, v in vars(whole.extremes).items() if k != "v_min"})


@pytest.mark.parametrize("failing", ["odd", "even"])
def test_a_failing_probe_fails_the_entry_and_leaves_no_thread(monkeypatch, failing):
    spec, w, ds, loss = _split_case()
    main = threading.get_ident()
    products = []

    # the second thread runs the odd-numbered probes, this one the even ones
    def failing_hvp(*args, lin=None):
        products.append(1)
        if (threading.get_ident() == main) == (failing == "even") and len(products) > 3:
            raise NumericError(f"injected on an {failing}-numbered probe")
        return hvp(*args, lin=lin)

    monkeypatch.setattr(model, "hvp", failing_hvp)
    before = threading.active_count()
    with pytest.raises(NumericError, match=f"on an {failing}-numbered probe"):
        classwise_spectrum_report(spec, w, ds, loss, [0],
                                  SpectralSettings(lanczos_iters=12, num_probes=6),
                                  SeededRng(53))
    assert threading.active_count() == before


def test_lanczos_probe_determinism():
    a = random_symmetric(30, 34)
    op = operator(a)
    r1 = lanczos(op, 30, SeededRng(35).child("p"))
    r2 = lanczos(op, 30, SeededRng(35).child("p"))
    assert np.array_equal(r1.alphas, r2.alphas)
    assert np.array_equal(r1.betas, r2.betas)


def _full_reorth_ritz_pairs(a, iters, rng):
    """Reference: Lanczos with two classical Gram-Schmidt passes against the
    whole basis on every step, the same probe and the same early stop.
    Returns the Ritz values and their residual bounds |beta_k s_{k,i}|."""
    dim = a.shape[0]
    k = min(iters, dim)
    q = np.zeros((k, dim))
    v = rng.normal(size=dim)
    q[0] = v / np.linalg.norm(v)
    alphas, betas = [], []
    scale = 0.0
    for j in range(k):
        z = a @ q[j]
        alphas.append(float(q[j] @ z))
        z = z - alphas[j] * q[j] - (betas[j - 1] * q[j - 1] if j else 0.0)
        for _ in range(2):
            z -= q[: j + 1].T @ (q[: j + 1] @ z)
        scale = max(scale, abs(alphas[j]), betas[j - 1] if j else 0.0)
        beta = float(np.linalg.norm(z))
        if j == k - 1 or beta <= 1e-13 * max(scale, 1.0):
            break
        betas.append(beta)
        q[j + 1] = z / beta
    vals, vecs = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
    return vals, np.abs(beta * vecs[-1])


SPECTRA = ("spread", "clustered", "repeated", "graded")


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(SPECTRA), st.integers(2, 90), st.floats(0.0, 1.0),
       st.integers(0, 2**32 - 1))
def test_partial_reorth_lanczos_matches_full_reorth_and_dense(kind, dim, frac, seed):
    rng = SeededRng(seed)
    if kind == "spread":
        ev = rng.normal(size=dim)
    elif kind == "clustered":
        half = dim // 2
        ev = np.concatenate([1.0 + 1e-6 * rng.normal(size=half), rng.normal(size=dim - half)])
    elif kind == "repeated":
        ev = rng.generator.integers(-3, 4, size=dim).astype(np.float64)
    else:
        ev = np.logspace(-8, 2, dim) * rng.generator.choice([-1.0, 1.0], size=dim)
    if kind == "repeated":
        a = np.diag(ev)  # a rotation would split the repeats at rounding level
    else:
        rot, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        a = (rot * ev) @ rot.T
        a = (a + a.T) / 2.0
    iters = max(1, round(frac * dim))
    run = lanczos(operator(a), iters, SeededRng(seed).child("probe"))
    gram = run.basis @ run.basis.T
    assert np.max(np.abs(gram - np.eye(run.alphas.shape[0]))) < 1e-12
    norm_a = np.max(np.abs(ev))
    vals = np.sort(ritz_decomposition(run)[0])
    ref, residuals = _full_reorth_ritz_pairs(a, iters, SeededRng(seed).child("probe"))
    assert vals.shape == ref.shape
    # converged Ritz values are well-posed; unconverged ones next to a cluster
    # are not: the reference itself moves by 1e-11 * norm_a when A is scaled
    # by one ulp, so they get a looser bound that a ghost eigenvalue still fails
    converged = residuals <= 1e-4 * norm_a
    assert np.all(np.abs(vals - ref)[converged] <= 1e-12 * norm_a)
    assert np.max(np.abs(vals - ref)) <= 1e-9 * norm_a
    dense = np.linalg.eigvalsh(a)
    if run.alphas.shape[0] == dim:
        assert np.max(np.abs(vals - dense)) <= 1e-12 * norm_a
    elif run.early_stop:
        # an invariant Krylov space: its Ritz values are eigenvalues, and it
        # reaches every eigenvalue, possibly not every copy of a repeated one
        gaps = np.abs(vals[:, None] - dense[None, :])
        assert np.max(np.min(gaps, axis=1)) <= 1e-12 * norm_a
        assert np.max(np.min(gaps, axis=0)) <= 1e-12 * norm_a


def test_density_window_sums_bitwise_like_the_full_grid():
    # a spread spectrum and a tiny sigma: most grid points lie outside the
    # 40-sigma window of most Ritz values
    cases = ((np.diag(np.linspace(-3.0, 5.0, 40)), SpectralSettings(lanczos_iters=40, num_probes=3)),
             (random_symmetric(80, 9),
              SpectralSettings(lanczos_iters=30, num_probes=4, broadening_sigma2=1e-3)))
    for a, settings in cases:
        sd = spectral_density(operator(a), settings, SeededRng(9).child("density"))
        sigma = np.sqrt(settings.broadening_sigma2)
        norm = 1.0 / (sigma * np.sqrt(2.0 * np.pi))
        full = np.zeros_like(sd.grid)
        for vals, weights in zip(sd.ritz_values, sd.ritz_weights):
            for lam, wgt in zip(vals, weights):
                full += wgt * norm * np.exp(-0.5 * ((sd.grid - lam) / sigma) ** 2)
        full /= settings.num_probes
        assert np.array_equal(sd.density, full)


def _dense_hessian(lin):
    dense = np.column_stack([lin.apply(e) for e in np.eye(lin.dim)])
    return (dense + dense.T) / 2.0


def test_w1_density_moments_and_extremes_match_the_dense_hessian(tmp_path):
    cfg = dataclasses.replace(load_config(ROOT / "configs" / "quickstart.json"),
                              spectrum_epochs=(), cnc_epochs=())
    result = run_experiment(cfg, out_dir=tmp_path)
    ds = result.dataset
    oracle = model.Linearization(cfg.model, result.params, Batch(ds.features, ds.labels),
                                 cfg.loss.bind(ds.class_counts))
    dim = oracle.dim
    assert dim == 110
    eigs = np.linalg.eigvalsh(_dense_hessian(oracle))

    settings = cfg.spectral
    sd = spectral_density(oracle, settings, SeededRng(1).child("density"))
    # moments of the broadened density, less the Gaussian's own (sigma^2)
    s2 = settings.broadening_sigma2
    raw = [np.trapezoid(sd.grid**k * sd.density, sd.grid) for k in range(5)]
    moments = [raw[1], raw[2] - s2, raw[3] - 3 * s2 * raw[1], raw[4] - 6 * s2 * raw[2] + 3 * s2**2]
    for k, m in enumerate(moments, start=1):
        trace = np.sum(eigs**k) / dim
        # unit probes uniform on the sphere: Var(v'Mv) = 2/(n+2) (tr M^2/n - (tr M/n)^2)
        var = 2.0 / (dim + 2) * (np.sum(eigs ** (2 * k)) / dim - trace**2)
        assert abs(m - trace) <= 3.0 * np.sqrt(var / settings.num_probes)

    ex = extreme_eigs(oracle, settings, SeededRng(2).child("e"))
    assert ex.converged
    assert abs(ex.lambda_min - eigs[0]) <= settings.residual_tol
    assert abs(ex.lambda_max - eigs[-1]) <= settings.residual_tol


def _exact_saddle(num_classes, input_dim, hidden, drw, hidden_bias=False):
    """The tanh MLP input_dim-hidden...-num_classes on W1's data (W2's with 10
    classes and 16 inputs), at zero weights, with the output bias log(pi):
    pi_c is class c's share of the loss's normalized sample weights omega, so
    softmax(logits) = pi on every row and the gradient is 0. The hidden biases
    are 0 (saddle (a)), or with hidden_bias 0.5 N(0, 1) draws (saddle (b)): a
    hidden unit's output is then a nonzero constant, and its outgoing
    weights' gradient still cancels, as sum_i omega_i (pi - e_y_i) = 0.
    With one hidden layer and zero hidden biases the Hessian pairs each hidden
    unit's outgoing weights with its incoming ones through
    M = sum_i omega_i (pi - e_y_i) x_i^T and is PSD elsewhere, so its spectrum
    below 0 is -sigma(M), hidden times. Returns (Linearization, gradient, M)."""
    cfg = load_config(ROOT / "configs" / "quickstart.json")
    dataset = dataclasses.replace(cfg.dataset, num_classes=num_classes, input_dim=input_dim)
    ds = generate(dataset.profile(), dataset.geometry(), SeededRng(cfg.seed).child("datagen"))
    counts = np.asarray(ds.class_counts, dtype=np.float64)
    loss = LossSpec(variant="ce", class_counts=ds.class_counts,
                    class_weights=tuple(1.0 / counts) if drw else None)
    omega = (1.0 / counts if drw else np.ones_like(counts))[ds.labels]
    omega /= omega.sum()
    pi = np.bincount(ds.labels, weights=omega, minlength=num_classes)
    spec = MlpSpec((input_dim, *hidden, num_classes))
    layout, total = model.param_layout(spec)
    w = np.zeros(total)
    w[-num_classes:] = np.log(pi)  # the output bias, the vector's last block
    if hidden_bias:
        draws = SeededRng(cfg.seed).child("hidden_bias")
        for block in layout[:-1]:
            if block.name.startswith("b"):
                w[block.offset : block.offset + block.shape[0]] = 0.5 * draws.normal(size=block.shape)
    batch = Batch(ds.features, ds.labels)
    # M's row c as sum_k pi_c pi_k (mu_k - mu_c), mu_k class k's omega-weighted
    # mean: the same sum, but the class sums do not cancel in rounding
    mu = np.stack([omega[ds.labels == c] @ ds.features[ds.labels == c]
                   for c in range(num_classes)]) / pi[:, None]
    m = pi[:, None] * np.einsum("k,ckd->cd", pi, mu[None] - mu[:, None])
    return model.Linearization(spec, w, batch, loss), model.loss_grad(spec, w, batch, loss)[1], m


@pytest.mark.parametrize("num_classes, input_dim, hidden, drw", [
    (2, 6, 12, False), (2, 6, 12, True), (10, 16, 8, False),
], ids=["w1", "w1-drw", "w2-16-8-10"])
def test_one_hidden_layer_exact_saddle_matches_its_closed_form(num_classes, input_dim,
                                                               hidden, drw):
    lin, grad, m = _exact_saddle(num_classes, input_dim, (hidden,), drw)
    assert np.linalg.norm(grad) <= 1e-14
    eigs = np.linalg.eigvalsh(_dense_hessian(lin))
    sigmas = np.linalg.svd(m, compute_uv=False)
    assert abs(eigs[0] + sigmas[0]) <= 1e-13 * sigmas[0]
    # rank(M) at the same threshold: its rows sum to 0 up to rounding
    assert np.count_nonzero(eigs < -1e-12) == hidden * np.count_nonzero(sigmas > 1e-12)
    settings = SpectralSettings()
    ex = extreme_eigs(lin, settings, SeededRng(3).child("extreme"))
    assert ex.converged
    assert abs(ex.lambda_min - eigs[0]) <= settings.residual_tol


@pytest.mark.parametrize("num_classes, input_dim, hidden, drw", [
    (2, 6, 12, False), (2, 6, 12, True), (10, 16, 8, False),
], ids=["w1", "w1-drw", "w2-16-8-10"])
def test_biased_exact_saddle_is_critical_and_extreme_eigs_finds_its_lambda_min(
        num_classes, input_dim, hidden, drw):
    # with hidden biases lambda_min is no longer -sigma_max(M): the dense
    # Hessian is the ground truth
    lin, grad, _ = _exact_saddle(num_classes, input_dim, (hidden,), drw, hidden_bias=True)
    assert np.linalg.norm(grad) <= 1e-14
    eigs = np.linalg.eigvalsh(_dense_hessian(lin))
    assert eigs[0] < 0.0
    settings = SpectralSettings()
    ex = extreme_eigs(lin, settings, SeededRng(3).child("extreme"))
    assert ex.converged
    assert abs(ex.lambda_min - eigs[0]) <= settings.residual_tol


def test_two_hidden_layer_exact_saddle_has_a_psd_hessian():
    lin, grad, _ = _exact_saddle(2, 6, (8, 8), drw=False)
    assert np.linalg.norm(grad) <= 1e-14
    eigs = np.linalg.eigvalsh(_dense_hessian(lin))
    assert eigs[0] >= -1e-12 * eigs[-1]


@pytest.mark.parametrize("drw", [False, True], ids=["w1", "w1-drw"])
def test_only_pgd_leaves_the_zero_weight_saddle(drw):
    # at W = 0 every mini-batch gradient is exactly 0 in W (tanh(0) = 0 and
    # W_out = 0), SAM's ascent offset is a multiple of it, and LPF-SGD's noise
    # scale is a block's norm, 0 on a zero block: only PGD's isotropic noise
    # reaches the negative eigenspace, which lies in (W_out, W_in)
    lin, _, _ = _exact_saddle(2, 6, (12,), drw)
    spec, batch, loss = lin.spec, lin.batch, lin.loss
    blocks, _ = model.param_layout(spec)
    weights = np.concatenate([np.arange(b.offset, b.offset + np.prod(b.shape)) for b in blocks
                              if b.name.startswith("w")])
    moved = {}
    for kind, opt in [("sgd", OptimizerConfig(SGD)),
                      ("sam", OptimizerConfig(SAM, rho=0.8)),
                      ("sam-unnormalized", OptimizerConfig(SAM, rho=0.8, sam_normalized=False)),
                      ("lpfsgd", OptimizerConfig(LPFSGD, lpf_radius=0.1)),
                      ("pgd", OptimizerConfig(PGD, pgd_sigma=1e-4))]:
        w = lin.w.copy()
        state = OptimizerState(velocity=np.zeros_like(w), rng=SeededRng(5).child(kind))
        order = SeededRng(6).child("batches")
        for _ in range(300):
            idx = order.choice(len(batch), 64)
            step = Batch(batch.features[idx], batch.labels[idx])
            w, _ = optimizer_step(opt, lambda x, b=step: model.loss_grad(spec, x, b, loss),
                                  w, state, 0.1, opt.rho, blocks)
        moved[kind] = float(np.max(np.abs(w[weights])))
    assert moved.pop("pgd") > 0.1
    assert moved == dict.fromkeys(moved, 0.0)


def test_lanczos_on_a_w2_sized_oracle_skips_reorthogonalization_and_reruns_bitwise():
    spec = MlpSpec((16, 64, 64, 10))
    w = init_params(spec, SeededRng(40).child("init"))
    data = SeededRng(41)
    batch = Batch(data.normal(size=(300, 16)), data.generator.integers(0, 10, 300))
    oracle = model.Linearization(spec, w, batch, LossSpec(variant="ce", class_counts=(30,) * 10))
    assert oracle.dim == 5898
    first = lanczos(oracle, 80, SeededRng(42).child("probe"))
    again = lanczos(oracle, 80, SeededRng(42).child("probe"))
    assert first.alphas.shape[0] == 80 and not first.early_stop
    assert 0 < first.reorth_steps < 80
    assert np.max(np.abs(first.basis @ first.basis.T - np.eye(80))) < 1e-12
    for name in ("alphas", "betas", "basis"):
        assert getattr(first, name).tobytes() == getattr(again, name).tobytes()
    assert first.reorth_steps == again.reorth_steps


def test_spectrum_entry_reuses_the_linearizations_forward_pass(monkeypatch):
    ds = _linear_model_dataset(balanced=False)
    spec = MlpSpec((3, 5, 2))
    w = init_params(spec, SeededRng(43).child("init"))
    loss = LossSpec(variant="ce", class_counts=ds.class_counts)
    passes = []
    forward_pass = model._forward_pass
    monkeypatch.setattr(model, "_forward_pass", lambda *a: passes.append(1) or forward_pass(*a))
    settings = SpectralSettings(lanczos_iters=6, num_probes=2)
    entries = classwise_spectrum_report(spec, w, ds, loss, [0, 1], settings,
                                        SeededRng(44).child("report"))
    assert len(passes) == len(entries) == 3  # one linearization each, nothing more
    monkeypatch.undo()
    for entry in entries:
        batch = (Batch(ds.features, ds.labels) if entry.class_id is None
                 else model.per_class_batch(ds, entry.class_id))
        logits = model.forward(spec, w, batch.features)
        value, _ = loss_on_logits(loss, logits, batch.labels)
        assert entry.loss == value
        assert entry.accuracy == float(np.mean(np.argmax(logits, axis=1) == batch.labels))
