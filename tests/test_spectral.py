import numpy as np
import pytest

from saddlelab import model, spectral
from saddlelab.datagen import ClassGeometry, ImbalanceProfile, LabeledDataset
from saddlelab.errors import ParameterError, UndefinedRatioError
from saddlelab.linalg import SeededRng
from saddlelab.losses import LossSpec
from saddlelab.model import Batch, MlpSpec, hvp, init_params
from saddlelab.spectral import (
    ExtremeEigs,
    HvpOracle,
    SpectralSettings,
    classwise_spectrum_report,
    extreme_eigs,
    lanczos,
    nonconvexity_ratio,
    ritz_decomposition,
    spectral_density,
)


def random_symmetric(dim, seed):
    rng = SeededRng(seed)
    a = rng.normal(size=(dim, dim))
    return (a + a.T) / 2.0


def test_lanczos_recovers_diagonal_spectrum():
    oracle = HvpOracle.from_matrix(np.diag(np.arange(1.0, 11.0)))
    run = lanczos(oracle, 10, SeededRng(1).child("probe"))
    vals, _, _ = ritz_decomposition(run)
    assert np.max(np.abs(np.sort(vals) - np.arange(1.0, 11.0))) < 1e-10


def test_lanczos_scaled_identity_terminates_after_one_iter():
    oracle = HvpOracle.from_matrix(2.5 * np.eye(8))
    run = lanczos(oracle, 8, SeededRng(2).child("probe"))
    assert run.early_stop
    assert run.iters_done == 1
    assert run.alphas[0] == pytest.approx(2.5, rel=1e-14)


def test_lanczos_full_iteration_matches_dense_solver():
    a = random_symmetric(100, 3)
    run = lanczos(HvpOracle.from_matrix(a), 100, SeededRng(4).child("probe"))
    vals, _, _ = ritz_decomposition(run)
    dense = np.linalg.eigvalsh(a)
    assert np.max(np.abs(np.sort(vals) - dense)) < 1e-8


def test_lanczos_basis_orthonormal():
    a = random_symmetric(60, 5)
    run = lanczos(HvpOracle.from_matrix(a), 60, SeededRng(6).child("probe"))
    gram = run.basis @ run.basis.T
    assert np.max(np.abs(gram - np.eye(run.iters_done))) < 1e-12


def test_density_two_point_spectrum_splits_mass():
    op = HvpOracle.from_matrix(np.diag([1.0] * 50 + [-1.0] * 50))
    settings = SpectralSettings(lanczos_iters=80, num_probes=64)
    sd = spectral_density(op, settings, SeededRng(7).child("density"))
    assert abs(sd.mass_between(0.5, 1.5) - 0.5) < 0.02
    assert abs(sd.mass_between(-1.5, -0.5) - 0.5) < 0.02


def test_density_zero_operator():
    op = HvpOracle.from_matrix(np.zeros((20, 20)))
    sd = spectral_density(op, SpectralSettings(lanczos_iters=20, num_probes=4),
                          SeededRng(8).child("density"))
    assert sd.mass() == pytest.approx(1.0, abs=0.02)
    assert abs(sd.grid[int(np.argmax(sd.density))]) < 1e-3


def test_density_mass_is_one_for_random_operators():
    for seed in (10, 11, 12):
        a = random_symmetric(80, seed)
        sd = spectral_density(HvpOracle.from_matrix(a),
                              SpectralSettings(lanczos_iters=60, num_probes=6),
                              SeededRng(seed).child("density"))
        assert sd.mass() == pytest.approx(1.0, abs=0.02)


def test_extreme_eigs_diagonal_case():
    op = HvpOracle.from_matrix(np.diag([2.0, -1.0]))
    ex = extreme_eigs(op, 2, 1e-10, SeededRng(15).child("extreme"))
    assert ex.lambda_min == pytest.approx(-1.0, abs=1e-10)
    assert ex.lambda_max == pytest.approx(2.0, abs=1e-10)
    assert np.allclose(np.abs(ex.v_min), [0.0, 1.0], atol=1e-8)
    assert ex.converged


def test_extreme_eigs_match_dense_solver():
    a = random_symmetric(200, 16)
    ex = extreme_eigs(HvpOracle.from_matrix(a), 80, 1e-8, SeededRng(17).child("e"))
    dense = np.linalg.eigvalsh(a)
    assert ex.lambda_min == pytest.approx(dense[0], abs=1e-6)
    assert ex.lambda_max == pytest.approx(dense[-1], abs=1e-6)
    assert ex.residual_min < 1e-8 and ex.residual_max < 1e-8
    assert np.linalg.norm(ex.v_min) == pytest.approx(1.0, abs=1e-10)


def test_extreme_eigs_hvp_count():
    # a full Lanczos run makes the edge Ritz pairs exact, so each end's refine
    # loop converges on its first pass: one HVP per end after Lanczos's six
    base = HvpOracle.from_matrix(np.diag([3.0, 1.0, -0.5, -2.0, 0.25, 4.0]))
    calls = []
    op = HvpOracle(apply=lambda v: calls.append(1) or base.apply(v), dim=6)
    ex = extreme_eigs(op, 6, 1e-8, SeededRng(20).child("e"))
    assert ex.converged
    assert (ex.lambda_min, ex.lambda_max) == (pytest.approx(-2.0), pytest.approx(4.0))
    assert len(calls) == 6 + 2
    with pytest.raises(ParameterError):
        extreme_eigs(op, 6, 1e-8, SeededRng(20).child("e"), max_refine_iters=0)


def test_nonconverged_refine_reports_its_own_vector():
    # three power steps cannot resolve a 0.001 gap: the returned eigenvalue and
    # residual must still be v_min's own, not those of the vector before it
    a = np.diag(np.append(-1.0 + 0.001 * np.arange(19), 2.0))
    ex = extreme_eigs(HvpOracle.from_matrix(a), 2, 1e-10, SeededRng(1).child("e"),
                      max_refine_iters=3)
    assert not ex.converged
    v = ex.v_min
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-14)
    rayleigh = float(v @ a @ v)
    assert abs(rayleigh - ex.lambda_min) < 1e-12
    assert ex.residual_min == pytest.approx(np.linalg.norm(a @ v - rayleigh * v), rel=1e-12)


def test_for_batch_oracle_linearizes_once_and_calls_hvp_per_product(monkeypatch):
    spec = MlpSpec((4, 6, 3), "softplus")
    w = init_params(spec, SeededRng(36).child("init"))
    data = SeededRng(37)
    batch = Batch(data.normal(size=(11, 4)), data.generator.integers(0, 3, 11))
    loss = LossSpec(variant="ldam", class_counts=(6, 3, 2))
    lins, hvp_lins = [], []

    def counting_linearize(*args):
        lins.append(model.Linearization(*args))
        return lins[-1]

    def counting_hvp(*args, lin=None):
        hvp_lins.append(lin)
        return hvp(*args, lin=lin)

    # model.hvp would reach model.linearize if it were called without lin
    monkeypatch.setattr(model, "linearize", counting_linearize)
    monkeypatch.setattr(spectral, "linearize", counting_linearize)
    monkeypatch.setattr(spectral, "hvp", counting_hvp)
    base = HvpOracle.for_batch(spec, w, batch, loss)
    products = []
    oracle = HvpOracle(apply=lambda v: products.append(1) or base.apply(v), dim=base.dim)
    settings = SpectralSettings(lanczos_iters=6, num_probes=3)
    spectral_density(oracle, settings, SeededRng(38).child("density"))
    extreme_eigs(oracle, 6, 1e-9, SeededRng(39).child("extreme"))
    assert len(lins) == 1
    assert len(hvp_lins) == len(products) > 3 * 6 + 6
    assert all(lin is lins[0] for lin in hvp_lins)


def test_extreme_eigs_sign_flip_swaps_extremes():
    a = random_symmetric(60, 18)
    ex_pos = extreme_eigs(HvpOracle.from_matrix(a), 60, 1e-9, SeededRng(19).child("e"))
    ex_neg = extreme_eigs(HvpOracle.from_matrix(-a), 60, 1e-9, SeededRng(19).child("e"))
    assert ex_neg.lambda_min == pytest.approx(-ex_pos.lambda_max, abs=1e-8)
    assert ex_neg.lambda_max == pytest.approx(-ex_pos.lambda_min, abs=1e-8)


def test_nonconvexity_ratio_values():
    def ex(lmin, lmax):
        return ExtremeEigs(lambda_min=lmin, lambda_max=lmax, v_min=np.array([1.0]),
                           residual_min=0.0, residual_max=0.0, converged=True)

    assert nonconvexity_ratio(ex(-1.0, 2.0)) == 0.5
    assert nonconvexity_ratio(ex(0.0, 2.0)) == 0.0
    assert nonconvexity_ratio(ex(0.3, 2.0)) == 0.0  # positive definite convention
    with pytest.raises(UndefinedRatioError):
        nonconvexity_ratio(ex(0.0, 0.0))


def test_psd_operator_ratio_zero():
    rng = SeededRng(20)
    b = rng.normal(size=(40, 40))
    a = b @ b.T + 0.1 * np.eye(40)  # strictly positive definite by construction
    ex = extreme_eigs(HvpOracle.from_matrix(a), 40, 1e-8, SeededRng(21).child("e"))
    assert ex.lambda_min > 0
    assert nonconvexity_ratio(ex) == 0.0


def test_matrix_oracle_diagonal_action():
    # operator view of the quadratic surrogate: H = A, so Hv = Av
    oracle = HvpOracle.from_matrix(np.diag([2.0, -1.0]))
    assert np.array_equal(oracle.apply(np.array([0.0, 1.0])), np.array([0.0, -1.0]))


def test_oracle_purity():
    spec = MlpSpec((4, 6, 2))
    w = init_params(spec, SeededRng(22).child("init"))
    batch = Batch(SeededRng(23).normal(size=(9, 4)),
                  SeededRng(24).generator.integers(0, 2, 9))
    loss = LossSpec(variant="ce", class_counts=(5, 4))
    oracle = HvpOracle.for_batch(spec, w, batch, loss)
    v = SeededRng(25).normal(size=oracle.dim)
    assert np.array_equal(oracle.apply(v), oracle.apply(v))


def _linear_model_dataset(balanced=True):
    counts = (30, 30) if balanced else (40, 8)
    profile = ImbalanceProfile("longtail", 2, counts[0],
                               counts[0] / counts[1] + 1e-12)
    geom = ClassGeometry(input_dim=3, class_mean_radius=2.0, within_class_std=0.8)
    rng = SeededRng(26).child("datagen")
    feats, labels = [], []
    means = np.array([[2.0, 0.0, 0.0], [-2.0, 0.0, 0.0]])
    for j, n in enumerate(counts):
        feats.append(means[j] + rng.normal(size=(n, 3), std=0.8))
        labels.append(np.full(n, j, dtype=np.intp))
    return LabeledDataset(np.vstack(feats), np.concatenate(labels), counts,
                          profile, geom, seed=26)


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
        v = rng.normal(size=w.data.shape[0])
        hv_full = hvp(spec, w, full, loss, v)
        hv_mix = np.zeros_like(hv_full)
        for j, count in enumerate(ds.class_counts):
            sel = ds.labels == j
            hv_mix += (count / n) * hvp(spec, w, Batch(ds.features[sel], ds.labels[sel]), loss, v)
        assert np.max(np.abs(hv_full - hv_mix)) < 1e-10


def test_single_class_dataset_report_matches_full():
    profile = ImbalanceProfile("longtail", 2, 20, 20.0)
    geom = ClassGeometry(input_dim=3)
    feats = SeededRng(31).normal(size=(20, 3))
    ds = LabeledDataset(feats, np.zeros(20, dtype=np.intp), (20, 0), profile, geom)
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


def test_lanczos_probe_determinism():
    a = random_symmetric(30, 34)
    op = HvpOracle.from_matrix(a)
    r1 = lanczos(op, 30, SeededRng(35).child("p"))
    r2 = lanczos(op, 30, SeededRng(35).child("p"))
    assert np.array_equal(r1.alphas, r2.alphas)
    assert np.array_equal(r1.betas, r2.betas)
