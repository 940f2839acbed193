"""Acceptance suite: one test per acceptance criterion, each printing a
pass/fail line (run with `pytest tests/test_acceptance.py -v -s`).

Criterion 7's curvature-ratio clause (7b) is implemented exactly as stated
and fails at desk scale. Under SAM both tail-class extremes shrink along with
the tail class's training loss: per seed lambda_min moves 6-45x toward zero,
as the escape story predicts (7a prints it, and criterion 8 asserts its
direction over rho), while lambda_max falls 12-50x. lambda_max falls faster
in 4 of 5 seeds, so |lambda_min/lambda_max| rises under SAM there (seed 1:
0.171 -> 0.219) instead of falling. ROADMAP.md records the measurements;
every other criterion passes.
"""

import dataclasses
import time

import numpy as np
import pytest

from saddlelab.datagen import ClassGeometry, ImbalanceProfile, generate
from saddlelab.harness import (
    DatasetConfig,
    ExperimentConfig,
    LossConfig,
    run_experiment,
    sweep_rho,
)
from saddlelab.linalg import SeededRng, csv_cell
from saddlelab.losses import LossSpec, drw_weights, ldam_margins, loss_on_logits, ReweightSchedule
from saddlelab.model import (
    Batch,
    Linearization,
    MlpSpec,
    hvp,
    init_params,
    loss_grad,
    per_class_batch,
)
from saddlelab.optim import LrSchedule, OptimizerConfig, sam_gradients
from saddlelab.spectral import (
    SpectralSettings,
    extreme_eigs,
    lanczos,
    nonconvexity_ratio,
    ritz_decomposition,
    spectral_density,
)
from tests.test_cncverify import QuadraticSurrogate, projection_second_moment
from tests.test_spectral import operator


def report(num, ok, desc, elapsed=None, limit=None):
    status = "PASS" if ok else "FAIL"
    timing = ""
    if elapsed is not None:
        timing = f"  [{elapsed:.1f}s / limit {limit}s]"
    print(f"\n[criterion {num}] {status} - {desc}{timing}")


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_and_hvp_correctness():
    start = time.time()
    spec = MlpSpec((10, 24, 8, 4), "tanh")  # exactly 500 parameters
    w = init_params(spec, SeededRng(101).child("init"))
    assert w.shape[0] == 500
    rng = SeededRng(102)
    batch = Batch(rng.normal(size=(40, 10)), rng.generator.integers(0, 4, 40))
    loss = LossSpec(variant="ce", class_counts=(20, 10, 6, 4))

    _, grad = loss_grad(spec, w, batch, loss)
    h = 1e-5
    grad_ok = True
    for i in range(500):
        wp = w.copy()
        wp[i] += h
        wm = w.copy()
        wm[i] -= h
        vp, _ = loss_grad(spec, wp, batch, loss)
        vm, _ = loss_grad(spec, wm, batch, loss)
        fd = (vp - vm) / (2 * h)
        if abs(fd - grad[i]) > 1e-6 * max(abs(grad[i]), 1e-8):
            grad_ok = False

    v = rng.normal(size=500)
    hv = hvp(spec, w, batch, loss, v)
    h2 = 1e-4
    _, gp = loss_grad(spec, w + h2 * v, batch, loss)
    _, gm = loss_grad(spec, w - h2 * v, batch, loss)
    fd_hv = (gp - gm) / (2 * h2)
    hvp_rel = float(np.linalg.norm(fd_hv - hv) / np.linalg.norm(hv))

    sym_ok = True
    for _ in range(5):
        u1 = rng.normal(size=500)
        u2 = rng.normal(size=500)
        if abs(u1 @ hvp(spec, w, batch, loss, u2)
               - u2 @ hvp(spec, w, batch, loss, u1)) > 1e-10:
            sym_ok = False

    elapsed = time.time() - start
    ok = grad_ok and hvp_rel < 1e-4 and sym_ok and elapsed < 10
    report(1, ok, f"gradient FD rel err < 1e-6, HVP rel err {hvp_rel:.2e} < 1e-4, "
                  f"symmetry < 1e-10 on a 500-parameter tanh MLP", elapsed, 10)
    assert grad_ok
    assert hvp_rel < 1e-4
    assert sym_ok
    assert elapsed < 10


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_lanczos_fidelity():
    start = time.time()
    worst = 0.0
    for dim, seed in ((60, 1), (128, 2), (200, 3)):
        rng = SeededRng(seed)
        a = rng.normal(size=(dim, dim))
        a = (a + a.T) / 2
        run = lanczos(operator(a), dim, SeededRng(seed).child("probe"))
        vals, _, _ = ritz_decomposition(run)
        dense = np.linalg.eigvalsh(a)
        worst = max(worst, float(np.max(np.abs(np.sort(vals) - dense))))

    masses = []
    for dim, seed in ((80, 4), (150, 5)):
        rng = SeededRng(seed)
        a = rng.normal(size=(dim, dim))
        a = (a + a.T) / 2
        sd = spectral_density(operator(a),
                              SpectralSettings(lanczos_iters=min(80, dim), num_probes=10),
                              SeededRng(seed).child("density"))
        masses.append(float(np.trapezoid(sd.density, sd.grid)))
    mass_ok = all(abs(m - 1.0) <= 0.02 for m in masses)

    elapsed = time.time() - start
    ok = worst < 1e-8 and mass_ok and elapsed < 30
    report(2, ok, f"full-iteration Lanczos spectrum err {worst:.2e} < 1e-8; "
                  f"density masses {[round(m, 4) for m in masses]} within 1 +- 0.02",
           elapsed, 30)
    assert worst < 1e-8
    assert mass_ok
    assert elapsed < 30


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_theorem1_exact_on_quadratics():
    start = time.time()
    rng = SeededRng(31)
    q = np.linalg.qr(rng.normal(size=(12, 12)))[0]
    eigs = np.linspace(-1.0, 3.0, 12)
    a = q @ np.diag(eigs) @ q.T
    lam_min = float(eigs[0])
    v_min = q[:, 0] / np.linalg.norm(q[:, 0])
    w = rng.normal(size=12)

    # noise disabled: the expansion is exact for quadratics, ratio to machine precision
    quad = QuadraticSurrogate(a)
    fn = quad.grad_fn_for_noise(np.zeros(12))
    _, g = fn(w)
    base = float(v_min @ g) ** 2
    exact_ok = True
    for rho in (0.0, 0.25, 0.5):
        g_sam = sam_gradients(fn, w, rho, normalized=False)[3]
        measured = float(v_min @ g_sam) ** 2 / base
        predicted = (1.0 + rho * lam_min) ** 2
        if abs(measured - predicted) > 1e-12 * max(predicted, 1.0):
            exact_ok = False

    # isotropic gradient noise, independent draw sets: within 3 MC standard errors
    noisy = QuadraticSurrogate(a, noise_std=0.5)
    noise_rng = SeededRng(32).child("noise")
    mc_ok = True
    details = []
    for rho in (0.0, 0.25, 0.5):
        plain = [noisy.grad_fn_for_noise(noisy.draw_noise(noise_rng))(w)[1]
                 for _ in range(4000)]
        perturbed = [sam_gradients(noisy.grad_fn_for_noise(noisy.draw_noise(noise_rng)),
                                   w, rho, normalized=False)[3]
                     for _ in range(4000)]
        gamma, g_se = projection_second_moment(plain, v_min)
        moment, m_se = projection_second_moment(perturbed, v_min)
        measured = moment / gamma
        predicted = (1.0 + rho * lam_min) ** 2
        se_ratio = measured * np.sqrt((m_se / moment) ** 2 + (g_se / gamma) ** 2)
        details.append(f"rho={rho}: {measured:.4f} vs {predicted:.4f} (3se={3 * se_ratio:.4f})")
        if abs(measured - predicted) > 3 * se_ratio:
            mc_ok = False

    elapsed = time.time() - start
    ok = exact_ok and mc_ok and elapsed < 60
    report(3, ok, "amplification ratio equals (1+rho*lambda_min)^2 exactly without "
                  f"noise and within 3 MC standard errors with noise ({'; '.join(details)})",
           elapsed, 60)
    assert exact_ok
    assert mc_ok
    assert elapsed < 60


# ---------------------------------------------------------------- criterion 4

def _degeneracy_config(out_dir, kind, **opt_kwargs):
    return ExperimentConfig(
        dataset=DatasetConfig(kind="longtail", num_classes=2, n_max=60, beta=6.0,
                              input_dim=4, class_mean_radius=2.0,
                              within_class_std=1.0, test_per_class=25),
        model=MlpSpec((4, 6, 2)),
        loss=LossConfig(variant="ce"),
        reweight=ReweightSchedule(16),
        optimizer=OptimizerConfig(kind=kind, **opt_kwargs),
        lr=LrSchedule(base_lr=0.1),
        epochs=22,
        batch_size=16,
        seed=7,
        output_dir=str(out_dir),
    )


def test_criterion_4_degeneracy_identities(tmp_path):
    start = time.time()
    base = run_experiment(_degeneracy_config(tmp_path / "sgd", "sgd"), tmp_path / "sgd")
    ok = True
    for kind, kwargs in (("sam", {"rho": 0.0}),
                         ("pgd", {"pgd_sigma": 0.0}),
                         ("lpfsgd", {"lpf_radius": 0.0})):
        res = run_experiment(_degeneracy_config(tmp_path / kind, kind, **kwargs),
                             tmp_path / kind)
        if not np.array_equal(res.checkpoint.params, base.checkpoint.params):
            ok = False
        for a, b in zip(res.checkpoint.metrics, base.checkpoint.metrics):
            if list(map(csv_cell, a.csv_row()))[:-2] != list(map(csv_cell, b.csv_row()))[:-2]:
                ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    report(4, ok, "SAM(rho=0), PGD(sigma=0), LPF-SGD(radius=0) trajectories "
                  "bitwise-identical to SGD over 22 epochs", elapsed, 60)
    assert ok


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_loss_algebra():
    rng = SeededRng(51)
    logits = rng.normal(size=(50, 4)) * 3.0
    labels = rng.generator.integers(0, 4, 50)
    counts = (200, 80, 30, 8)

    ce = LossSpec(variant="ce", class_counts=counts)
    ldam0 = LossSpec(variant="ldam", class_counts=counts, ldam_max_margin=0.0)
    vs0 = LossSpec(variant="vs", class_counts=counts, vs_gamma=0.0, vs_tau=0.0)
    v_ce, g_ce = loss_on_logits(ce, logits, labels)
    v_ldam, g_ldam = loss_on_logits(ldam0, logits, labels)
    v_vs, g_vs = loss_on_logits(vs0, logits, labels)
    ldam_ok = abs(v_ce - v_ldam) < 1e-12 and np.max(np.abs(g_ce - g_ldam)) < 1e-12
    vs_ok = abs(v_ce - v_vs) < 1e-12 and np.max(np.abs(g_ce - g_vs)) < 1e-12

    sched, counts = ReweightSchedule(threshold_epoch=5), (100, 10, 1)
    drw_ok = (np.array_equal(drw_weights(sched, counts, 4), [1.0, 1.0, 1.0])
              and np.array_equal(drw_weights(sched, counts, 5), [1 / 100, 1 / 10, 1.0]))

    margins = ldam_margins(LossSpec(variant="ldam", class_counts=(5000, 50), ldam_max_margin=0.5))
    margin_ok = (abs(margins[0] - 0.158114) < 1e-6 and margins[1] == 0.5)

    ok = ldam_ok and vs_ok and drw_ok and margin_ok
    report(5, ok, "margin-free LDAM == CE and identity-adjusted VS == CE to 1e-12; "
                  "deferred weights match the 1/(1+(n-1)*indicator) substitution; "
                  f"margins for (5000, 50) = ({margins[0]:.6f}, {margins[1]})")
    assert ldam_ok
    assert vs_ok
    assert drw_ok
    assert margin_ok


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_hessian_decomposition():
    profile = ImbalanceProfile("longtail", 4, 80, 8.0)
    geom = ClassGeometry(input_dim=5, class_mean_radius=2.0, within_class_std=1.0)
    ds = generate(profile, geom, SeededRng(61).child("datagen"))
    spec = MlpSpec((5, 10, 4), "tanh")
    w = init_params(spec, SeededRng(62).child("init"))
    loss = LossSpec(variant="ce", class_counts=ds.class_counts)
    full = Batch(ds.features, ds.labels)
    n = len(ds)
    rng = SeededRng(63)
    worst = 0.0
    for _ in range(5):
        v = rng.normal(size=w.shape[0])
        hv_full = hvp(spec, w, full, loss, v)
        hv_mix = np.zeros_like(hv_full)
        for j, count in enumerate(ds.class_counts):
            hv_mix += (count / n) * hvp(spec, w, per_class_batch(ds, j), loss, v)
        worst = max(worst, float(np.max(np.abs(hv_full - hv_mix))))
    ok = worst < 1e-10
    report(6, ok, f"full-dataset HVP equals count-weighted class HVP mixture "
                  f"(max abs dev {worst:.2e} < 1e-10)")
    assert ok


# ------------------------------------------------------- criteria 7 and 8

TREND_SEEDS = (1, 2, 3, 4, 5)


def _trend_config(out_dir, kind, seed, rho=0.0, rho_drw=0.0):
    """2-class long-tail (beta=50) Gaussians, small tanh MLP, DRW at 0.8*E."""
    return ExperimentConfig(
        dataset=DatasetConfig(kind="longtail", num_classes=2, n_max=500, beta=50.0,
                              input_dim=6, class_mean_radius=2.0,
                              within_class_std=1.0, test_per_class=200),
        model=MlpSpec((6, 12, 2), "tanh"),
        loss=LossConfig(variant="ce"),
        reweight=ReweightSchedule(32),
        optimizer=OptimizerConfig(kind=kind, rho=rho, rho_drw=rho_drw,
                                  sam_normalized=True),
        lr=LrSchedule(base_lr=0.1, milestones=((32, 0.1),)),
        epochs=40,
        batch_size=64,
        seed=seed,
        output_dir=str(out_dir),
    )


def _tail_extremes(cfg, result):
    ce = LossSpec(variant="ce", class_counts=result.dataset.class_counts)
    lin = Linearization(cfg.model, result.checkpoint.params, per_class_batch(result.dataset, 1),
                        ce)
    return extreme_eigs(lin, SpectralSettings(lanczos_iters=60, residual_tol=1e-7),
                        SeededRng(cfg.seed).child("accept7"))


def _run_trend_pairs(tmp_path):
    rows = []
    for seed in TREND_SEEDS:
        cfg_sgd = _trend_config(tmp_path / f"sgd{seed}", "sgd", seed)
        cfg_sam = _trend_config(tmp_path / f"sam{seed}", "sam", seed,
                                rho=0.05, rho_drw=0.8)
        r_sgd = run_experiment(cfg_sgd, tmp_path / f"sgd{seed}")
        r_sam = run_experiment(cfg_sam, tmp_path / f"sam{seed}")
        ex_sgd = _tail_extremes(cfg_sgd, r_sgd)
        ex_sam = _tail_extremes(cfg_sam, r_sam)
        rows.append({
            "seed": seed,
            "sgd_ratio": nonconvexity_ratio(ex_sgd),
            "sam_ratio": nonconvexity_ratio(ex_sam),
            "sgd_lmin": ex_sgd.lambda_min,
            "sam_lmin": ex_sam.lambda_min,
            "sgd_tail_acc": r_sgd.checkpoint.metrics[-1].tail_acc,
            "sam_tail_acc": r_sam.checkpoint.metrics[-1].tail_acc,
        })
    return rows


@pytest.fixture(scope="module")
def trend_rows(tmp_path_factory):
    start = time.time()
    rows = _run_trend_pairs(tmp_path_factory.mktemp("trend"))
    elapsed = time.time() - start
    for row in rows:
        print(f"  seed {row['seed']}: ratio {row['sgd_ratio']:.4f} -> {row['sam_ratio']:.4f}, "
              f"lambda_min {row['sgd_lmin']:.4f} -> {row['sam_lmin']:.4f}, "
              f"tail acc {row['sgd_tail_acc']:.3f} -> {row['sam_tail_acc']:.3f}")
    print(f"  (trend runs took {elapsed:.1f}s of the 600s budget)")
    assert elapsed < 600
    return rows


def test_criterion_7_tail_accuracy_trend(trend_rows):
    acc_wins = sum(r["sam_tail_acc"] > r["sgd_tail_acc"] for r in trend_rows)
    lmin_wins = sum(r["sam_lmin"] > r["sgd_lmin"] for r in trend_rows)
    ok = acc_wins >= 4
    report("7a", ok, f"DRW+SAM tail accuracy beats DRW+SGD in {acc_wins}/5 seeds "
                     f"(supporting escape signal: lambda_min closer to 0 in {lmin_wins}/5)")
    assert ok


def test_criterion_7_curvature_ratio_trend(trend_rows):
    """Expected to fail at desk scale: under SAM lambda_max falls 12-50x while
    lambda_min moves 6-45x toward zero, faster in 4 of 5 seeds, so the ratio
    rises there (seed 1: 0.171 -> 0.219). ROADMAP.md records the per-seed
    measurements."""
    ratio_wins = sum(r["sam_ratio"] < r["sgd_ratio"] for r in trend_rows)
    ok = ratio_wins >= 4
    report("7b", ok, f"tail |lambda_min/lambda_max| lower under SAM in {ratio_wins}/5 seeds "
                     f"(needs >= 4; known desk-scale limitation if this fails)")
    assert ok, (
        f"tail curvature-ratio trend holds in only {ratio_wins}/5 seeds; "
        "lambda_min itself moves toward zero as predicted (see 7a output), but "
        "lambda_max falls faster under SAM in most seeds, so the ratio rises; "
        "documented as a known limitation"
    )


def test_criterion_8_rho_monotonicity(tmp_path):
    start = time.time()
    rhos = [0.05, 0.2, 0.5]
    per_rho = {r: [] for r in rhos}
    for seed in TREND_SEEDS:
        cfg = _trend_config(tmp_path / f"sweep{seed}", "sam", seed,
                            rho=0.05, rho_drw=0.05)
        rows = sweep_rho(cfg, rhos, out_dir=tmp_path / f"sweep{seed}" / "out")
        for row in rows:
            assert row.error is None
            per_rho[row.rho].append(row.tail_lambda_min)
    medians = [float(np.median(per_rho[r])) for r in rhos]
    monotone = all(medians[i] <= medians[i + 1] for i in range(len(medians) - 1))
    elapsed = time.time() - start
    ok = monotone and elapsed < 900
    report(8, ok, f"median final tail lambda_min over seeds {list(TREND_SEEDS)}: "
                  f"{[round(m, 4) for m in medians]} non-decreasing over rho {rhos}",
           elapsed, 900)
    assert monotone
    assert elapsed < 900


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_reproducibility(tmp_path):
    start = time.time()
    cfg = _trend_config(tmp_path / "a", "sam", seed=3, rho=0.05, rho_drw=0.5)
    cfg = dataclasses.replace(cfg, epochs=20, reweight=ReweightSchedule(16),
                              spectrum_epochs=(10,),
                              spectral=SpectralSettings(lanczos_iters=6, num_probes=1))
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "b")
    bytes_equal = (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "b" / "metrics.csv").read_bytes()

    resumed = run_experiment(cfg, out_dir=tmp_path / "resumed",
                             resume_from=tmp_path / "a" / "checkpoint_10.json")
    full = run_experiment(cfg, out_dir=tmp_path / "full")
    resume_equal = np.array_equal(resumed.checkpoint.params, full.checkpoint.params)

    elapsed = time.time() - start
    ok = bytes_equal and resume_equal
    report(9, ok, "rerun reproduces metrics.csv byte-for-byte; checkpoint resume "
                  "rejoins the uninterrupted trajectory bitwise", elapsed, None)
    assert bytes_equal
    assert resume_equal
