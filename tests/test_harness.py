import dataclasses
import json
import os
import shutil
import signal
import subprocess
import sys
import tracemalloc
import typing
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from saddlelab import cncverify, harness, linalg, model
from saddlelab.cncverify import CncSettings, theorem1_report
from saddlelab.datagen import ClassGroups, balanced_test_split, generate
from saddlelab.errors import CheckpointError, ConfigError, RunAbortedError
from saddlelab.harness import (
    CHECKPOINT_FORMAT_VERSION,
    Checkpoint,
    DatasetConfig,
    ExperimentConfig,
    LossConfig,
    MetricsRecord,
    config_from_dict,
    config_hash,
    config_to_dict,
    evaluate,
    load_checkpoint,
    load_config,
    run_experiment,
    save_checkpoint,
    sweep_rho,
    tail_lambda_min,
)
from saddlelab.linalg import SeededRng, csv_cell
from saddlelab.losses import LossSpec, ReweightSchedule, loss_on_logits
from saddlelab.model import MlpSpec, forward, init_params, param_layout
from saddlelab.optim import LrSchedule, OptimizerConfig, RhoSchedule
from saddlelab.spectral import SpectralSettings


def csv_cells(record: MetricsRecord) -> list:
    """The record's metrics.csv cells, formatted as the file holds them."""
    return [csv_cell(v) for v in record.csv_row()]


def tiny_config(out_dir, kind="sgd", rho=0.0, epochs=12, seed=5, **opt_kwargs):
    return ExperimentConfig(
        dataset=DatasetConfig(kind="longtail", num_classes=2, n_max=60, beta=6.0,
                              input_dim=4, class_mean_radius=2.0,
                              within_class_std=1.0, test_per_class=25),
        model=MlpSpec((4, 6, 2)),
        loss=LossConfig(variant="ce"),
        reweight=ReweightSchedule(min(8, epochs)),
        optimizer=OptimizerConfig(kind=kind, rho=rho, **opt_kwargs),
        lr=LrSchedule(base_lr=0.1),
        epochs=epochs,
        batch_size=16,
        seed=seed,
        output_dir=str(out_dir),
    )


def test_zero_epochs_returns_init(tmp_path):
    cfg = tiny_config(tmp_path / "e0", epochs=0)
    result = run_experiment(cfg, tmp_path / "e0")
    assert result.metrics == []
    assert (tmp_path / "e0" / "metrics.csv").read_text().count("\n") == 1  # header only
    assert (tmp_path / "e0" / "checkpoint_0.json").exists()
    assert (tmp_path / "e0" / "summary.json").exists()


def test_metrics_file_byte_reproducible(tmp_path):
    # same config rerun into a different directory via the out_dir argument
    # (a different output_dir config field would change the config hash)
    cfg = tiny_config(tmp_path / "a")
    run_experiment(cfg, tmp_path / "a")
    run_experiment(cfg, tmp_path / "a2")
    assert (tmp_path / "a" / "metrics.csv").read_bytes() == \
        (tmp_path / "a2" / "metrics.csv").read_bytes()


def test_degenerate_optimizers_reproduce_sgd(tmp_path):
    base = tiny_config(tmp_path / "sgd", kind="sgd", epochs=20)
    results = {"sgd": run_experiment(base, tmp_path / "sgd")}
    for kind, kwargs in (("sam", {"rho": 0.0}),
                         ("pgd", {"pgd_sigma": 0.0}),
                         ("lpfsgd", {"lpf_radius": 0.0})):
        cfg = tiny_config(tmp_path / kind, kind=kind, epochs=20, **kwargs)
        results[kind] = run_experiment(cfg, tmp_path / kind)
    ref = results["sgd"].params
    for kind in ("sam", "pgd", "lpfsgd"):
        assert np.array_equal(results[kind].params, ref), kind
        # metric values identical; only the config-hash column may differ
        for a, b in zip(results[kind].metrics, results["sgd"].metrics):
            assert csv_cells(a)[:-2] == csv_cells(b)[:-2]


def _sample_checkpoint() -> Checkpoint:
    cfg = tiny_config("unused")
    layout, total = param_layout(cfg.model)
    rng = SeededRng(60)
    metrics = tuple(MetricsRecord(
        epoch=e, train_loss=rng.normal(), grad_norm=rng.normal(), lr=0.1, rho=0,
        overall_acc=rng.normal(), head_acc=rng.normal(), mid_acc=None, tail_acc=rng.normal(),
        per_class_acc=tuple(rng.normal(size=2)), per_class_loss=tuple(rng.normal(size=2)),
        config_hash=config_hash(cfg), code_version="test",
    ) for e in (1, 2, 3))
    return Checkpoint(
        format_version=CHECKPOINT_FORMAT_VERSION,
        config_hash=config_hash(cfg),
        config=cfg,
        epoch=3,
        metrics=metrics,
        params=rng.normal(size=total),
        velocity=rng.normal(size=total),
    )


def test_checkpoint_roundtrip_bitwise(tmp_path):
    ckpt = _sample_checkpoint()
    path = tmp_path / "ckpt.json"
    save_checkpoint(ckpt, path)
    loaded = load_checkpoint(path)
    assert np.array_equal(loaded.params, ckpt.params)
    assert np.array_equal(loaded.velocity, ckpt.velocity)
    assert loaded.epoch == 3
    assert loaded.config == ckpt.config
    assert loaded.metrics == ckpt.metrics
    assert [csv_cells(r) for r in loaded.metrics] == [csv_cells(r) for r in ckpt.metrics]


def test_checkpoint_rows_of_older_code_load(tmp_path):
    # a resume under newer code is legitimate; only a row's config_hash is checked
    path = tmp_path / "ckpt.json"
    save_checkpoint(_sample_checkpoint(), path)
    payload = json.loads(path.read_text())
    payload["metrics"][0]["code_version"] = "0.0.1"
    path.write_text(json.dumps(payload))
    assert load_checkpoint(path).metrics[0].code_version == "0.0.1"


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Checkpoint)])
def test_checkpoint_missing_field_is_named(tmp_path, name):
    path = tmp_path / "ckpt.json"
    save_checkpoint(_sample_checkpoint(), path)
    payload = json.loads(path.read_text())
    del payload[name]
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=name):
        load_checkpoint(path)


def test_checkpoint_truncated_file(tmp_path):
    cfg = tiny_config(tmp_path / "t", epochs=2)
    run_experiment(cfg, tmp_path / "t")
    path = tmp_path / "t" / "checkpoint_2.json"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_checkpoint_version_mismatch(tmp_path):
    cfg = tiny_config(tmp_path / "v", epochs=1)
    run_experiment(cfg, tmp_path / "v")
    path = tmp_path / "v" / "checkpoint_1.json"
    payload = json.loads(path.read_text())
    # format 1 also stored the optimizer's step count and random stream states,
    # and formats 1 and 2 stored no metrics rows
    del payload["metrics"]
    format_1 = dict(payload, format_version=1, step_count=12,
                    rng_states={"batches": {}, "optnoise": {}})
    for edited in (format_1, dict(payload, format_version=2),
                   dict(payload, format_version=999)):
        path.write_text(json.dumps(edited))
        with pytest.raises(CheckpointError, match="format_version"):
            load_checkpoint(path)


def test_resume_matches_uninterrupted_run(tmp_path):
    cfg = tiny_config(tmp_path / "full", kind="pgd", pgd_sigma=1e-3, epochs=20)
    # a spectrum snapshot at epoch 10 leaves the mid-run checkpoint to resume from
    cfg_with_snapshot = dataclasses.replace(cfg, spectrum_epochs=(10,),
                                            spectral=SpectralSettings(
                                                lanczos_iters=4, num_probes=1))
    snap_dir = tmp_path / "snap"
    run_experiment(cfg_with_snapshot, out_dir=snap_dir)
    resumed = run_experiment(cfg_with_snapshot, out_dir=tmp_path / "resumed",
                             resume_from=snap_dir / "checkpoint_10.json")
    uninterrupted = run_experiment(cfg_with_snapshot, out_dir=tmp_path / "uninterrupted")
    assert np.array_equal(resumed.params, uninterrupted.params)
    # the resumed metrics.csv carries the first 10 rows of the run it continues
    assert resumed.metrics == uninterrupted.metrics
    assert (tmp_path / "resumed" / "metrics.csv").read_bytes() == \
        (tmp_path / "uninterrupted" / "metrics.csv").read_bytes()


def _tree(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class _Crash(Exception):
    pass


# a CNC report every epoch leaves a checkpoint to resume from at each one
RESUME_CFG = dataclasses.replace(
    tiny_config("unused", kind="pgd", pgd_sigma=1e-3, epochs=6),
    spectrum_epochs=(0, 3), cnc_epochs=tuple(range(7)),
    spectral=SpectralSettings(lanczos_iters=4, num_probes=1, residual_tol=0.5),
    cnc=CncSettings(batch_size=8, num_batches=2),
)


@pytest.fixture(scope="module")
def uninterrupted_resume_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("resume") / "uninterrupted"
    run_experiment(RESUME_CFG, out_dir=out)
    return out


@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_resume_in_place_after_a_crash_reproduces_the_run(
        tmp_path, monkeypatch, uninterrupted_resume_run, data):
    from saddlelab import harness
    epochs = RESUME_CFG.epochs
    crash = data.draw(st.integers(0, epochs), label="epochs done at the crash")
    resume = data.draw(st.integers(0, crash), label="checkpoint epoch resumed")
    out = tmp_path / f"run_{crash}_{resume}"
    shutil.rmtree(out, ignore_errors=True)
    if crash < epochs:
        # the evaluation of epoch crash + 1 dies: rows and snapshots stop at crash
        calls = iter(range(crash))
        real = harness.evaluate

        def dying(*args):
            if next(calls, None) is None:
                raise _Crash
            return real(*args)

        with monkeypatch.context() as m:
            m.setattr(harness, "evaluate", dying)
            with pytest.raises(_Crash):
                run_experiment(RESUME_CFG, out_dir=out)
    else:
        run_experiment(RESUME_CFG, out_dir=out)
    run_experiment(RESUME_CFG, out_dir=out, resume_from=out / f"checkpoint_{resume}.json")
    assert _tree(out) == _tree(uninterrupted_resume_run)


def test_resume_from_the_final_checkpoint_copies_it_into_the_new_directory(tmp_path):
    cfg = tiny_config(tmp_path / "done", epochs=3)
    source = tmp_path / "done"
    run_experiment(cfg, source)
    copy = tmp_path / "copy"
    run_experiment(cfg, out_dir=copy, resume_from=source / "checkpoint_3.json")
    assert (copy / "checkpoint_3.json").read_bytes() == \
        (source / "checkpoint_3.json").read_bytes()
    assert (copy / "metrics.csv").read_bytes() == (source / "metrics.csv").read_bytes()
    summary = json.loads((copy / "summary.json").read_text())
    assert summary["artifacts"] == ["checkpoint_3.json", "metrics.csv"]
    assert sorted(p.name for p in copy.iterdir()) == \
        ["checkpoint_3.json", "metrics.csv", "summary.json"]


def test_resume_from_a_lone_checkpoint_matches_the_run(tmp_path):
    # the checkpoint carries its run's metrics rows: a resume reads no other file
    cfg = dataclasses.replace(tiny_config(tmp_path / "h", epochs=4), cnc_epochs=(2,),
                              cnc=CncSettings(batch_size=8, num_batches=2))
    uninterrupted = run_experiment(cfg, tmp_path / "h")
    lone = tmp_path / "lone"
    lone.mkdir()
    shutil.copy(tmp_path / "h" / "checkpoint_2.json", lone)
    resumed = run_experiment(cfg, out_dir=tmp_path / "resumed",
                             resume_from=lone / "checkpoint_2.json")
    assert (tmp_path / "resumed" / "metrics.csv").read_bytes() == \
        (tmp_path / "h" / "metrics.csv").read_bytes()
    assert np.array_equal(resumed.params, uninterrupted.params)
    assert [p.name for p in lone.iterdir()] == ["checkpoint_2.json"]


def test_a_resume_killed_in_its_first_step_keeps_the_checkpoint_rows(tmp_path):
    # metrics.csv is replaced whole before training, not truncated and refilled
    cfg = dataclasses.replace(tiny_config(tmp_path / "run", epochs=4), cnc_epochs=(2,),
                              cnc=CncSettings(batch_size=8, num_batches=2))
    out = tmp_path / "run"
    run_experiment(cfg, out)
    rows = (out / "metrics.csv").read_text().splitlines(keepends=True)
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    script = ("import os, signal, sys\n"
              "from saddlelab import harness\n"
              "harness.optimizer_step = lambda *a: os.kill(os.getpid(), signal.SIGKILL)\n"
              "harness.run_experiment(harness.load_config(sys.argv[1]), sys.argv[3], "
              "resume_from=sys.argv[2])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-c", script, str(cfg_path),
                           str(out / "checkpoint_2.json"), str(out)], env=env, timeout=120)
    assert proc.returncode == -signal.SIGKILL
    assert (out / "metrics.csv").read_text() == "".join(rows[:3])  # header, epochs 1-2


def test_resume_rejects_other_config(tmp_path):
    cfg = tiny_config(tmp_path / "r1", epochs=4)
    cfg = dataclasses.replace(cfg, spectrum_epochs=(2,),
                              spectral=SpectralSettings(lanczos_iters=4, num_probes=1))
    run_experiment(cfg, tmp_path / "r1")
    other = tiny_config(tmp_path / "r2", epochs=4, seed=99)
    with pytest.raises(CheckpointError):
        run_experiment(other, tmp_path / "r2",
                       resume_from=tmp_path / "r1" / "checkpoint_2.json")


def _evaluation_fixtures(radius, std, per_class, num_classes=2, seed=70):
    cfg = DatasetConfig(kind="longtail", num_classes=num_classes, n_max=40,
                        beta=4.0, input_dim=4 if num_classes <= 4 else num_classes,
                        class_mean_radius=radius,
                        within_class_std=std, test_per_class=per_class,
                        mean_placement="circle" if num_classes <= 4 else "simplex")
    root = SeededRng(seed)
    ds = generate(cfg.profile(), cfg.geometry(), root.child("datagen"))
    test = balanced_test_split(ds, per_class, root.child("testgen"))
    return ds, test


def test_evaluate_perfect_classifier():
    ds, test = _evaluation_fixtures(radius=5.0, std=0.2, per_class=50)
    spec = MlpSpec((4, 2), bias=False)
    _, total = param_layout(spec)
    w = np.zeros(total)
    # W0's rows, the vector's only block, are the class means: argmax of
    # <mean_j, x> is the nearest antipodal mean
    w[:] = [5.0, 0.0, 0.0, 0.0, -5.0, 0.0, 0.0, 0.0]
    groups = ClassGroups(head=(0,), mid=(), tail=(1,))
    out = evaluate(spec, w, test, groups, LossSpec(variant="ce", class_counts=ds.class_counts))
    assert out["per_class_acc"] == (1.0, 1.0)
    assert out["overall_acc"] == 1.0
    assert out["head_acc"] == 1.0 and out["tail_acc"] == 1.0


def test_evaluate_constant_classifier():
    ds, test = _evaluation_fixtures(radius=2.0, std=1.0, per_class=30)
    spec = MlpSpec((4, 2), bias=True)
    _, total = param_layout(spec)
    w = np.zeros(total)
    w[-2:] = [1.0, 0.0]  # the output bias b0, last: always predicts class 0
    groups = ClassGroups(head=(0,), mid=(), tail=(1,))
    out = evaluate(spec, w, test, groups, LossSpec(variant="ce", class_counts=ds.class_counts))
    assert out["overall_acc"] == pytest.approx(0.5)
    assert out["mid_acc"] is None


def test_evaluate_random_logits_near_chance():
    ds, test = _evaluation_fixtures(radius=1e-6, std=1.0, per_class=1000,
                                    num_classes=10)
    spec = MlpSpec((10, 10), bias=False)
    _, total = param_layout(spec)
    w = SeededRng(71).normal(size=total)
    groups = ClassGroups(head=tuple(range(10)), mid=(), tail=())
    out = evaluate(spec, w, test, groups,
                   LossSpec(variant="ce", class_counts=ds.class_counts))
    sigma = np.sqrt(0.1 * 0.9 / 10_000)
    assert abs(out["overall_acc"] - 0.1) <= 3 * sigma


def test_evaluate_equals_one_pass_over_interleaved_classes():
    ds, test = _evaluation_fixtures(radius=2.0, std=1.0, per_class=40, num_classes=5)
    order = SeededRng(72).permutation(len(test))  # classes interleave
    test = dataclasses.replace(test, features=test.features[order], labels=test.labels[order])
    assert len(set(test.labels[:10])) > 1
    spec = MlpSpec((5, 12, 8, 5))
    w = init_params(spec, SeededRng(73).child("init"))
    groups = ClassGroups(head=(0, 1), mid=(2,), tail=(3, 4))
    # the class weights must not enter the per-class losses
    loss = LossSpec(variant="ldam", class_counts=ds.class_counts,
                    class_weights=(1.0, 2.0, 3.0, 4.0, 5.0))

    logits = forward(spec, w, test.features)
    accs, losses = [], []
    for j in range(test.num_classes):
        sel = test.labels == j
        accs.append(float(np.mean(np.argmax(logits[sel], axis=1) == j)))
        losses.append(loss_on_logits(loss.with_class_weights(None),
                                      logits[sel], test.labels[sel])[0])
    assert evaluate(spec, w, test, groups, loss) == {
        "per_class_acc": tuple(accs),
        "per_class_loss": tuple(losses),
        "overall_acc": float(np.mean(accs)),
        "head_acc": float(np.mean(accs[:2])),
        "mid_acc": accs[2],
        "tail_acc": float(np.mean(accs[3:])),
    }


def test_evaluate_keeps_one_class_of_activations_alive():
    ds, test = _evaluation_fixtures(radius=2.0, std=1.0, per_class=1000, num_classes=10)
    spec = MlpSpec((10, 64, 64, 10))
    w = init_params(spec, SeededRng(74).child("init"))
    groups = ClassGroups(head=tuple(range(10)), mid=(), tail=())
    loss = LossSpec(variant="ce", class_counts=ds.class_counts)
    # one pass over the whole set keeps each hidden layer's pre-activation
    # and value, and the logits
    hidden = spec.layer_sizes[1:-1]
    activation_bytes = len(test) * (2 * sum(hidden) + spec.layer_sizes[-1]) * 8
    tracemalloc.start()
    try:
        evaluate(spec, w, test, groups, loss)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < activation_bytes / 4


def test_evaluate_runs_on_one_blas_thread(blas_readings, fake_blas):
    ds, test = _evaluation_fixtures(radius=2.0, std=1.0, per_class=20, num_classes=3)
    spec = MlpSpec((4, 8, 3))
    w = init_params(spec, SeededRng(75).child("init"))
    readings = blas_readings(harness, "forward", "loss_on_logits")
    evaluate(spec, w, test, ClassGroups(head=(0,), mid=(1,), tail=(2,)),
             LossSpec(variant="ce", class_counts=ds.class_counts))
    assert readings == [1] * 2 * test.num_classes
    assert fake_blas.count == 4


# trained with these overrides, quickstart's metrics.csv and checkpoint_1.json
# differed between 1 and 2 BLAS threads while evaluate scored each class's
# loss on the thread count the process started with; at 5,000 test rows per
# class they did not
THREADS_OVERRIDES = {"epochs": 1, "spectrum_epochs": [], "cnc_epochs": [],
                     "reweight": {"threshold_epoch": 1},
                     "lr": {"base_lr": 0.1, "warmup_epochs": 0, "milestones": [[1, 0.1]]}}


def test_train_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    if linalg._openblas() is None:
        pytest.skip("numpy is not linked against OpenBLAS")
    cfg = json.loads((REPO / "configs" / "quickstart.json").read_text(encoding="utf-8"))
    cfg.update(THREADS_OVERRIDES)
    cfg["dataset"]["test_per_class"] = 20_000
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
        out = tmp_path / f"threads{threads}"
        proc = subprocess.run([sys.executable, "-m", "saddlelab.cli", "train", "--config",
                               str(cfg_path), "--out", str(out)],
                              capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes()
                        for name in ("metrics.csv", "checkpoint_1.json")])
    assert outputs[0] == outputs[1]


def test_tail_lambda_min_runs_on_one_blas_thread(tmp_path, blas_readings, fake_blas):
    # the 10-row class is the tail
    cfg = dataclasses.replace(tiny_config(tmp_path / "run", epochs=1),
                              groups=harness.GroupThresholds(hi=30, lo=30))
    result = run_experiment(cfg, tmp_path / "run")
    readings = blas_readings(model, "hvp")
    assert result.groups.tail == (1,) and tail_lambda_min(cfg, result) is not None
    assert readings and readings == [1] * len(readings)
    assert fake_blas.count == 4


def test_a_run_runs_on_one_blas_thread(tmp_path, blas_readings, fake_blas):
    cfg = dataclasses.replace(tiny_config(tmp_path / "run", kind="sam", rho=0.1, epochs=2),
                              spectrum_epochs=(2,), cnc_epochs=(2,),
                              spectral=SpectralSettings(lanczos_iters=6, num_probes=2),
                              cnc=CncSettings(num_batches=2))
    # training, evaluation, spectra and the CNC report
    readings = blas_readings(harness, "loss_grad", "loss_on_logits")
    blas_readings(model, "hvp")
    blas_readings(cncverify, "loss_grad")
    run_experiment(cfg, tmp_path / "run")
    assert readings and readings == [1] * len(readings)
    assert fake_blas.count == 4


def test_config_json_roundtrip(tmp_path):
    cfg = tiny_config(tmp_path / "x", kind="sam", rho=0.3, sam_normalized=False)
    d = config_to_dict(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    loaded = load_config(path)
    assert config_hash(loaded) == config_hash(cfg)
    assert loaded == cfg


def test_unknown_config_keys_rejected(tmp_path):
    cfg = tiny_config(tmp_path / "x")
    d = config_to_dict(cfg)
    d["surprise"] = 1
    with pytest.raises(ConfigError):
        config_from_dict(d)
    d.pop("surprise")
    d["optimizer"]["jitter"] = 2
    with pytest.raises(ConfigError):
        config_from_dict(d)


def test_missing_required_key_rejected(tmp_path):
    cfg = tiny_config(tmp_path / "x")
    d = config_to_dict(cfg)
    d.pop("seed")
    with pytest.raises(ConfigError):
        config_from_dict(d)


@pytest.mark.parametrize("edit", [
    lambda d: d["cnc"].update(mode="sideways"),
    lambda d: d["cnc"].update(num_batches=1),
    lambda d: d["cnc"].update(rhos=[]),
    lambda d: d["dataset"].update(kind="foo"),
    lambda d: (d["dataset"].update(input_dim=1), d["model"].update(layer_sizes=[1, 6, 2])),
    lambda d: (d["dataset"].update(num_classes=10, n_max=5, beta=100.0),
               d["model"].update(layer_sizes=[4, 6, 10])),
    lambda d: d["loss"].update(variant="hinge"),
    lambda d: d["spectral"].update(residual_tol=0),
    lambda d: d["model"].update(layer_sizes=[5, 6, 2]),
    lambda d: d.update(lr={}),
    lambda d: d.update(reweight={}),
    lambda d: d["optimizer"].update(rho=float("nan")),
    lambda d: d["lr"].update(base_lr=float("inf")),
    lambda d: d["cnc"].update(rhos=[0.1, float("-inf")]),
    lambda d: d.update(epochs=12.5),
    lambda d: d.update(batch_size=64.5),
    lambda d: d.update(spectrum_epochs=[1.5]),
    lambda d: d["model"].update(layer_sizes=[4, 12.5, 2]),
    lambda d: d["reweight"].update(threshold_epoch=2.0),
    lambda d: d.update(seed=True),
    lambda d: d.update(epochs=-1),
    lambda d: d.update(batch_size=0),
    lambda d: d["reweight"].update(threshold_epoch=d["epochs"] + 1),
    lambda d: d.update(spectrum_epochs=[d["epochs"] + 1]),
    lambda d: d["dataset"].update(test_per_class=0),
    lambda d: d.update(lr=5),
    lambda d: d["optimizer"].update(kind="adam"),
    lambda d: d["optimizer"].update(pgd_sigma=-1.0),
    lambda d: d["optimizer"].update(lpf_radius=-1.0),
    lambda d: d["lr"].update(milestones=[[1]]),
    lambda d: d["lr"].update(milestones=[5]),
    lambda d: d["lr"].update(milestones=[[1.5, 0.1]]),
    lambda d: d["lr"].update(milestones=[[True, 0.1]]),
    lambda d: d["rho_schedule"].update(steps=[[1]]),
    lambda d: d["rho_schedule"].update(steps=[5]),
    lambda d: d["rho_schedule"].update(steps=[[1.5, 0.1]]),
    lambda d: d["rho_schedule"].update(steps=[[True, 0.1]]),
    lambda d: d["optimizer"].update(sam_normalized="false"),
    lambda d: d["optimizer"].update(sam_normalized=0),
    lambda d: d["model"].update(bias="no"),
    lambda d: d["groups"].update(hi="x"),
    lambda d: d["groups"].update(hi=True),
    lambda d: d["lr"].update(base_lr=True),
    lambda d: d["dataset"].update(beta=True),
    lambda d: d.update(output_dir=5),
    lambda d: d["cnc"].update(rhos=[True]),
    lambda d: d["dataset"].update(n_max=10**400),
    lambda d: d["dataset"].update(beta=10**400),
    lambda d: d["dataset"].update(num_classes=1),
    lambda d: d["dataset"].update(n_max=0),
    lambda d: d["dataset"].update(input_dim=0),
    lambda d: d["dataset"].update(mean_placement="sphere"),
    lambda d: d["model"].update(layer_sizes=[6]),
    lambda d: d["model"].update(layer_sizes=[6, 0, 2]),
    lambda d: d["model"].update(activation="gelu"),
    lambda d: d["lr"].update(base_lr=-0.1),
    lambda d: d["lr"].update(warmup_epochs=-1),
    lambda d: d["lr"].update(milestones=[[1, 0.0]]),
    lambda d: d["rho_schedule"].update(steps=[[0, -0.1]]),
    lambda d: d["spectral"].update(lanczos_iters=1),
    lambda d: d["spectral"].update(num_probes=0),
    lambda d: d["spectral"].update(broadening_sigma2=0.0),
    lambda d: d["cnc"].update(batch_size=0),
    lambda d: d["loss"].update(ldam_max_margin=-0.5),
    lambda d: d["reweight"].update(threshold_epoch=-1),
], ids=["cnc-mode", "cnc-num-batches", "cnc-empty-rhos", "dataset-kind",
        "circle-in-1d", "infeasible-profile", "loss-variant", "residual-tol",
        "model-dataset-mismatch", "lr-empty", "reweight-empty", "nan-rho",
        "infinite-lr", "infinite-cnc-rho", "float-epochs", "float-batch-size",
        "float-spectrum-epoch", "float-layer-size", "float-threshold", "bool-seed",
        "negative-epochs", "zero-batch-size", "threshold-past-epochs",
        "spectrum-epoch-past-epochs", "zero-test-per-class", "section-not-object",
        "optimizer-kind", "negative-pgd-sigma", "negative-lpf-radius",
        "milestone-one-item", "milestone-not-a-pair", "milestone-float-epoch",
        "milestone-bool-epoch", "rho-step-one-item", "rho-step-not-a-pair",
        "rho-step-float-epoch", "rho-step-bool-epoch", "text-bool", "int-bool", "text-bias",
        "text-group-threshold", "bool-group-threshold", "bool-base-lr", "bool-beta",
        "number-output-dir", "bool-cnc-rho", "huge-int-n-max", "huge-int-beta",
        "one-class", "zero-n-max", "zero-input-dim", "mean-placement", "one-layer-size",
        "zero-width", "activation", "negative-base-lr", "negative-warmup",
        "zero-milestone-multiplier", "negative-rho-step", "one-lanczos-iter", "zero-probes",
        "zero-broadening", "zero-cnc-batch-size", "negative-ldam-margin",
        "negative-threshold"])
def test_load_config_rejects_what_the_run_would(tmp_path, edit):
    d = config_to_dict(tiny_config(tmp_path / "x"))
    edit(d)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ConfigError):
        load_config(path)


def test_a_range_error_names_its_section():
    d = config_to_dict(tiny_config("unused"))

    def message(bad):
        with pytest.raises(ConfigError) as info:
            config_from_dict(bad)
        return str(info.value)

    top = message(dict(d, batch_size=0))
    cnc = message(dict(d, cnc=dict(d["cnc"], batch_size=0)))
    assert top != cnc
    assert cnc == "cnc: batch_size must be >= 1"
    assert message(dict(d, dataset=dict(d["dataset"], test_per_class=0))) == \
        "dataset: test_per_class must be >= 1"


def test_a_type_error_names_the_section_and_field():
    d = config_to_dict(tiny_config("unused"))
    d["optimizer"]["sam_normalized"] = "false"
    with pytest.raises(ConfigError, match="optimizer sam_normalized: 'false' is not of type bool"):
        config_from_dict(d)


# every record a config or a checkpoint holds: the test below checks that no
# field of one names a record outside this list
RECORDS = (ExperimentConfig, DatasetConfig, MlpSpec, LossConfig, ReweightSchedule,
           OptimizerConfig, LrSchedule, RhoSchedule, SpectralSettings, CncSettings,
           harness.GroupThresholds, Checkpoint, MetricsRecord)


def _hint_types(hint):
    yield hint
    for arg in typing.get_args(hint):
        yield from _hint_types(arg)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_every_record_field_has_a_reader(cls):
    # _record reads each field by its resolved type hint, so an annotation
    # naming a type its module does not import would fail only a user's load
    hints = typing.get_type_hints(cls)
    assert {t for hint in hints.values() for t in _hint_types(hint)
            if dataclasses.is_dataclass(t)} <= set(RECORDS)


def test_a_field_of_an_unreadable_type_is_a_config_error():
    @dataclasses.dataclass
    class Unreadable:
        sizes: list[int]

    with pytest.raises(ConfigError, match=r"unreadable sizes: \[1, 2\] is not of type list\[int\]"):
        harness._record(Unreadable, {"sizes": [1, 2]}, "unreadable")


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_load_config_rejects_a_seed_outside_64_bits(tmp_path, seed):
    # SeededRng would alias it: 2**64 + s drew the streams of seed s
    d = dict(config_to_dict(tiny_config(tmp_path / "x")), seed=seed)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(d))
    with pytest.raises(ConfigError, match="seed"):
        load_config(path)


def test_load_config_rejects_an_overflowing_number(tmp_path):
    text = json.dumps(config_to_dict(tiny_config(tmp_path / "x")))
    path = tmp_path / "cfg.json"
    path.write_text(text.replace('"base_lr": 0.1', '"base_lr": 1e999'))
    assert path.read_text() != text
    with pytest.raises(ConfigError, match="non-finite"):
        load_config(path)


REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("path", sorted(REPO.glob("configs/*.json"))
                         + sorted(REPO.glob("saddlebench/workloads/*.json")),
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_shipped_configs_roundtrip(path):
    # equality here keeps every shipped config's hash fixed across schema edits
    assert config_to_dict(load_config(path)) == json.loads(path.read_text())


def test_metrics_rows_carry_hash_and_version(tmp_path):
    cfg = tiny_config(tmp_path / "m", epochs=2)
    result = run_experiment(cfg, tmp_path / "m")
    text = (tmp_path / "m" / "metrics.csv").read_text().splitlines()
    header = text[0].split(",")
    assert header[-2:] == ["config_hash", "code_version"]
    for line in text[1:]:
        cells = line.split(",")
        assert cells[-2] == result.config_hash
    assert len(text) == 3


def test_rho_column_switches_at_reweight_epoch(tmp_path):
    cfg = tiny_config(tmp_path / "rho", kind="sam", rho=0.1, rho_drw=0.4, epochs=12)
    result = run_experiment(cfg, tmp_path / "rho")
    rhos = [m.rho for m in result.metrics]
    threshold = cfg.reweight.threshold_epoch
    assert rhos[:threshold] == [0.1] * threshold
    assert rhos[threshold:] == [0.4] * (cfg.epochs - threshold)


def test_rho_schedule_takes_precedence(tmp_path):
    cfg = tiny_config(tmp_path / "rs", kind="sam", rho=0.1, epochs=6)
    cfg = dataclasses.replace(cfg, rho_schedule=RhoSchedule(steps=((0, 0.05), (3, 0.7))))
    result = run_experiment(cfg, tmp_path / "rs")
    assert [m.rho for m in result.metrics] == [0.05] * 3 + [0.7] * 3


def test_reweighting_changes_trajectory(tmp_path):
    never = dataclasses.replace(tiny_config(tmp_path / "never", epochs=10),
                                reweight=ReweightSchedule(10))
    always = dataclasses.replace(tiny_config(tmp_path / "always", epochs=10),
                                 reweight=ReweightSchedule(0))
    r_never = run_experiment(never, tmp_path / "never")
    r_always = run_experiment(always, tmp_path / "always")
    assert not np.array_equal(r_never.params, r_always.params)


def test_sweep_rho_zero_matches_sgd_baseline(tmp_path):
    base = tiny_config(tmp_path / "sweepbase", kind="sam", rho=0.2, epochs=8)
    rows = sweep_rho(base, [0.0], out_dir=tmp_path / "sweep")
    sgd = run_experiment(tiny_config(tmp_path / "sgdbase", kind="sgd", epochs=8),
                         tmp_path / "sgdbase")
    assert rows[0].error is None
    assert rows[0].overall_acc == sgd.metrics[-1].overall_acc
    assert rows[0].tail_acc == sgd.metrics[-1].tail_acc
    assert (tmp_path / "sweep" / "sweep.csv").exists()


def test_sweep_rho_duplicates_identical(tmp_path):
    base = tiny_config(tmp_path / "dupbase", kind="sam", rho=0.2, epochs=6)
    rows = sweep_rho(base, [0.3, 0.3], out_dir=tmp_path / "dup")
    a, b = rows
    assert (a.overall_acc, a.tail_acc, a.tail_lambda_min) == \
        (b.overall_acc, b.tail_acc, b.tail_lambda_min)


def test_sweep_rho_records_failed_cell_and_continues(tmp_path):
    base = tiny_config(tmp_path / "base", kind="sam", epochs=3, sam_normalized=False)
    # relu logits are unbounded, so a huge unnormalized rho overflows them
    base = dataclasses.replace(base, model=MlpSpec((4, 6, 2), "relu"))
    with np.errstate(over="ignore", invalid="ignore"):
        rows = sweep_rho(base, [0.1, 1e300, 0.0], out_dir=tmp_path / "sweep")
    assert [r.error is None for r in rows] == [True, False, True]
    assert "non-finite" in rows[1].error
    assert rows[1].overall_acc is None and rows[2].overall_acc is not None
    lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4 and "run aborted" in lines[2]


def test_sweep_rho_propagates_programming_errors(tmp_path, monkeypatch):
    from saddlelab import harness

    def broken(cfg, result):
        raise ZeroDivisionError("bug")

    monkeypatch.setattr(harness, "tail_lambda_min", broken)
    base = tiny_config(tmp_path / "base", kind="sam", epochs=1)
    with pytest.raises(ZeroDivisionError):
        sweep_rho(base, [0.1], out_dir=tmp_path / "sweep")


def test_spectrum_snapshot_files(tmp_path):
    cfg = tiny_config(tmp_path / "snap", epochs=4)
    cfg = dataclasses.replace(cfg, spectrum_epochs=(0, 4), cnc_epochs=(4,),
                              spectral=SpectralSettings(lanczos_iters=6, num_probes=2),
                              )
    out = tmp_path / "snap"
    result = run_experiment(cfg, out)
    for epoch in (0, 4):
        for tag in ("0", "1", "all"):
            assert (out / f"spectrum_{epoch}_class{tag}.csv").exists()
            payload = json.loads((out / f"spectrum_{epoch}_class{tag}.json").read_text())
            assert payload["epoch"] == epoch
            assert payload["config_hash"] == result.config_hash
            assert "lambda_min" in payload
    assert (out / "cnc_4.csv").exists()
    assert (out / "checkpoint_0.json").exists()
    assert (out / "checkpoint_4.json").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["epochs_completed"] == 4
    assert "spectrum_4_classall.csv" in summary["artifacts"]


def test_mid_run_cnc_probes_the_last_epoch_trained(tmp_path):
    # after E = threshold epochs the optimizer has only stepped on the
    # uniform-weight loss at rho, never on the DRW one at rho_drw
    cfg = dataclasses.replace(
        tiny_config(tmp_path / "run", kind="sam", rho=0.05, rho_drw=0.8, epochs=4),
        reweight=ReweightSchedule(2), cnc_epochs=(2,),
        spectral=SpectralSettings(lanczos_iters=6, num_probes=2),
        cnc=CncSettings(batch_size=8, num_batches=4),
    )
    result = run_experiment(cfg, tmp_path / "run")
    assert [m.rho for m in result.metrics[:2]] == [0.05, 0.05]
    ckpt = load_checkpoint(tmp_path / "run" / "checkpoint_2.json")
    uniform = cfg.loss.bind(result.dataset.class_counts)
    rows = theorem1_report(cfg.model, ckpt.params, result.dataset, uniform, [0.05], cfg.cnc,
                           SeededRng(cfg.seed).child("cnc", 2), cfg.spectral)
    report = json.loads((tmp_path / "run" / "cnc_2.json").read_text())
    assert [r["rho"] for r in report["rows"]] == [0.05]
    assert report["rows"] == [dataclasses.asdict(r) for r in rows]


def test_metrics_header_shape(tmp_path):
    header = MetricsRecord.csv_header(3)
    assert header[:5] == ["epoch", "train_loss", "grad_norm", "lr", "rho"]
    assert "acc_2" in header and "loss_2" in header
    result = run_experiment(tiny_config(tmp_path / "m", epochs=3), tmp_path / "m")
    lines = (tmp_path / "m" / "metrics.csv").read_text().splitlines()
    header = MetricsRecord.csv_header(2)
    assert lines[0].split(",") == header
    for line, r in zip(lines[1:], result.metrics, strict=True):
        cells = line.split(",")
        assert cells == csv_cells(r) and len(cells) == len(header)
        expected = [r.epoch, r.train_loss, r.grad_norm, r.lr, r.rho, r.overall_acc,
                    r.head_acc, r.mid_acc, r.tail_acc, *r.per_class_acc,
                    *r.per_class_loss, r.config_hash, r.code_version]
        for cell, value in zip(cells, expected, strict=True):
            if value is None:
                assert cell == ""
            elif isinstance(value, float):
                assert np.float64(float(cell)).tobytes() == np.float64(value).tobytes()
            else:
                assert cell == str(value)


def test_finished_run_leaves_only_its_artifacts(tmp_path):
    cfg = dataclasses.replace(tiny_config(tmp_path / "run", epochs=4),
                              spectrum_epochs=(4,), cnc_epochs=(4,),
                              spectral=SpectralSettings(lanczos_iters=6, num_probes=2),
                              cnc=CncSettings(batch_size=8, num_batches=4))
    result = run_experiment(cfg, tmp_path / "run")
    names = sorted(p.name for p in (tmp_path / "run").iterdir())
    assert not [n for n in names if n.endswith(".tmp")]
    assert names == sorted(result.artifacts + ["summary.json"])


def test_sweep_under_two_roots_is_byte_identical(tmp_path):
    base = dataclasses.replace(tiny_config(tmp_path / "cfg", kind="sam", epochs=3),
                               spectrum_epochs=(3,),
                               spectral=SpectralSettings(lanczos_iters=6, num_probes=2))
    trees = []
    for root in (tmp_path / "one", tmp_path / "elsewhere" / "two"):
        sweep_rho(base, [0.0, 0.2], out_dir=root)
        trees.append(_tree(root))
    assert len(trees[0]) == 2 * 9 + 1
    assert trees[0] == trees[1]


def test_diverging_run_reports_epoch_and_step(tmp_path):
    cfg = tiny_config(tmp_path / "boom", epochs=6)
    # relu activations are unbounded, so an absurd lr overflows the logits
    cfg = dataclasses.replace(cfg, lr=LrSchedule(base_lr=1e200),
                              model=MlpSpec((4, 6, 2), "relu"))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(RunAbortedError, match=r"epoch \d+, step \d+"):
            run_experiment(cfg, tmp_path / "boom")
