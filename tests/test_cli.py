import argparse
import ast
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from saddlelab import cli, cncverify, harness, spectral
from saddlelab.cli import main
from saddlelab.cncverify import CncSettings
from saddlelab.harness import OUTPUT_DIR_ENV, GroupThresholds, config_to_dict
from saddlelab.losses import ReweightSchedule
from saddlelab.spectral import SpectralSettings
from tests.test_harness import tiny_config


def write_config(tmp_path, **kwargs):
    cfg = tiny_config(tmp_path / "run", **kwargs)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    return cfg, path


def test_train_and_checkpoint_tools(tmp_path, capsys):
    cfg, cfg_path = write_config(tmp_path, epochs=4)
    assert main(["train", "--config", str(cfg_path)]) == 0
    run_dir = tmp_path / "run"
    assert (run_dir / "metrics.csv").exists()
    ckpt = run_dir / "checkpoint_4.json"
    assert ckpt.exists()
    capsys.readouterr()

    assert main(["spectrum", "--checkpoint", str(ckpt), "--class", "all",
                 "--out", str(tmp_path / "spec")]) == 0
    assert (tmp_path / "spec" / "spectrum_4_class0.csv").exists()
    assert (tmp_path / "spec" / "spectrum_4_classall.json").exists()
    out = capsys.readouterr().out
    assert "lambda_min" in out

    assert main(["spectrum", "--checkpoint", str(ckpt), "--class", "1",
                 "--out", str(tmp_path / "spec1")]) == 0
    assert (tmp_path / "spec1" / "spectrum_4_class1.csv").exists()
    capsys.readouterr()

    assert main(["cnc-check", "--checkpoint", str(ckpt), "--rho", "0.0,0.1",
                 "--out", str(tmp_path / "cnc")]) == 0
    assert (tmp_path / "cnc" / "cnc_4.csv").exists()
    out = capsys.readouterr().out
    assert "measured_ratio" in out


def test_spectrum_and_cnc_check_reproduce_run_snapshots(tmp_path, capsys):
    # the snapshot comes after the DRW switch, so the CNC loss is re-weighted
    cfg = dataclasses.replace(
        tiny_config(tmp_path / "run", kind="sam", rho=0.1, epochs=5),
        reweight=ReweightSchedule(2), spectrum_epochs=(4,), cnc_epochs=(4,),
        spectral=SpectralSettings(lanczos_iters=6, num_probes=2),
        cnc=CncSettings(batch_size=8, num_batches=4, rhos=(0.0, 0.3)),
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    assert main(["train", "--config", str(cfg_path)]) == 0
    run_dir, cli_dir = tmp_path / "run", tmp_path / "cli"
    ckpt = str(run_dir / "checkpoint_4.json")
    assert main(["spectrum", "--checkpoint", ckpt, "--class", "all",
                 "--out", str(cli_dir)]) == 0
    assert main(["cnc-check", "--checkpoint", ckpt, "--rho", "0.0,0.3",
                 "--out", str(cli_dir)]) == 0
    capsys.readouterr()
    expected = sorted([f"spectrum_4_class{tag}.{ext}" for tag in ("0", "1", "all")
                       for ext in ("csv", "json")] + ["cnc_4.csv", "cnc_4.json"])
    assert sorted(p.name for p in cli_dir.iterdir()) == expected
    for name in expected:
        assert (cli_dir / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_train_seed_override_changes_outputs(tmp_path):
    cfg, cfg_path = write_config(tmp_path, epochs=3)
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "a"),
                 "--seed", "1"]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "b"),
                 "--seed", "2"]) == 0
    assert (tmp_path / "a" / "metrics.csv").read_text() != \
        (tmp_path / "b" / "metrics.csv").read_text()


def test_train_resume_flag(tmp_path):
    import dataclasses

    from saddlelab.harness import config_hash
    from saddlelab.spectral import SpectralSettings
    cfg = tiny_config(tmp_path / "run", epochs=6, kind="sam", rho=0.2)
    cfg = dataclasses.replace(cfg, spectrum_epochs=(3,),
                              spectral=SpectralSettings(lanczos_iters=4, num_probes=1))
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    assert main(["train", "--config", str(cfg_path)]) == 0
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "resumed"),
                 "--resume", str(tmp_path / "run" / "checkpoint_3.json")]) == 0
    a = (tmp_path / "run" / f"checkpoint_6.json").read_text()
    b = (tmp_path / "resumed" / f"checkpoint_6.json").read_text()
    assert json.loads(a)["params"] == json.loads(b)["params"]
    assert config_hash(cfg)  # silence unused-import style nits


def test_sweep_rho_cli(tmp_path, capsys):
    # without --out the sweep writes under <output_dir>/sweep, a default of the CLI's
    cfg, cfg_path = write_config(tmp_path, epochs=3, kind="sam", rho=0.1)
    for target, extra in ((tmp_path / "sweep", ["--out", str(tmp_path / "sweep")]),
                          (tmp_path / "run" / "sweep", [])):
        assert main(["sweep-rho", "--config", str(cfg_path), "--rhos", "0.0,0.2",
                     *extra]) == 0
        assert sorted(p.name for p in target.iterdir()) == \
            ["rho_0_0", "rho_1_0.2", "sweep.csv"]
        assert capsys.readouterr().out.count("rho=") == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "run", "sweep"]
    assert (tmp_path / "sweep" / "sweep.csv").read_bytes() == \
        (tmp_path / "run" / "sweep" / "sweep.csv").read_bytes()


def test_train_and_sweep_rho_hand_extreme_eigs_the_configs_own_spectral_settings(
        tmp_path, monkeypatch, capsys):
    # each module's binding of extreme_eigs records the settings it is handed,
    # and cli's binding of load_config the config each command runs
    handed, loaded = [], []
    for module in (spectral, cncverify, harness):
        def recording(*args, fn=module.extreme_eigs, name=module.__name__):
            handed.append((name, args[1]))
            return fn(*args)
        monkeypatch.setattr(module, "extreme_eigs", recording)
    monkeypatch.setattr(cli, "load_config",
                        lambda path, fn=cli.load_config: loaded.append(fn(path)) or loaded[-1])
    # the 10-row class is the tail, so each sweep cell measures its lambda_min
    cfg = dataclasses.replace(
        tiny_config(tmp_path / "run", kind="sam", rho=0.1, epochs=1),
        spectrum_epochs=(1,), cnc_epochs=(1,), groups=GroupThresholds(hi=30, lo=30),
        spectral=SpectralSettings(lanczos_iters=6, num_probes=2, residual_tol=1e-5),
        cnc=CncSettings(batch_size=8, num_batches=2),
    )
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config_to_dict(cfg)))
    expected = {"train": ["saddlelab.spectral"] * 3 + ["saddlelab.cncverify"],
                "sweep-rho": (["saddlelab.spectral"] * 3 + ["saddlelab.cncverify"]
                              + ["saddlelab.harness"]) * 2}
    for command, extra in (("train", []), ("sweep-rho", ["--rhos", "0,0.1"])):
        handed.clear()
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / command),
                     *extra]) == 0
        assert [name for name, _ in handed] == expected[command]
        assert all(settings is loaded[-1].spectral for _, settings in handed)
    capsys.readouterr()


def test_error_record_on_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    for text in (json.dumps({"epochs": 3}), "not json"):
        bad.write_text(text)
        code = main(["train", "--config", str(bad)])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert record["command"] == "train"


@pytest.mark.parametrize("edit", [
    lambda d: d.update(lr={}),
    lambda d: d["model"].update(layer_sizes=[3, 6, 2]),
    lambda d: d.update(epochs=3.5),
    lambda d: d.update(batch_size=64.5),
    lambda d: d["cnc"].update(mode="normalized"),
], ids=["lr-empty", "input-dim-mismatch", "float-epochs", "float-batch-size",
        "cnc-normalized-mode"])
def test_error_record_on_invalid_config_section(tmp_path, capsys, edit):
    _, path = write_config(tmp_path, epochs=1)
    d = json.loads(path.read_text())
    edit(d)
    path.write_text(json.dumps(d))
    assert main(["train", "--config", str(path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    assert json.loads(err[0])["error"] == "ConfigError"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command", ["train", "sweep-rho"])
def test_groups_hi_below_lo_is_one_config_error_and_writes_nothing(tmp_path, capsys, command):
    # W2's data with only lo set: the default hi, 500/3.3 = 151.5, would put
    # its 324- and 210-row classes, under lo, in the head
    _, path = write_config(tmp_path, epochs=1)
    d = json.loads(path.read_text())
    d["dataset"].update(num_classes=10, n_max=500, beta=50.0, input_dim=16)
    d["model"].update(layer_sizes=[16, 8, 10])
    d["groups"] = {"hi": None, "lo": 400}
    path.write_text(json.dumps(d))
    extra = ["--rhos", "0", "--out", str(tmp_path / "sweep")] if command == "sweep-rho" else []
    assert main([command, "--config", str(path), *extra]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "ConfigError"
    assert "below lo 400" in record["message"]
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("kind", ["config", "checkpoint"])
def test_a_repeated_key_is_one_error_record_naming_it(tmp_path, capsys, kind):
    # a JSON reader that keeps a repeated key's last value would train
    # quickstart at batch size 16 and seed 9, or resume at epoch 2
    quickstart = Path(__file__).resolve().parent.parent / "configs" / "quickstart.json"
    cfg_path = tmp_path / "config.json"
    if kind == "config":
        cfg_path.write_text(quickstart.read_text()
                            .replace('"batch_size": 64,', '"batch_size": 64, "batch_size": 16,')
                            .replace('"seed": 1,', '"seed": 1, "seed": 9,'))
        argv = ["train", "--config", str(cfg_path)]
    else:
        _, cfg_path = write_config(tmp_path, epochs=2)
        assert main(["train", "--config", str(cfg_path)]) == 0
        ckpt = tmp_path / "run" / "checkpoint_2.json"
        text = ckpt.read_text()
        assert text.startswith('{"config": ')
        ckpt.write_text('{"epoch": 0, ' + text[1:])
        argv = ["train", "--config", str(cfg_path), "--resume", str(ckpt)]
    capsys.readouterr()
    assert main([*argv, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == ("ConfigError" if kind == "config" else "CheckpointError")
    assert ("'batch_size'" if kind == "config" else "'epoch'") in record["message"]
    assert not (tmp_path / "out").exists()


def test_error_record_on_missing_checkpoint(tmp_path, capsys):
    (tmp_path / "list.json").write_text("[]")  # JSON, but no checkpoint object
    for name in ("nope.json", "list.json"):
        code = main(["spectrum", "--checkpoint", str(tmp_path / name), "--class", "all"])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "CheckpointError"


def test_error_record_on_bad_rho_list(tmp_path, capsys):
    cfg, cfg_path = write_config(tmp_path, epochs=1)
    main(["train", "--config", str(cfg_path)])
    capsys.readouterr()
    code = main(["cnc-check", "--checkpoint",
                 str(tmp_path / "run" / "checkpoint_1.json"), "--rho", "abc"])
    assert code == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "SaddleLabError"


@pytest.mark.parametrize("rho", ["nan", "0.1,inf"])
def test_error_record_on_non_finite_rho(tmp_path, capsys, rho):
    _, cfg_path = write_config(tmp_path, epochs=1)
    main(["train", "--config", str(cfg_path)])
    capsys.readouterr()
    code = main(["cnc-check", "--checkpoint", str(tmp_path / "run" / "checkpoint_1.json"),
                 "--rho", rho, "--out", str(tmp_path / "cnc")])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "SaddleLabError"
    assert not (tmp_path / "cnc").exists()


def test_cnc_check_rho_is_validated_as_the_config_is(tmp_path, capsys):
    _, cfg_path = write_config(tmp_path, epochs=1)
    main(["train", "--config", str(cfg_path)])
    capsys.readouterr()
    code = main(["cnc-check", "--checkpoint", str(tmp_path / "run" / "checkpoint_1.json"),
                 "--rho=-0.5,0.1", "--out", str(tmp_path / "cnc")])
    assert code == 1
    assert json.loads(capsys.readouterr().err.strip())["error"] == "ParameterError"
    assert not (tmp_path / "cnc").exists()


def test_spectrum_class_is_validated_before_any_output(tmp_path, capsys):
    _, cfg_path = write_config(tmp_path, epochs=1)
    main(["train", "--config", str(cfg_path)])
    capsys.readouterr()
    for value in ("abc", "2", "-1"):  # the run has classes 0 and 1
        code = main(["spectrum", "--checkpoint", str(tmp_path / "run" / "checkpoint_1.json"),
                     f"--class={value}", "--out", str(tmp_path / "spec")])
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ParameterError" and value in record["message"]
        assert not (tmp_path / "spec").exists()


def test_env_var_overrides_train_out(tmp_path, monkeypatch):
    _, cfg_path = write_config(tmp_path, epochs=1)
    target = tmp_path / "env_target"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
    assert main(["train", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
    assert (target / "metrics.csv").exists()
    assert not (tmp_path / "out").exists() and not (tmp_path / "run").exists()


def test_env_var_holds_sweep_cells_apart(tmp_path, monkeypatch):
    _, cfg_path = write_config(tmp_path, epochs=2, kind="sam")
    target = tmp_path / "env_target"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
    assert main(["sweep-rho", "--config", str(cfg_path), "--rhos", "0.0,0.2",
                 "--out", str(tmp_path / "out")]) == 0
    assert sorted(p.name for p in target.iterdir()) == ["rho_0_0", "rho_1_0.2", "sweep.csv"]
    for cell in ("rho_0_0", "rho_1_0.2"):
        assert (target / cell / "summary.json").exists()
        assert (target / cell / "metrics.csv").exists()
    assert not (tmp_path / "out").exists() and not (tmp_path / "run").exists()


def test_env_var_overrides_spectrum_out(tmp_path, monkeypatch):
    _, cfg_path = write_config(tmp_path, epochs=1)
    assert main(["train", "--config", str(cfg_path)]) == 0
    target = tmp_path / "env_target"
    monkeypatch.setenv(OUTPUT_DIR_ENV, str(target))
    assert main(["spectrum", "--checkpoint", str(tmp_path / "run" / "checkpoint_1.json"),
                 "--out", str(tmp_path / "out")]) == 0
    assert (target / "spectrum_1_classall.json").exists()
    assert not (tmp_path / "out").exists()
    assert not list((tmp_path / "run").glob("spectrum_*"))


def test_only_the_cli_reads_the_configs_output_dir():
    # the library writes where it is told; each command's default lives in cli.py
    package = Path(cli.__file__).parent
    readers = {path.name for path in package.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "output_dir"
               and isinstance(node.ctx, ast.Load)}
    assert readers == {"cli.py"}


def test_installed_entry_point_exit_codes(tmp_path):
    import os
    import subprocess
    import sys
    # the child imports saddlelab from wherever this process does
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    proc = subprocess.run([sys.executable, "-m", "saddlelab.cli", "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0


def test_docs_name_the_parsers_subcommands():
    # cli.py's docstring and README's usage block name exactly the commands
    # build_parser() accepts
    docstring = re.search(r"Subcommands: ([^.]+)\.", cli.__doc__).group(1)
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    usage = readme.split("## CLI", 1)[1].split("```")[1]
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    assert set(re.split(r"[,\s]+", docstring)) \
        == set(re.findall(r"^saddlelab ([\w-]+)", usage, re.MULTILINE)) \
        == set(subparsers.choices)


@pytest.mark.parametrize("command", ["train"])
def test_negative_seed_gives_an_error_record(tmp_path, capsys, command):
    _, cfg_path = write_config(tmp_path, epochs=1)
    assert main([command, "--config", str(cfg_path), "--seed", "-1"]) == 1
    record = json.loads(capsys.readouterr().err.strip())
    assert record["error"] == "ParameterError" and "seed" in record["message"]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]


def _edited_echo(config):
    # a valid config, but not the one the checkpoint's config_hash names
    config["spectral"]["num_probes"] += 3
    return config


@pytest.mark.parametrize("field, value", [
    ("params", 5), ("params", ["abc", "0.5"]), ("velocity", None),
    # arrays of other lengths than the model's, or with a non-finite entry
    ("params", lambda p: p[:5]), ("params", lambda p: ["nan", *p[1:]]),
    ("params", lambda p: ["1e400", *p[1:]]), ("velocity", ["0.5"]), ("velocity", []),
    ("velocity", lambda v: v[:3]),
    # fields of checkpoint format 1, which format 3 refuses as unknown keys
    ("rng_states", {}), ("rng_states", {"batches": {}}),
    ("rng_states", {"optnoise": {"seed": 1}}),
    ("epoch", "x"), ("epoch", -1), ("epoch", 3), ("step_count", 1.5), ("config_hash", 5),
    ("config", _edited_echo), ("extra", 1),
    ("metrics", lambda rows: rows[1:]), ("metrics", lambda rows: rows[::-1]),
    ("metrics", lambda rows: [dict(rows[0], per_class_loss=rows[0]["per_class_loss"][:1]),
                              *rows[1:]]),
    ("metrics", lambda rows: [dict(rows[0], train_loss="0.5"), *rows[1:]]),
    ("metrics", lambda rows: [rows[0], dict(rows[1], config_hash="0000000000000000")]),
], ids=["params-number", "params-text", "velocity-null", "params-five", "params-nan",
        "params-overflow", "velocity-one", "velocity-empty", "velocity-three",
        "rng-states-empty", "batches-state-empty", "optnoise-state-partial",
        "epoch-text", "epoch-negative",
        "epoch-past-epochs", "step-count-float", "config-hash-number", "config-edited",
        "extra-key", "metrics-dropped-row", "metrics-out-of-order",
        "metrics-short-per-class", "metrics-text-loss", "metrics-forged-hash"])
@pytest.mark.parametrize("command", ["spectrum", "resume", "cnc-check"])
def test_malformed_checkpoint_gives_an_error_record(tmp_path, capsys, command, field, value):
    # two epochs, so the checkpoint holds two metrics rows to drop or reorder
    _, cfg_path = write_config(tmp_path, epochs=2)
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = tmp_path / "run" / "checkpoint_2.json"
    payload = json.loads(ckpt.read_text())
    payload[field] = value(payload[field]) if callable(value) else value
    ckpt.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([*_checkpoint_argv(command, cfg_path, ckpt), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == "CheckpointError" and field in record["message"]
    assert not (tmp_path / "out").exists()


def _checkpoint_argv(command, cfg_path, ckpt):
    return {"spectrum": ["spectrum", "--checkpoint", str(ckpt)],
            "cnc-check": ["cnc-check", "--checkpoint", str(ckpt), "--rho", "0.1"],
            "resume": ["train", "--config", str(cfg_path), "--resume", str(ckpt)],
            "train": ["train", "--config", str(cfg_path)]}[command]


@pytest.mark.parametrize("defect", ["not-utf8", "nan"])
@pytest.mark.parametrize("command", ["train", "spectrum", "cnc-check", "resume"])
def test_undecodable_or_non_finite_json_gives_an_error_record(tmp_path, capsys, command,
                                                              defect):
    # configs and checkpoints are read by one rule: UTF-8 JSON of finite numbers
    _, cfg_path = write_config(tmp_path, epochs=2)
    assert main(["train", "--config", str(cfg_path)]) == 0
    ckpt = tmp_path / "run" / "checkpoint_2.json"
    path = cfg_path if command == "train" else ckpt
    if defect == "not-utf8":
        path.write_bytes(b"\xff\xfe{")
    else:
        payload = json.loads(path.read_text())
        if command == "train":
            payload["dataset"]["beta"] = float("nan")
        else:
            payload["metrics"][0]["train_loss"] = float("nan")
        path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert main([*_checkpoint_argv(command, cfg_path, ckpt), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    record = json.loads(err[0])
    assert record["error"] == ("ConfigError" if command == "train" else "CheckpointError")
    assert ("non-finite" if defect == "nan" else "utf-8") in record["message"]
    assert not (tmp_path / "out").exists()


def test_sweep_rho_rejects_a_bad_rho_before_any_work(tmp_path, capsys):
    _, cfg_path = write_config(tmp_path, epochs=1, kind="sam", rho=0.1)
    for rhos in ("0.1,-1", ""):  # a negative rho, and no rho at all
        assert main(["sweep-rho", "--config", str(cfg_path), "--rhos", rhos,
                     "--out", str(tmp_path / "sweep")]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert json.loads(err[0])["error"] == "ParameterError"
        assert not (tmp_path / "sweep").exists()


def _run_cli(argv):
    # numpy's warnings would print in the child: -W shows every one
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    return subprocess.run([sys.executable, "-W", "default::RuntimeWarning",
                           "-m", "saddlelab.cli", *argv],
                          capture_output=True, text=True, env=env)


def _relu_config(tmp_path, base_lr=0.1):
    _, cfg_path = write_config(tmp_path, epochs=2, kind="sam", sam_normalized=False)
    d = json.loads(cfg_path.read_text())
    d["model"]["activation"] = "relu"  # unbounded logits, so they can overflow
    d["lr"]["base_lr"] = base_lr
    cfg_path.write_text(json.dumps(d))
    return cfg_path


def test_diverging_train_writes_one_json_line_to_stderr(tmp_path):
    cfg_path = _relu_config(tmp_path, base_lr=1e200)
    proc = _run_cli(["train", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    assert proc.returncode == 1
    err = proc.stderr.splitlines()
    assert len(err) == 1, proc.stderr
    assert json.loads(err[0])["error"] == "RunAbortedError"


def test_sweep_rho_prints_a_failed_cell_and_exits_0(tmp_path):
    cfg_path = _relu_config(tmp_path)
    proc = _run_cli(["sweep-rho", "--config", str(cfg_path), "--rhos", "0.1,1e300",
                     "--out", str(tmp_path / "sweep")])
    assert proc.returncode == 0
    assert proc.stderr == ""
    lines = proc.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("rho=0.1: overall_acc=")
    assert lines[1].startswith("rho=1e+300: FAILED (run aborted at epoch ")
    header, ok, failed = (line.split(",") for line in
                          (tmp_path / "sweep" / "sweep.csv").read_text().splitlines())
    error = header.index("error")
    assert ok[error] == ""
    assert failed[error].startswith("run aborted at epoch ")
