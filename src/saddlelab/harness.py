"""Experiment orchestration: config files, the phase-switched training loop
(uniform weights and rho before the re-weighting threshold, inverse-frequency
weights and rho_drw after), per-epoch balanced-test metrics, scheduled
spectrum/CNC snapshots, checkpoints, and rho sweeps.

Everything an experiment writes is a pure function of (config, seed): random
streams are derived per purpose (data, init, batch order, optimizer noise,
per-analysis), floats are serialized with 17 significant digits, and no
timestamps enter any artifact, so reruns reproduce outputs byte-for-byte and
a checkpoint resume rejoins the uninterrupted trajectory bitwise. A checkpoint
holds only what cannot be recomputed, the parameters, the momentum and the
metrics rows so far, so a resume reads nothing else: it replays the batch
order of the epochs before it, and optimizer noise draws from one stream per
epoch.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import reprlib
import types
import typing
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__ as CODE_VERSION
from .cncverify import CncSettings, save_theorem1_report, theorem1_report
from .datagen import (
    ClassGeometry,
    ClassGroups,
    ImbalanceProfile,
    LabeledDataset,
    balanced_test_split,
    class_counts,
    generate,
    split_head_mid_tail,
)
from .errors import (
    CheckpointError,
    ConfigError,
    ParameterError,
    RunAbortedError,
    SaddleLabError,
)
from .linalg import (
    SeededRng,
    blas_threads,
    csv_lines,
    format_float,
    write_csv,
    write_json,
)
from .losses import LossSpec, ReweightSchedule, drw_weights, loss_on_logits
from .model import (
    Batch,
    Linearization,
    MlpSpec,
    forward,
    init_params,
    loss_grad,
    param_layout,
    per_class_batch,
)
from .optim import (
    LrSchedule,
    OptimizerConfig,
    OptimizerState,
    RhoSchedule,
    lr_at,
    optimizer_step,
    rho_at,
)
from .spectral import (
    SpectralSettings,
    classwise_spectrum_report,
    extreme_eigs,
    save_spectrum,
)

CHECKPOINT_FORMAT_VERSION = 3
# the CLI's output-directory override; the library writes where it is told
OUTPUT_DIR_ENV = "SADDLELAB_OUTPUT_DIR"


# --------------------------------------------------------------------------
# config schema
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DatasetConfig:
    kind: str
    num_classes: int
    n_max: int
    beta: float
    input_dim: int
    class_mean_radius: float = 3.0
    within_class_std: float = 1.0
    mean_placement: str = "circle"
    test_per_class: int = 200

    def __post_init__(self):
        if self.test_per_class < 1:
            raise ParameterError("test_per_class must be >= 1")
        class_counts(self.profile())  # raises on an infeasible profile
        self.geometry().check_fits(self.num_classes)

    def profile(self) -> ImbalanceProfile:
        return ImbalanceProfile(self.kind, self.num_classes, self.n_max, self.beta)

    def geometry(self) -> ClassGeometry:
        return ClassGeometry(self.input_dim, self.class_mean_radius,
                             self.within_class_std, self.mean_placement)


@dataclass(frozen=True)
class LossConfig:
    variant: str = "ce"
    ldam_max_margin: float = 0.5
    vs_gamma: float = 0.05
    vs_tau: float = 0.75

    def __post_init__(self):
        self.bind((1,))  # LossSpec's checks, before the class counts exist

    def bind(self, counts) -> LossSpec:
        return LossSpec(variant=self.variant, class_counts=tuple(counts),
                        ldam_max_margin=self.ldam_max_margin,
                        vs_gamma=self.vs_gamma, vs_tau=self.vs_tau)


@dataclass(frozen=True)
class GroupThresholds:
    hi: float | None = None
    lo: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    dataset: DatasetConfig
    model: MlpSpec
    lr: LrSchedule
    epochs: int
    batch_size: int
    seed: int
    loss: LossConfig = LossConfig()
    reweight: ReweightSchedule = ReweightSchedule(0)
    optimizer: OptimizerConfig = OptimizerConfig()
    rho_schedule: RhoSchedule = RhoSchedule()
    spectrum_epochs: tuple[int, ...] = ()
    cnc_epochs: tuple[int, ...] = ()
    spectral: SpectralSettings = SpectralSettings()
    cnc: CncSettings = CncSettings()
    groups: GroupThresholds = GroupThresholds()
    output_dir: str = "runs/experiment"

    def __post_init__(self):
        if self.epochs < 0:
            raise ConfigError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.reweight.threshold_epoch > self.epochs:
            raise ConfigError("reweight threshold_epoch must be within [0, epochs]")
        for name, epochs in (("spectrum_epochs", self.spectrum_epochs),
                             ("cnc_epochs", self.cnc_epochs)):
            if any(not 0 <= e <= self.epochs for e in epochs):
                raise ConfigError(f"{name} must lie within [0, epochs]")
        SeededRng(self.seed)  # raises on a seed outside [0, 2**64)
        if (self.model.input_dim, self.model.num_classes) != \
                (self.dataset.input_dim, self.dataset.num_classes):
            raise ConfigError("model layer_sizes must start at dataset input_dim and "
                              "end at dataset num_classes")
        # raises when the groups' effective hi falls below their lo
        split_head_mid_tail(class_counts(self.dataset.profile()), self.groups.hi, self.groups.lo)

    def objective(self, epoch: int, loss: LossSpec) -> tuple:
        """(loss with the DRW class weights of 0-based training epoch `epoch`,
        that epoch's rho): what the optimizer steps on in that epoch. A rho
        schedule wins when present; otherwise rho and rho_drw switch at the
        re-weighting threshold, as the weights do."""
        weights = drw_weights(self.reweight, loss.class_counts, epoch)
        if self.rho_schedule.steps:
            rho = rho_at(self.rho_schedule, epoch)
        elif epoch < self.reweight.threshold_epoch:
            rho = self.optimizer.rho
        else:
            rho = self.optimizer.effective_rho_drw
        return loss.with_class_weights(weights), rho


def config_to_dict(cfg: ExperimentConfig) -> dict:
    d = json.loads(json.dumps(dataclasses.asdict(cfg)))  # tuples -> lists
    d["spectrum_epochs"] = sorted(d["spectrum_epochs"])
    d["cnc_epochs"] = sorted(d["cnc_epochs"])
    return d


def _is(v, *json_types):
    """v, if its JSON type is one of `json_types`: a bool is no int."""
    if type(v) not in json_types:
        raise ValueError(v)
    return v


def _read(hint, v, name: str):
    """The JSON value `v` of field `name`, read by its type hint: a dataclass
    as a record named by the field, `X | None` as null or an X, a tuple as a
    list (`tuple[X, Y]` of exactly its length), an array as a list of 17-digit
    strings (an exact round trip), and any other type as that exact JSON type,
    but that a float field takes an int and keeps it an int, so a config
    written back keeps its bytes. A value of another type raises ValueError."""
    if dataclasses.is_dataclass(hint):
        return _record(hint, v, name)
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType) and args[1:] == (type(None),):
        return None if v is None else _read(args[0], v, name)
    if typing.get_origin(hint) is tuple:
        items = _is(v, list)
        hints = [args[0]] * len(items) if args[1:] == (...,) else args
        return tuple(_read(h, x, name) for h, x in zip(hints, items, strict=True))
    if hint is np.ndarray:
        return np.array([float(_is(x, str)) for x in _is(v, list)])
    return _is(v, int, float) if hint is float else _is(v, hint)


# a record's resolved field type hints, once per class
_type_hints = functools.cache(typing.get_type_hints)


def _record(cls, obj, context: str):
    """cls from the JSON object `obj`, whose keys must be fields of cls and
    include every field without a default, each read by _read. A value cls
    rejects is a ConfigError that names `context`, the record's section."""
    if type(obj) is not dict:
        raise ConfigError(f"{context} must be a JSON object")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(obj.keys() - fields.keys())
    if unknown:
        raise ConfigError(f"unknown keys in {context}: {unknown}")
    missing = [n for n, f in fields.items() if n not in obj and f.default is dataclasses.MISSING]
    if missing:
        raise ConfigError(f"{context} is missing required keys {missing}")
    hints = _type_hints(cls)
    values = {}
    for name, v in obj.items():
        try:
            values[name] = _read(hints[name], v, name)
        except ValueError:
            raise ConfigError(f"{context} {name}: {reprlib.repr(v)} is not of type "
                              f"{fields[name].type}") from None
    try:
        return cls(**values)
    # a range check's error, or a JSON integer too large for a float
    except (ParameterError, OverflowError) as exc:
        raise ConfigError(f"{context}: {exc}") from exc


def config_from_dict(d: dict) -> ExperimentConfig:
    """Inverse of config_to_dict. Every key and value is checked here, so a
    config that loads is one the run accepts."""
    return _record(ExperimentConfig, d, "config")


def _finite(text: str) -> float:
    """A JSON number or NaN/Infinity constant, which must be finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"it holds the non-finite number {text}")
    return value


def _unique_keys(pairs) -> dict:
    """A JSON object's dict; a key the object repeats raises ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"an object repeats the key {key!r}")
        obj[key] = value
    return obj


def _load_json(path, error: type[SaddleLabError], what: str):
    """The JSON document in the UTF-8 file at path, every number in it finite
    and no key repeated within an object. A file that cannot be read or is
    not such a document raises `error`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, parse_float=_finite, parse_constant=_finite,
                             object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:  # UnicodeDecodeError and JSONDecodeError too
        raise error(f"corrupt or unreadable {what}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    return config_from_dict(_load_json(path, ConfigError, "config"))


def config_hash(cfg: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(cfg), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


# --------------------------------------------------------------------------
# metrics
# --------------------------------------------------------------------------

_PER_CLASS = "per_class_"


@dataclass
class MetricsRecord:
    epoch: int
    train_loss: float
    grad_norm: float
    lr: float
    rho: float
    overall_acc: float
    head_acc: float | None
    mid_acc: float | None
    tail_acc: float | None
    per_class_acc: tuple[float, ...]
    per_class_loss: tuple[float, ...]
    config_hash: str
    code_version: str

    # each per_class_<x> field is one <x>_<j> column per class
    @staticmethod
    def csv_header(num_classes: int) -> list:
        header = []
        for f in dataclasses.fields(MetricsRecord):
            if f.name.startswith(_PER_CLASS):
                stem = f.name.removeprefix(_PER_CLASS)
                header += [f"{stem}_{j}" for j in range(num_classes)]
            else:
                header.append(f.name)
        return header

    def csv_row(self) -> list:
        """The row's cells in csv_header's order, unformatted."""
        row = []
        for name, v in vars(self).items():
            if name.startswith(_PER_CLASS):
                row += v
            else:
                row.append(v)
        return row


@blas_threads()
def evaluate(spec: MlpSpec, w: np.ndarray, test: LabeledDataset,
             groups: ClassGroups, loss: LossSpec) -> dict:
    """Argmax-logit metrics on the balanced test set, keyed by MetricsRecord
    field: per-class accuracy and loss, group means, and the overall balanced
    accuracy (mean of per-class).

    Each class is scored from its own forward pass, so only one class's
    activations are alive at a time; a row's logits do not depend on the
    other rows of its pass, so the numbers are those of one full pass."""
    plain = loss.with_class_weights(None)
    accs, losses = [], []
    for j in range(test.num_classes):
        batch = per_class_batch(test, j)
        logits = forward(spec, w, batch.features)
        accs.append(float(np.mean(np.argmax(logits, axis=1) == j)))
        value, _ = loss_on_logits(plain, logits, batch.labels)
        losses.append(value)

    def group_acc(members):
        if not members:
            return None
        return float(np.mean([accs[j] for j in members]))

    return {
        "per_class_acc": tuple(accs),
        "per_class_loss": tuple(losses),
        "overall_acc": float(np.mean(accs)),
        "head_acc": group_acc(groups.head),
        "mid_acc": group_acc(groups.mid),
        "tail_acc": group_acc(groups.tail),
    }


# --------------------------------------------------------------------------
# checkpoints
# --------------------------------------------------------------------------

@dataclass
class Checkpoint:
    format_version: int
    config_hash: str
    config: ExperimentConfig
    epoch: int  # epochs completed when the snapshot was taken
    metrics: tuple[MetricsRecord, ...]  # the rows of epochs 1..epoch
    params: np.ndarray
    velocity: np.ndarray


def save_checkpoint(ckpt: Checkpoint, path) -> None:
    write_json(path, dict(vars(ckpt), config=config_to_dict(ckpt.config),
                          metrics=[vars(r) for r in ckpt.metrics],
                          params=[format_float(x) for x in ckpt.params],
                          velocity=[format_float(x) for x in ckpt.velocity]), indent=None)


def load_checkpoint(path) -> Checkpoint:
    payload = _load_json(path, CheckpointError, "checkpoint")
    if not isinstance(payload, dict):
        raise CheckpointError("corrupt checkpoint: not a JSON object")
    version = payload.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format_version {version!r} != supported {CHECKPOINT_FORMAT_VERSION}"
        )
    try:
        ckpt = _record(Checkpoint, payload, "checkpoint")
    except ConfigError as exc:
        raise CheckpointError(f"corrupt checkpoint: {exc}") from exc
    echo_hash = config_hash(ckpt.config)
    if echo_hash != ckpt.config_hash:
        raise CheckpointError(f"corrupt checkpoint: its config hashes to {echo_hash}, "
                              f"not to its config_hash {ckpt.config_hash}")
    _, dim = param_layout(ckpt.config.model)
    for name in ("params", "velocity"):
        values = getattr(ckpt, name)
        if len(values) != dim:
            raise CheckpointError(f"corrupt checkpoint: {name} holds {len(values)} "
                                  f"values, not the model's {dim}")
        if not np.all(np.isfinite(values)):
            raise CheckpointError(f"corrupt checkpoint: {name} holds a non-finite value")
    if not 0 <= ckpt.epoch <= ckpt.config.epochs:
        raise CheckpointError(f"corrupt checkpoint: epoch {ckpt.epoch} lies outside "
                              f"[0, {ckpt.config.epochs}]")
    epochs = [r.epoch for r in ckpt.metrics]
    if epochs != list(range(1, ckpt.epoch + 1)):
        raise CheckpointError(f"corrupt checkpoint: metrics holds the rows of epochs "
                              f"{reprlib.repr(epochs)}, not of 1..{ckpt.epoch}")
    k = ckpt.config.dataset.num_classes
    if any(len(r.per_class_acc) != k or len(r.per_class_loss) != k for r in ckpt.metrics):
        raise CheckpointError(f"corrupt checkpoint: a metrics row's per-class values "
                              f"are not one for each of {k} classes")
    # a row's code_version may differ: a resume under newer code is legitimate
    hashes = sorted({r.config_hash for r in ckpt.metrics} - {ckpt.config_hash})
    if hashes:
        raise CheckpointError(f"corrupt checkpoint: metrics holds rows of config_hash "
                              f"{reprlib.repr(hashes)}, not only of {ckpt.config_hash}")
    return ckpt


# --------------------------------------------------------------------------
# the training loop
# --------------------------------------------------------------------------

@dataclass
class RunResult:
    params: np.ndarray
    metrics: list
    config_hash: str
    dataset: LabeledDataset
    groups: ClassGroups
    artifacts: list


def _build_data(cfg: ExperimentConfig, root: SeededRng):
    ds = generate(cfg.dataset.profile(), cfg.dataset.geometry(), root.child("datagen"))
    test = balanced_test_split(ds, cfg.dataset.test_per_class, root.child("testgen"))
    groups = split_head_mid_tail(ds.class_counts, cfg.groups.hi, cfg.groups.lo)
    return ds, test, groups


def _snapshot_meta(ckpt: Checkpoint) -> dict:
    return {"epoch": ckpt.epoch, "seed": ckpt.config.seed, "config_hash": ckpt.config_hash,
            "code_version": CODE_VERSION}


def _spectrum_names(epoch: int, classes) -> list:
    """spectrum_<epoch>_class<id|all>.{csv,json}: `classes`, then the full dataset."""
    return [f"spectrum_{epoch}_class{c}.{ext}" for c in [*classes, "all"]
            for ext in ("csv", "json")]


def _cnc_names(epoch: int) -> list:
    return [f"cnc_{epoch}.csv", f"cnc_{epoch}.json"]


def _checkpoint_name(epoch: int) -> str:
    return f"checkpoint_{epoch}.json"


def _snapshot_names(cfg: ExperimentConfig, num_classes: int, epoch: int) -> list:
    """The files a run writes after `epoch` completed epochs: spectra and the
    CNC report at their scheduled epochs, and a checkpoint, last, with each of
    those and at the last epoch."""
    names = []
    if epoch in cfg.spectrum_epochs:
        names += _spectrum_names(epoch, range(num_classes))
    if epoch in cfg.cnc_epochs:
        names += _cnc_names(epoch)
    if names or epoch == cfg.epochs:
        names.append(_checkpoint_name(epoch))
    return names


def write_spectrum_snapshot(ckpt: Checkpoint, ds: LabeledDataset, out: Path, classes) -> list:
    """Class-wise spectra for `classes` plus the full-dataset entry, written as
    spectrum_<epoch>_class<id|all>.{csv,json}; returns those entries."""
    cfg = ckpt.config
    entries = classwise_spectrum_report(
        cfg.model, ckpt.params, ds, cfg.loss.bind(ds.class_counts), classes,
        cfg.spectral, SeededRng(cfg.seed).child("spectrum", ckpt.epoch),
    )
    meta = dict(_snapshot_meta(ckpt), generalized_hessian=cfg.model.activation == "relu")
    names = _spectrum_names(ckpt.epoch, classes)
    for entry, csv_name, json_name in zip(entries, names[::2], names[1::2], strict=True):
        save_spectrum(entry, out / csv_name, out / json_name, meta)
    return entries


def write_cnc_snapshot(ckpt: Checkpoint, ds: LabeledDataset, out: Path) -> list:
    """Theorem-1 report after the checkpoint's epochs, written as
    cnc_<epoch>.{csv,json}; returns its rows. It probes the objective of the
    last epoch trained (epoch - 1, or 0 before any): its DRW class weights
    and, unless the config's cnc.rhos are set, its rho."""
    cfg = ckpt.config
    loss, rho = cfg.objective(max(ckpt.epoch - 1, 0), cfg.loss.bind(ds.class_counts))
    rows = theorem1_report(cfg.model, ckpt.params, ds, loss, cfg.cnc.rhos or (rho,),
                           cfg.cnc, SeededRng(cfg.seed).child("cnc", ckpt.epoch), cfg.spectral)
    names = _cnc_names(ckpt.epoch)
    save_theorem1_report(rows, out / names[0], out / names[1], cfg.cnc, cfg.spectral,
                         meta=_snapshot_meta(ckpt))
    return rows


@blas_threads()
def run_experiment(cfg: ExperimentConfig, out_dir, resume_from=None) -> RunResult:
    """Execute the configured run end to end into out_dir, writing
    metrics.csv, each epoch's snapshots and checkpoint as _snapshot_names
    lists them, and summary.json.

    A run starts from a Checkpoint: epoch 0's, or that of `resume_from`. A
    resume from a checkpoint of epoch E continues its run's history: the
    checkpoint's E metrics rows open the new metrics.csv, and resumed in the
    checkpoint's own directory, the run's earlier snapshots stay among its
    artifacts. A resume with no epoch left writes its checkpoint into out_dir."""
    out = Path(out_dir)
    chash = config_hash(cfg)
    root = SeededRng(cfg.seed)
    ds, test, groups = _build_data(cfg, root)
    base_loss = cfg.loss.bind(ds.class_counts)
    blocks, dim = param_layout(cfg.model)

    # every read a resume makes comes before the first write, so a resume
    # that fails leaves nothing behind
    if resume_from is None:
        ckpt = Checkpoint(format_version=CHECKPOINT_FORMAT_VERSION, config_hash=chash,
                          config=cfg, epoch=0, metrics=(),
                          params=init_params(cfg.model, root.child("init")),
                          velocity=np.zeros(dim))
    else:
        ckpt = load_checkpoint(resume_from)
        if ckpt.config_hash != chash:
            raise CheckpointError(
                f"checkpoint config hash {ckpt.config_hash} != current config {chash}"
            )
    start_epoch = ckpt.epoch
    w = ckpt.params
    state = OptimizerState(velocity=ckpt.velocity.copy(),
                           rng=root.child("optnoise", start_epoch))
    metrics = list(ckpt.metrics)
    batches_rng = root.child("batches")
    artifacts: list = ["metrics.csv"]
    out.mkdir(parents=True, exist_ok=True)
    if resume_from is not None:
        if Path(resume_from).parent.resolve() == out.resolve():
            artifacts += [name for e in range(start_epoch + 1)
                          for name in _snapshot_names(cfg, ds.num_classes, e)]
        elif start_epoch == cfg.epochs:
            save_checkpoint(ckpt, out / _checkpoint_name(start_epoch))
            artifacts.append(_checkpoint_name(start_epoch))

    n = len(ds)
    steps_per_epoch = max(1, math.ceil(n / cfg.batch_size))

    def snapshot(epochs_done: int) -> None:
        names = _snapshot_names(cfg, ds.num_classes, epochs_done)
        if not names:
            return
        snap = dataclasses.replace(ckpt, epoch=epochs_done, metrics=tuple(metrics),
                                   params=w.copy(), velocity=state.velocity.copy())
        if epochs_done in cfg.spectrum_epochs:
            write_spectrum_snapshot(snap, ds, out, range(ds.num_classes))
        if epochs_done in cfg.cnc_epochs:
            write_cnc_snapshot(snap, ds, out)
        save_checkpoint(snap, out / names[-1])  # the checkpoint is the last name
        artifacts.extend(names)

    epoch = start_epoch
    step = 0
    # the header and the resumed rows replace metrics.csv whole, so a run
    # killed before its first row leaves the checkpoint's rows in place
    write_csv(out / "metrics.csv", MetricsRecord.csv_header(ds.num_classes),
              (r.csv_row() for r in metrics))
    try:
        with open(out / "metrics.csv", "a", newline="", encoding="utf-8") as metrics_fh:
            if resume_from is None:
                snapshot(0)
            for epoch in range(cfg.epochs):
                # every epoch draws its batch order, so a resume that skips
                # the epochs before its checkpoint replays their draws
                perm = batches_rng.permutation(n)
                if epoch < start_epoch:
                    continue
                state.rng = root.child("optnoise", epoch)
                epoch_loss, rho = cfg.objective(epoch, base_loss)
                loss_sum = 0.0
                gnorm_sum = 0.0
                for step in range(steps_per_epoch):
                    idx = perm[step * cfg.batch_size : (step + 1) * cfg.batch_size]
                    batch = Batch(ds.features[idx], ds.labels[idx])
                    lr = lr_at(cfg.lr, epoch, step, steps_per_epoch)

                    def grad_fn(x):
                        return loss_grad(cfg.model, x, batch, epoch_loss)

                    w, info = optimizer_step(cfg.optimizer, grad_fn, w, state, lr, rho, blocks)
                    loss_sum += info["loss"]
                    gnorm_sum += info["grad_norm"]

                record = MetricsRecord(
                    epoch=epoch + 1, train_loss=loss_sum / steps_per_epoch,
                    grad_norm=gnorm_sum / steps_per_epoch, lr=lr, rho=rho,
                    config_hash=chash, code_version=CODE_VERSION,
                    **evaluate(cfg.model, w, test, groups, base_loss),
                )
                metrics.append(record)
                metrics_fh.writelines(csv_lines([record.csv_row()]))
                metrics_fh.flush()
                snapshot(epoch + 1)
    except SaddleLabError as exc:
        raise RunAbortedError(
            f"run aborted at epoch {epoch}, step {step}: {exc}"
        ) from exc

    summary = {
        "config": config_to_dict(cfg),
        "config_hash": chash,
        "code_version": CODE_VERSION,
        "epochs_completed": len(metrics),
        "final": None if not metrics else {
            k: getattr(metrics[-1], k)
            for k in ("overall_acc", "head_acc", "mid_acc", "tail_acc", "train_loss")
        },
        "class_counts": list(ds.class_counts),
        "groups": {"head": list(groups.head), "mid": list(groups.mid),
                   "tail": list(groups.tail)},
        "artifacts": sorted(set(artifacts)),
    }
    write_json(out / "summary.json", summary)

    return RunResult(params=w, metrics=metrics, config_hash=chash, dataset=ds,
                     groups=groups, artifacts=summary["artifacts"])


# --------------------------------------------------------------------------
# rho sweep
# --------------------------------------------------------------------------

@dataclass
class SweepRow:
    rho: float
    overall_acc: float | None = None
    tail_acc: float | None = None
    tail_lambda_min: float | None = None
    error: str | None = None


@blas_threads()
def tail_lambda_min(cfg: ExperimentConfig, result: RunResult) -> float | None:
    """Mean minimum eigenvalue over the tail-group class Hessians at the final
    parameters (unweighted loss, matching the class-wise analysis), each
    from extreme_eigs with cfg.spectral's lanczos_iters and residual_tol."""
    if not result.groups.tail:
        return None
    loss = cfg.loss.bind(result.dataset.class_counts)
    vals = []
    for cid in result.groups.tail:
        batch = per_class_batch(result.dataset, cid)
        ex = extreme_eigs(Linearization(cfg.model, result.params, batch, loss),
                          cfg.spectral, SeededRng(cfg.seed).child("tail-eig", cid))
        vals.append(ex.lambda_min)
    return float(np.mean(vals))


def sweep_rho(base_cfg: ExperimentConfig, rho_values, out_dir) -> list:
    """One full run per rho (shared seed and data), collecting overall/tail
    accuracy and the final tail-class minimum eigenvalue. A cell that fails
    with a SaddleLabError is recorded in its row and the sweep continues; any
    other exception is a bug and propagates."""
    rho_values = list(rho_values)
    if not rho_values:
        raise ParameterError("rho_values must be non-empty")
    # every cell's config is built, and so checked, before the first output
    cfgs = [dataclasses.replace(
        base_cfg,
        optimizer=dataclasses.replace(base_cfg.optimizer, rho=rho, rho_drw=rho),
        rho_schedule=RhoSchedule(),
    ) for rho in rho_values]
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = []
    for i, (rho, cfg) in enumerate(zip(rho_values, cfgs)):
        try:
            result = run_experiment(cfg, out_dir=out / f"rho_{i}_{rho:g}")
            last = result.metrics[-1] if result.metrics else None
            rows.append(SweepRow(
                rho=rho,
                overall_acc=None if last is None else last.overall_acc,
                tail_acc=None if last is None else last.tail_acc,
                tail_lambda_min=tail_lambda_min(cfg, result),
            ))
        except SaddleLabError as exc:
            rows.append(SweepRow(rho=rho, error=str(exc)))
    write_csv(out / "sweep.csv", [f.name for f in dataclasses.fields(SweepRow)],
              (vars(r).values() for r in rows))
    return rows
