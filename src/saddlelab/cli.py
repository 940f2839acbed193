"""Command-line interface.

Subcommands: train, spectrum, cnc-check, sweep-rho, gen-data. Every failure
exits nonzero after printing a one-line machine-readable JSON error record to
stderr. Every override is applied here, as an edit of the config the library
then runs: --seed, cnc-check's --rho and --mode, and the output directory,
where the SADDLELAB_OUTPUT_DIR environment variable wins over --out, which
wins over the command's default.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .datagen import ClassGeometry, ImbalanceProfile, generate, save_dataset
from .errors import ParameterError, SaddleLabError
from .harness import (
    OUTPUT_DIR_ENV,
    _build_data,
    load_checkpoint,
    load_config,
    run_experiment,
    sweep_rho,
    write_cnc_snapshot,
    write_spectrum_snapshot,
)
from .linalg import SeededRng


def _parse_float_list(text: str):
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise SaddleLabError(f"could not parse float list {text!r}: {exc}") from exc
    if not all(map(math.isfinite, values)):
        raise SaddleLabError(f"float list {text!r} holds a non-finite value")
    return values


def _output_dir(out, default=None):
    """SADDLELAB_OUTPUT_DIR, else --out, else the command's default (None:
    the library's, from the config's output_dir)."""
    out = os.environ.get(OUTPUT_DIR_ENV) or out or default
    return None if out is None else Path(out)


def cmd_train(args) -> int:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, seed=args.seed)
    out = _output_dir(args.out, cfg.output_dir)
    result = run_experiment(cfg, out_dir=out, resume_from=args.resume)
    final = result.metrics[-1] if result.metrics else None
    print(f"run complete: {out}")
    if final is not None:
        tail = "" if final.tail_acc is None else f" tail_acc={final.tail_acc:.4f}"
        print(f"epoch {final.epoch}: overall_acc={final.overall_acc:.4f}{tail}")
    return 0


def _load_checkpoint_context(args):
    """Checkpoint, its run's training set, and the output directory (default:
    the checkpoint's own directory), not yet created."""
    ckpt = load_checkpoint(args.checkpoint)
    ds, _, _ = _build_data(ckpt.config, SeededRng(ckpt.config.seed))
    return ckpt, ds, _output_dir(args.out, Path(args.checkpoint).parent)


def _class_ids(text: str, num_classes: int):
    """--class: 'all', or one class index of the run."""
    if text == "all":
        return range(num_classes)
    try:
        cid = int(text)
    except ValueError:
        raise ParameterError(f"--class must be a class index or 'all', got {text!r}") from None
    if not 0 <= cid < num_classes:
        raise ParameterError(f"--class {cid} is out of range for {num_classes} classes")
    return [cid]


def cmd_spectrum(args) -> int:
    ckpt, ds, out = _load_checkpoint_context(args)
    classes = _class_ids(args.class_id, ds.num_classes)
    out.mkdir(parents=True, exist_ok=True)
    for e in write_spectrum_snapshot(ckpt, ds, out, classes):
        label = "full dataset" if e.class_id is None else f"class {e.class_id}"
        print(f"{label}: lambda_min={e.extremes.lambda_min:.6g} "
              f"lambda_max={e.extremes.lambda_max:.6g} "
              f"ratio={'n/a' if e.ratio is None else format(e.ratio, '.6g')}")
    print(f"wrote spectra to {out}")
    return 0


def cmd_cnc_check(args) -> int:
    rhos = tuple(_parse_float_list(args.rho))
    ckpt, ds, out = _load_checkpoint_context(args)
    # the report keeps the checkpoint's hash, as the run's own cnc_<epoch> does
    cfg = ckpt.config
    ckpt = dataclasses.replace(ckpt, config=dataclasses.replace(cfg, cnc=dataclasses.replace(
        cfg.cnc, rhos=rhos, mode=args.mode or cfg.cnc.mode)))
    out.mkdir(parents=True, exist_ok=True)
    for r in write_cnc_snapshot(ckpt, ds, out):
        ratio = ("n/a (CNC violation)" if r.measured_ratio is None
                 else f"{r.measured_ratio:.6g}")
        print(f"rho={r.rho:g}: measured_ratio={ratio} "
              f"predicted={r.predicted_factor:.6g} lambda_min={r.lambda_min:.6g}")
    print(f"wrote report to {out}")
    return 0


def cmd_sweep_rho(args) -> int:
    cfg = load_config(args.config)
    rows = sweep_rho(cfg, _parse_float_list(args.rhos), out_dir=_output_dir(args.out))
    fmt = lambda v, spec: "n/a" if v is None else format(v, spec)
    for r in rows:
        if r.error is not None:
            print(f"rho={r.rho:g}: FAILED ({r.error})")
        else:
            print(f"rho={r.rho:g}: overall_acc={fmt(r.overall_acc, '.4f')} "
                  f"tail_acc={fmt(r.tail_acc, '.4f')} "
                  f"tail_lambda_min={fmt(r.tail_lambda_min, '.6g')}")
    return 0


def cmd_gen_data(args) -> int:
    profile = ImbalanceProfile(kind=args.profile, num_classes=args.classes,
                               n_max=args.n_max, beta=args.beta)
    geom = ClassGeometry(input_dim=args.dim, class_mean_radius=args.radius,
                         within_class_std=args.std, mean_placement=args.placement)
    ds = generate(profile, geom, SeededRng(args.seed).child("datagen"))
    Path(args.out).parent.mkdir(parents=True, exist_ok=True)
    save_dataset(ds, args.out)
    print(f"wrote {len(ds)} samples across {ds.num_classes} classes to {args.out}")
    print(f"class counts: {list(ds.class_counts)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddlelab",
        description="Saddle-point diagnostics for class-imbalanced training.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one experiment from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--out", default=None, help="override the output directory")
    p.add_argument("--resume", default=None, help="resume from a checkpoint file")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("spectrum", help="class-wise spectrum at a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--class", dest="class_id", default="all", help="class index or 'all'")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("cnc-check", help="amplification-factor report at a checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--rho", required=True, help="comma-separated rho values")
    p.add_argument("--mode", choices=["unnormalized", "normalized"], default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_cnc_check)

    p = sub.add_parser("sweep-rho", help="repeat a run across rho values")
    p.add_argument("--config", required=True)
    p.add_argument("--rhos", required=True, help="comma-separated rho values")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sweep_rho)

    p = sub.add_parser("gen-data", help="generate and save a synthetic dataset")
    p.add_argument("--profile", choices=["longtail", "step"], required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--radius", type=float, default=3.0)
    p.add_argument("--std", type=float, default=1.0)
    p.add_argument("--placement", choices=["circle", "simplex"], default="circle")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_data)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the program rejects non-finite logits and gradients itself, so
        # numpy's floating-point warnings would only put lines on stderr
        # ahead of the one error record
        with np.errstate(all="ignore"):
            return args.fn(args)
    except (SaddleLabError, OSError) as exc:
        record = {"error": type(exc).__name__, "message": str(exc),
                  "command": args.command}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
