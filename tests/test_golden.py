"""Golden digests: the sha256 of every file W1 (configs/quickstart.json) writes
through `train`, `spectrum --class all` and `cnc-check --rho 0,0.25,0.5` on
its checkpoint_40.json, against tests/golden_digests.json.

Bytes are only comparable on the same numpy build and OpenBLAS kernel, so the
file records numpy's version and the OpenBLAS version and core it was made
with, and the test skips, naming the field, where any of them differs.

A change that alters artifact bytes on purpose rewrites the file in the same
commit, from the checkout root:

    PYTHONPATH=src python -m tests.test_golden --write

which prints the files whose digest is new, removed or changed against the
file it replaces, or "no change".
"""

import ctypes
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from saddlelab.cli import main

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).with_name("golden_digests.json")
CONFIG = ROOT / "configs" / "quickstart.json"
CHECKPOINT = "train/checkpoint_40.json"


def environment() -> dict:
    """numpy's version and the version and core of the OpenBLAS it loaded
    (None where no OpenBLAS is found)."""
    env = {"numpy": np.__version__, "openblas": None, "openblas_core": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line and ".so" in line})
    except OSError:
        return env
    for path in paths:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_openblas_", "64_"), ("openblas_", "")):
            config = getattr(lib, f"{prefix}get_config{suffix}", None)
            core = getattr(lib, f"{prefix}get_corename{suffix}", None)
            if config is not None and core is not None:
                config.argtypes, core.argtypes = [], []
                config.restype = core.restype = ctypes.c_char_p
                env["openblas"] = config().decode().split()[1]  # "OpenBLAS <version> ..."
                env["openblas_core"] = core().decode()
                return env
    return env


def artifact_digests(out: Path) -> dict:
    """{path under out: sha256} of every file the three commands write there."""
    ckpt = str(out / CHECKPOINT)
    for argv in (["train", "--config", str(CONFIG), "--out", str(out / "train")],
                 ["spectrum", "--checkpoint", ckpt, "--class", "all",
                  "--out", str(out / "spectrum")],
                 ["cnc-check", "--checkpoint", ckpt, "--rho", "0,0.25,0.5",
                  "--out", str(out / "cnc")]):
        if main(argv) != 0:
            raise AssertionError(f"{argv[0]} failed")
    return {p.relative_to(out).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def changed_files(old: dict, new: dict) -> list:
    """Sorted names of the files whose digest differs between two {path:
    sha256} maps: new, removed or changed."""
    return sorted(name for name in old.keys() | new.keys() if old.get(name) != new.get(name))


def test_changed_files_names_new_removed_and_changed_digests():
    old = {"cnc/cnc.csv": "1", "train/metrics.csv": "2", "train/summary.json": "3"}
    new = {"cnc/cnc.csv": "1", "train/metrics.csv": "9", "train/extra.json": "4"}
    assert changed_files(old, new) == ["train/extra.json", "train/metrics.csv",
                                       "train/summary.json"]
    assert changed_files(old, dict(old)) == []


def test_w1_artifacts_match_their_golden_digests(tmp_path, capsys):
    golden = json.loads(DIGESTS.read_text(encoding="utf-8"))
    env = environment()
    differ = [f"{k}: {env[k]!r}, not {v!r}" for k, v in golden["environment"].items()
              if env[k] != v]
    if differ:
        pytest.skip(f"bytes are compared on the digests' build only; here {differ}")
    digests = artifact_digests(tmp_path)
    capsys.readouterr()
    changed = changed_files(golden["files"], digests)
    assert not changed, (f"these artifacts' bytes differ from {DIGESTS.name} "
                         f"(missing, new or changed): {changed}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: PYTHONPATH=src python -m tests.test_golden --write\n{__doc__}")
    old = json.loads(DIGESTS.read_text(encoding="utf-8"))["files"] if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        files = artifact_digests(Path(tmp))
    DIGESTS.write_text(json.dumps({"environment": environment(), "files": files},
                                  indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(files)} digests to {DIGESTS}")
    print("\n".join(changed_files(old, files)) or "no change")
