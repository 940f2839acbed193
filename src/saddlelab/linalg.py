"""Seeded random streams and the one writer every artifact goes through.

Artifacts are written whole: text streams into a sibling temp file that
os.replace then moves onto the target, so a reader (or a crash) sees the old
bytes or the new ones, never a torn file. JSON is sorted-key, CSV cells are
formatted by csv_cell, and floats carry 17 significant digits.

Random streams use numpy's counter-based Philox generator keyed by
``(stream_id << 64) | seed``; numpy pins the bit stream across platforms and
versions, and distinct keys give statistically independent streams. Frozen
draw values are asserted in the test suite as regression vectors.

blas_threads runs a block on one OpenBLAS thread: the program's large
batches get their second CPU from a second Lanczos worker instead (see
spectral), and one thread makes every block's bytes independent of the thread
count the process started with.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import os

import numpy as np
from numpy.random import Generator, Philox

from .errors import ParameterError

_MASK64 = (1 << 64) - 1

_THREAD_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
                   "openblas_{}_num_threads")


@functools.cache
def _openblas():
    """The (get, set) thread-count pair of the OpenBLAS numpy loaded, or None
    when no OpenBLAS is mapped into the process. Looked up on first use, so
    importing the package neither loads ctypes nor reads /proc."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    # numpy's own copy first, should another package have mapped a second one
    for path in sorted(paths, key=lambda p: ("numpy" not in p, p)):
        lib = ctypes.CDLL(path)
        for symbol in _THREAD_SYMBOLS:
            get = getattr(lib, symbol.format("get"), None)
            set_ = getattr(lib, symbol.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@contextlib.contextmanager
def blas_threads():
    """Run the block on one OpenBLAS thread and restore the count in force
    before on exit, also when the block raises. Does nothing when no OpenBLAS
    is found. The count is process-wide: blocks nest, and threads started
    inside a block run on one BLAS thread each.

    So blocks must not interleave across threads: a thread that opens and
    closes its own block while another thread's block is open restores, on
    exit, a count the other thread still relies on. Start a helper thread
    inside its caller's block and join it before that block ends, as the
    spectral density's probe worker does."""
    blas = _openblas()
    if blas is None:
        yield
        return
    get, set_ = blas
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def format_float(x) -> str:
    """17 significant digits: enough to round-trip any float64 exactly."""
    return format(float(x), ".17g")


def csv_cell(v) -> str:
    """One CSV cell: a float via format_float, None empty, a bool 0 or 1, and
    anything else as text with ',' -> ';' and newlines -> spaces."""
    if isinstance(v, float):  # covers np.float64; tested first, it is the common case
        return format(v, ".17g")  # format_float, without its float() conversion
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    return str(v).replace(",", ";").replace("\n", " ")


def csv_lines(rows):
    """Each row of cells as one comma-separated, newline-terminated line."""
    for row in rows:
        yield ",".join(map(csv_cell, row)) + "\n"


def write_text(path, chunks) -> None:
    """Stream text chunks into path's sibling <name>.tmp, then os.replace it
    onto path. If writing raises, the temp file is removed and path keeps its
    old bytes; an OSError that names a file is raised again naming path."""
    path = os.fspath(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(exc, OSError) and exc.filename is not None:
            raise type(exc)(exc.errno, exc.strerror, path) from exc
        raise


def write_csv(path, header, rows) -> None:
    """A header line, then one line per row of cells, written as write_text
    writes."""
    write_text(path, csv_lines(itertools.chain([header], rows)))


def write_json(path, obj, indent=1) -> None:
    """Sorted-key JSON plus a newline, encoded in chunks as json.dump does."""
    encoder = json.JSONEncoder(indent=indent, sort_keys=True)
    write_text(path, itertools.chain(encoder.iterencode(obj), ("\n",)))


def _mix64(*parts: int) -> int:
    """splitmix64-style mixer for deriving child stream ids."""
    h = 0x9E3779B97F4A7C15
    for p in parts:
        h = (h ^ (p & _MASK64)) * 0xBF58476D1CE4E5B9 & _MASK64
        h = (h ^ (h >> 27)) * 0x94D049BB133111EB & _MASK64
        h ^= h >> 31
    return h


def _tag_to_int(tag) -> int:
    if isinstance(tag, int):
        return tag & _MASK64
    # stable string hash (FNV-1a), independent of PYTHONHASHSEED
    h = 0xCBF29CE484222325
    for byte in str(tag).encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


class SeededRng:
    """Deterministic random stream identified by (seed, stream_id).

    Identical (seed, stream_id) pairs reproduce identical draw sequences;
    distinct stream_ids are independent. Single-owner mutable: do not share
    one instance across concurrent consumers, derive children instead.
    """

    def __init__(self, seed: int, stream_id: int = 0):
        if not 0 <= seed <= _MASK64:
            raise ParameterError(f"seed must lie within [0, 2**64), got {seed}")
        self.seed = int(seed)
        self.stream_id = int(stream_id) & _MASK64
        key = (self.stream_id << 64) | self.seed
        self.generator = Generator(Philox(key=key))

    def child(self, *tags) -> "SeededRng":
        """Independent stream derived deterministically from this one's identity."""
        ints = [self.stream_id] + [_tag_to_int(t) for t in tags]
        return SeededRng(self.seed, _mix64(*ints))

    def normal(self, size=None, std: float = 1.0):
        return self.generator.normal(scale=std, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self.generator.permutation(n)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self.generator.choice(n, size=size, replace=replace)
