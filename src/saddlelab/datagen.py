"""Synthetic class-imbalanced Gaussian-mixture datasets.

Long-tail profiles decay class counts exponentially so the last class holds
exactly n_max/beta samples (before rounding); step profiles give the frequent
half n_max each and the minority half n_max/beta each. Class means sit on a
circle or on regular-simplex vertices; samples are isotropic Gaussians.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    GeometryError,
    InfeasibleProfileError,
    ParameterError,
)
from .linalg import SeededRng
from .model import Batch

LONGTAIL = "longtail"
STEP = "step"

CIRCLE = "circle"
SIMPLEX = "simplex"


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class ImbalanceProfile:
    kind: str
    num_classes: int
    n_max: int
    beta: float

    def __post_init__(self):
        if self.kind not in (LONGTAIL, STEP):
            raise ParameterError(f"unknown profile kind {self.kind!r}")
        if self.num_classes < 2:
            raise ParameterError("num_classes must be >= 2")
        if self.n_max < 1:
            raise ParameterError("n_max must be >= 1")
        if not (math.isfinite(self.beta) and self.beta >= 1.0):
            raise ParameterError("beta must be finite and >= 1")


@dataclass(frozen=True)
class ClassGeometry:
    input_dim: int
    class_mean_radius: float = 3.0
    within_class_std: float = 1.0
    mean_placement: str = CIRCLE

    def __post_init__(self):
        if self.input_dim < 1:
            raise ParameterError("input_dim must be >= 1")
        if not (math.isfinite(self.class_mean_radius) and self.class_mean_radius > 0):
            raise ParameterError("class_mean_radius must be finite and > 0")
        if not (math.isfinite(self.within_class_std) and self.within_class_std >= 0):
            raise ParameterError("within_class_std must be finite and >= 0")
        if self.mean_placement not in (CIRCLE, SIMPLEX):
            raise ParameterError(f"unknown mean_placement {self.mean_placement!r}")

    def check_fits(self, num_classes: int) -> None:
        """Raise GeometryError unless num_classes means fit in input_dim."""
        if self.mean_placement == CIRCLE and self.input_dim < 2:
            raise GeometryError("circle placement needs input_dim >= 2")
        if self.mean_placement == SIMPLEX and self.input_dim < num_classes - 1:
            raise GeometryError(
                f"simplex placement of {num_classes} classes needs input_dim >= {num_classes - 1}"
            )


@dataclass(frozen=True)
class DatasetConfig(ClassGeometry, ImbalanceProfile):
    """The config's dataset section: a profile and a geometry whose classes
    fit it, plus the balanced test split's per-class size. It is both
    records, so profile() and geometry() return it."""

    test_per_class: int = 200

    def __post_init__(self):
        if self.test_per_class < 1:
            raise ParameterError("test_per_class must be >= 1")
        ImbalanceProfile.__post_init__(self)
        class_counts(self)  # raises on an infeasible profile
        ClassGeometry.__post_init__(self)
        self.check_fits(self.num_classes)

    def profile(self) -> ImbalanceProfile:
        return self

    def geometry(self) -> ClassGeometry:
        return self


@dataclass
class LabeledDataset(Batch):
    """A Batch of every drawn sample, with the class counts and geometry it
    was drawn from."""

    class_counts: tuple
    geometry: ClassGeometry

    def __post_init__(self):
        super().__post_init__()
        observed = np.bincount(self.labels, minlength=len(self.class_counts))
        if tuple(int(c) for c in observed) != tuple(int(c) for c in self.class_counts):
            raise DimensionError("class_counts do not match the labels")

    @property
    def num_classes(self) -> int:
        return len(self.class_counts)


@dataclass(frozen=True)
class ClassGroups:
    head: tuple
    mid: tuple
    tail: tuple


@dataclass(frozen=True)
class GroupThresholds:
    """The config's groups section: head n_j > hi, tail n_j < lo, rest mid.
    None scales from the largest class: hi = n_max/3.3, lo = n_max/20."""

    hi: float | None = None
    lo: float | None = None

    def split(self, counts) -> ClassGroups:
        """Group the classes of counts by frequency. An effective hi below
        lo, which would put classes under lo in the head, raises."""
        counts = list(counts)
        if not counts:
            raise ParameterError("counts must be non-empty")
        n_max = max(counts)
        hi = n_max / 3.3 if self.hi is None else self.hi
        lo = n_max / 20.0 if self.lo is None else self.lo
        if hi < lo:
            raise ParameterError(f"groups hi {hi:g} is below lo {lo:g}")
        head, mid, tail = [], [], []
        for j, n_j in enumerate(counts):
            if n_j > hi:
                head.append(j)
            elif n_j < lo:
                tail.append(j)
            else:
                mid.append(j)
        return ClassGroups(tuple(head), tuple(mid), tuple(tail))


def class_counts(profile: ImbalanceProfile):
    """Per-class sample counts for a profile (rounded half-up)."""
    c = profile.num_classes
    if profile.kind == LONGTAIL:
        counts = [
            _round_half_up(profile.n_max * profile.beta ** (-j / (c - 1)))
            for j in range(c)
        ]
    else:
        n_min = _round_half_up(profile.n_max / profile.beta)
        head = -(-c // 2)  # ceil
        counts = [profile.n_max] * head + [n_min] * (c - head)
    if min(counts) < 1:
        raise InfeasibleProfileError(
            f"smallest class rounds to {min(counts)} samples (n_max={profile.n_max}, beta={profile.beta})"
        )
    return tuple(counts)


def class_means(geom: ClassGeometry, num_classes: int) -> np.ndarray:
    """Deterministic class-mean placement at class_mean_radius from origin."""
    geom.check_fits(num_classes)
    r = geom.class_mean_radius
    means = np.zeros((num_classes, geom.input_dim))
    if geom.mean_placement == CIRCLE:
        angles = 2.0 * np.pi * np.arange(num_classes) / num_classes
        means[:, 0] = r * np.cos(angles)
        means[:, 1] = r * np.sin(angles)
        return means
    # regular simplex: centered unit vectors e_i - 1/C mapped into the
    # (C-1)-dim sum-zero subspace via a Helmert basis, then scaled to radius r
    c = num_classes
    centered = np.eye(c) - 1.0 / c
    helmert = np.zeros((c - 1, c))
    for i in range(1, c):
        helmert[i - 1, :i] = 1.0
        helmert[i - 1, i] = -i
        helmert[i - 1] /= np.sqrt(i * (i + 1))
    verts = centered @ helmert.T  # (c, c-1), pairwise equidistant
    verts *= r / np.linalg.norm(verts[0])
    means[:, : c - 1] = verts
    return means


def _sample(geom: ClassGeometry, counts, rng: SeededRng):
    """(features, labels): counts[j] isotropic-Gaussian draws around class
    mean j, class by class."""
    means = class_means(geom, len(counts))
    feats = [means[j] + rng.normal(size=(n_j, geom.input_dim), std=geom.within_class_std)
             for j, n_j in enumerate(counts)]
    labels = [np.full(n_j, j, dtype=np.intp) for j, n_j in enumerate(counts)]
    return np.vstack(feats), np.concatenate(labels)


def generate(profile: ImbalanceProfile, geom: ClassGeometry, rng: SeededRng) -> LabeledDataset:
    """Draw the dataset: counts[j] isotropic-Gaussian samples around mean j."""
    counts = class_counts(profile)
    return LabeledDataset(
        *_sample(geom, counts, rng),
        class_counts=counts,
        geometry=geom,
    )


def balanced_test_split(ds: LabeledDataset, per_class: int, rng: SeededRng) -> LabeledDataset:
    """A test set of per_class fresh draws per class from ds's geometry; ds
    itself is left as it is (nothing is removed from it)."""
    if per_class < 1:
        raise ParameterError("per_class must be >= 1")
    counts = (per_class,) * ds.num_classes
    return LabeledDataset(
        *_sample(ds.geometry, counts, rng),
        class_counts=counts,
        geometry=ds.geometry,
    )
