"""Class-imbalance losses over logits: weighted cross-entropy with deferred
re-weighting, margin-adjusted softmax (per-class margins shrinking as
n_j^(-1/4)), and vector-scaling (multiplicative + additive logit adjustments).

All three reduce to plain cross-entropy when their adjustments vanish, and all
gradients are exact closed forms (softmax computed with max subtraction).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, NumericError, ParameterError

CE = "ce"
LDAM = "ldam"
VS = "vs"
VARIANTS = (CE, LDAM, VS)


@dataclass(frozen=True)
class LossSpec:
    """Loss family plus the per-class quantities it derives from sample counts.

    class_weights are optional raw per-class weights (e.g. from the deferred
    re-weighting schedule); each sample is weighted by its class's weight,
    normalized inside the loss, so only their ratios matter.
    """

    variant: str = CE
    class_counts: tuple = ()
    class_weights: tuple | None = None
    ldam_max_margin: float = 0.5
    vs_gamma: float = 0.05
    vs_tau: float = 0.75

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ParameterError(f"unknown loss variant {self.variant!r}")
        if len(self.class_counts) == 0:
            raise ParameterError("class_counts must be non-empty")
        if any(c <= 0 for c in self.class_counts):
            raise ParameterError("class_counts must be strictly positive")
        if self.class_weights is not None:
            if len(self.class_weights) != len(self.class_counts):
                raise DimensionError("class_weights length != num classes")
            if any(w <= 0 for w in self.class_weights):
                raise ParameterError("class_weights must be strictly positive")
        if self.ldam_max_margin < 0:
            raise ParameterError("ldam_max_margin must be >= 0")

    @property
    def num_classes(self) -> int:
        return len(self.class_counts)

    def with_class_weights(self, weights) -> "LossSpec":
        return dataclasses.replace(
            self, class_weights=None if weights is None else tuple(float(w) for w in weights))


@dataclass(frozen=True)
class ReweightSchedule:
    """Uniform weights before threshold_epoch, inverse-frequency from it on."""

    threshold_epoch: int

    def __post_init__(self):
        if self.threshold_epoch < 0:
            raise ParameterError("threshold_epoch must be >= 0")


def drw_weights(sched: ReweightSchedule, counts, epoch: int) -> np.ndarray:
    """Raw per-class weights for per-class sample counts `counts`: all ones
    before the threshold, 1/n_j after.

    Callers normalize downstream (the loss divides by the weight sum), so the
    raw scale is immaterial.
    """
    if epoch < 0:
        raise ParameterError("epoch must be >= 0")
    counts = np.asarray(counts, dtype=np.float64)
    if epoch < sched.threshold_epoch:
        return np.ones_like(counts)
    return 1.0 / counts


def ldam_margins(counts, max_margin: float = 0.5) -> np.ndarray:
    """Per-class margins proportional to n_j^(-1/4), scaled so the rarest
    class gets exactly max_margin (0 degenerates to margin-free CE)."""
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts <= 0):
        raise ParameterError("counts must be strictly positive")
    if max_margin < 0:
        raise ParameterError("max_margin must be >= 0")
    inv4 = counts ** -0.25
    return max_margin * inv4 / inv4.max()


def vs_adjustments(counts, gamma: float, tau: float):
    """Multiplicative and additive logit adjustments from class frequencies:
    gamma_j = (n_j / n_max)^gamma, delta_j = tau * log(n_j / sum_k n_k)."""
    counts = np.asarray(counts, dtype=np.float64)
    if np.any(counts <= 0):
        raise ParameterError("counts must be strictly positive")
    mult = (counts / counts.max()) ** gamma
    add = tau * np.log(counts / counts.sum())
    return mult, add


def _adjusted_logits(spec: LossSpec, logits: np.ndarray, labels: np.ndarray):
    """Apply the variant's logit transform; returns (t, mult) where mult is the
    diagonal scaling that chain-rules gradients back to raw logits."""
    if spec.variant == CE:
        return logits, None
    if spec.variant == LDAM:
        t = logits.copy()
        margins = ldam_margins(spec.class_counts, spec.ldam_max_margin)
        t[np.arange(t.shape[0]), labels] -= margins[labels]
        return t, None
    mult, add = vs_adjustments(spec.class_counts, spec.vs_gamma, spec.vs_tau)
    return logits * mult + add, mult


@dataclass(frozen=True)
class LogitCurvature:
    """The loss layer's curvature at fixed logits: the softmax p, the
    normalized sample weights omega (as a column) and the VS multiplier
    (None for CE and LDAM, whose logit shift has no curvature)."""

    p: np.ndarray
    omega: np.ndarray
    mult: np.ndarray | None

    def rows(self, rows: slice) -> "LogitCurvature":
        """The curvature of those rows alone, as views."""
        return LogitCurvature(self.p[rows], self.omega[rows], self.mult)

    def apply(self, logits_tangent: np.ndarray) -> np.ndarray:
        """Directional derivative of grad_logits along logits_tangent."""
        tdot = logits_tangent if self.mult is None else logits_tangent * self.mult
        # d(softmax) along tdot: p*tdot - p*(p . tdot), row-wise
        inner = (self.p * tdot).sum(axis=1)
        pdot = self.p * (tdot - inner[:, None])
        grad_t_dot = pdot * self.omega
        return grad_t_dot if self.mult is None else grad_t_dot * self.mult


def loss_on_logits(spec: LossSpec, logits, labels):
    """Weighted mean loss and its exact gradient w.r.t. the logits.

    Each sample weighs spec.class_weights[label], or 1 without class weights;
    the weights are normalized by their sum, so uniform weights of any scale
    give the plain mean.
    """
    value, grad_logits, _ = loss_terms(spec, logits, labels)
    return value, grad_logits


def loss_terms(spec: LossSpec, logits, labels):
    """(value, grad_logits, LogitCurvature): loss_on_logits plus the loss-layer
    curvature at the same logits, which exact Hessian-vector products need."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.intp)
    n, k = logits.shape
    if labels.shape[0] != n:
        raise DimensionError("labels length != logits rows")
    if k != spec.num_classes:
        raise DimensionError(f"logits have {k} columns, loss expects {spec.num_classes}")
    if n and (labels.min() < 0 or labels.max() >= k):
        raise DimensionError(f"labels must lie in [0, {k})")
    if not np.all(np.isfinite(logits)):
        raise NumericError("non-finite logits")
    if spec.class_weights is None:
        w = np.ones(n)
    else:
        w = np.asarray(spec.class_weights, dtype=np.float64)[labels]
    wsum = w.sum()
    if wsum <= 0:
        raise ParameterError("sample weights must have positive sum")
    omega = w / wsum

    t, mult = _adjusted_logits(spec, logits, labels)
    t_shift = t - t.max(axis=1, keepdims=True)
    exp_t = np.exp(t_shift)
    denom = exp_t.sum(axis=1)
    p = exp_t / denom[:, None]
    rows = np.arange(n)
    per_sample = np.log(denom) - t_shift[rows, labels]
    value = float(np.dot(omega, per_sample))

    grad_t = p.copy()
    grad_t[rows, labels] -= 1.0
    grad_t *= omega[:, None]
    grad_logits = grad_t if mult is None else grad_t * mult
    return value, grad_logits, LogitCurvature(p, omega[:, None], mult)
