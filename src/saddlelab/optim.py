"""Optimizers compared in the saddle-escape study: momentum SGD, sharpness-aware
steps (normalized or unnormalized neighborhood), Gaussian-perturbed gradient
descent, and Monte-Carlo loss smoothing, plus learning-rate and neighborhood
schedules.

Step functions take a gradient callable ``grad_fn(w) -> (loss, grad)`` bound to
one mini-batch, mutate the optimizer state's momentum buffer, and return the
new parameter vector plus a per-step info dict. With their perturbations
switched off (rho / sigma / radius = 0) every optimizer takes the exact code
path of plain SGD, so trajectories degenerate bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError
from .linalg import SeededRng

SGD = "sgd"
SAM = "sam"
PGD = "pgd"
LPFSGD = "lpfsgd"
OPTIMIZER_KINDS = (SGD, SAM, PGD, LPFSGD)


@dataclass(frozen=True)
class OptimizerConfig:
    kind: str = SGD
    momentum: float = 0.9
    rho: float = 0.0
    rho_drw: float | None = None  # defaults to rho; must be >= rho when set
    sam_normalized: bool = True
    pgd_sigma: float = 1e-4
    lpf_mc_iters: int = 8
    lpf_radius: float = 1e-3

    def __post_init__(self):
        if self.kind not in OPTIMIZER_KINDS:
            raise ParameterError(f"unknown optimizer kind {self.kind!r}")
        if not 0.0 <= self.momentum < 1.0:
            raise ParameterError("momentum must be in [0, 1)")
        if self.rho < 0 or self.pgd_sigma < 0 or self.lpf_radius < 0:
            raise ParameterError("rho, pgd_sigma, lpf_radius must be >= 0")
        if self.rho_drw is not None and self.rho_drw < self.rho:
            raise ParameterError("rho_drw must be >= rho")
        if self.lpf_mc_iters < 1:
            raise ParameterError("lpf_mc_iters must be >= 1")

    @property
    def effective_rho_drw(self) -> float:
        return self.rho if self.rho_drw is None else self.rho_drw


def _check_steps(steps, what: str) -> None:
    """steps is ((epoch, value), ...) with strictly increasing epochs."""
    if not all(isinstance(s, (tuple, list)) and len(s) == 2 for s in steps):
        raise ParameterError(f"{what} must be (epoch, value) pairs")
    if [e for e, _ in steps] != sorted({e for e, _ in steps}):
        raise ParameterError(f"{what} epochs must be strictly increasing")


@dataclass(frozen=True)
class LrSchedule:
    base_lr: float
    warmup_epochs: int = 0
    milestones: tuple[tuple[int, float], ...] = ()  # ((epoch, multiplier), ...)

    def __post_init__(self):
        if self.base_lr < 0:
            raise ParameterError("base_lr must be >= 0")
        if self.warmup_epochs < 0:
            raise ParameterError("warmup_epochs must be >= 0")
        _check_steps(self.milestones, "milestones")
        if any(m <= 0 for _, m in self.milestones):
            raise ParameterError("milestone multipliers must be positive")


@dataclass(frozen=True)
class RhoSchedule:
    steps: tuple[tuple[int, float], ...] = ()  # ((start_epoch, rho_value), ...)

    def __post_init__(self):
        _check_steps(self.steps, "rho schedule steps")
        if any(v < 0 for _, v in self.steps):
            raise ParameterError("rho values must be >= 0")


@dataclass
class OptimizerState:
    velocity: np.ndarray
    rng: SeededRng  # optimizer noise; the training loop gives each epoch its own


def sgd_step(w, grad, state: OptimizerState, lr: float, momentum: float = 0.9):
    """velocity <- momentum*velocity + grad; w <- w - lr*velocity."""
    if not np.all(np.isfinite(grad)):
        raise NumericError("non-finite gradient in optimizer step")
    state.velocity = momentum * state.velocity + grad
    return w - lr * state.velocity


def sam_perturbation(g, rho: float, normalized: bool = True):
    """Offset from w to the first-order sharpest point of the rho-ball.

    normalized: eps = rho * g / ||g||  (the practical algorithm)
    unnormalized: eps = rho * g        (the form the amplification theory uses)
    None when there is nothing to perturb: rho = 0, or a zero gradient in
    normalized mode.
    """
    if rho == 0.0:
        return None
    if not normalized:
        return rho * g
    norm = float(np.linalg.norm(g))
    return None if norm == 0.0 else (rho / norm) * g


def sam_gradients(grad_fn, w, rho: float, normalized: bool = True):
    """(loss, g, eps, g_sam): the loss and gradient at w, the offset
    sam_perturbation takes from them, and the sharpness-aware gradient at
    w + eps on the same draw (grad_fn is bound to one batch). Without a
    perturbation eps is None and g_sam is g itself: grad_fn is pure, so that
    is the plain gradient, bitwise, for one evaluation instead of two."""
    loss, g = grad_fn(w)
    eps = sam_perturbation(g, rho, normalized)
    return loss, g, eps, g if eps is None else grad_fn(w + eps)[1]


def sam_step(grad_fn, w, state: OptimizerState, lr: float, rho: float,
             momentum: float = 0.9, normalized: bool = True):
    """Gradient at w + sam_perturbation(grad(w)). A zero first gradient in
    normalized mode skips the perturbation and is flagged in the info dict."""
    if rho < 0:
        raise ParameterError("rho must be >= 0")
    loss, g, eps, g_sam = sam_gradients(grad_fn, w, rho, normalized)
    info = {"loss": loss, "grad_norm": float(np.linalg.norm(g)),
            "eps_skipped": eps is None and rho != 0.0}
    return sgd_step(w, g_sam, state, lr, momentum), info


def _lpf_gradient(grad_fn, w, rng: SeededRng, opt: OptimizerConfig, blocks):
    """(loss, grad) averaged over opt.lpf_mc_iters evaluations at block-wise
    Gaussian perturbations with std = lpf_radius*||w_block||/sqrt(size): the
    Monte-Carlo smoothed gradient of LPF-SGD."""
    stds = np.empty(w.shape[0])
    for b in blocks:
        size = math.prod(b.shape)
        block = w[b.offset : b.offset + size]
        stds[b.offset : b.offset + size] = opt.lpf_radius * np.linalg.norm(block) / np.sqrt(size)
    g_sum = np.zeros_like(w)
    loss_sum = 0.0
    for _ in range(opt.lpf_mc_iters):
        xi = rng.normal(size=w.shape[0]) * stds
        loss_m, g_m = grad_fn(w + xi)
        g_sum += g_m
        loss_sum += loss_m
    return loss_sum / opt.lpf_mc_iters, g_sum / opt.lpf_mc_iters


def optimizer_step(opt: OptimizerConfig, grad_fn, w, state: OptimizerState, lr: float,
                   rho: float, blocks):
    """One step of the optimizer opt.kind; returns (new_w, info), where info
    holds at least the step's "loss" and "grad_norm". rho is the epoch's SAM
    radius and blocks param_layout's blocks, which LPF-SGD perturbs by. A kind
    only picks the gradient, PGD's at w + xi with xi ~ N(0, pgd_sigma^2 I);
    sgd_step applies it. A zero pgd_sigma or lpf_radius picks plain SGD's."""
    if opt.kind == SAM:
        return sam_step(grad_fn, w, state, lr, rho, opt.momentum, opt.sam_normalized)
    if opt.kind == PGD and opt.pgd_sigma != 0.0:
        loss, g = grad_fn(w + state.rng.normal(size=w.shape[0], std=opt.pgd_sigma))
    elif opt.kind == LPFSGD and opt.lpf_radius != 0.0:
        loss, g = _lpf_gradient(grad_fn, w, state.rng, opt, blocks)
    else:
        loss, g = grad_fn(w)
    info = {"loss": loss, "grad_norm": float(np.linalg.norm(g))}
    return sgd_step(w, g, state, lr, opt.momentum), info


def lr_at(schedule: LrSchedule, epoch: int, step_in_epoch: int = 0,
          steps_per_epoch: int = 1) -> float:
    """Linear warmup to base_lr, then base_lr times the product of all
    milestone multipliers whose epoch has been reached."""
    if epoch < 0:
        raise ParameterError("epoch must be >= 0")
    if epoch < schedule.warmup_epochs:
        done = epoch * steps_per_epoch + step_in_epoch + 1
        return schedule.base_lr * done / (schedule.warmup_epochs * steps_per_epoch)
    lr = schedule.base_lr
    for milestone_epoch, mult in schedule.milestones:
        if epoch >= milestone_epoch:
            lr *= mult
    return lr


def rho_at(schedule: RhoSchedule, epoch: int) -> float:
    """Value of the last schedule step whose start epoch has been reached;
    0 before the first step."""
    if epoch < 0:
        raise ParameterError("epoch must be >= 0")
    value = 0.0
    for start, rho in schedule.steps:
        if epoch >= start:
            value = rho
    return value
