import numpy as np
import pytest

from saddlelab.errors import NumericError, ParameterError
from saddlelab.linalg import SeededRng
from saddlelab.model import ParamBlock
from saddlelab.optim import (
    LrSchedule,
    OptimizerConfig,
    OptimizerState,
    RhoSchedule,
    lr_at,
    optimizer_step,
    rho_at,
    sam_step,
    sgd_step,
)

A_SADDLE = np.diag([2.0, -1.0])
BLOCKS = (ParamBlock("w0", 0, (2,)),)  # one block over the whole 2-vector


def quad_grad_fn(a):
    def fn(w):
        return 0.5 * float(w @ (a @ w)), a @ w
    return fn


def fresh_state(dim, seed=0, stream="noise"):
    return OptimizerState(velocity=np.zeros(dim), rng=SeededRng(seed).child(stream))


def test_sgd_no_momentum_unit_lr():
    w = np.array([1.0, 2.0])
    g = np.array([0.5, -0.5])
    state = fresh_state(2)
    assert np.array_equal(sgd_step(w, g, state, lr=1.0, momentum=0.0), w - g)


def test_sgd_fixed_point():
    w = np.array([3.0, -4.0])
    state = fresh_state(2)
    assert np.array_equal(sgd_step(w, np.zeros(2), state, lr=0.1, momentum=0.9), w)


def test_sgd_two_steps_match_hand_unrolled():
    w = np.array([1.0, -2.0, 0.5])
    g1 = np.array([0.3, 0.1, -0.2])
    g2 = np.array([-0.1, 0.4, 0.2])
    lr, mu = 0.05, 0.9
    state = fresh_state(3)
    w1 = sgd_step(w, g1, state, lr, mu)
    w2 = sgd_step(w1, g2, state, lr, mu)
    # hand recurrence: v1 = g1; w1 = w - lr v1; v2 = mu v1 + g2; w2 = w1 - lr v2
    v1 = g1
    e1 = w - lr * v1
    v2 = mu * v1 + g2
    e2 = e1 - lr * v2
    assert np.array_equal(w1, e1)
    assert np.array_equal(w2, e2)


def test_sgd_rejects_non_finite_grad():
    with pytest.raises(NumericError):
        sgd_step(np.zeros(2), np.array([np.nan, 0.0]), fresh_state(2), 0.1, 0.9)


def test_sam_unnormalized_quadratic_second_gradient():
    # w=(1,1): g1 = Aw = (2,-1); eps = 0.5*g1 = (1,-0.5); g2 = A(w+eps) = (4,-0.5)
    w = np.array([1.0, 1.0])
    state = fresh_state(2)
    new, info = sam_step(quad_grad_fn(A_SADDLE), w, state, lr=1.0, rho=0.5,
                         momentum=0.0, normalized=False)
    assert np.array_equal(state.velocity, np.array([4.0, -0.5]))
    assert np.array_equal(new, w - np.array([4.0, -0.5]))
    assert info["grad_norm"] == pytest.approx(np.sqrt(5.0))


def test_sam_normalized_equals_rescaled_unnormalized():
    w = np.array([0.7, -1.3])
    g1 = A_SADDLE @ w
    rho = 0.25
    s1 = fresh_state(2)
    s2 = fresh_state(2)
    w_norm, _ = sam_step(quad_grad_fn(A_SADDLE), w, s1, 0.1, rho,
                         momentum=0.0, normalized=True)
    w_unnorm, _ = sam_step(quad_grad_fn(A_SADDLE), w, s2, 0.1,
                           rho / float(np.linalg.norm(g1)),
                           momentum=0.0, normalized=False)
    assert np.allclose(w_norm, w_unnorm, rtol=1e-15, atol=0)


def test_sam_zero_rho_bitwise_sgd_trajectory():
    rng = SeededRng(3)
    a = rng.normal(size=(4, 4))
    a = (a + a.T) / 2
    fn = quad_grad_fn(a)
    w_sam = w_sgd = rng.normal(size=4)
    s_sam, s_sgd = fresh_state(4), fresh_state(4)
    for _ in range(25):
        w_sam, _ = sam_step(fn, w_sam, s_sam, 0.05, rho=0.0, momentum=0.9, normalized=True)
        _, g = fn(w_sgd)
        w_sgd = sgd_step(w_sgd, g, s_sgd, 0.05, 0.9)
    assert np.array_equal(w_sam, w_sgd)


def test_sam_zero_gradient_skips_perturbation():
    w = np.zeros(2)  # stationary point of the quadratic
    state = fresh_state(2)
    new, info = sam_step(quad_grad_fn(A_SADDLE), w, state, 0.1, rho=0.5,
                         momentum=0.9, normalized=True)
    assert info["eps_skipped"] is True
    assert np.array_equal(new, w)


def test_sam_step_gradient_count():
    # grad_fn is pure, so an unperturbed step reuses its first gradient
    fn = quad_grad_fn(A_SADDLE)
    calls = []

    def counted(w):
        calls.append(w)
        return fn(w)

    for w, rho, expected in ((np.array([0.3, -0.7]), 0.0, 1),
                             (np.array([0.3, -0.7]), 0.1, 2),
                             (np.zeros(2), 0.5, 1)):  # zero gradient: skipped
        calls.clear()
        sam_step(counted, w, fresh_state(2), 0.1, rho=rho, momentum=0.9, normalized=True)
        assert len(calls) == expected, rho


def test_pgd_zero_sigma_bitwise_sgd():
    fn = quad_grad_fn(A_SADDLE)
    w_pgd = w_sgd = np.array([1.0, 1.0])
    s_pgd, s_sgd = fresh_state(2), fresh_state(2)
    for _ in range(25):
        w_pgd, _ = optimizer_step(OptimizerConfig(kind="pgd", pgd_sigma=0.0), fn, w_pgd,
                                  s_pgd, 0.05, rho=0.0, blocks=BLOCKS)
        _, g = fn(w_sgd)
        w_sgd = sgd_step(w_sgd, g, s_sgd, 0.05, 0.9)
    assert np.array_equal(w_pgd, w_sgd)


def test_pgd_deterministic_replay():
    def run():
        fn = quad_grad_fn(A_SADDLE)
        w = np.array([1.0, 1.0])
        state = fresh_state(2, seed=9)
        for _ in range(10):
            w, _ = optimizer_step(OptimizerConfig(kind="pgd", pgd_sigma=1e-3), fn, w,
                                  state, 0.05, rho=0.0, blocks=BLOCKS)
        return w
    assert np.array_equal(run(), run())


def test_pgd_perturbed_gradient_mean_matches_closed_form():
    # E[A(w + xi)] = Aw for xi ~ N(0, sigma^2 I); check within 3 standard errors
    rng = SeededRng(11).child("noise")
    w = np.array([1.0, 1.0])
    sigma = 0.5
    draws = 10_000
    grads = np.array([A_SADDLE @ (w + rng.normal(size=2, std=sigma))
                      for _ in range(draws)])
    mean = grads.mean(axis=0)
    se = grads.std(axis=0, ddof=1) / np.sqrt(draws)
    assert np.all(np.abs(mean - A_SADDLE @ w) <= 3 * se)


def test_lpf_zero_radius_bitwise_sgd():
    fn = quad_grad_fn(A_SADDLE)
    w_lpf = w_sgd = np.array([1.0, 1.0])
    s_lpf, s_sgd = fresh_state(2), fresh_state(2)
    for _ in range(25):
        w_lpf, _ = optimizer_step(OptimizerConfig(kind="lpfsgd", lpf_mc_iters=3,
                                                  lpf_radius=0.0),
                                  fn, w_lpf, s_lpf, 0.05, rho=0.0, blocks=BLOCKS)
        _, g = fn(w_sgd)
        w_sgd = sgd_step(w_sgd, g, s_sgd, 0.05, 0.9)
    assert np.array_equal(w_lpf, w_sgd)


def test_lpf_single_iter_equals_matched_manual_perturbation():
    # M=1 is one gradient at w + xi with block std radius*||w_block||/sqrt(size)
    fn = quad_grad_fn(A_SADDLE)
    w = np.array([1.0, 1.0])
    radius = 0.01
    state = fresh_state(2, seed=21)
    new, _ = optimizer_step(OptimizerConfig(kind="lpfsgd", lpf_mc_iters=1, lpf_radius=radius,
                                            momentum=0.0),
                            fn, w, state, 0.1, rho=0.0, blocks=BLOCKS)
    std = radius * np.linalg.norm(w) / np.sqrt(2)
    xi = SeededRng(21).child("noise").normal(size=2) * std
    _, g = fn(w + xi)
    assert np.array_equal(new, w - 0.1 * g)


def test_lpf_smoothing_error_linear_in_radius():
    # for a linear gradient field the Monte-Carlo error of the averaged
    # gradient scales exactly with the radius when the draws are shared;
    # with lr=1 and no momentum, g_avg = w - w_next
    fn = quad_grad_fn(A_SADDLE)
    w = np.array([1.0, 1.0])
    exact = A_SADDLE @ w
    errs = []
    for radius in (1e-1, 1e-2, 1e-3):
        state = fresh_state(2, seed=33)
        new, _ = optimizer_step(OptimizerConfig(kind="lpfsgd", lpf_mc_iters=64,
                                                lpf_radius=radius, momentum=0.0),
                                fn, w, state, 1.0, rho=0.0, blocks=BLOCKS)
        errs.append(np.linalg.norm((w - new) - exact))
    assert errs[0] / errs[1] == pytest.approx(10.0, rel=1e-9)
    assert errs[1] / errs[2] == pytest.approx(10.0, rel=1e-9)


def test_lr_warmup_endpoint():
    sched = LrSchedule(base_lr=0.1, warmup_epochs=5)
    assert lr_at(sched, 5, 0, 10) == 0.1
    # last warmup step reaches base exactly
    assert lr_at(sched, 4, 9, 10) == pytest.approx(0.1, rel=1e-15)
    assert lr_at(sched, 0, 0, 10) == pytest.approx(0.1 / 50, rel=1e-15)


def test_lr_milestone_product():
    sched = LrSchedule(base_lr=0.1, milestones=((160, 0.01),))
    assert lr_at(sched, 170) == pytest.approx(0.001, rel=1e-15)
    assert lr_at(sched, 159) == pytest.approx(0.1, rel=1e-15)
    two = LrSchedule(base_lr=0.1, milestones=((160, 0.001), (180, 0.1)))
    assert lr_at(two, 185) == pytest.approx(1e-5, rel=1e-12)


def test_lr_constant_without_schedule():
    sched = LrSchedule(base_lr=0.05)
    assert lr_at(sched, 0) == 0.05
    assert lr_at(sched, 999) == 0.05


def test_rho_schedule_steps():
    sched = RhoSchedule(steps=((0, 0.05), (5, 0.1), (60, 0.5)))
    assert rho_at(sched, 70) == 0.5
    assert rho_at(sched, 5) == 0.1
    assert rho_at(sched, 4) == 0.05


def test_rho_schedule_constant_and_before_first():
    assert rho_at(RhoSchedule(steps=((0, 0.3),)), 100) == 0.3
    assert rho_at(RhoSchedule(steps=((10, 0.3),)), 5) == 0.0


@pytest.mark.parametrize("steps", [((1,),), (5,), ((1, 0.1), (1, 0.2)), ((2, 0.1), (1, 0.2))],
                         ids=["one-item", "not-a-pair", "repeated-epoch", "decreasing"])
@pytest.mark.parametrize("schedule", [lambda s: LrSchedule(base_lr=0.1, milestones=s),
                                      lambda s: RhoSchedule(steps=s)], ids=["lr", "rho"])
def test_step_lists_are_increasing_pairs(schedule, steps):
    with pytest.raises(ParameterError):
        schedule(steps)


def test_optimizer_config_validation():
    with pytest.raises(ParameterError):
        OptimizerConfig(momentum=1.0)
    with pytest.raises(ParameterError):
        OptimizerConfig(rho=0.5, rho_drw=0.1)
    with pytest.raises(ParameterError):
        OptimizerConfig(lpf_mc_iters=0)
    assert OptimizerConfig(rho=0.2).effective_rho_drw == 0.2
    assert OptimizerConfig(rho=0.2, rho_drw=0.5).effective_rho_drw == 0.5


def test_lr_zero_is_fixed_point_for_all_optimizers():
    fn = quad_grad_fn(A_SADDLE)
    w = np.array([0.4, -0.9])
    for step in ("sgd", "sam", "pgd", "lpf"):
        state = fresh_state(2, seed=50)
        if step == "sgd":
            _, g = fn(w)
            new = sgd_step(w, g, state, 0.0, 0.9)
        elif step == "sam":
            new, _ = sam_step(fn, w, state, 0.0, rho=0.3, momentum=0.9, normalized=True)
        elif step == "pgd":
            new, _ = optimizer_step(OptimizerConfig(kind="pgd", pgd_sigma=0.1), fn, w, state,
                                    0.0, rho=0.0, blocks=BLOCKS)
        else:
            new, _ = optimizer_step(OptimizerConfig(kind="lpfsgd", lpf_mc_iters=4,
                                                    lpf_radius=0.1),
                                    fn, w, state, 0.0, rho=0.0, blocks=BLOCKS)
        assert np.array_equal(new, w)
