import numpy as np
import pytest

from saddlelab.errors import NumericError, ParameterError
from saddlelab.linalg import SeededRng
from saddlelab.losses import ReweightSchedule, drw_weights
from saddlelab.model import ParamBlock
from saddlelab.optim import (
    LrSchedule,
    OptimizerConfig,
    RhoSchedule,
    lr_at,
    optimizer_step,
    rho_at,
    sam_step,
    sgd_step,
)
from tests.test_cncverify import QuadraticSurrogate

A_SADDLE = np.diag([2.0, -1.0])
BLOCKS = (ParamBlock("w0", 0, (2,)),)  # one block over the whole 2-vector


def quad_grad_fn(a):
    def fn(w):
        return 0.5 * float(w @ (a @ w)), a @ w
    return fn


def noise(seed=0, stream="noise"):
    return SeededRng(seed).child(stream)


def sam_opt_step(grad_fn, w, velocity, lr, rho, momentum, normalized):
    opt = OptimizerConfig(kind="sam", momentum=momentum, sam_normalized=normalized)
    return optimizer_step(opt, grad_fn, w, velocity, noise(), lr, rho, BLOCKS)


def test_sgd_no_momentum_unit_lr():
    w = np.array([1.0, 2.0])
    g = np.array([0.5, -0.5])
    new, velocity = sgd_step(w, g, np.zeros(2), lr=1.0, momentum=0.0)
    assert np.array_equal(new, w - g)
    assert np.array_equal(velocity, g)


def test_sgd_fixed_point():
    w = np.array([3.0, -4.0])
    assert np.array_equal(sgd_step(w, np.zeros(2), np.zeros(2), lr=0.1, momentum=0.9)[0], w)


def test_sgd_two_steps_match_hand_unrolled():
    w = np.array([1.0, -2.0, 0.5])
    g1 = np.array([0.3, 0.1, -0.2])
    g2 = np.array([-0.1, 0.4, 0.2])
    lr, mu = 0.05, 0.9
    w1, v = sgd_step(w, g1, np.zeros(3), lr, mu)
    w2, v = sgd_step(w1, g2, v, lr, mu)
    # hand recurrence: v1 = g1; w1 = w - lr v1; v2 = mu v1 + g2; w2 = w1 - lr v2
    v1 = g1
    e1 = w - lr * v1
    v2 = mu * v1 + g2
    e2 = e1 - lr * v2
    assert np.array_equal(w1, e1)
    assert np.array_equal(w2, e2)
    assert np.array_equal(v, v2)


def test_sgd_rejects_non_finite_grad():
    with pytest.raises(NumericError):
        sgd_step(np.zeros(2), np.array([np.nan, 0.0]), np.zeros(2), 0.1, 0.9)


def test_sam_unnormalized_quadratic_second_gradient():
    # w=(1,1): g1 = Aw = (2,-1); eps = 0.5*g1 = (1,-0.5); g2 = A(w+eps) = (4,-0.5)
    w = np.array([1.0, 1.0])
    new, velocity, _, grad_norm = sam_opt_step(quad_grad_fn(A_SADDLE), w, np.zeros(2),
                                               lr=1.0, rho=0.5, momentum=0.0, normalized=False)
    assert np.array_equal(velocity, np.array([4.0, -0.5]))
    assert np.array_equal(new, w - np.array([4.0, -0.5]))
    assert grad_norm == pytest.approx(np.sqrt(5.0))


def test_sam_normalized_equals_rescaled_unnormalized():
    w = np.array([0.7, -1.3])
    g1 = A_SADDLE @ w
    rho = 0.25
    w_norm, _, _, _ = sam_opt_step(quad_grad_fn(A_SADDLE), w, np.zeros(2), 0.1, rho,
                                   momentum=0.0, normalized=True)
    w_unnorm, _, _, _ = sam_opt_step(quad_grad_fn(A_SADDLE), w, np.zeros(2), 0.1,
                                     rho / float(np.linalg.norm(g1)),
                                     momentum=0.0, normalized=False)
    assert np.allclose(w_norm, w_unnorm, rtol=1e-15, atol=0)


def test_sam_zero_rho_bitwise_sgd_trajectory():
    rng = SeededRng(3)
    a = rng.normal(size=(4, 4))
    a = (a + a.T) / 2
    fn = quad_grad_fn(a)
    w_sam = w_sgd = rng.normal(size=4)
    v_sam = v_sgd = np.zeros(4)
    for _ in range(25):
        w_sam, v_sam, _, _ = sam_opt_step(fn, w_sam, v_sam, 0.05, rho=0.0, momentum=0.9,
                                          normalized=True)
        _, g = fn(w_sgd)
        w_sgd, v_sgd = sgd_step(w_sgd, g, v_sgd, 0.05, 0.9)
    assert np.array_equal(w_sam, w_sgd)
    assert np.array_equal(v_sam, v_sgd)


def test_sam_zero_gradient_skips_perturbation():
    w = np.zeros(2)  # stationary point of the quadratic
    new, _, _, _ = sam_opt_step(quad_grad_fn(A_SADDLE), w, np.zeros(2), 0.1, rho=0.5,
                                momentum=0.9, normalized=True)
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
        sam_step(counted, w, rho=rho, normalized=True)
        assert len(calls) == expected, rho


# (config, rho) of every kind, SAM in both neighborhood forms with and without
# a perturbation
STEP_KINDS = {
    "sgd": (OptimizerConfig(kind="sgd"), 0.0),
    "sam-normalized-rho0": (OptimizerConfig(kind="sam"), 0.0),
    "sam-normalized": (OptimizerConfig(kind="sam"), 0.5),
    "sam-unnormalized-rho0": (OptimizerConfig(kind="sam", sam_normalized=False), 0.0),
    "sam-unnormalized": (OptimizerConfig(kind="sam", sam_normalized=False), 0.5),
    "pgd": (OptimizerConfig(kind="pgd", pgd_sigma=0.1), 0.0),
    "lpfsgd": (OptimizerConfig(kind="lpfsgd", lpf_mc_iters=4, lpf_radius=0.1), 0.0),
}


def _step_inputs():
    return np.array([0.4, -0.9]), np.array([0.2, 0.1])


@pytest.mark.parametrize("kind", STEP_KINDS)
def test_optimizer_step_modifies_no_argument(kind):
    opt, rho = STEP_KINDS[kind]
    w, velocity = _step_inputs()
    for array in (w, velocity):
        array.flags.writeable = False  # an in-place update raises
    new, new_velocity, _, _ = optimizer_step(opt, quad_grad_fn(A_SADDLE), w, velocity,
                                             noise(seed=7), 0.1, rho, BLOCKS)
    assert (w.tobytes(), velocity.tobytes()) == tuple(a.tobytes() for a in _step_inputs())
    assert not np.array_equal(new, w) and not np.array_equal(new_velocity, velocity)


@pytest.mark.parametrize("kind", STEP_KINDS)
def test_optimizer_step_is_a_function_of_its_inputs(kind):
    opt, rho = STEP_KINDS[kind]
    first, again = (optimizer_step(opt, quad_grad_fn(A_SADDLE), *_step_inputs(),
                                   noise(seed=7), 0.1, rho, BLOCKS) for _ in range(2))
    assert first[0].tobytes() == again[0].tobytes()
    assert first[1].tobytes() == again[1].tobytes()
    assert first[2:] == again[2:]


@pytest.mark.parametrize("normalized", [True, False], ids=["normalized", "unnormalized"])
def test_sam_at_rho_zero_is_the_sgd_step(normalized):
    fn = quad_grad_fn(A_SADDLE)
    sgd = optimizer_step(OptimizerConfig(kind="sgd"), fn, *_step_inputs(), noise(), 0.1, 0.0,
                         BLOCKS)
    sam = sam_opt_step(fn, *_step_inputs(), 0.1, rho=0.0, momentum=0.9, normalized=normalized)
    assert sam[0].tobytes() == sgd[0].tobytes()
    assert sam[1].tobytes() == sgd[1].tobytes()


def test_pgd_zero_sigma_bitwise_sgd():
    fn = quad_grad_fn(A_SADDLE)
    w_pgd = w_sgd = np.array([1.0, 1.0])
    v_pgd = v_sgd = np.zeros(2)
    rng = noise()
    for _ in range(25):
        w_pgd, v_pgd, _, _ = optimizer_step(OptimizerConfig(kind="pgd", pgd_sigma=0.0), fn, w_pgd,
                                            v_pgd, rng, 0.05, rho=0.0, blocks=BLOCKS)
        _, g = fn(w_sgd)
        w_sgd, v_sgd = sgd_step(w_sgd, g, v_sgd, 0.05, 0.9)
    assert np.array_equal(w_pgd, w_sgd)


def test_pgd_deterministic_replay():
    def run():
        fn = quad_grad_fn(A_SADDLE)
        w = np.array([1.0, 1.0])
        velocity, rng = np.zeros(2), noise(seed=9)
        for _ in range(10):
            w, velocity, _, _ = optimizer_step(OptimizerConfig(kind="pgd", pgd_sigma=1e-3), fn, w,
                                               velocity, rng, 0.05, rho=0.0, blocks=BLOCKS)
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
    v_lpf = v_sgd = np.zeros(2)
    rng = noise()
    for _ in range(25):
        w_lpf, v_lpf, _, _ = optimizer_step(OptimizerConfig(kind="lpfsgd", lpf_mc_iters=3,
                                                            lpf_radius=0.0),
                                            fn, w_lpf, v_lpf, rng, 0.05, rho=0.0, blocks=BLOCKS)
        _, g = fn(w_sgd)
        w_sgd, v_sgd = sgd_step(w_sgd, g, v_sgd, 0.05, 0.9)
    assert np.array_equal(w_lpf, w_sgd)


def test_lpf_single_iter_equals_matched_manual_perturbation():
    # M=1 is one gradient at w + xi with block std radius*||w_block||/sqrt(size)
    fn = quad_grad_fn(A_SADDLE)
    w = np.array([1.0, 1.0])
    radius = 0.01
    new, _, _, _ = optimizer_step(OptimizerConfig(kind="lpfsgd", lpf_mc_iters=1,
                                                  lpf_radius=radius, momentum=0.0),
                                  fn, w, np.zeros(2), noise(seed=21), 0.1, rho=0.0, blocks=BLOCKS)
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
        new, _, _, _ = optimizer_step(OptimizerConfig(kind="lpfsgd", lpf_mc_iters=64,
                                                      lpf_radius=radius, momentum=0.0),
                                      fn, w, np.zeros(2), noise(seed=33), 1.0, rho=0.0,
                                      blocks=BLOCKS)
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


@pytest.mark.parametrize("lookup", [
    lambda: lr_at(LrSchedule(base_lr=0.1), -1),
    lambda: rho_at(RhoSchedule(steps=((0, 0.3),)), -1),
    lambda: drw_weights(ReweightSchedule(threshold_epoch=0), (3, 1), -1),
], ids=["lr", "rho", "drw"])
def test_a_negative_epoch_is_rejected(lookup):
    with pytest.raises(ParameterError, match="epoch must be >= 0"):
        lookup()


def test_sam_step_rejects_a_negative_rho():
    with pytest.raises(ParameterError, match="rho must be >= 0"):
        sam_step(quad_grad_fn(A_SADDLE), np.array([0.3, -0.7]), rho=-0.1, normalized=False)


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
        velocity, rng = np.zeros(2), noise(seed=50)
        if step == "sgd":
            _, g = fn(w)
            new, _ = sgd_step(w, g, velocity, 0.0, 0.9)
        elif step == "sam":
            new, _, _, _ = sam_opt_step(fn, w, velocity, 0.0, rho=0.3, momentum=0.9,
                                        normalized=True)
        elif step == "pgd":
            new, _, _, _ = optimizer_step(OptimizerConfig(kind="pgd", pgd_sigma=0.1), fn, w,
                                          velocity, rng, 0.0, rho=0.0, blocks=BLOCKS)
        else:
            new, _, _, _ = optimizer_step(OptimizerConfig(kind="lpfsgd", lpf_mc_iters=4,
                                                          lpf_radius=0.1),
                                          fn, w, velocity, rng, 0.0, rho=0.0, blocks=BLOCKS)
        assert np.array_equal(new, w)


# momentum and learning rate of the noise-free saddle dynamics; the SAM
# radii put rho |lambda_min| below 1, between 1 and 2, and above 2
ESCAPE_MU, ESCAPE_LR = 0.9, 0.05
ESCAPE_CASES = (("sgd", 0.0), ("sam", 0.5), ("sam", 1.5), ("sam", 3.0))


def _saddle_step(kind, rho, w, velocity):
    quad = QuadraticSurrogate(A_SADDLE)  # noise_std 0: every draw is the exact gradient
    opt = OptimizerConfig(kind=kind, momentum=ESCAPE_MU, sam_normalized=False)
    return optimizer_step(opt, quad.grad_fn_for_noise(quad.draw_noise(noise())), w, velocity,
                          noise(), ESCAPE_LR, rho, BLOCKS)


@pytest.mark.parametrize("kind, rho", ESCAPE_CASES, ids=[f"{k}-rho{r:g}" for k, r in ESCAPE_CASES])
def test_noise_free_steps_at_a_saddle_follow_the_closed_form(kind, rho):
    # each eigendirection lambda of A moves as v <- mu v + a w, w <- w - lr v,
    # with a = lambda (1 + rho lambda): lambda for SGD (rho 0), and for
    # unnormalized SAM the gradient at w + rho A w
    lam = np.diag(A_SADDLE)
    a = lam * (1.0 + rho * lam)
    w0, v0 = np.array([0.3, -0.7]), np.array([0.2, 0.1])
    v1 = ESCAPE_MU * v0 + a * w0
    w1 = w0 - ESCAPE_LR * v1
    # v_t and w_t each solve x_{t+1} = (1 + mu - lr a) x_t - mu x_{t-1}:
    # x_t = c r1^t + (x_0 - c) r2^t over the distinct roots r1, r2
    steps = np.arange(21)
    closed_w, closed_v = np.empty((21, 2)), np.empty((21, 2))
    for j in range(2):
        r1, r2 = np.roots([1.0, -(1.0 + ESCAPE_MU - ESCAPE_LR * a[j]), ESCAPE_MU]).astype(complex)
        assert abs(r1 - r2) > 0.1
        for x0, x1, closed in ((w0[j], w1[j], closed_w), (v0[j], v1[j], closed_v)):
            c = (x1 - r2 * x0) / (r1 - r2)
            closed[:, j] = (c * r1**steps + (x0 - c) * r2**steps).real
    w, v = w0, v0
    tol = 1e-12 * np.linalg.norm(w0)
    for t in steps[1:]:
        w, v, _, _ = _saddle_step(kind, rho, w, v)
        assert np.all(np.abs(w - closed_w[t]) <= tol), t
        assert np.all(np.abs(v - closed_v[t]) <= tol), t


def test_unnormalized_sam_reverses_then_amplifies_the_negative_direction():
    # the drift a on lambda_min's direction, read off one step's velocity
    w0, v0 = np.array([0.3, -0.7]), np.zeros(2)
    lam_min = A_SADDLE[1, 1]
    drift = {rho: _saddle_step("sam", rho, w0, v0)[1][1] / w0[1] for _, rho in ESCAPE_CASES}
    assert drift[0.0] == lam_min
    # a = lambda_min (1 + rho lambda_min) changes sign at rho |lambda_min| = 1,
    # and beyond 2 exceeds |lambda_min|: SAM pulls harder toward the saddle
    # than SGD pushes away from it
    assert drift[0.5] < 0 < drift[1.5] < abs(lam_min) < drift[3.0]
    for rho, a in drift.items():
        assert a == pytest.approx(lam_min * (1 + rho * lam_min), rel=1e-14)


# gradient noise std, PGD's perturbation std, LPF-SGD's radius and draws, and
# the number of trajectories of the noisy saddle dynamics; the trajectories
# are the 2-blocks of one parameter vector, since SGD, unnormalized SAM and
# PGD act coordinate-wise on a diagonal Hessian, and LPF-SGD block-wise
NOISE_S, PGD_SIGMA, LPF_R, LPF_M, TRAJECTORIES = 0.1, 0.1, 0.1, 8, 20_000
NOISY_CASES = (("sgd", 0.0), ("sam", 0.5), ("sam", 1.5), ("sam", 3.0), ("pgd", 0.0),
               ("lpfsgd", 0.0))


def _exact_second_moments(w0, a, noise_var, norm_gain, steps):
    """(E[w_T^2], E[v_T^2]) per direction j of x_{t+1} = M_j x_t + b n_t from
    x_0 = (w0[j], 0), with M_j = [[1 - lr a_j, -lr mu], [a_j, mu]], b = (-lr, 1)
    and Var n_t = noise_var[j] + norm_gain[j] E||w_t||^2: sgd_step's
    v <- mu v + (a w + n), w <- w - lr v. E||w_t||^2 couples the directions,
    so their means and covariances are iterated together."""
    ms = [np.array([[1.0 - ESCAPE_LR * aj, -ESCAPE_LR * ESCAPE_MU], [aj, ESCAPE_MU]])
          for aj in a]
    b = np.array([-ESCAPE_LR, 1.0])
    means, covs = [np.array([w0j, 0.0]) for w0j in w0], [np.zeros((2, 2)) for _ in w0]
    for _ in range(steps):
        sq_norm = sum(mean[0] ** 2 + cov[0, 0] for mean, cov in zip(means, covs))
        for j, m in enumerate(ms):
            var = noise_var[j] + norm_gain[j] * sq_norm
            means[j], covs[j] = m @ means[j], m @ covs[j] @ m.T + var * np.outer(b, b)
    return [mean**2 + np.diag(cov) for mean, cov in zip(means, covs)]


@pytest.mark.parametrize("kind, rho", NOISY_CASES,
                         ids=[f"{k}-rho{r:g}" for k, r in NOISY_CASES])
def test_noisy_steps_at_a_saddle_match_the_closed_form_second_moments(kind, rho):
    # f(w) = 1/2 w'Aw + xi'w with one xi ~ N(0, s^2 I) per step, shared by SAM's
    # two gradients and LPF-SGD's M. Per eigendirection lambda the step is
    # sgd_step's with gradient a w + n: SGD a = lambda, Var n = s^2; unnormalized
    # SAM, whose second gradient is at w + rho (lambda w + xi),
    # a = lambda (1 + rho lambda) and Var n = (1 + rho lambda)^2 s^2; PGD
    # a = lambda and Var n = s^2 + lambda^2 sigma^2; LPF-SGD, whose M draws per
    # block of size d have std r ||w_block|| / sqrt(d), a = lambda and
    # Var n = s^2 + lambda^2 r^2 E||w_block||^2 / (d M)
    lam = np.diag(A_SADDLE)
    lam_all = np.tile(lam, TRAJECTORIES)
    w0 = np.array([0.3, -0.7])
    xi_rng, opt_rng = noise(seed=60, stream="xi"), noise(seed=60)
    opt = OptimizerConfig(kind=kind, momentum=ESCAPE_MU, sam_normalized=False,
                          pgd_sigma=PGD_SIGMA, lpf_radius=LPF_R, lpf_mc_iters=LPF_M)
    # one block per trajectory, so LPF-SGD's block norm is that trajectory's
    blocks = tuple(ParamBlock(f"w{k}", 2 * k, (2,)) for k in range(TRAJECTORIES))
    w, v = np.tile(w0, TRAJECTORIES), np.zeros(lam_all.shape[0])
    steps = 20
    for _ in range(steps):
        xi = xi_rng.normal(size=lam_all.shape[0], std=NOISE_S)

        def grad_fn(x, xi=xi):
            return 0.5 * float(x @ (lam_all * x)) + float(xi @ x), lam_all * x + xi

        w, v, _, _ = optimizer_step(opt, grad_fn, w, v, opt_rng, ESCAPE_LR, rho, blocks)
    norm_gain = np.zeros(2)
    if kind == "pgd":
        a, noise_var = lam, NOISE_S**2 + lam**2 * PGD_SIGMA**2
    elif kind == "lpfsgd":
        a, noise_var = lam, np.full(2, NOISE_S**2)
        norm_gain = lam**2 * LPF_R**2 / (len(w0) * LPF_M)
    else:
        a, noise_var = lam * (1.0 + rho * lam), (1.0 + rho * lam) ** 2 * NOISE_S**2
    exact = _exact_second_moments(w0, a, noise_var, norm_gain, steps)
    for j in range(2):
        for sample, moment in zip((w[j::2] ** 2, v[j::2] ** 2), exact[j]):
            stderr = sample.std(ddof=1) / np.sqrt(TRAJECTORIES)
            assert abs(sample.mean() - moment) <= 4.0 * stderr, (j, sample.mean(), moment)
