import tracemalloc
from dataclasses import dataclass

import numpy as np
import pytest

from saddlelab import cncverify, model
from saddlelab.cncverify import CncSettings, _moment, save_theorem1_report, theorem1_report
from saddlelab.datagen import ClassGeometry, ImbalanceProfile, generate
from saddlelab.errors import ParameterError
from saddlelab.linalg import SeededRng
from saddlelab.losses import LossSpec
from saddlelab.model import MlpSpec, init_params
from saddlelab.optim import sam_gradients
from saddlelab.spectral import SpectralSettings
from tests.test_spectral import _exact_saddle


@dataclass
class QuadraticSurrogate:
    """f_z(w) = 1/2 w'Aw + xi_z'w with xi_z ~ N(0, noise_std^2 I), a reference
    model for the CNC quantities.

    Constant Hessian A makes the first-order expansion of the perturbed
    gradient exact, so the amplification factor can be checked to machine
    precision (noise_std = 0) or against Monte-Carlo error bars.
    """

    a: np.ndarray
    noise_std: float = 0.0

    def __post_init__(self):
        self.a = np.asarray(self.a, dtype=np.float64)
        if self.a.ndim != 2 or self.a.shape[0] != self.a.shape[1]:
            raise ParameterError("A must be square")
        if self.noise_std < 0:
            raise ParameterError("noise_std must be >= 0")

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def draw_noise(self, rng: SeededRng) -> np.ndarray:
        if self.noise_std == 0.0:
            return np.zeros(self.dim)
        return rng.normal(size=self.dim, std=self.noise_std)

    def grad_fn_for_noise(self, xi: np.ndarray):
        """Deterministic objective for one frozen draw (the fixed-z gradient)."""
        def fn(w):
            value = 0.5 * float(w @ (self.a @ w)) + float(xi @ w)
            return value, self.a @ w + xi
        return fn


def projection_second_moment(grads, v_w: np.ndarray):
    """(mean, stderr) of <v_w, g>^2 over an iterable of gradients, each
    projected as it arrives, as theorem1_report projects its plain and SAM
    gradients."""
    v_w = np.asarray(v_w, dtype=np.float64)
    if abs(float(np.linalg.norm(v_w)) - 1.0) > 1e-8:
        raise ParameterError("v_w must be unit norm")
    proj = np.array([float(v_w @ g) for g in grads])
    if proj.shape[0] < 2:
        raise ParameterError("need at least 2 samples for a standard error")
    return _moment(proj ** 2)


A_SADDLE = np.diag([2.0, -1.0])
V_MIN = np.array([0.0, 1.0])  # eigenvector of lambda_min = -1


def small_problem(seed=40):
    profile = ImbalanceProfile("longtail", 2, 60, 6.0)
    geom = ClassGeometry(input_dim=4, class_mean_radius=2.0, within_class_std=1.0)
    ds = generate(profile, geom, SeededRng(seed).child("datagen"))
    spec = MlpSpec((4, 6, 2))
    w = init_params(spec, SeededRng(seed).child("init"))
    loss = LossSpec(variant="ce", class_counts=ds.class_counts)
    return ds, spec, w, loss


def test_full_batch_gamma_is_deterministic():
    # batch_size >= len(ds): every batch is the whole dataset, so each moment
    # averages one number B times; with B = 2 that mean is exact and so the
    # standard errors are exactly 0
    ds, spec, w, loss = small_problem()
    rows = theorem1_report(spec, w, ds, loss, [0.0, 0.1],
                           CncSettings(batch_size=len(ds), num_batches=2),
                           SeededRng(41).child("cnc"),
                           SpectralSettings(lanczos_iters=20, num_probes=2))
    assert [(r.gamma_stderr, r.sam_stderr) for r in rows] == [(0.0, 0.0), (0.0, 0.0)]
    assert rows[0].gamma_hat == rows[1].gamma_hat > 0.0


def test_gamma_with_isotropic_noise_matches_closed_form():
    # g_z = g + xi, xi ~ N(0, sigma^2 I): E<v, g_z>^2 = <v, g>^2 + sigma^2
    rng = SeededRng(42).child("noise")
    g = np.array([1.0, 2.0, -0.5, 0.25])
    v = np.array([0.5, -0.5, 0.5, 0.5])
    sigma = 0.3
    grads = [g + rng.normal(size=4, std=sigma) for _ in range(10_000)]
    mean, se = projection_second_moment(grads, v)
    expected = float(v @ g) ** 2 + sigma ** 2
    assert abs(mean - expected) <= 3 * se


def test_orthogonal_deterministic_gradient_gives_zero():
    g = np.array([1.0, 0.0])
    v = np.array([0.0, 1.0])
    mean, se = projection_second_moment([g, g, g], v)
    assert mean == 0.0 and se == 0.0


def test_gamma_invariant_under_sign_flip_of_direction():
    rng = SeededRng(43).child("noise")
    grads = [rng.normal(size=3) for _ in range(50)]
    v = np.array([1.0, 0.0, 0.0])
    assert projection_second_moment(grads, v) == projection_second_moment(grads, -v)


def test_unit_norm_precondition():
    with pytest.raises(ParameterError):
        projection_second_moment([np.ones(2), np.ones(2)], np.array([1.0, 1.0]))


def test_sam_gradient_quadratic_closed_form():
    # w=(1,1): g = (2,-1); eps = rho*g; g_sam = A(w+eps)+0 = (I+rho*A)g
    quad = QuadraticSurrogate(A_SADDLE)
    fn = quad.grad_fn_for_noise(np.zeros(2))
    g_sam = sam_gradients(fn, np.array([1.0, 1.0]), 0.5, normalized=False)[3]
    assert np.array_equal(g_sam, np.array([4.0, -0.5]))
    proj = float(V_MIN @ g_sam)
    assert proj == -0.5
    assert proj ** 2 == 0.25  # = (1 + 0.5*(-1))^2 * <v, Aw>^2


def test_noisy_quadratic_ratio_exact_per_draw():
    # constant Hessian: <v, g_sam> = (1 + rho*lambda_min) <v, g_z> pointwise,
    # so the paired ratio equals the predicted factor exactly
    quad = QuadraticSurrogate(A_SADDLE, noise_std=0.4)
    w = np.array([1.0, 1.0])
    rng = SeededRng(44).child("noise")
    for rho in (0.0, 0.25, 0.5):
        plain, perturbed = [], []
        for _ in range(200):
            xi = quad.draw_noise(rng)
            fn = quad.grad_fn_for_noise(xi)
            _, g = fn(w)
            plain.append(g)
            perturbed.append(sam_gradients(fn, w, rho, normalized=False)[3])
        gamma, _ = projection_second_moment(plain, V_MIN)
        moment, _ = projection_second_moment(perturbed, V_MIN)
        assert moment / gamma == pytest.approx((1 - rho) ** 2, rel=1e-12)


def test_gamma_closed_form_on_noisy_quadratic():
    quad = QuadraticSurrogate(A_SADDLE, noise_std=0.2)
    w = np.array([1.0, 1.0])
    rng = SeededRng(45).child("noise")
    grads = []
    for _ in range(10_000):
        fn = quad.grad_fn_for_noise(quad.draw_noise(rng))
        grads.append(fn(w)[1])
    gamma, se = projection_second_moment(grads, V_MIN)
    expected = float(V_MIN @ (A_SADDLE @ w)) ** 2 + 0.2 ** 2
    assert abs(gamma - expected) <= 3 * se


def test_factor_zero_degeneracy():
    # lambda_min = -1, rho = 1: (1 + rho*lambda_min) = 0 kills the projection
    quad = QuadraticSurrogate(A_SADDLE)
    fn = quad.grad_fn_for_noise(np.zeros(2))
    g_sam = sam_gradients(fn, np.array([1.0, 1.0]), 1.0, normalized=False)[3]
    assert float(V_MIN @ g_sam) == 0.0


def test_sam_moment_rho_zero_equals_gamma():
    # rho = 0 takes no perturbation: the SAM gradients are the plain ones on
    # the same batches, so the moments and the ratio agree exactly
    ds, spec, w, loss = small_problem(46)
    rows = theorem1_report(spec, w, ds, loss, [0.0, 0.2],
                           CncSettings(batch_size=16, num_batches=20),
                           SeededRng(47).child("cnc"),
                           SpectralSettings(lanczos_iters=20, num_probes=2))
    r0 = rows[0]
    assert not r0.cnc_violation
    assert (r0.sam_moment_hat, r0.sam_stderr) == (r0.gamma_hat, r0.gamma_stderr)
    assert r0.measured_ratio == 1.0
    assert rows[1].sam_moment_hat != rows[1].gamma_hat


def test_theorem1_report_rows():
    ds, spec, w, loss = small_problem(48)
    settings = CncSettings(batch_size=16, num_batches=24)
    rows = theorem1_report(spec, w, ds, loss, [0.0, 0.1], settings,
                           SeededRng(49).child("cnc"),
                           SpectralSettings(lanczos_iters=30, num_probes=2, residual_tol=1e-7))
    assert [r.rho for r in rows] == [0.0, 0.1]
    r0, r1 = rows
    assert r0.predicted_factor == pytest.approx((1 + 0.0 * r0.lambda_min) ** 2)
    assert r1.predicted_factor == pytest.approx((1 + 0.1 * r1.lambda_min) ** 2)
    # paired batches make the rho = 0 ratio exactly 1
    assert not r0.cnc_violation
    assert r0.measured_ratio == pytest.approx(1.0, abs=1e-12)
    assert r0.taylor_residual == 0.0
    assert r1.taylor_residual >= 0.0
    # lambda_min shared across rows (computed once)
    assert r0.lambda_min == r1.lambda_min


def test_taylor_residual_shrinks_with_rho():
    ds, spec, w, loss = small_problem(50)
    settings_small = CncSettings(batch_size=len(ds), num_batches=2)
    rows = theorem1_report(spec, w, ds, loss, [1e-4, 1e-1], settings_small,
                           SeededRng(51).child("cnc"),
                           SpectralSettings(lanczos_iters=20, num_probes=2))
    assert rows[0].taylor_residual < rows[1].taylor_residual


def test_theorem1_report_runs_on_one_blas_thread(blas_readings, fake_blas):
    ds, spec, w, loss = small_problem(54)
    # per batch 6 gradients (the plain one, rho 0's, and rho 0.5's 2 plus its
    # residual's 2) and 1 residual product; then the extreme run's products
    readings = blas_readings(cncverify, "loss_grad")
    blas_readings(model, "hvp")
    theorem1_report(spec, w, ds, loss, [0.0, 0.5], CncSettings(batch_size=16, num_batches=4),
                    SeededRng(55), SpectralSettings(lanczos_iters=10, num_probes=1))
    assert len(readings) > 4 * (6 + 1)
    assert readings == [1] * len(readings)
    assert fake_blas.count == 4


def test_theorem1_report_linearizes_each_batch_once(monkeypatch):
    # the extreme run's full-batch linearization, then one per batch, which
    # the residuals of rho 0.25 and 0.5 share (rho 0 has no residual)
    ds, spec, w, loss = small_problem(57)
    batches, built, linearization = 5, [], cncverify.Linearization

    def counting_linearization(*args):
        built.append(args[2])
        return linearization(*args)

    # model.hvp without lin builds a model.Linearization of its own
    monkeypatch.setattr(cncverify, "Linearization", counting_linearization)
    monkeypatch.setattr(model, "Linearization", counting_linearization)
    rows = theorem1_report(spec, w, ds, loss, [0.0, 0.25, 0.5],
                           CncSettings(batch_size=16, num_batches=batches), SeededRng(58),
                           SpectralSettings(lanczos_iters=10, num_probes=1))
    assert len(built) == 1 + batches
    assert built[0] is ds and all(len(b) == 16 for b in built[1:])
    assert rows[0].taylor_residual == 0.0 < rows[1].taylor_residual < rows[2].taylor_residual


def test_report_export(tmp_path):
    ds, spec, w, loss = small_problem(52)
    settings = CncSettings(batch_size=16, num_batches=8)
    spectral = SpectralSettings(lanczos_iters=20, num_probes=2)
    rows = theorem1_report(spec, w, ds, loss, [0.0], settings, SeededRng(53).child("c"),
                           spectral)
    csv_path = tmp_path / "cnc.csv"
    json_path = tmp_path / "cnc.json"
    save_theorem1_report(rows, csv_path, json_path, settings, spectral, meta={"seed": 53})
    text = csv_path.read_text().splitlines()
    assert text[0].startswith("rho,lambda_min,gamma_hat")
    assert len(text) == 2
    import json
    payload = json.loads(json_path.read_text())
    assert payload["seed"] == 53
    assert payload["rows"][0]["rho"] == 0.0


def test_settings_validation():
    with pytest.raises(ParameterError):
        CncSettings(num_batches=1)
    with pytest.raises(ParameterError):
        CncSettings(mode="sideways")
    for rhos in ((), (0.1, -0.1), (0.1, float("nan"))):
        with pytest.raises(ParameterError):
            CncSettings(rhos=rhos)


@pytest.mark.parametrize("hidden_bias", [False, True], ids=["saddle-a", "saddle-b"])
@pytest.mark.parametrize("drw", [False, True], ids=["w1", "w1-drw"])
def test_report_flags_a_cnc_violation_where_gamma_is_zero(drw, hidden_bias):
    # at saddle (a) every batch gradient is 0 in the weights, and the negative
    # eigenspace lies in the weights, so the exact CNC constant is 0 and
    # gamma_hat is rounding below the floor; saddle (b)'s is far above it
    lin, _, _ = _exact_saddle(2, 6, (12,), drw, hidden_bias)
    rows = theorem1_report(lin.spec, lin.w, lin.batch, lin.loss, [0.0, 0.25, 0.5],
                           CncSettings(), SeededRng(5), SpectralSettings())
    violated = not hidden_bias
    assert [r.cnc_violation for r in rows] == [violated] * 3
    assert [r.measured_ratio is None for r in rows] == [violated] * 3


def test_theorem1_report_keeps_no_list_of_gradients():
    # 100 gradients held at once would take num_batches * dim * 8 bytes
    profile = ImbalanceProfile("longtail", 4, 100, 4.0)
    geom = ClassGeometry(input_dim=8, class_mean_radius=2.0, within_class_std=1.0)
    ds = generate(profile, geom, SeededRng(44).child("datagen"))
    spec = MlpSpec((8, 64, 64, 4))
    w = init_params(spec, SeededRng(44).child("init"))
    loss = LossSpec(variant="ce", class_counts=ds.class_counts)
    settings = CncSettings(batch_size=16, num_batches=100)
    tracemalloc.start()
    try:
        theorem1_report(spec, w, ds, loss, [0.0, 0.5], settings, SeededRng(45).child("cnc"),
                        SpectralSettings(lanczos_iters=20, num_probes=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < settings.num_batches * w.shape[0] * 8
