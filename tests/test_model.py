import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from saddlelab import model
from saddlelab.datagen import ClassGeometry, ImbalanceProfile, generate
from saddlelab.errors import DimensionError, EmptyClassError, ParameterError
from saddlelab.linalg import SeededRng
from saddlelab.losses import VARIANTS, LossSpec
from saddlelab.model import (
    ACTIVATIONS,
    CHUNK_ROWS,
    Batch,
    Linearization,
    MlpSpec,
    forward,
    hvp,
    init_params,
    loss_grad,
    param_layout,
    per_class_batch,
)


def make_model(seed=0, sizes=(6, 12, 3), activation="tanh"):
    spec = MlpSpec(sizes, activation)
    w = init_params(spec, SeededRng(seed).child("init"))
    return spec, w


def make_batch(seed, n, dim, k):
    rng = SeededRng(seed)
    return Batch(rng.normal(size=(n, dim)), rng.generator.integers(0, k, n))


def block(spec, w, name):
    """The view of w's block `name` (w0, b0, w1, ...) of param_layout(spec)."""
    b = next(b for b in param_layout(spec)[0] if b.name == name)
    return w[b.offset : b.offset + math.prod(b.shape)].reshape(b.shape)


def oracle_forward(spec, w, x):
    """Independent matrix-chain implementation (einsum, reversed block walk)."""
    act = {"tanh": np.tanh,
           "softplus": lambda a: np.logaddexp(0, a),
           "relu": lambda a: np.maximum(a, 0.0)}[spec.activation]
    h = x
    for l in range(spec.num_layers):
        wm = block(spec, w, f"w{l}")
        h = np.einsum("ni,oi->no", h, wm)
        if spec.bias:
            h = h + block(spec, w, f"b{l}")
        if l < spec.num_layers - 1:
            h = act(h)
    return h


def test_forward_zero_params():
    spec = MlpSpec((4, 5, 3))
    _, total = param_layout(spec)
    w = np.zeros(total)
    x = SeededRng(1).normal(size=(7, 4))
    assert np.array_equal(forward(spec, w, x), np.zeros((7, 3)))


def test_forward_identity_linear_layer():
    spec = MlpSpec((3, 3), bias=True)
    _, total = param_layout(spec)
    w = np.zeros(total)
    block(spec, w, "w0")[...] = np.eye(3)
    x = SeededRng(2).normal(size=(5, 3))
    assert np.array_equal(forward(spec, w, x), x)


@pytest.mark.parametrize("activation", ["tanh", "softplus", "relu"])
def test_forward_matches_independent_oracle(activation):
    spec, w = make_model(3, (5, 9, 7, 4), activation)
    x = SeededRng(4).normal(size=(11, 5))
    got = forward(spec, w, x)
    want = oracle_forward(spec, w, x)
    assert np.max(np.abs(got - want)) < 1e-12


@pytest.mark.parametrize("activation", ["tanh", "softplus", "relu"])
def test_loss_grad_matches_finite_differences(activation):
    spec, w = make_model(5, (8, 16, 4), activation)  # 8*16+16 + 16*4+4 = 212 params
    batch = make_batch(6, 25, 8, 4)
    loss = LossSpec(variant="ce", class_counts=(10, 8, 5, 2))
    _, grad = loss_grad(spec, w, batch, loss)
    h = 1e-5
    for i in range(w.shape[0]):
        wp = w.copy()
        wp[i] += h
        wm = w.copy()
        wm[i] -= h
        vp, _ = loss_grad(spec, wp, batch, loss)
        vm, _ = loss_grad(spec, wm, batch, loss)
        fd = (vp - vm) / (2 * h)
        assert fd == pytest.approx(grad[i], rel=1e-6, abs=1e-9)


def test_loss_grad_duplicate_rows_invariant():
    spec, w = make_model(7)
    batch = make_batch(8, 10, 6, 3)
    doubled = Batch(np.vstack([batch.features, batch.features]),
                    np.concatenate([batch.labels, batch.labels]))
    loss = LossSpec(variant="ce", class_counts=(4, 3, 3))
    v1, g1 = loss_grad(spec, w, batch, loss)
    v2, g2 = loss_grad(spec, w, doubled, loss)
    assert v1 == pytest.approx(v2, rel=1e-14)
    assert np.allclose(g1, g2, atol=1e-15)


def test_loss_grad_uniform_weights_neutral():
    spec, w = make_model(9)
    feats = SeededRng(10).normal(size=(12, 6))
    labels = SeededRng(11).generator.integers(0, 3, 12)
    loss = LossSpec(variant="ce", class_counts=(4, 4, 4))
    batch = Batch(feats, labels)
    v1, g1 = loss_grad(spec, w, batch, loss)
    # power-of-two scale: normalization divides it out exactly
    v2, g2 = loss_grad(spec, w, batch, loss.with_class_weights((4.0,) * 3))
    assert v1 == v2
    assert np.array_equal(g1, g2)
    # arbitrary scale: exact up to one rounding in the normalization
    v3, g3 = loss_grad(spec, w, batch, loss.with_class_weights((3.7,) * 3))
    assert v3 == pytest.approx(v1, rel=1e-14)
    assert np.allclose(g3, g1, rtol=1e-13, atol=1e-17)


def test_empty_batch_rejected():
    spec, w = make_model(12)
    loss = LossSpec(variant="ce", class_counts=(1, 1, 1))
    with pytest.raises(ParameterError):
        loss_grad(spec, w, Batch(np.zeros((0, 6)), np.zeros(0, dtype=int)), loss)


@pytest.mark.parametrize("variant", ["ce", "ldam", "vs"])
def test_hvp_matches_fd_of_gradient(variant):
    spec, w = make_model(13, (8, 20, 10, 3))
    batch = make_batch(14, 30, 8, 3)
    loss = LossSpec(variant=variant, class_counts=(15, 10, 5))
    v = SeededRng(15).normal(size=w.shape[0])
    hv = hvp(spec, w, batch, loss, v)
    h = 1e-4
    _, gp = loss_grad(spec, w + h * v, batch, loss)
    _, gm = loss_grad(spec, w - h * v, batch, loss)
    fd = (gp - gm) / (2 * h)
    assert np.linalg.norm(fd - hv) / np.linalg.norm(hv) < 1e-4


def test_hvp_linearity():
    spec, w = make_model(16)
    batch = make_batch(17, 15, 6, 3)
    loss = LossSpec(variant="ce", class_counts=(6, 5, 4))
    rng = SeededRng(18)
    u = rng.normal(size=w.shape[0])
    v = rng.normal(size=w.shape[0])
    lhs = hvp(spec, w, batch, loss, 2.5 * u - 0.75 * v)
    rhs = 2.5 * hvp(spec, w, batch, loss, u) - 0.75 * hvp(spec, w, batch, loss, v)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_hvp_symmetry():
    spec, w = make_model(19, (7, 14, 3))
    batch = make_batch(20, 22, 7, 3)
    loss = LossSpec(variant="ce", class_counts=(10, 7, 5))
    rng = SeededRng(21)
    for _ in range(5):
        u = rng.normal(size=w.shape[0])
        v = rng.normal(size=w.shape[0])
        assert abs(u @ hvp(spec, w, batch, loss, v)
                   - v @ hvp(spec, w, batch, loss, u)) < 1e-10


def test_hvp_dimension_mismatch():
    spec, w = make_model(22)
    batch = make_batch(23, 5, 6, 3)
    loss = LossSpec(variant="ce", class_counts=(2, 2, 1))
    with pytest.raises(DimensionError):
        hvp(spec, w, batch, loss, np.zeros(w.shape[0] + 1))
    # parameters one entry short or long, and not 1-D
    for params in (w[:-1], np.append(w, 0.0), w[None]):
        for entry in (lambda: forward(spec, params, batch.features),
                      lambda: loss_grad(spec, params, batch, loss),
                      lambda: Linearization(spec, params, batch, loss)):
            with pytest.raises(DimensionError, match=r"param vector shape"):
                entry()


@pytest.mark.parametrize("entry", [
    lambda spec, w, batch, loss: forward(spec, w, batch.features),
    lambda spec, w, batch, loss: loss_grad(spec, w, batch, loss),
    lambda spec, w, batch, loss: Linearization(spec, w, batch, loss),
    lambda spec, w, batch, loss: hvp(spec, w, batch, loss, np.zeros(w.shape[0])),
], ids=["forward", "loss_grad", "Linearization", "hvp"])
def test_batch_of_wrong_width_is_a_dimension_error(entry):
    spec, w = make_model(26)  # input_dim 6
    loss = LossSpec(variant="ce", class_counts=(2, 2, 1))
    with pytest.raises(DimensionError, match=r"inputs must be \(n, 6\), got \(4, 7\)"):
        entry(spec, w, make_batch(27, 4, 7, 3), loss)


# every activation x loss variant x bias x class weights, with a random
# point, batch and tangents drawn from the seed
HVP_CASES = st.tuples(st.sampled_from(ACTIVATIONS), st.sampled_from(VARIANTS), st.booleans(),
                      st.booleans(), st.integers(0, 2**32 - 1))
HVP_SETTINGS = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def _hvp_case(activation, variant, bias, class_weights, seed):
    spec = MlpSpec((5, 8, 6, 3), activation, bias)
    rng = SeededRng(seed)
    w = init_params(spec, rng.child("init"))
    w += 0.3 * rng.child("shift").normal(size=w.shape[0])  # nonzero biases
    data = rng.child("data")
    n = 17
    batch = Batch(data.normal(size=(n, 5)), data.generator.integers(0, 3, n))
    loss = LossSpec(variant, class_counts=(12, 6, 2),
                    class_weights=(1.0, 2.5, 4.0) if class_weights else None)
    u, v = rng.child("tangents").normal(size=(2, w.shape[0]))
    return spec, w, batch, loss, u, v


def _relu_pattern(spec, w, x):
    """Signs of every hidden pre-activation, from an einsum forward pass."""
    h, signs = x, []
    for l in range(spec.num_layers - 1):
        a = np.einsum("ni,oi->no", h, block(spec, w, f"w{l}"))
        if spec.bias:
            a = a + block(spec, w, f"b{l}")
        signs.append(a > 0)
        h = np.maximum(a, 0.0)
    return np.concatenate(signs, axis=1)


@HVP_SETTINGS
@given(HVP_CASES)
def test_linearized_hvp_matches_finite_differences_and_is_symmetric(case):
    spec, w, batch, loss, u, v = _hvp_case(*case)
    lin = Linearization(spec, w, batch, loss)
    hu, hv = hvp(spec, w, batch, loss, u, lin=lin), hvp(spec, w, batch, loss, v, lin=lin)
    h = 1e-4
    wp, wm = w + h * v, w - h * v
    if spec.activation == "relu":
        # central differences are exact only where no kink lies between w -+ h v
        assume(np.array_equal(_relu_pattern(spec, wp, batch.features),
                              _relu_pattern(spec, wm, batch.features)))
    fd = (loss_grad(spec, wp, batch, loss)[1] - loss_grad(spec, wm, batch, loss)[1]) / (2 * h)
    assert np.linalg.norm(fd - hv) <= 1e-6 * np.linalg.norm(hv)
    assert abs(u @ hv - v @ hu) <= 1e-12 * np.linalg.norm(u) * np.linalg.norm(hv)


@HVP_SETTINGS
@given(HVP_CASES)
def test_linearization_reuse_is_bitwise_and_never_aliases(case):
    spec, w, batch, loss, u, v = _hvp_case(*case)
    lin = Linearization(spec, w, batch, loss)
    first = hvp(spec, w, batch, loss, u, lin=lin)
    kept = first.copy()
    second = hvp(spec, w, batch, loss, v, lin=lin)
    third = hvp(spec, w, batch, loss, u, lin=lin)
    assert third.tobytes() == kept.tobytes()
    assert first.tobytes() == kept.tobytes()  # the v call wrote nothing into it
    assert not np.shares_memory(first, second) and not np.shares_memory(first, third)
    assert hvp(spec, w, batch, loss, u).tobytes() == kept.tobytes()
    assert hvp(spec, w, batch, loss, v).tobytes() == second.tobytes()


def test_linear_model_hvp_matches_dense_hessian():
    # no hidden layer: the Hessian is the loss-layer curvature alone
    spec = MlpSpec((4, 3), bias=True)
    w = init_params(spec, SeededRng(40).child("init"))
    batch = make_batch(41, 9, 4, 3)
    loss = LossSpec(variant="vs", class_counts=(5, 3, 1))
    lin = Linearization(spec, w, batch, loss)
    dim = w.shape[0]
    dense = np.column_stack([hvp(spec, w, batch, loss, e, lin=lin) for e in np.eye(dim)])
    h = 1e-5
    fd = np.column_stack([
        (loss_grad(spec, w + h * e, batch, loss)[1]
         - loss_grad(spec, w - h * e, batch, loss)[1]) / (2 * h)
        for e in np.eye(dim)])
    assert np.max(np.abs(dense - fd)) < 1e-8
    assert np.max(np.abs(dense - dense.T)) < 1e-15


def test_hvp_rejects_a_linearization_of_other_objects():
    spec, w, batch, loss, u, _ = _hvp_case("tanh", "ce", True, False, 42)
    lin = Linearization(spec, w, batch, loss)
    # equal values, other objects: identity is what ties lin to its point
    others = {"spec": MlpSpec(spec.layer_sizes, spec.activation, spec.bias), "w": w.copy(),
              "batch": Batch(batch.features, batch.labels), "loss": loss.with_class_weights(None)}
    args = {"spec": spec, "w": w, "batch": batch, "loss": loss}
    for name, other in others.items():
        with pytest.raises(ParameterError):
            hvp(**{**args, name: other}, v=u, lin=lin)
    with pytest.raises(DimensionError):
        hvp(spec, w, batch, loss, u[:-1], lin=lin)


def test_finite_outputs_smooth_activations():
    for activation in ("tanh", "softplus"):
        spec, w = make_model(24, (4, 8, 2), activation)
        x = SeededRng(25).normal(size=(6, 4)) * 50.0
        assert np.all(np.isfinite(forward(spec, w, x)))


def test_init_params_bounds_and_determinism():
    spec = MlpSpec((10, 20, 4))
    a = init_params(spec, SeededRng(26).child("init"))
    b = init_params(spec, SeededRng(26).child("init"))
    assert np.array_equal(a, b)
    w0 = block(spec, a, "w0")
    bound = np.sqrt(6.0 / (10 + 20))
    assert np.max(np.abs(w0)) <= bound
    assert np.array_equal(block(spec, a, "b0"), np.zeros(20))


def _longtail_dataset(seed=30):
    profile = ImbalanceProfile("longtail", 10, 5000, 100.0)
    geom = ClassGeometry(input_dim=3, class_mean_radius=1.5, within_class_std=1.0)
    return generate(profile, geom, SeededRng(seed).child("datagen"))


def test_per_class_batch_tail_count():
    ds = _longtail_dataset()
    assert len(per_class_batch(ds, 9)) == 50


def test_per_class_batches_partition_dataset():
    ds = _longtail_dataset()
    rows = []
    for j in range(ds.num_classes):
        rows.append(per_class_batch(ds, j).features)
    stacked = {r.tobytes() for r in np.vstack(rows)}
    original = {r.tobytes() for r in ds.features}
    assert stacked == original
    assert sum(len(per_class_batch(ds, j)) for j in range(10)) == len(ds)


def test_per_class_empty_class():
    ds = _longtail_dataset()
    with pytest.raises(EmptyClassError):
        per_class_batch(ds, 99)


def test_classwise_loss_decomposition():
    # weighted mean of per-class losses with weights n_j/N equals the
    # full-dataset unweighted loss
    profile = ImbalanceProfile("longtail", 4, 60, 6.0)
    geom = ClassGeometry(input_dim=5, class_mean_radius=2.0)
    ds = generate(profile, geom, SeededRng(31).child("datagen"))
    spec, w = make_model(32, (5, 8, 4))
    loss = LossSpec(variant="ce", class_counts=ds.class_counts)
    total, _ = loss_grad(spec, w, Batch(ds.features, ds.labels), loss)
    n = len(ds)
    mix = sum(
        (count / n) * loss_grad(spec, w, per_class_batch(ds, j), loss)[0]
        for j, count in enumerate(ds.class_counts)
    )
    assert total == pytest.approx(mix, abs=1e-12)


def _chunked_case(n, seed=60):
    """A VS-loss tanh MLP with class weights on an n-row batch: every fixed
    array the chunks cut, the curvature's weights and multiplier included."""
    spec = MlpSpec((5, 8, 6, 3))
    rng = SeededRng(seed)
    w = init_params(spec, rng.child("init"))
    w += 0.3 * rng.child("shift").normal(size=w.shape[0])
    data = rng.child("data", n)
    batch = Batch(data.normal(size=(n, 5)), data.generator.integers(0, 3, n))
    loss = LossSpec("vs", class_counts=(12, 6, 2), class_weights=(1.0, 2.5, 4.0))
    return spec, w, batch, loss, rng.child("tangent").normal(size=w.shape[0])


def _one_chunk_hvp(monkeypatch, spec, w, batch, loss, v):
    with monkeypatch.context() as patch:
        patch.setattr(model, "CHUNK_ROWS", len(batch))
        return Linearization(spec, w, batch, loss).hvp(v)


def test_chunked_hvp_matches_finite_differences_and_the_one_chunk_product(monkeypatch):
    n = 5 * CHUNK_ROWS // 2  # two full chunks and a half one
    spec, w, batch, loss, v = _chunked_case(n)
    lin = Linearization(spec, w, batch, loss)
    assert len(lin._chunks) == 3
    hv = lin.hvp(v)
    h = 1e-4
    fd = (loss_grad(spec, w + h * v, batch, loss)[1]
          - loss_grad(spec, w - h * v, batch, loss)[1]) / (2 * h)
    assert np.linalg.norm(fd - hv) <= 1e-6 * np.linalg.norm(hv)
    whole = _one_chunk_hvp(monkeypatch, spec, w, batch, loss, v)
    assert np.linalg.norm(hv - whole) <= 1e-13 * np.linalg.norm(whole)


@pytest.mark.parametrize("n", [1, 17, CHUNK_ROWS])
def test_a_batch_of_at_most_chunk_rows_is_one_chunk_bitwise(monkeypatch, n):
    spec, w, batch, loss, v = _chunked_case(n)
    with monkeypatch.context() as patch:
        patch.setattr(model, "CHUNK_ROWS", 4 * CHUNK_ROWS)
        wide = Linearization(spec, w, batch, loss).hvp(v)
    assert Linearization(spec, w, batch, loss).hvp(v).tobytes() == wide.tobytes()


def _arrays(obj):
    """Every ndarray reachable through lists, tuples, dicts and dataclasses."""
    if isinstance(obj, np.ndarray):
        return [obj]
    if isinstance(obj, dict):
        obj = list(obj.values())
    elif dataclasses.is_dataclass(obj):
        obj = list(vars(obj).values())
    if isinstance(obj, (list, tuple)):
        return [a for item in obj for a in _arrays(item)]
    return []


@pytest.mark.parametrize("n", [17, 5 * CHUNK_ROWS // 2])
def test_threads_share_one_linearization_bitwise(monkeypatch, n):
    spec, w, batch, loss, v = _chunked_case(n)
    tangents = [v] + [SeededRng(61).child("tangent", i).normal(size=w.shape[0]) for i in range(3)]
    alone = [Linearization(spec, w, batch, loss).hvp(u).tobytes() for u in tangents]
    passes = []
    forward_pass = model._forward_pass
    monkeypatch.setattr(model, "_forward_pass", lambda *a: passes.append(1) or forward_pass(*a))
    lin = Linearization(spec, w, batch, loss)
    fixed = [(a, a.tobytes()) for a in _arrays(list(vars(lin).values()))]
    assert len(fixed) > 10
    products, workspaces = {}, {}
    start = threading.Barrier(3, timeout=60)

    def run(k):
        start.wait()
        products[k] = [lin.apply(u).tobytes() for _ in range(20) for u in tangents]
        workspaces[k] = _arrays(lin._workspace())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # the threads take turns far more often than at 5 ms
    try:
        threads = [threading.Thread(target=run, args=(k,)) for k in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert products[0] == products[1] == products[2] == alone * 20
    # the fixed arrays were built once and left as built; each thread made
    # its own workspace
    assert passes == [1]
    assert all(a.tobytes() == data for a, data in fixed)
    assert workspaces[0] and len(workspaces[0]) == len(workspaces[1]) == len(workspaces[2])
    assert not any(np.shares_memory(a, b) for i, j in ((0, 1), (0, 2), (1, 2))
                   for a in workspaces[i] for b in workspaces[j])
