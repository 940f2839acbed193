import math

import numpy as np
import pytest

from saddlelab.errors import DimensionError, NumericError, ParameterError
from saddlelab.linalg import SeededRng
from saddlelab.losses import (
    LossSpec,
    ReweightSchedule,
    drw_weights,
    ldam_margins,
    loss_on_logits,
    loss_terms,
    vs_adjustments,
)

# frozen from a 50-digit mpmath evaluation of 0.5 * (50/5000)**(1/4)
LDAM_HEAD_MARGIN = 0.15811388300841896659994467722164


def random_logits(seed, n, k):
    rng = SeededRng(seed)
    logits = rng.normal(size=(n, k)) * 2.0
    labels = rng.generator.integers(0, k, n)
    return logits, labels


def test_drw_before_threshold():
    sched = ReweightSchedule(threshold_epoch=5)
    assert np.array_equal(drw_weights(sched, (100, 10, 1), 4), np.ones(3))


def test_drw_after_threshold_raw_values():
    sched = ReweightSchedule(threshold_epoch=5)
    assert np.allclose(drw_weights(sched, (100, 10, 1), 5), [0.01, 0.1, 1.0], rtol=0, atol=0)


def test_drw_equal_counts_neutral_any_epoch():
    # equal raw weights normalize away inside the loss
    sched = ReweightSchedule(threshold_epoch=0)
    logits, labels = random_logits(1, 30, 3)
    spec = LossSpec(variant="ce", class_counts=(7, 7, 7))
    v_unit, g_unit = loss_on_logits(spec, logits, labels)
    v_w, g_w = loss_on_logits(spec.with_class_weights(drw_weights(sched, (7, 7, 7), 10)), logits, labels)
    assert v_w == pytest.approx(v_unit, rel=1e-15)
    assert np.allclose(g_w, g_unit, atol=1e-16)


def test_ldam_margins_cifar_like():
    margins = ldam_margins((5000, 50), 0.5)
    assert margins[1] == 0.5
    assert margins[0] == pytest.approx(LDAM_HEAD_MARGIN, abs=1e-12)
    assert margins[0] == pytest.approx(0.158114, abs=1e-6)


def test_ldam_margins_equal_counts():
    assert np.allclose(ldam_margins((30, 30, 30), 0.4), [0.4, 0.4, 0.4])


def test_ldam_margins_scale_free():
    a = ldam_margins((5000, 500, 50), 0.5)
    b = ldam_margins((10000, 1000, 100), 0.5)
    assert np.allclose(a, b, rtol=1e-14)


def test_vs_adjustments_values():
    mult, add = vs_adjustments((5000, 50), gamma=0.05, tau=0.75)
    assert mult[0] == 1.0
    # frozen from a 50-digit evaluation of (1/100)**0.05
    assert mult[1] == pytest.approx(0.79432823472428150206591828283639, abs=1e-12)
    assert mult[1] == pytest.approx(0.794328, abs=1e-6)


def test_vs_adjustments_degenerate():
    mult, add = vs_adjustments((5000, 50), gamma=0.0, tau=0.0)
    assert np.array_equal(mult, np.ones(2))
    assert np.array_equal(add, np.zeros(2))


def test_vs_balanced_counts_equal_shift():
    _, add = vs_adjustments((40, 40, 40, 40), gamma=0.1, tau=0.75)
    assert np.ptp(add) == 0.0


def test_ce_uniform_logits():
    spec = LossSpec(variant="ce", class_counts=(5, 5))
    value, _ = loss_on_logits(spec, np.zeros((1, 2)), [0])
    assert value == pytest.approx(math.log(2.0), rel=1e-15)


def test_ldam_zero_margin_is_ce():
    logits, labels = random_logits(2, 40, 4)
    counts = (100, 40, 10, 4)
    ce = LossSpec(variant="ce", class_counts=counts)
    ldam = LossSpec(variant="ldam", class_counts=counts, ldam_max_margin=0.0)
    v1, g1 = loss_on_logits(ce, logits, labels)
    v2, g2 = loss_on_logits(ldam, logits, labels)
    assert abs(v1 - v2) < 1e-12
    assert np.max(np.abs(g1 - g2)) < 1e-12


def test_vs_identity_adjustments_is_ce():
    logits, labels = random_logits(3, 40, 4)
    counts = (100, 40, 10, 4)
    ce = LossSpec(variant="ce", class_counts=counts)
    vs = LossSpec(variant="vs", class_counts=counts, vs_gamma=0.0, vs_tau=0.0)
    v1, g1 = loss_on_logits(ce, logits, labels)
    v2, g2 = loss_on_logits(vs, logits, labels)
    assert abs(v1 - v2) < 1e-12
    assert np.max(np.abs(g1 - g2)) < 1e-12


@pytest.mark.parametrize("variant", ["ce", "ldam", "vs"])
def test_grad_logits_matches_finite_differences(variant):
    logits, labels = random_logits(4, 12, 3)
    spec = LossSpec(variant=variant, class_counts=(30, 12, 5), class_weights=(0.5, 1.25, 2.0))
    _, grad = loss_on_logits(spec, logits, labels)
    h = 1e-6
    for i in range(logits.shape[0]):
        for j in range(logits.shape[1]):
            lp = logits.copy()
            lp[i, j] += h
            lm = logits.copy()
            lm[i, j] -= h
            vp, _ = loss_on_logits(spec, lp, labels)
            vm, _ = loss_on_logits(spec, lm, labels)
            fd = (vp - vm) / (2 * h)
            assert fd == pytest.approx(grad[i, j], rel=1e-6, abs=1e-10)


@pytest.mark.parametrize("variant", ["ce", "ldam"])
def test_shift_invariance(variant):
    logits, labels = random_logits(5, 20, 3)
    spec = LossSpec(variant=variant, class_counts=(50, 20, 6))
    v1, _ = loss_on_logits(spec, logits, labels)
    v2, _ = loss_on_logits(spec, logits + 13.5, labels)
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_vs_shift_invariance_after_scaling():
    logits, labels = random_logits(6, 20, 3)
    counts = (50, 20, 6)
    spec = LossSpec(variant="vs", class_counts=counts)
    mult, _ = vs_adjustments(counts, spec.vs_gamma, spec.vs_tau)
    # shifting the adjusted logits by c == shifting raw logits by c/gamma_j
    v1, _ = loss_on_logits(spec, logits, labels)
    v2, _ = loss_on_logits(spec, logits + 7.0 / mult, labels)
    assert v1 == pytest.approx(v2, abs=1e-12)


def test_permutation_invariance():
    logits, labels = random_logits(7, 25, 4)
    spec = LossSpec(variant="ce", class_counts=(10, 10, 10, 10),
                    class_weights=(0.1, 0.4, 0.7, 1.0))
    perm = SeededRng(8).permutation(25)
    v1, _ = loss_on_logits(spec, logits, labels)
    v2, _ = loss_on_logits(spec, logits[perm], labels[perm])
    assert v1 == pytest.approx(v2, rel=1e-15)


def test_ce_grad_rows_sum_to_zero():
    logits, labels = random_logits(9, 30, 5)
    spec = LossSpec(variant="ce", class_counts=(5,) * 5)
    _, grad = loss_on_logits(spec, logits, labels)
    assert np.max(np.abs(grad.sum(axis=1))) < 1e-12


def test_uniform_weight_scale_is_neutral():
    logits, labels = random_logits(10, 16, 3)
    spec = LossSpec(variant="ce", class_counts=(8, 5, 3))
    v1, g1 = loss_on_logits(spec.with_class_weights((1.0,) * 3), logits, labels)
    v2, g2 = loss_on_logits(spec.with_class_weights((37.0,) * 3), logits, labels)
    v0, g0 = loss_on_logits(spec, logits, labels)
    assert v1 == v2 == v0
    assert np.array_equal(g1, g2) and np.array_equal(g1, g0)


@pytest.mark.parametrize("variant", ["ce", "ldam", "vs"])
def test_loss_on_logits_weighs_each_sample_by_its_class_weight(variant):
    logits, labels = random_logits(11, 20, 3)
    counts, class_w = (9, 4, 2), (1.0, 2.0, 9.0)
    plain = LossSpec(variant=variant, class_counts=counts)
    weighted = plain.with_class_weights(class_w)
    # per-sample losses and logit gradients of the unweighted loss, scaled
    # back from its 1/n mean, then averaged with weights class_w[label]
    n = labels.shape[0]
    per_sample = np.array([loss_on_logits(plain, logits[i : i + 1], labels[i : i + 1])[0]
                           for i in range(n)])
    _, g_plain = loss_on_logits(plain, logits, labels)
    w = np.array([class_w[y] for y in labels])
    value, grad = loss_on_logits(weighted, logits, labels)
    assert value == pytest.approx(float(np.sum(w * per_sample) / np.sum(w)), rel=1e-14)
    assert np.allclose(grad, g_plain * n * (w / w.sum())[:, None], rtol=1e-13, atol=1e-17)
    assert value != pytest.approx(float(per_sample.mean()), rel=1e-3)


def test_non_finite_logits_rejected():
    spec = LossSpec(variant="ce", class_counts=(2, 2))
    bad = np.array([[0.0, np.inf]])
    with pytest.raises(NumericError):
        loss_on_logits(spec, bad, [0])


@pytest.mark.parametrize("variant", ["ce", "ldam", "vs"])
@pytest.mark.parametrize("class_weights", [None, (1.0, 5.0)])
@pytest.mark.parametrize("bad", [-1, 2])
def test_labels_outside_the_classes_rejected(variant, class_weights, bad):
    # -1 would wrap to the last class in the weight and logit lookups
    spec = LossSpec(variant=variant, class_counts=(3, 3), class_weights=class_weights)
    logits = np.array([[0.0, 1.0], [0.5, -0.5]])
    for fn in (loss_on_logits, loss_terms):
        with pytest.raises(DimensionError, match=r"\[0, 2\)"):
            fn(spec, logits, [0, bad])


def test_class_weights_must_be_positive():
    with pytest.raises(ParameterError):
        LossSpec(variant="ce", class_counts=(3, 3), class_weights=(1.0, 0.0))
