import numpy as np
import pytest

from saddlelab.datagen import (
    ClassGeometry,
    GroupThresholds,
    ImbalanceProfile,
    LabeledDataset,
    balanced_test_split,
    class_counts,
    class_means,
    generate,
)
from saddlelab.errors import (
    DimensionError,
    GeometryError,
    InfeasibleProfileError,
    ParameterError,
)
from saddlelab.linalg import SeededRng
from saddlelab.losses import LossSpec
from saddlelab.model import Batch, Linearization, MlpSpec, init_params

CIFAR10_LT = ImbalanceProfile("longtail", 10, 5000, 100.0)


def test_longtail_endpoint_counts():
    counts = class_counts(CIFAR10_LT)
    assert counts[0] == 5000
    assert counts[-1] == 50


def test_longtail_interior_count():
    # 5000 * 100**(-1/9) = 2997.43... rounded half-up
    assert class_counts(CIFAR10_LT)[1] == 2997


def test_step_counts():
    counts = class_counts(ImbalanceProfile("step", 10, 5000, 100.0))
    assert counts == (5000,) * 5 + (50,) * 5


def test_counts_monotone_and_ratio():
    counts = class_counts(CIFAR10_LT)
    assert all(a >= b for a, b in zip(counts, counts[1:]))
    assert counts[0] / counts[-1] == pytest.approx(100.0, rel=0.01)


def test_balanced_limit():
    counts = class_counts(ImbalanceProfile("longtail", 2, 100, 1.0 + 1e-9))
    assert counts == (100, 100)


def test_infeasible_profile():
    with pytest.raises(InfeasibleProfileError):
        class_counts(ImbalanceProfile("longtail", 10, 10, 100.0))


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("make", [
    lambda v: ImbalanceProfile("longtail", 4, 100, v),
    lambda v: ClassGeometry(input_dim=3, class_mean_radius=v),
    lambda v: ClassGeometry(input_dim=3, within_class_std=v),
], ids=["beta", "class_mean_radius", "within_class_std"])
def test_non_finite_value_is_rejected(make, value):
    # a config never reaches these checks: its JSON reader rejects NaN and
    # infinities first
    with pytest.raises(ParameterError, match="finite"):
        make(value)


def test_generate_counts_and_determinism():
    profile = ImbalanceProfile("longtail", 3, 40, 8.0)
    geom = ClassGeometry(input_dim=4, class_mean_radius=2.0, within_class_std=0.7)
    a = generate(profile, geom, SeededRng(5).child("datagen"))
    b = generate(profile, geom, SeededRng(5).child("datagen"))
    assert a.class_counts == class_counts(profile)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)


def test_generate_degenerate_std():
    profile = ImbalanceProfile("longtail", 2, 10, 2.0)
    geom = ClassGeometry(input_dim=3, class_mean_radius=1.0, within_class_std=0.0)
    ds = generate(profile, geom, SeededRng(1))
    means = class_means(geom, 2)
    for j in range(2):
        rows = ds.features[ds.labels == j]
        assert np.array_equal(rows, np.tile(means[j], (len(rows), 1)))


def test_simplex_dimension_error():
    geom = ClassGeometry(input_dim=2, mean_placement="simplex")
    profile = ImbalanceProfile("longtail", 5, 100, 2.0)
    with pytest.raises(GeometryError):
        generate(profile, geom, SeededRng(0))


def test_simplex_vertices_equidistant():
    geom = ClassGeometry(input_dim=5, class_mean_radius=2.0, mean_placement="simplex")
    means = class_means(geom, 4)
    dists = [np.linalg.norm(means[i] - means[j]) for i in range(4) for j in range(i + 1, 4)]
    assert np.ptp(dists) < 1e-12
    assert all(abs(np.linalg.norm(m) - 2.0) < 1e-12 for m in means)


def test_linear_probe_separates_well_separated_classes():
    # closed-form least-squares classifier as the oracle: with means far apart
    # relative to the spread it must score > 99% on a balanced test split
    profile = ImbalanceProfile("longtail", 2, 400, 4.0)
    geom = ClassGeometry(input_dim=6, class_mean_radius=5.0, within_class_std=0.5)
    ds = generate(profile, geom, SeededRng(31).child("datagen"))
    test = balanced_test_split(ds, 250, SeededRng(31).child("testgen"))
    x = np.hstack([ds.features, np.ones((len(ds), 1))])
    y = np.where(ds.labels == 0, -1.0, 1.0)
    coef, *_ = np.linalg.lstsq(x, y, rcond=None)
    xt = np.hstack([test.features, np.ones((len(test), 1))])
    preds = (xt @ coef > 0).astype(int)
    assert np.mean(preds == test.labels) > 0.99


def test_split_by_rule_on_longtail_counts():
    counts = class_counts(CIFAR10_LT)  # (5000, 2997, 1797, 1077, 646, 387, 232, 139, 83, 50)
    groups = GroupThresholds(hi=1500, lo=250).split(counts)
    assert groups.head == (0, 1, 2)
    # the strict n_j < 250 rule puts class 6 (232 samples) in the tail; the
    # 3/4/3 grouping the thresholds were quoted with needs lo <= 232
    assert groups.tail == (6, 7, 8, 9)
    groups_343 = GroupThresholds(hi=1500, lo=200).split(counts)
    assert groups_343.head == (0, 1, 2)
    assert groups_343.mid == (3, 4, 5, 6)
    assert groups_343.tail == (7, 8, 9)


def test_split_rejects_hi_below_lo():
    # the 100-row class, under lo, would be head
    with pytest.raises(ParameterError, match="hi 50 is below lo 200"):
        GroupThresholds(hi=50, lo=200).split([500, 100, 10])
    # the default hi, 500/3.3 = 151.5, against an explicit lo
    with pytest.raises(ParameterError, match="hi 151.515 is below lo 400"):
        GroupThresholds(lo=400).split([500, 324, 210, 10])
    assert GroupThresholds(100, 100).split([500, 100, 10]).head == (0,)


def test_split_all_equal_counts():
    groups = GroupThresholds().split([100, 100, 100])
    assert groups.head == (0, 1, 2)
    assert groups.mid == () and groups.tail == ()


def test_split_step_profile():
    counts = class_counts(ImbalanceProfile("step", 10, 5000, 100.0))
    groups = GroupThresholds().split(counts)
    assert groups.head == (0, 1, 2, 3, 4)
    assert groups.tail == (5, 6, 7, 8, 9)


def test_split_partitions_classes():
    counts = class_counts(CIFAR10_LT)
    groups = GroupThresholds().split(counts)
    assert tuple(sorted(groups.head + groups.mid + groups.tail)) == tuple(range(10))
    assert not (set(groups.head) & set(groups.mid))
    assert not (set(groups.mid) & set(groups.tail))


def test_balanced_test_split_empty():
    # a split with no rows per class is no test set: evaluate could not score
    # its classes, and the config's test_per_class has the same rule
    ds = generate(ImbalanceProfile("longtail", 2, 20, 2.0),
                  ClassGeometry(input_dim=2), SeededRng(0))
    with pytest.raises(ParameterError, match="per_class must be >= 1"):
        balanced_test_split(ds, 0, SeededRng(1))


@pytest.mark.parametrize("call, match", [
    (lambda ds: GroupThresholds().split([]), "counts must be non-empty"),
    (lambda ds: balanced_test_split(ds, -1, SeededRng(1)), "per_class must be >= 1"),
], ids=["split-no-classes", "negative-per-class"])
def test_an_argument_out_of_range_is_rejected(call, match):
    ds = generate(ImbalanceProfile("longtail", 2, 20, 2.0),
                  ClassGeometry(input_dim=2), SeededRng(0))
    with pytest.raises(ParameterError, match=match):
        call(ds)


def test_balanced_test_split_counts():
    ds = generate(ImbalanceProfile("longtail", 10, 60, 3.0),
                  ClassGeometry(input_dim=2), SeededRng(2))
    test = balanced_test_split(ds, 100, SeededRng(3))
    assert len(test) == 1000
    assert np.bincount(test.labels).tolist() == [100] * 10


def test_test_rows_disjoint_from_train():
    ds = generate(ImbalanceProfile("longtail", 2, 50, 5.0),
                  ClassGeometry(input_dim=3), SeededRng(4).child("datagen"))
    test = balanced_test_split(ds, 30, SeededRng(4).child("testgen"))
    train_rows = {row.tobytes() for row in ds.features}
    assert all(row.tobytes() not in train_rows for row in test.features)


def test_labels_that_disagree_with_class_counts_are_rejected():
    with pytest.raises(DimensionError, match="class_counts"):
        LabeledDataset(np.zeros((3, 2)), [0, 1, 1], (2, 1), ClassGeometry(input_dim=2))


def test_a_row_count_other_than_the_label_count_is_rejected():
    with pytest.raises(DimensionError, match="labels length"):
        LabeledDataset(np.zeros((4, 2)), [0, 1, 1], (1, 2), ClassGeometry(input_dim=2))


def test_a_dataset_linearizes_as_the_batch_of_its_rows():
    ds = generate(ImbalanceProfile("longtail", 3, 40, 4.0), ClassGeometry(input_dim=4),
                  SeededRng(11).child("datagen"))
    spec = MlpSpec((4, 7, 3))
    w = init_params(spec, SeededRng(12).child("init"))
    loss = LossSpec(variant="ce", class_counts=ds.class_counts)
    v = SeededRng(13).normal(size=w.shape[0])
    as_dataset = Linearization(spec, w, ds, loss).hvp(v)
    as_batch = Linearization(spec, w, Batch(ds.features, ds.labels), loss).hvp(v)
    assert as_dataset.tobytes() == as_batch.tobytes()
