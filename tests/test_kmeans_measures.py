"""Unit tests for k-means clustering and the measure normalization layer."""
import numpy as np
import pytest

from repro import measures as ms
from repro.measures import PerfVector
from repro.ml.kmeans import kmeans, kmeans_1d


# -- kmeans -------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 5])
def test_kmeans_label_count(k):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 2))
    labels, centers = kmeans(X, k)
    assert len(centers) == k
    assert set(labels.tolist()) <= set(range(k))


def test_kmeans_k_capped_at_distinct():
    X = np.array([[0.0], [0.0], [1.0], [1.0]])
    labels, centers = kmeans(X, 10)
    assert len(centers) == 2


def test_kmeans_separates_clear_clusters():
    rng = np.random.default_rng(1)
    X = np.concatenate([rng.normal(0, 0.1, 50), rng.normal(10, 0.1, 50)])
    labels = kmeans_1d(X, 2)
    assert len(set(labels[:50].tolist())) == 1
    assert len(set(labels[50:].tolist())) == 1
    assert labels[0] != labels[-1]


def test_kmeans_1d_labels_ordered_by_center():
    X = np.concatenate([np.full(30, 100.0), np.full(30, -5.0), np.full(30, 50.0)])
    labels = kmeans_1d(X, 3)
    # ordered relabelling: smaller values -> smaller cluster ids
    assert labels[30] == 0  # -5
    assert labels[60] == 1  # 50
    assert labels[0] == 2  # 100


def test_kmeans_deterministic():
    rng = np.random.default_rng(2)
    X = rng.normal(size=300)
    assert np.array_equal(kmeans_1d(X, 4, seed=7), kmeans_1d(X, 4, seed=7))


# -- measures -----------------------------------------------------------


def test_higher_better_inverted():
    m = ms.p_acc()
    assert m.normalize(0.9) == pytest.approx(0.1)
    assert m.normalize(1.0) == pytest.approx(m.lo)  # clipped at p_l


def test_cost_measure_scaled_and_clipped():
    m = ms.p_train(ref_seconds=10.0)
    assert m.normalize(5.0) == pytest.approx(0.5)
    assert m.normalize(100.0) == 1.0  # clipped at 1


def test_unbounded_higher_better_uses_reciprocal():
    m = ms.p_fsc()
    assert m.normalize(0.0) == 1.0
    assert m.normalize(1.0) == pytest.approx(0.5)
    assert m.normalize(9.0) == pytest.approx(0.1)


def test_error_measure_direction():
    m = ms.p_mse(ref=4.0)
    assert m.normalize(1.0) < m.normalize(3.0)


def test_perfvector_from_raw_and_vector():
    meas = [ms.p_acc(), ms.p_train(ref_seconds=2.0)]
    pv = PerfVector.from_raw({"acc": 0.8, "train_time": 1.0}, meas)
    assert pv.norm["p_Acc"] == pytest.approx(0.2)
    assert pv.norm["p_Train"] == pytest.approx(0.5)
    assert pv.vector(meas) == pytest.approx((0.2, 0.5))


def test_all_normalized_in_unit_interval():
    meas = [ms.p_acc(), ms.p_f1(), ms.p_mi(), ms.p_mse(ref=1.0)]
    for raw in (0.0, 0.3, 1.0, 5.0):
        for m in meas:
            v = m.normalize(raw)
            assert 0.0 < v <= 1.0
