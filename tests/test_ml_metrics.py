"""Unit tests for the metric suite (hand-computed references)."""
import numpy as np
import pytest

from repro.ml import metrics as mx


def test_accuracy():
    assert mx.accuracy([1, 0, 1, 1], [1, 1, 1, 0]) == pytest.approx(0.5)


def test_precision_recall_f1_binary_hand():
    y = np.array([1, 1, 1, 0, 0, 0])
    p = np.array([1, 1, 0, 1, 0, 0])
    # class 1: tp=2 fp=1 fn=1 -> P=2/3 R=2/3 F=2/3
    # class 0: tp=2 fp=1 fn=1 -> P=2/3 R=2/3 F=2/3
    assert mx.precision(y, p) == pytest.approx(2 / 3)
    assert mx.recall(y, p) == pytest.approx(2 / 3)
    assert mx.f1_score(y, p) == pytest.approx(2 / 3)


def test_f1_zero_when_never_predicted():
    y = np.array([1, 1, 0, 0])
    p = np.array([0, 0, 0, 0])
    assert mx.recall(y, p) == pytest.approx(0.5)  # macro: (0 + 1)/2
    assert mx.f1_score(y, p) < 0.5


def test_auc_perfect_and_random():
    y = np.array([0, 0, 1, 1])
    proba = np.array([[0.9, 0.1], [0.8, 0.2], [0.2, 0.8], [0.1, 0.9]])
    assert mx.roc_auc(y, proba, [0, 1]) == pytest.approx(1.0)
    flat = np.full((4, 2), 0.5)
    assert mx.roc_auc(y, flat, [0, 1]) == pytest.approx(0.5)


def test_auc_hand_value():
    y = np.array([1, 0, 1, 0])
    s = np.array([0.9, 0.8, 0.3, 0.1])
    proba = np.column_stack([1 - s, s])
    # pairs: (0.9>0.8)=1, (0.9>0.1)=1, (0.3<0.8)=0, (0.3>0.1)=1 -> 3/4
    # macro over both classes is symmetric for binary: also 3/4
    assert mx.roc_auc(y, proba, [0, 1]) == pytest.approx(0.75)


def test_auc_single_class_is_half():
    y = np.array([1, 1, 1])
    proba = np.column_stack([np.zeros(3), np.ones(3)])
    assert mx.roc_auc(y, proba, [0, 1]) == pytest.approx(0.5)


@pytest.mark.parametrize(
    "fn,expected",
    [(mx.mse, 0.25), (mx.mae, 0.5), (mx.rmse, 0.5)],
)
def test_regression_errors_hand(fn, expected):
    assert fn([1.0, 2.0], [1.5, 2.5]) == pytest.approx(expected)


def test_r2_perfect_and_mean():
    y = np.array([1.0, 2.0, 3.0])
    assert mx.r2(y, y) == pytest.approx(1.0)
    assert mx.r2(y, np.full(3, 2.0)) == pytest.approx(0.0)


def test_tolerance_accuracy():
    y = np.array([0.0, 10.0, 20.0])
    pred = np.array([0.0, 10.0, 100.0])
    acc = mx.tolerance_accuracy(y, pred, tol=0.2)
    assert acc == pytest.approx(2 / 3)


def test_fisher_score_separable_beats_noise():
    rng = np.random.default_rng(0)
    y = np.repeat([0, 1], 100)
    informative = np.concatenate([rng.normal(0, 1, 100), rng.normal(5, 1, 100)])
    noise = rng.normal(size=200)
    hi = mx.fisher_score(informative[:, None], y)
    lo = mx.fisher_score(noise[:, None], y)
    assert hi > 10 * lo


def test_fisher_score_empty_features():
    assert mx.fisher_score(np.empty((10, 0)), np.zeros(10)) == 0.0


def test_mutual_information_signal_vs_noise():
    rng = np.random.default_rng(1)
    y = np.repeat([0, 1], 200)
    informative = y + 0.1 * rng.normal(size=400)
    noise = rng.normal(size=400)
    hi = mx.mutual_information(informative[:, None], y)
    lo = mx.mutual_information(noise[:, None], y)
    assert hi > lo + 0.1


def test_mutual_information_regression_target_binned():
    rng = np.random.default_rng(2)
    y = rng.normal(size=300)
    x = y + 0.1 * rng.normal(size=300)
    assert mx.mutual_information(x[:, None], y) > 0.3


def _mutual_information_add_at(X, y, bins=10):
    """Reference: the per-column quantile and ``np.add.at`` formulation
    that ``mutual_information`` replaced."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if np.issubdtype(y.dtype, np.floating) and len(np.unique(y)) > 10:
        y = np.digitize(y, np.quantile(y, [0.25, 0.5, 0.75]))
    _, yi = np.unique(y, return_inverse=True)
    n = len(yi)
    mis = []
    for j in range(X.shape[1]):
        col = X[:, j]
        edges = np.quantile(col, np.linspace(0, 1, bins + 1)[1:-1])
        xb = np.searchsorted(np.unique(edges), col, side="right")
        joint = np.zeros((xb.max() + 1, yi.max() + 1))
        np.add.at(joint, (xb, yi), 1.0)
        joint /= n
        px = joint.sum(axis=1, keepdims=True)
        py = joint.sum(axis=0, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = joint * np.log(joint / (px @ py))
        mis.append(np.nansum(term))
    return float(np.mean(mis))


def test_mutual_information_matches_add_at_reference():
    """Bit-identical to the reference on ties, a constant column, a
    one-row class and a binned regression target."""
    rng = np.random.default_rng(3)
    n = 61
    X = np.column_stack([
        rng.integers(0, 4, n).astype(float),  # heavy ties: merged edges
        np.full(n, 2.5),  # constant: a single bin
        rng.normal(size=n),
        np.round(rng.normal(size=n), 1),
    ])
    y_cls = np.r_[np.zeros(30), np.ones(30), [2]].astype(int)  # class 2: 1 row
    for y in (y_cls, rng.permutation(y_cls), rng.normal(size=n)):
        assert mx.mutual_information(X, y) == _mutual_information_add_at(X, y)


def test_precision_at_k_hand():
    ranked = {0: [1, 2, 3, 4, 5], 1: [9, 8, 7, 6, 5]}
    rel = {0: {1, 3}, 1: {5}}
    assert mx.precision_at_k(ranked, rel, 5) == pytest.approx((2 / 5 + 1 / 5) / 2)


def test_recall_at_k_hand():
    ranked = {0: [1, 2, 3], 1: [4, 5, 6]}
    rel = {0: {1, 9}, 1: {4, 5, 6, 7}}
    assert mx.recall_at_k(ranked, rel, 3) == pytest.approx((0.5 + 0.75) / 2)


def test_recall_skips_users_without_relevant():
    ranked = {0: [1], 1: [2]}
    rel = {0: {1}}
    assert mx.recall_at_k(ranked, rel, 1) == pytest.approx(1.0)


def test_ndcg_hand():
    ranked = {0: [5, 1, 2]}
    rel = {0: {1, 2}}
    dcg = 1 / np.log2(3) + 1 / np.log2(4)
    idcg = 1 / np.log2(2) + 1 / np.log2(3)
    assert mx.ndcg_at_k(ranked, rel, 3) == pytest.approx(dcg / idcg)


def test_ndcg_perfect_is_one():
    ranked = {0: [1, 2, 3]}
    rel = {0: {1, 2, 3}}
    assert mx.ndcg_at_k(ranked, rel, 3) == pytest.approx(1.0)


def test_ranking_empty_inputs():
    assert mx.precision_at_k({}, {}, 5) == 0.0
    assert mx.recall_at_k({}, {}, 5) == 0.0
    assert mx.ndcg_at_k({}, {}, 5) == 0.0
