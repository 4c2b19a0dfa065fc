"""Unit tests for the binned multi-output CART tree."""
import numpy as np
import pytest

from repro.ml import forest
from repro.ml import metrics as mx
from repro.ml.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from repro.ml.forest import RandomForestClassifier
from repro.ml.tree import RegressionTree

from . import reference_tree as ref


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("n", [80, 300])
def test_fits_linear_signal(seed, n):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 4))
    y = 3 * X[:, 0] + 0.05 * rng.normal(size=n)
    t = RegressionTree(max_depth=5, min_samples_leaf=3).fit(X, y)
    assert mx.r2(y, t.predict(X)) > 0.85


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_depth_bounds_leaf_count(depth):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(200, 3))
    y = rng.normal(size=200)
    t = RegressionTree(max_depth=depth, min_samples_leaf=1).fit(X, y)
    n_leaves = sum(1 for f in t._feature if f == -1)
    assert n_leaves <= 2**depth


def test_constant_target_single_leaf():
    X = np.random.default_rng(0).normal(size=(50, 2))
    t = RegressionTree(max_depth=4).fit(X, np.full(50, 7.0))
    assert np.allclose(t.predict(X), 7.0)


def test_multioutput_predicts_both_columns():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(300, 3))
    Y = np.column_stack([X[:, 0], -2 * X[:, 1]])
    t = RegressionTree(max_depth=6, min_samples_leaf=2).fit(X, Y)
    P = t.predict(X)
    assert P.shape == (300, 2)
    assert mx.r2(Y[:, 0], P[:, 0]) > 0.7
    assert mx.r2(Y[:, 1], P[:, 1]) > 0.7


def test_onehot_variance_split_behaves_like_gini():
    """A perfectly separable class boundary is found by the one-hot tree."""
    rng = np.random.default_rng(2)
    X = rng.normal(size=(200, 2))
    y = (X[:, 0] > 0.3).astype(int)
    onehot = np.eye(2)[y]
    t = RegressionTree(max_depth=2, min_samples_leaf=2).fit(X, onehot)
    pred = np.argmax(np.atleast_2d(t.predict(X)), axis=1)
    assert (pred == y).mean() > 0.97


def test_min_samples_leaf_respected():
    rng = np.random.default_rng(3)
    X = rng.normal(size=(60, 2))
    y = rng.normal(size=60)
    t = RegressionTree(max_depth=8, min_samples_leaf=10).fit(X, y)
    # route the training rows to their leaves and count them
    rows = np.bincount(t.apply(X), minlength=t._feature.size)
    leaves = t._feature == -1
    assert leaves.sum() > 1
    assert rows[~leaves].sum() == 0
    assert (rows[leaves] >= 10).all()


def test_deterministic():
    rng = np.random.default_rng(4)
    X = rng.normal(size=(150, 3))
    y = rng.normal(size=150)
    p1 = RegressionTree(max_depth=4).fit(X, y).predict(X)
    p2 = RegressionTree(max_depth=4).fit(X, y).predict(X)
    assert np.array_equal(p1, p2)


def test_feature_importances_sum_and_focus():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(400, 5))
    y = 5 * X[:, 2] + 0.01 * rng.normal(size=400)
    t = RegressionTree(max_depth=4).fit(X, y)
    imp = t.feature_importances_
    assert abs(imp.sum() - 1.0) < 1e-9
    assert imp.argmax() == 2


def test_prediction_on_unseen_values_uses_thresholds():
    X = np.linspace(0, 1, 100)[:, None]
    y = (X[:, 0] > 0.5).astype(float)
    t = RegressionTree(max_depth=3, min_samples_leaf=1).fit(X, y)
    assert t.predict(np.array([[10.0]]))[0] == pytest.approx(1.0)
    assert t.predict(np.array([[-10.0]]))[0] == pytest.approx(0.0)


@pytest.mark.parametrize("max_features", [None, "sqrt", 2])
def test_max_features_variants_fit(max_features):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(200, 6))
    y = X[:, 0] + X[:, 1]
    t = RegressionTree(
        max_depth=5, max_features=max_features, rng=np.random.default_rng(0)
    ).fit(X, y)
    assert np.isfinite(t.predict(X)).all()


# -- bit-identity with the recursive reference kernel -----------------------
def _random_config(seed):
    """A seeded (X, Y, tree kwargs, rng seed) covering the kernel's cases:
    ties, rounded values, a constant column, NaN, feature sampling."""
    r = np.random.default_rng(seed)
    n, d, K = int(r.integers(10, 701)), int(r.integers(1, 25)), int(r.integers(1, 7))
    X = r.normal(size=(n, d))
    kind = seed % 4
    if kind == 1:
        X = np.round(X, 1)
    elif kind == 2:
        X = r.integers(0, 4, size=(n, d)).astype(float)
    elif kind == 3:
        X[r.random(size=(n, d)) < 0.05] = np.nan
    if r.random() < 0.4:
        X[:, r.integers(0, d)] = 3.0
    Y = X[:, :1] * r.normal(size=(1, K)) + r.normal(size=(n, K))
    Y = np.nan_to_num(Y)
    if r.random() < 0.3:
        Y = np.round(Y)
    kw = dict(
        max_depth=int(r.integers(1, 9)),
        min_samples_leaf=int(r.integers(1, 6)),
        max_features=[None, "sqrt", 2][seed % 3],
    )
    return X, Y, kw, int(r.integers(0, 2**31))


def _assert_same_tree(a, b):
    assert np.array_equal(np.array(a._feature), b._feature)
    assert np.array_equal(np.array(a._threshold), b._threshold, equal_nan=True)
    assert np.array_equal(np.array(a._value), b._value)


@pytest.mark.parametrize("block", range(6))
def test_identical_to_reference_kernel(block):
    for seed in range(40 * block, 40 * block + 40):
        X, Y, kw, rs = _random_config(seed)
        if seed % 2:
            Y = Y[:, 0]
        a = ref.RegressionTree(rng=np.random.default_rng(rs), **kw).fit(X, Y)
        b = RegressionTree(rng=np.random.default_rng(rs), **kw).fit(X, Y)
        _assert_same_tree(a, b)
        Xq = np.vstack([X, X[::-1] * 1.1 + 0.05, np.full((1, X.shape[1]), np.nan)])
        assert np.array_equal(a.predict(Xq), b.predict(Xq)), seed


def test_no_feature_columns_single_leaf():
    X, y = np.empty((30, 0)), np.arange(30.0)
    a = ref.RegressionTree(max_depth=3, min_samples_leaf=1).fit(X, y)
    b = RegressionTree(max_depth=3, min_samples_leaf=1).fit(X, y)
    _assert_same_tree(a, b)
    assert np.array_equal(a.predict(X), b.predict(X))
    # feature sampling has nothing to draw from: every tree is one leaf
    rf = RandomForestClassifier(n_estimators=2).fit(X, np.arange(30) % 2)
    assert rf.predict(X).shape == (30,)


def _booster_data(seed, n=300, d=6):
    r = np.random.default_rng(seed)
    X = r.normal(size=(n, d))
    X[:, 1] = np.round(X[:, 1])
    return r, X


@pytest.mark.parametrize("seed", range(3))
def test_regressor_identical_to_reference(seed):
    r, X = _booster_data(seed)
    for Y in (X[:, 0] ** 2 + r.normal(size=len(X)), X[:, :3] + r.normal(size=(len(X), 3))):
        kw = dict(n_estimators=15, max_depth=3)
        a = ref.fit_gbr(GradientBoostingRegressor(**kw), X, Y)
        b = GradientBoostingRegressor(**kw).fit(X, Y)
        for ta, tb in zip(a.trees_, b.trees_):
            _assert_same_tree(ta, tb)
        Xq = X[::-1] + 0.1
        assert np.array_equal(ref.predict_gbr(a, Xq), b.predict(Xq))


@pytest.mark.parametrize("seed", range(3))
def test_classifier_identical_to_reference(seed):
    r, X = _booster_data(seed)
    for n_classes in (2, 4):
        y = np.digitize(X[:, 0] + 0.5 * r.normal(size=len(X)), np.linspace(-1, 1, n_classes - 1))
        kw = dict(n_estimators=12, max_depth=3)
        a = ref.fit_gbc(GradientBoostingClassifier(**kw), X, y)
        b = GradientBoostingClassifier(**kw).fit(X, y)
        for ta, tb in zip(a.trees_, b.trees_):
            _assert_same_tree(ta, tb)
        Xq = X[::-1] + 0.1
        assert np.array_equal(ref.predict_proba_gbc(a, Xq), b.predict_proba(Xq))


@pytest.mark.parametrize("seed", range(3))
def test_forest_identical_to_reference(seed, monkeypatch):
    r, X = _booster_data(seed, n=470, d=16)
    y = (X[:, 0] + r.normal(size=len(X)) > 0).astype(int) + (X[:, 2] > 1)
    kw = dict(n_estimators=5, max_depth=6, seed=seed)
    b = RandomForestClassifier(**kw).fit(X, y)
    monkeypatch.setattr(forest, "RegressionTree", ref.RegressionTree)
    a = RandomForestClassifier(**kw).fit(X, y)
    Xq = X[::-1] + 0.1
    assert np.array_equal(a.predict_proba(Xq), b.predict_proba(Xq))
