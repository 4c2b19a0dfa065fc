"""Test-only reference: a verbatim copy of the recursive CART kernel that
src/repro/ml/tree.py replaced. The equivalence tests in test_ml_tree.py
require the vectorized kernel to reproduce its splits, thresholds, leaf
values and predictions bit for bit. Do not edit it to match the kernel.
"""
from __future__ import annotations

import numpy as np

_LEAF = -1


class RegressionTree:
    """Greedy depth-bounded CART over binned features.

    Parameters
    ----------
    max_depth: maximum tree depth (root = depth 0).
    min_samples_leaf: minimum rows on each side of a split.
    max_features: number of candidate features per split (``None`` = all,
        ``"sqrt"`` = ceil(sqrt(d))); sampling requires ``rng``.
    n_bins: max quantile bins per feature.
    rng: ``np.random.Generator`` for feature subsampling (forests).
    """

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 5,
        max_features=None,
        n_bins: int = 64,
        rng: np.random.Generator | None = None,
    ):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.n_bins = n_bins
        self.rng = rng

    # -- binning ---------------------------------------------------------
    def _make_bins(self, X: np.ndarray) -> list[np.ndarray]:
        edges = []
        for j in range(X.shape[1]):
            col = X[:, j]
            qs = np.quantile(col, np.linspace(0, 1, self.n_bins + 1)[1:-1])
            edges.append(np.unique(qs))
        return edges

    def _bin(self, X: np.ndarray) -> np.ndarray:
        out = np.empty(X.shape, dtype=np.int32)
        for j, e in enumerate(self._edges):
            out[:, j] = np.searchsorted(e, X[:, j], side="right")
        return out

    # -- fitting ---------------------------------------------------------
    def fit(self, X: np.ndarray, Y: np.ndarray) -> "RegressionTree":
        X = np.asarray(X, dtype=np.float64)
        Y = np.asarray(Y, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y[:, None]
        self.n_outputs_ = Y.shape[1]
        self._edges = self._make_bins(X)
        B = self._bin(X)
        # Growable flat arrays describing the tree.
        self._feature: list[int] = []
        self._threshold: list[float] = []  # raw-value threshold (<= goes left)
        self._bin_thr: list[int] = []
        self._left: list[int] = []
        self._right: list[int] = []
        self._value: list[np.ndarray] = []
        self._grow(B, Y, np.arange(X.shape[0]), depth=0)
        return self

    def _new_node(self, value: np.ndarray) -> int:
        self._feature.append(_LEAF)
        self._threshold.append(np.nan)
        self._bin_thr.append(-1)
        self._left.append(-1)
        self._right.append(-1)
        self._value.append(value)
        return len(self._feature) - 1

    def _grow(self, B: np.ndarray, Y: np.ndarray, idx: np.ndarray, depth: int) -> int:
        y = Y[idx]
        node = self._new_node(y.mean(axis=0))
        n = idx.size
        if depth >= self.max_depth or n < 2 * self.min_samples_leaf:
            return node
        d = B.shape[1]
        if self.max_features is None:
            feats = np.arange(d)
        else:
            k = (
                max(1, int(np.ceil(np.sqrt(d))))
                if self.max_features == "sqrt"
                else min(d, int(self.max_features))
            )
            rng = self.rng or np.random.default_rng(0)
            feats = rng.choice(d, size=k, replace=False)
        total_sum = y.sum(axis=0)
        best = (0.0, -1, -1)  # (gain, feature, bin)
        Bi = B[idx]
        for j in feats:
            bj = Bi[:, j]
            nb = bj.max() + 1
            if nb < 2:
                continue
            cnt = np.bincount(bj, minlength=nb).astype(np.float64)
            sums = np.empty((nb, y.shape[1]))
            for k_out in range(y.shape[1]):
                sums[:, k_out] = np.bincount(bj, weights=y[:, k_out], minlength=nb)
            c_cnt = np.cumsum(cnt)[:-1]
            c_sum = np.cumsum(sums, axis=0)[:-1]
            nl, nr = c_cnt, n - c_cnt
            ok = (nl >= self.min_samples_leaf) & (nr >= self.min_samples_leaf)
            if not ok.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                gain = (c_sum**2).sum(axis=1) / nl + (
                    (total_sum - c_sum) ** 2
                ).sum(axis=1) / nr
            gain = np.where(ok, gain, -np.inf)
            b = int(np.argmax(gain))
            g = gain[b] - (total_sum**2).sum() / n
            if g > best[0] + 1e-12:
                best = (g, int(j), b)
        if best[1] < 0:
            return node
        _, j, b = best
        go_left = B[idx, j] <= b
        li, ri = idx[go_left], idx[~go_left]
        self._feature[node] = j
        self._bin_thr[node] = b
        e = self._edges[j]
        self._threshold[node] = e[b] if b < len(e) else np.inf
        self._left[node] = self._grow(B, Y, li, depth + 1)
        self._right[node] = self._grow(B, Y, ri, depth + 1)
        return node

    # -- prediction ------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty((X.shape[0], self.n_outputs_))
        self._apply(X, np.arange(X.shape[0]), 0, out)
        return out[:, 0] if self.n_outputs_ == 1 else out

    def _apply(self, X, idx, node, out) -> None:
        while True:
            j = self._feature[node]
            if j == _LEAF:
                out[idx] = self._value[node]
                return
            thr = self._threshold[node]
            # bin(x) <= b  <=>  count(edges <= x) <= b  <=>  x < edges[b]
            go_left = X[idx, j] < thr
            li, ri = idx[go_left], idx[~go_left]
            if li.size == 0:
                idx, node = ri, self._right[node]
            elif ri.size == 0:
                idx, node = li, self._left[node]
            else:
                self._apply(X, li, self._left[node], out)
                idx, node = ri, self._right[node]

    @property
    def feature_importances_(self) -> np.ndarray:
        """Split-count importance, normalized to sum to 1."""
        d = 1 + max((f for f in self._feature if f != _LEAF), default=0)
        imp = np.zeros(d)
        for f in self._feature:
            if f != _LEAF:
                imp[f] += 1.0
        s = imp.sum()
        return imp / s if s > 0 else imp


# -- the boosters' fit loops before they binned X once per fit -------------
# Each stage fits a reference tree on the raw X, as the boosters used to.
def fit_gbr(gb, X, y):
    """Fit a ``GradientBoostingRegressor`` stage by stage on raw ``X``."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    gb._single = y.ndim == 1
    Y = y[:, None] if gb._single else y
    gb.init_ = Y.mean(axis=0)
    F = np.tile(gb.init_, (X.shape[0], 1))
    gb.trees_ = []
    for _ in range(gb.n_estimators):
        t = RegressionTree(
            max_depth=gb.max_depth, min_samples_leaf=gb.min_samples_leaf
        ).fit(X, Y - F)
        upd = t.predict(X)
        F += gb.learning_rate * (upd[:, None] if upd.ndim == 1 else upd)
        gb.trees_.append(t)
    return gb


def fit_gbc(gb, X, y):
    """Fit a ``GradientBoostingClassifier`` stage by stage on raw ``X``."""
    from repro.ml.boosting import _softmax

    X = np.asarray(X, dtype=np.float64)
    gb.classes_, yi = np.unique(y, return_inverse=True)
    K = len(gb.classes_)
    onehot = np.eye(K)[yi]
    F = np.zeros((X.shape[0], K))
    gb.trees_ = []
    for _ in range(gb.n_estimators):
        grad = onehot - _softmax(F)
        t = RegressionTree(
            max_depth=gb.max_depth, min_samples_leaf=gb.min_samples_leaf
        ).fit(X, grad)
        upd = t.predict(X)
        F += gb.learning_rate * (upd[:, None] if upd.ndim == 1 else upd)
        gb.trees_.append(t)
    return gb


def predict_gbr(gb, X):
    """``GradientBoostingRegressor.predict``, one stage at a time."""
    X = np.asarray(X, dtype=np.float64)
    F = np.tile(gb.init_, (X.shape[0], 1))
    for t in gb.trees_:
        upd = t.predict(X)
        F += gb.learning_rate * (upd[:, None] if upd.ndim == 1 else upd)
    return F[:, 0] if gb._single else F


def predict_proba_gbc(gb, X):
    """``GradientBoostingClassifier.predict_proba``, one stage at a time."""
    from repro.ml.boosting import _softmax

    X = np.asarray(X, dtype=np.float64)
    F = np.zeros((X.shape[0], len(gb.classes_)))
    for t in gb.trees_:
        upd = t.predict(X)
        F += gb.learning_rate * (upd[:, None] if upd.ndim == 1 else upd)
    return _softmax(F)
