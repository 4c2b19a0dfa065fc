"""Binned, vectorized multi-output CART regression tree.

The split criterion is total variance reduction across output columns.
On one-hot encoded class labels this is proportional to Gini impurity
reduction, so the same tree doubles as a classification tree; on raw
targets it is a plain regression tree; on a performance-vector target it
is the building block of the multi-output GBM estimator.

Features are pre-binned into at most ``n_bins`` quantile bins. A node's
split search builds one histogram over all candidate features at once
(the per-node histogram of LightGBM, Ke et al., NeurIPS 2017): bin codes
are offset by ``position · width`` so that one ``bincount`` per output
column fills a (features, bins) table, and the gain of every candidate
split is computed on that table in one pass. Nodes are grown depth-first
from an explicit stack and stored in flat preorder arrays; prediction
routes all rows through the tree one level at a time.
"""
from __future__ import annotations

import numpy as np

_LEAF = -1
N_BINS = 64


def _route(tree, roots: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Leaf reached by every row of ``X`` from every root in ``roots``.

    ``tree`` holds flat node arrays (a :class:`RegressionTree` or a
    :class:`TreeStack`); the result has shape (rows, roots). All rows
    descend one level per step. A leaf is its own left and right child,
    so rows that reached one stay there while the others descend.
    """
    X = np.asarray(X, dtype=np.float64)
    rows = np.arange(X.shape[0])[:, None]
    node = np.broadcast_to(roots, (X.shape[0], roots.size))
    for _ in range(tree._depth):
        go_left = X[rows, tree._feature[node]] < tree._threshold[node]
        node = np.where(go_left, tree._left[node], tree._right[node])
    return node


def bin_features(
    X: np.ndarray, n_bins: int = N_BINS
) -> tuple[list[np.ndarray], np.ndarray]:
    """Quantile bin edges of every column of ``X`` and its bin codes.

    Returns ``(edges, codes)``: ``edges[j]`` holds the unique inner
    quantiles of column ``j`` and ``codes`` is the (d, n) array of
    ``count(edges[j] <= x)``, feature-major so a node can gather rows of
    several features at once. NaN gets the last code of its column.
    """
    X = np.asarray(X, dtype=np.float64)
    Q = np.quantile(X, np.linspace(0, 1, n_bins + 1)[1:-1], axis=0)
    edges = [np.unique(Q[:, j]) for j in range(X.shape[1])]
    codes = np.empty((X.shape[1], X.shape[0]), dtype=np.intp)
    for j, e in enumerate(edges):
        codes[j] = np.searchsorted(e, X[:, j], side="right")
    return edges, codes


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

    The fitted tree is five preorder arrays: ``_feature`` (``-1`` marks a
    leaf), ``_threshold`` (rows with ``x < threshold`` go left, NaN goes
    right), ``_left`` and ``_right`` (a leaf's children are itself) and
    ``_value`` (one row of node means per node).
    """

    def __init__(
        self,
        max_depth: int = 4,
        min_samples_leaf: int = 5,
        max_features=None,
        n_bins: int = N_BINS,
        rng: np.random.Generator | None = None,
    ):
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.n_bins = n_bins
        self.rng = rng

    # -- fitting ---------------------------------------------------------
    def fit(self, X: np.ndarray, Y: np.ndarray) -> "RegressionTree":
        return self.fit_binned(*bin_features(X, self.n_bins), Y)

    def fit_binned(
        self, edges: list[np.ndarray], codes: np.ndarray, Y: np.ndarray
    ) -> "RegressionTree":
        """Fit on the output of :func:`bin_features`, so that a caller
        fitting many trees on the same ``X`` bins it once."""
        Y = np.asarray(Y, dtype=np.float64)
        if Y.ndim == 1:
            Y = Y[:, None]
        d, n = codes.shape
        K = Y.shape[1]
        self.n_outputs_ = K
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[np.ndarray] = []
        msl = self.min_samples_leaf
        self._depth = 0
        # (parent, is_left, rows, depth); the left child is pushed last so
        # that ids are handed out in preorder, as a recursive grower would.
        stack = [(-1, True, np.arange(n), 0)]
        while stack:
            parent, is_left, idx, depth = stack.pop()
            node = len(feature)
            if parent >= 0:
                (left if is_left else right)[parent] = node
            y = Y[idx]
            feature.append(_LEAF)
            threshold.append(np.nan)
            left.append(node)
            right.append(node)
            value.append(y.mean(axis=0))
            self._depth = max(self._depth, depth)
            if depth >= self.max_depth or idx.size < 2 * msl or d == 0:
                continue
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
            split = self._best_split(codes[np.ix_(feats, idx)], y)
            if split is None:
                continue
            p, b = split
            j = int(feats[p])
            feature[node] = j
            # bin(x) <= b  <=>  count(edges <= x) <= b  <=>  x < edges[b]
            threshold[node] = edges[j][b]
            go_left = codes[j, idx] <= b
            stack.append((node, False, idx[~go_left], depth + 1))
            stack.append((node, True, idx[go_left], depth + 1))
        self._feature = np.array(feature, dtype=np.intp)
        self._threshold = np.array(threshold)
        self._left = np.array(left, dtype=np.intp)
        self._right = np.array(right, dtype=np.intp)
        self._value = np.array(value).reshape(-1, K)
        return self

    def _best_split(self, C: np.ndarray, y: np.ndarray) -> tuple[int, int] | None:
        """Best (position in ``C``, bin) split of a node, or ``None``.

        ``C`` is the node's (features, rows) bin codes and ``y`` its
        (rows, K) targets. A split at bin ``b`` sends codes ``<= b`` left.
        """
        f, n = C.shape
        K = y.shape[1]
        nb = C.max(axis=1) + 1  # bins present in the node, per feature
        W = int(nb.max())
        flat = (C + (np.arange(f) * W)[:, None]).ravel()
        cnt = np.bincount(flat, minlength=f * W).reshape(f, W)
        sums = np.empty((f, W, K))
        # Feature-major weights: row k repeats y[:, k] once per feature.
        Yw = np.tile(y.T, (1, f))
        for k in range(K):
            sums[:, :, k] = np.bincount(
                flat, weights=Yw[k], minlength=f * W
            ).reshape(f, W)
        total_sum = y.sum(axis=0)
        nl = np.cumsum(cnt, axis=1).astype(np.float64)
        nr = n - nl
        c_sum = np.cumsum(sums, axis=1).reshape(f * W, K)
        msl = self.min_samples_leaf
        # The last bin of each feature sends every row left: no split.
        ok = (
            (nl >= msl)
            & (nr >= msl)
            & (np.arange(W)[None, :] < (nb - 1)[:, None])
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            gain = (c_sum**2).sum(axis=1).reshape(f, W) / nl + (
                ((total_sum - c_sum) ** 2).sum(axis=1).reshape(f, W) / nr
            )
        gain = np.where(ok, gain, -np.inf)
        bins = np.argmax(gain, axis=1)
        g = gain[np.arange(f), bins] - (total_sum**2).sum() / n
        # Scan in candidate order with a tolerance, so near-ties keep the
        # earliest feature (an argmax over g would break them differently).
        best, best_p = 0.0, -1
        for p, gp in enumerate(g.tolist()):
            if gp > best + 1e-12:
                best, best_p = gp, p
        if best_p < 0:
            return None
        return best_p, int(bins[best_p])

    # -- prediction ------------------------------------------------------
    def apply(self, X: np.ndarray) -> np.ndarray:
        """Index of the leaf each row of ``X`` lands in."""
        return _route(self, np.zeros(1, dtype=np.intp), X)[:, 0]

    def predict(self, X: np.ndarray) -> np.ndarray:
        out = self._value[self.apply(X)]
        return out[:, 0] if self.n_outputs_ == 1 else out

    @property
    def feature_importances_(self) -> np.ndarray:
        """Split-count importance, normalized to sum to 1."""
        imp = np.bincount(
            self._feature[self._feature != _LEAF], minlength=1
        ).astype(np.float64)
        s = imp.sum()
        return imp / s if s > 0 else imp


def summed_importances(trees: list[RegressionTree]) -> np.ndarray:
    """Per-tree importances summed over an ensemble, normalized to sum
    to 1 (shorter vectors are zero-padded)."""
    imps = [t.feature_importances_ for t in trees]
    acc = np.zeros(max(len(i) for i in imps))
    for i in imps:
        acc[: len(i)] += i
    s = acc.sum()
    return acc / s if s > 0 else acc


class TreeStack:
    """Fitted trees packed into one set of flat node arrays, so that a
    booster routes its rows through all of its stages in one pass."""

    def __init__(self, trees: list[RegressionTree]):
        sizes = [t._feature.size for t in trees]
        self._roots = np.cumsum([0] + sizes[:-1], dtype=np.intp)
        self._feature = np.concatenate([t._feature for t in trees])
        self._threshold = np.concatenate([t._threshold for t in trees])
        self._left = np.concatenate(
            [t._left + r for t, r in zip(trees, self._roots)]
        )
        self._right = np.concatenate(
            [t._right + r for t, r in zip(trees, self._roots)]
        )
        self._value = np.concatenate([t._value for t in trees])
        self._depth = max(t._depth for t in trees)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """(rows, trees, outputs) array of every tree's prediction."""
        return self._value[_route(self, self._roots, X)]
