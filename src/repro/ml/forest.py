"""Bagged random-forest classifier over one-hot multi-output trees.

Variance reduction on one-hot targets equals Gini impurity reduction up
to a constant, so each bagged ``RegressionTree`` is a proper
classification tree; class probabilities are the bag-average of leaf
one-hot means.
"""
from __future__ import annotations

import numpy as np

from repro.ml.tree import RegressionTree, summed_importances


class RandomForestClassifier:
    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int = 8,
        min_samples_leaf: int = 2,
        max_features="sqrt",
        seed: int = 0,
    ):
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestClassifier":
        X = np.asarray(X, dtype=np.float64)
        self.classes_, yi = np.unique(y, return_inverse=True)
        onehot = np.eye(len(self.classes_))[yi]
        rng = np.random.default_rng(self.seed)
        n = X.shape[0]
        self.trees_: list[RegressionTree] = []
        for _ in range(self.n_estimators):
            idx = rng.integers(0, n, n)
            t = RegressionTree(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                rng=rng,
            ).fit(X[idx], onehot[idx])
            self.trees_.append(t)
        return self

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        P = np.zeros((X.shape[0], len(self.classes_)))
        for t in self.trees_:
            p = t.predict(X)
            P += p[:, None] if p.ndim == 1 else p
        P /= len(self.trees_)
        # Bagged leaf means are already a distribution, but guard anyway.
        P = np.clip(P, 0, None)
        s = P.sum(axis=1, keepdims=True)
        return np.where(s > 0, P / s, 1.0 / P.shape[1])

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self.predict_proba(X), axis=1)]

    @property
    def feature_importances_(self) -> np.ndarray:
        return summed_importances(self.trees_)
