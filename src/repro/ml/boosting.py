"""Gradient boosting on the binned CART primitive.

``GradientBoostingRegressor`` supports multi-output targets directly
(squared loss: each stage fits a multi-output tree to the residual
matrix), which is exactly the "multi-output Gradient Boosting Model"
(MO-GBM) the paper adopts as its performance estimator [34].

``GradientBoostingClassifier`` is softmax boosting: each stage fits one
multi-output tree to the (one-hot − softmax) gradient matrix.
``LightGBMClassifier`` is the same booster with LightGBM-flavoured
defaults (more, shallower trees, stronger shrinkage); its trees grow
depth-wise like every other tree here, and true leaf-wise growth is out
of scope and documented in DESIGN.md.

``X`` is the same at every stage, so a booster bins it once per fit and
hands the bin codes to every stage's tree. A fitted booster packs its
trees into one :class:`~repro.ml.tree.TreeStack` and predicts all stages
in one pass.
"""
from __future__ import annotations

import numpy as np

from repro.ml.tree import RegressionTree, TreeStack, bin_features, summed_importances


def _staged_sum(init: np.ndarray, lr: float, stack: TreeStack, X) -> np.ndarray:
    """``init + lr·tree_1(X) + lr·tree_2(X) + …`` for every row of ``X``.

    ``cumsum`` adds the stages one at a time in fit order, so the sum is
    the same, to the last bit, as a loop of ``F += lr * tree.predict(X)``.
    """
    U = stack.predict(X)
    A = np.empty((U.shape[1] + 1, U.shape[0], U.shape[2]))
    A[0] = init
    A[1:] = lr * U.transpose(1, 0, 2)
    return np.cumsum(A, axis=0)[-1]


def _softmax(F: np.ndarray) -> np.ndarray:
    Z = F - F.max(axis=1, keepdims=True)
    E = np.exp(Z)
    return E / E.sum(axis=1, keepdims=True)


class _Booster:
    """The stage loop both boosters share: each stage fits one tree to
    the loss gradient at the current F and adds ``learning_rate`` times
    its prediction to F."""

    def __init__(self, n_estimators, learning_rate, max_depth, min_samples_leaf):
        self.n_estimators = n_estimators
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf

    def _fit_stages(self, X: np.ndarray, F: np.ndarray, gradient) -> None:
        bins = bin_features(X)
        self.trees_: list[RegressionTree] = []
        for _ in range(self.n_estimators):
            t = RegressionTree(
                max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
            ).fit_binned(*bins, gradient(F))
            upd = t.predict(X)
            F += self.learning_rate * (upd[:, None] if upd.ndim == 1 else upd)
            self.trees_.append(t)
        self._stack = TreeStack(self.trees_)

    @property
    def feature_importances_(self) -> np.ndarray:
        return summed_importances(self.trees_)


class GradientBoostingRegressor(_Booster):
    """Squared-loss boosting; multi-output if ``y`` is 2-D."""

    def __init__(
        self,
        n_estimators: int = 50,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        min_samples_leaf: int = 3,
    ):
        super().__init__(n_estimators, learning_rate, max_depth, min_samples_leaf)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        self._single = y.ndim == 1
        Y = y[:, None] if self._single else y
        self.init_ = Y.mean(axis=0)
        self._fit_stages(X, np.tile(self.init_, (X.shape[0], 1)), lambda F: Y - F)
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        F = _staged_sum(self.init_, self.learning_rate, self._stack, X)
        return F[:, 0] if self._single else F


class GradientBoostingClassifier(_Booster):
    """Softmax gradient boosting; handles binary and multiclass labels."""

    def __init__(
        self,
        n_estimators: int = 40,
        learning_rate: float = 0.2,
        max_depth: int = 3,
        min_samples_leaf: int = 3,
    ):
        super().__init__(n_estimators, learning_rate, max_depth, min_samples_leaf)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GradientBoostingClassifier":
        X = np.asarray(X, dtype=np.float64)
        self.classes_, yi = np.unique(y, return_inverse=True)
        K = len(self.classes_)
        onehot = np.eye(K)[yi]
        self._fit_stages(X, np.zeros((X.shape[0], K)), lambda F: onehot - _softmax(F))
        return self

    def _decision(self, X: np.ndarray) -> np.ndarray:
        init = np.zeros(len(self.classes_))
        return _staged_sum(init, self.learning_rate, self._stack, X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return _softmax(self._decision(X))

    def predict(self, X: np.ndarray) -> np.ndarray:
        return self.classes_[np.argmax(self._decision(X), axis=1)]


class LightGBMClassifier(GradientBoostingClassifier):
    """LightGBM-lite: the softmax booster with LightGBM-ish defaults."""

    def __init__(
        self,
        n_estimators: int = 60,
        learning_rate: float = 0.15,
        max_depth: int = 4,
        min_samples_leaf: int = 5,
    ):
        super().__init__(n_estimators, learning_rate, max_depth, min_samples_leaf)
