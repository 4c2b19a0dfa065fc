"""Lloyd k-means (numpy) for active-domain clustering.

The paper (§6, "Construction of D_U and Operators") clusters each
attribute's active domain with k-means (max k = 30) and derives one
equality literal per cluster. ``kmeans_1d`` handles that per-attribute
case on top of the general ``kmeans``.
"""
from __future__ import annotations

import numpy as np


def kmeans(
    X: np.ndarray, k: int, n_iter: int = 25, seed: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Return (labels, centers). Deterministic in ``seed``; k is capped
    at the number of distinct rows."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1:
        X = X[:, None]
    uniq = np.unique(X, axis=0)
    k = max(1, min(k, len(uniq)))
    rng = np.random.default_rng(seed)
    centers = uniq[rng.choice(len(uniq), size=k, replace=False)]
    labels = np.zeros(len(X), dtype=np.int64)
    for _ in range(n_iter):
        d2 = ((X[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if np.array_equal(new_labels, labels) and _ > 0:
            break
        labels = new_labels
        for c in range(k):
            pts = X[labels == c]
            if len(pts):
                centers[c] = pts.mean(axis=0)
    return labels, centers


def kmeans_1d(values: np.ndarray, k: int, seed: int = 0) -> np.ndarray:
    """Cluster a 1-D value array; returns per-value labels relabelled so
    that cluster ids are ordered by cluster center (stable literals)."""
    v = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    labels, centers = kmeans(v, k, seed=seed)
    order = np.argsort(centers[:, 0], kind="mergesort")
    remap = np.empty(len(centers), dtype=np.int64)
    remap[order] = np.arange(len(centers))
    return remap[labels]
