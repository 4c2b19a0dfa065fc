"""Evaluation metrics for Table 3's measure catalogue.

Classification: accuracy, macro precision/recall/F1, macro one-vs-rest
ROC-AUC. Regression: MSE, MAE, RMSE, R2, tolerance accuracy (the paper
reports "Accuracy" for the movie-gross regression task; we define it as
the fraction of predictions within a relative tolerance, a common
regression-accuracy convention). Feature-set quality: Fisher score [27]
and histogram mutual information [14, 27]. Ranking: Precision@k,
Recall@k, NDCG@k for the T5 link-regression task.
"""
from __future__ import annotations

import numpy as np

# -- classification ------------------------------------------------------


def accuracy(y_true, y_pred) -> float:
    y_true, y_pred = np.asarray(y_true), np.asarray(y_pred)
    return float((y_true == y_pred).mean())


def _prf(y_true, y_pred):
    classes = np.unique(np.concatenate([y_true, y_pred]))
    ps, rs, fs = [], [], []
    for c in classes:
        tp = float(((y_pred == c) & (y_true == c)).sum())
        fp = float(((y_pred == c) & (y_true != c)).sum())
        fn = float(((y_pred != c) & (y_true == c)).sum())
        p = tp / (tp + fp) if tp + fp > 0 else 0.0
        r = tp / (tp + fn) if tp + fn > 0 else 0.0
        f = 2 * p * r / (p + r) if p + r > 0 else 0.0
        ps.append(p), rs.append(r), fs.append(f)
    return float(np.mean(ps)), float(np.mean(rs)), float(np.mean(fs))


def precision(y_true, y_pred) -> float:
    return _prf(np.asarray(y_true), np.asarray(y_pred))[0]


def recall(y_true, y_pred) -> float:
    return _prf(np.asarray(y_true), np.asarray(y_pred))[1]


def f1_score(y_true, y_pred) -> float:
    return _prf(np.asarray(y_true), np.asarray(y_pred))[2]


def roc_auc(y_true, proba, classes) -> float:
    """Macro one-vs-rest AUC via the rank-statistic (Mann–Whitney) form."""
    y_true = np.asarray(y_true)
    proba = np.asarray(proba, dtype=np.float64)
    aucs = []
    for k, c in enumerate(classes):
        pos = y_true == c
        n_pos, n_neg = int(pos.sum()), int((~pos).sum())
        if n_pos == 0 or n_neg == 0:
            continue
        # average ranks over ties (unique values are sorted ascending)
        s = proba[:, k]
        _, inv, cnt = np.unique(s, return_inverse=True, return_counts=True)
        cum = np.cumsum(cnt)
        avg = cum - (cnt - 1) / 2.0
        ranks = avg[inv]
        auc = (ranks[pos].sum() - n_pos * (n_pos + 1) / 2) / (n_pos * n_neg)
        aucs.append(auc)
    return float(np.mean(aucs)) if aucs else 0.5


# -- regression ----------------------------------------------------------


def mse(y_true, y_pred) -> float:
    d = np.asarray(y_true, dtype=np.float64) - np.asarray(y_pred, dtype=np.float64)
    return float((d**2).mean())


def mae(y_true, y_pred) -> float:
    d = np.asarray(y_true, dtype=np.float64) - np.asarray(y_pred, dtype=np.float64)
    return float(np.abs(d).mean())


def rmse(y_true, y_pred) -> float:
    return float(np.sqrt(mse(y_true, y_pred)))


def r2(y_true, y_pred) -> float:
    y = np.asarray(y_true, dtype=np.float64)
    ss_res = ((y - np.asarray(y_pred)) ** 2).sum()
    ss_tot = ((y - y.mean()) ** 2).sum()
    return float(1 - ss_res / ss_tot) if ss_tot > 0 else 0.0


def tolerance_accuracy(
    y_true, y_pred, tol: float = 0.2, scale: float | None = None
) -> float:
    """Fraction of predictions within ``tol·scale`` of the target.

    ``scale`` defaults to the targets' std, but comparisons across
    *different* candidate datasets must pin a fixed scale (e.g. the
    original base table's target std) or the band itself moves.
    """
    y = np.asarray(y_true, dtype=np.float64)
    s = scale if scale is not None else (y.std() or 1.0)
    return float((np.abs(y - np.asarray(y_pred)) <= tol * s).mean())


# -- feature-set quality -------------------------------------------------


def fisher_score(X: np.ndarray, y: np.ndarray) -> float:
    """Mean per-feature Fisher score: between-class over within-class var.

    For regression targets, ``y`` is first binned into quartile classes.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.size == 0 or X.shape[1] == 0:
        return 0.0
    if np.issubdtype(y.dtype, np.floating) and len(np.unique(y)) > 10:
        y = np.digitize(y, np.quantile(y, [0.25, 0.5, 0.75]))
    classes = np.unique(y)
    mu = X.mean(axis=0)
    num = np.zeros(X.shape[1])
    den = np.zeros(X.shape[1])
    for c in classes:
        Xc = X[y == c]
        if len(Xc) == 0:
            continue
        num += len(Xc) * (Xc.mean(axis=0) - mu) ** 2
        den += len(Xc) * Xc.var(axis=0)
    den[den == 0] = 1e-12
    return float(np.mean(num / den))


def mutual_information(X: np.ndarray, y: np.ndarray, bins: int = 10) -> float:
    """Mean histogram MI (nats) between each feature and the target."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.size == 0 or X.shape[1] == 0:
        return 0.0
    if np.issubdtype(y.dtype, np.floating) and len(np.unique(y)) > 10:
        y = np.digitize(y, np.quantile(y, [0.25, 0.5, 0.75]))
    _, yi = np.unique(y, return_inverse=True)
    n, ny = len(yi), yi.max() + 1
    edges = np.quantile(X, np.linspace(0, 1, bins + 1)[1:-1], axis=0)
    mis = []
    for j in range(X.shape[1]):
        xb = np.searchsorted(np.unique(edges[:, j]), X[:, j], side="right")
        nx = xb.max() + 1
        joint = np.bincount(xb * ny + yi, minlength=nx * ny).reshape(nx, ny) / n
        px = joint.sum(axis=1, keepdims=True)
        py = joint.sum(axis=0, keepdims=True)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = joint * np.log(joint / (px @ py))
        mis.append(np.nansum(term))
    return float(np.mean(mis))


# -- ranking (T5) --------------------------------------------------------


def precision_at_k(ranked: dict, relevant: dict, k: int) -> float:
    """Mean over users of |top-k ∩ relevant| / k."""
    vals = []
    for u, items in ranked.items():
        rel = relevant.get(u, set())
        vals.append(len([i for i in items[:k] if i in rel]) / k)
    return float(np.mean(vals)) if vals else 0.0


def recall_at_k(ranked: dict, relevant: dict, k: int) -> float:
    vals = []
    for u, items in ranked.items():
        rel = relevant.get(u, set())
        if not rel:
            continue
        vals.append(len([i for i in items[:k] if i in rel]) / len(rel))
    return float(np.mean(vals)) if vals else 0.0


def ndcg_at_k(ranked: dict, relevant: dict, k: int) -> float:
    vals = []
    for u, items in ranked.items():
        rel = relevant.get(u, set())
        if not rel:
            continue
        dcg = sum(
            1.0 / np.log2(i + 2) for i, it in enumerate(items[:k]) if it in rel
        )
        idcg = sum(1.0 / np.log2(i + 2) for i in range(min(k, len(rel))))
        vals.append(dcg / idcg if idcg > 0 else 0.0)
    return float(np.mean(vals)) if vals else 0.0
