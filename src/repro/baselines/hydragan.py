"""HydraGAN-lite: generative multi-objective data augmentation [6].

HydraGAN synthesizes rows with cooperating agents per metric. Offline
stand-in: a per-class (or target-quantile) Gaussian generator fitted on
the universal table's features, sampling ``n_rows`` synthetic rows.
The paper's point (T4 prose) is that synthetic rows "cannot utilize
verified external data sources" and underperform discovered data —
which the Gaussian generator reproduces a fortiori.
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.tasks import CLASSIFICATION, TabularTask, _encode, _featurize


def hydragan(
    universal_pdf: pd.DataFrame,
    task: TabularTask,
    *,
    n_rows: int = 330,
    seed: int = 0,
) -> pd.DataFrame:
    """Sample synthetic rows from per-class feature Gaussians."""
    rng = np.random.default_rng(seed)
    pdf = universal_pdf.dropna(subset=[task.target])
    feats = [c for c in pdf.columns if c not in task.protected_cols()]
    X = _featurize(_encode(pdf, feats))
    y = pdf[task.target].to_numpy()
    if task.kind == CLASSIFICATION:
        strata = y
    else:
        # Regression: stratify by target quartile and sample the target
        # jointly with the features so synthetic y stays continuous.
        yf = y.astype(float)
        strata = np.digitize(yf, np.quantile(yf, [0.25, 0.5, 0.75]))
        X = np.column_stack([X, yf])
    classes, counts = np.unique(strata, return_counts=True)
    rows, targets = [], []
    for c, cnt in zip(classes, counts):
        k = max(1, int(round(n_rows * cnt / len(strata))))
        Xc = X[strata == c]
        mu, sd = Xc.mean(axis=0), Xc.std(axis=0) + 1e-9
        rows.append(rng.normal(mu, sd, size=(k, X.shape[1])))
        targets.extend([c] * k)
    S = np.vstack(rows)
    if task.kind == CLASSIFICATION:
        out = pd.DataFrame(S, columns=feats)
        out[task.target] = targets
    else:
        out = pd.DataFrame(S[:, :-1], columns=feats)
        out[task.target] = S[:, -1]
    out[task.key] = np.arange(1, len(out) + 1)
    return out[task.keep_cols() + feats]
