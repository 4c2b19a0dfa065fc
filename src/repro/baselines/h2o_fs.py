"""H2O-lite: linear-model feature selection [15].

The paper uses H2O AutoML's feature-selection module, "which fits
features and predictors into a linear model". Here: standardize the
universal table's features, fit ridge/softmax-logistic, and keep the
features whose aggregate |coefficient| exceeds the mean — column-only
reduction, like SkSFM, but under a linear lens (so it keeps moderately
more columns and lands between SkSFM and the augmenters in the tables).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.ml.linear import LinearRegression, LogisticRegression
from repro.tasks import CLASSIFICATION, TabularTask, _encode, _featurize


def h2o_fs(universal_pdf: pd.DataFrame, task: TabularTask) -> pd.DataFrame:
    """Keep key/target plus features with above-mean |linear coef|."""
    pdf = universal_pdf.dropna(subset=[task.target])
    feats = [c for c in pdf.columns if c not in task.protected_cols()]
    X = _featurize(_encode(pdf, feats))
    sd = X.std(axis=0)
    sd[sd == 0] = 1.0
    Z = (X - X.mean(axis=0)) / sd
    y = pdf[task.target].to_numpy()
    if task.kind == CLASSIFICATION:
        model = LogisticRegression(n_iter=150)
        model.fit(Z, y)
        w = np.abs(model.coef_).sum(axis=0)
    else:
        model = LinearRegression(l2=1e-3)
        model.fit(Z, y.astype(np.float64))
        w = np.abs(model.coef_)
    keep = [f for f, wi in zip(feats, w) if wi > w.mean()]
    if not keep:
        keep = [feats[int(np.argmax(w))]]
    return universal_pdf[task.keep_cols() + keep]
