"""SkSFM: SelectFromModel-style feature selection [34].

sklearn's SelectFromModel fits an estimator with feature importances
and keeps features whose importance exceeds the mean. We fit our
gradient-boosting ensemble on the *universal* table (feature selection
baselines see all joinable data but only drop columns — the paper's
point is that they "reduce data at the cost of accuracy with improved
training efficiency" because noisy *rows* are retained).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from repro.ml.boosting import GradientBoostingClassifier, GradientBoostingRegressor
from repro.tasks import CLASSIFICATION, TabularTask, _encode, _featurize


def sksfm(universal_pdf: pd.DataFrame, task: TabularTask) -> pd.DataFrame:
    """Keep key/target plus features with above-mean GB importance."""
    pdf = universal_pdf.dropna(subset=[task.target])
    feats = [c for c in pdf.columns if c not in task.protected_cols()]
    X = _featurize(_encode(pdf, feats))
    y = pdf[task.target].to_numpy()
    if task.kind == CLASSIFICATION:
        model = GradientBoostingClassifier(n_estimators=25, max_depth=3)
    else:
        model = GradientBoostingRegressor(n_estimators=25, max_depth=3)
    model.fit(X, y)
    imp = np.zeros(len(feats))
    fi = model.feature_importances_
    imp[: len(fi)] = fi
    keep = [f for f, w in zip(feats, imp) if w > imp.mean()]
    if not keep:  # degenerate importances: keep the single best feature
        keep = [feats[int(np.argmax(imp))]]
    return universal_pdf[task.keep_cols() + keep]
