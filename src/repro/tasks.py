"""Task wrappers: a fixed deterministic model M evaluated on a candidate
dataset, returning the raw measure dict that a :class:`~repro.measures`
catalogue normalizes.

A :class:`TabularTask` owns featurization (ordinal-encode categoricals,
median-impute numerics — the null-fill required after the paper's
outer-join Augment), a deterministic key-hash train/test split (so every
candidate dataset is scored on a consistent holdout), and a training-time
measure. Wall-clock time is noisy at millisecond scale, so a
deterministic cost model (``rows·cols·unit``) is injectable for tests;
benchmarks use real ``perf_counter`` time. The model factory must build
a *fixed deterministic* model (paper §2) — all our numpy models are
seeded.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pandas as pd

from repro.ml import metrics as mx

CLASSIFICATION = "classification"
REGRESSION = "regression"


def _featurize(
    pdf: pd.DataFrame, feature_cols: list[str]
) -> np.ndarray:
    """Ordinal-encode object/category columns, median-impute NaNs."""
    cols = []
    for c in feature_cols:
        s = pdf[c]
        if s.dtype == object or str(s.dtype).startswith("category"):
            codes = pd.Categorical(s).codes.astype(np.float64)
            codes[codes < 0] = np.nan
            s = pd.Series(codes, index=s.index)
        v = pd.to_numeric(s, errors="coerce").astype(np.float64)
        med = np.nanmedian(v)
        if not np.isfinite(med):
            med = 0.0
        cols.append(v.fillna(med).to_numpy())
    if not cols:
        return np.empty((len(pdf), 0))
    return np.column_stack(cols)


@dataclass
class TabularTask:
    """One evaluation task (T1–T4): model, target, split, measures."""

    name: str
    kind: str  # CLASSIFICATION | REGRESSION
    target: str
    key: str  # join/id column: never reduced, never a feature
    model_factory: Callable[[], object]
    measures: list = field(default_factory=list)
    test_mod: int = 5  # key % test_mod == 0 -> test row
    time_unit: float | None = None  # deterministic sec/(row·col); None = wall
    tol: float = 0.25  # tolerance-accuracy band for regression p_Acc
    tol_scale: float | None = None  # fixed band scale (base target std)

    # Columns excluded from features and from the operator search space.
    def protected_cols(self) -> set[str]:
        return {self.target, self.key}

    # Columns every materialized state keeps regardless of the bitmap.
    def keep_cols(self) -> list[str]:
        return [self.key, self.target]

    def split(self, pdf: pd.DataFrame) -> tuple[pd.DataFrame, pd.DataFrame]:
        is_test = (pdf[self.key].astype(np.int64) % self.test_mod) == 0
        return pdf[~is_test], pdf[is_test]

    def evaluate(self, pdf: pd.DataFrame) -> dict[str, float]:
        """Train M on the candidate dataset, return raw measures.

        Degenerate candidates (too few rows, a single class, no
        features) get pessimal scores instead of raising, so the search
        can valuate any state the operators produce.
        """
        feature_cols = [
            c for c in pdf.columns if c not in self.protected_cols()
        ]
        pdf = pdf.dropna(subset=[self.target])
        train, test = self.split(pdf)
        n_rows, n_cols = len(train), len(feature_cols)
        if self.kind == CLASSIFICATION:
            degenerate = (
                n_rows < 20
                or len(test) < 5
                or n_cols == 0
                or train[self.target].nunique() < 2
            )
        else:
            degenerate = n_rows < 20 or len(test) < 5 or n_cols == 0
        if degenerate:
            return self._worst(pdf, feature_cols)

        Xtr = _featurize(train, feature_cols)
        Xte = _featurize(test, feature_cols)
        ytr = train[self.target].to_numpy()
        yte = test[self.target].to_numpy()
        model = self.model_factory()
        t0 = time.perf_counter()
        model.fit(Xtr, ytr)
        wall = time.perf_counter() - t0
        train_time = (
            self.time_unit * n_rows * max(1, n_cols)
            if self.time_unit is not None
            else wall
        )
        Xall = _featurize(pdf, feature_cols)
        yall = pdf[self.target].to_numpy()
        raw: dict[str, float] = {
            "train_time": float(train_time),
            "fisher": mx.fisher_score(Xall, yall),
            "mi": mx.mutual_information(Xall, yall),
            "n_rows": float(len(pdf)),
            "n_cols": float(n_cols),
        }
        if self.kind == CLASSIFICATION:
            pred = model.predict(Xte)
            raw["acc"] = mx.accuracy(yte, pred)
            raw["precision"] = mx.precision(yte, pred)
            raw["recall"] = mx.recall(yte, pred)
            raw["f1"] = mx.f1_score(yte, pred)
            if hasattr(model, "predict_proba"):
                raw["auc"] = mx.roc_auc(
                    yte, model.predict_proba(Xte), model.classes_
                )
            else:
                raw["auc"] = 0.5
        else:
            pred = np.asarray(model.predict(Xte), dtype=np.float64)
            yte = yte.astype(np.float64)
            raw["mse"] = mx.mse(yte, pred)
            raw["mae"] = mx.mae(yte, pred)
            raw["rmse"] = mx.rmse(yte, pred)
            raw["r2"] = mx.r2(yte, pred)
            raw["acc"] = mx.tolerance_accuracy(
                yte, pred, tol=self.tol, scale=self.tol_scale
            )
        return raw

    def _worst(self, pdf: pd.DataFrame, feature_cols: list[str]) -> dict:
        raw = {
            "train_time": 0.0,
            "fisher": 0.0,
            "mi": 0.0,
            "n_rows": float(len(pdf)),
            "n_cols": float(len(feature_cols)),
            "acc": 0.0,
        }
        if self.kind == CLASSIFICATION:
            raw.update(precision=0.0, recall=0.0, f1=0.0, auc=0.5)
        else:
            big = 1e6
            raw.update(mse=big, mae=big, rmse=big, r2=-1.0)
        return raw
