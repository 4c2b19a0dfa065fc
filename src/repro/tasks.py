"""Task wrappers: a fixed deterministic model M evaluated on a candidate
dataset, returning the raw measure dict that a :class:`~repro.measures`
catalogue normalizes.

A :class:`TabularTask` owns featurization (ordinal-encode categoricals,
median-impute numerics — the null-fill required after the paper's
outer-join Augment), a deterministic key-hash train/test split (so every
candidate dataset is scored on a consistent holdout), and a training-time
measure. Training time (p_Train) is a work count, ``time_unit ·
training rows · feature columns``, not the wall time of the fit: a
millisecond fit's wall time is noise, and a measure in the search
objective must give the same state the same value on every run. The
model factory must build a *fixed deterministic* model (paper §2) — all
our numpy models are seeded.

Evaluation runs on arrays. :meth:`TabularTask.encode` turns a frame into
an :class:`Encoded` float matrix once; :meth:`TabularTask.evaluate_encoded`
scores any rows × columns of it. A search state is such a subset of the
encoded D_U (paper §5.1: a bitmap over D_U); :meth:`TabularTask.evaluate`
scores a whole frame the same way.

Both take the measure set P (paper §2 "Model Evaluation": the user
defines P). The model's scores come from one ``predict``, and training
cost and output size are free, so those are always returned; the data
statistics Fisher score and mutual information, and the all-rows
imputation that feeds them, are computed only when a measure of P reads
them (``fisher`` / ``mi``).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import pandas as pd

from repro.measures import Measure
from repro.ml import metrics as mx

CLASSIFICATION = "classification"
REGRESSION = "regression"


def _is_categorical(s: pd.Series) -> bool:
    return s.dtype == object or str(s.dtype).startswith("category")


def _encode(pdf: pd.DataFrame, cols: list[str]) -> np.ndarray:
    """C-contiguous float64 matrix of ``cols``, NaN for nulls; an
    object/category column holds the rank of its value among the frame's
    distinct values (ordinal codes)."""
    X = np.empty((len(pdf), len(cols)))
    for j, c in enumerate(cols):
        s = pdf[c]
        if _is_categorical(s):
            codes = pd.Categorical(s).codes.astype(np.float64)
            codes[codes < 0] = np.nan
            X[:, j] = codes
        else:
            X[:, j] = pd.to_numeric(s, errors="coerce").astype(np.float64)
    return X


def _rank_codes(X: np.ndarray, cat: np.ndarray) -> None:
    """Re-code each categorical column of X, in place, by rank among its
    own values, so one dataset has one code per value in every split."""
    for j in np.flatnonzero(cat):
        col = X[:, j]
        ok = ~np.isnan(col)
        col[ok] = np.unique(col[ok], return_inverse=True)[1]


def _featurize(X: np.ndarray) -> np.ndarray:
    """Median-impute each column's NaNs in place and return X; an
    all-null column is filled with 0.0.

    One ``np.sort`` of the columns that hold a NaN puts each column's
    non-NaN values first, in order; the median is the middle one, or
    ``(lo + hi) / 2`` of the middle two, which is what ``np.median``
    computes. So X equals per-column ``np.nanmedian`` imputation to the
    bit, but for the sign of a zero median (-0.0 and 0.0 tie in a sort).
    """
    miss = np.flatnonzero(np.isnan(X))
    if not len(miss):
        return X
    col = miss % X.shape[1]
    k = len(X) - np.bincount(col, minlength=X.shape[1])  # non-NaN per column
    cols = np.flatnonzero(k < len(X))
    S = np.sort(X[:, cols], axis=0)  # NaNs last
    kc, at = k[cols], np.arange(len(cols))
    lo = S[np.maximum(kc - 1, 0) // 2, at]
    hi = S[kc // 2, at]
    fill = np.zeros(X.shape[1])
    fill[cols] = np.where(kc == 0, 0.0, np.where(kc % 2 == 1, lo, (lo + hi) / 2))
    X.flat[miss] = fill[col]
    return X


@dataclass(frozen=True)
class Encoded:
    """A frame encoded for evaluation: the feature matrix over ``cols``
    (see :func:`_encode`), which of its columns are categorical, the
    target in its frame dtype, and per-row target-present and test-row
    masks; ``pos`` maps a column name to its position in ``cols``."""

    cols: list[str]
    X: np.ndarray
    cat: np.ndarray
    y: np.ndarray
    target_ok: np.ndarray
    is_test: np.ndarray
    pos: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "pos", {c: j for j, c in enumerate(self.cols)})


@dataclass
class TabularTask:
    """One evaluation task (T1–T4): model, target, split, measures."""

    name: str
    kind: str  # CLASSIFICATION | REGRESSION
    target: str
    key: str  # join/id column: never reduced, never a feature
    model_factory: Callable[[], object]
    time_unit: float  # p_Train seconds per (training row · feature column)
    test_mod: int = 5  # key % test_mod == 0 -> test row
    tol: float = 0.25  # tolerance-accuracy band for regression p_Acc
    tol_scale: float | None = None  # fixed band scale (base target std)

    # Columns excluded from features and from the operator search space.
    def protected_cols(self) -> set[str]:
        return {self.target, self.key}

    # Columns every materialized state keeps regardless of the bitmap.
    def keep_cols(self) -> list[str]:
        return [self.key, self.target]

    def split(self, pdf: pd.DataFrame) -> tuple[pd.DataFrame, pd.DataFrame]:
        is_test = self._is_test(pdf)
        return pdf[~is_test], pdf[is_test]

    def _is_test(self, pdf: pd.DataFrame) -> pd.Series:
        return (pdf[self.key].astype(np.int64) % self.test_mod) == 0

    def encode(self, pdf: pd.DataFrame) -> Encoded:
        """Encode every non-protected column of the frame (see :class:`Encoded`)."""
        cols = [c for c in pdf.columns if c not in self.protected_cols()]
        return Encoded(
            cols=cols,
            X=_encode(pdf, cols),
            cat=np.array([_is_categorical(pdf[c]) for c in cols], dtype=bool),
            y=pdf[self.target].to_numpy(),
            target_ok=pdf[self.target].notna().to_numpy(),
            is_test=self._is_test(pdf).to_numpy(),
        )

    def evaluate(
        self, pdf: pd.DataFrame, measures: list[Measure]
    ) -> dict[str, float]:
        """Raw measures of M on the frame's rows that have a target."""
        enc = self.encode(pdf)
        return self.evaluate_encoded(
            enc, np.ones(len(pdf), dtype=bool), enc.cols, measures
        )

    def evaluate_encoded(
        self, enc: Encoded, mask: np.ndarray, cols: list[str],
        measures: list[Measure],
    ) -> dict[str, float]:
        """Train M on the rows of ``enc`` that ``mask`` keeps and that
        have a target, with features ``cols``; return raw measures.

        The dict always holds the model's scores, ``train_time``,
        ``n_rows`` and ``n_cols``; it holds ``fisher`` and ``mi`` only
        when a measure of ``measures`` reads them. Each split, train and
        test, is gathered from ``enc.X`` once and median-imputed on its
        own. Only a categorical column or a read statistic builds the
        matrix of all the state's rows first: categorical codes are
        ranked within those rows, so a value has one code in both
        splits, and Fisher and MI are computed on those rows imputed
        together. Degenerate candidates (too few rows, a single class,
        no features) get pessimal scores instead of raising, so the
        search can valuate any state the operators produce.
        """
        stats = {m.raw_key for m in measures} & {"fisher", "mi"}
        rows = np.flatnonzero(mask & enc.target_ok)
        idx = [enc.pos[c] for c in cols]
        test = enc.is_test[rows]
        train_rows, test_rows = rows[~test], rows[test]
        n_rows, n_cols = len(train_rows), len(cols)
        ytr = enc.y[train_rows]
        degenerate = n_rows < 20 or len(test_rows) < 5 or n_cols == 0
        if self.kind == CLASSIFICATION and not degenerate:
            degenerate = len(np.unique(ytr)) < 2
        if degenerate:
            return self._worst(len(rows), n_cols, stats)

        # Taking rows, then columns, is faster than one np.ix_ gather.
        if stats or enc.cat[idx].any():
            X = enc.X.take(rows, axis=0).take(idx, axis=1)
            _rank_codes(X, enc.cat[idx])
            Xtr, Xte = X[~test], X[test]
        else:
            Xtr = enc.X.take(train_rows, axis=0).take(idx, axis=1)
            Xte = enc.X.take(test_rows, axis=0).take(idx, axis=1)
        Xtr, Xte = _featurize(Xtr), _featurize(Xte)
        yte = enc.y[test_rows]
        model = self.model_factory()
        model.fit(Xtr, ytr)
        raw: dict[str, float] = {
            "train_time": self.time_unit * n_rows * max(1, n_cols),
            "n_rows": float(len(rows)),
            "n_cols": float(n_cols),
        }
        if stats:
            Xall = _featurize(X)
            yall = enc.y[rows]
            if "fisher" in stats:
                raw["fisher"] = mx.fisher_score(Xall, yall)
            if "mi" in stats:
                raw["mi"] = mx.mutual_information(Xall, yall)
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

    def _worst(self, n_rows: int, n_cols: int, stats: set[str]) -> dict:
        """Raw measures of a degenerate state, with the keys of the main
        path. Each normalizes to 1.0, the pessimal value: scores at their
        worst, errors and training cost at ``big``, far above every
        reference of the measure catalogue."""
        big = 1e6
        raw = {
            "train_time": big,
            "n_rows": float(n_rows),
            "n_cols": float(n_cols),
            "acc": 0.0,
        }
        raw.update(dict.fromkeys(stats, 0.0))
        if self.kind == CLASSIFICATION:
            raw.update(precision=0.0, recall=0.0, f1=0.0, auc=0.0)
        else:
            raw.update(mse=big, mae=big, rmse=big, r2=-1.0)
        return raw
