"""TabularTask: featurization, deterministic split, degenerate guards,
and the deterministic training-cost model. Guards and encoding are
checked on both evaluation paths: a whole frame (``evaluate``) and the
full state of a search context over it (``true_eval``), each under
a measure set that reads Fisher and MI: ``MEASURES`` for classification,
``REG_MEASURES`` for regression."""
import hashlib
import warnings

import numpy as np
import pandas as pd
import pytest

from repro.core.literals import UnitLayout
from repro.core.runner import SearchContext
from repro.measures import (
    PerfVector, p_acc, p_auc, p_f1, p_fsc, p_mae, p_mi, p_mse, p_prec, p_rec,
    p_train,
)
from repro.ml.forest import RandomForestClassifier
from repro.ml.linear import LinearRegression
from repro.tasks import CLASSIFICATION, REGRESSION, TabularTask, _encode, _featurize

from .blas import by_blas_core

PATHS = ("frame", "state")
MEASURES = [
    p_acc(), p_prec(), p_rec(), p_f1(), p_auc(), p_train(1.0), p_fsc(), p_mi(),
]
REG_MEASURES = [p_mse(1.0), p_mae(1.0), p_acc(), p_train(1.0), p_fsc(), p_mi()]


def _mk_task(kind=CLASSIFICATION):
    return TabularTask(
        name="t",
        kind=kind,
        target="target",
        key="key",
        model_factory=lambda: RandomForestClassifier(n_estimators=5, seed=0),
        time_unit=1e-6,
    )


def _pdf(n=200, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n)
    return pd.DataFrame(
        {
            "key": np.arange(1, n + 1),
            "target": (x > 0).astype(int),
            "x": x,
            "cat": rng.choice(["a", "b", "c"], n),
            "withnan": np.where(rng.random(n) < 0.3, np.nan, x),
        }
    )


def _context(task, pdf, measures=MEASURES):
    layout = UnitLayout.from_universal(pdf, protected=task.protected_cols())
    return SearchContext(
        layout=layout, universal_pdf=pdf, task=task, measures=measures
    )


def _evaluate(task, pdf, path):
    """Raw measures of the frame: evaluated whole, or as the universal
    state of a search context built over it."""
    if path == "frame":
        return task.evaluate(pdf, MEASURES)
    ctx = _context(task, pdf)
    return ctx.true_eval(ctx.layout.full_bits()).raw


def test_featurize_encodes_categories():
    pdf = pd.DataFrame({"c": ["a", "b", "a", None]})
    X = _featurize(_encode(pdf, ["c"]))
    assert X.shape == (4, 1)
    assert np.isfinite(X).all()  # null imputed
    assert X[0, 0] == X[2, 0]


def test_featurize_imputes_median():
    pdf = pd.DataFrame({"v": [1.0, np.nan, 3.0]})
    X = _featurize(_encode(pdf, ["v"]))
    assert X[1, 0] == pytest.approx(2.0)


def test_featurize_empty_columns():
    pdf = pd.DataFrame({"v": [1.0, 2.0]})
    assert _featurize(_encode(pdf, [])).shape == (2, 0)


def test_split_deterministic_by_key():
    task = _mk_task()
    pdf = _pdf()
    tr1, te1 = task.split(pdf)
    tr2, te2 = task.split(pdf.sample(frac=1.0, random_state=1))
    assert set(te1["key"]) == set(te2["key"])
    assert set(tr1["key"]).isdisjoint(set(te1["key"]))


def test_split_fraction_near_expected():
    task = _mk_task()
    _tr, te = task.split(_pdf(1000))
    assert 0.15 < len(te) / 1000 < 0.25


def test_evaluate_classification_keys():
    raw = _mk_task().evaluate(_pdf(), MEASURES)
    for k in ("acc", "precision", "recall", "f1", "auc", "train_time",
              "fisher", "mi", "n_rows", "n_cols"):
        assert k in raw
    assert 0 <= raw["acc"] <= 1


def test_evaluate_regression_keys():
    task = TabularTask(
        name="r",
        kind=REGRESSION,
        target="target",
        key="key",
        model_factory=lambda: __import__(
            "repro.ml.linear", fromlist=["LinearRegression"]
        ).LinearRegression(),
        time_unit=1e-6,
    )
    pdf = _pdf()
    pdf["target"] = pdf["x"] * 2.0
    raw = task.evaluate(pdf, REG_MEASURES)
    for k in ("mse", "mae", "rmse", "r2", "acc"):
        assert k in raw
    assert raw["r2"] > 0.9


def _pessimal(raw) -> bool:
    """Every measure of ``MEASURES`` normalizes to its worst value, 1.0."""
    return PerfVector.from_raw(raw, MEASURES).vector(MEASURES) == (1.0,) * len(MEASURES)


@pytest.mark.parametrize("path", PATHS)
def test_degenerate_too_few_rows(path):
    raw = _evaluate(_mk_task(), _pdf(10), path)
    assert raw["acc"] == 0.0 and raw["f1"] == 0.0
    assert _pessimal(raw)


@pytest.mark.parametrize("path", PATHS)
def test_degenerate_single_class(path):
    pdf = _pdf()
    pdf["target"] = 1
    raw = _evaluate(_mk_task(), pdf, path)
    assert raw["acc"] == 0.0
    assert _pessimal(raw)


@pytest.mark.parametrize("path", PATHS)
def test_degenerate_no_features(path):
    pdf = _pdf()[["key", "target"]]
    raw = _evaluate(_mk_task(), pdf, path)
    assert raw["n_cols"] == 0 and raw["acc"] == 0.0
    assert _pessimal(raw)


@pytest.mark.parametrize("path", PATHS)
def test_all_null_attribute_imputes_zero(path):
    """A column null in every row, and one null in every test row, are
    filled with 0.0 without taking the median of an empty slice."""
    pdf = _pdf()
    pdf["allnull"] = np.nan
    pdf["testnull"] = np.where(pdf["key"] % 5 == 0, np.nan, pdf["x"])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raw = _evaluate(_mk_task(), pdf, path)
        X = _featurize(_encode(pdf, ["allnull", "x"]))
    assert raw["n_cols"] == 5 and np.isfinite(list(raw.values())).all()
    assert (X[:, 0] == 0.0).all() and (X[:, 1] == pdf["x"]).all()


@pytest.mark.parametrize("path", PATHS)
def test_categorical_codes_shared_across_splits(path):
    """Train holds a, b, c and test only b, c: each value must get the
    same code in both splits, or the model reads 'b' in test as 'a'."""
    n = 200
    key = np.arange(1, n + 1)
    is_test = key % 5 == 0
    cat = np.where(is_test, np.array(["b", "c"])[key % 2], np.array(["a", "b", "c"])[key % 3])
    pdf = pd.DataFrame({"key": key, "target": (cat == "b").astype(int), "cat": cat})
    raw = _evaluate(_mk_task(), pdf, path)
    assert raw["acc"] == 1.0


def test_state_path_matches_frame_with_categories():
    """Every single-Reduct child of a context with a categorical column
    scores the same through ``true_eval`` as its materialized frame:
    codes are ranked within the state's own rows on both paths. Ridge
    regression sees the codes' scale, so dropping the middle category
    ('b') must re-rank 'c' from 2 to 1."""
    pdf = _pdf()
    pdf["target"] = pdf["x"] + (pdf["cat"] == "c") * 2.0
    pdf.loc[pdf["key"] % 7 == 0, "cat"] = None
    task = TabularTask(
        name="r",
        kind=REGRESSION,
        target="target",
        key="key",
        model_factory=lambda: LinearRegression(l2=1.0),
        time_unit=1e-6,
    )
    ctx = _context(task, pdf, REG_MEASURES)
    full = ctx.layout.full_bits()
    states = [full] + [
        full[:u] + (0,) + full[u + 1:] for u in range(ctx.layout.n_units)
    ]
    for bits in states:
        assert ctx.true_eval(bits).raw == task.evaluate(
            ctx.materialize(bits), ctx.measures
        )


def test_deterministic_time_unit():
    task = _mk_task()
    pdf = _pdf()
    r1 = task.evaluate(pdf, MEASURES)
    r2 = task.evaluate(pdf, MEASURES)
    assert r1["train_time"] == r2["train_time"]
    n_train = len(task.split(pdf.dropna(subset=["target"]))[0])
    assert r1["train_time"] == pytest.approx(1e-6 * n_train * 3)


@pytest.mark.parametrize("path", PATHS)
def test_nan_targets_dropped(path):
    pdf = _pdf()
    pdf.loc[:20, "target"] = np.nan
    raw = _evaluate(_mk_task(), pdf, path)
    assert raw["n_rows"] <= len(pdf) - 20


def _nanmedian_impute(X):
    """The imputation ``_featurize`` must reproduce: each column's NaNs
    filled with ``np.nanmedian`` of the column, 0.0 in an all-NaN one."""
    X = X.copy()
    nan = np.isnan(X)
    for j in np.flatnonzero(nan.any(axis=0)):
        miss = nan[:, j]
        X[miss, j] = 0.0 if miss.all() else np.nanmedian(X[:, j])
    return X


_n = np.nan
_inf = np.inf
IMPUTE_CASES = {
    "odd_and_even_counts": np.array(
        [[1.0, 4.0], [_n, 2.0], [3.0, _n], [7.0, 8.0], [_n, 1.5]]
    ),
    "single_value": np.array([[_n, 1.0], [2.5, _n], [_n, 3.0]]),
    "all_nan_column": np.array([[_n, 1.0, _n], [_n, _n, 2.0], [_n, 3.0, _n]]),
    "no_nan": np.arange(12, dtype=float).reshape(4, 3),
    "ties_and_infinities": np.array(
        [
            [1.0, _inf, -_inf, 5.0],
            [1.0, _n, _inf, 5.0],
            [_n, 2.0, _n, 5.0],
            [1.0, _inf, 1.0, _n],
            [2.0, _n, -_inf, 5.0],
            [1.0, -_inf, _n, 4.0],
        ]
    ),
    "zero_rows": np.empty((0, 3)),
    "zero_columns": np.empty((4, 0)),
    "random": np.where(
        np.random.default_rng(5).random((301, 7)) < 0.3,
        np.nan,
        # + 0.0 turns the -0.0 that rounding leaves into 0.0
        np.round(np.random.default_rng(6).normal(size=(301, 7)), 1) + 0.0,
    ),
}


@pytest.mark.parametrize("name", list(IMPUTE_CASES))
def test_featurize_matches_nanmedian(name):
    """``_featurize`` imputes exactly what a per-column ``np.nanmedian``
    loop does, byte for byte, and returns the matrix it filled."""
    X = IMPUTE_CASES[name]
    want = _nanmedian_impute(X)
    got = X.copy()
    assert _featurize(got) is got
    assert got.tobytes() == want.tobytes()


def test_featurize_signed_zero_median():
    """Signed zeros compare equal but differ in their bytes, and which
    one lands in the middle depends on how the median orders them, so
    here the medians are compared by value only (no lake column holds
    -0.0)."""
    X = np.array([[-0.0, 0.0], [0.0, _n], [_n, -0.0], [0.0, -0.0], [-0.0, _n]])
    want = _nanmedian_impute(X)
    got = _featurize(X.copy())
    assert (got == want).all() and not np.isnan(got).any()


def _object_frame():
    """A frame with an object column holding nulls, two numeric columns
    with NaNs (one null in every test row) and a regression target."""
    pdf = _pdf(300, seed=3)
    pdf.loc[pdf["key"] % 4 == 0, "cat"] = None
    pdf["testnull"] = np.where(pdf["key"] % 5 == 0, np.nan, pdf["x"] * 2.0)
    pdf["y"] = pdf["x"] + (pdf["cat"] == "c") * 1.5 + 0.1 * (pdf["key"] % 3)
    return pdf


def _raw_digest(raw) -> str:
    return hashlib.sha256(repr(sorted(raw.items())).encode()).hexdigest()


# sha256 of the raw dict of each evaluation of ``_object_frame()``:
# classification with Fisher and MI; ridge regression with categorical
# codes and without statistics; the same without the object column.
# The ridge fit runs through BLAS, so its digests are per kernel set.
FRAME_DIGEST = {
    "classification": "8cc45f2e4c02925000a11dd012755aa33e4a6a1d517cf760a6432d1d72e20c91",
    "regression": by_blas_core(
        SkylakeX="c709089a87710532a9adcca5440b1ea8232d620888b624ba9cc70218973d0fe1",
        Haswell="759782a7ef607892741a02a64632e0132fdd6afe8489622d027633db60230b91",
        Zen="759782a7ef607892741a02a64632e0132fdd6afe8489622d027633db60230b91",
        Prescott="f2a6f7f97cf8f890fbe1112c1d259f43778dd56b9b6febf75bf417a5471e01af",
    ),
    "regression_numeric": by_blas_core(
        SkylakeX="c95c81dfdda8381842b4fdb3679c2d699db88b8cc04ab852a2b436d7557cb786",
        Haswell="98e6daf5d1235a684ad7d9b3946c8080d83ca43e21edb119b8cd01fd5a83e6a8",
        Zen="98e6daf5d1235a684ad7d9b3946c8080d83ca43e21edb119b8cd01fd5a83e6a8",
        Prescott="efc3a35d44fc58c399ce5330bcc1269d15786a070c7034652b45c71cf822a1af",
    ),
}


@pytest.mark.parametrize("case", list(FRAME_DIGEST))
def test_evaluate_frame_digest(case):
    pdf = _object_frame()
    if case == "classification":
        task, measures = _mk_task(), MEASURES
        pdf = pdf.drop(columns="y")
    else:
        task = TabularTask(
            name="r", kind=REGRESSION, target="y", key="key",
            model_factory=lambda: LinearRegression(l2=1e-4), time_unit=1e-6,
        )
        measures = [p_mse(1.0), p_mae(1.0), p_train(1.0)]
        pdf = pdf.drop(columns=["target"] + (["cat"] if case == "regression_numeric" else []))
    assert _raw_digest(task.evaluate(pdf, measures)) == FRAME_DIGEST[case]
