"""Tests for the synthetic task lakes (T1–T4) and Table 2 shapes."""
import numpy as np
import pytest

from repro.lake.tasks import avocado_lake, house_lake, mental_lake, movie_lake
from repro.tasks import CLASSIFICATION, REGRESSION

LAKES = [
    (movie_lake, REGRESSION),
    (house_lake, CLASSIFICATION),
    (avocado_lake, REGRESSION),
    (mental_lake, CLASSIFICATION),
]


@pytest.mark.parametrize("lake_fn,kind", LAKES)
def test_lake_schema_and_task(spark, lake_fn, kind):
    lake, task, measures = lake_fn(spark, scale=0.1)
    assert task.kind == kind
    assert isinstance(task.time_unit, float) and task.time_unit > 0
    base_cols = lake.base.columns
    assert lake.key in base_cols and lake.target in base_cols
    assert "grp" in base_cols
    for name, src in lake.sources.items():
        assert lake.key in src.columns
        assert all(c == lake.key or c.startswith(name) for c in src.columns)


@pytest.mark.parametrize("lake_fn,_k", LAKES)
def test_sources_cover_subset_of_keys(spark, lake_fn, _k):
    lake, _t, _m = lake_fn(spark, scale=0.1)
    base_n = lake.base.count()
    for src in lake.sources.values():
        n = src.count()
        assert 0 < n < base_n  # partial coverage -> outer-join nulls


@pytest.mark.parametrize("lake_fn,_k", LAKES)
def test_deterministic_in_seed(spark, lake_fn, _k):
    a = lake_fn(spark, scale=0.1)[0].base.toPandas()
    b = lake_fn(spark, scale=0.1)[0].base.toPandas()
    assert a.equals(b)


def test_scale_controls_rows(spark):
    small = house_lake(spark, scale=0.2)[0].base.count()
    large = house_lake(spark, scale=0.5)[0].base.count()
    assert large > small


def test_characteristics_shape(spark, house_small):
    lake, _t, _m = house_small
    t, c, r = lake.characteristics()
    assert t == 1 + len(lake.sources)
    assert c > t  # more columns than tables
    assert r > 0


def test_poisoned_groups_have_corrupted_labels(spark, house_small):
    """The lake's core mechanic: model accuracy on poisoned groups'
    rows is worse than on clean groups' rows."""
    lake, task, _m = house_small
    pdf = lake.base.toPandas()
    from repro.ml.forest import RandomForestClassifier
    from repro.tasks import _encode, _featurize

    feats = [c for c in pdf.columns if c.startswith("b_info")]
    X = _featurize(_encode(pdf, feats))
    y = pdf["target"].to_numpy()
    poisoned = pdf["grp"].isin([1, 4]).to_numpy()
    # Fit on clean rows only so memorization can't mask the corruption;
    # poisoned rows' labels then disagree with the learned signal.
    rf = RandomForestClassifier(n_estimators=10, max_depth=5, seed=0).fit(
        X[~poisoned], y[~poisoned]
    )
    pred = rf.predict(X)
    acc_poisoned = (pred[poisoned] == y[poisoned]).mean()
    acc_clean = (pred[~poisoned] == y[~poisoned]).mean()
    assert acc_clean > acc_poisoned + 0.1


def test_measures_match_task_kind(spark):
    _l, task, measures = avocado_lake(spark, scale=0.1)
    names = {m.name for m in measures}
    assert "p_MSE" in names and "p_MAE" in names
    _l, task, measures = mental_lake(spark, scale=0.1)
    names = {m.name for m in measures}
    assert {"p_Acc", "p_AUC", "p_F1"} <= names


def test_regression_poison_inflates_variance(spark, movie_small):
    lake, _t, _m = movie_small
    pdf = lake.base.toPandas()
    poisoned = pdf["grp"].isin([0, 3])
    # Residual spread around the group mean is larger in poisoned groups.
    v_p = pdf.loc[poisoned, "target"].var()
    v_c = pdf.loc[~poisoned, "target"].var()
    assert v_p > v_c
