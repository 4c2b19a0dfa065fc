"""UnitLayout extras: the k-means literal path (Exp-3's |adom| control),
categorical columns, and the exact-skyline baseline of Theorem 1."""
import numpy as np
import pandas as pd
import pytest

from repro.core.dominance import eps_dominates, kung_skyline
from repro.core.literals import UnitLayout


def _pdf(n=300, seed=0):
    rng = np.random.default_rng(seed)
    return pd.DataFrame(
        {
            "key": np.arange(n),
            "target": rng.integers(0, 2, n),
            "cont": rng.normal(size=n),
            "cat": rng.choice(list("abcde"), n),
            "lowcard": rng.integers(0, 3, n),
        }
    )


def test_force_cluster_kmeans_path():
    """A continuous attribute in force_cluster gets k-means value units
    — the knob Exp-3 uses to control |adom|."""
    pdf = _pdf()
    layout = UnitLayout.from_universal(
        pdf, protected={"key", "target"}, max_k=4, force_cluster=("cont",)
    )
    assert layout.n_clusters("cont") == 4
    lab = layout.row_clusters["cont"]
    assert set(lab.tolist()) == {0, 1, 2, 3}
    # k-means 1-D labels are ordered by value
    means = [pdf["cont"][lab == j].mean() for j in range(4)]
    assert means == sorted(means)


@pytest.mark.parametrize("k", [2, 3, 6])
def test_force_cluster_k_controls_adom(k):
    pdf = _pdf()
    layout = UnitLayout.from_universal(
        pdf, protected={"key", "target"}, max_k=k, force_cluster=("cont",)
    )
    assert layout.n_clusters("cont") == k


def test_without_force_cluster_continuous_presence_only():
    layout = UnitLayout.from_universal(
        _pdf(), protected={"key", "target"}, max_k=4
    )
    assert layout.n_clusters("cont") == 0


def test_categorical_column_distinct_literals():
    layout = UnitLayout.from_universal(
        _pdf(), protected={"key", "target"}, max_k=8
    )
    assert layout.n_clusters("cat") == 5
    assert layout.n_clusters("lowcard") == 3


def test_all_null_column():
    pdf = _pdf(50)
    pdf["empty"] = np.nan
    layout = UnitLayout.from_universal(
        pdf, protected={"key", "target"}, max_k=4
    )
    assert layout.n_clusters("empty") == 0
    assert (layout.row_clusters["empty"] == -1).all()


def test_cluster_counts_sum_to_nonnull():
    pdf = _pdf()
    pdf.loc[:30, "lowcard"] = np.nan
    layout = UnitLayout.from_universal(
        pdf, protected={"key", "target"}, max_k=4
    )
    assert layout.cluster_counts["lowcard"].sum() == pdf["lowcard"].notna().sum()


def test_exact_baseline_theorem1(spark, movie_small):
    """Theorem 1's FPT exact algorithm: exhaust a bounded running, apply
    Kung's skyline. The (N, ε)-approximation must ε-cover that exact
    skyline (it covers every valuated state, a superset check). A fresh
    estimator-free context ensures ctx.tests is exactly this run's
    valuated set."""
    from repro.core.apx import apx_modis
    from repro.core.runner import SearchContext

    lake, task, measures = movie_small
    ctx = SearchContext.build(
        spark, lake, task, measures, max_k=6, use_estimator=False, seed=0
    )
    eps = 0.3
    res = apx_modis(ctx, N=30, eps=eps, max_level=3)
    # exact skyline over exactly the states this run valuated
    states = list(ctx.tests.keys())
    vectors = [ctx.tests[b].vector(ctx.measures) for b in states]
    exact = [vectors[i] for i in kung_skyline(vectors)]
    sky = [v for _, v in res.skyline]
    for v in exact:
        if any(x > m.hi for x, m in zip(v, ctx.measures)):
            continue
        assert any(eps_dominates(u, v, eps + 1e-9) for u in sky)
