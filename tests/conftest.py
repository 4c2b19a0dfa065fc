"""Shared Spark-backed fixtures: small lakes and search contexts.

All are session-scoped — lake generation + estimator seeding cost a few
seconds each and are reused read-only across test modules. Contexts
must be treated as append-only (their valuation caches grow), which is
safe for every assertion made here.
"""
import multiprocessing

import pytest

from repro.core.runner import SearchContext
from repro.lake.graph import graph_lake
from repro.lake.tasks import house_lake, movie_lake


@pytest.fixture(autouse=True)
def no_worker_left():
    """Fail a test that leaves a worker process of this one running."""
    yield
    left = multiprocessing.active_children()
    assert not left, f"worker processes left running: {left}"


@pytest.fixture(scope="session")
def house_small(spark):
    """(lake, task, measures) for T2 at test scale."""
    return house_lake(spark, scale=0.3)


@pytest.fixture(scope="session")
def house_ctx(spark, house_small):
    lake, task, measures = house_small
    return SearchContext.build(
        spark, lake, task, measures, max_k=8, n_seed=6, seed=0
    )


@pytest.fixture(scope="session")
def movie_small(spark):
    return movie_lake(spark, scale=0.15)


@pytest.fixture(scope="session")
def movie_ctx_true(spark, movie_small):
    """Tiny T1 context with NO estimator: every valuation is a true
    model evaluation, so the (N, ε)-approximation guarantees are exact
    and checkable."""
    lake, task, measures = movie_small
    return SearchContext.build(
        spark, lake, task, measures, max_k=6, use_estimator=False, seed=0
    )


@pytest.fixture(scope="session")
def graph_small(spark):
    return graph_lake(spark, scale=0.6)


@pytest.fixture(scope="session")
def graph_ctx(spark, graph_small):
    lake, task, measures = graph_small
    return SearchContext.build(
        spark, lake, task, measures, max_k=10, n_seed=6, seed=0
    )
