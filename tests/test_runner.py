"""SearchContext (configuration C), valuation caching, estimator
seeding/refresh, and the UPareto ParetoTable."""
import dataclasses
import itertools

import numpy as np
import pytest

from repro.core.apx import apx_modis
from repro.core.dominance import dominates, eps_dominates
from repro.core.runner import ParetoTable, SearchContext
from repro.lake.tasks import avocado_lake
from repro.measures import Measure


@pytest.fixture(scope="module")
def avocado_ctx_true(spark):
    lake, task, measures = avocado_lake(spark, scale=0.05)
    return SearchContext.build(
        spark, lake, task, measures, max_k=6, use_estimator=False, seed=0
    )


def test_context_seeds_estimator(house_ctx):
    assert house_ctx.estimator is not None and house_ctx.estimator.fitted
    assert len(house_ctx.tests) > 10  # singles + randoms + minimal state


def test_context_base_attrs(house_ctx):
    assert "grp" in house_ctx.base_attrs


def test_true_eval_cached(house_ctx):
    bits = house_ctx.layout.full_bits()
    n0 = len(house_ctx.tests)
    a = house_ctx.true_eval(bits)
    b = house_ctx.true_eval(bits)
    assert a is b
    assert len(house_ctx.tests) == n0  # already cached during seeding


@pytest.mark.parametrize("name", ["house_ctx", "movie_ctx_true", "avocado_ctx_true"])
def test_true_eval_matches_materialized_frame(request, name):
    """Every T entry of a short exact search, evaluated from encoded D_U
    by row and column indices, equals the evaluation of the state's
    materialized frame, bit for bit (with a deterministic p_Train)."""
    shared = request.getfixturevalue(name)
    ctx = dataclasses.replace(
        shared,
        task=dataclasses.replace(shared.task, time_unit=1e-6),
        tests={},
        est_cache={},
        estimator=None,
    )
    apx_modis(ctx, N=20, eps=0.2, max_level=3)
    assert len(ctx.tests) == 20
    for bits, pv in ctx.tests.items():
        assert pv.raw == ctx.task.evaluate(ctx.materialize(bits))


def test_valuate_prefers_true_tests(house_ctx):
    bits = house_ctx.layout.full_bits()
    vec = house_ctx.valuate(bits)
    assert vec == house_ctx.tests[bits].vector(house_ctx.measures)


def test_valuate_estimator_cached(house_ctx, monkeypatch):
    # an unseen state goes through the estimator exactly once. Every
    # single-attribute drop of the universal state is a single-Reduct
    # child, which the estimator's seed sample valuates, so the state
    # drops two attributes.
    L = house_ctx.layout

    def drop(*attrs):
        bits = list(L.full_bits())
        for a in attrs:
            for u in (L.col_unit[a], *L.val_units[a]):
                bits[u] = 0
        return tuple(bits)

    unseen = [
        bits
        for bits in (drop(a, b) for a, b in itertools.combinations(L.attrs, 2))
        if bits not in house_ctx.tests and bits not in house_ctx.est_cache
    ]
    assert unseen, "every two-attribute drop is already valuated"
    bits = unseen[0]
    calls = []
    predict = house_ctx.estimator.predict
    monkeypatch.setattr(
        house_ctx.estimator, "predict", lambda x: calls.append(x) or predict(x)
    )
    v1 = house_ctx.valuate(bits)
    v2 = house_ctx.valuate(bits)
    assert v1 == v2
    assert len(calls) == 1


def test_valuate_vectors_normalized(house_ctx):
    rng = np.random.default_rng(0)
    L = house_ctx.layout
    for _ in range(5):
        bits = list(L.full_bits())
        bits[rng.integers(0, L.n_units)] = 0
        vec = house_ctx.valuate(tuple(bits))
        assert len(vec) == len(house_ctx.measures)
        assert all(0 < v <= 1.0 for v in vec)


def test_materialize_respects_keep(house_ctx):
    out = house_ctx.materialize(house_ctx.layout.full_bits())
    assert house_ctx.task.key in out.columns
    assert house_ctx.task.target in out.columns


def test_calibrate_adds_true_tests(house_ctx):
    L = house_ctx.layout
    rng = np.random.default_rng(42)
    entries = []
    while len(entries) < 3:
        bits = list(L.full_bits())
        for _ in range(rng.integers(2, 6)):
            bits[rng.integers(0, L.n_units)] = 0
        bits = tuple(bits)
        if bits not in house_ctx.tests:
            entries.append((bits, tuple(rng.uniform(0.1, 1, len(house_ctx.measures)))))
    n0 = len(house_ctx.tests)
    done = house_ctx.calibrate(entries, k=2)
    assert done == 2
    assert len(house_ctx.tests) == n0 + 2
    assert house_ctx.estimator.fitted


# -- ParetoTable (UPareto) ----------------------------------------------

M2 = [
    Measure("a", "a", False, lo=0.01),
    Measure("b", "b", False, lo=0.01),
]


def test_pareto_offer_and_replace():
    t = ParetoTable(M2, eps=0.5)
    assert t.offer((1,), (0.5, 0.9))
    # same cell (close first coord), better decisive -> replaces
    assert t.offer((2,), (0.52, 0.4))
    ent = t.entries()
    assert len(ent) == 1 and ent[0][0] == (2,)


def test_pareto_keeps_distinct_cells():
    t = ParetoTable(M2, eps=0.1)
    t.offer((1,), (0.1, 0.5))
    t.offer((2,), (0.9, 0.4))
    assert len(t.entries()) == 2


def test_pareto_upper_bound_skip():
    bounded = [
        Measure("a", "a", False, lo=0.01, hi=0.6),
        Measure("b", "b", False, lo=0.01),
    ]
    t = ParetoTable(bounded, eps=0.1)
    assert not t.offer((1,), (0.7, 0.2))  # violates a's p_u
    assert t.offer((2,), (0.5, 0.2))


def test_pareto_worse_decisive_rejected():
    t = ParetoTable(M2, eps=0.5)
    t.offer((1,), (0.5, 0.4))
    assert not t.offer((2,), (0.52, 0.9))
    assert t.entries()[0][0] == (1,)


def test_pareto_result_is_mutually_nondominated():
    rng = np.random.default_rng(1)
    t = ParetoTable(M2, eps=0.2)
    for i in range(200):
        t.offer((i,), tuple(rng.uniform(0.02, 1.0, 2)))
    res = t.result()
    vecs = [v for _, v in res]
    for i, u in enumerate(vecs):
        for j, v in enumerate(vecs):
            if i != j:
                assert not dominates(u, v)


def test_pareto_result_eps_covers_offers():
    """Every offered vector is ε-dominated by some result entry —
    the ε-skyline coverage property (§5.1) at the UPareto level."""
    rng = np.random.default_rng(2)
    eps = 0.3
    t = ParetoTable(M2, eps=eps)
    offered = []
    for i in range(300):
        v = tuple(rng.uniform(0.02, 1.0, 2))
        offered.append(v)
        t.offer((i,), v)
    res = [v for _, v in t.result()]
    for v in offered:
        assert any(eps_dominates(u, v, eps + 1e-9) for u in res)
