"""BiMODis / NOBiMODis: BackSt, Spearman correlation machinery,
parameterized pruning, and the bi-directional engine."""
import dataclasses

import numpy as np
import pytest

from repro.core.bi import CorrPruner, back_start, bi_modis, spearman
from repro.core.dominance import dominates
from repro.core.runner import ParetoTable
from repro.measures import Measure


# -- spearman -----------------------------------------------------------


def test_spearman_perfect_monotone():
    x = np.array([1.0, 2, 3, 4, 5])
    assert spearman(x, x**3) == pytest.approx(1.0)
    assert spearman(x, -x) == pytest.approx(-1.0)


def test_spearman_constant_is_zero():
    assert spearman(np.ones(10), np.arange(10.0)) == 0.0


def test_spearman_short_input_zero():
    assert spearman(np.array([1.0, 2.0]), np.array([2.0, 1.0])) == 0.0


def test_spearman_uncorrelated_small():
    rng = np.random.default_rng(0)
    r = spearman(rng.normal(size=500), rng.normal(size=500))
    assert abs(r) < 0.15


# -- BackSt -------------------------------------------------------------


def test_back_start_covers_target_classes(house_ctx):
    bits = back_start(house_ctx)
    L = house_ctx.layout
    # base attributes present, others absent
    for a in L.attrs:
        expected = 1 if a in house_ctx.base_attrs else 0
        assert bits[L.col_unit[a]] == expected
    # selected grp clusters cover every target class
    pdf = house_ctx.universal_pdf
    active = [
        j for j, u in enumerate(L.val_units["grp"]) if bits[u] == 1
    ]
    lab = L.row_clusters["grp"]
    covered = set(
        pdf.loc[np.isin(lab, active), house_ctx.task.target].unique()
    )
    assert covered == set(pdf[house_ctx.task.target].unique())


def test_back_start_is_reduced(house_ctx):
    bits = back_start(house_ctx)
    L = house_ctx.layout
    assert L.approx_n_rows(bits) < L.n_rows


# -- CorrPruner ---------------------------------------------------------


def _mk_pruner(ctx, n=16):
    pruner = CorrPruner(ctx, theta=0.5)
    L = ctx.layout
    rng = np.random.default_rng(3)
    full = L.full_bits()
    # synthetic observations: perf strongly tied to retained fraction
    for _ in range(n):
        bits = list(full)
        for _ in range(rng.integers(0, 6)):
            bits[rng.integers(0, L.n_units)] = 0
        frac = L.approx_n_rows(tuple(bits)) / L.n_rows
        vec = tuple(
            min(1.0, max(0.01, 1.0 - 0.8 * frac + 0.01 * j))
            for j in range(len(ctx.measures))
        )
        pruner.observe(tuple(bits), vec)
    pruner._refresh()
    return pruner


def test_corr_fp_returns_bracketing_interval(house_ctx):
    pruner = _mk_pruner(house_ctx)
    L = house_ctx.layout
    bits = list(L.full_bits())
    bits[L.val_units["grp"][0]] = 0
    param = pruner.corr_fp(tuple(bits))
    if param is None:
        pytest.skip("correlation evidence below threshold for this draw")
    for lo, hi in param:
        assert lo <= hi
        assert 0 <= lo and hi <= 1.0


def test_can_prune_when_table_entry_covers(house_ctx):
    pruner = CorrPruner(house_ctx)
    meas = house_ctx.measures
    table = ParetoTable(meas, eps=0.2)
    table.offer((0,) * 3, tuple([0.1] * len(meas)))
    param = [(0.5, 0.9)] * len(meas)
    assert pruner.can_prune(param, table, eps=0.2)
    assert pruner.n_pruned == 1


def test_cannot_prune_when_candidate_better(house_ctx):
    pruner = CorrPruner(house_ctx)
    meas = house_ctx.measures
    table = ParetoTable(meas, eps=0.2)
    table.offer((0,) * 3, tuple([0.5] * len(meas)))
    param = [(0.1, 0.2)] * len(meas)
    assert not pruner.can_prune(param, table, eps=0.2)


# -- the engine ---------------------------------------------------------


def test_bi_respects_budget(house_ctx):
    res = bi_modis(house_ctx, N=50, eps=0.2, max_level=3)
    assert res.n_spawned <= 50
    assert res.method == "BiMODis"


def test_nobi_name_and_budget(house_ctx):
    res = bi_modis(house_ctx, N=50, eps=0.2, max_level=3, prune=False)
    assert res.method == "NOBiMODis"
    assert res.skyline


def test_pruning_never_valuates_more(house_ctx):
    with_prune = bi_modis(house_ctx, N=120, eps=0.3, max_level=4, prune=True)
    without = bi_modis(house_ctx, N=120, eps=0.3, max_level=4, prune=False)
    # A pruned child counts towards N but is seen, not spawned (valuated).
    assert with_prune.n_spawned <= without.n_spawned


def test_pruning_saves_valuations_fresh_contexts(spark, house_small):
    """On identical fresh contexts, correlation pruning can only reduce
    the number of valuations (Lemma 4 states skip valuation)."""
    from repro.core.runner import SearchContext

    lake, task, measures = house_small
    # A fixed time unit makes p_Train, and so the search, deterministic.
    task = dataclasses.replace(task, time_unit=6e-6)
    runs = {}
    for prune in (False, True):
        ctx = SearchContext.build(
            spark, lake, task, measures, max_k=8, n_seed=6, seed=0
        )
        runs[prune] = bi_modis(
            ctx, N=150, eps=0.2, max_level=5, prune=prune
        ).n_spawned
    assert runs[True] <= runs[False]


def test_bi_skyline_nondominated(house_ctx):
    res = bi_modis(house_ctx, N=80, eps=0.2, max_level=4)
    vecs = [v for _, v in res.skyline]
    for i, u in enumerate(vecs):
        for j, v in enumerate(vecs):
            if i != j:
                assert not dominates(u, v)


def test_bi_explores_both_directions(house_ctx):
    """The skyline should contain states on both sides of the lattice
    for a budget large enough: some reduced-from-full, some augmented-
    from-seed (strictly, at least one non-extreme state)."""
    res = bi_modis(house_ctx, N=150, eps=0.2, max_level=5, prune=False)
    full = house_ctx.layout.full_bits()
    assert any(bits != full for bits, _ in res.skyline)
