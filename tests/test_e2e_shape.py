"""End-to-end shape tests: the paper's headline directional claims at
test scale. Thresholds are deliberately loose — the claim under test is
the *ordering*, not absolute numbers (EXPERIMENTS.md records those).
"""
import copy

import pytest

from repro.core.apx import apx_modis
from repro.core.bi import bi_modis
from repro.core.runner import SearchContext
from repro.lake.tasks import house_lake


@pytest.fixture(scope="module")
def ctx(spark):
    lake, task, measures = house_lake(spark, scale=0.5)
    return SearchContext.build(
        spark, lake, task, measures, max_k=10, n_seed=8, seed=0
    )


def _best_true(ctx, res, key="acc"):
    best = None
    for bits, _ in res.skyline:
        pv = ctx.true_eval(bits)
        if best is None or pv.raw[key] > best.raw[key]:
            best = pv
    return best


def test_modis_improves_over_original(ctx):
    """Exp-1: rImp(p_Acc) >= 1.07 in all cases (paper §6)."""
    orig = ctx.true_eval(ctx.layout.full_bits()).raw["acc"]
    res = bi_modis(ctx, N=300, eps=0.1, max_level=6, prune=False)
    best = _best_true(ctx, res)
    assert best.raw["acc"] >= 1.05 * orig


def test_modis_reduces_training_cost(ctx):
    """The discovered dataset trains faster than the universal table."""
    orig = ctx.true_eval(ctx.layout.full_bits()).raw
    res = bi_modis(ctx, N=300, eps=0.1, max_level=6, prune=False)
    cheapest = min(ctx.true_eval(b).raw["train_time"] for b, _ in res.skyline)
    assert cheapest < orig["train_time"]


def test_bimodis_not_slower_than_apx(ctx):
    """Exp-3: the bi-directional strategy is faster in practice. Each
    method searches its own copy of the context, so neither reuses the
    trainings the other left in T."""
    r_apx = apx_modis(copy.deepcopy(ctx), N=250, eps=0.1, max_level=6)
    r_bi = bi_modis(copy.deepcopy(ctx), N=250, eps=0.1, max_level=6)
    assert r_bi.wall_time <= r_apx.wall_time * 1.5


def test_smaller_eps_no_worse_quality(ctx):
    """Exp-2: smaller ε yields an equal-or-better best accuracy
    (allowing small search noise)."""
    coarse = bi_modis(ctx, N=250, eps=0.5, max_level=5, prune=False)
    fine = bi_modis(ctx, N=250, eps=0.05, max_level=5, prune=False)
    acc_c = _best_true(ctx, coarse).raw["acc"]
    acc_f = _best_true(ctx, fine).raw["acc"]
    assert acc_f >= acc_c - 0.05


def test_longer_maxl_explores_no_fewer_states(ctx):
    short = apx_modis(ctx, N=10_000, eps=0.3, max_level=1)
    longer = apx_modis(ctx, N=10_000, eps=0.3, max_level=2)
    assert longer.n_spawned >= short.n_spawned
