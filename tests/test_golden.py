"""Golden skylines: with a fixed time unit, p_Train is a work count and
the whole search is deterministic, so each MODis method must return the
recorded skyline bitmaps, spawn count and number of true trainings on
the small house lake, and the same raw measures in every T entry. An
exact ApxMODis search on the small avocado lake pins T on the regression
path, whose P reads neither Fisher nor MI."""
import copy
import dataclasses
import hashlib

import pytest

from repro.core.apx import apx_modis
from repro.core.bi import bi_modis
from repro.core.div import div_modis
from repro.core.runner import SearchContext
from repro.lake.tasks import avocado_lake

from .blas import by_blas_core

RUNS = {
    "ApxMODis": lambda ctx: apx_modis(ctx, N=80, eps=0.2, max_level=4),
    "NOBiMODis": lambda ctx: bi_modis(ctx, N=80, eps=0.2, max_level=4, prune=False),
    "BiMODis": lambda ctx: bi_modis(ctx, N=80, eps=0.2, max_level=4),
    "DivMODis": lambda ctx: div_modis(ctx, N=80, eps=0.2, max_level=4, k=3),
}

# (n_spawned, true trainings, sorted skyline bitmaps) per method.
# Re-record only for a change meant to move skylines or the calibration
# schedule. True trainings are len(ctx.tests) after the run, 29 of them
# from seeding; the rest pin the number of calibration rounds, which
# the skyline bitmaps alone may not show.
GOLDEN = {
    "ApxMODis": (80, 35, [
        "111110111111001011111",
        "111110111111101011111",
        "111110111111111111111",
    ]),
    "NOBiMODis": (80, 35, [
        "110000011100100000000",
        "110100011100000000000",
        "110110111111111111111",
        "111110101111111111111",
        "111110111111011111111",
        "111110111111101111111",
        "111110111111111111111",
    ]),
    "BiMODis": (44, 35, [
        "101110111111111111111",
        "110000011100100000000",
        "110100011100000000000",
        "110111111111111111111",
        "111010111111111111111",
        "111110111111111111111",
    ]),
    "DivMODis": (80, 35, [
        "110100011100000000000",
        "111110111111111111111",
    ]),
}


# sha256 of each method's T entries, sorted (bits, sorted raw items):
# every raw measure of every true evaluation, to the last bit (repr of a
# float round-trips). A change to featurization, the split, the model or
# a metric moves it even where the skyline bitmaps stay put.
T_DIGEST = {
    "ApxMODis": "ad4480f7122223bbb6dde708170038810ea3730b54e3b17b8aa872ae9844d2da",
    "NOBiMODis": "ee19501247f083180392435f820f730b6a895cdf6c138872bf2cdd85750b3fbb",
    "BiMODis": "c0f25f4cbab070ff5cfd010b6afe3612f338329a40772a716afd4ba1d35559b7",
    "DivMODis": "ee19501247f083180392435f820f730b6a895cdf6c138872bf2cdd85750b3fbb",
}


def t_digest(tests) -> str:
    entries = sorted((bits, sorted(pv.raw.items())) for bits, pv in tests.items())
    return hashlib.sha256(repr(entries).encode()).hexdigest()


@pytest.fixture(scope="module")
def golden_ctx(spark, house_small):
    """A house context with the estimator on and a deterministic p_Train.
    Each test runs on its own deep copy, so every method starts fresh."""
    lake, task, measures = house_small
    task = dataclasses.replace(task, time_unit=6e-6)
    return SearchContext.build(
        spark, lake, task, measures, max_k=8, n_seed=6, seed=0
    )


@pytest.mark.parametrize("method", list(RUNS))
def test_golden_skyline(golden_ctx, method):
    ctx = copy.deepcopy(golden_ctx)
    res = RUNS[method](ctx)
    bitmaps = sorted("".join(map(str, bits)) for bits, _ in res.skyline)
    assert (res.n_spawned, len(ctx.tests), bitmaps) == GOLDEN[method]
    assert t_digest(ctx.tests) == T_DIGEST[method]


# sha256 of T after an exact ApxMODis search (N=40, ε 0.1, maxl 4) on
# the avocado lake at scale 0.1: every state is true-evaluated, by the
# worker pool as the search expands it. The linear fit's ``Xb.T @ Xb``
# sums in an order that follows the BLAS thread count and kernel set,
# so the digests hold where BLAS runs more than one thread (one CPU
# gives others), one per kernel set.
AVOCADO_T_DIGEST = by_blas_core(
    SkylakeX="8085621fa2685bb1042260f4501bef3482ed9b6fe6f1fdc2e52cf3abd4eab8de",
    Haswell="caaca9adfcf58b53fa54413fa03551d49e749c773fe43df6623903126f1f358c",
    Zen="caaca9adfcf58b53fa54413fa03551d49e749c773fe43df6623903126f1f358c",
    Prescott="58c6302cfdfc9f9dd2abbade2f410c05412f0d4aab6469c7319ff1ebb4c58e8c",
)


@pytest.fixture(scope="module")
def avocado_exact_ctx(spark):
    """A T3 avocado context with exact valuation (no estimator) and a
    fixed p_Train unit."""
    lake, task, measures = avocado_lake(spark, scale=0.1)
    task = dataclasses.replace(task, time_unit=1.4e-8)
    return SearchContext.build(
        spark, lake, task, measures, max_k=6, use_estimator=False, seed=0
    )


def test_golden_avocado_exact(avocado_exact_ctx):
    ctx = copy.deepcopy(avocado_exact_ctx)
    res = apx_modis(ctx, N=40, eps=0.1, max_level=4)
    assert (res.n_spawned, len(ctx.tests)) == (40, 40)
    assert t_digest(ctx.tests) == AVOCADO_T_DIGEST
