"""ApxMODis: budget, level bound, and the empirical (N, ε) guarantee,
which is also checked on NOBiMODis and BiMODis.

``movie_ctx_true`` has no estimator, so every valuated state's vector
is exact — Lemma 2's ε-skyline coverage over the valuated states is
checkable literally.
"""
import dataclasses

import pytest

from repro.core.apx import apx_modis
from repro.core.bi import bi_modis
from repro.core.dominance import dominates, eps_dominates


def test_budget_respected(movie_ctx_true):
    res = apx_modis(movie_ctx_true, N=25, eps=0.2, max_level=4)
    assert res.n_spawned <= 25
    assert res.method == "ApxMODis"
    assert res.skyline


def test_skyline_mutually_nondominated(movie_ctx_true):
    res = apx_modis(movie_ctx_true, N=40, eps=0.2, max_level=4)
    vecs = [v for _, v in res.skyline]
    for i, u in enumerate(vecs):
        for j, v in enumerate(vecs):
            if i != j:
                assert not dominates(u, v)


# DivMODis is left out on purpose: its level hook trims the table to a
# diversified k-subset, so the states it drops need not stay covered.
COVERAGE_RUNS = {
    "ApxMODis": lambda ctx, eps: apx_modis(ctx, N=40, eps=eps, max_level=4),
    "NOBiMODis": lambda ctx, eps: bi_modis(
        ctx, N=40, eps=eps, max_level=4, prune=False
    ),
    "BiMODis": lambda ctx, eps: bi_modis(ctx, N=40, eps=eps, max_level=4),
}


@pytest.mark.parametrize("eps", [0.1, 0.3, 0.6])
@pytest.mark.parametrize("method", list(COVERAGE_RUNS))
def test_eps_skyline_covers_valuated_states(movie_ctx_true, method, eps):
    """Every state the run valuated is ε-dominated by a skyline entry
    (the ε-Skyline definition of §5.1, checked on exact vectors). Each
    run gets an empty test cache over the shared layout, so ``tests``
    holds exactly the states it valuated."""
    ctx = dataclasses.replace(
        movie_ctx_true, tests={}, est_cache={}, estimator=None
    )
    res = COVERAGE_RUNS[method](ctx, eps)
    sky = [v for _, v in res.skyline]
    for bits, pv in ctx.tests.items():
        v = pv.vector(ctx.measures)
        if any(x > m.hi for x, m in zip(v, ctx.measures)):
            continue  # outside the user bounds -> not required to cover
        assert any(eps_dominates(u, v, eps + 1e-9) for u in sky)


def test_wall_time_recorded(movie_ctx_true):
    res = apx_modis(movie_ctx_true, N=10, eps=0.2, max_level=2)
    assert res.wall_time > 0


def test_max_level_limits_depth(movie_ctx_true):
    full = movie_ctx_true.layout.full_bits()
    res = apx_modis(movie_ctx_true, N=10_000, eps=0.3, max_level=1)
    # with max_level=1 only single-flip children of s_U are reachable
    for bits, _ in res.skyline:
        flipped = sum(1 for a, b in zip(bits, full) if a != b)
        # a column drop retires its cluster bits too; grp has <= 7 bits
        assert flipped <= 1 + max(
            len(movie_ctx_true.layout.val_units[a])
            for a in movie_ctx_true.layout.attrs
        )


def test_larger_budget_never_fewer_valuations(movie_ctx_true):
    r1 = apx_modis(movie_ctx_true, N=15, eps=0.2, max_level=3)
    r2 = apx_modis(movie_ctx_true, N=60, eps=0.2, max_level=3)
    assert r2.n_spawned >= r1.n_spawned

