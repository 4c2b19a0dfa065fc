"""ApxMODis: reduce-from-universal (N, ε)-approximation (Alg. 1, §5.1).

``frontier_search`` from the universal state s_U alone, with OpGen
flipping one L entry 1→0 per transition (procedure OpGen) and UPareto
maintaining the ε-skyline over the position grid. The frontier is
expanded best-decisive-first across levels (capped by ``max_level``) —
the "extend 'shortest' paths by prioritizing the valuation of datasets
towards user-defined upper bounds" advantage the paper claims for the
reduce-from-universal strategy.
"""
from __future__ import annotations

from repro.core.operators import reduct_children
from repro.core.runner import SearchContext, SearchResult, frontier_search


def apx_modis(
    ctx: SearchContext,
    *,
    N: int = 300,
    eps: float = 0.1,
    max_level: int = 6,
) -> SearchResult:
    """Run ApxMODis; valuates at most N states or until no transitions.

    Every ``CALIBRATE_EVERY`` spawned states, the current per-measure
    champion entries are valuated with the true model and the estimator
    is refreshed — the paper's runtime enrichment of T.
    """
    return frontier_search(
        ctx,
        "ApxMODis",
        [(ctx.layout.full_bits(), reduct_children)],
        N=N,
        eps=eps,
        max_level=max_level,
        levelwise=False,
    )
