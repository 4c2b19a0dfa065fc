"""ApxMODis: reduce-from-universal (N, ε)-approximation (Alg. 1, §5.1).

Level-wise spawning from the universal state s_U; OpGen flips one L
entry 1→0 per transition (procedure OpGen); UPareto maintains the
ε-skyline over the position grid. Within a level, states are expanded
best-decisive-first — the "extend 'shortest' paths by prioritizing the
valuation of datasets towards user-defined upper bounds" advantage the
paper claims for the reduce-from-universal strategy.
"""
from __future__ import annotations

import heapq
import itertools

from repro.core.operators import reduct_children
from repro.core.runner import (
    CALIBRATE_K, ParetoTable, SearchContext, SearchResult, timed
)

# Spawned states between two calibration rounds.
CALIBRATE_EVERY = 60


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

    def run():
        table = ParetoTable(ctx.measures, eps)
        s_u = ctx.layout.full_bits()
        vec = ctx.valuate(s_u)
        table.offer(s_u, vec)
        tie = itertools.count()
        # Heap orders by (decisive measure, level): the paper's
        # "shortest-path" prioritization — the frontier state whose
        # estimated decisive measure is best is reduced first, so the
        # budget follows promising reduction paths deep instead of
        # exhausting a level breadth-first.
        heap = [(vec[-1], 0, next(tie), s_u)]
        seen = {s_u}
        while heap and len(seen) < N:
            _, level, _, s = heapq.heappop(heap)
            if level >= max_level:
                continue
            for child, _op in reduct_children(ctx.layout, s):
                if child in seen:
                    continue
                seen.add(child)
                cvec = ctx.valuate(child)
                table.offer(child, cvec)
                heapq.heappush(heap, (cvec[-1], level + 1, next(tie), child))
                if len(seen) % CALIBRATE_EVERY == 0:
                    ctx.calibrate(table.entries(), k=CALIBRATE_K)
                if len(seen) >= N:
                    break
        ctx.calibrate(table.entries(), k=CALIBRATE_K)
        return table, len(seen)

    (table, spawned), wall = timed(run)
    return SearchResult(
        method="ApxMODis",
        skyline=table.result(),
        n_spawned=spawned,
        wall_time=wall,
    )
