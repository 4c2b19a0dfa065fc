"""DivMODis: diversified skyline generation (Alg. 3, §5.4).

Runs the bi-directional, level-wise ``frontier_search`` and, at each
calibration round (one per level), trims the current ε-skyline to a
diversified k-subset by greedy selection-and-replacement maximizing the
submodular score of Eq. (2):

    div(D_F) = Σ_{i<j} dis(D_i, D_j),
    dis = α·(1 − cos(L_i, L_j))/2 + (1−α)·euc(P_i, P_j)/euc_max,

i.e. α mixes content diversity (bitmap cosine distance) with
performance diversity (normalized Euclidean distance of the vectors).
Lemma 5 gives the ¼-approximation of the stream-submodular argument.
"""
from __future__ import annotations

import numpy as np

from repro.core.bi import bi_starts
from repro.core.dominance import Vec
from repro.core.literals import Bits
from repro.core.runner import (
    ParetoTable, SearchContext, SearchResult, frontier_search
)


def _dis(
    a: tuple[Bits, Vec], b: tuple[Bits, Vec], alpha: float, euc_m: float
) -> float:
    la = np.asarray(a[0], dtype=np.float64)
    lb = np.asarray(b[0], dtype=np.float64)
    na, nb = np.linalg.norm(la), np.linalg.norm(lb)
    cos = float(la @ lb / (na * nb)) if na > 0 and nb > 0 else 0.0
    euc = float(np.linalg.norm(np.asarray(a[1]) - np.asarray(b[1])))
    return alpha * (1 - cos) / 2 + (1 - alpha) * euc / euc_m


def div_score(
    entries: list[tuple[Bits, Vec]], alpha: float, euc_m: float
) -> float:
    """Eq. (2) over a candidate k-set."""
    s = 0.0
    for i in range(len(entries) - 1):
        for j in range(i + 1, len(entries)):
            s += _dis(entries[i], entries[j], alpha, euc_m)
    return s


def diversify(
    entries: list[tuple[Bits, Vec]],
    k: int,
    alpha: float,
    *,
    seed: int = 0,
) -> list[tuple[Bits, Vec]]:
    """Alg. 3: greedy swap from a random k-seed until no swap improves."""
    if len(entries) <= k:
        return list(entries)
    euc_m = max(
        (
            float(np.linalg.norm(np.asarray(a[1]) - np.asarray(b[1])))
            for i, a in enumerate(entries)
            for b in entries[i + 1 :]
        ),
        default=1.0,
    )
    euc_m = euc_m or 1.0
    rng = np.random.default_rng(seed)
    idx = list(rng.choice(len(entries), size=k, replace=False))
    pool = [entries[i] for i in idx]
    score = div_score(pool, alpha, euc_m)
    outside = [e for i, e in enumerate(entries) if i not in idx]
    improved = True
    while improved:
        improved = False
        for oi, cand in enumerate(outside):
            for pi, held in enumerate(pool):
                trial = pool[:pi] + pool[pi + 1 :] + [cand]
                s = div_score(trial, alpha, euc_m)
                if s > score + 1e-12:
                    pool[pi], outside[oi] = cand, held
                    score = s
                    improved = True
                    break
            if improved:
                break
    return pool


def div_modis(
    ctx: SearchContext,
    *,
    N: int = 300,
    eps: float = 0.1,
    max_level: int = 6,
    k: int = 5,
    alpha: float = 0.5,
    seed: int = 0,
) -> SearchResult:
    """DivMODis over the bi-directional search (no correlation pruning —
    matching the paper's observation that DivMODis behaves like
    NOBiMODis plus a stream-style placement step)."""

    def hook(table: ParetoTable, level: int) -> None:
        ent = table.entries()
        if len(ent) <= k:
            return
        kept = diversify(ent, k, alpha, seed=seed + level)
        kept_bits = {b for b, _ in kept}
        table.cells = {
            pos: e for pos, e in table.cells.items() if e[0] in kept_bits
        }

    return frontier_search(
        ctx,
        "DivMODis",
        bi_starts(ctx),
        N=N,
        eps=eps,
        max_level=max_level,
        levelwise=True,
        level_hook=hook,
    )
