"""Dominance relations, the (1+ε)-position grid, and the exact skyline.

All vectors here are *normalized, minimized* measure tuples (paper §2):
``u`` dominates ``v`` iff u ≤ v componentwise with at least one strict
inequality (§4); ``u`` ε-dominates ``v`` iff u ≤ (1+ε)·v componentwise
and u ≤ v on at least one decisive measure (§5.1). ``position``
implements Eq. (1): the floor-log_(1+ε) grid cell over the first |P|−1
measures, with the last measure decisive by default. ``kung_skyline``
is a plain non-dominated filter: UPareto's final clean-up, and the
exact skyline tests check UPareto against. Theorem 1's FPT cost
argument cites Kung's divide-and-conquer [24]; the skylines here span
tens of grid cells, where the quadratic filter does the same job.
"""
from __future__ import annotations

import math
from typing import Sequence

Vec = tuple[float, ...]


def dominates(u: Vec, v: Vec) -> bool:
    """True iff u dominates v (minimize; §4)."""
    return all(a <= b for a, b in zip(u, v)) and any(a < b for a, b in zip(u, v))


def eps_dominates(u: Vec, v: Vec, eps: float) -> bool:
    """True iff u ε-dominates v (§5.1): u ≤ (1+ε)v all, u ≤ v somewhere."""
    return all(a <= (1 + eps) * b for a, b in zip(u, v)) and any(
        a <= b for a, b in zip(u, v)
    )


def position(vec: Vec, lowers: Sequence[float], eps: float) -> tuple[int, ...]:
    """Eq. (1): discretized cell over the first |P|−1 measures."""
    out = []
    for p, pl in zip(vec[:-1], lowers[:-1]):
        ratio = max(p, pl) / pl
        out.append(int(math.floor(math.log(ratio, 1 + eps) + 1e-12)))
    return tuple(out)


def kung_skyline(vectors: list[Vec]) -> list[int]:
    """Ascending indices of the exact skyline (non-dominated set) of
    ``vectors``; of identical vectors only the first is kept."""
    kept: set[Vec] = set()
    out = []
    for i, v in enumerate(vectors):
        if v not in kept and not any(dominates(u, v) for u in vectors):
            kept.add(v)
            out.append(i)
    return out
