"""BiMODis / NOBiMODis: bi-directional skyline search with
correlation-based pruning (Alg. 2 / Fig. 12, §5.3).

Forward frontier: Reduct flips from the universal state s_U. Backward
frontier: Augment flips from the BackSt seed — a minimal dataset whose
partition-attribute clusters cover every target class ("no classes will
be 'missed' in dataset D_b", §5.3).

Correlation-based pruning, modelled on Lemma 4: a Spearman correlation
graph G_C over the valuated tests T links measures that are strongly
correlated (|ρ| ≥ θ) with each other and with dataset size. CorrFP
parameterizes an unvaluated state's measures with ranges interpolated
from the nearest recorded states by retained-row fraction (Fig. 12
Case 2), or with T's observed range; a state whose range lower ends
are (1+ε)-covered by a current skyline entry is pruned without
valuation. This is a heuristic, not Lemma 4's guarantee: neither kind
of range bounds an unseen state, and only the lower ends are compared,
so a pruned state may have belonged to the skyline. NOBiMODis is the
same search with pruning disabled.

Both frontiers are the two start states of one level-wise
``frontier_search``: each level is expanded best-decisive-first,
forward side before backward side, with a calibration round between
levels. The search ends when N states are seen, when ``max_level``
levels are expanded, or when both frontiers are empty. The paper's
"when a path is formed, the result D_F is returned" rule is not
implemented: a state reached from one side is skipped by the other, so
the two frontiers never share a state.
"""
from __future__ import annotations

import numpy as np

from repro.core.dominance import Vec
from repro.core.literals import Bits
from repro.core.operators import augment_children, reduct_children
from repro.core.runner import (
    OpGen, ParetoTable, SearchContext, SearchResult, frontier_search
)

# A parameterized performance entry: exact value or [lo, hi] range.
ParamPerf = list[tuple[float, float]]


# -- BackSt (procedure BackSt, §5.3) ------------------------------------

def back_start(ctx: SearchContext) -> Bits:
    """Backward seed s_b: base-schema attributes only (all attributes
    when the context has no base schema), with a minimal cluster cover
    of the target's active domain on the partition attribute (the
    present attribute with the most clusters)."""
    layout = ctx.layout
    attrs = [a for a in (ctx.base_attrs or layout.attrs) if a in layout.col_unit]
    bits = list(layout.schema_bits(attrs))
    part = max(attrs, key=lambda a: layout.n_clusters(a), default=None)
    if part is None or layout.n_clusters(part) < 2:
        return tuple(bits)
    # Greedy set cover of target classes by clusters of the partition attr.
    target = ctx.universal_pdf[ctx.task.target]
    tv = target.to_numpy()
    if np.issubdtype(tv.dtype, np.floating) and len(np.unique(tv[~np.isnan(tv.astype(float))])) > 10:
        tv = np.digitize(
            tv, np.nanquantile(tv.astype(float), [0.25, 0.5, 0.75])
        )
    lab = layout.row_clusters[part]
    classes = set(np.unique(tv[lab >= 0]).tolist())
    chosen: list[int] = []
    covered: set = set()
    cluster_classes = {
        j: set(np.unique(tv[lab == j]).tolist())
        for j in range(layout.n_clusters(part))
    }
    while covered != classes:
        best = max(
            cluster_classes,
            key=lambda j: len(cluster_classes[j] - covered),
            default=None,
        )
        if best is None or not (cluster_classes[best] - covered):
            break
        chosen.append(best)
        covered |= cluster_classes.pop(best)
    for j, u in enumerate(layout.val_units[part]):
        bits[u] = 1 if j in chosen else 0
    return tuple(bits)


# -- correlation machinery ----------------------------------------------

def spearman(x: np.ndarray, y: np.ndarray) -> float:
    """Pearson correlation of ordinal ranks (a double argsort): tied
    values get distinct ranks in index order, not their average rank,
    so ties can move ρ (x=[.5,.5,.5,.5,.9,1] against y=1..6 gives 1.0;
    average ranks give 0.845)."""
    if len(x) < 3 or np.std(x) == 0 or np.std(y) == 0:
        return 0.0
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    cx, cy = rx - rx.mean(), ry - ry.mean()
    d = np.sqrt((cx**2).sum() * (cy**2).sum())
    return float((cx * cy).sum() / d) if d > 0 else 0.0


class CorrPruner:
    """G_C + CorrFP + a heuristic prune test in the shape of Lemma 4's,
    refreshed as the search valuates states."""

    def __init__(self, ctx: SearchContext, theta: float = 0.8):
        self.ctx = ctx
        self.theta = theta
        self._obs: list[tuple[float, Vec]] = []  # (frac_rows, perf vector)
        self._corr_with_size: np.ndarray | None = None
        self.n_pruned = 0

    def observe(self, bits: Bits, vec: Vec) -> None:
        frac = self.ctx.layout.approx_n_rows(bits) / max(
            1, self.ctx.layout.n_rows
        )
        self._obs.append((frac, vec))
        if len(self._obs) % 8 == 0:
            self._refresh()

    def _refresh(self) -> None:
        fr = np.array([o[0] for o in self._obs])
        P = np.array([o[1] for o in self._obs])
        self._corr_with_size = np.array(
            [spearman(fr, P[:, j]) for j in range(P.shape[1])]
        )

    def corr_fp(self, bits: Bits) -> ParamPerf | None:
        """Parameterized performance vector from G_C and T (Fig. 12).

        Per measure: the [lo, hi] of the two recorded states bracketing
        this state's retained-row fraction when that measure is strongly
        size-correlated (Case 2), else the observed range over all of T
        (the generic [p̂_l, p̂_u] of §5.3). Neither is a bound on the
        state's measure: the state may fall outside both. None when the
        correlation evidence is too weak overall.
        """
        if self._corr_with_size is None or len(self._obs) < 6:
            return None
        strong = np.abs(self._corr_with_size) >= self.theta
        if not strong.any():
            return None
        frac = self.ctx.layout.approx_n_rows(bits) / max(
            1, self.ctx.layout.n_rows
        )
        obs = sorted(self._obs, key=lambda o: o[0])
        fr = np.array([o[0] for o in obs])
        P = np.array([o[1] for o in obs])
        g_lo, g_hi = P.min(axis=0), P.max(axis=0)
        lo_i = int(np.searchsorted(fr, frac, side="right")) - 1
        hi_i = lo_i + 1
        bracket = 0 <= lo_i and hi_i < len(obs)
        out: ParamPerf = []
        for j in range(P.shape[1]):
            if strong[j] and bracket:
                a, b = P[lo_i, j], P[hi_i, j]
                out.append((float(min(a, b)), float(max(a, b))))
            else:
                out.append((float(g_lo[j]), float(g_hi[j])))
        return out

    def can_prune(self, param: ParamPerf, table: ParetoTable, eps: float) -> bool:
        """True iff some entry of ``table`` ε-covers the lower ends of
        ``param``: within (1+ε) of every lower end and at or below one of
        them. The upper ends are not read and the ranges are not bounds,
        so this does not prove that the state or its extensions stay out
        of the ε-skyline; it is a heuristic prune."""
        for _, v in table.entries():
            if all(
                v[j] <= (1 + eps) * param[j][0] for j in range(len(v))
            ) and any(v[j] <= param[j][0] for j in range(len(v))):
                self.n_pruned += 1
                return True
        return False


# -- the bi-directional search -----------------------------------------

def bi_starts(ctx: SearchContext) -> list[tuple[Bits, OpGen]]:
    """The two frontiers' seeds: Reduct from s_U, Augment from BackSt."""
    return [
        (ctx.layout.full_bits(), reduct_children),
        (back_start(ctx), augment_children),
    ]


def bi_modis(
    ctx: SearchContext,
    *,
    N: int = 300,
    eps: float = 0.1,
    max_level: int = 6,
    prune: bool = True,
) -> SearchResult:
    """BiMODis (prune=True) / NOBiMODis (prune=False)."""
    return frontier_search(
        ctx,
        "BiMODis" if prune else "NOBiMODis",
        bi_starts(ctx),
        N=N,
        eps=eps,
        max_level=max_level,
        levelwise=True,
        pruner=CorrPruner(ctx) if prune else None,
    )
