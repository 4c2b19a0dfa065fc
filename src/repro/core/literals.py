"""Equality literals and the bitmap unit layout L (paper §5.1, §6).

Per §6 ("Construction of D_U and Operators") each attribute's active
domain is clustered with k-means (max k = 30) and one equality literal
is derived per cluster; the state bitmap L encodes, per attribute,
whether the schema contains it and which of its value clusters are
retained. Units:

- ``("col", A)``   — schema/presence bit for attribute A;
- ``("val", A, j)``— cluster j of adom(A) retained.

Materialization semantics of a bitmap over the universal table D_U:
keep the key/target plus every attribute with presence=1; keep a row
iff, for every attribute with presence=1, the row's value falls in a
retained cluster (rows null in A are never excluded by A — nulls are
"don't know", not literal matches). Cluster bits of an absent column
are inert and flips on them are not generated.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from repro.ml.kmeans import kmeans_1d

Bits = tuple[int, ...]


@dataclass
class UnitLayout:
    """Bitmap layout over the universal table of one task lake."""

    attrs: list[str]
    col_unit: dict[str, int]
    val_units: dict[str, list[int]]  # attr -> unit index per cluster id
    row_clusters: dict[str, np.ndarray]  # attr -> per-row cluster (-1 = null)
    cluster_counts: dict[str, np.ndarray]  # attr -> rows per cluster
    n_units: int
    n_rows: int
    unit_names: list[str] = field(default_factory=list)

    # -- construction ----------------------------------------------------
    @classmethod
    def from_universal(
        cls,
        pdf: pd.DataFrame,
        *,
        protected: set[str],
        max_k: int = 30,
        force_cluster: tuple[str, ...] = (),
        seed: int = 0,
    ) -> "UnitLayout":
        """Derive the unit layout from a collected D_U.

        Value-cluster literals are derived for attributes whose active
        domain is small (|adom(A)| ≤ max_k → one literal per distinct
        value) and for attributes in ``force_cluster`` (k-means down to
        max_k clusters — the knob Exp-3 uses to control |adom|). Other
        attributes contribute only a presence unit, mirroring the
        paper's §6 compression that "only retain[s] the values of
        interests" instead of starting from the full active domains.
        """
        attrs = [c for c in pdf.columns if c not in protected]
        col_unit: dict[str, int] = {}
        val_units: dict[str, list[int]] = {}
        row_clusters: dict[str, np.ndarray] = {}
        cluster_counts: dict[str, np.ndarray] = {}
        unit_names: list[str] = []
        nxt = 0
        for a in attrs:
            col_unit[a] = nxt
            unit_names.append(f"col:{a}")
            nxt += 1
            nunique = int(pdf[a].nunique(dropna=True))
            if nunique <= max_k or a in force_cluster:
                labels = cls._cluster_column(pdf[a], max_k=max_k, seed=seed)
            else:
                labels = np.full(len(pdf), -1, dtype=np.int64)
            row_clusters[a] = labels
            k = int(labels.max()) + 1 if (labels >= 0).any() else 0
            counts = np.zeros(max(k, 0), dtype=np.int64)
            for j in range(k):
                counts[j] = int((labels == j).sum())
            cluster_counts[a] = counts
            units = []
            if k >= 2:  # a single-cluster attribute has no row-level literal
                for j in range(k):
                    units.append(nxt)
                    unit_names.append(f"val:{a}={j}")
                    nxt += 1
            val_units[a] = units
        return cls(
            attrs=attrs,
            col_unit=col_unit,
            val_units=val_units,
            row_clusters=row_clusters,
            cluster_counts=cluster_counts,
            n_units=nxt,
            n_rows=len(pdf),
            unit_names=unit_names,
        )

    @staticmethod
    def _cluster_column(s: pd.Series, *, max_k: int, seed: int) -> np.ndarray:
        """Per-row cluster labels; -1 marks nulls."""
        isnull = s.isna().to_numpy()
        out = np.full(len(s), -1, dtype=np.int64)
        if isnull.all():
            return out
        if s.dtype == object or str(s.dtype).startswith("category"):
            codes = pd.Categorical(s).codes.astype(np.int64)
            vals = codes[~isnull].astype(np.float64)
        else:
            vals = pd.to_numeric(s[~isnull], errors="coerce").to_numpy(
                dtype=np.float64
            )
        distinct = np.unique(vals)
        if len(distinct) <= max_k:
            # one literal per distinct value, ordered by value
            lookup = {v: i for i, v in enumerate(distinct)}
            out[~isnull] = np.array([lookup[v] for v in vals], dtype=np.int64)
        else:
            out[~isnull] = kmeans_1d(vals, max_k, seed=seed)
        return out

    # -- bitmap helpers --------------------------------------------------
    def full_bits(self) -> Bits:
        """Start state s_U: everything present and retained."""
        return tuple([1] * self.n_units)

    def empty_bits(self) -> Bits:
        return tuple([0] * self.n_units)

    def schema_bits(self, attrs: list[str]) -> Bits:
        """Presence and every cluster bit of ``attrs`` set, all else 0."""
        bits = [0] * self.n_units
        for a in attrs:
            if a in self.col_unit:
                for u in [self.col_unit[a], *self.val_units[a]]:
                    bits[u] = 1
        return tuple(bits)

    def n_clusters(self, attr: str) -> int:
        return len(self.val_units[attr])

    def active_columns(self, bits: Bits) -> list[str]:
        return [a for a in self.attrs if bits[self.col_unit[a]] == 1]

    def row_mask(self, bits: Bits) -> np.ndarray:
        """Boolean retain-mask over D_U rows for a bitmap."""
        mask = np.ones(self.n_rows, dtype=bool)
        for a in self.attrs:
            if bits[self.col_unit[a]] == 0 or not self.val_units[a]:
                continue
            active = np.array(
                [bits[u] == 1 for u in self.val_units[a]], dtype=bool
            )
            if active.all():
                continue
            lab = self.row_clusters[a]
            keep = (lab < 0) | active[np.clip(lab, 0, None)]
            mask &= keep
        return mask

    def approx_n_rows(self, bits: Bits) -> int:
        """Exact retained-row count (cheap: vectorized mask)."""
        return int(self.row_mask(bits).sum())
