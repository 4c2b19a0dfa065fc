"""T5: bipartite user–product graph lake and the link-regression task.

The paper builds 1873 bipartite graphs from Kaggle and trains a
LightGCN to predict top-k missing edges; "augment"/"reduct" become edge
insertions/deletions (§6). The synthetic counterpart:

- A latent-factor ground truth: affinity = U0 V0ᵀ; each user's true
  links are their top-T items. A held-out fraction of true links is the
  *test* relevance set; the rest are observed training edges.
- Noise edges (random non-links) are mixed into the observed graph.
- Each observed edge gets a cluster id by 1-D k-means over an edge
  score built from node features — so noisy edges concentrate in
  low-score clusters and cluster-deletion (Reduct) cleans the graph,
  exactly the move the MODis search must discover. Reduct/Augment over
  clusters are the paper's edge deletions/insertions.
- Node features are noisy projections of the latent factors plus pure
  noise columns; feature-presence bits gate a bilinear feature score in
  the model, so the column dimension of the search is also live.

The universal "table" is the edge table joined (in Spark, on ``u`` and
on ``i``) with the user/item feature tables — carried as
``Lake.universal`` because the joins use two different keys.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.lake.tasks import Lake
from repro.measures import Measure, p_ranking
from repro.ml import metrics as mx
from repro.ml.kmeans import kmeans_1d
from repro.ml.lightgcn import LightGCNLite, bilinear_feature_scores

RANKING = "ranking"


@dataclass
class GraphTask:
    """Link-regression task: fixed LightGCN-lite M + ranking metrics.

    Mirrors the :class:`repro.tasks.TabularTask` interface consumed by
    :class:`repro.core.runner.SearchContext` (encode / evaluate_encoded /
    evaluate / protected_cols / keep_cols / key / target), so the whole
    MODis stack runs on graphs unchanged — the paper's §6 point that the
    generation "consistently aligns with its table data counterpart".
    """

    name: str
    n_users: int
    n_items: int
    test_relevant: dict[int, set[int]]
    user_feats: pd.DataFrame  # indexed by u, columns uf_*
    item_feats: pd.DataFrame  # indexed by i, columns if_*
    key: str = "edge_id"
    target: str = "present"
    kind: str = RANKING
    beta: float = 0.6  # weight of the bilinear feature score

    def protected_cols(self) -> set[str]:
        return {self.key, self.target, "u", "i"}

    def keep_cols(self) -> list[str]:
        return [self.key, self.target, "u", "i"]

    def encode(self, pdf: pd.DataFrame) -> pd.DataFrame:
        """The edge frame is its own encoding: M reads node ids, and
        feature columns only by name."""
        return pdf

    def evaluate_encoded(
        self, pdf: pd.DataFrame, mask: np.ndarray, cols: list[str],
        measures: list[Measure],
    ) -> dict[str, float]:
        return self.evaluate(pdf.loc[mask, self.keep_cols() + cols], measures)

    def evaluate(
        self, pdf: pd.DataFrame, measures: list[Measure]
    ) -> dict[str, float]:
        """Raw ranking measures of M on the edge frame. Every measure of
        P5 reads one of them and all come from one ranking, so the
        measure set selects nothing here."""
        uf_cols = [c for c in pdf.columns if c.startswith("uf_")]
        if_cols = [c for c in pdf.columns if c.startswith("if_")]
        edges = pdf[["u", "i"]].dropna().astype(int).to_numpy()
        raw = {
            "n_rows": float(len(pdf)),
            "n_cols": float(len(uf_cols) + len(if_cols)),
        }
        if len(edges) < 30 or len(np.unique(edges[:, 0])) < 3:
            raw.update(
                pc5=0.0, pc10=0.0, rc5=0.0, rc10=0.0, nc5=0.0, nc10=0.0
            )
            return raw
        model = LightGCNLite(self.n_users, self.n_items, seed=0).fit(edges)
        extra = None
        if uf_cols and if_cols:
            Fu = self.user_feats[uf_cols].to_numpy()
            Fi = self.item_feats[if_cols].to_numpy()
            extra = self.beta * bilinear_feature_scores(edges, Fu, Fi)
        ranked = model.rank(extra=extra, topn=10)
        rel = self.test_relevant
        raw.update(
            pc5=mx.precision_at_k(ranked, rel, 5),
            pc10=mx.precision_at_k(ranked, rel, 10),
            rc5=mx.recall_at_k(ranked, rel, 5),
            rc10=mx.recall_at_k(ranked, rel, 10),
            nc5=mx.ndcg_at_k(ranked, rel, 5),
            nc10=mx.ndcg_at_k(ranked, rel, 10),
        )
        return raw


def graph_lake(
    spark: SparkSession, scale: float = 1.0, seed: int = 55
) -> tuple[Lake, GraphTask, list[Measure]]:
    rng = np.random.default_rng(seed)
    n_users = max(30, int(90 * scale))
    n_items = max(20, int(60 * scale))
    k0 = 6
    U0 = rng.normal(size=(n_users, k0))
    V0 = rng.normal(size=(n_items, k0))
    A = U0 @ V0.T

    # True links: top-T items per user; 40% held out as test relevance.
    T = 12
    true_edges, test_rel = [], {}
    for u in range(n_users):
        top = np.argsort(-A[u])[:T]
        held = set(
            top[rng.random(T) < 0.4].tolist()
        )
        test_rel[u] = held
        true_edges.extend((u, i) for i in top if i not in held)
    true_edges = np.array(true_edges)

    # Noise edges: random pairs outside the true top lists.
    n_noise = int(0.45 * len(true_edges))
    noise = np.column_stack(
        [rng.integers(0, n_users, n_noise), rng.integers(0, n_items, n_noise)]
    )
    true_set = {tuple(e) for e in true_edges}
    noise = np.array(
        [e for e in noise if tuple(e) not in true_set], dtype=np.int64
    ).reshape(-1, 2)

    edges = np.vstack([true_edges, noise])

    # Node features: noisy latent projections (informative) + pure noise.
    # Users and items share one orthonormal projection P so the feature
    # affinity Fu·Fi ≈ U0 P Pᵀ V0ᵀ tracks the true affinity — the edge
    # clusters derived from it then separate noise from true links.
    n_info, n_junk = 4, 3
    P, _ = np.linalg.qr(rng.normal(size=(k0, n_info)))
    Fu = np.column_stack(
        [U0 @ P + 0.3 * rng.normal(size=(n_users, n_info)),
         rng.normal(size=(n_users, n_junk))]
    )
    Fi = np.column_stack(
        [V0 @ P + 0.3 * rng.normal(size=(n_items, n_info)),
         rng.normal(size=(n_items, n_junk))]
    )
    uf_cols = [f"uf_{j}" for j in range(n_info + n_junk)]
    if_cols = [f"if_{j}" for j in range(n_info + n_junk)]
    user_feats = pd.DataFrame(Fu, columns=uf_cols)
    item_feats = pd.DataFrame(Fi, columns=if_cols)

    # Edge clusters by 1-D k-means over a feature-affinity edge score.
    esc = (Fu[edges[:, 0], :n_info] * Fi[edges[:, 1], :n_info]).sum(axis=1)
    cluster = kmeans_1d(esc, 8, seed=seed)

    base_pdf = pd.DataFrame(
        {
            "edge_id": np.arange(1, len(edges) + 1),
            "present": 1.0,
            "u": edges[:, 0],
            "i": edges[:, 1],
            "ecluster": cluster,
        }
    )
    user_src = user_feats.copy()
    user_src.insert(0, "u", np.arange(n_users))
    item_src = item_feats.copy()
    item_src.insert(0, "i", np.arange(n_items))

    base_sdf = spark.createDataFrame(base_pdf)
    user_sdf = spark.createDataFrame(user_src)
    item_sdf = spark.createDataFrame(item_src)
    universal = base_sdf.join(user_sdf, on="u", how="left_outer").join(
        item_sdf, on="i", how="left_outer"
    )

    lake = Lake(
        name="T5_graph",
        key="edge_id",
        target="present",
        base=base_sdf,
        sources={"user_feats": user_sdf, "item_feats": item_sdf},
        universal=universal,
    )
    measures = [
        p_ranking("p_Pc5", "pc5"),
        p_ranking("p_Pc10", "pc10"),
        p_ranking("p_Rc5", "rc5"),
        p_ranking("p_Rc10", "rc10"),
        p_ranking("p_Nc5", "nc5"),
        p_ranking("p_Nc10", "nc10"),
    ]
    task = GraphTask(
        name="T5_graph",
        n_users=n_users,
        n_items=n_items,
        test_relevant=test_rel,
        user_feats=user_feats,
        item_feats=item_feats,
    )
    return lake, task, measures
