"""T5 substrate: bipartite lake, LightGCN-lite, GraphTask, and the
MODis stack running unchanged on graph data."""
import numpy as np
import pytest

from repro.core.bi import bi_modis
from repro.core.universal import build_universal
from repro.ml.lightgcn import LightGCNLite, bilinear_feature_scores


# -- LightGCN-lite ------------------------------------------------------


def _toy_edges(n_users=12, n_items=8, seed=0):
    rng = np.random.default_rng(seed)
    U = rng.normal(size=(n_users, 3))
    V = rng.normal(size=(n_items, 3))
    A = U @ V.T
    edges = []
    for u in range(n_users):
        for i in np.argsort(-A[u])[:3]:
            edges.append((u, i))
    return np.array(edges), A


def test_lightgcn_scores_shape():
    edges, _ = _toy_edges()
    m = LightGCNLite(12, 8, k=4, n_iters=3).fit(edges)
    assert m.scores().shape == (12, 8)


def test_lightgcn_rank_excludes_train_edges():
    edges, _ = _toy_edges()
    m = LightGCNLite(12, 8, k=4, n_iters=3).fit(edges)
    ranked = m.rank(topn=5)
    train = {(u, i) for u, i in edges}
    for u, items in ranked.items():
        for it in items:
            assert (u, it) not in train


def test_lightgcn_recovers_affinity_order():
    edges, A = _toy_edges(seed=1)
    m = LightGCNLite(12, 8, k=4, n_iters=6).fit(edges)
    S = m.scores()
    # scores correlate with true affinity across all pairs
    corr = np.corrcoef(S.ravel(), A.ravel())[0, 1]
    assert corr > 0.3


def test_lightgcn_deterministic():
    edges, _ = _toy_edges()
    a = LightGCNLite(12, 8, seed=5).fit(edges).scores()
    b = LightGCNLite(12, 8, seed=5).fit(edges).scores()
    assert np.allclose(a, b)


def test_bilinear_scores_empty_features_zero():
    edges, _ = _toy_edges()
    S = bilinear_feature_scores(edges, np.empty((12, 0)), np.empty((8, 0)))
    assert S.shape == (12, 8)
    assert np.all(S == 0)


def test_bilinear_scores_recover_planted_signal():
    rng = np.random.default_rng(2)
    Fu = rng.normal(size=(30, 3))
    Fi = rng.normal(size=(20, 3))
    truth = Fu @ Fi.T
    pos = np.argwhere(truth > np.quantile(truth, 0.8))
    S = bilinear_feature_scores(pos, Fu, Fi, seed=0)
    corr = np.corrcoef(S.ravel(), truth.ravel())[0, 1]
    assert corr > 0.5


# -- graph lake + task --------------------------------------------------


def test_graph_lake_universal_schema(graph_small):
    lake, task, measures = graph_small
    uni = build_universal(lake)
    cols = set(uni.columns)
    assert {"edge_id", "present", "u", "i", "ecluster"} <= cols
    assert any(c.startswith("uf_") for c in cols)
    assert any(c.startswith("if_") for c in cols)


def test_graph_task_evaluate_full(graph_ctx):
    raw = graph_ctx.tests[graph_ctx.layout.full_bits()].raw
    for k in ("pc5", "pc10", "rc5", "rc10", "nc5", "nc10"):
        assert 0 <= raw[k] <= 1
    assert raw["pc5"] > 0.1  # the model does learn something


def test_graph_task_degenerate_few_edges(graph_small):
    _l, task, measures = graph_small
    import pandas as pd

    pdf = pd.DataFrame(
        {"edge_id": [1, 2], "present": [1.0, 1.0], "u": [0, 1], "i": [0, 1]}
    )
    raw = task.evaluate(pdf, measures)
    assert raw["pc5"] == 0.0


def test_graph_cluster_deletion_moves_metrics(graph_ctx):
    """Edge clusters partition noise vs true links; deleting the lowest-
    score cluster should not *hurt* much and some deletion helps."""
    L = graph_ctx.layout
    full = L.full_bits()
    base = graph_ctx.true_eval(full).raw["pc5"]
    best = base
    for j, u in enumerate(L.val_units["ecluster"]):
        bits = list(full)
        bits[u] = 0
        best = max(best, graph_ctx.true_eval(tuple(bits)).raw["pc5"])
    assert best >= base  # at least one deletion is non-harmful


def test_graph_search_runs_end_to_end(graph_ctx):
    res = bi_modis(graph_ctx, N=60, eps=0.15, max_level=4)
    assert res.skyline
    # outputs materialize with graph keep columns
    bits, _ = res.skyline[0]
    out = graph_ctx.materialize(bits)
    assert {"edge_id", "present", "u", "i"} <= set(out.columns)


def test_graph_protected_cols(graph_small):
    _l, task, _m = graph_small
    assert {"u", "i"} <= task.protected_cols()
    assert task.keep_cols() == ["edge_id", "present", "u", "i"]
