"""Experiment harnesses: table runners produce the paper's row/column
structure at test scale."""
import dataclasses
import importlib
import json
from pathlib import Path

import pytest

import repro.experiments.common as common
from repro.core.apx import apx_modis
from repro.experiments import tables
from repro.experiments.common import MethodRow, format_table, run_modis
from repro.experiments.tables import (
    TABLES,
    TASKS,
    modis_beats_original,
    run_task,
)

SMALL = {"N": 50, "eps": 0.2, "max_level": 3, "n_seed": 4}


def test_table2_structure(spark, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(TABLES, "table2", tuple(
        dataclasses.replace(t, scale=0.05) for t in TABLES["table2"]
    ))
    assert tables.main(spark, "table2") == 0
    out = json.loads((tmp_path / "results" / "table2.json").read_text())
    assert [t["spec"]["name"] for t in out["tasks"]] == list(TASKS)
    for entry in out["tasks"]:
        t, c, r = entry["lake"]
        assert t >= 1 and c > 0 and r > 0


def test_run_modis_reports_true_measures(house_ctx, monkeypatch):
    results = []
    search = common.MODIS_ALGOS["BiMODis"]
    monkeypatch.setitem(
        common.MODIS_ALGOS, "BiMODis",
        lambda ctx, kw: results.append(search(ctx, kw)) or results[-1],
    )
    row = run_modis(
        house_ctx,
        "BiMODis",
        select_key="f1",
        maximize=True,
        search_kw={"N": 60, "eps": 0.2, "max_level": 3},
    )
    assert isinstance(row, MethodRow)
    assert 0 <= row.raw["f1"] <= 1
    assert "skyline_size" in row.extra
    # The reported member is the first skyline entry with the best true
    # f1; its output size is the shape of its materialized table.
    best, _ = max(results[0].skyline, key=lambda e: house_ctx.tests[e[0]].raw["f1"])
    assert row.raw == house_ctx.tests[best].raw
    assert (row.n_rows, row.n_cols) == house_ctx.materialize(best).shape
    assert row.n_rows > 0 and row.n_cols >= 2


def test_empty_skyline_raises_named_error(movie_ctx_true):
    """Upper bounds p_u that no state meets leave the skyline empty;
    selecting from it names the method instead of failing inside."""
    ctx = dataclasses.replace(
        movie_ctx_true,
        measures=[dataclasses.replace(m, hi=1e-3) for m in movie_ctx_true.measures],
    )
    kw = {"N": 8, "eps": 0.2, "max_level": 2}
    res = apx_modis(ctx, **kw)
    assert res.skyline == []
    msg = "ApxMODis returned an empty skyline"
    with pytest.raises(ValueError, match=msg):
        res.best_by(0)
    with pytest.raises(ValueError, match=msg):
        run_modis(
            ctx, "ApxMODis", select_key=ctx.measures[0].raw_key,
            maximize=True, search_kw=kw,
        )


def test_perfbench_patch_targets_exist(monkeypatch):
    """The benchmark patches layer functions by name in the modules that
    look them up, and wraps the search entry points of
    ``experiments.common``; entering and leaving its patches must work."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    layers = importlib.import_module("layers")
    with layers.patched(layers.Tracer()):
        for name in ("apx_modis", "bi_modis", "div_modis"):
            assert callable(getattr(common, name))


def test_run_comparison_subset(spark):
    spec = dataclasses.replace(
        TASKS["T2_house"], scale=0.25, **SMALL,
        methods=("Original", "SkSFM", "BiMODis"),
    )
    rows = run_task(spark, spec)
    assert [r.method for r in rows] == ["Original", "SkSFM", "BiMODis"]
    for r in rows:
        assert "acc" in r.raw


def test_format_table_layout():
    rows = [
        MethodRow("A", {"f1": 0.5, "acc": 0.6}, 10, 3, 1.0),
        MethodRow("B", {"f1": 0.7}, 20, 4, 2.0),
    ]
    txt = format_table(rows, [("p_F1", "f1"), ("p_Acc", "acc")])
    lines = txt.splitlines()
    assert lines[0].split("\t") == ["measure", "A", "B"]
    assert "0.5000" in lines[1] and "0.7000" in lines[1]
    assert "/" in lines[2]  # missing measure rendered as '/'
    assert "(10, 3)" in lines[3]


def test_table5_structure(spark, tmp_path, monkeypatch):
    """main runs a table's specs and writes each row, with the spec,
    to results/<table>.json."""
    spec = dataclasses.replace(TASKS["T5_graph"], scale=0.5, **SMALL)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setitem(TABLES, "table5", (spec,))
    assert tables.main(spark, "table5") == 0
    out = json.loads((tmp_path / "results" / "table5.json").read_text())
    (entry,) = out["tasks"]
    assert entry["spec"]["N"] == 50 and entry["spec"]["lake"] == "graph_lake"
    assert [r["method"] for r in entry["rows"]] == [
        "Original",
        "ApxMODis",
        "NOBiMODis",
        "BiMODis",
        "DivMODis",
    ]
    for r in entry["rows"]:
        for _, key in spec.measures:
            assert key in r["raw"]
        assert r["n_rows"] > 0 and r["n_cols"] > 0


def test_modis_beats_original_follows_direction():
    """The exit status of a table compares the selection key in the
    task's direction: T3 minimizes MSE."""
    rows = [
        MethodRow("Original", {"mse": 1.0}, 10, 3, 0.0),
        MethodRow("BiMODis", {"mse": 2.0}, 10, 3, 0.0),
    ]
    assert not modis_beats_original(TASKS["T3_avocado"], rows)
    rows[1].raw["mse"] = 0.5
    assert modis_beats_original(TASKS["T3_avocado"], rows)


def test_t2_measure_catalogue_keys():
    keys = [k for _, k in TASKS["T2_house"].measures]
    assert keys == ["f1", "acc", "train_time", "fisher", "mi"]
