"""The paper's evaluation tables (§6): one spec per task, one runner.

``TASKS`` holds the spec of each task T1–T5 and ``TABLES`` the tasks
each of Tables 2, 4, 5 and 6 reports. ``run_task`` runs one spec's
methods on its lake; ``main`` prints a table and writes it, with the
specs it ran, to ``results/<table>.json``. Table 2 reports the size of
each task's lake and runs no method.

Methods (paper §6 "Algorithms"): Original (the universal table D_U),
METAM, METAM-MO, Starmie, SkSFM, H2O and the four MODis algorithms.
Table 5 compares Original with the MODis algorithms only.
"""
from __future__ import annotations

import json
import platform
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

from pyspark.sql import SparkSession

from repro.baselines import h2o_fs, metam, metam_mo, sksfm, starmie
from repro.core.runner import SearchContext, usable_cpus
from repro.experiments.common import (
    MODIS_ALGOS,
    MethodRow,
    evaluate_output,
    format_table,
    run_modis,
)
from repro.lake.graph import graph_lake
from repro.lake.tasks import avocado_lake, house_lake, mental_lake, movie_lake

# Each baseline's single output table, from the spec, lake and context.
BASELINES: dict[str, Callable] = {
    "METAM": lambda spec, lake, ctx: metam(
        lake, ctx.task, ctx.measures, utility_measure=spec.metam_utility
    ),
    "METAM-MO": lambda spec, lake, ctx: metam_mo(lake, ctx.task, ctx.measures),
    "Starmie": lambda spec, lake, ctx: starmie(lake, ctx.task),
    "SkSFM": lambda spec, lake, ctx: sksfm(ctx.universal_pdf, ctx.task),
    "H2O": lambda spec, lake, ctx: h2o_fs(ctx.universal_pdf, ctx.task),
}
ALL_METHODS = ("Original", *BASELINES, *MODIS_ALGOS)


@dataclass(frozen=True)
class TaskSpec:
    """Everything one task's table runs: the lake, the selection rule
    for a MODis output, the printed measure rows and the search budget."""

    name: str
    lake: Callable  # (spark, scale) -> (lake, task, measures)
    scale: float
    select_key: str  # raw measure that picks a MODis method's output
    maximize: bool
    metam_utility: str | None  # the measure METAM optimizes
    measures: tuple[tuple[str, str], ...]  # printed rows: (label, raw key)
    N: int = 400
    eps: float = 0.1
    max_level: int = 6
    n_seed: int = 12
    methods: tuple[str, ...] = ALL_METHODS


# Scales as recorded in EXPERIMENTS.md: T4's and T3's models dominate
# wall time, so they run at half of their lakes.
TASKS = {
    spec.name: spec
    for spec in (
        TaskSpec(
            "T1_movie", movie_lake, 1.0, "acc", True, "p_Acc",
            (("p_Acc", "acc"), ("p_Train", "train_time"),
             ("p_Fsc", "fisher"), ("p_MI", "mi")),
        ),
        TaskSpec(
            "T2_house", house_lake, 1.0, "f1", True, "p_F1",
            (("p_F1", "f1"), ("p_Acc", "acc"), ("p_Train", "train_time"),
             ("p_Fsc", "fisher"), ("p_MI", "mi")),
        ),
        TaskSpec(
            "T3_avocado", avocado_lake, 0.5, "mse", False, "p_MSE",
            (("MSE", "mse"), ("MAE", "mae"), ("Training Time", "train_time")),
        ),
        TaskSpec(
            "T4_mental", mental_lake, 0.5, "acc", True, "p_Acc",
            (("p_Acc", "acc"), ("p_Pc", "precision"), ("p_Rc", "recall"),
             ("p_F1", "f1"), ("p_AUC", "auc"), ("p_Train", "train_time")),
        ),
        TaskSpec(
            "T5_graph", graph_lake, 1.0, "pc5", True, None,
            (("p_Pc5", "pc5"), ("p_Pc10", "pc10"), ("p_Rc5", "rc5"),
             ("p_Rc10", "rc10"), ("p_Nc5", "nc5"), ("p_Nc10", "nc10")),
            N=250, n_seed=10, methods=("Original", *MODIS_ALGOS),
        ),
    )
}

TABLES = {
    "table2": tuple(TASKS.values()),
    "table4": (TASKS["T2_house"], TASKS["T4_mental"]),
    "table5": (TASKS["T5_graph"],),
    "table6": (TASKS["T1_movie"], TASKS["T3_avocado"]),
}


def run_task(spark: SparkSession, spec: TaskSpec) -> list[MethodRow]:
    """One row per method of ``spec``, in its order, all on one context."""
    lake, task, measures = spec.lake(spark, scale=spec.scale)
    ctx = SearchContext.build(spark, lake, task, measures, n_seed=spec.n_seed)
    search_kw = {"N": spec.N, "eps": spec.eps, "max_level": spec.max_level}
    rows: list[MethodRow] = []
    for m in spec.methods:
        if m == "Original":
            full = ctx.layout.full_bits()
            rows.append(MethodRow(
                "Original",
                dict(ctx.true_eval(full).raw),
                ctx.layout.approx_n_rows(full),
                len(task.keep_cols()) + len(ctx.layout.active_columns(full)),
                0.0,
            ))
        elif m in MODIS_ALGOS:
            rows.append(run_modis(
                ctx, m, select_key=spec.select_key, maximize=spec.maximize,
                search_kw=search_kw,
            ))
        else:
            t0 = time.perf_counter()
            out = BASELINES[m](spec, lake, ctx)
            rows.append(evaluate_output(m, out, task, time.perf_counter() - t0))
    return rows


def modis_beats_original(spec: TaskSpec, rows: list[MethodRow]) -> bool:
    """Whether the best MODis output beats Original on the selection key."""
    sign = 1.0 if spec.maximize else -1.0
    by = {r.method: sign * r.raw[spec.select_key] for r in rows}
    return max(by[m] for m in MODIS_ALGOS if m in by) > by["Original"]


def main(spark: SparkSession, table: str) -> int:
    """Print ``table``, write it to ``results/<table>.json`` and return
    the exit status: 1 if on some task no MODis output beats Original
    on the selection key, else 0."""
    record = {
        "table": table,
        "host": {"platform": platform.platform(), "cpus": usable_cpus()},
        "tasks": [],
    }
    failed = []
    for spec in TABLES[table]:
        entry = {"spec": {**asdict(spec), "lake": spec.lake.__name__}}
        title = f"{table} {spec.name} ({spec.lake.__name__}, scale {spec.scale})"
        if table == "table2":
            entry["lake"] = spec.lake(spark, scale=spec.scale)[0].characteristics()
            print(f"{title}: (#tables, #columns, #rows) = {entry['lake']}")
        else:
            rows = run_task(spark, spec)
            entry["rows"] = [asdict(r) for r in rows]
            print(f"\n{title}\n{format_table(rows, list(spec.measures))}")
            if not modis_beats_original(spec, rows):
                failed.append(spec.name)
        record["tasks"].append(entry)
    path = Path("results") / f"{table}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path}")
    if failed:
        print(f"no MODis output beats Original on the selection key: {failed}")
        return 1
    return 0
