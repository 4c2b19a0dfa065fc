"""Shared experiment plumbing.

The paper's protocol (§6 Evaluation metrics / Exp-1): every method
outputs a single table; for MODis methods the skyline member with the
best value of a task-specific selection measure is chosen; "we apply
model inference to all the output tables to report actual performance
values" — so all reported numbers are true-model evaluations, never
estimator predictions.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import pandas as pd

from repro.core.apx import apx_modis
from repro.core.bi import bi_modis
from repro.core.div import div_modis
from repro.core.runner import SearchContext, SearchResult
from repro.measures import Measure


@dataclass
class MethodRow:
    """One column of a paper table: a method's true measured values."""

    method: str
    raw: dict[str, float]
    n_rows: int
    n_cols: int  # total columns of the output table (incl. key/target)
    wall_time: float
    extra: dict = field(default_factory=dict)

    def output_size(self) -> str:
        return f"({self.n_rows}, {self.n_cols})"


MODIS_ALGOS = {
    "ApxMODis": lambda ctx, kw: apx_modis(ctx, **kw),
    "NOBiMODis": lambda ctx, kw: bi_modis(ctx, prune=False, **kw),
    "BiMODis": lambda ctx, kw: bi_modis(ctx, prune=True, **kw),
    "DivMODis": lambda ctx, kw: div_modis(ctx, **kw),
}


def run_modis(
    ctx: SearchContext,
    method: str,
    *,
    select_key: str,
    maximize: bool,
    search_kw: dict | None = None,
) -> MethodRow:
    """Run one MODis algorithm and report its selected skyline table.

    Every skyline entry is true-evaluated, in one batch; the entry with
    the best ``select_key`` raw measure is reported (paper's per-task
    selection rule), with the search wall time as the method's
    discovery cost, and in ``extra`` the true trainings the search and
    this verify added to T (``n_true``) and the bitmap's unit count
    (``n_units``). An empty skyline raises ``ValueError``.
    """
    n_tests = len(ctx.tests)
    res: SearchResult = MODIS_ALGOS[method](ctx, dict(search_kw or {}))
    skyline = res.checked_skyline()
    pvs = ctx.true_eval_many([bits for bits, _ in skyline])
    best_bits, best_pv = None, None
    for (bits, _vec), pv in zip(skyline, pvs):
        if best_pv is None:
            best_bits, best_pv = bits, pv
            continue
        a, b = pv.raw[select_key], best_pv.raw[select_key]
        if (a > b) if maximize else (a < b):
            best_bits, best_pv = bits, pv
    return MethodRow(
        method=method,
        raw=dict(best_pv.raw),
        n_rows=ctx.layout.approx_n_rows(best_bits),
        n_cols=len(ctx.task.keep_cols()) + len(ctx.layout.active_columns(best_bits)),
        wall_time=res.wall_time,
        extra={
            "skyline_size": len(res.skyline),
            "n_spawned": res.n_spawned,
            "n_true": len(ctx.tests) - n_tests,
            "n_units": ctx.layout.n_units,
        },
    )


def evaluate_output(
    name: str, pdf: pd.DataFrame, task, measures: list[Measure], wall: float
) -> MethodRow:
    """True-model evaluation of a baseline's single output table, on
    what the measure set P reads (the keys of a MODis row)."""
    raw = task.evaluate(pdf, measures)
    return MethodRow(
        method=name,
        raw=raw,
        n_rows=len(pdf),
        n_cols=len(pdf.columns),
        wall_time=wall,
    )


def format_table(
    rows: list[MethodRow], measure_keys: list[tuple[str, str]]
) -> str:
    """Render rows in the paper's layout: measures × methods."""
    header = ["measure"] + [r.method for r in rows]
    lines = ["\t".join(header)]
    for label, key in measure_keys:
        vals = [
            f"{r.raw.get(key, float('nan')):.4f}" if key in r.raw else "/"
            for r in rows
        ]
        lines.append("\t".join([label] + vals))
    lines.append(
        "\t".join(["Output Size"] + [r.output_size() for r in rows])
    )
    lines.append(
        "\t".join(
            ["Discovery s"] + [f"{r.wall_time:.2f}" for r in rows]
        )
    )
    lines.append(
        "\t".join(
            ["True trainings"]
            + [str(r.extra.get("n_true", "/")) for r in rows]
        )
    )
    return "\n".join(lines)
