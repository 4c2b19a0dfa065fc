"""METAM / METAM-MO: goal-oriented data discovery [14].

METAM augments a base table with "consecutive joins of tables" chosen
greedily by a downstream-task utility score. Here the candidate set is
the lake's source tables; a join is accepted when it improves the
utility — a single chosen measure for METAM (the paper sets "the same
measure for each task as the utility"), a linear weighted sum of all
normalized measures for METAM-MO (the extension the paper implements).
Joins are executed in Spark and the joined result is evaluated with the
actual model, mirroring METAM's profile-then-validate loop.
"""
from __future__ import annotations

import pandas as pd

from repro.lake.tasks import Lake
from repro.measures import Measure, PerfVector
from repro.tasks import TabularTask


def _utility(
    pv: PerfVector, measures: list[Measure], weights: list[float]
) -> float:
    """Weighted sum of normalized (minimized) measures — lower better."""
    return sum(w * pv.norm[m.name] for m, w in zip(measures, weights))


def _greedy_join(
    lake: Lake,
    task: TabularTask,
    measures: list[Measure],
    weights: list[float],
) -> tuple[pd.DataFrame, list[str]]:
    current = lake.base
    current_pdf = current.toPandas()
    best_u = _utility(
        PerfVector.from_raw(task.evaluate(current_pdf, measures), measures),
        measures,
        weights,
    )
    chosen: list[str] = []
    remaining = dict(lake.sources)
    improved = True
    while improved and remaining:
        improved = False
        best_cand = None
        for name, src in remaining.items():
            cand = current.join(src, on=lake.key, how="left_outer")
            pv = PerfVector.from_raw(
                task.evaluate(cand.toPandas(), measures), measures
            )
            u = _utility(pv, measures, weights)
            if u < best_u - 1e-9:
                best_u, best_cand = u, (name, cand)
                improved = True
        if best_cand is not None:
            name, cand = best_cand
            chosen.append(name)
            current = cand
            remaining.pop(name)
    return current.toPandas(), chosen


def metam(
    lake: Lake,
    task: TabularTask,
    measures: list[Measure],
    *,
    utility_measure: str,
) -> pd.DataFrame:
    """METAM: greedy joins optimizing one measure (by Measure.name)."""
    weights = [1.0 if m.name == utility_measure else 0.0 for m in measures]
    out, _ = _greedy_join(lake, task, measures, weights)
    return out


def metam_mo(
    lake: Lake, task: TabularTask, measures: list[Measure]
) -> pd.DataFrame:
    """METAM-MO: greedy joins optimizing the equal-weight utility sum."""
    weights = [1.0 / len(measures)] * len(measures)
    out, _ = _greedy_join(lake, task, measures, weights)
    return out
