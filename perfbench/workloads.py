"""The benchmark's workloads: one fixed MODis pipeline each.

A workload is a lake factory with its size, the ``SearchContext.build``
options, one MODis method with its search options, and the measure the
reported skyline member is selected by. ``time_unit`` replaces wall-clock
training time in the ``p_Train`` measure with ``time_unit * rows * cols``
(a field ``TabularTask`` already has): with wall time in the objective,
the skyline itself follows CPU contention and no two runs search the same
states. Each constant was chosen from the median wall-clock fit time per
(row, column) of that workload's model on a 4-core x86 host, so
``p_Train`` keeps the normalized range wall time gives it there.

Why each workload exists, and which layers it is meant to move, is in
``README.md`` next to this file.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.lake import tasks as lakes
from repro.ml import RandomForestClassifier


@dataclass(frozen=True)
class Workload:
    name: str
    # (spark, scale=) -> (Lake, TabularTask, measures); the factory's
    # default seed gives the repository's canonical lake.
    lake: Callable
    scale: float
    time_unit: float  # seconds per (training row x feature column)
    method: str  # key of repro.experiments.common.MODIS_ALGOS
    select_key: str  # raw measure the reported skyline member is chosen by
    maximize: bool
    # Replaces the lake's model factory. The house lake's own forest (20
    # trees of depth 8) makes one iteration take about 30 s, too long to
    # repeat within a run; a smaller forest keeps the workload
    # training-bound.
    model: Callable | None = None
    build_kw: dict = field(default_factory=dict)
    search_kw: dict = field(default_factory=dict)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="t2_house_rf_bimodis",
            lake=lakes.house_lake,
            scale=0.5,
            time_unit=6e-6,
            model=lambda: RandomForestClassifier(n_estimators=3, max_depth=5, seed=7),
            method="BiMODis",
            select_key="f1",
            maximize=True,
            build_kw=dict(max_k=12, n_seed=4),
            search_kw=dict(N=400, eps=0.1, max_level=8),
        ),
        Workload(
            name="t3_avocado_lin_exact",
            lake=lakes.avocado_lake,
            scale=1.0,
            time_unit=1.4e-8,
            method="ApxMODis",
            select_key="mse",
            maximize=False,
            build_kw=dict(max_k=12, use_estimator=False),
            search_kw=dict(N=80, eps=0.1, max_level=6),
        ),
    )
}
