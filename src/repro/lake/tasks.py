"""Synthetic task lakes T1–T4 (tabular) as Spark DataFrames.

Each ``*_lake`` factory returns ``(Lake, TabularTask, measures)`` sized
by a ``scale`` factor: scale=1.0 matches the paper's universal-table
orders of magnitude (Table 4/6 "Output Size" row); tests use
scale≈0.1–0.3. Each task's ``time_unit`` prices p_Train for its
default model: the median wall-clock fit seconds per (training row ×
feature column) of that model on its lake, at the scale its table runs,
measured on a 4-vCPU x86_64 VM.

Lake anatomy (see DESIGN.md "Dataset substitutions"):

- ``base``: key, target, a ``grp`` group attribute, and a couple of
  informative features. A fixed fraction of groups is *poisoned* —
  their labels are corrupted — so reducting those group clusters is the
  accuracy-winning move the reduce-from-universal search must find.
- ``sources``: joinable tables on ``key``; each carries informative or
  pure-noise columns and covers only 80–95% of keys, so the outer-join
  universal table has genuine nulls (exercising Augment's null-fill).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro import measures as ms
from repro.ml import (
    GradientBoostingClassifier,
    GradientBoostingRegressor,
    LightGBMClassifier,
    LinearRegression,
    RandomForestClassifier,
)
from repro.tasks import CLASSIFICATION, REGRESSION, TabularTask


@dataclass
class Lake:
    """A set of joinable source tables around a labeled base table.

    ``universal`` may carry a pre-joined universal view for lakes whose
    sources join on different keys than ``key`` (the T5 bipartite graph
    joins user features on ``u`` and item features on ``i``); when set,
    :func:`repro.core.universal.build_universal` returns it directly.
    """

    name: str
    key: str
    target: str
    base: DataFrame
    sources: dict[str, DataFrame] = field(default_factory=dict)
    universal: DataFrame | None = None

    def tables(self) -> dict[str, DataFrame]:
        return {"base": self.base, **self.sources}

    def characteristics(self) -> tuple[int, int, int]:
        """(#tables, total #columns, total #rows) — Table 2 shape."""
        n_tables = 1 + len(self.sources)
        n_cols = sum(len(t.columns) for t in self.tables().values())
        n_rows = sum(t.count() for t in self.tables().values())
        return n_tables, n_cols, n_rows


def _build_tabular_lake(
    spark: SparkSession,
    *,
    name: str,
    kind: str,
    n_rows: int,
    n_classes: int,
    n_informative_base: int,
    source_specs: list[tuple[str, int, int]],  # (source name, n_info, n_noise)
    n_groups: int,
    poisoned_groups: tuple[int, ...],
    poison_strength: float,
    seed: int,
) -> tuple[Lake, pd.DataFrame]:
    """Shared generator. Returns the Lake plus the pandas ground truth of
    the base table (handy for tests)."""
    rng = np.random.default_rng(seed)
    key = np.arange(1, n_rows + 1)
    grp = rng.integers(0, n_groups, n_rows)

    # Informative signal lives in base + "info" source columns. Weights
    # decay geometrically and are shuffled across the feature slots, so
    # a few dominant features are spread over base and source tables:
    # learnable by bounded-capacity models, and joins still matter.
    n_info_total = n_informative_base + sum(s[1] for s in source_specs)
    Z = rng.normal(size=(n_rows, n_info_total))
    mag = 0.7 ** np.arange(n_info_total)
    rng.shuffle(mag)
    w = mag * rng.choice([-1.0, 1.0], n_info_total)
    signal = Z @ w + 0.3 * np.sin(Z[:, 0] * 2.0)

    if kind == CLASSIFICATION:
        qs = np.quantile(signal, np.linspace(0, 1, n_classes + 1)[1:-1])
        y = np.digitize(signal, qs).astype(np.int64)
        flip = np.isin(grp, poisoned_groups) & (
            rng.random(n_rows) < poison_strength
        )
        y_noisy = y.copy()
        y_noisy[flip] = rng.integers(0, n_classes, int(flip.sum()))
        target_vals = y_noisy
    else:
        noise = np.isin(grp, poisoned_groups).astype(float)
        target_vals = (
            signal
            + 0.15 * signal.std() * rng.normal(size=n_rows)
            + poison_strength * signal.std() * noise * rng.normal(size=n_rows)
        )

    base_pdf = pd.DataFrame({"key": key, "target": target_vals, "grp": grp})
    for j in range(n_informative_base):
        base_pdf[f"b_info{j}"] = Z[:, j]

    sources: dict[str, DataFrame] = {}
    zi = n_informative_base
    for sname, n_info, n_noise in source_specs:
        cover = rng.random(n_rows) < rng.uniform(0.80, 0.95)
        spdf = pd.DataFrame({"key": key[cover]})
        for j in range(n_info):
            spdf[f"{sname}_info{j}"] = Z[cover, zi]
            zi += 1
        for j in range(n_noise):
            spdf[f"{sname}_noise{j}"] = rng.normal(size=int(cover.sum()))
        sources[sname] = spark.createDataFrame(spdf)

    lake = Lake(
        name=name,
        key="key",
        target="target",
        base=spark.createDataFrame(base_pdf),
        sources=sources,
    )
    return lake, base_pdf


# ----------------------------------------------------------------------
# T1: movie-gross regression with Gradient Boosting (paper D_U (3264, 10))
def movie_lake(spark: SparkSession, scale: float = 1.0, seed: int = 11):
    lake, base_pdf = _build_tabular_lake(
        spark,
        name="T1_movie",
        kind=REGRESSION,
        n_rows=max(200, int(3264 * scale)),
        n_classes=0,
        n_informative_base=2,
        source_specs=[("cast", 2, 0), ("studio", 1, 1), ("social", 0, 2)],
        n_groups=6,
        poisoned_groups=(0, 3),
        poison_strength=3.0,
        seed=seed,
    )
    task = TabularTask(
        name="T1_movie",
        kind=REGRESSION,
        target="target",
        key="key",
        model_factory=lambda: GradientBoostingRegressor(
            n_estimators=25, max_depth=3
        ),
        time_unit=3.5e-6,
        tol=0.25,
        tol_scale=float(base_pdf["target"].std()),
    )
    measures = [
        ms.p_acc(),
        ms.p_train(ref_seconds=2.0),
        ms.p_fsc(),
        ms.p_mi(),
    ]
    return lake, task, measures


# T2: house-price classification with Random Forest (paper D_U (1178, 27))
def house_lake(spark: SparkSession, scale: float = 1.0, seed: int = 22):
    lake, _ = _build_tabular_lake(
        spark,
        name="T2_house",
        kind=CLASSIFICATION,
        n_rows=max(200, int(1178 * scale)),
        n_classes=3,
        n_informative_base=3,
        source_specs=[
            ("geo", 3, 1),
            ("school", 2, 1),
            ("tax", 2, 0),
            ("web", 0, 2),
        ],
        n_groups=6,
        poisoned_groups=(1, 4),
        poison_strength=0.9,
        seed=seed,
    )
    task = TabularTask(
        name="T2_house",
        kind=CLASSIFICATION,
        target="target",
        key="key",
        model_factory=lambda: RandomForestClassifier(
            n_estimators=20, max_depth=8, seed=7
        ),
        time_unit=5.1e-5,
    )
    measures = [
        ms.p_f1(),
        ms.p_acc(),
        ms.p_train(ref_seconds=2.0),
        ms.p_fsc(),
        ms.p_mi(),
    ]
    return lake, task, measures


# T3: avocado-price regression with a linear model (paper D_U (9999, 11))
def avocado_lake(spark: SparkSession, scale: float = 1.0, seed: int = 33):
    lake, base_pdf = _build_tabular_lake(
        spark,
        name="T3_avocado",
        kind=REGRESSION,
        n_rows=max(300, int(9999 * scale)),
        n_classes=0,
        n_informative_base=2,
        source_specs=[("region", 2, 1), ("volume", 2, 0), ("promo", 0, 2)],
        n_groups=6,
        poisoned_groups=(2, 5),
        poison_strength=2.5,
        seed=seed,
    )
    task = TabularTask(
        name="T3_avocado",
        kind=REGRESSION,
        target="target",
        key="key",
        model_factory=lambda: LinearRegression(l2=1e-4),
        time_unit=1e-8,
        tol=0.25,
        tol_scale=float(base_pdf["target"].std()),
    )
    measures = [
        ms.p_mse(ref=25.0),
        ms.p_mae(ref=5.0),
        ms.p_train(ref_seconds=0.05),
    ]
    return lake, task, measures


# T4: mental-health classification with LightGBM-lite (paper D_U (140700, 20))
def mental_lake(spark: SparkSession, scale: float = 1.0, seed: int = 44):
    lake, _ = _build_tabular_lake(
        spark,
        name="T4_mental",
        kind=CLASSIFICATION,
        n_rows=max(400, int(8000 * scale)),
        n_classes=4,
        n_informative_base=3,
        source_specs=[
            ("survey", 3, 1),
            ("demo", 2, 1),
            ("habits", 2, 1),
            ("apps", 0, 3),
        ],
        n_groups=8,
        poisoned_groups=(0, 5),
        poison_strength=0.85,
        seed=seed,
    )
    task = TabularTask(
        name="T4_mental",
        kind=CLASSIFICATION,
        target="target",
        key="key",
        model_factory=lambda: LightGBMClassifier(n_estimators=50, max_depth=4),
        time_unit=1.2e-5,
    )
    measures = [
        ms.p_acc(),
        ms.p_prec(),
        ms.p_rec(),
        ms.p_f1(),
        ms.p_auc(),
        ms.p_train(ref_seconds=5.0),
    ]
    return lake, task, measures
