"""Baseline comparators: mechanism-level behaviour checks."""
import numpy as np
import pytest

from repro.baselines import h2o_fs, metam, metam_mo, sksfm, starmie
from repro.core.universal import collect_universal
from repro.measures import PerfVector


@pytest.fixture(scope="module")
def hsetup(house_small):
    lake, task, measures = house_small
    uni = collect_universal(lake)
    return lake, task, measures, uni


def test_metam_output_contains_base_schema(hsetup):
    lake, task, measures, _u = hsetup
    out = metam(lake, task, measures, utility_measure="p_F1")
    assert set(lake.base.columns) <= set(out.columns)
    assert len(out) == lake.base.count()


def test_metam_never_worse_than_base_on_utility(hsetup):
    lake, task, measures, _u = hsetup
    base_pv = PerfVector.from_raw(
        task.evaluate(lake.base.toPandas(), measures), measures
    )
    out = metam(lake, task, measures, utility_measure="p_F1")
    out_pv = PerfVector.from_raw(task.evaluate(out, measures), measures)
    assert out_pv.norm["p_F1"] <= base_pv.norm["p_F1"] + 1e-9


def test_metam_mo_runs_and_keeps_rows(hsetup):
    lake, task, measures, _u = hsetup
    out = metam_mo(lake, task, measures)
    assert len(out) == lake.base.count()


def test_starmie_joins_high_containment_sources(hsetup):
    lake, task, _m, _u = hsetup
    out = starmie(lake, task, threshold=0.5)
    # key containment between base and sources is high -> joins them all
    for name in lake.sources:
        assert any(c.startswith(name) for c in out.columns)


def test_starmie_high_threshold_joins_nothing(hsetup):
    lake, task, _m, _u = hsetup
    out = starmie(lake, task, threshold=1.01)
    assert set(out.columns) == set(lake.base.columns)


def test_sksfm_selects_column_subset(hsetup):
    _l, task, _m, uni = hsetup
    out = sksfm(uni, task)
    assert set(task.keep_cols()) <= set(out.columns)
    assert len(out.columns) < len(uni.columns)
    assert len(out) == len(uni)  # rows untouched — the paper's critique


def test_sksfm_prefers_informative_columns(hsetup):
    _l, task, _m, uni = hsetup
    out = sksfm(uni, task)
    feats = [c for c in out.columns if c not in task.keep_cols()]
    info = [c for c in feats if "info" in c or c == "grp"]
    assert len(info) >= len(feats) / 2


def test_h2o_selects_column_subset(hsetup):
    _l, task, _m, uni = hsetup
    out = h2o_fs(uni, task)
    assert set(task.keep_cols()) <= set(out.columns)
    assert len(out.columns) < len(uni.columns)
    assert len(out) == len(uni)

