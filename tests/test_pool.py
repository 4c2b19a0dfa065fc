"""Batched true valuation on forked workers (``SearchContext.true_eval_many``).

The pooled path must write the same T as one ``true_eval`` after
another: the same states in the same insertion order with equal raw
measures, hence the same skylines and spawn counts. Its batches are the
estimator's seed sample, calibration rounds and a skyline verify; a
search admits one child at a time, so an exact search trains in this
process and forks no worker. Every comparison
here uses ``==`` on raw dicts and vectors. The serial path is forced by
reporting one usable CPU; ``tests/conftest.py`` fails any test that
leaves a worker process running.
"""
import dataclasses
import multiprocessing
import multiprocessing.pool
import os

import pytest

import repro.core.runner as runner
from repro.core.apx import apx_modis
from repro.core.operators import reduct_children
from repro.core.runner import SearchContext
from repro.experiments.common import MODIS_ALGOS


class FactoryError(RuntimeError):
    pass


def failing_factory():
    raise FactoryError("model factory failed")


@pytest.fixture
def pools(monkeypatch):
    """Worker counts of the pools created during the test."""
    sizes = []
    init = multiprocessing.pool.Pool.__init__

    def counted(self, processes=None, *args, **kwargs):
        sizes.append(processes)
        init(self, processes, *args, **kwargs)

    monkeypatch.setattr(multiprocessing.pool.Pool, "__init__", counted)
    return sizes


def set_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(runner, "usable_cpus", lambda: n)


def fresh(ctx: SearchContext, **task_kw) -> SearchContext:
    """An estimator-free copy with an empty T."""
    task = dataclasses.replace(ctx.task, **task_kw)
    return dataclasses.replace(ctx, task=task, tests={}, est_cache={}, estimator=None)


def t_entries(ctx: SearchContext) -> list:
    return [(bits, pv.raw) for bits, pv in ctx.tests.items()]


def reduct_batch(ctx: SearchContext) -> list:
    """s_U and its single-Reduct children."""
    full = ctx.layout.full_bits()
    return [full] + [bits for bits, _ in reduct_children(ctx.layout, full)]


def serial_and_pooled(monkeypatch, run, pools):
    """``run()`` with one usable CPU, then with four; the serial run must
    fork no worker."""
    with monkeypatch.context() as m:
        set_cpus(m, 1)
        serial = run()
    assert pools == []
    set_cpus(monkeypatch, 4)
    return serial, run()


@pytest.mark.parametrize("method", list(MODIS_ALGOS))
def test_pooled_search_matches_serial(movie_ctx_true, monkeypatch, pools, method):
    """Each method's exact search and skyline verify: T keys in order,
    raw dicts, skyline and ``n_spawned`` equal with one and with four
    usable CPUs. An exact search trains each child as the walk admits
    it, and an exact skyline is already in T: neither forks a worker."""

    def run():
        ctx = fresh(movie_ctx_true)
        res = MODIS_ALGOS[method](ctx, dict(N=40, eps=0.2, max_level=3))
        ctx.true_eval_many([bits for bits, _ in res.skyline])
        return t_entries(ctx), res.skyline, res.n_spawned

    serial, pooled = serial_and_pooled(monkeypatch, run, pools)
    assert pooled == serial
    assert len(serial[0]) >= 20
    assert pools == []


def test_pooled_search_matches_serial_without_statistics(
    movie_ctx_true, monkeypatch, pools
):
    """With a measure set that has no p_Fsc or p_MI, workers and the
    serial path score the same batch the same way: equal T, and no
    ``fisher`` or ``mi`` key in it."""
    measures = [m for m in movie_ctx_true.measures if m.raw_key not in ("fisher", "mi")]

    def run():
        ctx = dataclasses.replace(fresh(movie_ctx_true), measures=measures)
        ctx.true_eval_many(reduct_batch(ctx))
        return t_entries(ctx)

    serial, pooled = serial_and_pooled(monkeypatch, run, pools)
    assert pooled == serial
    assert pools == [4]
    assert not any({"fisher", "mi"} & raw.keys() for _, raw in serial)


def test_pooled_seeding_and_calibration_match_serial(
    spark, house_small, monkeypatch, pools
):
    """The estimator path on the golden house context: the seed sample,
    then ApxMODis's calibration rounds, give the same T, estimator and
    skyline on both paths."""
    lake, task, measures = house_small
    task = dataclasses.replace(task, time_unit=6e-6)

    def run():
        ctx = SearchContext.build(
            spark, lake, task, measures, max_k=8, n_seed=6, seed=0
        )
        seeded = t_entries(ctx)
        res = apx_modis(ctx, N=80, eps=0.2, max_level=4)
        return seeded, t_entries(ctx), res.skyline, res.n_spawned

    serial, pooled = serial_and_pooled(monkeypatch, run, pools)
    assert pooled == serial
    assert len(serial[1]) > len(serial[0])  # calibration trained states
    assert len(pools) == 2  # seeding, then the search's calibration rounds


def test_pooled_seeding_writes_through_true_eval(
    spark, house_small, monkeypatch, pools
):
    """Every state the pool trains still passes through
    ``SearchContext.true_eval`` once, as a miss, so counters wrapped
    around it keep counting true trainings."""
    calls = []
    true_eval = SearchContext.true_eval

    def counted(self, bits):
        calls.append(bits in self.tests)
        return true_eval(self, bits)

    monkeypatch.setattr(SearchContext, "true_eval", counted)
    set_cpus(monkeypatch, 4)
    lake, task, measures = house_small
    ctx = SearchContext.build(spark, lake, task, measures, max_k=8, n_seed=6, seed=0)
    assert pools
    assert calls == [False] * len(ctx.tests)


def test_one_cpu_affinity_creates_no_pool(movie_ctx_true, monkeypatch, pools):
    """Pinned to one CPU, a batch runs in this process and gives the
    same T as the pooled path."""

    def run():
        ctx = fresh(movie_ctx_true)
        ctx.true_eval_many(reduct_batch(ctx))
        return t_entries(ctx)

    cpus = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(cpus)})
    try:
        assert runner.usable_cpus() == 1
        pinned = run()
    finally:
        os.sched_setaffinity(0, cpus)
    assert pools == []
    set_cpus(monkeypatch, 4)
    assert run() == pinned
    assert pools == [4]


@pytest.mark.parametrize("cpus", [1, 4])
def test_factory_error_in_batch_propagates(movie_ctx_true, monkeypatch, pools, cpus):
    """A model that cannot be built raises the same exception type from
    a pooled batch as from the serial path, and T stays empty."""
    set_cpus(monkeypatch, cpus)
    ctx = fresh(movie_ctx_true, model_factory=failing_factory)
    with pytest.raises(FactoryError):
        ctx.true_eval_many(reduct_batch(ctx)[:6])
    assert ctx.tests == {}
    assert len(pools) == (cpus > 1)
    assert multiprocessing.active_children() == []


def test_factory_error_in_search_stops_workers(
    spark, house_small, monkeypatch, pools
):
    """An exception in a worker during a calibration round of an
    estimator search propagates out of the search, the search's worker
    pool is stopped, and T keeps only the seed sample."""
    lake, task, measures = house_small
    set_cpus(monkeypatch, 1)  # seed here, so ``pools`` sees only the search's pool
    seeded = SearchContext.build(spark, lake, task, measures, max_k=8, n_seed=6, seed=0)
    parent, build = os.getpid(), task.model_factory

    def factory():
        if os.getpid() != parent:
            raise FactoryError("model factory failed in a worker")
        return build()

    ctx = dataclasses.replace(
        seeded, task=dataclasses.replace(task, model_factory=factory)
    )
    n_seeded = len(ctx.tests)
    set_cpus(monkeypatch, 4)
    with pytest.raises(FactoryError, match="in a worker"):
        apx_modis(ctx, N=80, eps=0.2, max_level=4)
    assert len(ctx.tests) == n_seeded
    assert pools
    assert multiprocessing.active_children() == []
    assert ctx._pool is None and ctx._worker_raws == {}
