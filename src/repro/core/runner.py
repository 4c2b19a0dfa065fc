"""Configuration C and the valuation machinery shared by all MODis
algorithms (paper §3 "Running", §5.1 UPareto).

``SearchContext`` is the configuration C = (s_U, O, M, T, E): it owns
the collected universal table (also encoded once by the task, so every
state is true-evaluated from its row mask and columns, without a
DataFrame), the unit layout, the task (model M), the measure set P, the
test cache T of true valuations, and the MO-GBM estimator E seeded from
a sample of states — so a search valuates most states with a single
estimator call, as the paper prescribes. ``true_eval_many`` trains M on
a batch of states in forked worker processes and writes the results
to T in batch order, exactly as one ``true_eval`` after another would.

``ParetoTable`` is procedure UPareto: the (1+ε)-log position grid with
per-cell replacement on the decisive measure (last measure of P by
default, §5.1), plus the p_u upper-bound early skip.

``frontier_search`` is the one transducer walk behind all four MODis
methods: start states with their OpGen direction, a frontier heap in
one of two expansion orders, optional Lemma-4 pruning, UPareto, and
calibration rounds that enrich T.
"""
from __future__ import annotations

import heapq
import itertools
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.core.dominance import Vec, kung_skyline, position
from repro.core.literals import Bits, UnitLayout
from repro.core.operators import reduct_children
from repro.core.universal import collect_universal
from repro.core.state import materialize_pandas
from repro.estimator.mogbm import MOGBMEstimator, state_features
from repro.lake.tasks import Lake
from repro.measures import Measure, PerfVector
from repro.tasks import TabularTask

# True trainings per calibration round, in every search.
CALIBRATE_K = 3
# Spawned states between two calibration rounds of a best-first search.
CALIBRATE_EVERY = 60
# Cap on the single-Reduct children of s_U in the estimator's seed sample.
MAX_SINGLE_FLIPS = 64

_worker_ctx: "SearchContext | None" = None  # set in each worker process only


def usable_cpus() -> int:
    """CPUs this process may run on: the most workers a batch gets."""
    return len(os.sched_getaffinity(0))


def _init_worker(ctx: "SearchContext") -> None:
    global _worker_ctx
    _worker_ctx = ctx


def _evaluate_in_worker(bits: Bits) -> dict[str, float]:
    return _worker_ctx.evaluate_state(bits)


@dataclass
class SearchContext:
    layout: UnitLayout
    universal_pdf: pd.DataFrame
    task: TabularTask
    measures: list[Measure]
    estimator: MOGBMEstimator | None = None
    tests: dict[Bits, PerfVector] = field(default_factory=dict)
    est_cache: dict[Bits, tuple] = field(default_factory=dict)
    base_attrs: list[str] = field(default_factory=list)
    encoded: object = field(init=False, repr=False)  # task.encode(D_U)
    # Worker pool of the current batch phase, and raw measures the
    # workers returned that true_eval has not written to T yet.
    _pool: object = field(init=False, repr=False, default=None)
    _pool_held: bool = field(init=False, repr=False, default=False)
    _prefetched: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.encoded = self.task.encode(self.universal_pdf)

    # -- construction ----------------------------------------------------
    @classmethod
    def build(
        cls,
        spark: SparkSession,
        lake: Lake,
        task: TabularTask,
        measures: list[Measure],
        *,
        max_k: int = 12,
        force_cluster: tuple[str, ...] = (),
        use_estimator: bool = True,
        n_seed: int = 24,
        seed: int = 0,
    ) -> "SearchContext":
        pdf = collect_universal(lake)
        layout = UnitLayout.from_universal(
            pdf,
            protected=task.protected_cols(),
            max_k=max_k,
            force_cluster=force_cluster,
            seed=seed,
        )
        ctx = cls(
            layout=layout,
            universal_pdf=pdf,
            task=task,
            measures=list(measures),
            base_attrs=[
                c for c in lake.base.columns if c not in task.protected_cols()
            ],
        )
        if use_estimator:
            ctx.seed_estimator(n_seed=n_seed, seed=seed)
        return ctx

    # -- materialization -------------------------------------------------
    def materialize(self, bits: Bits) -> pd.DataFrame:
        return materialize_pandas(
            self.universal_pdf, self.layout, bits, keep=self.task.keep_cols()
        )

    # -- valuation -------------------------------------------------------
    def evaluate_state(self, bits: Bits) -> dict[str, float]:
        """Raw measures of the actual model M trained on the state's
        dataset: the rows and columns of encoded D_U the bitmap retains."""
        return self.task.evaluate_encoded(
            self.encoded,
            self.layout.row_mask(bits),
            self.layout.active_columns(bits),
        )

    def true_eval(self, bits: Bits) -> PerfVector:
        """The state's true performance vector, from T or by training M
        (or from a worker's result that ``true_eval_many`` received)."""
        if bits in self.tests:
            return self.tests[bits]
        raw = self._prefetched.pop(bits, None)
        if raw is None:
            raw = self.evaluate_state(bits)
        pv = PerfVector.from_raw(raw, self.measures)
        self.tests[bits] = pv
        return pv

    def true_eval_many(self, bits_list: list[Bits]) -> list[PerfVector]:
        """``[true_eval(b) for b in bits_list]``, with the states missing
        from T trained in parallel worker processes first."""
        self._prefetch(bits_list)
        return [self.true_eval(b) for b in bits_list]

    def _prefetch(self, bits_list: list[Bits]) -> None:
        """Train M on the distinct states of ``bits_list`` that are not
        in T, one state per task, on ``min(usable CPUs, states)`` forked
        workers; ``true_eval`` takes each result from there. With one
        state or one CPU, nothing runs here and ``true_eval`` trains."""
        missing = [b for b in dict.fromkeys(bits_list) if b not in self.tests]
        workers = min(usable_cpus(), len(missing))
        if workers < 2:
            return
        with self.worker_pool():
            if self._pool is None:
                # Forked, not spawned: a fork shares encoded D_U, the layout
                # and the task without pickling them, and starts in
                # milliseconds. Workers only train M on numpy arrays; they
                # never call into Spark, whose Py4J threads a fork drops.
                self._pool = multiprocessing.get_context("fork").Pool(
                    workers, _init_worker, (self,)
                )
            raws = self._pool.map(_evaluate_in_worker, missing, chunksize=1)
        self._prefetched.update(zip(missing, raws))

    @contextmanager
    def worker_pool(self) -> Iterator[None]:
        """Keep the workers that the first batch inside the block forks
        for every later batch of the block (a phase of several batches,
        such as one search); stop them when the outermost block ends,
        on an exception too."""
        if self._pool_held:
            yield
            return
        self._pool_held = True
        try:
            yield
        finally:
            pool, self._pool, self._pool_held = self._pool, None, False
            self._prefetched.clear()
            if pool is not None:
                pool.terminate()
                pool.join()

    def valuate(self, bits: Bits) -> Vec:
        """Normalized performance vector via T, else E, else M (§3 (2))."""
        if bits in self.tests:
            return self.tests[bits].vector(self.measures)
        if self.estimator is not None and self.estimator.fitted:
            if bits not in self.est_cache:
                v = self.estimator.predict(state_features(self.layout, bits))
                self.est_cache[bits] = tuple(float(x) for x in np.atleast_1d(v))
            return self.est_cache[bits]
        return self.true_eval(bits).vector(self.measures)

    # -- estimator seeding & online refresh ------------------------------
    def seed_estimator(self, *, n_seed: int = 24, seed: int = 0) -> None:
        """Fit MO-GBM E on true valuations of a structured state sample.

        The sample contains (1) the universal state, (2) every single-
        Reduct child of it (capped) — so the surrogate observes each
        unit's marginal effect, (3) ``n_seed`` random deeper Reduct
        states spanning sparse datasets, and (4) a minimal base-schema
        state, covering the backward frontier's regime. This is the
        "historically observed performance of M (denoted as T)" the
        paper's estimator learns from (§2 Estimators).
        """
        rng = np.random.default_rng(seed)
        full = self.layout.full_bits()
        states: list[Bits] = [full]
        singles = [b for b, _ in reduct_children(self.layout, full)]
        if len(singles) > MAX_SINGLE_FLIPS:
            keep = rng.choice(len(singles), size=MAX_SINGLE_FLIPS, replace=False)
            singles = [singles[i] for i in sorted(keep)]
        states.extend(singles)
        depths = rng.integers(2, max(3, self.layout.n_units // 2), n_seed)
        for d in depths:
            bits = full
            for _ in range(int(d)):
                kids = [b for b, _ in reduct_children(self.layout, bits)]
                if not kids:
                    break
                bits = kids[rng.integers(0, len(kids))]
            states.append(bits)
        if self.base_attrs:
            states.append(self.layout.schema_bits(self.base_attrs))
        self.true_eval_many(list(dict.fromkeys(states)))
        self.refresh_estimator()

    def refresh_estimator(self) -> None:
        """(Re)fit E on the whole test cache T; invalidate predictions."""
        X = np.array([state_features(self.layout, b) for b in self.tests])
        Y = np.array([pv.vector(self.measures) for pv in self.tests.values()])
        est = MOGBMEstimator(self.measures)
        est.fit(X, Y)
        self.estimator = est
        self.est_cache.clear()

    def calibrate(self, entries: list[tuple[Bits, Vec]], k: int) -> int:
        """True-evaluate up to ``k`` promising entries not yet in T and
        refresh E — the paper's runtime enrichment of T (§3 Running)."""
        if not entries:
            return 0
        # Per-measure champions first, then the decisive ordering.
        cands: list[tuple[Bits, Vec]] = [
            min(entries, key=lambda e: e[1][j]) for j in range(len(self.measures))
        ] + sorted(entries, key=lambda e: e[1][-1])
        chosen = [
            b for b in dict.fromkeys(b for b, _ in cands) if b not in self.tests
        ]
        done = len(self.true_eval_many(chosen[:k]))
        # Only refresh when a surrogate is in play: an estimator-free
        # configuration (exact valuation) must stay exact.
        if done and self.estimator is not None:
            self.refresh_estimator()
        return done


class ParetoTable:
    """Procedure UPareto (Alg. 1 lines 20–30) over the ε-position grid."""

    def __init__(self, measures: list[Measure], eps: float):
        self.measures = measures
        self.eps = eps
        self.lowers = [m.lo for m in measures]
        self.cells: dict[tuple, tuple[Bits, Vec]] = {}

    def offer(self, bits: Bits, vec: Vec) -> bool:
        """Insert/replace per Eq. (1) cell; False if skipped or beaten."""
        for m, v in zip(self.measures, vec):
            if v > m.hi:  # early skip on the user upper bound p_u
                return False
        pos = position(vec, self.lowers, self.eps)
        held = self.cells.get(pos)
        if held is None or vec[-1] < held[1][-1]:  # decisive = last measure
            self.cells[pos] = (bits, vec)
            return True
        return False

    def entries(self) -> list[tuple[Bits, Vec]]:
        return list(self.cells.values())

    def result(self) -> list[tuple[Bits, Vec]]:
        """Cell winners, cleaned of exact dominance (skyline property 2)."""
        ent = self.entries()
        keep = kung_skyline([v for _, v in ent])
        return [ent[i] for i in keep]


@dataclass
class SearchResult:
    method: str
    skyline: list[tuple[Bits, Vec]]
    n_spawned: int
    wall_time: float

    def checked_skyline(self) -> list[tuple[Bits, Vec]]:
        """The skyline; ValueError when it is empty, which happens when
        every valuated state exceeds some measure's upper bound p_u."""
        if not self.skyline:
            raise ValueError(
                f"{self.method} returned an empty skyline: every valuated "
                "state exceeds the upper bound of some measure"
            )
        return self.skyline

    def best_by(self, measure_idx: int) -> tuple[Bits, Vec]:
        """The skyline entry minimizing one normalized measure — the
        paper's per-table selection rule ('the table in the Skyline set
        with the best estimated <first metric>')."""
        return min(self.checked_skyline(), key=lambda e: e[1][measure_idx])


OpGen = Callable[[UnitLayout, Bits], Iterator[tuple[Bits, str]]]


def frontier_search(
    ctx: SearchContext,
    method: str,
    starts: list[tuple[Bits, OpGen]],
    *,
    N: int,
    eps: float,
    max_level: int,
    levelwise: bool,
    pruner=None,
    level_hook: Callable[[ParetoTable, int], None] | None = None,
) -> SearchResult:
    """Walk the transducer from ``starts``, each start expanding with its
    own OpGen, until N states are seen or no state below ``max_level``
    is left. The frontier heap pops by (decisive, level) — best-first,
    with a calibration round every ``CALIBRATE_EVERY`` spawned states —
    or, if ``levelwise``, by (level, side, decisive) with a round before
    each deeper level. A round true-evaluates ``CALIBRATE_K`` entries,
    then calls ``level_hook(table, level)``; the search ends with one
    more. A ``CorrPruner`` drops a child unvaluated (Lemma 4); it counts
    towards N but not towards ``n_spawned``. Batches of true trainings
    (calibration rounds; with exact valuation and no pruner, the unseen
    children of each expanded state) share one worker pool, which the
    search stops before it returns.
    """
    t0 = time.perf_counter()
    table = ParetoTable(ctx.measures, eps)
    heap: list = []
    tie = itertools.count()
    seen: set[Bits] = set()
    spawned = 0
    # Exact valuation without pruning admits every unseen child of an
    # expanded state until N, so those children can be trained as one
    # batch. Pruning tests read the table as it fills, so a batch there
    # would train states the serial walk prunes.
    batched = pruner is None and not (
        ctx.estimator is not None and ctx.estimator.fitted
    )

    def admit(bits: Bits, level: int, side: int) -> None:
        nonlocal spawned
        seen.add(bits)
        spawned += 1
        vec = ctx.valuate(bits)
        table.offer(bits, vec)
        if pruner is not None:
            pruner.observe(bits, vec)
        key = (level, side, vec[-1]) if levelwise else (vec[-1], level)
        heapq.heappush(heap, (key, next(tie), level, side, bits))

    def first_unseen(children, cap: int) -> list[tuple[Bits, str]]:
        """The first ``cap`` distinct unseen children, drawing from the
        OpGen no further than the walk itself would."""
        picked: dict[Bits, str] = {}
        for child, op in children:
            if child not in seen:
                picked.setdefault(child, op)
                if len(picked) == cap:
                    break
        return list(picked.items())

    def calibration_round(level: int) -> None:
        ctx.calibrate(table.entries(), k=CALIBRATE_K)
        if level_hook is not None:
            level_hook(table, level)

    with ctx.worker_pool():
        for side, (bits, _gen) in enumerate(starts):
            admit(bits, 0, side)
        level = 0
        while heap and len(seen) < N:
            _key, _tie, s_level, side, s = heapq.heappop(heap)
            if s_level >= max_level:
                continue
            if levelwise and s_level > level:
                calibration_round(level)
            level = s_level
            children = starts[side][1](ctx.layout, s)
            if batched:
                children = first_unseen(children, N - len(seen))
                ctx._prefetch([c for c, _ in children])
            for child, _op in children:
                if child in seen:
                    continue
                if pruner is not None:
                    param = pruner.corr_fp(child)
                    if param is not None and pruner.can_prune(param, table, eps):
                        seen.add(child)
                        continue
                admit(child, level + 1, side)
                if not levelwise and spawned % CALIBRATE_EVERY == 0:
                    calibration_round(level)
                if len(seen) >= N:
                    break
        calibration_round(level)
    wall = time.perf_counter() - t0
    return SearchResult(method, table.result(), spawned, wall)
