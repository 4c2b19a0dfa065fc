"""Layer spans for the traced run, patched in from the benchmark's side.

Nothing under ``src/`` knows about tracing. :func:`patched` replaces the
public calls of each ``repro`` layer *where they are looked up* (a name
imported with ``from x import f`` is patched in the importing module) with
wrappers that open a span, and restores the originals on exit. A span is
``[name, start, end, parent]``, kept in memory; a span's self time is its
duration minus the durations of its child spans.
"""
from __future__ import annotations

import functools
import inspect
from collections import Counter
from contextlib import contextmanager, ExitStack
from time import perf_counter

import numpy as np

import repro.core.apx as apx
import repro.core.bi as bi
import repro.core.runner as runner
import repro.ml.metrics as mx
import repro.tasks as tasks
from repro.core.literals import UnitLayout
from repro.estimator.mogbm import MOGBMEstimator

# Spans that decide which phase a true evaluation belongs to, innermost
# first; "search" is opened by run.Capture, and "run_modis" outside it is
# the final selection.
PHASES = ("runner.seed", "runner.calibrate", "search", "run_modis")


class Tracer:
    """Spans and counters of one traced iteration."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), None, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self.spans[idx][2] = perf_counter()
            self._stack.pop()

    def phase(self) -> str | None:
        for idx in reversed(self._stack):
            if self.spans[idx][0] in PHASES:
                return self.spans[idx][0]
        return None

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def wrap_gen(self, name: str, fn):
        """Generators run in their consumer's loop: one span per ``next``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                with self.span(name):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                self.counts[name + ".items"] += 1
                yield item

        return traced

    def wrap_model_factory(self, factory):
        """Model M's fit/predict, patched on each instance the task builds."""

        def build():
            model = factory()
            model.fit = self.wrap("ml.fit", model.fit)
            model.predict = self.wrap("ml.predict", model.predict)
            if hasattr(model, "predict_proba"):
                model.predict_proba = self.wrap("ml.predict", model.predict_proba)
            return model

        return build

    # -- aggregation -----------------------------------------------------
    def self_times(self) -> Counter:
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for i, (name, start, end, _parent) in enumerate(self.spans):
            out[name] += end - start - child[i]
        return out

    def totals(self) -> Counter:
        out: Counter = Counter()
        for name, start, end, _parent in self.spans:
            out[name] += end - start
        return out

    def calls(self) -> Counter:
        return Counter(s[0] for s in self.spans)


def _metric_functions():
    return [
        n
        for n, f in vars(mx).items()
        if inspect.isfunction(f) and f.__module__ == mx.__name__ and not n.startswith("_")
    ]


@contextmanager
def patched(tr: Tracer):
    """Install the layer wrappers for the duration of the block."""
    orig_true_eval = runner.SearchContext.true_eval
    orig_valuate = runner.SearchContext.valuate
    orig_calibrate = runner.SearchContext.calibrate
    orig_offer = runner.ParetoTable.offer
    orig_can_prune = bi.CorrPruner.can_prune
    orig_est_fit = MOGBMEstimator.fit
    orig_collect = runner.collect_universal

    def true_eval(self, bits):
        miss = bits not in self.tests
        t0 = perf_counter()
        with tr.span("runner.true_eval"):
            out = orig_true_eval(self, bits)
        if miss:
            phase = tr.phase()
            tr.counts["true_evals." + str(phase)] += 1
            if phase == "run_modis":
                tr.counts["select.true_eval_s"] += perf_counter() - t0
        return out

    def valuate(self, bits):
        tr.counts["valuate.calls"] += 1
        est = self.estimator is not None and self.estimator.fitted
        if bits in self.tests or (est and bits in self.est_cache):
            tr.counts["valuate.hits"] += 1
        with tr.span("runner.valuate"):
            return orig_valuate(self, bits)

    def calibrate(self, entries, k=2):
        # The estimator's error on the states calibrate true-evaluates,
        # read from predictions it already made (before the refit).
        predicted = dict(self.est_cache)
        before = set(self.tests)
        with tr.span("runner.calibrate"):
            done = orig_calibrate(self, entries, k)
        for bits, pv in self.tests.items():
            if bits not in before and bits in predicted:
                err = np.subtract(predicted[bits], pv.vector(self.measures))
                tr.counts["estimator.sq_err"] += float((err**2).mean())
                tr.counts["estimator.mse_n"] += 1
        return done

    def offer(self, bits, vec):
        with tr.span("pareto.offer"):
            accepted = orig_offer(self, bits, vec)
        tr.counts["pareto.accepted"] += int(accepted)
        return accepted

    def can_prune(self, param, table, eps):
        with tr.span("bi.can_prune"):
            pruned = orig_can_prune(self, param, table, eps)
        tr.counts["bi.pruned"] += int(pruned)
        return pruned

    def est_fit(self, X, Y):
        tr.counts["estimator.fit_rows"] += len(X)
        with tr.span("estimator.fit"):
            return orig_est_fit(self, X, Y)

    def collect_universal(lake):
        with tr.span("universal.collect"):
            pdf = orig_collect(lake)
        tr.counts["universal.rows"], tr.counts["universal.cols"] = pdf.shape
        return pdf

    from_universal = UnitLayout.__dict__["from_universal"].__func__
    targets = [
        (runner.SearchContext, "true_eval", true_eval),
        (runner.SearchContext, "valuate", valuate),
        (runner.SearchContext, "calibrate", calibrate),
        (runner.SearchContext, "seed_estimator",
         tr.wrap("runner.seed", runner.SearchContext.seed_estimator)),
        (runner.ParetoTable, "offer", offer),
        (runner, "collect_universal", collect_universal),
        (runner, "materialize_pandas",
         tr.wrap("state.materialize", runner.materialize_pandas)),
        (runner, "kung_skyline", tr.wrap("dominance.skyline", runner.kung_skyline)),
        (UnitLayout, "from_universal",
         classmethod(tr.wrap("literals.layout", from_universal))),
        (tasks.TabularTask, "evaluate",
         tr.wrap("tasks.evaluate", tasks.TabularTask.evaluate)),
        (tasks, "_featurize", tr.wrap("tasks.featurize", tasks._featurize)),
        (MOGBMEstimator, "fit", est_fit),
        (MOGBMEstimator, "predict",
         tr.wrap("estimator.predict", MOGBMEstimator.predict)),
        (bi.CorrPruner, "corr_fp", tr.wrap("bi.corr_fp", bi.CorrPruner.corr_fp)),
        (bi.CorrPruner, "can_prune", can_prune),
    ]
    for mod in (apx, bi, runner):
        targets.append(
            (mod, "reduct_children", tr.wrap_gen("opgen", mod.reduct_children))
        )
    targets.append(
        (bi, "augment_children", tr.wrap_gen("opgen", bi.augment_children))
    )
    for name in _metric_functions():
        targets.append((mx, name, tr.wrap("ml.metrics", getattr(mx, name))))

    with ExitStack() as undo:
        for owner, attr, new in targets:
            old = owner.__dict__[attr]
            undo.callback(setattr, owner, attr, old)
            setattr(owner, attr, new)
        yield tr


def layer_metrics(tr: Tracer, ctx, res) -> dict[str, float]:
    """Per-layer metrics of one traced iteration (see README.md)."""
    own, total, calls, c = tr.self_times(), tr.totals(), tr.calls(), tr.counts
    prune_tests = calls["bi.can_prune"]
    return {
        "lake.build_s": own["lake.build"],
        "universal.collect_s": own["universal.collect"],
        "universal.rows": c["universal.rows"],
        "universal.cols": c["universal.cols"],
        "literals.layout_s": own["literals.layout"],
        "literals.units": ctx.layout.n_units,
        "runner.seed_s": total["runner.seed"],
        "runner.seed_evals": c["true_evals.runner.seed"],
        "runner.calibrate_s": total["runner.calibrate"],
        "runner.calibrate_evals": c["true_evals.runner.calibrate"],
        "runner.true_evals": len(ctx.tests),
        "runner.valuate_calls": c["valuate.calls"],
        "runner.valuate_hit_ratio": c["valuate.hits"] / max(1, c["valuate.calls"]),
        "tasks.evaluate_s": own["tasks.evaluate"],
        "tasks.evaluate_calls": calls["tasks.evaluate"],
        "tasks.featurize_s": own["tasks.featurize"],
        "ml.fit_s": own["ml.fit"],
        "ml.fit_calls": calls["ml.fit"],
        "ml.predict_s": own["ml.predict"],
        "ml.metrics_s": own["ml.metrics"],
        "estimator.fit_s": own["estimator.fit"],
        "estimator.fit_calls": calls["estimator.fit"],
        "estimator.fit_rows": c["estimator.fit_rows"],
        "estimator.predict_s": own["estimator.predict"],
        "estimator.predict_calls": calls["estimator.predict"],
        "estimator.mse": c["estimator.sq_err"] / max(1, c["estimator.mse_n"]),
        "estimator.mse_n": c["estimator.mse_n"],
        "state.materialize_s": own["state.materialize"],
        "state.materialize_calls": calls["state.materialize"],
        "opgen.s": own["opgen"],
        "opgen.children": c["opgen.items"],
        "bi.corr_fp_s": own["bi.corr_fp"],
        "bi.prune_tests": prune_tests,
        "bi.pruned": c["bi.pruned"],
        "bi.prune_ratio": c["bi.pruned"] / max(1, prune_tests),
        "pareto.offer_s": own["pareto.offer"],
        "pareto.offers": calls["pareto.offer"],
        "pareto.accept_ratio": c["pareto.accepted"] / max(1, calls["pareto.offer"]),
        "dominance.skyline_s": own["dominance.skyline"],
        "search.spawned": res.n_spawned,
        "search.skyline_size": len(res.skyline),
        "select.true_eval_s": c["select.true_eval_s"],
        "select.true_evals": c["true_evals.run_modis"],
    }

