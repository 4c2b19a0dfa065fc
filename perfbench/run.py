"""MODis end-to-end benchmark: set-up, search and answer quality.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload t2_house_rf_bimodis --seed 1 \\
        --seconds 46 --trace 0

``--workload all`` runs every workload in turn. One Python process runs
one workload at a time in a closed loop: the next iteration (lake factory
-> ``SearchContext.build`` -> ``run_modis``) starts when the previous one
has finished, for as long as another iteration is expected to end within
``--seconds``, and at least ``MIN_ITERATIONS`` times. Every iteration is
checked, and the medians of the end-to-end metrics over the iterations are
reported. With ``--trace 1``, every other iteration runs with the layer
spans of ``layers.py`` installed and the per-layer metrics are reported
instead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"  # Spark, JVM and trace output
MIN_ITERATIONS = 3
WARMUP_COLLECTS = 3
SEARCH_SEED = 0  # SearchContext.build seed: layout and estimator sample


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return tuple(
        {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    )


def prepare_environment() -> None:
    """Import the program from this checkout; keep Spark's files inside it."""
    missing = [p for p in ("src/repro", "jobs/_session.py") if not (ROOT / p).exists()]
    if missing:
        sys.exit(f"perfbench: {ROOT} is not a repository checkout "
                 f"(missing {', '.join(missing)})")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    tmp = WORK / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(WORK / "spark-local")
    os.environ["JAVA_TOOL_OPTIONS"] = f"-Djava.io.tmpdir={tmp} -XX:-UsePerfData"
    os.environ["SPARK_MASTER"] = f"local[{len(os.sched_getaffinity(0))}]"


def reset_peak_rss() -> None:
    with open("/proc/self/clear_refs", "w") as f:
        f.write("5")


def peak_rss_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def host_reference_s() -> float:
    """A fixed numpy loop, timed beside each iteration to expose host drift."""
    import numpy as np

    X = np.random.default_rng(0).random((2000, 16))
    t0 = perf_counter()
    for _ in range(40):
        X = np.cumsum(X[np.argsort(X[:, 0])], axis=0) % 1.0
        np.bincount((X[:, 1] * 64).astype(np.int64), weights=X[:, 2], minlength=64)
    return perf_counter() - t0


def skyline_digest(skyline) -> str:
    text = repr(sorted((bits, tuple(vec)) for bits, vec in skyline))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Capture:
    """Keeps the ``SearchResult`` that ``run_modis`` discards.

    While ``tracer`` is set, each search call is also its "search" span.
    """

    def __init__(self):
        import repro.experiments.common as common

        self.result = None
        self.tracer = None
        for name in ("apx_modis", "bi_modis", "div_modis"):
            setattr(common, name, self._keep(getattr(common, name)))

    def _keep(self, fn):
        def search(*args, **kwargs):
            with self.tracer.span("search") if self.tracer else nullcontext():
                self.result = fn(*args, **kwargs)
            return self.result

        return search


def run_once(spark, wl, seed: int, capture: Capture, spark_checks: dict, tracer=None) -> dict:
    """One timed iteration, then its correctness checks (untimed)."""
    import pandas as pd
    from layers import layer_metrics
    from repro.core.runner import SearchContext
    from repro.experiments import common

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    reset_peak_rss()
    t0 = perf_counter()
    with span("lake.build"):
        lake, task, measures = wl.lake(spark, scale=wl.scale)
    t_lake = perf_counter()
    shuffle_rows(spark, lake, seed)
    t_shuffled = perf_counter()
    task.time_unit = wl.time_unit
    if wl.model:
        task.model_factory = wl.model
    if tracer:
        task.model_factory = tracer.wrap_model_factory(task.model_factory)
    ctx = SearchContext.build(spark, lake, task, measures, seed=SEARCH_SEED, **wl.build_kw)
    t1 = perf_counter()
    with span("run_modis"):
        row = common.run_modis(
            ctx, wl.method, select_key=wl.select_key, maximize=wl.maximize,
            search_kw=wl.search_kw,
        )
    t2 = perf_counter()
    rss = peak_rss_mb()
    untimed = t_shuffled - t_lake

    res = capture.result
    measure = next(m for m in measures if m.raw_key == wl.select_key)
    best_norm = measure.normalize(row.raw[wl.select_key])
    du_hash = int(pd.util.hash_pandas_object(ctx.universal_pdf).sum())
    errors, best_bits = check(ctx, res, row, wl)
    if best_bits is not None:
        # Iterations that agree on D_U and the reported table share this.
        if (du_hash, best_bits) not in spark_checks:
            spark_checks[du_hash, best_bits] = check_spark(spark, ctx, best_bits)
        errors += spark_checks[du_hash, best_bits]
    return {
        "setup_s": t1 - t0 - untimed,
        "search_s": row.wall_time,
        "total_s": t2 - t0 - untimed,
        "peak_rss_mb": rss,
        "best_norm": best_norm,
        "signature": (
            skyline_digest(res.skyline), res.n_spawned, len(ctx.tests), best_norm, du_hash
        ),
        "errors": errors,
        "layers": layer_metrics(tracer, ctx, res) if tracer else None,
    }


def shuffle_rows(spark, lake, seed: int) -> None:
    """Deal every lake table's rows into a seed-dependent physical order.

    D_U is collected sorted by key, so the search must not see this.
    """
    import numpy as np

    rng = np.random.default_rng(seed % 2**64)

    def shuffled(df):
        pdf = df.toPandas()
        return spark.createDataFrame(pdf.iloc[rng.permutation(len(pdf))])

    lake.base = shuffled(lake.base)
    lake.sources = {name: shuffled(df) for name, df in lake.sources.items()}


def check(ctx, res, row, wl):
    """Checks of the search result: (errors, the reported member's bitmap)."""
    from repro.core.dominance import dominates

    if not res.skyline:
        return ["empty skyline"], None
    errors = []
    vecs = [v for _, v in res.skyline]
    if any(dominates(u, v) for u in vecs for v in vecs):
        errors.append("skyline members dominate one another")
    # run_modis's selection rule, replayed on the true evaluations it made.
    best_bits, best = None, None
    for bits, _ in res.skyline:
        a = ctx.tests[bits].raw[wl.select_key]
        if best is None or ((a > best) if wl.maximize else (a < best)):
            best_bits, best = bits, a
    if ctx.tests[best_bits].raw != row.raw:
        errors.append("reported measures are not the selected member's")
    return errors, best_bits


def check_spark(spark, ctx, bits) -> list[str]:
    """The reported table via ``materialize_spark`` equals ``ctx.materialize``."""
    import pandas as pd
    from repro.core.state import annotate_clusters_spark, materialize_spark

    keep = ctx.task.keep_cols()
    annotated = annotate_clusters_spark(spark, ctx.universal_pdf, ctx.layout)
    got = materialize_spark(annotated, ctx.layout, bits, keep=keep).toPandas()
    want = ctx.materialize(bits)
    if list(got.columns) != list(want.columns):
        return ["Spark materialization has other columns"]
    key = ctx.task.key
    try:
        pd.testing.assert_frame_equal(
            got.sort_values(key).reset_index(drop=True),
            want.sort_values(key).reset_index(drop=True),
            check_dtype=False,
        )
    except AssertionError as e:
        return [f"Spark materialization has other rows: {e}"]
    return []


def run_workload(spark, wl, seed: int, seconds: float, traced: bool, capture: Capture,
                 e2e_names):
    """Closed loop over one workload; returns (summary, spans of traced runs)."""
    from layers import Tracer, patched
    from repro.core.universal import collect_universal

    # Warm-up: the first lake builds and D_U collects in a process pay for
    # Spark's lazy initialisation and JIT compilation, which a long-lived
    # session pays once.
    for _ in range(WARMUP_COLLECTS):
        lake, _task, _measures = wl.lake(spark, scale=wl.scale)
        collect_universal(lake)
    del lake

    runs, host, spans, spark_checks, laps = [], [], [], {}, []
    start = perf_counter()
    # Closed loop: start another iteration while one more is expected to
    # end within the measuring window.
    while len(runs) < MIN_ITERATIONS or (
        perf_counter() - start + statistics.median(laps) <= seconds
    ):
        lap = perf_counter()
        tracer = Tracer() if traced and len(runs) % 2 == 1 else None
        capture.tracer = tracer
        gc.collect()
        host.append(host_reference_s())
        try:
            with patched(tracer) if tracer else nullcontext():
                r = run_once(spark, wl, seed, capture, spark_checks, tracer)
        except Exception:
            traceback.print_exc()
            r = {"errors": ["raised"]}
        r["traced"] = tracer is not None
        if tracer:
            spans.append(tracer.spans)
        print(f"# {wl.name} iteration {len(runs)}{' traced' if tracer else ''}: "
              + ", ".join(f"{k}={r[k]:.4f}" for k in e2e_names if k in r)
              + f", host.ref_s={host[-1]:.4f}"
              + (f" FAILED: {r['errors']}" if r["errors"] else ""),
              file=sys.stderr, flush=True)
        runs.append(r)
        laps.append(perf_counter() - lap)
    return summarize(runs, host, e2e_names), spans


def summarize(runs: list[dict], host: list[float], e2e_names) -> dict:
    """Fail runs that disagree with the rest of their set; take medians."""
    sigs = Counter(r["signature"] for r in runs if "signature" in r)
    usual = sigs.most_common(1)[0][0] if sigs else None
    for r in runs:
        if "signature" in r and r["signature"] != usual:
            r["errors"].append(f"signature {r['signature']} differs from {usual}")
    ok = [r for r in runs if not r["errors"]]
    plain = [r for r in ok if not r["traced"]]
    traced = [r for r in ok if r["traced"]]
    e2e = {k: statistics.median(r[k] for r in plain) for k in e2e_names} if plain else {}
    layers = {}
    if traced:
        layers = {
            n: statistics.median(r["layers"][n] for r in traced)
            for n in traced[0]["layers"]
        }
        layers["host.ref_s"] = statistics.median(host)
        if plain:
            layers["trace.overhead_s"] = (
                statistics.median(r["total_s"] for r in traced) - e2e["total_s"]
            )
    return {
        "attempted": len(runs),
        "failed": len(runs) - len(ok),
        "e2e": e2e,
        "layers": layers,
        "signature": usual,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=46.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    prepare_environment()
    e2e_units, layer_units = metric_units()
    from workloads import WORKLOADS

    if args.workload == "all":
        chosen = list(WORKLOADS.values())
    elif args.workload in WORKLOADS:
        chosen = [WORKLOADS[args.workload]]
    else:
        ap.error(f"unknown workload {args.workload!r}; "
                 f"choose from {', '.join(WORKLOADS)} or all")

    t0 = perf_counter()
    from jobs._session import get_spark

    spark = get_spark()
    spark_start_s = perf_counter() - t0
    gateway = spark.sparkContext._gateway
    capture = Capture()
    try:
        results = {
            wl.name: run_workload(
                spark, wl, args.seed, args.seconds, bool(args.trace), capture, e2e_units
            )
            for wl in chosen
        }
    finally:
        spark.stop()
        gateway.shutdown()
        gateway.proc.stdin.close()  # the JVM exits when its stdin closes
        try:
            gateway.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            gateway.proc.kill()
            gateway.proc.wait()

    metrics, attempted, failed = {}, 0, 0
    for name, (summary, spans) in results.items():
        attempted += summary["attempted"]
        failed += summary["failed"]
        if args.trace:
            values = dict(summary["layers"], **{"spark.start_s": spark_start_s})
            with open(WORK / f"spans-{name}-seed{args.seed}.json", "w") as f:
                json.dump(spans, f)
        else:
            values = summary["e2e"]
        units = layer_units if args.trace else e2e_units
        print(f"{name}: {summary['attempted']} runs, {summary['failed']} failed, "
              f"signature {summary['signature']}")
        for k, v in values.items():
            print(f"  {k:28s} {v:>14.6g} {units[k]}")
        prefix = f"{name}." if len(results) > 1 else ""
        metrics.update(
            {prefix + k: {"value": v, "unit": units[k]} for k, v in values.items()}
        )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
