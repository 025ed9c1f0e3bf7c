"""FeatAug scenario benchmark: one workload per process, end to end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload tmall_lr_cold --seed 1 --seconds 20 --trace 0

One run starts its own SparkSession (``local[N]``, N = min(4, cores)),
generates the workload's inputs from ``--seed``, makes one untimed JVM
warm-up, then repeats samples for ``--seconds``. A sample builds a
``DatasetContext`` (timed as set-up) and runs ``run_feataug`` on it (timed
as the scenario, against a reference kernel run just before and after it);
the warm workload runs the scenario on one context whose SQL cache an
untimed run filled. Every sample's output is checked.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over samples); with ``--trace 1`` the layer boundaries are traced
and it reports the per-layer metrics (medians over samples). Per-run
records and spans are written under ``.bench_build/perfbench/``.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_build" / "perfbench"

#: untimed runs of the sample before timing starts
WARMUP_RUNS = 2
#: context builds the warm workload times before its scenarios
WARM_SETUPS = 3

END_TO_END = {"scenario_ref": "ref", "setup_s": "s", "test_loss": "1-AUC",
              "peak_rss_mb": "MB", "jvm_peak_rss_mb": "MB"}


def parse_args(argv):
    from workloads import WORKLOADS

    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def start_spark():
    """A local SparkSession whose scratch files stay under ``OUT``; returns
    it with the launcher process that owns its JVM."""
    tmp, local = OUT / "tmp", OUT / "spark-local"
    for d in (tmp, local):
        d.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["JAVA_TOOL_OPTIONS"] = f"-XX:-UsePerfData -Djava.io.tmpdir={tmp}"
    cores = min(4, len(os.sched_getaffinity(0)))
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join([
        f"--master local[{cores}] --driver-memory 1g",
        "--conf spark.driver.host=127.0.0.1",
        "--conf spark.ui.enabled=false",
        "--conf spark.ui.showConsoleProgress=false",
        f"--conf spark.local.dir={shlex.quote(str(local))}",
        "pyspark-shell",
    ])
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", "-1")
        .config("spark.sql.warehouse.dir", str(OUT / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark, spark.sparkContext._gateway.proc


def stop_spark(spark, proc) -> None:
    """Stop Spark and wait for its JVM: it exits when its stdin closes."""
    import subprocess

    gateway = spark.sparkContext._gateway
    spark.stop()
    gateway.close()
    if proc.stdin:
        proc.stdin.close()
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def run_workload(spark, wl, seed: int, seconds: float, trace: bool, jvm_pid: int):
    """Inputs, warm-up and the timed window; returns the tracer (``None``
    untraced) and the run record."""
    from checks import check_output, held_out_loss
    from layers import check_fired, install, sample_metrics
    from tracer import Tracer, wrapper_cost_s
    from workloads import BUDGET, RUN_SEED, make_inputs

    import hostinfo
    from repro.core.feataug import DatasetContext, run_feataug

    t0 = time.perf_counter()
    bundle, R = make_inputs(spark, wl, seed)
    t1 = time.perf_counter()

    # Untimed JVM warm-up: the sample itself, WARMUP_RUNS times. It loads
    # Spark's classes, fills the generated-code cache with the scenario's
    # query plans and lets the JIT compile hot paths; after one run the next
    # still got faster. On the warm workload the first run fills the SQL
    # cache of the context that the timed runs then reuse.
    warm_ctx = None
    for _ in range(WARMUP_RUNS):
        ctx = warm_ctx or DatasetContext(spark, bundle, BUDGET, seed=RUN_SEED)
        run_feataug(ctx, wl.model, seed=RUN_SEED)
        if wl.warm:
            warm_ctx = ctx
        else:
            ctx.close()
    hostinfo.reference_s()
    phases = {"inputs_s": t1 - t0, "warmup_s": time.perf_counter() - t1}

    tracer = Tracer() if trace else None
    cost = wrapper_cost_s() if tracer else 0.0
    span = tracer.span if tracer else (lambda name: nullcontext({}))
    samples: list[dict] = []
    first_sqls = None

    def sample(setup: bool, scenario: bool) -> None:
        """Time a context build, a scenario, or both on the built context."""
        nonlocal first_sqls
        run = len(samples)
        if tracer:
            tracer.run = run
        s: dict = {"run": run, "problems": []}
        host0 = (hostinfo.steal_s(), hostinfo.driver_cpu_s(), hostinfo.proc_cpu_s(jvm_pid))
        ctx = warm_ctx if wl.warm else None
        try:
            if setup:
                with span("setup"):
                    t = time.perf_counter()
                    new = DatasetContext(spark, bundle, BUDGET, seed=RUN_SEED)
                    s["setup_s"] = time.perf_counter() - t
                if wl.warm:
                    new.close()
                else:
                    ctx = new
            if scenario:
                q0, h0 = ctx.executor.n_queries, ctx.executor.n_cache_hits
                ref_before = 0.0 if tracer else hostinfo.reference_s()
                with span("scenario"):
                    t = time.perf_counter()
                    out = run_feataug(ctx, wl.model, seed=RUN_SEED)
                    s["scenario_s"] = time.perf_counter() - t
                if not tracer:
                    s["reference_s"] = (ref_before + hostinfo.reference_s()) / 2
                    s["scenario_ref"] = s["scenario_s"] / s["reference_s"]
                s["queries"] = ctx.executor.n_queries - q0
                s["hits"] = ctx.executor.n_cache_hits - h0
                s["test_loss"] = held_out_loss(out)
                s["n_features"] = len(out.features)
                s["problems"] = check_output(out, ctx.executor.view, R)
                sqls = [f.sql.replace(ctx.executor.view, "R") for f in out.features]
                if first_sqls is None:
                    first_sqls = sqls
                elif sqls != first_sqls:
                    s["problems"].append("features differ from the first sample's")
        except Exception:
            s["problems"].append(traceback.format_exc())
        finally:
            if ctx is not None and ctx is not warm_ctx:
                ctx.close()
        s["host"] = {
            "host.steal_s": hostinfo.steal_s() - host0[0],
            "driver.cpu_s": hostinfo.driver_cpu_s() - host0[1],
            "jvm.cpu_s": hostinfo.proc_cpu_s(jvm_pid) - host0[2],
        }
        if tracer and not s["problems"]:
            s["layers"] = sample_metrics(tracer, run, n_features=s.get("n_features", 0),
                                         queries=s.get("queries", 0), hits=s.get("hits", 0),
                                         wrapper_cost_s=cost)
            if scenario:
                s["layers"].update(s["host"])
        samples.append(s)

    steal0, load0 = hostinfo.steal_s(), hostinfo.loadavg()
    t_start = time.perf_counter()
    with tracer or nullcontext():
        if tracer:
            install(tracer)
        # A cold sample builds its own context. The warm workload times its
        # context builds first, so that the JVM work a build sets off in the
        # background does not land inside its short scenarios.
        if wl.warm:
            for _ in range(WARM_SETUPS):
                sample(setup=True, scenario=False)
        while True:
            t_iter = time.perf_counter()
            sample(setup=not wl.warm, scenario=True)
            now = time.perf_counter()
            if now - t_start + (now - t_iter) > seconds:
                break
    if wl.warm:
        warm_ctx.close()
    if tracer:
        check_fired(tracer)
    return tracer, {
        "samples": samples,
        "phases": phases,
        "window_s": time.perf_counter() - t_start,
        "steal_s": hostinfo.steal_s() - steal0,
        "loadavg_start": load0,
        "loadavg_end": hostinfo.loadavg(),
        "peak_rss_mb": hostinfo.driver_peak_rss_mb(),
        "jvm_peak_rss_mb": hostinfo.peak_rss_mb(jvm_pid),
    }


def summarise(record: dict, trace: bool) -> dict:
    """The result line: correctness, counts and the median metrics."""
    samples = record["samples"]
    ok = [s for s in samples if not s["problems"]]

    def med(values, default):
        values = list(values)
        return statistics.median(values) if values else default

    if trace:
        from layers import UNITS

        metrics = {name: {"value": med((s["layers"][name] for s in ok
                                        if name in s["layers"]), 0.0), "unit": unit}
                   for name, unit in UNITS.items()}
    else:
        values = {
            "scenario_ref": med((s["scenario_ref"] for s in ok if "scenario_ref" in s), 0.0),
            "setup_s": med((s["setup_s"] for s in ok if "setup_s" in s), 0.0),
            "test_loss": med((s["test_loss"] for s in ok if "test_loss" in s), 1.0),
            "peak_rss_mb": record["peak_rss_mb"],
            "jvm_peak_rss_mb": record["jvm_peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    return {"correct": len(ok) == len(samples), "attempted": len(samples),
            "failed": len(samples) - len(ok), "metrics": metrics}


def main(argv=None) -> int:
    # numpy's BLAS threads spin while idle and take cores from Spark's JVM;
    # the driver-side matrices are tiny, so one thread is also the faster
    # setting. Must be set before numpy is first imported.
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    args = parse_args(argv)
    from workloads import WORKLOADS

    import hostinfo

    wl = WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)
    t0 = time.perf_counter()
    spark, proc = start_spark()
    start_s = time.perf_counter() - t0
    try:
        jvm_pid = hostinfo.java_descendant(proc.pid)
        noise = hostinfo.noise_record(spark)
        tracer, record = run_workload(spark, wl, args.seed, args.seconds,
                                      bool(args.trace), jvm_pid)
    finally:
        stop_spark(spark, proc)

    stem = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    record["phases"]["spark_start_s"] = start_s
    record.update(noise, workload=wl.name, seed=args.seed, seconds=args.seconds)
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)
    if tracer:
        tracer.write_json(f"{stem}.spans.json")
    result = summarise(record, bool(args.trace))
    for s in record["samples"]:
        for p in s["problems"]:
            print(f"perfbench: sample {s['run']} failed: {p}", file=sys.stderr)
    timed = [s for s in record["samples"] if "reference_s" in s]
    wall = (f" scenario_s={statistics.median(s['scenario_s'] for s in timed):.3f}"
            f" reference_s={statistics.median(s['reference_s'] for s in timed):.4f}"
            if timed else "")
    print(f"perfbench: {wl.name} seed={args.seed} samples={len(record['samples'])} "
          f"window_s={record['window_s']:.1f} steal_s={record['steal_s']:.2f}{wall} "
          f"loadavg={record['loadavg_end']} nproc={noise['nproc']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
