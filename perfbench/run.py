"""Layered engine benchmark: one closed-loop client per workload.

    python3 perfbench/run.py --workload tpch --seed 1 --seconds 13 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 13 --trace 0

Runs as the repository's whole benchmark, from the root of a checkout.
A run generates the workload's inputs from ``--seed`` and computes every
op's expected result (neither is timed), sets up, then repeats passes
over the workload until ``--seconds`` have been measured. Each pass
opens fresh sessions that live for the whole pass and submits each op
only after the previous one returned. Every result is checked against
the oracle outside the timed region.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes (at least three, starting untraced), reports
the per-layer split of the traced ones (see ``spans.py``) and writes a
Chrome trace-event file to ``perfbench/out/trace_<workload>.json``. The last line of standard
output is one JSON object; a per-run record with the environment goes
to ``perfbench/out/``. ``--workload all`` runs every workload, each in
its own process, and prints one table.
"""
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: set-up repetitions whose median is the session part of ``setup_s``
SETUP_REPEATS = 5
#: fewest op samples a run needs before ``query_s_p90`` is reported
P90_MIN_SAMPLES = 100
SPARK_DRIVER_MEMORY = "2g"
SPARK_MAX_CORES = 4

clock = time.perf_counter


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a valid result (not an op failure)."""


def prepare_environment() -> None:
    """Keep every file the run writes inside the checkout, and put the
    engine's sources on the path of this process and its children."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchmarkError(f"engine sources not found under {SRC}")
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    os.environ["TMPDIR"] = tmp
    tempfile.tempdir = tmp
    sys.path.insert(0, SRC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)


# -- peak resident set ----------------------------------------------------


def reset_peak_rss() -> bool:
    """Reset the kernel's high-water mark so the peak covers one pass only."""
    try:
        with open("/proc/self/clear_refs", "w") as f:
            f.write("5")
        return True
    except OSError:
        return False


def peak_rss_mib() -> float:
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- Spark ---------------------------------------------------------------


def spark_cores() -> int:
    return max(1, min(SPARK_MAX_CORES, len(os.sched_getaffinity(0))))


def start_spark():
    """A local Spark session whose Python workers can import ``repro``."""
    os.environ["PYSPARK_SUBMIT_ARGS"] = "pyspark-shell"
    local_dir = os.path.join(OUT, "spark-local")
    os.makedirs(local_dir, exist_ok=True)
    os.environ["SPARK_LOCAL_DIRS"] = local_dir
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.master(f"local[{spark_cores()}]")
        .appName("perfbench")
        .config("spark.driver.memory", SPARK_DRIVER_MEMORY)
        .config("spark.driver.host", "127.0.0.1")
        .config("spark.ui.enabled", "false")
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.local.dir", local_dir)
        .config("spark.sql.warehouse.dir", os.path.join(OUT, "spark-warehouse"))
        .config("spark.driver.extraJavaOptions",
                f"-Djava.io.tmpdir={tempfile.gettempdir()}")
        .config("spark.executorEnv.PYTHONPATH", os.environ["PYTHONPATH"])
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    try:  # also starts one Python worker per core, as a user's first job does
        k = spark_cores()
        spark.sparkContext.parallelize(range(k), k).map(
            lambda _: __import__("repro.core.executor").__name__).collect()
    except Exception as exc:
        stop_spark(spark)
        raise BenchmarkError(f"Spark workers cannot import repro: {exc}") from exc
    return spark


def _descendants(pid: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                ppid = int(f.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    out, stack = [], [pid]
    while stack:
        for c in children.get(stack.pop(), []):
            out.append(c)
            stack.append(c)
    return out


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as f:
            return f.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def stop_spark(spark) -> None:
    """Stop Spark and wait until the JVM and its Python workers have exited."""
    from pyspark import SparkContext

    proc = getattr(SparkContext._gateway, "proc", None)
    procs = _descendants(proc.pid) if proc is not None else []
    spark.stop()
    if proc is None:
        return
    proc.stdin.close()  # the gateway JVM exits when its stdin closes
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    deadline = clock() + 20
    while any(_alive(p) for p in procs) and clock() < deadline:
        time.sleep(0.05)
    for p in procs:
        if _alive(p):
            os.kill(p, 9)


def spark_jobs(spark) -> int:
    if spark is None:
        return 0
    return len(spark.sparkContext.statusTracker().getJobIdsForGroup())


# -- passes --------------------------------------------------------------


def session_state(sessions) -> dict:
    """Storage, executor and tiler state of a pass's sessions before close."""
    out = {"storage.spills": 0, "storage.peak_band_mib": 0.0,
           "storage.entries_end": 0, "storage.mib_end": 0.0,
           "executor.waves": 0, "tiling.yields": 0}
    for s in sessions:
        keys = s.storage.keys()
        out["storage.spills"] += s.storage.spill_count
        out["storage.peak_band_mib"] = max(
            [out["storage.peak_band_mib"]]
            + [u.peak / (1 << 20) for u in s.storage.bands.values()])
        out["storage.entries_end"] += len(keys)
        out["storage.mib_end"] += sum(s.storage.nbytes_of(k) for k in keys) / (1 << 20)
        out["executor.waves"] += s.executor.waves
        out["tiling.yields"] += s.stats.yields
    return out


def run_pass(wl, spark, tracer=None) -> dict:
    """One pass over the workload's ops; untimed work is subtracted."""
    untimed = 0.0
    jobs0 = spark_jobs(spark)
    rss_reset = reset_peak_rss()
    if tracer is not None:
        tracer.reset()
    ops = []
    t0 = clock()
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        p = wl.open(spark)
        for op in wl.ops:
            if tracer is not None:
                tracer.op = op.name
            start = clock()
            try:
                result, reason, detail = op.run(p), None, ""
            except Exception as exc:  # an op failure is a result, not a crash
                result, reason = None, f"{type(exc).__name__}: {exc}"[:300]
                detail = traceback.format_exc(limit=4)
            end = clock()
            if tracer is not None:
                tracer.op = None
            if reason is None:
                try:
                    reason = op.check(result)
                except Exception as exc:
                    reason = f"oracle check raised {type(exc).__name__}: {exc}"[:300]
            del result
            untimed += clock() - end
            ops.append({"op": op.name, "start": start - t0, "s": end - start,
                        "ok": reason is None, "reason": reason, "detail": detail})
        mark = clock()
        state = session_state(p.sessions)
        configs = [vars(s.cfg).copy() for s in p.sessions]
        untimed += clock() - mark
        p.close()
    wall = clock() - t0 - untimed
    rec = {"traced": tracer is not None, "wall_s": wall, "ops": ops,
           "rss_peak_mib": peak_rss_mib(), "rss_peak_reset": rss_reset,
           "state": state, "configs": configs,
           "spark_jobs": spark_jobs(spark) - jobs0}
    if tracer is not None:
        from spans import layer_metrics

        rec["layers"] = layer_metrics(tracer.spans, tracer.counts, wall)
        rec["origin"] = t0
    return rec


def measure_setup(wl, spark) -> float:
    """Median time to open a pass's sessions and ingest its inputs."""
    times = []
    for _ in range(SETUP_REPEATS):
        t = clock()
        p = wl.open(spark)
        times.append(clock() - t)
        p.close()
    return statistics.median(times)


# -- reporting -----------------------------------------------------------


def environment(wl, spark) -> dict:
    import duckdb
    import numpy
    import pandas
    import pyarrow

    env = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "pandas": pandas.__version__, "numpy": numpy.__version__,
        "pyarrow": pyarrow.__version__, "duckdb": duckdb.__version__,
        "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED"),
        "REPRO_THREADS": os.environ.get("REPRO_THREADS"),
        "workload": wl.describe(),
    }
    if spark is not None:
        import pyspark

        env.update(pyspark=pyspark.__version__,
                   spark_master=spark.sparkContext.master,
                   spark_driver_memory=SPARK_DRIVER_MEMORY)
    return env


def end_to_end(passes, setup_s: float) -> tuple[dict, dict]:
    """The end-to-end metrics (untraced passes) and their sample counts."""
    plain = [p for p in passes if not p["traced"]]
    lat = [o["s"] for p in plain for o in p["ops"]]
    attempted = sum(len(p["ops"]) for p in passes)
    failed = sum(not o["ok"] for p in passes for o in p["ops"])
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall_s"] for p in plain),
        "query_s_p50": statistics.median(lat),
        "ok_frac": (attempted - failed) / attempted,
        "rss_peak_mib": statistics.median(p["rss_peak_mib"] for p in plain),
    }
    info = {"passes": len(plain), "op_samples": len(lat),
            "attempted": attempted, "failed": failed,
            "failed_frac": failed / attempted,
            "query_s_p90": (statistics.quantiles(lat, n=10)[-1]
                            if len(lat) >= P90_MIN_SAMPLES else None)}
    return metrics, info


def per_layer(passes) -> dict:
    """Medians over traced passes of every per-layer metric."""
    traced = [p for p in passes if p["traced"]]
    rows = [dict(p["layers"], **p["state"], **{"spark.jobs": p["spark_jobs"]})
            for p in traced]
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    # the first pass also warms up (Spark JIT, allocator), so it is left out
    plain = statistics.median(p["wall_s"] for p in passes[1:] if not p["traced"])
    out["trace.overhead"] = statistics.median(p["wall_s"] for p in traced) / plain - 1
    return out


def sanity_checks(name: str, layers: dict) -> dict:
    """The single-workload checks the traced run must pass."""
    spark_total = sum(v for k, v in layers.items() if k.startswith("spark."))
    checks = {"spark_only_on_spark_tpch":
              spark_total > 0 if name == "spark_tpch" else spark_total == 0}
    if name == "tpch":
        tiling = layers["tiling.plan_s"] + layers["tiling.probe_s"]
        others = [layers["executor.final_s"], layers["frontend.fetch_s"]]
        checks["tiling_largest_share"] = tiling > max(others)
    if name == "tpch_static":
        checks["no_probes"] = layers["tiling.probes"] == 0
    return checks


def write_chrome_trace(name: str, rec: dict, env: dict, tracer) -> str:
    from spans import chrome_events

    events = chrome_events(tracer.spans, rec["origin"])
    for o in rec["ops"]:
        events.append({"name": o["op"], "cat": "op", "ph": "X", "pid": 1, "tid": 0,
                       "ts": o["start"] * 1e6, "dur": o["s"] * 1e6,
                       "args": {"ok": o["ok"]}})
    path = os.path.join(OUT, f"trace_{name}.json")
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                   "otherData": env}, f)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=13)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    prepare_environment()
    import repro.engines  # noqa: F401 - what a user of the engine imports
    import repro.frontend.dataframe  # noqa: F401
    import repro.frontend.tensor  # noqa: F401

    import_s = clock() - _T0
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {args.workload!r}; "
                             f"choose from {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)  # inputs + oracle: not timed

    spark = None
    try:
        spark_s = 0.0
        if wl.uses_spark:
            t = clock()
            spark = start_spark()
            spark_s = clock() - t
        setup_s = import_s + spark_s + measure_setup(wl, spark)
        env = environment(wl, spark)

        tracer = Tracer() if args.trace else None
        passes, chrome = [], None
        start = clock()
        while True:
            traced = tracer is not None and len(passes) % 2 == 1
            passes.append(run_pass(wl, spark, tracer if traced else None))
            if traced and chrome is None:
                chrome = write_chrome_trace(wl.name, passes[-1], env, tracer)
            if clock() - start >= args.seconds and len(passes) >= 1 + 2 * args.trace:
                break
    finally:
        if spark is not None:
            stop_spark(spark)

    spark_ops = [o for p in passes for o in p["ops"]] if spark is not None else []
    if spark_ops and all("No module named 'repro'" in (o["reason"] or "")
                         for o in spark_ops):
        raise BenchmarkError("every Spark op failed to import repro on the workers")

    e2e, info = end_to_end(passes, setup_s)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env,
              "setup": {"import_s": import_s, "spark_start_s": spark_s,
                        "setup_s": setup_s},
              "info": info,
              "end_to_end": e2e,
              "passes": [{k: v for k, v in p.items() if k != "origin"}
                         for p in passes]}
    print(f"workload {wl.name} seed {args.seed}: {info['passes']} untraced "
          f"passes, {info['attempted']} ops attempted, {info['failed']} failed")
    for p in passes:
        for o in p["ops"]:
            if not o["ok"]:
                print(f"  FAILED {o['op']}: {o['reason']}")
    units = load_units(traced=False)
    for k, v in e2e.items():
        print(f"  {k:<14} {v:12.4f} {units.get(k, '?')}")
    print(f"  {'failed_frac':<14} {info['failed_frac']:12.4f} frac "
          f"({info['failed']}/{info['attempted']})")
    p90 = info["query_s_p90"]
    print(f"  {'query_s_p90':<14} "
          + (f"{p90:12.4f} s" if p90 is not None else "         n/a")
          + f" ({info['op_samples']} op samples; needs {P90_MIN_SAMPLES})")

    if args.trace:
        layers = per_layer(passes)
        checks = sanity_checks(wl.name, layers)
        record.update(per_layer=layers, checks=checks, chrome_trace=chrome)
        layer_units = load_units(traced=True)
        for k, v in layers.items():
            print(f"  {k:<28} {v:14.4f} {layer_units.get(k, '?')}")
        for k, ok in checks.items():
            print(f"  check {k}: {'pass' if ok else 'FAIL'}")
        metrics = layers
    else:
        metrics = e2e

    path = os.path.join(
        OUT, f"result_{wl.name}_seed{args.seed}_trace{args.trace}_{time.time_ns()}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1, default=str)

    units = load_units(bool(args.trace))
    if set(metrics) != set(units):
        raise BenchmarkError(f"metrics {sorted(set(metrics) ^ set(units))} "
                             "disagree with BENCHMARK.json")
    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }), flush=True)
    return 0


def run_all(args) -> int:
    """Run every workload in its own process; print one metric table."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        names = [w["name"] for w in json.load(f)["workloads"]]
    results, code = {}, 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with {proc.returncode}")
            code = code or proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(f"{'metric':<28}" + "".join(f"{n:>14}" for n in results) + "  unit")
    for metric, unit in load_units(bool(args.trace)).items():
        print(f"{metric:<28}" + "".join(
            f"{r['metrics'][metric]['value']:14.4f}" for r in results.values())
            + f"  {unit}")
    print(json.dumps(results), flush=True)
    return code


def load_units(traced: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if traced else "end_to_end"]}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
