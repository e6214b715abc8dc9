"""Checks across traced runs of ``run.py``.

    python3 perfbench/run.py --workload <w> --seed 1 --seconds 13 --trace 1   # twice per workload
    python3 perfbench/checks.py

Reads the traced run records in ``perfbench/out/`` and reports

* the single-workload sanity checks each traced run made;
* the cross-workload check that ``storage.puts`` on ``tpch_static`` is
  at least 10x that on ``tpch``;
* counter repeatability: for every (workload, seed) traced at least
  twice, which count metrics read exactly the same in every run. Only
  those may back a count claim.

Exits with 1 when a check fails.
"""
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")


def load_runs() -> list[dict]:
    runs = []
    for path in sorted(glob.glob(os.path.join(OUT, "result_*_trace1_*.json"))):
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def count_metrics() -> list[str]:
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]


def main() -> int:
    runs = load_runs()
    if not runs:
        print(f"no traced runs in {OUT}")
        return 1
    ok = True
    by_workload: dict[str, list[dict]] = {}
    for r in runs:
        by_workload.setdefault(r["workload"], []).append(r)
        for name, passed in r["checks"].items():
            ok &= passed
            print(f"{r['workload']} seed {r['seed']}: {name}: "
                  f"{'pass' if passed else 'FAIL'}")

    if "tpch" in by_workload and "tpch_static" in by_workload:
        puts = {w: statistics.median(r["per_layer"]["storage.puts"]
                                     for r in by_workload[w])
                for w in ("tpch", "tpch_static")}
        passed = puts["tpch_static"] >= 10 * puts["tpch"]
        ok &= passed
        print(f"storage.puts tpch_static {puts['tpch_static']:.0f} >= 10 x tpch "
              f"{puts['tpch']:.0f}: {'pass' if passed else 'FAIL'}")

    counts = count_metrics()
    for w, rs in sorted(by_workload.items()):
        seeds: dict[int, list[dict]] = {}
        for r in rs:
            seeds.setdefault(r["seed"], []).append(r)
        for seed, group in sorted(seeds.items()):
            if len(group) < 2:
                continue
            same, differ = [], []
            for m in counts:
                values = [g["per_layer"][m] for g in group]
                (same if len(set(values)) == 1 else differ).append(
                    f"{m}={values[0]:g}" if len(set(values)) == 1
                    else f"{m}={'/'.join(f'{v:g}' for v in values)}")
            print(f"{w} seed {seed}, {len(group)} traced runs")
            print(f"  repeat exactly: {', '.join(same) or '-'}")
            print(f"  differ: {', '.join(differ) or '-'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
