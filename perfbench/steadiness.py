"""Run the benchmark repeatedly and record how steady each metric is.

From the root of a checkout::

    python3 perfbench/steadiness.py --output perfbench/STEADINESS.json

Each of two sets runs every workload of ``BENCHMARK.json`` ten times for
its ``run_seconds``, one seed per run (seeds ``1..10`` in the first set,
``101..110`` in the second), one run at a time, taking the workloads in
turn so that a slow spell of the host falls on all of them alike.  For
each set, workload and end-to-end metric the record holds every value,
the median, the quartiles as ``statistics.quantiles(n=4)`` gives them, the
spread (interquartile distance over the median) and the change of the
median against the first set, next to the metric's bound, plus each run's
steal time and host speed (``harness.host_speed`` before and after).  A
final traced run of each workload adds its per-layer metrics and the share
of a cold pass each layer's own code takes.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List

HERE = pathlib.Path(__file__).resolve().parent
RUNS = 10
SETS = 2


def one_run(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, Any]:
    started = time.perf_counter()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    lines = completed.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    record_path = next(line.split(": ", 1)[1] for line in lines if line.startswith("record: "))
    record = json.loads((pathlib.Path.cwd() / record_path).read_text())
    result["run_s"] = time.perf_counter() - started
    result["seed"] = seed
    result["steal_s"] = record["steal_s"]
    result["host_speed"] = record["host_speed"]
    result["layer_share"] = record["details"].get("cold_layer_share")
    return result


def summarise(values: List[float]) -> Dict[str, float]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--output", type=pathlib.Path, default=None)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    sys.path[:0] = [str(HERE), str(HERE.parent / "src")]
    import harness

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    sets: List[Dict[str, Any]] = []
    for index in range(SETS):
        runs: Dict[str, List[Dict[str, Any]]] = {workload: [] for workload in workloads}
        for seed in range(1, RUNS + 1):
            for workload in workloads:
                result = one_run(workload, 100 * index + seed, seconds, 0)
                runs[workload].append(result)
                print(f"set {index + 1} {workload} seed {result['seed']}: {result['run_s']:.1f} s, "
                      f"failed {result['failed']}, steal {result['steal_s']:.2f} s, "
                      f"host speed {max(result['host_speed']):.2f}", flush=True)
        sets.append(runs)

    record: Dict[str, Any] = {
        "runs_per_set": RUNS,
        "seconds": seconds,
        "environment": harness.environment(HERE.parent),
        "workloads": {},
    }
    worst = 0.0
    for workload in workloads:
        per_metric: Dict[str, Any] = {}
        for name, bound in bounds.items():
            rows = []
            for runs in sets:
                values = [run["metrics"][name]["value"] for run in runs[workload]]
                rows.append({**summarise(values), "values": values})
            first = rows[0]["median"]
            for row in rows:
                row["median_change"] = (row["median"] - first) / first if first else 0.0
            per_metric[name] = {"bound": bound, "sets": rows}
            for row in rows:
                ratio_spread = row["spread"] / bound if name != "setup_s" else 0.0
                worst = max(worst, ratio_spread, abs(row["median_change"]) / bound)
                print(
                    f"{workload:13s} {name:14s} median {row['median']:10.5g} spread "
                    f"{row['spread']:7.2%} change {row['median_change']:+7.2%} bound {bound:.0%}"
                )
        traced = one_run(workload, 1, seconds, 1)
        print(f"traced {workload}: {traced['run_s']:.1f} s, failed {traced['failed']}", flush=True)
        record["workloads"][workload] = {
            "metrics": per_metric,
            "failed": [sum(run["failed"] for run in runs[workload]) for runs in sets],
            "steal_s": [[run["steal_s"] for run in runs[workload]] for runs in sets],
            "host_speed": [[run["host_speed"] for run in runs[workload]] for runs in sets],
            "run_s": [summarise([run["run_s"] for run in runs[workload]]) for runs in sets],
            "traced": {
                "seed": traced["seed"],
                "run_s": traced["run_s"],
                "failed": traced["failed"],
                "per_layer": {name: m["value"] for name, m in traced["metrics"].items()},
                "cold_layer_share": traced["layer_share"],
            },
        }
    record["worst_share_of_bound"] = worst
    print(f"worst spread or median change as a share of its bound: {worst:.2f}")
    if args.output:
        args.output.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
