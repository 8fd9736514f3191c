"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_sweeps --seed 1 --seconds 25 --trace 0

Workloads: ``paper_sweeps`` and ``dnn_tables`` run the paper pipeline in
process; ``served_mix`` drives ``serve`` + ``gateway`` subprocesses with a
closed-loop client.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` wraps the layers' public functions with timing spans and
reports the per-layer metrics instead.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (samples, environment, failures) is written
under ``.perfbench/results/``; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import signal
import sys
import time

#: End-to-end metrics every workload reports with ``--trace 0``.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "warm_wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "latency_p50_s": "s",
    "latency_p95_s": "s",
    "ok_ratio": "1",
}

#: Per-layer metrics every workload reports with ``--trace 1``; a layer a
#: workload does not exercise reads 0 there.
PER_LAYER = {
    "circuits.discharge_s": "s",
    "circuits.discharge_calls": "count",
    "analysis.fig5_s": "s",
    "core.characterize_s": "s",
    "core.characterize_self_s": "s",
    "core.fit_s": "s",
    "core.dse_s": "s",
    "core.pvt_s": "s",
    "core.calibrate_s": "s",
    "core.model_rms_mv": "mV",
    "core.fom_energy_pj": "pJ",
    "multiplier.lut_build_s": "s",
    "dnn.train_s": "s",
    "dnn.train_calls": "count",
    "dnn.train_self_s": "s",
    "dnn.col2im_s": "s",
    "dnn.quantize_s": "s",
    "dnn.eval_s": "s",
    "dnn.eval_self_s": "s",
    "dnn.lut_matmul_s": "s",
    "dnn.lut_matmul_calls": "count",
    "dnn.fom_top1_pct": "%",
    "runtime.jobs_executed": "count",
    "runtime.cache_hits": "count",
    "runtime.cache_hit_ratio": "1",
    "runtime.cache_bytes": "bytes",
    "served.miss.p50_s": "s",
    "served.hit.p50_s": "s",
    "served.eventsim.p50_s": "s",
    "served.dse.p50_s": "s",
    "served.dnn.p50_s": "s",
    "served.burst.p50_s": "s",
    "served.requests": "count",
    "service.compute_p50_s": "s",
    "service.overhead_p50_s": "s",
    "gateway.overhead_p50_s": "s",
    "service.dedup_ratio": "1",
    "service.cpu_s": "s",
    "gateway.cpu_s": "s",
    "cluster.worker_cpu_s": "s",
    "cluster.chunks_dispatched": "count",
    "cluster.jobs_done": "count",
    "cluster.chunks_retried": "count",
    "cluster.chunks_refitted": "count",
    "cluster.workers_lost": "count",
    "trace.overhead_s": "s",
    "trace.span_coverage": "1",
}

WORKLOADS = ("paper_sweeps", "dnn_tables", "served_mix")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = pathlib.Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {root} holds no src/repro package; run from the repository root",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(root / "src"))
    # A terminated run still unwinds, so served processes are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import harness

    module = __import__(args.workload)
    run = harness.Run(args.workload, args.seed, args.seconds, bool(args.trace))
    started = time.perf_counter()
    steal_started = harness.steal_seconds()
    speed_started = harness.host_speed()
    layer_values = module.run(run, root)
    missing = sorted(set(END_TO_END) - set(run.metrics))
    if missing:
        raise RuntimeError(f"workload {args.workload} did not report {missing}")
    measured, run.metrics = run.metrics, {}
    run.details["all_end_to_end"] = measured
    if args.trace:
        for name, unit in PER_LAYER.items():
            run.metric(name, layer_values.get(name, 0.0), unit)
    else:
        run.metrics = {name: measured[name] for name in END_TO_END}
    extra = {
        "environment": harness.environment(root),
        "elapsed_s": time.perf_counter() - started,
        "steal_s": harness.steal_seconds() - steal_started,
        "host_speed": [speed_started, harness.host_speed()],
    }
    results = root / ".perfbench" / "results"
    path = run.write(results, extra)
    for failure in run.failures:
        print(f"FAILED: {failure}")
    for name, metric in run.metrics.items():
        print(f"{name:28s} {metric['value']:14.6g} {metric['unit']}")
    print(f"environment: {json.dumps(extra['environment'], sort_keys=True)}")
    print(f"record: {path.relative_to(root)}")
    print(json.dumps(run.summary(), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
