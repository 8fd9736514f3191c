"""The measuring loop shared by the two in-process workloads.

A *pair* is one cold pass (fresh engine, empty artifact cache, cleared
calibration cache) followed by one warm pass (fresh engine over the cache
the cold pass filled, calibration cache cleared again).  Pairs repeat
until the run has measured for ``--seconds`` and holds at least ten of
them.  A traced run traces two pairs of every three, until it holds at
least ten traced and five untraced pairs, so the tracing overhead is
measured inside the same run.

Every public call of a pass is timed on its own, at the reference host
speed (:class:`harness.Timed`); a pass's ``wall`` and ``cpu`` are the sums
over its calls.
"""

from __future__ import annotations

import dataclasses
import pathlib
import shutil
import time
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

import harness
import spans


@dataclasses.dataclass
class Pass:
    """One timed pass: wall and CPU time, per-call latencies, outputs.

    ``wall``, ``cpu`` and ``latencies`` are at the reference host speed
    (:class:`harness.Timed`): ``wall`` and ``cpu`` sum the pass's timed
    calls.  ``raw_wall`` is the pass as the clock read it, probes included.
    """

    wall: float
    cpu: float
    latencies: List[float]
    calls: List[str]
    raw_wall: float
    raw_latencies: List[float]
    speeds: List[float]
    outputs: Dict[str, Any]
    jobs_executed: int
    cache_hits: int
    cache_bytes: int
    span_window: tuple


class Timer:
    """Times the public calls of one pass and counts them as operations."""

    def __init__(self, run: harness.Run):
        self.run = run
        self.latencies: List[float] = []
        self.raw_latencies: List[float] = []
        self.speeds: List[float] = []
        self.cpu: List[float] = []
        self.calls: List[str] = []

    def __call__(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        with harness.Timed() as timed:
            cpu_started = harness.self_cpu_seconds()
            value = self.run.op(fn, *args, **kwargs)
            cpu = harness.self_cpu_seconds() - cpu_started
        self.latencies.append(timed.seconds)
        self.raw_latencies.append(timed.raw_s)
        self.speeds.append(timed.speed)
        self.cpu.append(cpu / timed.speed)
        self.calls.append(fn.__name__)
        return value


#: ``body(timer, engine, pair_index) -> outputs`` runs the calls of a pass.
PassBody = Callable[[Timer, Any, int], Dict[str, Any]]


def timed_pass(run: harness.Run, body: PassBody, cache_dir: pathlib.Path, index: int) -> Pass:
    from repro.core.calibration import clear_calibration_cache
    from repro.runtime import ArtifactCache, SweepEngine

    clear_calibration_cache()
    cache = ArtifactCache(cache_dir)
    engine = SweepEngine(cache=cache)
    timer = Timer(run)
    started = time.perf_counter()
    outputs = body(timer, engine, index)
    ended = time.perf_counter()
    return Pass(
        wall=sum(timer.latencies),
        cpu=sum(timer.cpu),
        latencies=timer.latencies,
        calls=timer.calls,
        raw_wall=ended - started,
        raw_latencies=timer.raw_latencies,
        speeds=timer.speeds,
        outputs=outputs,
        jobs_executed=engine.stats.jobs_executed,
        cache_hits=engine.stats.cache_hits,
        cache_bytes=cache.size_bytes(),
        span_window=(started, ended),
    )


def same(a: Any, b: Any) -> bool:
    """Exact structural equality; arrays compare with ``np.array_equal``."""
    if dataclasses.is_dataclass(a) and not isinstance(a, type):
        return type(a) is type(b) and all(
            same(getattr(a, field.name), getattr(b, field.name))
            for field in dataclasses.fields(a)
        )
    if isinstance(a, dict):
        return isinstance(b, dict) and a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return isinstance(b, (list, tuple)) and len(a) == len(b) and all(
            same(x, y) for x, y in zip(a, b)
        )
    if isinstance(a, (np.ndarray, np.generic, float)):
        left, right = np.asarray(a), np.asarray(b)
        return left.shape == right.shape and bool(
            np.array_equal(left, right, equal_nan=left.dtype.kind == "f")
        )
    return a == b


def measure(
    run: harness.Run,
    root: pathlib.Path,
    body: PassBody,
    check: Callable[[harness.Run, Pass, Pass], None],
    targets: Sequence[spans.Target],
) -> Dict[str, Any]:
    """Run pairs until done; return the samples the workload reports."""
    floor = harness.MIN_SAMPLES
    scratch = harness.scratch_dir(root, run.workload)
    tracer = spans.Tracer(f"{run.workload}-{run.seed}") if run.trace else None
    pairs: List[Dict[str, Any]] = []
    started = time.perf_counter()
    try:
        while True:
            traced = [pair for pair in pairs if pair["traced"]]
            untraced = [pair for pair in pairs if not pair["traced"]]
            if tracer is None:
                more = harness.keep_measuring(started, run.seconds, len(untraced), floor)
            else:
                more = harness.keep_measuring(started, run.seconds, len(traced), floor) or (
                    len(untraced) < max(1, floor // 2)
                )
            if not more:
                break
            index = len(pairs)
            trace_this = tracer is not None and index % 3 != 2
            cache_dir = scratch / f"cache-{index}"
            if trace_this:
                tracer.install(targets)
            try:
                cold = timed_pass(run, body, cache_dir, index)
                warm = timed_pass(run, body, cache_dir, index)
            finally:
                if trace_this:
                    tracer.uninstall()
                shutil.rmtree(cache_dir, ignore_errors=True)
            check(run, cold, warm)
            pairs.append({"traced": trace_this, "cold": cold, "warm": warm})
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if tracer is not None:
        tracer.dump(root / ".perfbench" / "results" / f"{run.workload}-seed{run.seed}.spans.json")
        cold = layer_samples(pairs, tracer, "cold")
        names = sorted({name for sample in cold for name in sample["self"]})
        run.details["cold_self_time_s"] = {
            name: harness.median([sample["self"].get(name, 0.0) for sample in cold])
            for name in names
        }
        # Share of a traced cold pass spent in each layer's own code: the
        # self time of its spans (``dnn.train`` -> ``dnn``) over the pass's
        # timed calls.
        prefixes = sorted({name.split(".")[0] for name in names})
        run.details["cold_layer_share"] = {
            prefix: harness.median(
                [
                    sum(t for name, t in sample["self"].items() if name.split(".")[0] == prefix)
                    / sum(sample["pass"].raw_latencies)
                    for sample in cold
                ]
            )
            for prefix in prefixes
        }
    return {"pairs": pairs, "tracer": tracer}


def end_to_end(
    run: harness.Run,
    pairs: List[Dict[str, Any]],
    setup: Sequence[harness.Timed],
    latency_sides: Sequence[str],
) -> None:
    """The end-to-end metrics, from untraced pairs only.

    The latency percentiles cover every public call of the passes named
    in ``latency_sides``; each workload picks the passes whose call mix
    puts its p50 and p95 inside one cluster of calls, not on the edge
    between two.
    """
    plain = [pair for pair in pairs if not pair["traced"]]
    latencies = [value for pair in plain for side in latency_sides for value in pair[side].latencies]
    run.metric("setup_s", harness.median([timed.seconds for timed in setup]), "s")
    run.metric("wall_s", harness.median([pair["cold"].wall for pair in plain]), "s")
    run.metric("warm_wall_s", harness.median([pair["warm"].wall for pair in plain]), "s")
    run.metric("cpu_s", harness.median([pair["cold"].cpu for pair in plain]), "s")
    run.metric("peak_rss_mb", harness.self_peak_rss_mb(), "MB")
    run.metric("latency_p50_s", harness.percentile(latencies, 0.50), "s")
    run.metric("latency_p95_s", harness.percentile(latencies, 0.95), "s")
    run.metric("ok_ratio", run.ok_ratio, "1")
    run.details["samples"] = {
        "pairs": len(plain),
        "latencies": len(latencies),
        "setup_s": [timed.seconds for timed in setup],
        "wall_s": [pair["cold"].wall for pair in plain],
        "warm_wall_s": [pair["warm"].wall for pair in plain],
        "cpu_s": [pair["cold"].cpu for pair in plain],
        "raw": {
            "setup_s": [timed.raw_s for timed in setup],
            "wall_s": [pair["cold"].raw_wall for pair in plain],
            "warm_wall_s": [pair["warm"].raw_wall for pair in plain],
        },
        "host_speed": {
            "setup": [timed.speed for timed in setup],
            "cold": [harness.median(pair["cold"].speeds) for pair in plain],
            "warm": [harness.median(pair["warm"].speeds) for pair in plain],
        },
        "call_latency_s": {
            side: {
                name: harness.median(
                    [t for pair in plain for n, t in zip(pair[side].calls, pair[side].latencies) if n == name]
                )
                for name in plain[0][side].calls
            }
            for side in ("cold", "warm")
        },
    }


def layer_samples(
    pairs: List[Dict[str, Any]], tracer: spans.Tracer, side: str
) -> List[Dict[str, Any]]:
    """Per traced pass of ``side`` (cold / warm): inclusive time and call
    count per span name, self time per span name, root-span coverage."""
    samples = []
    for pair in pairs:
        if not pair["traced"]:
            continue
        window = pair[side].span_window
        inside = tracer.window(*window)
        samples.append(
            {
                "inclusive": spans.inclusive_times(inside),
                "self": spans.self_times(inside, tracer.spans),
                # Over the pass's timed calls: the host-speed probes
                # between calls are the benchmark's, not the program's.
                "coverage": spans.root_coverage(inside, sum(pair[side].raw_latencies)),
                "pass": pair[side],
            }
        )
    return samples


def layer_metrics(
    pairs: List[Dict[str, Any]], tracer: spans.Tracer, spec: Dict[str, tuple]
) -> Dict[str, float]:
    """Per-layer metrics of a traced run.

    ``spec`` maps a metric to ``(kind, span names)``; ``kind`` is
    ``total`` (inclusive seconds), ``calls`` or ``self`` (self seconds).
    Each is the median over traced cold passes.  The engine counters, the
    cache size and the tracer's own numbers are added.
    """
    cold = layer_samples(pairs, tracer, "cold")
    warm = layer_samples(pairs, tracer, "warm")

    def one(sample: Dict[str, Any], kind: str, names: Sequence[str]) -> float:
        if kind == "self":
            return sum(sample["self"].get(name, 0.0) for name in names)
        index = 1 if kind == "calls" else 0
        return sum(sample["inclusive"].get(name, (0.0, 0))[index] for name in names)

    values = {
        metric: harness.median([one(sample, kind, names) for sample in cold])
        for metric, (kind, names) in spec.items()
    }
    values.update(runtime_layers(warm, cold))
    values.update(trace_layers(pairs, cold, warm))
    return values


def runtime_layers(warm: List[Dict[str, Any]], cold: List[Dict[str, Any]]) -> Dict[str, float]:
    """Engine counters of the warm pass and the cache size the cold pass left."""
    executed = [sample["pass"].jobs_executed for sample in warm]
    hits = [sample["pass"].cache_hits for sample in warm]
    ratios = [h / (h + e) if h + e else 0.0 for h, e in zip(hits, executed)]
    return {
        "runtime.jobs_executed": harness.median(executed),
        "runtime.cache_hits": harness.median(hits),
        "runtime.cache_hit_ratio": harness.median(ratios),
        "runtime.cache_bytes": harness.median([sample["pass"].cache_bytes for sample in cold]),
    }


def trace_layers(
    pairs: List[Dict[str, Any]], cold: List[Dict[str, Any]], warm: List[Dict[str, Any]]
) -> Dict[str, float]:
    """The tracer's own numbers: overhead and how much of a pass it covers."""
    traced = [pair["cold"].wall for pair in pairs if pair["traced"]]
    plain = [pair["cold"].wall for pair in pairs if not pair["traced"]]
    return {
        "trace.overhead_s": harness.median(traced) - harness.median(plain),
        "trace.span_coverage": min(
            harness.median([sample["coverage"] for sample in cold]),
            harness.median([sample["coverage"] for sample in warm]),
        ),
    }
