"""Unified command-line front door: ``python -m repro``.

Every paper figure / table driver is reachable through one entry point and
runs through the :class:`repro.runtime.SweepEngine`::

    python -m repro run dse          # 48-corner design-space exploration
    python -m repro run pvt          # Fig. 5 sweeps + Fig. 8 robustness
    python -m repro run characterize # reference characterisation sweeps
    python -m repro run tables       # DNN accuracy tables (Table II protocol)
    python -m repro serve            # long-lived sweep service (repro.service)
    python -m repro gateway          # HTTP/SSE front door over a service (repro.gateway)
    python -m repro worker           # long-lived cluster worker (repro.cluster)
    python -m repro cluster status   # live coordinator / worker statistics
    python -m repro cluster status --watch   # follow the live event stream
    python -m repro cache info       # artifact-cache statistics (--json for tools)
    python -m repro cache clear      # drop every cached artifact
    python -m repro cache evict --max-bytes 500M   # LRU-trim the cache
    python -m repro lint             # project-aware static analysis (docs/lint.md)

Running sweeps at scale
-----------------------
The engine options apply to every ``run`` subcommand:

* Without ``--executor`` the engine runs in **auto** mode: sweeps that
  register a vectorised ``batch_fn`` (PVT Monte-Carlo, characterisation,
  the DSE corner grid) are evaluated as whole NumPy batches — the default
  hot path — and everything else runs serially.  Results are bit-identical
  to every explicit strategy.
* ``--executor parallel --workers N`` fans independent jobs (characterisation
  operating points, design-space corners, PVT sensitivity points) out over a
  process pool.  Results are bit-identical to serial execution — jobs are
  deterministic work units and the engine preserves submission order.
* ``--executor distributed --workers N`` shards the same jobs across N
  long-lived worker *processes* through the cluster coordinator
  (:mod:`repro.cluster`) — still bit-identical.  Add ``--connect H:P`` to
  bind the cluster endpoint on a routable address so additional
  ``python -m repro worker --connect H:P`` processes (any host) join the
  pool mid-run; ``python -m repro cluster status --connect H:P`` shows
  live worker / dispatch / steal / retry statistics plus each worker's
  measured EWMA throughput.
* ``--chunk-window SECONDS`` (distributed only) switches the coordinator
  to the adaptive scheduler: each worker's next chunk is sized to its
  measured throughput times the window, and stragglers' in-flight chunks
  are split so idle workers take over the unstarted tail — the knob that
  keeps heterogeneous pools saturated (see ``docs/scheduling.md``).
* ``--chunksize K`` tunes how many jobs ride in one pool task (default:
  about four chunks per worker), trading scheduling overhead against load
  balance; ``--executor batch --batch-size K`` instead evaluates grouped
  corner batches in-process through the sweep's vectorised batch function.
* Artifact caching is on by default (``--cache-dir`` overrides the location,
  ``--no-cache`` disables it).  Artifacts are content-addressed by the sweep
  plan, technology card, operating conditions and code version, so a warm
  re-run of a characterisation never touches the reference solver and a
  repeated exploration is served from disk in milliseconds.
* ``--fast`` switches every workload to its reduced test-scale preset;
  ``--json PATH`` additionally writes the regenerated rows as JSON.
* ``--max-bytes N`` (accepts ``K``/``M``/``G`` suffixes) bounds the cache:
  least-recently-used artifacts are evicted whenever a write pushes the
  cache over the limit.  ``python -m repro cache evict --max-bytes N``
  applies the same policy on demand.

Serving sweeps to many clients
------------------------------
``python -m repro serve --host H --port P`` starts the long-lived
:mod:`repro.service` front door on top of the same engine: concurrent
clients submit DSE / PVT / characterisation sweeps over a
newline-delimited-JSON TCP protocol, identical in-flight requests are
deduplicated (single-flight), and per-job progress events stream back to
every client (see :mod:`repro.service` for the client API).

The serve command also owns the resilience knobs: per-client backpressure
(``--max-inflight``, ``--max-queued-bytes``, ``--rate``/``--burst`` —
over-budget submits are answered with a structured ``busy`` error), and
the persistent job journal (``--journal PATH``, ``--no-journal``) with
``--resume`` to re-enqueue whatever a killed server left interrupted.
See ``docs/operations.md`` for deployment guidance and the recovery
runbook, and ``docs/protocol.md`` for the wire protocol.

``python -m repro gateway --service H:P`` puts the HTTP/SSE front door
(:mod:`repro.gateway`) in front of a running service: REST submits,
Server-Sent-Events progress streams, content-addressed artifact spill
(``--artifact-root``, ``--spill-bytes``) and HMAC-signed completion
webhooks.  Gateway replicas are stateless — run several behind a load
balancer against one service.  See ``docs/gateway.md``.

Observability
-------------
``--metrics-port N`` (on ``run``, ``serve`` and ``worker``) serves the
process-wide Prometheus metrics (:mod:`repro.obs`) on
``http://127.0.0.1:N/metrics`` for the lifetime of the command; ``0``
binds an ephemeral port, printed on start.  ``python -m repro cluster
status --watch`` follows the coordinator's live event stream and redraws
the per-worker table on every change (``--duration`` bounds the session).
See ``docs/observability.md`` for the metric reference and the trace-id
propagation model.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import pathlib
import sys
import time
from typing import Any, Dict, List, Optional

from repro.runtime import ArtifactCache, SweepEngine, default_cache_dir, make_executor
from repro.sched import JOB_CLASSES, SchedPolicy

_SCALE_EPILOG = """\
running sweeps at scale:
  (no --executor)                   auto: vectorised batches for sweeps
                                    with a batch_fn, serial otherwise
  --executor parallel --workers 8   fan jobs out over a process pool
  --executor distributed --workers 8  shard over long-lived cluster workers
  --executor batch --batch-size 16  vectorised corner-grid batches
  --chunksize 4                     jobs per pool task / cluster chunk
  --chunk-window 0.5                adaptive scheduling: size each worker's
                                    chunks to a 0.5 s wall-time window and
                                    split stragglers (distributed only)
  --connect 0.0.0.0:7500            cluster endpoint (external workers join)
  --no-cache / --cache-dir DIR      control the content-addressed artifact cache
  --max-bytes 500M                  LRU-bound the cache (also: cache evict)
  --fast                            reduced test-scale presets
  --metrics-port 9100               serve Prometheus metrics while running
Serial, parallel, batch and distributed execution produce bit-identical
results; the cache is keyed by plan + technology + conditions + code version,
so warm re-runs skip the reference solver entirely.  `python -m repro serve`
exposes the same engine to many concurrent clients over TCP (see
`serve --help`); `python -m repro worker` joins a cluster endpoint.

Full documentation lives in docs/: docs/architecture.md (the three-tier
execution architecture and its data flows), docs/protocol.md (the NDJSON
wire protocols of both listeners), docs/scheduling.md (the adaptive
telemetry-driven cluster scheduler and its tuning), docs/operations.md
(deployment, cache sizing, backpressure tuning, slow/mixed worker pools
and the journal recovery runbook).
"""


def _progress_printer(stream=sys.stderr):
    """Single-line progress callback for interactive runs."""

    def progress(done: int, total: int, label: str) -> None:
        stream.write(f"\r  [{done}/{total}] {label:<40.40}")
        stream.flush()
        if done >= total:
            stream.write("\n")

    return progress


class EngineOptionError(ValueError):
    """Invalid engine option on the command line (bad --workers etc.)."""


def parse_size(text: str) -> int:
    """Parse a byte count with optional K/M/G suffix.

    >>> parse_size("500M")
    500000000
    >>> parse_size("1.5k")
    1500
    >>> parse_size("2GB")
    2000000000
    >>> parse_size("many")
    Traceback (most recent call last):
        ...
    ValueError: invalid size 'many' (expected e.g. 500000000, 500M, 2G)
    """
    raw = text.strip().lower().removesuffix("b")
    multipliers = {"k": 10**3, "m": 10**6, "g": 10**9}
    multiplier = 1
    if raw and raw[-1] in multipliers:
        multiplier = multipliers[raw[-1]]
        raw = raw[:-1]
    try:
        value = int(float(raw) * multiplier)
    except (ValueError, OverflowError):  # OverflowError: "inf", "1e999"
        raise ValueError(f"invalid size {text!r} (expected e.g. 500000000, 500M, 2G)") from None
    if value < 0:
        raise ValueError("size must be non-negative")
    return value


def build_engine(args: argparse.Namespace) -> SweepEngine:
    """Construct the SweepEngine described by the common CLI options."""
    if args.executor is None:
        # Auto (the default): sweeps that carry a vectorised batch_fn run
        # through the batch strategy — the whole-chunk NumPy hot path —
        # and everything else serially.  Bit-identical either way; an
        # explicit --executor always pins the strategy.
        for flag, value in (
            ("--workers", args.workers),
            ("--chunksize", args.chunksize),
            ("--batch-size", args.batch_size),
            ("--connect", args.connect),
            ("--chunk-window", args.chunk_window),
        ):
            if value is not None:
                raise EngineOptionError(f"{flag} requires an explicit --executor")
        executor = None
    elif args.executor == "distributed":
        # The distributed executor names its options differently (worker
        # *processes*, a cluster endpoint) but rides the same CLI flags.
        if args.batch_size is not None:
            raise EngineOptionError(
                "--batch-size only applies to --executor batch, not 'distributed'"
            )
        options = {
            "workers": args.workers,
            "chunksize": args.chunksize,
            "chunk_window": args.chunk_window,
            "connect": args.connect,
        }
    else:
        options = {
            "max_workers": args.workers,
            "chunksize": args.chunksize,
            "batch_size": args.batch_size,
        }
        if args.connect is not None:
            raise EngineOptionError(
                f"--connect only applies to --executor distributed, not {args.executor!r}"
            )
        if args.chunk_window is not None:
            raise EngineOptionError(
                f"--chunk-window only applies to --executor distributed, "
                f"not {args.executor!r}"
            )
    if args.executor is not None:
        try:
            executor = make_executor(args.executor, **options)
        except ValueError as error:
            raise EngineOptionError(str(error)) from error
    cache = (
        None
        if args.no_cache
        else ArtifactCache(args.cache_dir, max_bytes=args.max_bytes)
    )
    # Commands without a --quiet flag (serve) never print a progress line:
    # their progress streams to clients instead of the server console.
    progress = None if getattr(args, "quiet", True) else _progress_printer()
    engine = SweepEngine(executor, cache=cache, progress=progress)
    sched_class = getattr(args, "sched_class", None)
    sched_priority = getattr(args, "sched_priority", None)
    if sched_class is not None or sched_priority is not None:
        policy: Dict[str, Any] = {"class": sched_class or "batch"}
        if sched_priority is not None:
            policy["priority"] = sched_priority
        try:
            engine.sched = SchedPolicy.parse(policy).to_dict()
        except ValueError as error:
            raise EngineOptionError(str(error)) from error
    return engine


def _add_cache_size_option(group) -> None:
    group.add_argument(
        "--max-bytes",
        type=parse_size,
        default=None,
        metavar="SIZE",
        help="cache size bound with LRU eviction (accepts K/M/G suffixes)",
    )


def _add_engine_options(parser: argparse.ArgumentParser, run_options: bool = True) -> None:
    group = parser.add_argument_group("engine options")
    group.add_argument(
        "--executor",
        choices=("serial", "parallel", "batch", "distributed"),
        default=None,
        help="execution strategy (default: auto — vectorised batch for "
        "sweeps that carry a batch_fn, serial otherwise; all strategies "
        "are bit-identical)",
    )
    group.add_argument(
        "--workers",
        type=int,
        default=None,
        help="process-pool size / cluster worker processes",
    )
    group.add_argument(
        "--chunksize",
        type=int,
        default=None,
        help="jobs per pool task (parallel) or dispatched chunk (distributed)",
    )
    group.add_argument(
        "--chunk-window",
        type=float,
        default=None,
        metavar="SECONDS",
        help="adaptive scheduling: target wall-time per dispatched chunk; "
        "sizes chunks to each worker's measured throughput and splits "
        "stragglers (distributed executor only)",
    )
    group.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="cluster endpoint bind address (distributed executor; external "
        "`python -m repro worker` processes join here)",
    )
    group.add_argument(
        "--batch-size", type=int, default=None, help="jobs per vectorised batch (batch)"
    )
    group.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help=f"artifact cache root (default: {default_cache_dir()})",
    )
    group.add_argument(
        "--no-cache", action="store_true", help="disable the artifact cache"
    )
    _add_cache_size_option(group)
    group.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve Prometheus metrics on http://127.0.0.1:PORT/metrics "
        "for the lifetime of the command (0 picks a free port)",
    )
    if not run_options:
        return
    group.add_argument(
        "--sched-class",
        choices=JOB_CLASSES,
        default=None,
        help="multi-tenant scheduling class for this sweep; interactive "
        "outranks batch on the distributed executor (docs/scheduling.md)",
    )
    group.add_argument(
        "--sched-priority",
        type=int,
        default=None,
        metavar="N",
        help="explicit integer priority (higher dispatches first and may "
        "preempt lower-priority in-flight work; default: the class's "
        "built-in priority)",
    )
    group.add_argument(
        "--fast", action="store_true", help="reduced test-scale presets"
    )
    group.add_argument(
        "--json", type=pathlib.Path, default=None, help="write results as JSON to PATH"
    )
    group.add_argument(
        "--quiet", action="store_true", help="suppress the progress line"
    )


def _emit_json(args: argparse.Namespace, payload: Dict[str, Any]) -> None:
    if args.json is None:
        return
    args.json.parent.mkdir(parents=True, exist_ok=True)
    args.json.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.json}")


def _finish(engine: SweepEngine, elapsed: float) -> None:
    print(f"\n{engine.describe()}")
    print(f"total wall time: {elapsed:.2f} s")
    close = getattr(engine.executor, "close", None)
    if callable(close):  # distributed executor: stop spawned workers
        close()


# ----------------------------------------------------------------------
# run subcommands
# ----------------------------------------------------------------------
def _cmd_run_dse(args: argparse.Namespace) -> int:
    from repro.analysis.design_space import (
        corner_summary_rows,
        format_table1,
        run_design_space_exploration,
    )
    from repro.circuits.technology import tsmc65_like
    from repro.core.calibration import calibrated_suite
    from repro.core.characterization import CharacterizationPlan
    from repro.core.dse import DesignSpace

    engine = build_engine(args)
    start = time.perf_counter()

    technology = tsmc65_like()
    plan = CharacterizationPlan.quick() if args.fast else None
    space = DesignSpace.quick() if args.fast else None
    print("calibrating OPTIMA models (characterisation via SweepEngine) ...")
    suite = calibrated_suite(technology, plan=plan, engine=engine).suite
    print(f"exploring the {(space or DesignSpace()).corner_count}-corner design space ...")
    result = run_design_space_exploration(
        technology, suite=suite, space=space, engine=engine
    )
    elapsed = time.perf_counter() - start

    print()
    print(result.describe())
    print()
    rows = corner_summary_rows(result)
    print("Table I reproduction (measured vs paper):")
    print(format_table1(rows))
    _finish(engine, elapsed)
    _emit_json(
        args,
        {
            "command": "dse",
            "fast": args.fast,
            "corner_count": len(result.points),
            "corners": result.table(),
            "selected": rows,
            "elapsed_seconds": elapsed,
        },
    )
    return 0


def _cmd_run_pvt(args: argparse.Namespace) -> int:
    from repro.analysis.pvt_sweeps import (
        corner_sweep,
        mismatch_monte_carlo,
        supply_sweep,
        temperature_sweep,
    )
    from repro.circuits.technology import tsmc65_like
    from repro.core.calibration import calibrated_suite
    from repro.core.characterization import CharacterizationPlan
    from repro.core.dse import DesignSpace, explore_design_space
    from repro.core.pvt import analyze_corner_robustness

    engine = build_engine(args)
    start = time.perf_counter()
    technology = tsmc65_like()
    samples = 200 if args.fast else 1000

    print("Fig. 5: PVT influence on the bit-line discharge (reference simulator)")
    supply = supply_sweep(technology, engine=engine)
    for vdd, trace in sorted(item for item in supply.items() if item[0] > 0):
        print(f"  VDD={vdd:.1f} V: final V_BLB = {trace[-1]:.3f} V")
    temperature = temperature_sweep(technology, engine=engine)
    for temp_c, trace in sorted(item for item in temperature.items() if item[0] >= 0):
        print(f"  T={temp_c:5.1f} degC: final V_BLB = {trace[-1]:.3f} V")
    corners = corner_sweep(technology, engine=engine)
    for name in ("fast", "typical", "slow"):
        print(f"  corner {name:<8}: final V_BLB = {corners[name][-1]:.3f} V")
    monte_carlo = mismatch_monte_carlo(technology, samples=samples)
    sigmas = {
        float(t): float(s)
        for t, s in zip(
            monte_carlo["sampling_times"], monte_carlo["sigma_at_sampling_times"]
        )
    }
    for sample_time, sigma in sigmas.items():
        print(f"  sigma(V_BLB) at {sample_time * 1e9:.1f} ns = {sigma * 1e3:5.2f} mV")

    print("\nFig. 8: robustness of the fom corner (OPTIMA models via SweepEngine)")
    plan = CharacterizationPlan.quick() if args.fast else None
    space = DesignSpace.quick() if args.fast else None
    suite = calibrated_suite(technology, plan=plan, engine=engine).suite
    exploration = explore_design_space(suite, space=space, engine=engine)
    fom = exploration.best_fom().config.renamed("fom")
    report = analyze_corner_robustness(suite, fom, engine=engine)
    print("  " + report.describe())
    elapsed = time.perf_counter() - start
    _finish(engine, elapsed)
    _emit_json(
        args,
        {
            "command": "pvt",
            "fast": args.fast,
            "mismatch_sigma_mv": {str(k): v * 1e3 for k, v in sigmas.items()},
            "fom_corner": fom.to_dict(),
            "supply_sweep_error_lsb": [float(v) for v in report.supply_sweep.mean_error_lsb],
            "temperature_sweep_error_lsb": [
                float(v) for v in report.temperature_sweep.mean_error_lsb
            ],
            "elapsed_seconds": elapsed,
        },
    )
    return 0


def _cmd_run_characterize(args: argparse.Namespace) -> int:
    from repro.circuits.technology import tsmc65_like
    from repro.core.characterization import CharacterizationPlan, characterize

    engine = build_engine(args)
    start = time.perf_counter()
    technology = tsmc65_like()
    plan = CharacterizationPlan.quick() if args.fast else CharacterizationPlan()
    print(
        f"characterising {technology.name} "
        f"({len(plan.times)} times x {len(plan.wordline_voltages)} V_WL, "
        f"{len(plan.supply_voltages)} supplies, "
        f"{len(plan.temperatures_celsius)} temperatures) ..."
    )
    data = characterize(technology, plan, engine=engine)
    elapsed = time.perf_counter() - start

    counts = {
        "base": len(data.base),
        "supply": len(data.supply),
        "temperature": len(data.temperature),
        "mismatch": len(data.mismatch),
        "write_energy": len(data.write_energy),
        "discharge_energy": len(data.discharge_energy),
    }
    for sweep, count in counts.items():
        print(f"  {sweep:<17} {count:6d} records")
    print(f"  {'total':<17} {data.record_count():6d} records")
    _finish(engine, elapsed)
    _emit_json(
        args,
        {
            "command": "characterize",
            "fast": args.fast,
            "records": counts,
            "total_records": data.record_count(),
            "elapsed_seconds": elapsed,
        },
    )
    return 0


def _cmd_run_tables(args: argparse.Namespace) -> int:
    from repro.analysis.dnn_tables import (
        DnnExperimentConfig,
        corner_backends,
        format_accuracy_table,
        model_builders,
        paper_table2_reference,
        run_dnn_accuracy_experiment,
    )
    from repro.circuits.technology import tsmc65_like
    from repro.core.calibration import calibrated_suite
    from repro.core.characterization import CharacterizationPlan
    from repro.core.dse import DesignSpace, explore_design_space, select_corners
    from repro.dnn.datasets import imagenet_like

    engine = build_engine(args)
    start = time.perf_counter()
    technology = tsmc65_like()
    plan = CharacterizationPlan.quick() if args.fast else None
    space = DesignSpace.quick() if args.fast else None

    print("selecting multiplier corners (calibration + DSE via SweepEngine) ...")
    suite = calibrated_suite(technology, plan=plan, engine=engine).suite
    corners = select_corners(explore_design_space(suite, space=space, engine=engine))
    backends = corner_backends(technology, suite=suite, corners=corners)

    config = DnnExperimentConfig.quick() if args.fast else DnnExperimentConfig()
    dataset = imagenet_like(
        image_size=config.image_size,
        train_per_class=config.train_per_class,
        test_per_class=config.test_per_class,
    )
    models = model_builders(config.image_size, dataset.classes)
    if args.fast:
        models = models[:1]
    print(
        f"training + evaluating {len(models)} model(s) on {dataset.name} "
        f"({dataset.classes} classes) ..."
    )
    results = run_dnn_accuracy_experiment(
        dataset, backends, config=config, models=models, engine=engine
    )
    elapsed = time.perf_counter() - start

    print()
    print("Table II protocol (measured vs paper):")
    print(format_accuracy_table(results, paper_table2_reference()))
    _finish(engine, elapsed)
    _emit_json(
        args,
        {
            "command": "tables",
            "fast": args.fast,
            "accuracy": {
                model: {
                    mode: {"top1": report.top1, "top5": report.top5}
                    for mode, report in reports.items()
                }
                for model, reports in results.items()
            },
            "engine": dataclasses.asdict(engine.stats),
            "elapsed_seconds": elapsed,
        },
    )
    return 0


_RUN_COMMANDS = {
    "dse": _cmd_run_dse,
    "pvt": _cmd_run_pvt,
    "characterize": _cmd_run_characterize,
    "tables": _cmd_run_tables,
}


# ----------------------------------------------------------------------
# serve subcommand
# ----------------------------------------------------------------------
def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.journal import JobJournal, default_journal_path
    from repro.service import SweepService, workload_names

    engine = build_engine(args)
    journal = None
    if not args.no_journal:
        journal_path = args.journal or default_journal_path(args.cache_dir)
        journal = JobJournal(journal_path)
    elif args.resume:
        print("error: --resume requires the journal (drop --no-journal)", file=sys.stderr)
        return 2
    if args.burst is not None and args.rate is None:
        print("error: --burst only applies together with --rate", file=sys.stderr)
        return 2
    service = SweepService(
        engine,
        host=args.host,
        port=args.port,
        max_workers=args.service_workers,
        max_inflight=args.max_inflight,
        max_queued_bytes=args.max_queued_bytes,
        rate=args.rate,
        burst=args.burst,
        journal=journal,
    )

    async def _serve() -> None:
        from repro import obs

        host, port = await service.start()
        print(
            f"serving sweeps on {host}:{port} "
            f"(workloads: {', '.join(workload_names())})",
            flush=True,
        )
        metrics_server = None
        if args.metrics_port is not None:
            metrics_server = await obs.MetricsServer(port=args.metrics_port).start()
            print(
                f"metrics on http://127.0.0.1:{metrics_server.port}/metrics",
                flush=True,
            )
        print(engine.describe(), flush=True)
        if journal is not None:
            print(journal.describe(), flush=True)
        if args.resume:
            resumed = await service.resume()
            print(f"resumed {resumed} interrupted job(s) from the journal", flush=True)
        try:
            await service.serve_forever()
        finally:
            await service.stop()
            if metrics_server is not None:
                await metrics_server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# gateway subcommand
# ----------------------------------------------------------------------
def _cmd_gateway(args: argparse.Namespace) -> int:
    import asyncio

    from repro.cluster.worker import parse_address
    from repro.gateway import Gateway, GatewayConfig

    try:
        service_host, service_port = parse_address(args.service)
        config = GatewayConfig(
            service_host=service_host,
            service_port=service_port,
            host=args.host,
            port=args.port,
            artifact_root=str(args.artifact_root),
            spill_bytes=args.spill_bytes,
            max_body_bytes=args.max_body_bytes,
            webhook_secret=args.webhook_secret,
            webhook_attempts=args.webhook_attempts,
        ).validate()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    async def _serve() -> None:
        from repro import obs

        gateway = await Gateway(config).start()
        print(
            f"gateway on {config.host}:{gateway.port} "
            f"(service {config.service_host}:{config.service_port}, "
            f"spill over {config.spill_bytes} bytes to {config.artifact_root})",
            flush=True,
        )
        metrics_server = None
        if args.metrics_port is not None:
            metrics_server = await obs.MetricsServer(port=args.metrics_port).start()
            print(
                f"metrics on http://127.0.0.1:{metrics_server.port}/metrics",
                flush=True,
            )
        try:
            await asyncio.Event().wait()  # until interrupted
        finally:
            await gateway.stop()
            if metrics_server is not None:
                await metrics_server.stop()

    try:
        asyncio.run(_serve())
    except KeyboardInterrupt:
        print("\nshutting down", file=sys.stderr)
    return 0


# ----------------------------------------------------------------------
# worker / cluster subcommands
# ----------------------------------------------------------------------
def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.cluster import run_worker

    return run_worker(
        args.connect,
        slots=args.slots,
        name=args.name,
        connect_timeout=args.connect_timeout,
        throttle=args.throttle,
        metrics_port=args.metrics_port,
    )


def _cmd_cluster(args: argparse.Namespace) -> int:
    from repro.cluster import ControlError, fetch_status, format_status, watch_status

    if args.watch:
        if args.json:
            print("error: --json does not apply to --watch", file=sys.stderr)
            return 2
        try:
            watch_status(
                args.connect, duration=args.duration, timeout=args.connect_timeout
            )
        except KeyboardInterrupt:
            print("", file=sys.stderr)
        except (ControlError, OSError, ValueError) as error:
            print(
                f"error: cannot watch cluster at {args.connect}: {error}",
                file=sys.stderr,
            )
            return 2
        return 0
    if args.duration is not None:
        print("error: --duration only applies with --watch", file=sys.stderr)
        return 2
    try:
        status = fetch_status(args.connect, timeout=args.connect_timeout)
    except (ControlError, OSError, ValueError) as error:
        print(f"error: cannot reach cluster at {args.connect}: {error}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(status, indent=2, sort_keys=True))
    else:
        print(format_status(status))
    return 0


# ----------------------------------------------------------------------
# cache subcommands
# ----------------------------------------------------------------------
def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ArtifactCache(args.cache_dir, max_bytes=args.max_bytes)
    if args.cache_command == "clear":
        removed = cache.clear()
        print(f"removed {removed} artifacts from {cache.root}")
    elif args.cache_command == "evict":
        if args.max_bytes is None:
            print("error: cache evict requires --max-bytes", file=sys.stderr)
            return 2
        removed = cache.evict()
        print(
            f"evicted {removed} files from {cache.root}; "
            f"now {cache.size_bytes() / 1e6:.2f} MB in {len(cache)} artifacts"
        )
    elif args.json:
        # Machine-readable `cache info --json`: one JSON document on stdout
        # for cluster status tooling and CI assertions.  Counters are this
        # process's view (a fresh CLI run starts at zero); count/bytes are
        # measured on disk.
        import dataclasses as _dataclasses

        print(
            json.dumps(
                {
                    "root": str(cache.root),
                    "count": len(cache),
                    "bytes": cache.size_bytes(),
                    "max_bytes": cache.max_bytes,
                    "stats": _dataclasses.asdict(cache.stats),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(cache.describe())
    return 0


# ----------------------------------------------------------------------
# parser
# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    import repro

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "OPTIMA reproduction runner: every paper figure / table driver "
            "behind one sweep-execution engine with parallel executors and a "
            "content-addressed artifact cache."
        ),
        epilog=_SCALE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {repro.__version__}"
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run",
        help="run a paper workload through the SweepEngine",
        epilog=_SCALE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    run_parser.add_argument(
        "workload",
        choices=sorted(_RUN_COMMANDS),
        help="dse: 48-corner exploration; pvt: Fig. 5/8 sweeps; "
        "characterize: reference sweeps; tables: DNN accuracy tables",
    )
    _add_engine_options(run_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve sweep requests to many clients (repro.service)",
        description=(
            "Long-lived sweep service: accepts DSE / PVT / characterisation "
            "requests from concurrent clients over newline-delimited JSON, "
            "single-flights identical in-flight requests and streams per-job "
            "progress events back to every client."
        ),
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=7463, help="TCP port (0 picks a free port)"
    )
    serve_parser.add_argument(
        "--service-workers",
        type=int,
        default=4,
        help="worker threads running blocking sweeps (distinct sweeps in flight)",
    )
    backpressure = serve_parser.add_argument_group(
        "backpressure (per-client; over-budget submits are answered `busy`)"
    )
    backpressure.add_argument(
        "--max-inflight",
        type=int,
        default=8,
        help="max concurrently in-flight submits per connection (default: 8)",
    )
    backpressure.add_argument(
        "--max-queued-bytes",
        type=parse_size,
        default=None,
        metavar="SIZE",
        help="max summed request bytes in flight per connection (K/M/G suffixes)",
    )
    backpressure.add_argument(
        "--rate",
        type=float,
        default=None,
        help="token-bucket submit rate limit per connection (submits/second)",
    )
    backpressure.add_argument(
        "--burst",
        type=int,
        default=None,
        help="token-bucket burst size; only applies with --rate "
        "(default: max(1, --rate))",
    )
    journal_group = serve_parser.add_argument_group(
        "job journal (crash recovery; see docs/operations.md)"
    )
    journal_group.add_argument(
        "--journal",
        type=pathlib.Path,
        default=None,
        metavar="PATH",
        help="journal file (default: <cache root>/journal.ndjson)",
    )
    journal_group.add_argument(
        "--no-journal", action="store_true", help="disable the job journal"
    )
    journal_group.add_argument(
        "--resume",
        action="store_true",
        help="re-enqueue jobs the journal records as interrupted, then serve",
    )
    _add_engine_options(serve_parser, run_options=False)

    gateway_parser = subparsers.add_parser(
        "gateway",
        help="HTTP/SSE front door over a running service (repro.gateway)",
        description=(
            "Serve the REST + Server-Sent-Events API in front of a running "
            "`python -m repro serve` instance: submit sweeps over HTTP, "
            "stream progress as SSE, fetch spilled results from the "
            "content-addressed artifact store, and receive HMAC-signed "
            "completion webhooks.  Replicas are stateless: run several "
            "behind a load balancer against one service.  See "
            "docs/gateway.md."
        ),
    )
    gateway_parser.add_argument(
        "--service", required=True, metavar="HOST:PORT",
        help="the sweep service endpoint to front",
    )
    gateway_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    gateway_parser.add_argument(
        "--port", type=int, default=0,
        help="listen port (default: 0 = pick a free port, printed on start)",
    )
    gateway_parser.add_argument(
        "--artifact-root",
        default="gateway-artifacts",
        metavar="DIR",
        help="artifact object store directory (default: %(default)s)",
    )
    gateway_parser.add_argument(
        "--spill-bytes",
        type=parse_size,
        default=65536,
        metavar="SIZE",
        help="results whose JSON encoding exceeds SIZE leave the response "
        "body for the artifact store (default: 64k; accepts k/M/G suffixes)",
    )
    gateway_parser.add_argument(
        "--max-body-bytes",
        type=parse_size,
        default=1_000_000,
        metavar="SIZE",
        help="reject request bodies over SIZE with 413 (default: 1M)",
    )
    gateway_parser.add_argument(
        "--webhook-secret",
        default="repro-gateway",
        metavar="SECRET",
        help="HMAC-SHA256 key for the X-Repro-Signature webhook header",
    )
    gateway_parser.add_argument(
        "--webhook-attempts",
        type=int,
        default=3,
        metavar="N",
        help="webhook delivery attempts before giving up (default: 3)",
    )
    gateway_parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve repro_gateway_* Prometheus metrics on "
        "http://127.0.0.1:PORT/metrics (0 picks a free port)",
    )

    worker_parser = subparsers.add_parser(
        "worker",
        help="run a long-lived cluster worker (repro.cluster)",
        description=(
            "Connect to a cluster coordinator, register (with heartbeats) "
            "and execute dispatched job chunks until the coordinator shuts "
            "the cluster down.  Spawn one worker per core, on any host that "
            "can reach the endpoint."
        ),
    )
    worker_parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT", help="coordinator endpoint"
    )
    worker_parser.add_argument(
        "--slots", type=int, default=1, help="chunks run concurrently (default: 1)"
    )
    worker_parser.add_argument(
        "--name", default=None, help="worker name shown in cluster status"
    )
    worker_parser.add_argument(
        "--connect-timeout",
        type=float,
        default=10.0,
        help="retry-with-backoff budget while the coordinator is binding",
    )
    worker_parser.add_argument(
        "--throttle",
        type=float,
        default=0.0,
        metavar="SECONDS",
        help="artificial per-job delay: a reproducible straggler for "
        "exercising the adaptive scheduler (benchmarks/chaos only)",
    )
    worker_parser.add_argument(
        "--metrics-port",
        type=int,
        default=None,
        metavar="PORT",
        help="serve this worker's Prometheus metrics on "
        "http://127.0.0.1:PORT/metrics (0 picks a free port)",
    )

    cluster_parser = subparsers.add_parser(
        "cluster", help="inspect a live cluster endpoint"
    )
    cluster_parser.add_argument("cluster_command", choices=("status",))
    cluster_parser.add_argument(
        "--connect", required=True, metavar="HOST:PORT", help="coordinator endpoint"
    )
    cluster_parser.add_argument(
        "--json", action="store_true", help="print the raw status document as JSON"
    )
    cluster_parser.add_argument(
        "--watch",
        action="store_true",
        help="follow the live event stream and redraw the worker table "
        "on every change (Ctrl-C to stop)",
    )
    cluster_parser.add_argument(
        "--duration",
        type=float,
        default=None,
        metavar="SECONDS",
        help="bound a --watch session (default: until interrupted)",
    )
    cluster_parser.add_argument(
        "--connect-timeout",
        type=float,
        default=5.0,
        help="connection retry budget (seconds)",
    )

    lint_parser = subparsers.add_parser(
        "lint",
        help="project-aware static analysis (repro.lint); exit 0 = clean",
        description=(
            "Check the repository's contracts at the AST level: async-safety "
            "(REPRO-ASYNC01), solver-path determinism (REPRO-DET01), the "
            "pickle allowlist (REPRO-WIRE01), silent exception swallows "
            "(REPRO-ERR01), metric naming (REPRO-OBS01) and protocol frame "
            "vocabulary (REPRO-PROTO01).  Suppress inline with "
            "`# repro: ignore[RULE] -- reason`; grandfather with "
            "--write-baseline.  See docs/lint.md."
        ),
    )
    from repro.lint.cli import add_lint_arguments

    add_lint_arguments(lint_parser)

    cache_parser = subparsers.add_parser(
        "cache", help="inspect / clear / LRU-evict the artifact cache"
    )
    cache_parser.add_argument("cache_command", choices=("info", "clear", "evict"))
    cache_parser.add_argument(
        "--cache-dir",
        type=pathlib.Path,
        default=None,
        help=f"artifact cache root (default: {default_cache_dir()})",
    )
    cache_parser.add_argument(
        "--json",
        action="store_true",
        help="machine-readable cache info (count, bytes, limit, counters)",
    )
    _add_cache_size_option(cache_parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "gateway":
            return _cmd_gateway(args)
        if args.command == "worker":
            return _cmd_worker(args)
        if args.command == "cluster":
            return _cmd_cluster(args)
        if args.command == "lint":
            from repro.lint.cli import run_lint_command

            return run_lint_command(args)
        if args.metrics_port is not None:
            # `run` has no event loop of its own (the distributed executor
            # hides one on a private thread), so the endpoint gets a daemon
            # loop-thread that lives for the duration of the workload.
            from repro import obs

            metrics_server = obs.MetricsServer(port=args.metrics_port).start_in_thread()
            print(
                f"metrics on http://127.0.0.1:{metrics_server.port}/metrics",
                flush=True,
            )
            try:
                return _RUN_COMMANDS[args.workload](args)
            finally:
                metrics_server.stop_in_thread()
        return _RUN_COMMANDS[args.workload](args)
    except EngineOptionError as error:
        # Bad engine options (e.g. --workers 0) surface as a clean CLI
        # error; genuine workload failures keep their traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
