"""Unified command-line front door: ``python -m repro``.

Every paper figure / table driver is reachable through one entry point and
runs through the :class:`repro.runtime.SweepEngine`.  ``run`` and ``serve``
share one workload registry (:mod:`repro.service.workloads`): ``run NAME``
calls the registered workload with ``{"fast": ...}`` on a local engine,
prints its document as text, and ``--json`` writes the served document
plus ``elapsed_seconds``::

    python -m repro run dse          # 48-corner design-space exploration
    python -m repro run pvt          # Fig. 5 sweeps + Fig. 8 robustness
    python -m repro run characterize # reference characterisation sweeps
    python -m repro run tables       # DNN accuracy tables (Table II protocol)
    python -m repro serve            # long-lived sweep service (repro.service)
    python -m repro gateway          # HTTP/SSE front door over a service (repro.gateway)
    python -m repro worker           # long-lived cluster worker (repro.cluster)
    python -m repro cluster status   # live coordinator / worker statistics
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
  hot path — and everything else runs serially.  ``--executor serial``
  pins one job at a time.  Results are bit-identical either way.
* ``--executor distributed --workers N`` shards the jobs (characterisation
  operating points, design-space corners, PVT sensitivity points) across N
  long-lived worker *processes* through the cluster coordinator
  (:mod:`repro.cluster`) — still bit-identical, since jobs are
  deterministic work units and results merge in submission order.  It is
  the one multi-process path.  Add ``--connect H:P`` to
  bind the cluster endpoint on a routable address so additional
  ``python -m repro worker --connect H:P`` processes (any host) join the
  pool mid-run; ``python -m repro cluster status --connect H:P`` shows
  live worker / queue / dispatch / retry statistics.
* ``--chunksize K`` tunes how many jobs ride in one cluster chunk
  (default: one chunk per worker for a sweep with a vectorised
  ``batch_fn``, about four chunks per worker otherwise), trading scheduling
  overhead against load balance — free worker slots pull chunks from one
  queue, so a slow worker never holds more than its in-flight chunks (see
  ``docs/scheduling.md``).
* Artifact caching is on by default (``--cache-dir`` overrides the location,
  ``--no-cache`` disables it).  Artifacts are content-addressed by the sweep
  plan, technology card, operating conditions and code version, so a warm
  re-run of a characterisation never touches the reference solver and a
  repeated exploration is served from disk in milliseconds.
* ``--fast`` switches every workload to its reduced test-scale preset;
  ``--json PATH`` additionally writes the workload's document as JSON.
* ``--max-bytes N`` (accepts ``K``/``M``/``G`` suffixes) bounds the cache:
  least-recently-used artifacts are evicted whenever a write pushes the
  cache over the limit.  ``python -m repro cache evict --max-bytes N``
  applies the same policy on demand.

Serving sweeps to many clients
------------------------------
``python -m repro serve --host H --port P`` starts the long-lived
:mod:`repro.service` front door on top of the same engine: concurrent
clients submit the ``run`` workloads (and the service-only ``dnn``,
``eventsim`` and ``montecarlo``) over a newline-delimited-JSON TCP
protocol, identical in-flight requests are
deduplicated (single-flight), and per-job progress events stream back to
every client (see :mod:`repro.service` for the client API).

The serve command also owns the resilience knobs: per-client backpressure
(``--max-inflight``, ``--max-queued-bytes`` — over-budget submits are
answered with a structured ``busy`` error), and
the persistent job journal (``--journal PATH``, ``--no-journal``) with
``--resume`` to re-enqueue whatever a killed server left interrupted.
See ``docs/operations.md`` for deployment guidance and the recovery
runbook, and ``docs/protocol.md`` for the wire protocol.

``python -m repro gateway --service H:P`` puts the HTTP/SSE front door
(:mod:`repro.gateway`) in front of a running service: REST submits,
Server-Sent-Events progress streams and content-addressed artifact spill
(``--artifact-root``, ``--spill-bytes``).  See ``docs/gateway.md``.

Observability
-------------
``--metrics-port N`` (on ``run``, ``serve`` and ``worker``) serves the
process-wide Prometheus metrics (:mod:`repro.obs`) on
``http://127.0.0.1:N/metrics`` for the lifetime of the command; ``0``
binds an ephemeral port, printed on start.  See ``docs/observability.md``
for the metric reference and the trace-id propagation model.
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

_SCALE_EPILOG = """\
running sweeps at scale:
  (no --executor)                   auto: vectorised batches for sweeps
                                    with a batch_fn, serial otherwise
  --executor serial                 one job at a time
  --executor distributed --workers 8  shard over long-lived cluster workers
  --chunksize 4                     jobs per cluster chunk
  --connect 0.0.0.0:7500            cluster endpoint (external workers join)
  --no-cache / --cache-dir DIR      control the content-addressed artifact cache
  --max-bytes 500M                  LRU-bound the cache (also: cache evict)
  --fast                            reduced test-scale presets
  --metrics-port 9100               serve Prometheus metrics while running
Auto, serial and distributed execution produce bit-identical results; the
cache is keyed by plan + technology + conditions + code version, so warm
re-runs skip the reference solver entirely.  `python -m repro serve`
exposes the same engine to many concurrent clients over TCP (see
`serve --help`); `python -m repro worker` joins a cluster endpoint.

Full documentation lives in docs/: docs/architecture.md (the three-tier
execution architecture and its data flows), docs/protocol.md (the NDJSON
wire protocols of both listeners), docs/scheduling.md (cluster chunking,
the dispatch queue and retries), docs/operations.md
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
        # as whole-chunk NumPy batches and everything else serially.
        # Bit-identical either way; an explicit --executor always pins the
        # strategy.
        for flag, value in (
            ("--workers", args.workers),
            ("--chunksize", args.chunksize),
            ("--connect", args.connect),
        ):
            if value is not None:
                raise EngineOptionError(f"{flag} requires an explicit --executor")
        executor = None
    else:
        # make_executor rejects a cluster flag on 'serial'.
        try:
            executor = make_executor(
                args.executor,
                workers=args.workers,
                chunksize=args.chunksize,
                connect=args.connect,
            )
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
    return SweepEngine(executor, cache=cache, progress=progress)


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
        choices=("serial", "distributed"),
        default=None,
        help="execution strategy (default: auto — vectorised batches for "
        "sweeps that carry a batch_fn, serial otherwise; all strategies "
        "are bit-identical)",
    )
    group.add_argument(
        "--workers",
        type=int,
        default=None,
        help="cluster worker processes (distributed)",
    )
    group.add_argument(
        "--chunksize",
        type=int,
        default=None,
        help="jobs per dispatched cluster chunk (distributed)",
    )
    group.add_argument(
        "--connect",
        default=None,
        metavar="HOST:PORT",
        help="cluster endpoint bind address (distributed executor; external "
        "`python -m repro worker` processes join here)",
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
        "--fast", action="store_true", help="reduced test-scale presets"
    )
    group.add_argument(
        "--json", type=pathlib.Path, default=None, help="write results as JSON to PATH"
    )
    group.add_argument(
        "--quiet", action="store_true", help="suppress the progress line"
    )


# ----------------------------------------------------------------------
# run subcommand: a client of the service workload registry
# ----------------------------------------------------------------------
def _dse_text(document: Dict[str, Any]) -> str:
    from repro.analysis.design_space import format_table1

    return (
        f"design-space exploration: {document['corner_count']} corners evaluated\n\n"
        f"Table I reproduction (measured vs paper):\n{format_table1(document['selected'])}"
    )


def _pvt_text(document: Dict[str, Any]) -> str:
    final = document["final_v_blb"]
    lines = ["Fig. 5: PVT influence on the bit-line discharge (reference simulator)"]
    for vdd, volts in final["supply"].items():
        lines.append(f"  VDD={float(vdd):.1f} V: final V_BLB = {volts:.3f} V")
    for celsius, volts in final["temperature"].items():
        lines.append(f"  T={float(celsius):5.1f} degC: final V_BLB = {volts:.3f} V")
    for name, volts in final["corner"].items():
        lines.append(f"  corner {name:<8}: final V_BLB = {volts:.3f} V")
    for sample_time, sigma_mv in document["mismatch_sigma_mv"].items():
        lines.append(f"  sigma(V_BLB) at {float(sample_time) * 1e9:.1f} ns = {sigma_mv:5.2f} mV")
    report = document["fom_robustness"]
    supply, temperature = report["worst_supply"], report["worst_temperature"]
    lines += [
        "",
        "Fig. 8: robustness of the fom corner (OPTIMA models via SweepEngine)",
        f"  {document['fom_corner']['name']}: nominal eps={report['nominal_error_lsb']:.2f} LSB, "
        f"sigma_max={report['worst_sigma_lsb']:.2f} LSB, "
        f"worst VDD error {supply['error_lsb']:.2f} LSB @ {supply['vdd']:.2f} V, "
        f"worst T error {temperature['error_lsb']:.2f} LSB @ {temperature['celsius']:.0f} degC",
    ]
    return "\n".join(lines)


def _characterize_text(document: Dict[str, Any]) -> str:
    lines = [f"  {sweep:<17} {count:6d} records" for sweep, count in document["records"].items()]
    lines.append(f"  {'total':<17} {document['total_records']:6d} records")
    return "\n".join(lines)


def _tables_text(document: Dict[str, Any]) -> str:
    from types import SimpleNamespace

    from repro.analysis.dnn_tables import format_accuracy_table, paper_table2_reference

    # format_accuracy_table reads only the top1 / top5 of each report.
    results = {
        model: {mode: SimpleNamespace(**cell) for mode, cell in reports.items()}
        for model, reports in document["accuracy"].items()
    }
    return (
        "Table II protocol (measured vs paper):\n"
        + format_accuracy_table(results, paper_table2_reference())
    )


#: Workloads ``run`` offers, each with the text rendering of its document.
_RUN_FORMATTERS = {
    "dse": _dse_text,
    "pvt": _pvt_text,
    "characterize": _characterize_text,
    "tables": _tables_text,
}


def _cmd_run(args: argparse.Namespace) -> int:
    """Run one registered workload on a local engine and print its document."""
    from repro.service.workloads import get_workload

    engine = build_engine(args)
    try:
        start = time.perf_counter()
        document = get_workload(args.workload)({"fast": args.fast}, engine)
        elapsed = time.perf_counter() - start
        print(_RUN_FORMATTERS[args.workload](document))
        print(f"\n{engine.describe()}")
        print(f"total wall time: {elapsed:.2f} s")
    finally:
        close = getattr(engine.executor, "close", None)
        if callable(close):  # distributed executor: stop spawned workers
            close()
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        document = {**document, "elapsed_seconds": elapsed}
        args.json.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.json}")
    return 0


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
    service = SweepService(
        engine,
        host=args.host,
        port=args.port,
        max_inflight=args.max_inflight,
        max_queued_bytes=args.max_queued_bytes,
        journal=journal,
    )

    async def _serve() -> None:
        from repro.obs.http import MetricsServer

        host, port = await service.start()
        print(
            f"serving sweeps on {host}:{port} "
            f"(workloads: {', '.join(workload_names())})",
            flush=True,
        )
        metrics_server = None
        if args.metrics_port is not None:
            metrics_server = await MetricsServer(port=args.metrics_port).start()
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
        ).validate()
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    async def _serve() -> None:
        from repro.obs.http import MetricsServer

        gateway = await Gateway(config).start()
        print(
            f"gateway on {config.host}:{gateway.port} "
            f"(service {config.service_host}:{config.service_port}, "
            f"spill over {config.spill_bytes} bytes to {config.artifact_root})",
            flush=True,
        )
        metrics_server = None
        if args.metrics_port is not None:
            metrics_server = await MetricsServer(port=args.metrics_port).start()
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
    from repro.cluster import ControlError, fetch_status, format_status

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
        print(
            json.dumps(
                {
                    "root": str(cache.root),
                    "count": len(cache),
                    "bytes": cache.size_bytes(),
                    "max_bytes": cache.max_bytes,
                    "stats": dataclasses.asdict(cache.stats),
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
            "behind one sweep-execution engine (auto, serial or distributed "
            "execution) and a content-addressed artifact cache."
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
        choices=sorted(_RUN_FORMATTERS),
        help="dse: 48-corner exploration; pvt: Fig. 5/8 sweeps; "
        "characterize: reference sweeps; tables: DNN accuracy tables",
    )
    _add_engine_options(run_parser)

    serve_parser = subparsers.add_parser(
        "serve",
        help="serve sweep requests to many clients (repro.service)",
        description=(
            "Long-lived sweep service: accepts workload requests from "
            "concurrent clients over newline-delimited JSON, single-flights "
            "identical in-flight requests and streams per-job progress "
            "events back to every client.  It serves the workload registry "
            "`run` uses: a served document equals `run NAME --json` minus "
            "elapsed_seconds."
        ),
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address")
    serve_parser.add_argument(
        "--port", type=int, default=7463, help="TCP port (0 picks a free port)"
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
            "stream progress as SSE and fetch spilled results from the "
            "content-addressed artifact store.  See docs/gateway.md."
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
        "exercising pull dispatch and worker-death retry (chaos tests only)",
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
            from repro.obs.http import MetricsServer

            metrics_server = MetricsServer(port=args.metrics_port).start_in_thread()
            print(
                f"metrics on http://127.0.0.1:{metrics_server.port}/metrics",
                flush=True,
            )
            try:
                return _cmd_run(args)
            finally:
                metrics_server.stop_in_thread()
        return _cmd_run(args)
    except EngineOptionError as error:
        # Bad engine options (e.g. --workers 0) surface as a clean CLI
        # error; genuine workload failures keep their traceback.
        print(f"error: {error}", file=sys.stderr)
        return 2
