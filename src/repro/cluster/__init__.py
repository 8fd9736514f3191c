"""repro.cluster — distributed worker backend behind the sweep engine.

The third tier of the execution architecture:

* **engine** (:mod:`repro.runtime`) — deterministic content-hashed jobs,
  pluggable executors, content-addressed artifact cache;
* **service** (:mod:`repro.service`) — the long-lived asyncio front door
  that many clients submit sweeps to (single-flight, streamed progress);
* **cluster** (this package) — long-lived worker *processes*, local or on
  other hosts, that the engine's ``distributed`` executor shards chunks
  of jobs across.

Because the cluster plugs in as an executor (``make_executor("distributed",
workers=..., connect=...)``), every driver in the repository — the
48-corner DSE, PVT Monte-Carlo batches, characterisation plans, the DNN
table runs, every service workload — gains multi-process / multi-host
execution without a single driver change, and keeps the executor
contract: **bit-identical results in submission order**, whatever the
dispatch schedule, work stealing or worker deaths along the way.

Layout::

    protocol.py     cluster wire messages: pickled jobs out, binary results back
    coordinator.py  Coordinator: registration, heartbeats, span queues,
                    adaptive chunk sizing (EWMA telemetry x chunk_window),
                    straggler splits, work stealing, retry-on-worker-death,
                    index merge
    worker.py       Worker: long-lived job runner (python -m repro worker)
    executor.py     DistributedExecutor: the make_executor("distributed")
                    strategy owning the coordinator + local worker pool
    control.py      status/ping/watch helpers (python -m repro cluster
                    status [--watch]); ClusterWatchView folds the live
                    repro.obs event stream into the per-worker table

Per-worker throughput accounting lives in :mod:`repro.telemetry`; the
scheduling policy it drives is documented in ``docs/scheduling.md``.

Quickstart — a local four-worker pool behind the CLI::

    python -m repro run pvt --executor distributed --workers 4

The same, with the endpoint pinned so other hosts can join mid-sweep::

    python -m repro run dse --executor distributed --workers 4 \\
        --connect 0.0.0.0:7500
    # elsewhere:
    python -m repro worker --connect coordinator-host:7500
    python -m repro cluster status --connect coordinator-host:7500

Library use::

    from repro.runtime import SweepEngine, ArtifactCache, make_executor

    executor = make_executor("distributed", workers=4)
    engine = SweepEngine(executor, cache=ArtifactCache())
    result = explore_design_space(suite, engine=engine)   # sharded
    executor.close()                                      # or context-manage

Cache hits are resolved engine-side *before* dispatch, so warm shards
never leave the host; only genuine misses cross the wire.  Workers check
in with the coordinator's exact code version, so a stale worker can never
contribute a shard computed by different model physics.
"""

from __future__ import annotations

from repro.cluster.control import (
    ClusterWatchView,
    ControlError,
    fetch_status,
    format_status,
    ping,
    watch_status,
)
from repro.cluster.coordinator import ClusterError, Coordinator, WorkerInfo
from repro.cluster.executor import DistributedExecutor
from repro.cluster.protocol import CLUSTER_PROTOCOL_VERSION
from repro.cluster.worker import Worker, WorkerError, parse_address, run_worker

__all__ = [
    "CLUSTER_PROTOCOL_VERSION",
    "ClusterError",
    "ClusterWatchView",
    "ControlError",
    "Coordinator",
    "DistributedExecutor",
    "Worker",
    "WorkerError",
    "WorkerInfo",
    "fetch_status",
    "format_status",
    "parse_address",
    "ping",
    "run_worker",
    "watch_status",
]
