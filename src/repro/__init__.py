"""repro — reproduction of the OPTIMA in-SRAM computing modeling framework.

The package is organised in layers, bottom-up:

* :mod:`repro.circuits` — transistor-level reference substrate (the
  Cadence/SPICE stand-in): 6T SRAM cell, bit-line discharge ODE solver,
  PVT corners and Pelgrom mismatch.
* :mod:`repro.converters` — DAC / ADC / sampling-network periphery.
* :mod:`repro.core` — the OPTIMA contribution: polynomial behavioural
  models of the bit-line discharge and energy (paper Eq. 3-8), least-squares
  calibration, design-space exploration, PVT / Monte-Carlo analysis and
  speed-up measurement.
* :mod:`repro.eventsim` — event-driven simulation kernel hosting the fast
  behavioural models (the SystemVerilog stand-in).
* :mod:`repro.multiplier` — the 4-bit discharge-based in-SRAM multiplier
  case study (paper Section V).
* :mod:`repro.dnn` — NumPy DNN substrate with INT4 quantisation and
  in-memory-multiplier injection (paper Section VI).
* :mod:`repro.analysis` — one driver per paper table / figure.
* :mod:`repro.runtime` — the sweep-execution engine every driver submits
  its work to: deterministic content-hashed jobs, pluggable execution
  (auto vectorised batches / serial / cluster-distributed, all bit-identical)
  and a content-addressed on-disk artifact cache that makes warm re-runs
  of characterisation, DSE and PVT sweeps near-instant.  Also home of the
  unified CLI: ``python -m repro run dse|pvt|characterize|tables`` (see
  ``python -m repro --help`` for the "Running sweeps at scale" options).
* :mod:`repro.service` — the long-lived serving front-end on top of the
  engine (``python -m repro serve``): an asyncio TCP server that accepts
  sweep requests from many concurrent clients over newline-delimited
  JSON, single-flights identical in-flight requests, streams per-job
  progress events, and shares one size-bounded (LRU-evicting) artifact
  cache across all of them.
* :mod:`repro.cluster` — the distributed worker backend behind the engine
  (``python -m repro worker`` / ``make_executor("distributed")``): a
  coordinator that shards content-hashed job chunks across long-lived
  worker processes (local or on other hosts) with registration,
  heartbeats, one FIFO queue that free worker slots pull chunks from,
  retry-on-worker-death and chunk revocation for cancelled runs — still bit-identical to serial execution, merged in
  submission order.
* :mod:`repro.journal` — the persistent append-only job journal behind
  ``python -m repro serve --resume``: jobs a killed server (or its
  embedded cluster coordinator) left interrupted are re-enqueued on
  restart instead of dropped.
* :mod:`repro.obs` — the process-wide observability layer every tier
  reports into: a dependency-free metrics registry with a Prometheus
  exposition endpoint (``--metrics-port`` on ``run`` / ``serve`` /
  ``worker``), a structured event bus streamed live over the service's
  ``watch`` op, and cross-tier trace ids that follow each submit from
  the service through the engine, coordinator and workers (see
  ``docs/observability.md``).
* :mod:`repro.lint` — project-aware static analysis (``python -m repro
  lint``): six pure-``ast`` rules enforcing the invariants the layers
  above promise — async tiers never block the event loop, solver paths
  stay deterministically seeded, pickle stays inside the cluster protocol
  shim, failures are counted rather than silently swallowed, metric names
  obey the registry rule, and wire-frame literals stay inside the
  protocol vocabulary (see ``docs/lint.md``).  It reads source files and
  imports none of the tiers it checks.

Engine, service and cluster form the three-tier execution architecture
(see ``docs/architecture.md``): the engine is the substrate, the service
serves many clients on top of it, and the cluster plugs in underneath as
just another executor — so every driver and every service workload gains
distributed execution without code changes.  A resilience layer spans all
three tiers: cooperative sweep cancellation (wire-level ``cancel``,
disconnect-implies-cancel, coordinator chunk revocation), per-client
backpressure with structured ``busy`` errors, and the persistent job
journal — ``docs/protocol.md`` specifies the wire behaviour and
``docs/operations.md`` the deployment / recovery runbook.

The layering rule: :mod:`repro.runtime` is generic infrastructure and
imports nothing from the modelling layers (the shared NDJSON framing both
network tiers speak lives in :mod:`repro.wire`); the modelling layers
submit their sweeps *through* it and default to a serial, cache-less
engine that reproduces the historical inline loops bit-for-bit.
:mod:`repro.service` and :mod:`repro.cluster` sit above: they import the
runtime unconditionally and the modelling layers only lazily, per
workload.

What a process imports: package ``__init__`` modules do not re-export
across layers (import the submodule, e.g. ``repro.core.calibration``), so
the paper pipeline loads no DNN, serving or ``asyncio`` code.
``tests/test_import_graph.py`` enforces both rules on a fresh interpreter.
"""

__version__ = "1.10.0"

__all__ = ["__version__"]
