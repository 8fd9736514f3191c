"""repro.gateway — the HTTP/SSE front door of the serving stack.

The fifth layer of the repository: browsers and curl speak HTTP, the
sweep service speaks NDJSON-TCP, and this package is the translation
tier between them.  One :class:`Gateway` fronts one
:class:`~repro.service.server.SweepService`; the service's single-flight
dedup and engine cache stay the source of truth, the gateway only keeps
per-sweep stream state in memory.

The moving parts, one module each:

* :mod:`~repro.gateway.routes` — the REST route table and SSE event
  vocabulary (``REPRO-PROTO01``-linted like the TCP protocols);
* :mod:`~repro.gateway.sse` — Server-Sent-Events framing;
* :mod:`~repro.gateway.artifacts` — content-addressed result spill-out
  to a local filesystem store;
* :mod:`~repro.gateway.config` / :mod:`~repro.gateway.server` — the
  gateway itself, shipped as ``python -m repro gateway``.

``docs/gateway.md`` is the wire-facing specification; shared HTTP/1.1
plumbing lives in :mod:`repro.httpd` (also used by the metrics
endpoint).
"""

from __future__ import annotations

from repro.gateway.artifacts import (
    ArtifactStoreError,
    LocalArtifactStore,
    digest_of,
    encode_result,
)
from repro.gateway.config import GatewayConfig
from repro.gateway.routes import ROUTES, SSE_EVENTS, match_route
from repro.gateway.server import SWEEP_STATES, Gateway

__all__ = [
    "ArtifactStoreError",
    "Gateway",
    "GatewayConfig",
    "LocalArtifactStore",
    "ROUTES",
    "SSE_EVENTS",
    "SWEEP_STATES",
    "digest_of",
    "encode_result",
    "match_route",
]
