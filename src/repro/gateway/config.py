"""Gateway configuration: one dataclass, CLI flags map onto its fields.

Every knob of the HTTP front door lives here so the server, the CLI and
the tests agree on defaults.

>>> config = GatewayConfig(service_host="127.0.0.1", service_port=7463)
>>> config.spill_bytes
65536
"""

from __future__ import annotations

import dataclasses

__all__ = ["GatewayConfig"]


@dataclasses.dataclass
class GatewayConfig:
    """Everything a gateway needs to know.

    Attributes
    ----------
    service_host, service_port:
        The ``repro.service`` endpoint this gateway fronts.
    host, port:
        Where the gateway itself listens (``port=0`` binds ephemeral).
    artifact_root:
        Directory of the local artifact store.  Results whose canonical
        JSON encoding exceeds ``spill_bytes`` are written here and served
        by content-addressed digest instead of inline in the response.
    spill_bytes:
        Inline-result size threshold in bytes.
    max_body_bytes:
        Hard bound on any request body; larger submits are refused 413.
    sse_keepalive_seconds:
        Idle interval after which an SSE stream writes a ``:`` comment so
        intermediaries do not reap the connection.
    sse_history_frames:
        Per-sweep replay buffer depth for ``Last-Event-ID`` reconnects.
    watch_backoff_seconds:
        Pause before the watch-bridge reconnects after losing the
        service connection.
    connect_timeout_seconds:
        Retry-with-backoff budget when dialling the service.
    """

    service_host: str = "127.0.0.1"
    service_port: int = 0
    host: str = "127.0.0.1"
    port: int = 0
    artifact_root: str = "gateway-artifacts"
    spill_bytes: int = 65536
    max_body_bytes: int = 1_000_000
    sse_keepalive_seconds: float = 15.0
    sse_history_frames: int = 256
    watch_backoff_seconds: float = 0.5
    connect_timeout_seconds: float = 10.0

    def validate(self) -> "GatewayConfig":
        """Sanity-check field ranges; returns self for chaining.

        >>> GatewayConfig(spill_bytes=-1).validate()
        Traceback (most recent call last):
            ...
        ValueError: spill_bytes must be >= 0
        """
        if self.spill_bytes < 0:
            raise ValueError("spill_bytes must be >= 0")
        if self.max_body_bytes <= 0:
            raise ValueError("max_body_bytes must be > 0")
        if self.sse_history_frames < 1:
            raise ValueError("sse_history_frames must be >= 1")
        return self
