"""Client side of the sweep service protocol.

:class:`ServiceClient` is the asyncio client (one TCP connection, one
request at a time, progress callbacks as events arrive); :func:`run_sweep`
is the synchronous one-call convenience for scripts and examples::

    from repro.service import run_sweep

    result = run_sweep("127.0.0.1", 7463, "dse", {"fast": True},
                       on_progress=lambda done, total, label: ...)
    print(result.payload["selected"])

Async use::

    async with ServiceClient("127.0.0.1", 7463) as client:
        result = await client.submit("dse", {"fast": True})

Server-side failures surface as **typed exceptions** keyed by the stable
``code`` field of the terminal ``error`` event (see ``docs/protocol.md``),
so callers can distinguish a transport problem (``ConnectionError``) from

* :class:`ServiceBusyError` — per-client backpressure rejected the
  request;
* :class:`ServiceCancelledError` — the request (or its underlying
  single-flighted sweep) was cancelled;
* :class:`ServiceBadRequestError` — the request itself was invalid;
* :class:`ServiceError` — the workload failed (and the base class of all
  of the above).

A submit in flight can be aborted from a concurrent task with
:meth:`ServiceClient.cancel`; the awaiting ``submit`` then raises
:class:`ServiceCancelledError`.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import json
from typing import Any, AsyncIterator, Callable, Dict, Optional, Type

from repro.runtime.executors import ProgressCallback
from repro.service import protocol


class ServiceError(RuntimeError):
    """The server answered a request with a terminal ``error`` event.

    Attributes
    ----------
    code:
        The stable error class from the wire (``failed`` for workload
        failures; subclasses carry their own).
    """

    code = "failed"


class ServiceBusyError(ServiceError):
    """Per-client backpressure rejected the request (``code="busy"``)."""

    code = "busy"


class ServiceCancelledError(ServiceError):
    """The request or its sweep was cancelled (``code="cancelled"``)."""

    code = "cancelled"


class ServiceBadRequestError(ServiceError):
    """The request itself was invalid (``code="bad-request"``)."""

    code = "bad-request"


_ERROR_TYPES: Dict[str, Type[ServiceError]] = {
    cls.code: cls
    for cls in (ServiceError, ServiceBusyError, ServiceCancelledError, ServiceBadRequestError)
}


def error_from_event(message: Dict[str, Any]) -> ServiceError:
    """Build the typed exception for one terminal ``error`` event."""
    code = str(message.get("code", "failed"))
    return _ERROR_TYPES.get(code, ServiceError)(str(message.get("error")))


@dataclasses.dataclass
class SweepResult:
    """Outcome of one submit: payload plus how the request was served."""

    payload: Any
    key: str
    deduplicated: bool
    elapsed_seconds: float
    progress_events: int
    #: Server-minted observability id of the sweep (protocol v3); every
    #: metric sample and ``watch`` event of the run carries it, across the
    #: service, engine, coordinator and worker tiers (see :mod:`repro.obs`).
    trace: str = ""


class ServiceClient:
    """One connection to a :class:`~repro.service.server.SweepService`.

    The client is deliberately sequential: one outstanding request per
    connection (open several clients for concurrency — connections are
    cheap, and the server single-flights identical sweeps anyway).

    Parameters
    ----------
    host, port:
        Service endpoint (the ``serve`` banner prints the bound port).

    Raises
    ------
    ServiceError (or a subclass, by error ``code``)
        When the server reports a terminal error for a request.
    ConnectionError / OSError
        For transport-level failures (server gone, connection refused).
    RuntimeError
        For client-side misuse: requests before :meth:`connect`, or a
        second concurrent :meth:`submit` on one connection.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._request_ids = itertools.count(1)
        self._busy = False
        self._active_submit: Optional[str] = None

    async def connect(self, timeout: Optional[float] = None) -> "ServiceClient":
        """Open the connection; already-connected clients return immediately.

        ``timeout`` enables bounded retry-with-backoff on connection
        failures (see :func:`repro.wire.open_connection`): a server that is
        still binding its socket — the usual race when client and server
        start together, e.g. against a subprocess ``python -m repro serve``
        — is retried until the deadline instead of failing instantly.
        ``timeout=None`` keeps the historical single-attempt behaviour.
        """
        if self._writer is None:
            self._reader, self._writer = await protocol.open_connection(
                self.host, self.port, timeout=timeout, limit=protocol.MAX_MESSAGE_BYTES
            )
        return self

    async def aclose(self) -> None:
        """Close the connection (the server cancels any in-flight submit)."""
        if self._writer is not None:
            writer, self._writer, self._reader = self._writer, None, None
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def __aenter__(self) -> "ServiceClient":
        return await self.connect()

    async def __aexit__(self, *exc_info: Any) -> None:
        await self.aclose()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def _roundtrip(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one non-streaming request and return its matching reply.

        Frames for other request ids — e.g. the terminal event of an
        earlier submit that raced a :meth:`cancel` — are skipped, exactly
        as the submit loop skips them; only a connection-level error
        (``id`` null) or this request's own reply terminates the wait.
        """
        reader, writer = self._require_connection()
        request_id = message.get("id")
        writer.write(protocol.encode_message(message))
        await writer.drain()
        while True:
            reply = await protocol.read_message(reader)
            if reply is None:
                raise ConnectionError("server closed the connection")
            if reply.get("id") != request_id and reply.get("id") is not None:
                continue  # stale event from an earlier, already-settled request
            if reply.get("event") == "error":
                raise error_from_event(reply)
            return reply

    async def ping(self) -> bool:
        """Liveness probe; ``True`` when the server answers ``pong``."""
        reply = await self._roundtrip(protocol.ping_request(self._next_id()))
        return reply.get("event") == "pong"

    async def status(self) -> Dict[str, Any]:
        """Server status document (engine / cache / journal stats, limits)."""
        return await self._roundtrip(protocol.status_request(self._next_id()))

    async def cancel(self) -> bool:
        """Abort the submit currently in flight on this connection.

        Safe to call from a task running concurrently with :meth:`submit`
        (the whole point: the submit loop owns the reader, ``cancel`` only
        writes).  The awaiting ``submit`` raises
        :class:`ServiceCancelledError` once the server confirms.  Returns
        ``False`` when no submit is in flight.
        """
        request_id = self._active_submit
        if request_id is None:
            return False
        _, writer = self._require_connection()
        writer.write(protocol.encode_message(protocol.cancel_request(request_id)))
        await writer.drain()
        return True

    async def submit(
        self,
        workload: str,
        params: Optional[Dict[str, Any]] = None,
        on_progress: Optional[ProgressCallback] = None,
        trace: Optional[str] = None,
        on_accepted: Optional[Callable[[str, bool, str], None]] = None,
        sched: Optional[Any] = None,
    ) -> SweepResult:
        """Run ``workload`` on the server, streaming progress along the way.

        Parameters
        ----------
        workload:
            Registered workload name (``status()["workloads"]`` lists them).
        params:
            JSON-serialisable workload parameters; together with the name
            they form the single-flight fingerprint.
        on_progress:
            Receives ``(done, total, label)`` for every progress event.
        trace:
            Optional client-proposed observability id.  The id actually in
            force — this one, or the first submitter's when the request
            deduplicates onto an in-flight sweep — comes back on
            :attr:`SweepResult.trace`.
        on_accepted:
            Receives ``(key, deduplicated, trace)`` as soon as the server
            acknowledges the submit — i.e. the *served* trace id, before
            the result.  The gateway uses this to start bridging ``watch``
            events for a sweep while it is still running; plain callers
            can ignore it and read :attr:`SweepResult.trace` at the end.
        sched:
            Optional scheduling tag (protocol v4) — a job-class name
            (``"interactive"`` / ``"batch"``) or a ``{"class": ...,
            "priority": ...}`` object; see :mod:`repro.sched`.  A
            deduplicated submit keeps the first submitter's policy.

        Raises
        ------
        ServiceBusyError
            The server's per-client backpressure rejected the submit.
        ServiceCancelledError
            The request was cancelled — via :meth:`cancel`, or because the
            single-flighted sweep was cancelled server-side.
        ServiceBadRequestError
            Unknown workload or malformed request.
        ServiceError
            The workload raised on the server.
        """
        if self._busy:
            raise RuntimeError("one request at a time per ServiceClient connection")
        reader, writer = self._require_connection()
        request_id = self._next_id()
        self._busy = True
        self._active_submit = request_id
        try:
            writer.write(
                protocol.encode_message(
                    protocol.submit_request(
                        request_id, workload, params, trace=trace, sched=sched
                    )
                )
            )
            await writer.drain()
            key = ""
            deduplicated = False
            served_trace = ""
            progress_events = 0
            while True:
                message = await protocol.read_message(reader)
                if message is None:
                    raise ConnectionError("server closed the connection mid-request")
                if message.get("id") != request_id:
                    continue  # stale event from an aborted earlier request
                event = message.get("event")
                if event == "accepted":
                    key = str(message.get("key", ""))
                    deduplicated = bool(message.get("deduplicated", False))
                    served_trace = str(message.get("trace", ""))
                    if on_accepted is not None:
                        on_accepted(key, deduplicated, served_trace)
                elif event == "progress":
                    progress_events += 1
                    if on_progress is not None:
                        on_progress(
                            int(message.get("done", 0)),
                            int(message.get("total", 0)),
                            str(message.get("label", "")),
                        )
                elif event == "result":
                    payload = message.get("payload")
                    attached = message.get(protocol.PAYLOAD_KEY)
                    if attached is not None:
                        # Protocol v5 binary result: the JSON-encoded
                        # payload followed the header line as raw bytes.
                        payload = json.loads(bytes(attached).decode("utf-8"))
                    return SweepResult(
                        payload=payload,
                        key=key,
                        deduplicated=deduplicated,
                        elapsed_seconds=float(message.get("elapsed_seconds", 0.0)),
                        progress_events=progress_events,
                        trace=served_trace,
                    )
                elif event == "error":
                    raise error_from_event(message)
        finally:
            self._busy = False
            self._active_submit = None

    async def watch(self) -> AsyncIterator[Dict[str, Any]]:
        """Follow the server's live observability event stream (v3).

        Async generator yielding one event dict per :mod:`repro.obs` event
        the server emits (``seq`` / ``ts`` / ``type`` / optional ``trace``
        plus type-specific fields) until the stream is cancelled — via
        :meth:`cancel` from a concurrent task (the generator then simply
        ends), the generator being closed, or the server stopping.  Like
        :meth:`submit`, a watch owns the connection while it runs.
        """
        if self._busy:
            raise RuntimeError("one request at a time per ServiceClient connection")
        reader, writer = self._require_connection()
        request_id = self._next_id()
        self._busy = True
        self._active_submit = request_id  # cancel() targets the watch too
        try:
            writer.write(protocol.encode_message(protocol.watch_request(request_id)))
            await writer.drain()
            while True:
                message = await protocol.read_message(reader)
                if message is None:
                    return  # server stopped: the stream is over
                if message.get("id") != request_id:
                    continue
                event = message.get("event")
                if event == "watching":
                    continue
                if event == "obs":
                    yield dict(message.get("data") or {})
                elif event == "error":
                    if message.get("code") == "cancelled":
                        return  # cancelled by this client: a normal end
                    raise error_from_event(message)
        finally:
            self._busy = False
            self._active_submit = None

    # ------------------------------------------------------------------
    def _next_id(self) -> str:
        return f"req-{next(self._request_ids)}"

    def _require_connection(self) -> tuple:
        if self._reader is None or self._writer is None:
            raise RuntimeError("client is not connected; call connect() first")
        return self._reader, self._writer


def run_sweep(
    host: str,
    port: int,
    workload: str,
    params: Optional[Dict[str, Any]] = None,
    on_progress: Optional[ProgressCallback] = None,
    timeout: Optional[float] = None,
    connect_timeout: Optional[float] = None,
    trace: Optional[str] = None,
    sched: Optional[Any] = None,
) -> SweepResult:
    """Synchronous one-shot submit for scripts: connect, run, disconnect.

    Parameters
    ----------
    host, port:
        Service endpoint.
    workload, params, on_progress:
        As for :meth:`ServiceClient.submit`.
    timeout:
        Bound on the whole call (``asyncio.TimeoutError`` on expiry).
    connect_timeout:
        Additionally enables retry-with-backoff while the server is still
        binding (see :meth:`ServiceClient.connect`).

    Raises
    ------
    ServiceError (or its typed subclasses)
        As for :meth:`ServiceClient.submit`.

    Example
    -------
    ::

        result = run_sweep("127.0.0.1", 7463, "montecarlo",
                           {"samples": 1000, "shards": 4},
                           timeout=600, connect_timeout=10)
        print(result.payload["sigma_v_blb"])
    """

    async def _run() -> SweepResult:
        client = ServiceClient(host, port)
        await client.connect(timeout=connect_timeout)
        try:
            return await client.submit(
                workload, params, on_progress=on_progress, trace=trace, sched=sched
            )
        finally:
            await client.aclose()

    coro: Any = _run()
    if timeout is not None:
        coro = asyncio.wait_for(coro, timeout)
    return asyncio.run(coro)
