"""The gateway server: REST + SSE front door over one ``repro.service``.

Every request arrives over plain HTTP/1.1 (:mod:`repro.httpd`), resolves
against the route table (:mod:`repro.gateway.routes`) and is served from
three kinds of machinery:

* **submits** open a dedicated :class:`~repro.service.client.ServiceClient`
  connection per sweep and run it as an asyncio task; the service's
  single-flight dedup computes identical work once;
* **event streams** fan frames out to per-subscriber queues with a
  per-sweep monotonic ``seq`` (the SSE ``id:``), replayable across
  reconnects via ``Last-Event-ID``; a dedicated ``watch`` connection
  bridges the service's :mod:`repro.obs` events into the streams of the
  sweeps they belong to, keyed by trace id;
* **results** above the spill threshold land in the
  :class:`~repro.gateway.artifacts.LocalArtifactStore` and are served
  content-addressed.

The gateway holds no durable state of its own — sweeps live in memory
for the lifetime of the process, artifacts in the store, truth in the
service.  ``docs/gateway.md`` is the wire-facing spec.
"""

from __future__ import annotations

import asyncio
import dataclasses
import time
import uuid
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro import httpd, obs
from repro.gateway import sse
from repro.gateway.artifacts import (
    DIGEST_RE,
    ArtifactStoreError,
    LocalArtifactStore,
    encode_result,
)
from repro.gateway.config import GatewayConfig
from repro.gateway.routes import allowed_methods, match_route
from repro.service.client import (
    ServiceCancelledError,
    ServiceClient,
    ServiceError,
)

__all__ = ["Gateway", "SWEEP_STATES"]

#: Every lifecycle state a gateway-tracked sweep can be in.
SWEEP_STATES = ("running", "completed", "failed", "cancelled")

#: Every field a ``POST /v1/sweeps`` body may carry; any other is a 400.
SUBMIT_FIELDS = ("workload", "params", "trace")

_REQUESTS_TOTAL = obs.counter(
    "repro_gateway_requests_total",
    "HTTP requests answered by the gateway, by route and status code.",
    labels=("route", "code"),
)
_REQUEST_SECONDS = obs.histogram(
    "repro_gateway_request_seconds",
    "Gateway request handling latency by route (SSE: stream lifetime).",
    labels=("route",),
)
_SWEEPS_TOTAL = obs.counter(
    "repro_gateway_sweeps_total",
    "Sweeps reaching a terminal state, by outcome.",
    labels=("outcome",),
)
_SWEEPS_INFLIGHT = obs.gauge(
    "repro_gateway_sweeps_inflight_total",
    "Sweeps currently running through this gateway.",
)
_SSE_STREAMS_TOTAL = obs.counter(
    "repro_gateway_sse_streams_total",
    "SSE streams ended, by how (closed / disconnected).",
    labels=("outcome",),
)
_SSE_FRAMES_TOTAL = obs.counter(
    "repro_gateway_sse_frames_total",
    "SSE frames published to subscribers, by event name.",
    labels=("event",),
)
_SPILLS_TOTAL = obs.counter(
    "repro_gateway_artifact_spills_total",
    "Results spilled to the artifact store instead of travelling inline.",
)
_SPILLED_BYTES = obs.counter(
    "repro_gateway_artifact_spilled_bytes",
    "Total bytes written to the artifact store by result spills.",
)
_ARTIFACT_FETCHES_TOTAL = obs.counter(
    "repro_gateway_artifact_fetches_total",
    "GET /v1/artifacts requests, by status code.",
    labels=("code",),
)
_WATCH_EVENTS_TOTAL = obs.counter(
    "repro_gateway_watch_events_total",
    "Service observability events seen by the watch bridge.",
)


@dataclasses.dataclass
class SweepRecord:
    """Everything this gateway knows about one submitted sweep."""

    sweep_id: str
    workload: str
    params: Dict[str, Any]
    state: str = "running"
    key: str = ""
    deduplicated: bool = False
    trace: str = ""
    done: int = 0
    total: int = 0
    label: str = ""
    progress_events: int = 0
    elapsed_seconds: float = 0.0
    error: str = ""
    error_code: str = ""
    payload: Any = None
    payload_inline: bool = False
    artifact_digest: str = ""
    result_bytes: int = 0
    seq: int = 0
    history: Deque[Tuple[int, str, Any]] = dataclasses.field(
        default_factory=deque
    )
    subscribers: List["asyncio.Queue[Tuple[int, str, Any]]"] = dataclasses.field(
        default_factory=list
    )
    client: Optional[ServiceClient] = None
    task: Optional[asyncio.Task] = None
    finished: asyncio.Event = dataclasses.field(default_factory=asyncio.Event)


class Gateway:
    """The HTTP/SSE front door in front of one sweep service."""

    def __init__(self, config: GatewayConfig):
        self.config = config.validate()
        self.store = LocalArtifactStore(config.artifact_root)
        self._sweeps: Dict[str, SweepRecord] = {}
        self._by_trace: Dict[str, SweepRecord] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._watch_task: Optional[asyncio.Task] = None
        self._background: set = set()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        return self.config.port

    async def start(self) -> "Gateway":
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        self.config.port = self._server.sockets[0].getsockname()[1]
        self._watch_task = asyncio.create_task(self._watch_loop())
        return self

    async def stop(self) -> None:
        if self._watch_task is not None:
            self._watch_task.cancel()
            try:
                await self._watch_task
            except (asyncio.CancelledError, ConnectionError, OSError):
                pass  # repro: ignore[REPRO-ERR01] -- shutdown path: the bridge was told to stop; its death rattle carries no information
            self._watch_task = None
        for task in list(self._background):
            task.cancel()
        if self._background:
            await asyncio.gather(*self._background, return_exceptions=True)
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    def _track(self, task: asyncio.Task) -> None:
        self._background.add(task)
        task.add_done_callback(self._background.discard)

    # ------------------------------------------------------------------
    # Event fan-out
    # ------------------------------------------------------------------
    def _publish(self, record: SweepRecord, event: str, data: Any) -> None:
        record.seq += 1
        frame = (record.seq, event, data)
        record.history.append(frame)
        while len(record.history) > self.config.sse_history_frames:
            record.history.popleft()
        _SSE_FRAMES_TOTAL.inc(event=event)
        for queue in list(record.subscribers):
            queue.put_nowait(frame)

    # ------------------------------------------------------------------
    # Sweep execution
    # ------------------------------------------------------------------
    async def _run_sweep(self, record: SweepRecord, trace: Optional[str]) -> None:
        _SWEEPS_INFLIGHT.inc()
        client = ServiceClient(self.config.service_host, self.config.service_port)
        record.client = client

        def accepted(key: str, deduplicated: bool, served_trace: str) -> None:
            record.key = key
            record.deduplicated = deduplicated
            record.trace = served_trace
            if served_trace:
                self._by_trace[served_trace] = record

        def progress(done: int, total: int, label: str) -> None:
            record.done, record.total, record.label = done, total, label
            record.progress_events += 1
            self._publish(
                record, "progress", {"done": done, "total": total, "label": label}
            )

        try:
            await client.connect(timeout=self.config.connect_timeout_seconds)
            result = await client.submit(
                record.workload,
                record.params,
                on_progress=progress,
                trace=trace,
                on_accepted=accepted,
            )
            record.elapsed_seconds = result.elapsed_seconds
            record.trace = result.trace or record.trace
            data = encode_result(result.payload)
            record.result_bytes = len(data)
            if len(data) > self.config.spill_bytes:
                record.artifact_digest = self.store.put(data)
                _SPILLS_TOTAL.inc()
                _SPILLED_BYTES.inc(len(data))
            else:
                record.payload = result.payload
                record.payload_inline = True
            record.state = "completed"
        except ServiceCancelledError as error:
            record.state = "cancelled"
            record.error, record.error_code = str(error), "cancelled"
        except ArtifactStoreError as error:
            record.state = "failed"
            record.error, record.error_code = str(error), "artifact-store"
        except ServiceError as error:
            record.state = "failed"
            record.error, record.error_code = str(error), error.code
        except (ConnectionError, OSError, asyncio.TimeoutError) as error:
            record.state = "failed"
            record.error = f"service unreachable: {error}"
            record.error_code = "service-unreachable"
        except asyncio.CancelledError:
            record.state = "cancelled"
            record.error, record.error_code = "cancelled by gateway", "cancelled"
        finally:
            await client.aclose()
            record.client = None
            if record.trace:
                self._by_trace.pop(record.trace, None)
            _SWEEPS_INFLIGHT.inc(-1)
            _SWEEPS_TOTAL.inc(outcome=record.state)
            self._publish(record, "done", self._terminal_document(record))
            record.finished.set()

    async def _watch_loop(self) -> None:
        """Bridge the service's obs event stream into SSE subscribers."""
        while True:
            client = ServiceClient(self.config.service_host, self.config.service_port)
            try:
                await client.connect(timeout=self.config.connect_timeout_seconds)
                async for event in client.watch():
                    _WATCH_EVENTS_TOTAL.inc()
                    record = self._by_trace.get(str(event.get("trace") or ""))
                    if record is not None and record.state == "running":
                        self._publish(record, "obs", event)
            except (ConnectionError, OSError, asyncio.TimeoutError, ServiceError):
                pass
            finally:
                await client.aclose()
            await asyncio.sleep(self.config.watch_backoff_seconds)

    # ------------------------------------------------------------------
    # Documents
    # ------------------------------------------------------------------
    def _status_document(self, record: SweepRecord) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "id": record.sweep_id,
            "state": record.state,
            "workload": record.workload,
            "key": record.key,
            "trace": record.trace,
            "deduplicated": record.deduplicated,
            "progress": {
                "done": record.done,
                "total": record.total,
                "label": record.label,
                "events": record.progress_events,
            },
            "seq": record.seq,
            "links": {
                "self": f"/v1/sweeps/{record.sweep_id}",
                "result": f"/v1/sweeps/{record.sweep_id}/result",
                "events": f"/v1/sweeps/{record.sweep_id}/events",
            },
        }
        if record.state != "running":
            document.update(self._terminal_document(record))
        return document

    def _terminal_document(self, record: SweepRecord) -> Dict[str, Any]:
        document: Dict[str, Any] = {
            "id": record.sweep_id,
            "state": record.state,
            "workload": record.workload,
            "key": record.key,
            "trace": record.trace,
            "deduplicated": record.deduplicated,
            "elapsed_seconds": record.elapsed_seconds,
            "progress_events": record.progress_events,
            "result_bytes": record.result_bytes,
            "result_url": f"/v1/sweeps/{record.sweep_id}/result",
        }
        if record.artifact_digest:
            document["artifact"] = record.artifact_digest
            document["artifact_url"] = f"/v1/artifacts/{record.artifact_digest}"
        if record.error:
            document["error"] = record.error
            document["error_code"] = record.error_code
        return document

    # ------------------------------------------------------------------
    # HTTP dispatch
    # ------------------------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = time.monotonic()
        route_label, code = "unmatched", 0
        try:
            try:
                request = await httpd.read_request(
                    reader, max_body_bytes=self.config.max_body_bytes
                )
            except httpd.HttpError as error:
                code = error.status
                writer.write(httpd.error_response(error.status, str(error)))
                await writer.drain()
                return
            if request is None:
                return
            matched = match_route(request.method, request.path)
            if matched is None:
                allowed = allowed_methods(request.path)
                if allowed:
                    code = 405
                    writer.write(
                        httpd.render_response(
                            405,
                            httpd.error_body(405, "method not allowed"),
                            extra_headers=(("Allow", ", ".join(allowed)),),
                        )
                    )
                else:
                    code = 404
                    writer.write(
                        httpd.error_response(404, "no such route", code="not-found")
                    )
                await writer.drain()
                return
            route, placeholders = matched
            route_label = route
            if route == "GET /v1/sweeps/{id}/events":
                code = await self._serve_events(
                    reader, writer, request, placeholders["id"]
                )
                return
            try:
                code, response = self._dispatch(route, placeholders, request)
            except httpd.HttpError as error:
                code = error.status
                response = httpd.error_response(error.status, str(error))
            writer.write(response)
            await writer.drain()
        except (asyncio.TimeoutError, ConnectionError, OSError):
            code = code or 499
        finally:
            if code:
                _REQUESTS_TOTAL.inc(route=route_label, code=str(code))
                _REQUEST_SECONDS.observe(
                    time.monotonic() - started, route=route_label
                )
            try:
                writer.close()
            except Exception:  # repro: ignore[REPRO-ERR01] -- closing an already-broken client socket has nothing left to report
                pass

    def _dispatch(
        self, route: str, placeholders: Dict[str, str], request: httpd.HttpRequest
    ) -> Tuple[int, bytes]:
        if route == "GET /healthz":
            return 200, httpd.json_response(
                200,
                {
                    "status": "ok",
                    "service": f"{self.config.service_host}:{self.config.service_port}",
                    "sweeps": len(self._sweeps),
                    "artifact_store": self.store.stats(),
                },
            )
        if route == "POST /v1/sweeps":
            return self._submit(request)
        if route == "GET /v1/artifacts/{digest}":
            return self._artifact(placeholders["digest"])
        record = self._sweeps.get(placeholders["id"])
        if record is None:
            return 404, httpd.error_response(404, "no such sweep", code="not-found")
        if route == "GET /v1/sweeps/{id}":
            return 200, httpd.json_response(200, self._status_document(record))
        if route == "GET /v1/sweeps/{id}/result":
            return self._result(record)
        if route == "DELETE /v1/sweeps/{id}":
            return self._cancel(record)
        return 500, httpd.error_response(500, f"unhandled route {route}")

    def _submit(self, request: httpd.HttpRequest) -> Tuple[int, bytes]:
        try:
            workload, params, trace = _parse_submit(request.json())
        except (httpd.HttpError, ValueError) as error:
            return 400, httpd.error_response(400, str(error), code="bad-request")
        sweep_id = f"sw-{uuid.uuid4().hex[:12]}"
        record = SweepRecord(sweep_id=sweep_id, workload=workload, params=params)
        self._sweeps[sweep_id] = record
        record.task = asyncio.ensure_future(self._run_sweep(record, trace))
        self._track(record.task)
        return 202, httpd.json_response(202, self._status_document(record))

    def _result(self, record: SweepRecord) -> Tuple[int, bytes]:
        if record.state == "running":
            return 202, httpd.json_response(202, self._status_document(record))
        if record.state == "cancelled":
            return 409, httpd.error_response(
                409, record.error or "sweep was cancelled", code="cancelled"
            )
        if record.state == "failed":
            return 500, httpd.error_response(
                500, record.error or "sweep failed", code=record.error_code or "failed"
            )
        if record.artifact_digest:
            location = f"/v1/artifacts/{record.artifact_digest}"
            body = encode_result(
                {"artifact": record.artifact_digest, "location": location}
            )
            return 307, httpd.render_response(
                307, body, extra_headers=(("Location", location),)
            )
        return 200, httpd.render_response(200, encode_result(record.payload))

    def _cancel(self, record: SweepRecord) -> Tuple[int, bytes]:
        if record.state != "running":
            return 409, httpd.error_response(
                409, f"sweep is already {record.state}", code="conflict"
            )
        client = record.client
        if client is not None:
            task = asyncio.ensure_future(self._request_cancel(client, record))
            self._track(task)
        elif record.task is not None:
            record.task.cancel()
        return 202, httpd.json_response(
            202, {"id": record.sweep_id, "state": "cancelling"}
        )

    @staticmethod
    async def _request_cancel(client: ServiceClient, record: SweepRecord) -> None:
        try:
            requested = await client.cancel()
        except (ConnectionError, OSError, RuntimeError):
            requested = False
        if not requested and record.task is not None and record.state == "running":
            record.task.cancel()

    def _artifact(self, digest: str) -> Tuple[int, bytes]:
        try:
            if not DIGEST_RE.match(digest):
                raise KeyError(digest)
            data = self.store.get(digest)
        except KeyError:
            _ARTIFACT_FETCHES_TOTAL.inc(code="404")
            return 404, httpd.error_response(
                404, "no such artifact", code="not-found"
            )
        except ArtifactStoreError as error:
            _ARTIFACT_FETCHES_TOTAL.inc(code="500")
            return 500, httpd.error_response(500, str(error), code="artifact-store")
        _ARTIFACT_FETCHES_TOTAL.inc(code="200")
        return 200, httpd.render_response(
            200, data, content_type="application/octet-stream",
            extra_headers=(("X-Repro-Digest", digest),),
        )

    # ------------------------------------------------------------------
    # SSE streaming
    # ------------------------------------------------------------------
    async def _serve_events(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request: httpd.HttpRequest,
        sweep_id: str,
    ) -> int:
        record = self._sweeps.get(sweep_id)
        if record is None:
            writer.write(httpd.error_response(404, "no such sweep", code="not-found"))
            await writer.drain()
            return 404
        cursor = self._replay_cursor(request, record)
        queue: "asyncio.Queue[Tuple[int, str, Any]]" = asyncio.Queue()
        record.subscribers.append(queue)
        outcome = "closed"
        disconnect = asyncio.ensure_future(reader.read(1))
        try:
            writer.write(sse.stream_preamble())
            terminal_sent = False
            if cursor is None:
                # Fresh subscriber (or a reconnect we cannot replay): one
                # snapshot of current state, then live frames only.
                writer.write(
                    sse.format_sse(record.seq, "snapshot",
                                   self._status_document(record))
                )
                terminal_sent = record.state != "running"
            else:
                for seq, event, data in list(record.history):
                    if seq > cursor:
                        writer.write(sse.format_sse(seq, event, data))
                        terminal_sent = terminal_sent or event == "done"
            # A finished sweep's last frame is its `done`: a cursor at or
            # past it has nothing left to wait for.
            terminal_sent = terminal_sent or record.finished.is_set()
            await writer.drain()
            while not terminal_sent:
                getter = asyncio.ensure_future(queue.get())
                finished, _ = await asyncio.wait(
                    {getter, disconnect},
                    timeout=self.config.sse_keepalive_seconds,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if disconnect in finished:
                    getter.cancel()
                    outcome = "disconnected"
                    break
                if getter not in finished:
                    getter.cancel()
                    writer.write(sse.KEEPALIVE)
                    await writer.drain()
                    continue
                seq, event, data = await getter  # already done: instant
                writer.write(sse.format_sse(seq, event, data))
                await writer.drain()
                terminal_sent = event == "done"
        except (ConnectionError, OSError, asyncio.TimeoutError):
            outcome = "disconnected"
        finally:
            disconnect.cancel()
            try:
                record.subscribers.remove(queue)
            except ValueError:
                pass
            _SSE_STREAMS_TOTAL.inc(outcome=outcome)
        return 200

    @staticmethod
    def _replay_cursor(
        request: httpd.HttpRequest, record: SweepRecord
    ) -> Optional[int]:
        """Sequence number to resume after, when replay is possible."""
        raw = request.headers.get("last-event-id")
        if raw is None:
            return None
        try:
            cursor = int(raw)
        except ValueError:
            return None
        oldest = record.history[0][0] if record.history else record.seq + 1
        if cursor < oldest - 1:
            return None  # the window has moved past the cursor: resync
        return cursor


def _parse_submit(document: Any) -> Tuple[str, Dict[str, Any], Optional[str]]:
    """``(workload, params, trace)`` of a submit body.

    ``ValueError`` names the first problem: a non-object body, a field
    outside :data:`SUBMIT_FIELDS`, or a field of the wrong type.  An
    absent ``params`` means ``{}``; a present one must be an object.
    """
    if not isinstance(document, dict):
        raise ValueError("submit body must be a JSON object")
    unknown = sorted(set(document) - set(SUBMIT_FIELDS))
    if unknown:
        raise ValueError(
            f"unknown submit field(s): {', '.join(unknown)} "
            f"(allowed: {', '.join(SUBMIT_FIELDS)})"
        )
    workload = document.get("workload")
    if not isinstance(workload, str) or not workload:
        raise ValueError("submit requires a non-empty 'workload'")
    params = document.get("params", {})
    if not isinstance(params, dict):
        raise ValueError("'params' must be a JSON object")
    trace = document.get("trace")
    if trace is not None and not isinstance(trace, str):
        raise ValueError("'trace' must be a string")
    return workload, params, trace
