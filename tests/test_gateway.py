"""Tests for the HTTP/SSE gateway (:mod:`repro.gateway`).

Covers the tentpole guarantees:

* REST submit / status / result / cancel against a live in-process
  service, with results **bit-identical** to a direct
  :class:`~repro.service.client.ServiceClient` run;
* SSE progress streaming with a per-sweep monotonic ``seq`` (the SSE
  ``id:``), ``Last-Event-ID`` replay, keepalives, and clean teardown
  when the client disconnects mid-stream;
* content-addressed artifact spill above the ``spill_bytes`` threshold,
  served back via ``GET /v1/artifacts/{digest}``;
* structured errors for every failure path: oversized bodies (413),
  malformed submits and unknown submit fields (400), unknown sweeps/routes (404), method
  mismatches (405), artifact-store write failures (500), cancelled
  sweeps (409);
* the subprocess end-to-end path: ``python -m repro serve`` + ``python
  -m repro gateway`` + REST + SSE + artifact fetch + metrics.

Every async scenario runs under ``asyncio.wait_for`` so a hung server
fails the test quickly (the CI job adds an outer ``timeout`` on top).
"""

from __future__ import annotations

import asyncio
import contextlib
import hashlib
import json
import os
import re
import subprocess
import sys
import threading

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import repro
import repro.gateway
from repro import httpd, obs
from repro.gateway import (
    Gateway,
    GatewayConfig,
    LocalArtifactStore,
    ArtifactStoreError,
    digest_of,
    encode_result,
    match_route,
)
from repro.gateway.routes import ROUTES, SSE_EVENTS, allowed_methods
from repro.runtime import Job, SweepEngine, SweepSpec
from repro.runtime.cli import main as cli_main
from repro.service import (
    ServiceClient,
    SweepService,
    register_workload,
    unregister_workload,
)

TIMEOUT = 30.0


def run(coro):
    """Run a coroutine with a hard timeout so nothing can hang the suite."""
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


# ----------------------------------------------------------------------
# Toy workloads
# ----------------------------------------------------------------------
_GATE = threading.Event()


def _toy_job(value: int) -> int:
    return value * value


def _toy_workload(params, engine):
    count = int(params.get("n", 4))
    jobs = [Job(fn=_toy_job, args=(i,), name=f"sq[{i}]") for i in range(count)]
    return {"sum": sum(engine.run(SweepSpec("toy", jobs))), "n": count}


def _big_workload(params, engine):
    """A payload far over any small spill threshold."""
    return {"blob": "x" * int(params.get("bytes", 4096))}


def _gated_workload(params, engine):
    if not _GATE.wait(timeout=TIMEOUT):
        raise RuntimeError("test gate never opened")
    return _toy_workload(params, engine)


def _failing_workload(params, engine):
    raise ValueError("deliberate workload failure")


@pytest.fixture
def toy_workloads():
    _GATE.clear()
    register_workload("toy", _toy_workload)
    register_workload("toy-big", _big_workload)
    register_workload("toy-gated", _gated_workload)
    register_workload("toy-failing", _failing_workload)
    try:
        yield
    finally:
        _GATE.set()
        for name in ("toy", "toy-big", "toy-gated", "toy-failing"):
            unregister_workload(name)


# ----------------------------------------------------------------------
# In-process stack + HTTP helpers
# ----------------------------------------------------------------------
@contextlib.asynccontextmanager
async def running_stack(tmp_path, **overrides):
    """One in-process service + one gateway replica in front of it."""
    service = SweepService(engine=SweepEngine(), host="127.0.0.1", port=0)
    host, port = await service.start()
    settings = dict(
        service_host=host,
        service_port=port,
        artifact_root=str(tmp_path / "artifacts"),
        spill_bytes=512,
        sse_keepalive_seconds=0.2,
        watch_backoff_seconds=0.05,
    )
    settings.update(overrides)
    gateway = Gateway(GatewayConfig(**settings))
    await gateway.start()
    try:
        yield service, gateway
    finally:
        await gateway.stop()
        await service.stop()


async def http_request(port, method, path, body=None, headers=()):
    """One request against a local gateway; ``(status, headers, body)``."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    head = [f"{method} {path} HTTP/1.1", "Host: test"]
    if body is not None:
        head.append(f"Content-Length: {len(body)}")
    for name, value in headers:
        head.append(f"{name}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode() + (body or b""))
    await writer.drain()
    status_line = await reader.readline()
    status = int(status_line.split()[1])
    response_headers = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        response_headers[name.strip().lower()] = value.strip()
    data = await reader.read()  # every gateway response is Connection: close
    writer.close()
    return status, response_headers, data


async def submit_sweep(port, workload, params=None, **extra):
    document = {"workload": workload, "params": params or {}}
    document.update(extra)
    status, _, body = await http_request(
        port, "POST", "/v1/sweeps", body=json.dumps(document).encode()
    )
    assert status == 202, body
    return json.loads(body)


async def wait_terminal(port, sweep_id, deadline=TIMEOUT):
    loop = asyncio.get_running_loop()
    end = loop.time() + deadline
    while True:
        status, _, body = await http_request(port, "GET", f"/v1/sweeps/{sweep_id}")
        assert status == 200
        document = json.loads(body)
        if document["state"] != "running":
            return document
        if loop.time() > end:
            raise AssertionError(f"sweep {sweep_id} never finished: {document}")
        await asyncio.sleep(0.02)


async def open_sse(port, sweep_id, headers=()):
    """Open the event stream; returns ``(reader, writer)`` past the head."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    head = [f"GET /v1/sweeps/{sweep_id}/events HTTP/1.1", "Host: test"]
    for name, value in headers:
        head.append(f"{name}: {value}")
    writer.write(("\r\n".join(head) + "\r\n\r\n").encode())
    await writer.drain()
    status_line = await reader.readline()
    assert b" 200 " in status_line, status_line
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n"):
            break
        assert line, "connection closed inside SSE response head"
    return reader, writer


async def read_sse_frames(reader, until="done"):
    """Collect ``(id, event, data)`` frames until the ``until`` event."""
    frames = []
    event_id = event = data = None
    while True:
        raw = await reader.readline()
        if raw == b"":
            return frames
        line = raw.decode().rstrip("\r\n")
        if line.startswith("id: "):
            event_id = int(line[4:])
        elif line.startswith("event: "):
            event = line[7:]
        elif line.startswith("data: "):
            data = json.loads(line[6:])
        elif line == "" and event is not None:
            frames.append((event_id, event, data))
            if event == until:
                return frames
            event_id = event = data = None


# ----------------------------------------------------------------------
# Shared HTTP plumbing (repro.httpd)
# ----------------------------------------------------------------------
class TestHttpd:
    def _parse(self, wire, **kwargs):
        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(wire)
            reader.feed_eof()
            return await httpd.read_request(reader, **kwargs)

        return run(scenario())

    def test_parses_request_line_headers_and_body(self):
        request = self._parse(
            b"POST /v1/sweeps?x=1 HTTP/1.1\r\nHost: h\r\n"
            b"Content-Length: 2\r\n\r\nhi"
        )
        assert (request.method, request.path, request.query) == (
            "POST", "/v1/sweeps", "x=1",
        )
        assert request.headers["host"] == "h"
        assert request.body == b"hi"

    def test_clean_eof_returns_none(self):
        assert self._parse(b"") is None

    def test_oversized_body_is_413_before_reading(self):
        with pytest.raises(httpd.HttpError) as info:
            self._parse(
                b"POST / HTTP/1.1\r\nContent-Length: 1000\r\n\r\n",
                max_body_bytes=10,
            )
        assert info.value.status == 413

    def test_malformed_request_line_is_400(self):
        with pytest.raises(httpd.HttpError) as info:
            self._parse(b"what even\r\n\r\n")
        assert info.value.status == 400

    def test_bad_json_body_raises_400(self):
        request = httpd.HttpRequest("POST", "/", "", "HTTP/1.1", {}, b"{nope")
        with pytest.raises(httpd.HttpError) as info:
            request.json()
        assert info.value.status == 400

    def test_error_body_is_structured(self):
        document = json.loads(httpd.error_body(404, "gone", code="not-found"))
        assert document == {"code": "not-found", "error": "gone", "status": 404}

    def test_responses_close_the_connection(self):
        assert b"Connection: close" in httpd.render_response(200, b"x")

    @pytest.mark.parametrize("length", ["+4", "1_0", "-0", "0x10", "4.0", "\xb2"])
    def test_content_length_must_be_digits(self, length):
        with pytest.raises(httpd.HttpError) as info:
            self._parse(f"POST / HTTP/1.1\r\nContent-Length: {length}\r\n\r\n".encode("latin-1"))
        assert info.value.status == 400

    # -- fuzz: every input parses, is None, or is a typed 4xx ------------
    @staticmethod
    def _outcome(wire, **kwargs):
        """What ``read_request`` makes of ``wire``: a request, ``None`` or
        a typed 4xx ``HttpError``.  Anything else raises, failing the test;
        a read that does not finish within 5 s raises ``TimeoutError``."""

        async def scenario():
            reader = asyncio.StreamReader()
            reader.feed_data(wire)
            reader.feed_eof()
            return await asyncio.wait_for(httpd.read_request(reader, **kwargs), 5.0)

        try:
            request = asyncio.run(scenario())
        except httpd.HttpError as error:
            assert 400 <= error.status < 500, error
            assert "Traceback" not in str(error)
            return error
        if request is not None:
            assert isinstance(request, httpd.HttpRequest)
            try:
                request.json()
            except httpd.HttpError as error:
                assert error.status == 400
        return request

    @settings(max_examples=150, deadline=None)
    @given(wire=st.binary(max_size=600))
    @example(wire=b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n")
    @example(wire=b"GET / HTTP/1.1\r\nX: " + b"y" * 70_000 + b"\r\n\r\n")
    @example(wire=b"GET / HTTP/1.1")
    @example(wire=b"\r\n")
    def test_arbitrary_bytes_get_a_typed_answer(self, wire):
        self._outcome(wire)

    _methods = st.sampled_from(["GET", "POST", "DELETE", "PUT", "", "G\x00T"]) | st.text(max_size=8)
    _targets = st.sampled_from(["/", "/v1/sweeps", "/healthz?x=1", "*", ""]) | st.text(max_size=30)
    _versions = st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/", "HTTPS/1.1", ""])
    _header_text = st.text(
        st.characters(codec="latin-1", exclude_characters="\r\n"), max_size=20
    )
    _lengths = (
        st.integers(-3, 3000).map(str)
        | st.sampled_from(["", " ", "+4", "1_0", "0x10", "4.0", "9" * 5000, "-0"])
        | _header_text
    )
    _json = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=10),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=6), children, max_size=4),
        max_leaves=12,
    ).map(lambda value: json.dumps(value).encode())
    _bodies = _json | st.binary(max_size=60) | st.sampled_from(
        [b"[" * 100_000, b"1" * 5000, b'{"a": ' + b"9" * 5000 + b"}", b"\xff\xfe", b"NaN"]
    )

    @settings(max_examples=150, deadline=None)
    @given(
        method=_methods,
        target=_targets,
        version=_versions,
        headers=st.lists(st.tuples(_header_text, _header_text), max_size=4),
        length=st.none() | _lengths,
        body=_bodies,
        cut=st.none() | st.integers(0, 200),
        separator=st.sampled_from(["\r\n", "\n"]),
    )
    @example(
        method="POST", target="/v1/sweeps", version="HTTP/1.1", headers=[],
        length="100000", body=b"[" * 100_000, cut=None, separator="\r\n",
    )
    @example(
        method="POST", target="/v1/sweeps", version="HTTP/1.1", headers=[],
        length="5000", body=b"1" * 5000, cut=None, separator="\r\n",
    )
    @example(
        method="GET", target="/", version="HTTP/1.1", headers=[],
        length="9" * 5000, body=b"", cut=None, separator="\r\n",
    )
    def test_malformed_requests_get_a_typed_answer(
        self, method, target, version, headers, length, body, cut, separator
    ):
        lines = [f"{method} {target} {version}"]
        lines += [f"{name}: {value}" for name, value in headers]
        if length is not None:
            lines.append(f"Content-Length: {length}")
        wire = (separator.join(lines) + separator * 2).encode("latin-1", "replace") + body
        if cut is not None:
            wire = wire[:cut]
        outcome = self._outcome(wire, max_body_bytes=200_000)
        if isinstance(outcome, httpd.HttpRequest) and length is not None:
            assert outcome.body == body[: int(length)]

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        payloads=st.lists(
            st.binary(max_size=200)
            | _bodies.map(
                lambda body: b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: "
                + str(len(body)).encode()
                + b"\r\n\r\n"
                + body
            ),
            min_size=1,
            max_size=4,
        )
    )
    @example(payloads=[b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n"])
    @example(payloads=[b"POST /v1/sweeps HTTP/1.1\r\nContent-Length: 100000\r\n\r\n" + b"[" * 100_000])
    def test_gateway_answers_junk_with_a_typed_error(self, tmp_path, payloads):
        """A live gateway answers every payload with one structured
        response (or closes on an empty one) and logs no exception."""

        async def scenario():
            loop = asyncio.get_running_loop()
            unhandled = []
            loop.set_exception_handler(lambda _, context: unhandled.append(context))
            answers = []
            async with running_stack(tmp_path, max_body_bytes=200_000) as (_, gateway):
                for payload in payloads:
                    reader, writer = await asyncio.open_connection("127.0.0.1", gateway.port)
                    writer.write(payload)
                    writer.write_eof()
                    answers.append((payload, await reader.read()))
                    writer.close()
            return answers, unhandled

        answers, unhandled = run(scenario())
        assert unhandled == []
        for payload, answer in answers:
            if not answer:
                assert payload == b""
                continue
            head, _, body = answer.partition(b"\r\n\r\n")
            status = int(head.split(b" ", 2)[1])
            assert status in httpd.REASONS and status != 500, answer
            document = json.loads(body)
            if status >= 400:
                assert document["status"] == status
                assert "Traceback" not in document["error"]


# ----------------------------------------------------------------------
# Route table
# ----------------------------------------------------------------------
class TestRoutes:
    def test_placeholders_resolve(self):
        route, params = match_route("GET", "/v1/sweeps/sw-1/result")
        assert route == "GET /v1/sweeps/{id}/result"
        assert params == {"id": "sw-1"}

    def test_unknown_path_and_method(self):
        assert match_route("GET", "/v1/nope") is None
        assert match_route("PUT", "/v1/sweeps") is None

    def test_allowed_methods_for_405(self):
        assert set(allowed_methods("/v1/sweeps/abc")) == {"GET", "DELETE"}

    def test_vocabulary_shape(self):
        assert len(ROUTES) == len(set(ROUTES))
        assert set(SSE_EVENTS) == {"snapshot", "progress", "obs", "done"}


# ----------------------------------------------------------------------
# Artifact store
# ----------------------------------------------------------------------
class TestArtifactStore:
    def test_put_get_roundtrip_is_content_addressed(self, tmp_path):
        store = LocalArtifactStore(str(tmp_path / "store"))
        data = encode_result({"rows": list(range(50))})
        digest = store.put(data)
        assert digest == hashlib.sha256(data).hexdigest() == digest_of(data)
        assert store.get(digest) == data
        assert store.put(data) == digest  # idempotent

    def test_missing_artifact_raises_keyerror(self, tmp_path):
        store = LocalArtifactStore(str(tmp_path / "store"))
        with pytest.raises(KeyError):
            store.get("0" * 64)
        with pytest.raises(KeyError):
            store.get("not-a-digest")

    def test_write_failure_surfaces_as_store_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the store root should be")
        store = LocalArtifactStore(str(blocker))
        with pytest.raises(ArtifactStoreError):
            store.put(b"payload")

    def test_encoding_is_deterministic(self):
        assert encode_result({"b": 1, "a": 2}) == encode_result({"a": 2, "b": 1})

    def test_local_store_is_the_only_store(self):
        assert not hasattr(repro.gateway, "ArtifactStore")
        with pytest.raises(TypeError):
            Gateway(GatewayConfig(), store=None)


# ----------------------------------------------------------------------
# Gateway REST semantics (in-process)
# ----------------------------------------------------------------------
class TestGatewayRest:
    def test_submit_status_result_inline_bit_identical(self, tmp_path, toy_workloads):
        async def scenario():
            async with running_stack(tmp_path) as (service, gateway):
                accepted = await submit_sweep(gateway.port, "toy", {"n": 5})
                assert accepted["state"] == "running"
                assert accepted["id"].startswith("sw-")
                final = await wait_terminal(gateway.port, accepted["id"])
                assert final["state"] == "completed"
                assert final["key"]
                assert final["trace"]
                status, headers, body = await http_request(
                    gateway.port, "GET", f"/v1/sweeps/{accepted['id']}/result"
                )
                assert status == 200
                # Bit-identical to a direct ServiceClient run of the same
                # request (the service single-flights/caches nothing here:
                # toy results are deterministic).
                async with ServiceClient(*service.address) as client:
                    direct = await client.submit("toy", {"n": 5})
                assert body == encode_result(direct.payload)

        run(scenario())

    def test_result_while_running_is_202(self, tmp_path, toy_workloads):
        async def scenario():
            async with running_stack(tmp_path) as (_, gateway):
                accepted = await submit_sweep(gateway.port, "toy-gated", {"n": 2})
                status, _, body = await http_request(
                    gateway.port, "GET", f"/v1/sweeps/{accepted['id']}/result"
                )
                assert status == 202
                assert json.loads(body)["state"] == "running"
                _GATE.set()
                await wait_terminal(gateway.port, accepted["id"])

        run(scenario())

    def test_failed_workload_surfaces_structured_500(self, tmp_path, toy_workloads):
        async def scenario():
            async with running_stack(tmp_path) as (_, gateway):
                accepted = await submit_sweep(gateway.port, "toy-failing")
                final = await wait_terminal(gateway.port, accepted["id"])
                assert final["state"] == "failed"
                status, _, body = await http_request(
                    gateway.port, "GET", f"/v1/sweeps/{accepted['id']}/result"
                )
                document = json.loads(body)
                assert status == 500
                assert document["status"] == 500
                assert "deliberate workload failure" in document["error"]

        run(scenario())

    def test_cancel_via_delete(self, tmp_path, toy_workloads):
        async def scenario():
            async with running_stack(tmp_path) as (_, gateway):
                accepted = await submit_sweep(gateway.port, "toy-gated")
                status, _, body = await http_request(
                    gateway.port, "DELETE", f"/v1/sweeps/{accepted['id']}"
                )
                assert status == 202
                assert json.loads(body)["state"] == "cancelling"
                # The cancel op answers at once even though the workload
                # thread is still parked on the gate — wait for the
                # terminal state *before* opening it so the cancel cannot
                # race a normal completion.
                final = await wait_terminal(gateway.port, accepted["id"])
                assert final["state"] == "cancelled"
                _GATE.set()  # let the worker thread drain
                status, _, body = await http_request(
                    gateway.port, "GET", f"/v1/sweeps/{accepted['id']}/result"
                )
                assert status == 409
                assert json.loads(body)["code"] == "cancelled"
                # A second DELETE conflicts: the sweep is already terminal.
                status, _, _ = await http_request(
                    gateway.port, "DELETE", f"/v1/sweeps/{accepted['id']}"
                )
                assert status == 409

        run(scenario())

    def test_error_paths_are_structured(self, tmp_path, toy_workloads):
        async def scenario():
            async with running_stack(tmp_path, max_body_bytes=200) as (_, gateway):
                port = gateway.port
                # 413: oversized body refused before it is read.
                status, _, body = await http_request(
                    port, "POST", "/v1/sweeps", body=b"x" * 1000
                )
                assert status == 413
                assert json.loads(body)["status"] == 413
                # 400: not JSON / missing workload / wrong types.
                status, _, _ = await http_request(
                    port, "POST", "/v1/sweeps", body=b"{nope"
                )
                assert status == 400
                status, _, body = await http_request(
                    port, "POST", "/v1/sweeps", body=b'{"params": {}}'
                )
                assert status == 400
                assert "workload" in json.loads(body)["error"]
                # 404: unknown sweep, unknown artifact, unknown route.
                for path in ("/v1/sweeps/sw-nope", "/v1/artifacts/" + "0" * 64,
                             "/v1/nope"):
                    status, _, _ = await http_request(port, "GET", path)
                    assert status == 404, path
                # 405: known path, wrong method, Allow header present.
                status, headers, _ = await http_request(
                    port, "PUT", "/v1/sweeps/sw-1"
                )
                assert status == 405
                assert set(headers["allow"].split(", ")) == {"GET", "DELETE"}
                # healthz for load balancers.
                status, _, body = await http_request(port, "GET", "/healthz")
                assert status == 200
                assert json.loads(body)["status"] == "ok"

        run(scenario())

    @pytest.mark.parametrize(
        "params", [[], 0, "", False, None],
        ids=["list", "zero", "empty-string", "false", "null"],
    )
    def test_non_object_params_is_a_typed_400(self, tmp_path, toy_workloads, params):
        async def scenario():
            async with running_stack(tmp_path) as (_, gateway):
                body = json.dumps({"workload": "toy", "params": params}).encode()
                status, _, answer = await http_request(
                    gateway.port, "POST", "/v1/sweeps", body=body
                )
                assert status == 400
                document = json.loads(answer)
                assert document["code"] == "bad-request"
                assert "params" in document["error"]
                assert not gateway._sweeps

        run(scenario())

    def test_non_json_body_is_a_typed_400(self, tmp_path, toy_workloads):
        async def scenario():
            async with running_stack(tmp_path) as (_, gateway):
                status, _, answer = await http_request(
                    gateway.port, "POST", "/v1/sweeps", body=b"{nope"
                )
                assert status == 400
                document = json.loads(answer)
                assert document["code"] == "bad-request"
                assert "not valid JSON" in document["error"]
                assert not gateway._sweeps

        run(scenario())

    def test_absent_params_means_empty(self, tmp_path, toy_workloads):
        async def scenario():
            async with running_stack(tmp_path) as (_, gateway):
                status, _, answer = await http_request(
                    gateway.port, "POST", "/v1/sweeps", body=b'{"workload": "toy"}'
                )
                assert status == 202
                final = await wait_terminal(gateway.port, json.loads(answer)["id"])
                assert final["state"] == "completed"
                assert gateway._sweeps[final["id"]].params == {}

        run(scenario())

    @pytest.mark.parametrize(
        "field",
        [
            {"webhook_url": "http://127.0.0.1:9/done"},
            {"priority": 1},
            {"sched": "interactive"},
        ],
    )
    def test_unknown_submit_field_is_a_typed_400(
        self, tmp_path, toy_workloads, field
    ):
        """Completion callbacks and the scheduling tag were removed: a
        submit still carrying one is refused rather than accepted with the
        field dropped."""

        async def scenario():
            async with running_stack(tmp_path) as (_, gateway):
                body = json.dumps({"workload": "toy", **field}).encode()
                status, _, answer = await http_request(
                    gateway.port, "POST", "/v1/sweeps", body=body
                )
                assert status == 400
                document = json.loads(answer)
                assert document["code"] == "bad-request"
                assert next(iter(field)) in document["error"]
                assert not gateway._sweeps

        run(scenario())

    @pytest.mark.parametrize(
        "flag", [["--webhook-secret", "s"], ["--webhook-attempts", "2"]]
    )
    def test_gateway_rejects_the_removed_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["gateway", "--service", "127.0.0.1:1", *flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err

    def test_unknown_workload_fails_the_sweep(self, tmp_path, toy_workloads):
        async def scenario():
            async with running_stack(tmp_path) as (_, gateway):
                accepted = await submit_sweep(gateway.port, "no-such-workload")
                final = await wait_terminal(gateway.port, accepted["id"])
                assert final["state"] == "failed"
                assert final["error_code"] == "bad-request"

        run(scenario())


# ----------------------------------------------------------------------
# Artifact spill (in-process)
# ----------------------------------------------------------------------
class TestArtifactSpill:
    def test_large_result_spills_and_fetches_bit_identical(
        self, tmp_path, toy_workloads
    ):
        async def scenario():
            async with running_stack(tmp_path, spill_bytes=256) as (
                service, gateway,
            ):
                accepted = await submit_sweep(
                    gateway.port, "toy-big", {"bytes": 4096}
                )
                final = await wait_terminal(gateway.port, accepted["id"])
                assert final["state"] == "completed"
                digest = final["artifact"]
                assert re.fullmatch(r"[0-9a-f]{64}", digest)
                # The result endpoint redirects to the artifact.
                status, headers, _ = await http_request(
                    gateway.port, "GET", f"/v1/sweeps/{accepted['id']}/result"
                )
                assert status == 307
                assert headers["location"] == f"/v1/artifacts/{digest}"
                # The artifact bytes are the canonical result encoding,
                # bit-identical to a direct ServiceClient run.
                status, headers, data = await http_request(
                    gateway.port, "GET", headers["location"]
                )
                assert status == 200
                assert headers["x-repro-digest"] == digest
                assert hashlib.sha256(data).hexdigest() == digest
                async with ServiceClient(*service.address) as client:
                    direct = await client.submit("toy-big", {"bytes": 4096})
                assert data == encode_result(direct.payload)

        run(scenario())

    def test_small_result_stays_inline(self, tmp_path, toy_workloads):
        async def scenario():
            async with running_stack(tmp_path, spill_bytes=100_000) as (_, gateway):
                accepted = await submit_sweep(gateway.port, "toy", {"n": 3})
                final = await wait_terminal(gateway.port, accepted["id"])
                assert final["state"] == "completed"
                assert "artifact" not in final

        run(scenario())

    def test_store_write_failure_is_a_structured_error(
        self, tmp_path, toy_workloads
    ):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the store root should be")

        async def scenario():
            async with running_stack(
                tmp_path, spill_bytes=16, artifact_root=str(blocker)
            ) as (_, gateway):
                accepted = await submit_sweep(
                    gateway.port, "toy-big", {"bytes": 2048}
                )
                final = await wait_terminal(gateway.port, accepted["id"])
                assert final["state"] == "failed"
                assert final["error_code"] == "artifact-store"
                status, _, body = await http_request(
                    gateway.port, "GET", f"/v1/sweeps/{accepted['id']}/result"
                )
                document = json.loads(body)
                assert status == 500
                assert document["code"] == "artifact-store"

        run(scenario())


# ----------------------------------------------------------------------
# SSE streaming (in-process)
# ----------------------------------------------------------------------
class TestSse:
    def test_progress_stream_has_monotonic_seq_and_terminal_done(
        self, tmp_path, toy_workloads
    ):
        async def scenario():
            async with running_stack(tmp_path) as (_, gateway):
                accepted = await submit_sweep(gateway.port, "toy-gated", {"n": 6})
                reader, writer = await open_sse(gateway.port, accepted["id"])
                _GATE.set()
                frames = await read_sse_frames(reader)
                writer.close()
                ids = [frame[0] for frame in frames]
                events = [frame[1] for frame in frames]
                assert events[0] == "snapshot"
                assert events[-1] == "done"
                assert "progress" in events
                assert ids == sorted(ids)
                assert len(set(ids)) == len(ids), "seq must be strictly monotonic"
                progress = [frame[2] for frame in frames if frame[1] == "progress"]
                assert progress[-1]["done"] == progress[-1]["total"] == 6
                done = frames[-1][2]
                assert done["state"] == "completed"
                # Bridged obs events preserve their bus seq in data.
                bridged = [frame[2] for frame in frames if frame[1] == "obs"]
                for first, second in zip(bridged, bridged[1:]):
                    assert first["seq"] < second["seq"]

        run(scenario())

    def test_watch_bridge_delivers_obs_events(self, tmp_path, toy_workloads):
        async def scenario():
            async with running_stack(tmp_path) as (_, gateway):
                accepted = await submit_sweep(gateway.port, "toy-gated", {"n": 4})
                # Wait for the accept to land so the trace is indexed and
                # the watch bridge can attribute events to this sweep.
                while not gateway._by_trace:
                    await asyncio.sleep(0.01)
                reader, writer = await open_sse(gateway.port, accepted["id"])
                _GATE.set()
                frames = await read_sse_frames(reader)
                writer.close()
                bridged = [frame[2] for frame in frames if frame[1] == "obs"]
                assert bridged, "watch bridge delivered no obs events"
                trace = frames[-1][2]["trace"]
                assert all(event.get("trace") == trace for event in bridged)
                assert {event["type"] for event in bridged} <= set(obs.EVENT_TYPES)

        run(scenario())

    def test_late_subscriber_gets_snapshot_then_replay_cursor_works(
        self, tmp_path, toy_workloads
    ):
        async def scenario():
            async with running_stack(tmp_path) as (_, gateway):
                accepted = await submit_sweep(gateway.port, "toy", {"n": 4})
                await wait_terminal(gateway.port, accepted["id"])
                # Fresh subscriber on a finished sweep: one snapshot frame
                # carrying the terminal state, then end-of-stream.
                reader, writer = await open_sse(gateway.port, accepted["id"])
                frames = await read_sse_frames(reader, until="snapshot")
                writer.close()
                assert frames[-1][1] == "snapshot"
                assert frames[-1][2]["state"] == "completed"
                # Reconnect with Last-Event-ID: 0 replays the full history
                # (progress and the terminal done) in seq order.
                reader, writer = await open_sse(
                    gateway.port, accepted["id"],
                    headers=(("Last-Event-ID", "0"),),
                )
                replay = await read_sse_frames(reader)
                writer.close()
                assert replay[-1][1] == "done"
                ids = [frame[0] for frame in replay]
                assert ids == sorted(ids) and len(set(ids)) == len(ids)
                assert any(frame[1] == "progress" for frame in replay)

        run(scenario())

    @pytest.mark.parametrize("past_done", [0, 1000])
    def test_replay_past_the_end_of_a_finished_sweep_closes(
        self, tmp_path, toy_workloads, past_done
    ):
        """A reconnect whose Last-Event-ID is at or past the `done` frame
        has nothing left to receive: the stream ends instead of idling on
        keepalives until the client gives up."""

        async def scenario():
            async with running_stack(tmp_path) as (_, gateway):
                accepted = await submit_sweep(gateway.port, "toy", {"n": 3})
                await wait_terminal(gateway.port, accepted["id"])
                reader, writer = await open_sse(
                    gateway.port, accepted["id"],
                    headers=(("Last-Event-ID", "0"),),
                )
                replay = await read_sse_frames(reader)
                writer.close()
                done_id = replay[-1][0]
                assert replay[-1][1] == "done"
                reader, writer = await open_sse(
                    gateway.port, accepted["id"],
                    headers=(("Last-Event-ID", str(done_id + past_done)),),
                )
                rest = await asyncio.wait_for(
                    reader.read(), 5 * gateway.config.sse_keepalive_seconds
                )
                writer.close()
                assert b"event:" not in rest

        run(scenario())

    def test_client_disconnect_mid_stream_cancels_cleanly(
        self, tmp_path, toy_workloads
    ):
        streams = obs.counter(
            "repro_gateway_sse_streams_total", labels=("outcome",)
        )
        disconnected_before = streams.value(outcome="disconnected")

        async def scenario():
            async with running_stack(tmp_path) as (_, gateway):
                accepted = await submit_sweep(gateway.port, "toy-gated")
                reader, writer = await open_sse(gateway.port, accepted["id"])
                record = gateway._sweeps[accepted["id"]]
                while not record.subscribers:
                    await asyncio.sleep(0.01)
                writer.close()  # hang up mid-stream
                deadline = asyncio.get_running_loop().time() + TIMEOUT
                while record.subscribers:
                    assert asyncio.get_running_loop().time() < deadline
                    await asyncio.sleep(0.02)
                _GATE.set()
                await wait_terminal(gateway.port, accepted["id"])

        run(scenario())
        streams_after = streams.value(outcome="disconnected")
        assert streams_after == disconnected_before + 1


# ----------------------------------------------------------------------
# The eventsim servable workload through the gateway (in-process)
# ----------------------------------------------------------------------
class TestEventsimWorkload:
    def test_eventsim_end_to_end_matches_direct_client(self, tmp_path):
        async def scenario():
            async with running_stack(tmp_path) as (service, gateway):
                accepted = await submit_sweep(
                    gateway.port, "eventsim",
                    {"fast": True, "pairs": [[1, 2], [3, 4], [15, 15]],
                     "shards": 2},
                )
                final = await wait_terminal(gateway.port, accepted["id"], TIMEOUT * 4)
                assert final["state"] == "completed"
                status, _, body = await http_request(
                    gateway.port, "GET", f"/v1/sweeps/{accepted['id']}/result"
                )
                assert status == 200
                payload = json.loads(body)
                assert payload["command"] == "eventsim"
                assert payload["matches_model"] is True
                assert payload["pairs"] == 3
                assert [r["expected"] for r in payload["results"]] == [2, 12, 225]
                async with ServiceClient(*service.address) as client:
                    direct = await client.submit(
                        "eventsim",
                        {"fast": True, "pairs": [[1, 2], [3, 4], [15, 15]],
                         "shards": 2},
                    )
                assert body == encode_result(direct.payload)

        asyncio.run(asyncio.wait_for(scenario(), TIMEOUT * 8))


# ----------------------------------------------------------------------
# Subprocess end-to-end: serve + gateway + REST/SSE/artifact/metrics
# ----------------------------------------------------------------------
class TestSubprocessEndToEnd:
    def _spawn(self, argv, env):
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )

    def test_rest_sse_artifact_end_to_end(self, tmp_path):
        """The acceptance criterion, driven over real sockets: REST submit
        -> ordered SSE -> spilled artifact download, with the downloaded
        bytes bit-identical to a direct ServiceClient run and
        repro_gateway_* metrics on the Prometheus endpoint."""
        import urllib.request

        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"

        serve = self._spawn(
            ["serve", "--port", "0", "--cache-dir", str(tmp_path / "cache")],
            env,
        )
        gateway = None
        try:
            banner = serve.stdout.readline()
            service_port = re.search(r":(\d+) ", banner).group(1)
            gateway = self._spawn(
                [
                    "gateway", "--service", f"127.0.0.1:{service_port}",
                    "--port", "0",
                    "--artifact-root", str(tmp_path / "store"),
                    "--spill-bytes", "64",
                    "--metrics-port", "0",
                ],
                env,
            )
            gateway_banner = gateway.stdout.readline()
            gateway_port = int(re.search(r":(\d+) ", gateway_banner).group(1))
            metrics_banner = gateway.stdout.readline()
            metrics_port = int(re.search(r":(\d+)/metrics", metrics_banner).group(1))
            base = f"http://127.0.0.1:{gateway_port}"

            body = json.dumps({
                "workload": "characterize",
                "params": {"fast": True},
            }).encode()
            request = urllib.request.Request(
                f"{base}/v1/sweeps", data=body,
                headers={"Content-Type": "application/json"},
            )
            accepted = json.load(urllib.request.urlopen(request, timeout=TIMEOUT))
            sweep_id = accepted["id"]

            # SSE stream until the terminal frame; ids strictly monotonic.
            stream = urllib.request.urlopen(
                f"{base}/v1/sweeps/{sweep_id}/events", timeout=TIMEOUT * 4
            )
            ids, events, terminal = [], [], None
            event_id = event_name = data = None
            while True:
                line = stream.readline().decode().rstrip("\r\n")
                if line.startswith("id: "):
                    event_id = int(line[4:])
                elif line.startswith("event: "):
                    event_name = line[7:]
                elif line.startswith("data: "):
                    data = json.loads(line[6:])
                elif line == "" and event_name is not None:
                    ids.append(event_id)
                    events.append(event_name)
                    if event_name == "done":
                        terminal = data
                        break
                    event_id = event_name = data = None
            stream.close()
            assert ids == sorted(ids) and len(set(ids)) == len(ids)
            assert "progress" in events
            assert terminal["state"] == "completed"

            # The fast characterisation payload is far over 64 bytes, so
            # the result redirected to a content-addressed artifact.
            digest = terminal["artifact"]
            result = urllib.request.urlopen(
                f"{base}/v1/sweeps/{sweep_id}/result", timeout=TIMEOUT
            )
            downloaded = result.read()
            assert result.url.endswith(f"/v1/artifacts/{digest}")
            assert hashlib.sha256(downloaded).hexdigest() == digest

            # Bit-identical to the direct NDJSON-TCP client.
            from repro.service import run_sweep

            direct = run_sweep(
                "127.0.0.1", int(service_port), "characterize",
                {"fast": True}, timeout=TIMEOUT * 4, connect_timeout=TIMEOUT,
            )
            assert downloaded == encode_result(direct.payload)

            # Gateway metrics on the Prometheus endpoint.
            exposition = urllib.request.urlopen(
                f"http://127.0.0.1:{metrics_port}/metrics", timeout=TIMEOUT
            ).read().decode()
            for name in (
                "repro_gateway_requests_total",
                "repro_gateway_sweeps_total",
                "repro_gateway_sse_frames_total",
                "repro_gateway_artifact_spills_total",
            ):
                assert name in exposition, name
        finally:
            if gateway is not None:
                gateway.terminate()
                gateway.wait(timeout=15)
            serve.terminate()
            serve.wait(timeout=15)
