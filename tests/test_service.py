"""Tests for the asyncio sweep service (:mod:`repro.service`).

Covers the tentpole guarantees:

* many concurrent clients are served by one engine + one artifact cache;
* identical in-flight requests single-flight onto one execution (engine
  stats show no duplicate work) while every client still receives progress
  events and the result;
* repeat (non-overlapping) requests are served by the artifact cache;
* protocol violations and workload failures surface as error events, never
  as wedged connections or server crashes;
* shutdown is clean: in-flight sweeps drain, clients see end-of-stream.

Every async scenario runs under ``asyncio.wait_for`` so a hung server fails
the test quickly instead of stalling the suite (the CI job adds an outer
``timeout`` guard on top).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
from repro import wire
from repro.runtime import ArtifactCache, Job, SweepEngine, SweepSpec, job_key
from repro.service import (
    ProtocolError,
    ServiceClient,
    ServiceError,
    SweepService,
    register_workload,
    unregister_workload,
    workload_names,
)
from repro.service import progress as progress_mod
from repro.service import protocol

TIMEOUT = 30.0


def run(coro):
    """Run a coroutine with a hard timeout so nothing can hang the suite."""
    return asyncio.run(asyncio.wait_for(coro, TIMEOUT))


@contextlib.asynccontextmanager
async def running_service(engine=None, **kwargs):
    service = SweepService(engine=engine, **kwargs)
    await service.start()
    try:
        yield service
    finally:
        await service.stop()


# ----------------------------------------------------------------------
# Toy workloads
# ----------------------------------------------------------------------
_EXECUTIONS = []
_GATE = threading.Event()


def _toy_job(value: int) -> int:
    return value * value


def _toy_workload(params, engine):
    """Sum of squares through the engine; records each execution."""
    _EXECUTIONS.append(dict(params))
    count = int(params.get("n", 4))
    jobs = [Job(fn=_toy_job, args=(i,), name=f"sq[{i}]") for i in range(count)]
    return {"sum": sum(engine.run(SweepSpec("toy", jobs)))}


def _gated_workload(params, engine):
    """Like _toy_workload but blocks until the test opens the gate."""
    _EXECUTIONS.append(dict(params))
    if not _GATE.wait(timeout=TIMEOUT):
        raise RuntimeError("test gate never opened")
    count = int(params.get("n", 4))
    jobs = [Job(fn=_toy_job, args=(i,), name=f"sq[{i}]") for i in range(count)]
    return {"sum": sum(engine.run(SweepSpec("toy", jobs)))}


def _cacheable_workload(params, engine):
    """Engine-cached jobs, so repeat requests skip execution entirely."""
    _EXECUTIONS.append(dict(params))
    count = int(params.get("n", 3))

    def build(value):
        return Job(
            fn=_toy_job,
            args=(value,),
            name=f"sq[{value}]",
            key=job_key("service-test-square", value),
        )

    return {"sum": sum(engine.run(SweepSpec("toy", [build(i) for i in range(count)])))}


def _failing_workload(params, engine):
    raise ValueError("deliberate workload failure")


@pytest.fixture
def toy_workloads():
    _EXECUTIONS.clear()
    _GATE.clear()
    register_workload("toy", _toy_workload)
    register_workload("toy-gated", _gated_workload)
    register_workload("toy-cached", _cacheable_workload)
    register_workload("toy-failing", _failing_workload)
    try:
        yield _EXECUTIONS
    finally:
        _GATE.set()  # never leave a worker thread blocked
        for name in ("toy", "toy-gated", "toy-cached", "toy-failing"):
            unregister_workload(name)


# ----------------------------------------------------------------------
# Protocol framing
# ----------------------------------------------------------------------
class TestProtocol:
    def test_round_trip(self):
        message = protocol.submit_request("req-1", "dse", {"fast": True})
        assert protocol.decode_message(protocol.encode_message(message)) == message

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError):
            protocol.decode_message(b"[1, 2, 3]\n")
        with pytest.raises(ProtocolError):
            protocol.decode_message(b"not json at all\n")

    def test_oversized_message_rejected(self):
        huge = {"op": "submit", "blob": "x" * protocol.MAX_MESSAGE_BYTES}
        with pytest.raises(ProtocolError):
            protocol.encode_message(huge)

    def test_event_constructors_carry_request_id(self):
        assert protocol.accepted_event("r", "k", True)["id"] == "r"
        assert protocol.progress_event("r", 1, 2, "x")["total"] == 2
        assert protocol.result_event("r", {"a": 1}, 0.5)["payload"] == {"a": 1}
        assert protocol.error_event(None, "boom")["id"] is None


async def _drain(queue):
    """Collect ticks from a subscriber queue until ``CLOSED``."""
    ticks = []
    while True:
        item = await queue.get()
        if item is progress_mod.CLOSED:
            return ticks
        ticks.append(item)


class TestProgressBroadcaster:
    def test_fan_out_and_close(self):
        async def scenario():
            loop = asyncio.get_running_loop()
            broadcaster = progress_mod.ProgressBroadcaster(loop)
            first = broadcaster.subscribe()
            second = broadcaster.subscribe()
            await loop.run_in_executor(None, broadcaster.callback, 1, 2, "tick")
            await loop.run_in_executor(None, broadcaster.close)
            return await asyncio.gather(
                _drain(first), _drain(second)
            )

        ticks_a, ticks_b = run(scenario())
        assert ticks_a == ticks_b == [{"done": 1, "total": 2, "label": "tick"}]

    def test_subscribe_after_close_terminates_immediately(self):
        async def scenario():
            broadcaster = progress_mod.ProgressBroadcaster(asyncio.get_running_loop())
            broadcaster.close()
            await asyncio.sleep(0)  # let the scheduled close run
            return await _drain(broadcaster.subscribe())

        assert run(scenario()) == []


# ----------------------------------------------------------------------
# Service behaviour
# ----------------------------------------------------------------------
class TestSweepService:
    def test_ping_and_status(self, toy_workloads, tmp_path):
        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            async with running_service(engine) as service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    alive = await client.ping()
                    status = await client.status()
            return alive, status

        alive, status = run(scenario())
        assert alive is True
        assert status["version"] == repro.__version__
        assert status["protocol"] == protocol.PROTOCOL_VERSION
        assert {"toy", "toy-cached"} <= set(status["workloads"])
        assert status["in_flight"] == 0
        assert status["engine_stats"]["jobs_executed"] == 0

    def test_submit_streams_progress_and_result(self, toy_workloads, tmp_path):
        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            ticks = []
            async with running_service(engine) as service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    result = await client.submit(
                        "toy", {"n": 5}, on_progress=lambda d, t, label: ticks.append((d, t))
                    )
            return result, ticks

        result, ticks = run(scenario())
        assert result.payload == {"sum": sum(i * i for i in range(5))}
        assert result.deduplicated is False
        assert result.progress_events == len(ticks) == 5
        assert ticks[-1] == (5, 5)
        assert [done for done, _ in ticks] == sorted(done for done, _ in ticks)
        assert all(total == 5 for _, total in ticks)

    def test_single_flight_dedup_across_concurrent_clients(self, toy_workloads, tmp_path):
        """Two clients, identical request: one execution, results for both."""

        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            progress_counts = {"a": 0, "b": 0}
            async with running_service(engine) as service:
                host, port = service.address

                async def submit(tag):
                    async with ServiceClient(host, port) as client:
                        def on_progress(done, total, label, tag=tag):
                            progress_counts[tag] += 1

                        return await client.submit(
                            "toy-gated", {"n": 6}, on_progress=on_progress
                        )

                task_a = asyncio.create_task(submit("a"))
                task_b = asyncio.create_task(submit("b"))
                # Wait until both requests are attached to the same flight,
                # then open the gate: the sweep provably ran while both were
                # subscribed.
                while True:
                    flights = list(service._flights.values())
                    if flights and flights[0].subscribers == 2:
                        break
                    await asyncio.sleep(0.01)
                _GATE.set()
                result_a, result_b = await asyncio.gather(task_a, task_b)
            return result_a, result_b, progress_counts, engine.stats

        result_a, result_b, progress_counts, stats = run(scenario())
        assert len(_EXECUTIONS) == 1, "identical concurrent requests must run once"
        assert sorted([result_a.deduplicated, result_b.deduplicated]) == [False, True]
        assert result_a.payload == result_b.payload == {"sum": sum(i * i for i in range(6))}
        assert result_a.key == result_b.key
        assert progress_counts["a"] == progress_counts["b"] == 6
        assert stats.sweeps == 1 and stats.jobs_executed == 6

    def test_distinct_params_do_not_deduplicate(self, toy_workloads, tmp_path):
        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            async with running_service(engine) as service:
                host, port = service.address
                async with ServiceClient(host, port) as first:
                    async with ServiceClient(host, port) as second:
                        return await asyncio.gather(
                            first.submit("toy", {"n": 3}),
                            second.submit("toy", {"n": 4}),
                        )

        result_a, result_b = run(scenario())
        assert len(_EXECUTIONS) == 2
        assert result_a.key != result_b.key
        assert result_a.deduplicated is False and result_b.deduplicated is False

    def test_repeat_request_served_from_artifact_cache(self, toy_workloads, tmp_path):
        """Non-overlapping identical requests: second re-runs the workload
        but every job is an artifact-cache hit (no solver work)."""

        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            async with running_service(engine) as service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    cold = await client.submit("toy-cached", {"n": 3})
                    warm = await client.submit("toy-cached", {"n": 3})
            return cold, warm, engine.stats

        cold, warm, stats = run(scenario())
        assert cold.payload == warm.payload
        assert len(_EXECUTIONS) == 2, "the workload itself re-runs"
        assert stats.jobs_executed == 3, "but no job executes twice"
        assert stats.cache_hits == 3

    def test_unknown_workload_errors_and_connection_survives(self, toy_workloads, tmp_path):
        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            async with running_service(engine) as service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    try:
                        await client.submit("no-such-workload")
                    except ServiceError as error:
                        message = str(error)
                    else:
                        message = "<no error>"
                    alive = await client.ping()
            return message, alive

        message, alive = run(scenario())
        assert "no-such-workload" in message
        assert alive is True

    def test_workload_failure_reports_error_event(self, toy_workloads, tmp_path):
        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            async with running_service(engine) as service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    with pytest.raises(ServiceError, match="deliberate workload failure"):
                        await client.submit("toy-failing")
                    # the failed flight is gone and the service still works
                    follow_up = await client.submit("toy", {"n": 2})
                    in_flight = len(service._flights)
            return follow_up, in_flight

        follow_up, in_flight = run(scenario())
        assert follow_up.payload == {"sum": 1}
        assert in_flight == 0

    def test_malformed_requests_get_error_events(self, tmp_path):
        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            async with running_service(engine) as service:
                host, port = service.address
                reader, writer = await asyncio.open_connection(
                    host, port, limit=protocol.MAX_MESSAGE_BYTES
                )
                # unknown op -> error event, connection stays up
                writer.write(protocol.encode_message({"op": "frobnicate", "id": "r1"}))
                await writer.drain()
                unknown_op = await protocol.read_message(reader)
                # submit without workload -> error event
                writer.write(protocol.encode_message({"op": "submit", "id": "r2"}))
                await writer.drain()
                no_workload = await protocol.read_message(reader)
                # non-JSON line -> protocol error event, then close
                writer.write(b"this is not json\n")
                await writer.drain()
                bad_frame = await protocol.read_message(reader)
                eof = await reader.read()
                writer.close()
                with contextlib.suppress(ConnectionError, OSError):
                    await writer.wait_closed()
            return unknown_op, no_workload, bad_frame, eof

        unknown_op, no_workload, bad_frame, eof = run(scenario())
        assert unknown_op["event"] == "error" and "frobnicate" in unknown_op["error"]
        assert no_workload["event"] == "error" and no_workload["id"] == "r2"
        assert bad_frame["event"] == "error" and bad_frame["id"] is None
        assert eof == b"", "broken framing must close the connection"

    def test_clean_shutdown_drains_in_flight_sweeps(self, toy_workloads, tmp_path):
        """stop() lets a running sweep finish and its client gets the result."""

        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            service = SweepService(engine)
            host, port = await service.start()
            client = await ServiceClient(host, port).connect()
            submit = asyncio.create_task(client.submit("toy-gated", {"n": 2}))
            while not service._flights:
                await asyncio.sleep(0.01)
            _GATE.set()
            await service.stop()
            result = await submit
            # afterwards the endpoint is gone
            with pytest.raises(ConnectionError):
                await asyncio.open_connection(host, port)
            await client.aclose()
            return result

        result = run(scenario())
        assert result.payload == {"sum": 1}

    def test_client_requires_connection_and_serialises_requests(self):
        client = ServiceClient("127.0.0.1", 1)
        with pytest.raises(RuntimeError, match="not connected"):
            run(client.submit("toy"))


class TestConnectRetry:
    """`ServiceClient.connect(timeout=...)` rides out a server still binding."""

    def test_connect_retries_until_late_server_binds(self, toy_workloads, tmp_path):
        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            # Reserve a port, then bind the real service to it *after* the
            # client has already started connecting.
            probe = SweepService(engine)
            host, port = await probe.start()
            await probe.stop()
            service = SweepService(engine, host=host, port=port)

            async def bind_late():
                await asyncio.sleep(0.3)
                await service.start()

            binder = asyncio.create_task(bind_late())
            client = ServiceClient(host, port)
            try:
                await client.connect(timeout=10.0)
                alive = await client.ping()
            finally:
                await binder
                await client.aclose()
                await service.stop()
            return alive

        assert run(scenario()) is True

    def test_connect_without_timeout_fails_fast(self):
        async def scenario():
            client = ServiceClient("127.0.0.1", 1)
            with pytest.raises(OSError):
                await client.connect()

        run(scenario())

    def test_connect_timeout_eventually_raises(self):
        async def scenario():
            client = ServiceClient("127.0.0.1", 1)
            with pytest.raises(OSError):
                await client.connect(timeout=0.3)

        run(scenario())


class TestServeCli:
    def test_cli_serve_end_to_end(self, tmp_path):
        """`python -m repro serve` + two sequential clients: cold run then a
        warm run served from the artifact cache (zero executed jobs)."""
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONUNBUFFERED"] = "1"
        process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--cache-dir",
                str(tmp_path / "cache"),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
            env=env,
        )
        try:
            banner = process.stdout.readline()
            match = re.search(r":(\d+) ", banner)
            assert match, f"no port in serve banner: {banner!r}"
            port = int(match.group(1))

            from repro.service import run_sweep

            ticks = []
            cold = run_sweep(
                "127.0.0.1",
                port,
                "characterize",
                {"fast": True},
                on_progress=lambda d, t, label: ticks.append((d, t)),
                timeout=TIMEOUT * 4,
                connect_timeout=TIMEOUT,  # rides out a server still binding
            )
            warm = run_sweep(
                "127.0.0.1", port, "characterize", {"fast": True}, timeout=TIMEOUT * 4
            )
            assert cold.payload["total_records"] == warm.payload["total_records"] > 0
            assert ticks, "cold run must stream progress events"
            assert warm.elapsed_seconds < cold.elapsed_seconds
        finally:
            process.terminate()
            process.wait(timeout=15)


def _unserialisable_workload(params, engine):
    return {"x": np.zeros(3)}  # ndarray: json.dumps will choke


def _bulky_workload(params, engine):
    """Deterministic payload whose JSON encoding can be made arbitrarily big."""
    count = int(params.get("count", 8))
    return {
        "rows": [{"index": i, "value": i * i, "tag": f"row-{i:04d}"} for i in range(count)],
        "total": sum(i * i for i in range(count)),
    }


class TestResultSerialisation:
    def test_unserialisable_payload_becomes_error_event(self, tmp_path):
        """A payload json cannot encode must terminate the request with an
        error event — never a silently dead task and a hung client."""
        register_workload("toy-unserialisable", _unserialisable_workload)
        try:

            async def scenario():
                engine = SweepEngine(cache=ArtifactCache(tmp_path))
                async with running_service(engine) as service:
                    host, port = service.address
                    async with ServiceClient(host, port) as client:
                        with pytest.raises(ServiceError, match="not serialisable"):
                            await client.submit("toy-unserialisable")
                        return await client.ping()

            assert run(scenario()) is True
        finally:
            unregister_workload("toy-unserialisable")

    def test_large_payload_rides_binary_result_frame(self, tmp_path, monkeypatch):
        """Payloads over RESULT_BINARY_BYTES ship as a v5 binary frame
        (result header + raw JSON bytes) and must decode to exactly the
        payload an inline result would have carried."""
        monkeypatch.setattr(protocol, "RESULT_BINARY_BYTES", 64)
        register_workload("toy-bulky", _bulky_workload)
        try:

            async def scenario():
                engine = SweepEngine(cache=ArtifactCache(tmp_path))
                async with running_service(engine) as service:
                    host, port = service.address
                    async with ServiceClient(host, port) as client:
                        result = await client.submit("toy-bulky", {"count": 64})
                        alive = await client.ping()
                return result, alive

            result, alive = run(scenario())
            assert alive is True, "connection must stay usable after a binary result"
            assert result.payload == _bulky_workload({"count": 64}, None)
        finally:
            unregister_workload("toy-bulky")

    def test_binary_threshold_matches_the_shipped_constant(self, tmp_path):
        """Same round trip against the real 256 KiB threshold: a payload
        whose JSON encoding exceeds RESULT_BINARY_BYTES arrives intact."""
        count = 12_000  # ~ 600 KB of JSON, comfortably over 256 KiB
        expected = _bulky_workload({"count": count}, None)
        encoded = len(json.dumps(expected, sort_keys=True).encode("utf-8"))
        assert encoded > protocol.RESULT_BINARY_BYTES, (
            f"test payload must exceed the binary threshold ({encoded} bytes)"
        )
        register_workload("toy-bulky", _bulky_workload)
        try:

            async def scenario():
                engine = SweepEngine(cache=ArtifactCache(tmp_path))
                async with running_service(engine) as service:
                    host, port = service.address
                    async with ServiceClient(host, port) as client:
                        return await client.submit("toy-bulky", {"count": count})

            assert run(scenario()).payload == expected
        finally:
            unregister_workload("toy-bulky")


class TestMontecarloWorkload:
    def test_montecarlo_is_engine_routed_and_cached(self, tmp_path):
        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            ticks = []
            async with running_service(engine) as service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    cold = await client.submit(
                        "montecarlo",
                        {"samples": 16, "seed": 7},
                        on_progress=lambda d, t, label: ticks.append((d, t)),
                    )
                    warm = await client.submit("montecarlo", {"samples": 16, "seed": 7})
            return cold, warm, ticks, engine.stats

        cold, warm, ticks, stats = run(scenario())
        assert cold.payload["sigma_v_blb"] == warm.payload["sigma_v_blb"]
        assert set(cold.payload["sigma_v_blb"]) == {"0.5ns", "1.0ns", "1.5ns", "2.0ns"}
        assert ticks == [(1, 1)], "the single vectorised job reports one tick"
        assert stats.jobs_executed == 1 and stats.cache_hits == 1


class TestWorkloadParams:
    """Boolean params must be JSON booleans and integer params JSON
    integers; nothing is coerced, so a request runs what it says."""

    @pytest.mark.parametrize(
        "workload, params, name",
        [
            ("dse", {"fast": "false"}, "fast"),  # string for a boolean
            ("characterize", {"fast": 1}, "fast"),  # integer for a boolean
            ("dnn", {"quick": "no"}, "quick"),
            ("montecarlo", {"shards": 2.9}, "shards"),  # float for an integer
            ("montecarlo", {"samples": "200"}, "samples"),  # string for an integer
            ("montecarlo", {"seed": True}, "seed"),  # boolean for an integer
            ("eventsim", {"shards": None}, "shards"),  # null for an integer
            ("eventsim", {"pairs": [[3.7, 5]]}, "pairs"),  # float operand
            ("eventsim", {"pairs": [[3, "5"]]}, "pairs"),  # string operand
            ("eventsim", {"pairs": [[True, 5]]}, "pairs"),  # boolean operand
        ],
    )
    def test_wrong_json_type_is_rejected_by_name(self, workload, params, name):
        from repro.service import get_workload

        with pytest.raises(ValueError, match=f"param '{name}' must be a JSON"):
            get_workload(workload)(params, SweepEngine())

    def test_rejection_reaches_the_client_as_failed(self):
        frames, _ = run(
            _fuzz_session(
                [{"op": "submit", "id": "s", "workload": "dse", "params": {"fast": "false"}}]
            )
        )
        errors = [frame for frame in frames if frame.get("id") == "s" and frame["event"] == "error"]
        assert [frame["code"] for frame in errors] == ["failed"]
        assert "param 'fast' must be a JSON boolean" in errors[0]["error"]


class TestDnnWorkload:
    def test_sharded_dnn_accuracy_is_bit_identical(self, tmp_path):
        """The sharded DNN evaluation merges integer hit counts, so any
        shard count reproduces the unsharded accuracies bit for bit."""
        from repro.analysis.dnn_tables import DnnExperimentConfig, run_dnn_accuracy_experiment
        from repro.dnn.datasets import imagenet_like

        params = {"model": "VGG16", "modes": ["float32", "int4"]}

        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            async with running_service(engine) as service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    whole = await client.submit("dnn", {**params, "shards": 1})
                    sharded = await client.submit("dnn", {**params, "shards": 3})
            return whole, sharded

        whole, sharded = run(scenario())
        assert whole.payload["shards"] == 1 and sharded.payload["shards"] == 3
        assert sharded.payload["samples"] == whole.payload["samples"]
        assert sharded.payload["reports"] == whole.payload["reports"]
        # a direct single-window run of the same graph, in process and
        # uncached, anchors the merge arithmetic: summed per-shard hit
        # counts over samples IS the full-set mean
        config = DnnExperimentConfig.quick()
        dataset = imagenet_like(
            image_size=config.image_size,
            train_per_class=config.train_per_class,
            test_per_class=config.test_per_class,
        )
        reports = run_dnn_accuracy_experiment(dataset, {}, config=config, models=["VGG16"])["VGG16"]
        samples = config.evaluation_size(dataset)
        assert samples == whole.payload["samples"]
        for mode in ("float32", "int4"):
            report = whole.payload["reports"][mode]
            assert report["top1"] == reports[mode].top1_hits / samples
            assert report["top5"] == reports[mode].top5_hits / samples

    def test_payload_is_byte_identical_for_one_two_and_three_shards(self, tmp_path):
        """Under the auto engine the shards run through the evaluate
        sweep's batch_fn; the serial engine runs them one job at a time."""
        from repro.runtime import SerialExecutor
        from repro.service.workloads import run_dnn

        params = {"model": "VGG16", "modes": ["int4", "fom", "float32"]}
        documents = set()
        for shards, engine in (
            (1, SweepEngine(cache=ArtifactCache(tmp_path))),
            (2, SweepEngine(cache=ArtifactCache(tmp_path))),
            (3, SweepEngine(cache=ArtifactCache(tmp_path))),
            (3, SweepEngine(SerialExecutor())),
        ):
            payload = run_dnn({**params, "shards": shards}, engine)
            assert payload.pop("shards") == shards
            documents.add(json.dumps(payload, sort_keys=True))
        assert len(documents) == 1

    def test_shards_share_one_cached_training(self, tmp_path, monkeypatch):
        """N shards cost one training and one calibration; other modes
        reuse the cached weights and quantisation."""
        from repro.analysis import dnn_tables

        trainings = []
        train_network = dnn_tables.train_network

        def counting_train_network(network, dataset, config=None):
            trainings.append(network.name)
            return train_network(network, dataset, config)

        monkeypatch.setattr(dnn_tables, "train_network", counting_train_network)
        modes = ["float32", "int4"]

        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            counters = []
            async with running_service(engine) as service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    for request_modes, shards in ((modes, 3), (modes[::-1], 3), (modes, 1)):
                        response = await client.submit(
                            "dnn", {"model": "VGG16", "modes": request_modes, "shards": shards}
                        )
                        counters.append(
                            (response, len(trainings), engine.stats.jobs_executed)
                        )
            return counters

        cold, permuted, whole = run(scenario())
        assert cold[0].payload["shards"] == 3
        assert cold[1:] == (1, 1 + 1 + 3), "one train + one quantize job + 3 evaluation shards"
        assert permuted[1:] == (1, 5 + 3), "permuted modes: 3 new shards, no training"
        assert whole[1] == 1
        assert permuted[0].payload["reports"] == whole[0].payload["reports"]
        assert permuted[0].payload["reports"] == cold[0].payload["reports"]

    def test_warm_request_with_new_mode_order_only_evaluates(self, tmp_path, monkeypatch):
        """The shards of a warm request load the cached quantisation: no
        calibration runs, yet every shard evaluates."""
        from repro.analysis import dnn_tables
        from repro.service.workloads import run_dnn

        calibrations, evaluations = [], []
        quantize_network, evaluate_backends = dnn_tables.quantize_network, dnn_tables.evaluate_backends

        def counting_quantize(*args, **kwargs):
            calibrations.append(args[0].name)
            return quantize_network(*args, **kwargs)

        def counting_evaluate(*args, **kwargs):
            evaluations.append(kwargs["window"])
            return evaluate_backends(*args, **kwargs)

        monkeypatch.setattr(dnn_tables, "quantize_network", counting_quantize)
        monkeypatch.setattr(dnn_tables, "evaluate_backends", counting_evaluate)
        engine = SweepEngine(cache=ArtifactCache(tmp_path))
        cold = run_dnn({"model": "VGG16", "modes": ["float32", "int4"], "shards": 2}, engine)
        assert (len(calibrations), len(evaluations)) == (1, 2)
        warm = run_dnn({"model": "VGG16", "modes": ["int4", "float32"], "shards": 2}, engine)
        assert (len(calibrations), len(evaluations)) == (1, 4)
        assert warm["reports"] == cold["reports"]

    def test_shard_jobs_carry_only_the_trained_state(self):
        """A shard ships the trained weights and their quantisation, never
        the network or the dataset, so its cluster message stays small at
        any dataset size."""
        import pickle

        from repro.analysis.dnn_tables import DSE_CORNERS, ModelSpec
        from repro.dnn.datasets import DatasetSpec
        from repro.dnn.network import network_state
        from repro.runtime import SerialExecutor
        from repro.service.workloads import run_dnn

        shard_jobs = []

        class Recording(SerialExecutor):
            def execute(self, jobs, *args, **kwargs):
                shard_jobs.extend(job for job in jobs if job.name.startswith("evaluate["))
                return super().execute(jobs, *args, **kwargs)

        run_dnn({"model": "VGG16", "shards": 2}, SweepEngine(executor=Recording()))
        assert len(shard_jobs) == 2
        model, state, quantized, dataset, modes, window, corners = shard_jobs[0].args
        assert model == ModelSpec("VGG16", 8, 20)
        assert isinstance(dataset, DatasetSpec)
        assert (modes, window, corners) == (("float32", "int4"), (0, 60), DSE_CORNERS)
        assert state.keys() == network_state(model.build()).keys()
        arrays = [*state.values(), *quantized.values()]
        # the arrays' bytes, plus a bounded pickle overhead per array
        bound = sum(array.nbytes for array in arrays) + 128 * len(arrays) + 4096
        for job in shard_jobs:
            assert len(pickle.dumps(job.args)) < bound

    def test_dnn_rejects_unknown_model_and_mode(self, tmp_path):
        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            async with running_service(engine) as service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    with pytest.raises(ServiceError, match="unknown model"):
                        await client.submit("dnn", {"model": "AlexNet"})
                    with pytest.raises(ServiceError, match="unknown mode"):
                        await client.submit("dnn", {"modes": ["float64"]})
                    with pytest.raises(ServiceError, match="shards"):
                        await client.submit("dnn", {"shards": 0})

        run(scenario())

    def test_corner_shards_run_the_dse_once_per_process(self, monkeypatch):
        """Every corner-mode shard in a process shares one set of corner
        tables: one design-space exploration, however many shards."""
        from repro.analysis import dnn_tables
        from repro.analysis.dnn_tables import DSE_CORNERS, MODES, ModelSpec
        from repro.service import workloads

        explorations = []
        explore = dnn_tables.explore_design_space

        def counting_explore(*args, **kwargs):
            explorations.append(args)
            return explore(*args, **kwargs)

        dnn_tables._dse_corner_means.cache_clear()
        # corner_backends calls the name dnn_tables imported from repro.core.dse
        monkeypatch.setattr(dnn_tables, "explore_design_space", counting_explore)
        config = workloads._dnn_config(True)
        dataset = workloads._dnn_dataset(config)
        model = ModelSpec("VGG16", config.image_size, dataset.classes)
        state = dnn_tables.train(model, None, dataset, config.training())
        quantized = dnn_tables.quantize(model, state, dataset, config.calibration_samples)
        total = config.evaluation_size(dataset)

        shards = [
            dnn_tables.evaluate(model, state, quantized, dataset, MODES, window, DSE_CORNERS)
            for window in ((0, 45), (45, total))
        ]
        workloads.run_dnn({"model": "VGG16", "modes": list(MODES), "shards": 3}, SweepEngine())
        assert len(explorations) == 1, "five corner-mode shards, one DSE"

        means = dnn_tables._lut_means(dnn_tables.corner_backends())
        whole = dnn_tables.evaluate(model, state, quantized, dataset, MODES, (0, total), means)
        assert {key: sum(shard[key] for shard in shards) for key in whole} == whole

    def test_corner_mode_without_a_backend_is_an_error(self, monkeypatch):
        """A corner mode needs its table or the named DSE corners; no
        caller can fall back to a hidden calibration plus DSE."""
        from repro.analysis import dnn_tables
        from repro.analysis.dnn_tables import ModelSpec
        from repro.multiplier.lut import ProductLookupTable
        from repro.service import workloads

        monkeypatch.setattr(dnn_tables, "explore_design_space", None)
        config = workloads._dnn_config(True)
        dataset = workloads._dnn_dataset(config)
        model = ModelSpec("VGG16", config.image_size, dataset.classes)
        for corners in ({}, {"power": ProductLookupTable.exact().mean}):
            with pytest.raises(ValueError, match="'fom'"):
                dnn_tables.evaluate(
                    model, None, None, dataset, ("float32", "fom"), (0, 4), corners
                )


# ----------------------------------------------------------------------
# `run` and `serve` share one workload registry
# ----------------------------------------------------------------------
def _run_choices():
    """The workload choices of the ``python -m repro run`` parser."""
    import argparse

    from repro.runtime.cli import build_parser

    subparsers = next(
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    run_parser = subparsers.choices["run"]
    return next(action.choices for action in run_parser._actions if action.dest == "workload")


class TestRunMatchesServe:
    """A ``run NAME --json`` document is the served document of NAME plus
    ``elapsed_seconds``; the text output renders that same document."""

    #: Lines the text rendering of each document must contain.
    TEXT = {
        "dse": ("Table I reproduction",),
        "pvt": ("Fig. 5", "Fig. 8"),
        "characterize": ("records",),
        "tables": ("Table II protocol",),
    }

    def test_every_run_choice_is_a_registered_workload(self):
        assert set(_run_choices()) == set(self.TEXT)
        assert set(_run_choices()) <= set(workload_names())

    @pytest.mark.parametrize("name", ["dse", "pvt", "characterize", "tables"])
    def test_run_document_equals_served_document(self, name, tmp_path, capsys):
        from repro.runtime.cli import main as cli_main

        cache_dir = tmp_path / "cache"
        json_path = tmp_path / f"{name}.json"
        argv = ["run", name, "--fast", "--quiet", "--cache-dir", str(cache_dir)]
        assert cli_main([*argv, "--json", str(json_path)]) == 0
        output = capsys.readouterr().out
        document = json.loads(json_path.read_text())
        assert document.pop("elapsed_seconds") >= 0.0

        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(cache_dir))
            async with running_service(engine) as service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    return await client.submit(name, {"fast": True})

        served = run(scenario())
        assert json.dumps(document, sort_keys=True) == json.dumps(served.payload, sort_keys=True)
        for needle in (*self.TEXT[name], "SweepEngine", "total wall time"):
            assert needle in output, f"run {name}: {needle!r} missing from the text output"


# ----------------------------------------------------------------------
# Fuzzing the NDJSON ops
# ----------------------------------------------------------------------
#: Every read of the fuzz test is bounded: a request the service never
#: answers is exactly the defect the test exists to catch.
READ_TIMEOUT = 10.0

#: Frames that end a request: each request gets exactly one (an accepted
#: submit first gets ``accepted``, then progress, then one of these).
_CLOSING_EVENTS = ("pong", "status", "watching", "error", "result")

_FUZZ_WORKLOADS = ("fuzz-echo", "fuzz-failing")


def _echo_workload(params, engine):
    return {"keys": sorted(params)}


_json_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=6), children, max_size=3),
    max_leaves=8,
)
# The reserved framing keys announce or carry a binary payload; the framing
# layer's own fuzz tests (tests/test_wire.py) cover them.
_keys = st.text(max_size=8).filter(lambda key: key not in (wire.BINARY_KEY, wire.PAYLOAD_KEY))
_messages = st.fixed_dictionaries(
    {},
    optional={
        "op": st.sampled_from(("submit", "ping", "status", "cancel", "watch", "frobnicate"))
        | _json_values,
        "id": st.text(max_size=4) | _json_values,
        "workload": st.sampled_from(_FUZZ_WORKLOADS) | st.text(max_size=12) | _json_values,
        "params": st.dictionaries(_keys, _json_values, max_size=3) | _json_values,
        # not a submit field: every submit carrying it is a bad request
        "sched": st.sampled_from(("interactive", "batch")) | _json_values,
        "trace": st.text(max_size=4) | _json_values,
    },
).filter(
    # unknown names and the toy workloads only: never a real sweep
    lambda message: not isinstance(message.get("workload"), str)
    or message["workload"] in _FUZZ_WORKLOADS
    or message["workload"] not in workload_names()
)
_lines = st.binary(max_size=48).map(lambda data: data.replace(b"\n", b"") + b"\n")


def _is_frame(line: bytes) -> bool:
    try:
        protocol.decode_message(line)
    except ProtocolError:
        return False
    return True


async def _fuzz_session(items):
    """Send each item on one connection; returns every frame received.

    A JSON object travels with a sentinel ping, and the exchange waits for
    both closing frames before the next item.  A line that is not a frame
    must get one ``bad-request`` error and end the connection; the session
    then reconnects.  Finally a ping and a status go out.
    """
    frames = []

    async def read(reader):
        message = await asyncio.wait_for(protocol.read_message(reader), READ_TIMEOUT)
        if message is not None:
            frames.append(message)
        return message

    async with running_service(SweepEngine()) as service:
        host, port = service.address

        async def connect():
            return await asyncio.open_connection(host, port, limit=protocol.MAX_MESSAGE_BYTES)

        reader, writer = await connect()
        for index, item in enumerate(items):
            line = item if isinstance(item, bytes) else protocol.encode_message(item)
            if not _is_frame(line):
                writer.write(line)
                await writer.drain()
                # Until the end of the stream: one connection-level error,
                # plus the obs frames and the terminal `cancelled` error of
                # a watch the closing connection ends.
                before = len(frames)
                while await read(reader) is not None:
                    pass
                complaints = [
                    frame for frame in frames[before:] if frame["event"] == "error" and frame["id"] is None
                ]
                assert [frame["code"] for frame in complaints] == ["bad-request"], frames[before:]
                writer.close()
                with contextlib.suppress(ConnectionError, OSError):
                    await writer.wait_closed()
                reader, writer = await connect()
                continue
            sentinel = f"fuzz-sentinel-{index}"
            writer.write(line + protocol.encode_message({"op": "ping", "id": sentinel}))
            await writer.drain()
            closing, ponged = 0, False
            while closing < 2 or not ponged:
                message = await read(reader)
                assert message is not None, f"connection dropped after {item!r}"
                if message["event"] in _CLOSING_EVENTS:
                    closing += 1
                ponged = ponged or message == {"event": "pong", "id": sentinel}
            assert closing == 2, f"{item!r} got more than one closing frame"
        writer.write(
            protocol.encode_message({"op": "ping", "id": "last"})
            + protocol.encode_message({"op": "status", "id": "last-status"})
        )
        await writer.drain()
        replies = {}
        while len(replies) < 2:
            message = await read(reader)
            assert message is not None
            if message.get("id") in ("last", "last-status"):
                replies[message["id"]] = message
        writer.close()
        with contextlib.suppress(ConnectionError, OSError):
            await writer.wait_closed()
    return frames, replies


class TestNdjsonFuzz:
    @settings(max_examples=60, deadline=None)
    @given(items=st.lists(_messages | _lines, min_size=1, max_size=6))
    @example(items=[{"op": "submit", "id": "a", "workload": "fuzz-echo", "params": {"x": 1}}])
    @example(items=[{"op": "submit", "id": "a", "workload": "dse", "params": []}])
    @example(items=[{"op": ["submit"], "id": "x"}, {"id": {}}, b"\xff\n", {"op": "watch", "id": "w"}])
    @example(items=[{"op": "watch", "id": ""}, b"\n", {"op": "ping"}])
    def test_any_message_gets_a_typed_reply(self, items):
        register_workload("fuzz-echo", _echo_workload)
        register_workload("fuzz-failing", _failing_workload)
        try:
            frames, replies = run(_fuzz_session(items))
        finally:
            for name in _FUZZ_WORKLOADS:
                unregister_workload(name)
        for frame in frames:
            assert frame["event"] in protocol.SERVICE_EVENTS, frame
            if frame["event"] == "error":
                assert frame["code"] in protocol.ERROR_CODES, frame
                assert "Traceback" not in frame["error"], frame
        assert replies["last"] == {"event": "pong", "id": "last"}
        assert replies["last-status"]["in_flight"] == 0

    @pytest.mark.parametrize(
        "fields, complaint",
        [
            ({"sched": "interactive"}, "unknown submit field(s): sched"),
            ({"sched": {"class": "batch", "priority": 3}}, "unknown submit field(s): sched"),
            ({"priority": 1, "extra": None}, "unknown submit field(s): extra, priority"),
            ({"trace": 7}, "trace must be a string"),
            ({"trace": ["t"]}, "trace must be a string"),
        ],
    )
    def test_submit_fields_are_checked_like_the_gateway(self, fields, complaint):
        """A field outside ``SUBMIT_FIELDS`` or a non-string ``trace`` is a
        typed ``bad-request``; the sweep never starts."""
        register_workload("fuzz-echo", _echo_workload)
        try:
            message = {"op": "submit", "id": "s", "workload": "fuzz-echo", "params": {}}
            frames, replies = run(_fuzz_session([{**message, **fields}]))
        finally:
            unregister_workload("fuzz-echo")
        submit_frames = [frame for frame in frames if frame.get("id") == "s"]
        assert len(submit_frames) == 1, submit_frames
        assert submit_frames[0]["event"] == "error"
        assert submit_frames[0]["code"] == "bad-request"
        assert complaint in submit_frames[0]["error"]
        assert replies["last-status"]["engine_stats"]["sweeps"] == 0
