"""Tests for the observability layer (:mod:`repro.obs`).

Covers the tentpole guarantees:

* the metrics registry is pure accounting: counters / gauges / labelled
  histograms render valid Prometheus 0.0.4 text that the shared
  :func:`repro.obs.parse_exposition` validator round-trips;
* the metric naming rule (``repro_<subsystem>_<what>_<unit>``) is
  enforced at registration time AND holds for every metric the
  instrumented tiers actually register (the same lint CI runs);
* :class:`repro.obs.CounterGroup` keeps instance-relative ``status``
  numbers at zero while the process-wide counters stay monotonic;
* the event bus delivers in strictly increasing ``seq`` order and never
  lets a broken subscriber take an emitting tier down;
* the ``GET /metrics`` endpoint speaks the exposition content type and
  survives junk requests;
* one sweep is observable three ways with consistent numbers — the
  Prometheus scrape, the ``watch`` event stream (trace id across tiers)
  and the ``status`` op all agree.

Every async scenario runs under ``asyncio.wait_for`` so a hung server
fails the test quickly instead of stalling the suite.
"""

from __future__ import annotations

import asyncio
import contextlib

import pytest

from repro import obs
from repro.obs.http import CONTENT_TYPE, MetricsServer
from repro.obs.metrics import LABEL_NAME_RE
from repro.runtime import Job, SweepEngine, SweepSpec
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


@contextlib.asynccontextmanager
async def running_service(engine=None, **kwargs):
    service = SweepService(engine=engine, **kwargs)
    await service.start()
    try:
        yield service
    finally:
        await service.stop()


# ----------------------------------------------------------------------
# Registry accounting
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram(self):
        registry = obs.MetricsRegistry()
        jobs = registry.counter("repro_t_jobs_total", "Jobs.")
        jobs.inc()
        jobs.inc(4)
        assert jobs.value() == 5.0
        with pytest.raises(ValueError, match="cannot decrease"):
            jobs.inc(-1)

        live = registry.gauge("repro_t_live_total")
        live.inc()
        live.inc()
        live.dec()
        assert live.value() == 1.0
        live.set_function(lambda: 9)
        assert live.value() == 9.0

        seconds = registry.histogram("repro_t_run_seconds", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            seconds.observe(value)
        assert seconds.count() == 3
        assert seconds.sum() == pytest.approx(5.55)

    def test_labels(self):
        registry = obs.MetricsRegistry()
        ops = registry.counter("repro_t_requests_total", labels=("op",))
        ops.inc(op="submit")
        ops.inc(2, op="status")
        assert ops.value(op="submit") == 1.0
        assert ops.value(op="status") == 2.0
        assert ops.value(op="never-seen") == 0.0
        with pytest.raises(ValueError, match="takes labels"):
            ops.inc(kind="submit")
        with pytest.raises(ValueError, match="invalid label name"):
            registry.counter("repro_t_bad_total", labels=("0digit",))

    def test_name_lint_enforced_at_registration(self):
        registry = obs.MetricsRegistry()
        for bad in ("jobs_total", "repro_jobs", "repro_Jobs_total", "repro_x_count"):
            with pytest.raises(ValueError, match="does not match"):
                registry.counter(bad)

    def test_get_or_create_is_idempotent_but_typed(self):
        registry = obs.MetricsRegistry()
        first = registry.counter("repro_t_ticks_total", labels=("op",))
        assert registry.counter("repro_t_ticks_total", labels=("op",)) is first
        with pytest.raises(ValueError, match="already registered as counter"):
            registry.gauge("repro_t_ticks_total", labels=("op",))
        with pytest.raises(ValueError, match="already registered with labels"):
            registry.counter("repro_t_ticks_total", labels=("kind",))

    def test_render_round_trips_through_the_validator(self):
        registry = obs.MetricsRegistry()
        registry.counter("repro_t_events_total", "Events.", labels=("type",)).inc(
            3, type="chunk_done"
        )
        registry.gauge("repro_t_bytes_bytes", "Size.").set(1234)
        histogram = registry.histogram(
            "repro_t_chunk_seconds", "Chunk wall time.", buckets=(0.1, 1.0)
        )
        histogram.observe(0.05)
        histogram.observe(2.0)

        parsed = obs.parse_exposition(registry.render())
        assert parsed["repro_t_events_total"][(("type", "chunk_done"),)] == 3.0
        assert parsed["repro_t_bytes_bytes"][()] == 1234.0
        buckets = parsed["repro_t_chunk_seconds_bucket"]
        assert buckets[(("le", "0.1"),)] == 1.0
        assert buckets[(("le", "1"),)] == 1.0  # cumulative, 2.0 is above
        assert buckets[(("le", "+Inf"),)] == 2.0
        assert parsed["repro_t_chunk_seconds_count"][()] == 2.0
        assert parsed["repro_t_chunk_seconds_sum"][()] == pytest.approx(2.05)

    def test_validator_rejects_malformed_text(self):
        with pytest.raises(ValueError, match="malformed sample"):
            obs.parse_exposition("this is not exposition text\n")
        with pytest.raises(ValueError, match="has no # TYPE"):
            obs.parse_exposition("repro_unannounced_total 1\n")

    def test_counter_group_is_baseline_relative(self):
        registry = obs.MetricsRegistry()
        rejects = registry.counter("repro_t_rejects_total")
        rejects.inc(7)  # an earlier instance's traffic
        group = obs.CounterGroup({"rejects": rejects})
        assert group["rejects"] == 0
        group.inc("rejects", 2)
        assert group["rejects"] == 2
        assert rejects.value() == 9.0  # the scrape keeps the monotonic truth
        assert dict(group) == {"rejects": 2}


class TestNamingLint:
    def test_every_registered_metric_matches_the_rule(self):
        """The CI naming lint: after importing every instrumented tier (and
        constructing a Coordinator, whose counters register lazily), each
        name in the process registry must match METRIC_NAME_RE and each
        label the label rule."""
        import repro.runtime  # noqa: F401  (registers engine metrics)
        import repro.runtime.cache  # noqa: F401
        import repro.service.server  # noqa: F401
        import repro.cluster.worker  # noqa: F401
        from repro.cluster.coordinator import Coordinator

        Coordinator()  # cluster counters register at first construction
        names = obs.REGISTRY.names()
        assert names, "the registry cannot be empty after importing the tiers"
        for name in names:
            assert obs.METRIC_NAME_RE.match(name), f"bad metric name {name!r}"
            for label in obs.REGISTRY.get(name).labels:
                assert LABEL_NAME_RE.match(label), f"bad label {label!r} on {name!r}"
        # the issue-mandated spot checks: the converted ad-hoc stats exist
        for expected in (
            "repro_service_requests_total",
            "repro_status_cluster_errors_total",
            "repro_engine_jobs_executed_total",
            "repro_cluster_chunks_dispatched_total",
            "repro_cache_events_total",
        ):
            assert expected in names, f"{expected} missing from the registry"


# ----------------------------------------------------------------------
# Event bus
# ----------------------------------------------------------------------
class TestEventBus:
    def test_seq_is_strictly_monotonic_per_subscriber(self):
        bus = obs.EventBus()
        seen = []
        bus.subscribe(seen.append)
        for index in range(5):
            bus.emit("chunk_done", trace="t", chunk=index)
        seqs = [event["seq"] for event in seen]
        assert seqs == sorted(seqs) and len(set(seqs)) == 5

    def test_unknown_type_rejected_and_trace_optional(self):
        bus = obs.EventBus()
        with pytest.raises(ValueError, match="unknown event type"):
            bus.emit("totally_new_thing")
        event = bus.emit("cache_hit")
        assert "trace" not in event
        assert bus.emit("cache_hit", trace="t-1")["trace"] == "t-1"

    def test_broken_subscriber_never_breaks_the_emitter(self):
        bus = obs.EventBus()
        seen = []

        def broken(event):
            raise RuntimeError("subscriber bug")

        bus.subscribe(broken)
        bus.subscribe(seen.append)
        bus.emit("worker_joined", worker="w1")
        assert len(seen) == 1

    def test_unsubscribe_round_trips(self):
        bus = obs.EventBus()
        seen = []
        callback = bus.subscribe(seen.append)
        bus.emit("worker_joined", worker="w1")
        assert len(seen) == 1
        bus.unsubscribe(callback)
        bus.unsubscribe(callback)  # idempotent
        bus.emit("worker_lost", worker="w1")
        assert len(seen) == 1


# ----------------------------------------------------------------------
# HTTP exposition endpoint
# ----------------------------------------------------------------------
async def _http_get(host, port, path="/metrics", request_line=None):
    reader, writer = await asyncio.open_connection(host, port)
    raw = request_line or f"GET {path} HTTP/1.0"
    writer.write(f"{raw}\r\nHost: test\r\n\r\n".encode("latin-1"))
    await writer.drain()
    data = await reader.read()
    writer.close()
    with contextlib.suppress(ConnectionError, OSError):
        await writer.wait_closed()
    header, _, body = data.partition(b"\r\n\r\n")
    lines = header.split(b"\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        key, _, value = line.partition(b":")
        headers[key.strip().lower().decode()] = value.strip().decode()
    return status, headers, body.decode("utf-8")


class TestMetricsServer:
    def test_scrape_is_valid_exposition(self):
        async def scenario():
            obs.counter("repro_t_scrapeme_total").inc(3)
            server = await MetricsServer().start()
            try:
                await _http_get("127.0.0.1", server.port)  # prime the scrape counter
                return await _http_get("127.0.0.1", server.port)
            finally:
                await server.stop()

        status, headers, body = run(scenario())
        assert status == 200
        assert headers["content-type"] == CONTENT_TYPE
        parsed = obs.parse_exposition(body)
        assert parsed["repro_t_scrapeme_total"][()] >= 3.0
        # the endpoint accounts for its own scrapes
        assert parsed["repro_obs_scrapes_total"][(("code", "200"),)] >= 1.0

    def test_unknown_path_and_bad_method(self):
        async def scenario():
            server = await MetricsServer().start()
            try:
                missing = await _http_get("127.0.0.1", server.port, path="/nope")
                posted = await _http_get(
                    "127.0.0.1", server.port, request_line="POST /metrics HTTP/1.0"
                )
                root = await _http_get("127.0.0.1", server.port, path="/")
            finally:
                await server.stop()
            return missing, posted, root

        missing, posted, root = run(scenario())
        assert missing[0] == 404
        assert posted[0] == 400
        assert root[0] == 200

    def test_start_in_thread_serves_loopless_hosts(self):
        server = MetricsServer().start_in_thread()
        try:
            status, _, body = run(_http_get("127.0.0.1", server.port))
            assert status == 200
            obs.parse_exposition(body)  # raises on malformed text
        finally:
            server.stop_in_thread()


# ----------------------------------------------------------------------
# Service integration: trace ids, watch stream, three-way consistency
# ----------------------------------------------------------------------
def _obs_square(value: int) -> int:
    return value * value


def _obs_workload(params, engine):
    count = int(params.get("n", 4))
    jobs = [Job(fn=_obs_square, args=(i,), name=f"sq[{i}]") for i in range(count)]
    return {"sum": sum(engine.run(SweepSpec("obs-toy", jobs)))}


@pytest.fixture
def obs_workload():
    register_workload("obs-toy", _obs_workload)
    try:
        yield
    finally:
        unregister_workload("obs-toy")


class TestServiceObservability:
    def test_server_mints_trace_and_client_proposal_wins(self, obs_workload):
        async def scenario():
            async with running_service(SweepEngine()) as service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    minted = await client.submit("obs-toy", {"n": 2})
                    proposed = await client.submit(
                        "obs-toy", {"n": 3}, trace="trace-mine"
                    )
            return minted, proposed

        minted, proposed = run(scenario())
        assert minted.trace, "the server must mint a trace when none is proposed"
        assert proposed.trace == "trace-mine"

    def test_watch_stream_orders_one_trace_monotonically(self, obs_workload):
        """Satellite: events for one trace arrive in strictly increasing
        ``seq`` order, and the trace follows the sweep across tiers."""

        async def scenario():
            async with running_service(SweepEngine()) as service:
                host, port = service.address
                async with ServiceClient(host, port) as watcher:
                    events = []

                    async def consume():
                        async for event in watcher.watch():
                            events.append(event)
                            if event.get("type") == "run_result":
                                return

                    consumer = asyncio.create_task(consume())
                    while not service._watch_entries:  # subscription is live
                        await asyncio.sleep(0.01)
                    async with ServiceClient(host, port) as client:
                        result = await client.submit(
                            "obs-toy", {"n": 4}, trace="trace-watch-1"
                        )
                    await asyncio.wait_for(consumer, TIMEOUT)
            return result, events

        result, events = run(scenario())
        assert result.trace == "trace-watch-1"
        mine = [e for e in events if e.get("trace") == "trace-watch-1"]
        types = [e["type"] for e in mine]
        for expected in ("submit_accepted", "run_started", "run_finished", "run_result"):
            assert expected in types, f"no {expected} event for the trace"
        seqs = [e["seq"] for e in mine]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        # service-tier and engine-tier events share the one trace: the
        # submit_accepted must precede every engine event
        assert types[0] == "submit_accepted"

    def test_watch_cancel_ends_the_stream_cleanly(self):
        async def scenario():
            async with running_service(SweepEngine()) as service:
                host, port = service.address
                async with ServiceClient(host, port) as watcher:

                    async def consume():
                        async for _ in watcher.watch():
                            pass
                        return "ended"

                    task = asyncio.create_task(consume())
                    while not service._watch_entries:
                        await asyncio.sleep(0.01)
                    assert await watcher.cancel() is True
                    outcome = await asyncio.wait_for(task, 5.0)
                    alive = await watcher.ping()  # the connection survives
            return outcome, alive

        outcome, alive = run(scenario())
        assert outcome == "ended" and alive is True

    def test_stop_with_live_watcher_does_not_deadlock(self):
        async def scenario():
            service = SweepService(SweepEngine())
            host, port = await service.start()
            watcher = await ServiceClient(host, port).connect()

            async def consume():
                with contextlib.suppress(Exception):
                    async for _ in watcher.watch():
                        pass

            task = asyncio.create_task(consume())
            while not service._watch_entries:
                await asyncio.sleep(0.01)
            await service.stop()  # must cancel the watcher, not wait on it
            await asyncio.wait_for(task, 5.0)
            await watcher.aclose()
            return True

        assert run(scenario()) is True

    def test_one_sweep_three_consistent_views(self, obs_workload):
        """The acceptance criterion: Prometheus scrape, watch stream and
        ``status`` op observe the same sweep with consistent numbers."""
        jobs_counter = obs.REGISTRY.counter("repro_engine_jobs_executed_total")
        submit_counter = obs.REGISTRY.counter(
            "repro_service_requests_total", labels=("op",)
        )
        jobs_before = jobs_counter.value()
        submits_before = submit_counter.value(op="submit")

        async def scenario():
            async with running_service(SweepEngine()) as service:
                host, port = service.address
                metrics = await MetricsServer().start()
                try:
                    async with ServiceClient(host, port) as watcher:
                        events = []

                        async def consume():
                            async for event in watcher.watch():
                                events.append(event)
                                if event.get("type") == "run_result":
                                    return

                        consumer = asyncio.create_task(consume())
                        while not service._watch_entries:
                            await asyncio.sleep(0.01)
                        async with ServiceClient(host, port) as client:
                            result = await client.submit("obs-toy", {"n": 5})
                            status = await client.status()
                        await asyncio.wait_for(consumer, TIMEOUT)
                    _, _, body = await _http_get("127.0.0.1", metrics.port)
                finally:
                    await metrics.stop()
            return result, status, events, body

        result, status, events, body = run(scenario())

        # view 1: the status op (fresh engine: absolute numbers)
        assert status["engine_stats"]["jobs_executed"] == 5
        assert status["engine_stats"]["sweeps"] == 1

        # view 2: the Prometheus scrape (process-lifetime: deltas)
        parsed = obs.parse_exposition(body)
        assert (
            parsed["repro_engine_jobs_executed_total"][()] - jobs_before == 5.0
        ), "scraped engine counter must match the status totals"
        assert (
            parsed["repro_service_requests_total"][(("op", "submit"),)]
            - submits_before
            == 1.0
        )
        assert jobs_counter.value() - jobs_before == 5.0

        # view 3: the watch stream, stamped with the sweep's trace id
        assert result.trace
        mine = [e for e in events if e.get("trace") == result.trace]
        finished = [e for e in mine if e["type"] == "run_finished"]
        assert finished and finished[0]["jobs"] == 5
        assert any(e["type"] == "run_result" for e in mine)
