"""Resilience-layer tests: cancellation, backpressure, journal recovery.

Covers the serving-tier hardening guarantees end to end:

* **cancellation** — an explicit ``cancel`` op and a client disconnect both
  abort a submitted sweep at the next job boundary (the progress stream
  goes quiet and the engine stops executing jobs); a single-flighted sweep
  only dies when its *last* subscriber cancels; the distributed executor
  forwards the abort to the coordinator, which revokes queued chunks and
  tells workers to drop in-flight ones;
* **backpressure** — per-connection in-flight and queued-bytes limits
  answer over-budget submits with structured ``busy`` errors (typed
  client-side), never by queueing unbounded work;
* **journal recovery** — a ``python -m repro serve`` subprocess SIGKILLed
  mid-sweep is restarted with ``--resume``; the interrupted job is
  re-enqueued from the journal and the resubmitted request is served from
  the cache, bit-identical to an uninterrupted run.

Every async scenario runs under ``asyncio.wait_for`` so a hung server fails
the test quickly instead of stalling the suite (the CI job adds an outer
``timeout`` guard on top).
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import re
import signal
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.journal import JobJournal, default_journal_path
from repro.runtime import (
    ArtifactCache,
    Job,
    SweepCancelled,
    SweepEngine,
    SweepSpec,
    make_executor,
)
from repro.runtime.cli import main as cli_main
from repro.service import (
    ServiceBadRequestError,
    ServiceCancelledError,
    ServiceClient,
    ServiceError,
    SweepService,
    register_workload,
    unregister_workload,
)
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
# Toy workloads (module-level so cluster workers can unpickle the jobs)
# ----------------------------------------------------------------------
_EXECUTED = []


def _slow_job(value: int) -> int:
    time.sleep(0.02)
    _EXECUTED.append(value)
    return value


def _sleep_job(value: int) -> int:
    time.sleep(0.02)
    return value


def _slow_workload(params, engine):
    """An engine-routed sweep of slow jobs; cancellable between jobs."""
    count = int(params.get("n", 50))
    jobs = [Job(fn=_slow_job, args=(i,), name=f"slow[{i}]") for i in range(count)]
    return {"sum": sum(engine.run(SweepSpec("slow", jobs)))}


def _quick_workload(params, engine):
    return {"echo": params.get("value")}


@pytest.fixture
def toy_workloads():
    _EXECUTED.clear()
    register_workload("slow", _slow_workload)
    register_workload("quick", _quick_workload)
    try:
        yield
    finally:
        for name in ("slow", "quick"):
            unregister_workload(name)


# ----------------------------------------------------------------------
# Cancellation: engine + service
# ----------------------------------------------------------------------
class TestServiceCancellation:
    def test_explicit_cancel_stops_the_sweep(self, toy_workloads, tmp_path):
        """client.cancel() -> ServiceCancelledError, and the engine stops
        executing jobs (asserted via the execution count going quiet)."""

        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            async with running_service(engine) as service:
                host, port = service.address
                client = await ServiceClient(host, port).connect()
                ticks = []
                submit = asyncio.create_task(
                    client.submit("slow", {"n": 200}, on_progress=lambda d, t, l: ticks.append(d))
                )
                while not ticks:
                    await asyncio.sleep(0.005)
                flight = next(iter(service._flights.values()))
                assert await client.cancel() is True
                with pytest.raises(ServiceCancelledError):
                    await submit
                # wait for the sweep thread to hit the cancel check and die
                await asyncio.gather(flight.task, return_exceptions=True)
                executed_after_cancel = len(_EXECUTED)
                await asyncio.sleep(0.3)  # progress must stay quiet now
                await client.aclose()
                return executed_after_cancel, len(_EXECUTED), service.jobs_cancelled

        at_cancel, later, cancelled_count = run(scenario())
        assert later == at_cancel, "sweep kept executing after cancellation"
        assert later < 200, "sweep ran to completion despite cancel"
        assert cancelled_count == 1

    def test_client_disconnect_triggers_cancel(self, toy_workloads, tmp_path):
        """Dropping the connection mid-stream cancels the sweep: the job
        stops burning CPU, asserted via the progress stream going quiet."""

        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            async with running_service(engine) as service:
                host, port = service.address
                client = await ServiceClient(host, port).connect()
                ticks = []
                submit = asyncio.create_task(
                    client.submit("slow", {"n": 200}, on_progress=lambda d, t, l: ticks.append(d))
                )
                while len(ticks) < 2:
                    await asyncio.sleep(0.005)
                flight = next(iter(service._flights.values()))
                # abrupt disconnect: no cancel op, just drop the socket
                await client.aclose()
                with contextlib.suppress(ConnectionError, ServiceError, asyncio.CancelledError):
                    await submit
                # wait for the sweep thread to hit the cancel check and die
                await asyncio.gather(flight.task, return_exceptions=True)
                executed_at_cancel = len(_EXECUTED)
                await asyncio.sleep(0.3)
                return executed_at_cancel, len(_EXECUTED), service.jobs_cancelled

        at_cancel, later, cancelled_count = run(scenario())
        assert later == at_cancel, "disconnected client's sweep kept burning CPU"
        assert later < 200
        assert cancelled_count == 1

    def test_single_flight_survives_until_last_subscriber_cancels(
        self, toy_workloads, tmp_path
    ):
        """Two clients share one flight; one cancelling leaves the other's
        sweep running to a full result.  Only the last cancel aborts."""

        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            async with running_service(engine) as service:
                host, port = service.address
                first = await ServiceClient(host, port).connect()
                second = await ServiceClient(host, port).connect()
                params = {"n": 40}
                task_a = asyncio.create_task(first.submit("slow", params))
                task_b = asyncio.create_task(second.submit("slow", params))
                while not any(f.subscribers == 2 for f in service._flights.values()):
                    await asyncio.sleep(0.005)
                await first.cancel()
                with pytest.raises(ServiceCancelledError):
                    await task_a
                result_b = await task_b
                await first.aclose()
                await second.aclose()
                return result_b, service.jobs_cancelled, engine.stats.jobs_executed

        result_b, cancelled_count, executed = run(scenario())
        assert result_b.payload == {"sum": sum(range(40))}
        assert cancelled_count == 0, "flight with a live subscriber must not cancel"
        assert executed == 40

    def test_cancel_unknown_id_is_bad_request(self, toy_workloads, tmp_path):
        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            async with running_service(engine) as service:
                host, port = service.address
                reader, writer = await asyncio.open_connection(
                    host, port, limit=protocol.MAX_MESSAGE_BYTES
                )
                writer.write(protocol.encode_message(protocol.cancel_request("ghost")))
                await writer.drain()
                reply = await protocol.read_message(reader)
                writer.close()
                with contextlib.suppress(ConnectionError, OSError):
                    await writer.wait_closed()
                return reply

        reply = run(scenario())
        assert reply["event"] == "error"
        assert reply["code"] == "bad-request"
        assert "ghost" in reply["error"]

    def test_stale_error_frame_does_not_poison_next_request(
        self, toy_workloads, tmp_path
    ):
        """A cancel that loses the race with its submit's terminal event
        produces an error frame for an already-settled id; the client's
        next round-trip must skip it instead of raising."""

        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            async with running_service(engine) as service:
                host, port = service.address
                client = await ServiceClient(host, port).connect()
                # a cancel for an id this client is no longer waiting on
                client._writer.write(
                    protocol.encode_message(protocol.cancel_request("settled-id"))
                )
                await client._writer.drain()
                status = await client.status()  # must skip the stale frame
                alive = await client.ping()
                await client.aclose()
                return status, alive

        status, alive = run(scenario())
        assert status["event"] == "status"
        assert alive is True

    def test_workload_failure_carries_failed_code(self, toy_workloads, tmp_path):
        def _failing(params, engine):
            raise ValueError("deliberate failure")

        register_workload("failing", _failing)
        try:

            async def scenario():
                engine = SweepEngine(cache=ArtifactCache(tmp_path))
                async with running_service(engine) as service:
                    host, port = service.address
                    async with ServiceClient(host, port) as client:
                        try:
                            await client.submit("failing")
                        except ServiceError as error:
                            return type(error), error.code
                return None, None

            exc_type, code = run(scenario())
            assert exc_type is ServiceError
            assert code == "failed"
        finally:
            unregister_workload("failing")


class TestClusterCancellation:
    def test_distributed_cancel_revokes_chunks_and_workers_survive(self):
        """Cancelling a distributed sweep revokes queued + in-flight chunks
        at the coordinator; the worker pool stays usable afterwards."""
        executor = make_executor("distributed", workers=2, chunksize=5)
        engine = SweepEngine(executor)
        try:
            cancel = threading.Event()
            ticks = []

            def on_progress(done, total, label):
                ticks.append(done)
                cancel.set()  # cancel as soon as the first chunk lands

            start = time.monotonic()
            with pytest.raises(SweepCancelled):
                engine.run(
                    SweepSpec("doomed", [Job(fn=_sleep_job, args=(i,)) for i in range(400)]),
                    progress=on_progress,
                    cancel_event=cancel,
                )
            elapsed = time.monotonic() - start
            # 400 jobs x 20 ms would be ~8 s serial; cancellation after the
            # first chunk must abort far sooner.
            assert elapsed < 6.0
            if executor._fallback is None:  # real cluster ran
                stats = executor.coordinator.stats
                assert stats["runs_cancelled"] == 1
                # the pool survives and serves the next sweep bit-exactly
                follow_up = engine.run(
                    [Job(fn=_sleep_job, args=(i,)) for i in range(10)]
                )
                assert follow_up == list(range(10))
        finally:
            executor.close()


# ----------------------------------------------------------------------
# Backpressure
# ----------------------------------------------------------------------
class TestBackpressure:
    def test_pipelined_burst_hits_inflight_cap(self, toy_workloads, tmp_path):
        """A burst of pipelined submits on one connection: the cap-plus-one-th
        is answered `busy` even though none has started executing yet."""

        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            async with running_service(engine, max_inflight=2) as service:
                host, port = service.address
                reader, writer = await asyncio.open_connection(
                    host, port, limit=protocol.MAX_MESSAGE_BYTES
                )
                for index in range(5):
                    writer.write(
                        protocol.encode_message(
                            protocol.submit_request(f"b{index}", "slow", {"n": index + 3})
                        )
                    )
                await writer.drain()
                outcomes = {}
                while len(outcomes) < 3:  # the three rejections come first
                    message = await protocol.read_message(reader)
                    if message.get("event") == "error":
                        outcomes[message["id"]] = message.get("code")
                writer.close()
                with contextlib.suppress(ConnectionError, OSError):
                    await writer.wait_closed()
                return outcomes, service.busy_rejections

        outcomes, rejections = run(scenario())
        assert set(outcomes.values()) == {"busy"}
        assert rejections == 3

    def test_queued_bytes_cap(self, toy_workloads, tmp_path):
        """Requests that *could* fit later are `busy` (retryable); a single
        request bigger than the whole budget is `bad-request` (terminal),
        so a compliant retry loop can never spin forever."""

        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            async with running_service(engine, max_queued_bytes=600) as service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    # alone over the whole budget: terminal rejection
                    with pytest.raises(ServiceBadRequestError, match="exceeds the per-connection budget"):
                        await client.submit("quick", {"value": "x" * 2048})
                    ok = await client.submit("quick", {"value": "small"})
                # budget-sized requests stacking up: retryable busy
                reader, writer = await asyncio.open_connection(
                    host, port, limit=protocol.MAX_MESSAGE_BYTES
                )
                padding = "y" * 400
                for index in range(2):
                    writer.write(
                        protocol.encode_message(
                            protocol.submit_request(f"q{index}", "slow", {"n": 9, "pad": padding})
                        )
                    )
                await writer.drain()
                busy = None
                while busy is None:
                    message = await protocol.read_message(reader)
                    if message.get("event") == "error":
                        busy = message
                writer.close()
                with contextlib.suppress(ConnectionError, OSError):
                    await writer.wait_closed()
                return ok, busy

        ok, busy = run(scenario())
        assert ok.payload == {"echo": "small"}
        assert busy["code"] == "busy" and "over budget" in busy["error"]

    def test_limits_reported_in_status(self, toy_workloads, tmp_path):
        async def scenario():
            engine = SweepEngine(cache=ArtifactCache(tmp_path))
            async with running_service(
                engine, max_inflight=3, max_queued_bytes=10_000
            ) as service:
                host, port = service.address
                async with ServiceClient(host, port) as client:
                    return await client.status()

        status = run(scenario())
        assert status["limits"] == {
            "max_inflight": 3,
            "max_queued_bytes": 10_000,
        }
        assert status["busy_rejections"] == 0
        assert status["jobs_cancelled"] == 0

    @pytest.mark.parametrize(
        "option", [{"rate": 2.0}, {"burst": 4}, {"max_workers": 8}]
    )
    def test_service_has_no_rate_limiter_or_thread_option(self, option):
        """The in-flight and queued-bytes caps are the only limits; the
        sweep thread count is the module constant SWEEP_THREADS."""
        with pytest.raises(TypeError):
            SweepService(**option)

    @pytest.mark.parametrize(
        "flag", [["--rate", "2"], ["--burst", "4"], ["--service-workers", "8"]]
    )
    def test_serve_rejects_the_removed_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["serve", "--port", "0", *flag])
        assert exit_info.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Journal recovery: SIGKILL a serve subprocess mid-sweep, resume, compare
# ----------------------------------------------------------------------
def _spawn_serve(cache_dir, *extra_args):
    src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--cache-dir",
            str(cache_dir),
            *extra_args,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        env=env,
    )


def _read_banner_port(process) -> int:
    banner = process.stdout.readline()
    match = re.search(r":(\d+) ", banner)
    assert match, f"no port in serve banner: {banner!r}"
    return int(match.group(1))


class TestJournalRecovery:
    PARAMS = {"samples": 2000, "seed": 11, "shards": 8}

    def test_sigkill_then_resume_is_bit_identical(self, tmp_path):
        """Kill `serve` mid-sweep; `--resume` replays the journal and the
        resubmitted request returns bit-identical results, served from the
        artifacts the replay produced."""
        cache_dir = tmp_path / "cache"

        # --- baseline: the uninterrupted run, fresh cache, in-process ----
        from repro.service.workloads import get_workload

        baseline_engine = SweepEngine(cache=ArtifactCache(tmp_path / "baseline-cache"))
        baseline = get_workload("montecarlo")(dict(self.PARAMS), baseline_engine)

        # --- cold run, killed mid-sweep ----------------------------------
        process = _spawn_serve(cache_dir)
        try:
            port = _read_banner_port(process)

            async def submit_and_kill():
                client = ServiceClient("127.0.0.1", port)
                await client.connect(timeout=TIMEOUT)
                accepted = []
                submit = asyncio.create_task(
                    client.submit(
                        "montecarlo",
                        dict(self.PARAMS),
                        on_accepted=lambda *details: accepted.append(details),
                    )
                )
                # Kill while the sweep still runs: the service has accepted
                # it and the journal records it pending.  The default engine
                # solves all 8 shards in one batch, so the first progress
                # tick only arrives once the sweep is done.
                journal = JobJournal(default_journal_path(cache_dir))
                while not (accepted and journal.pending()):
                    await asyncio.sleep(0.005)
                os.kill(process.pid, signal.SIGKILL)
                with contextlib.suppress(
                    ConnectionError, OSError, ServiceError, asyncio.IncompleteReadError
                ):
                    await submit
                await client.aclose()

            run(submit_and_kill())
        finally:
            process.kill()
            process.wait(timeout=15)

        journal = JobJournal(default_journal_path(cache_dir))
        pending = journal.pending()
        assert len(pending) == 1, "the killed sweep must be journal-pending"
        assert pending[0].workload == "montecarlo"
        assert pending[0].params == self.PARAMS

        # --- restart with --resume ---------------------------------------
        process = _spawn_serve(cache_dir, "--resume")
        try:
            port = _read_banner_port(process)
            resumed_line = ""
            for line in process.stdout:
                if "resumed" in line:
                    resumed_line = line
                    break
            assert "resumed 1 interrupted job(s)" in resumed_line

            async def await_replay_then_resubmit():
                client = ServiceClient("127.0.0.1", port)
                await client.connect(timeout=TIMEOUT)
                # wait until the replayed flight completed
                while True:
                    status = await client.status()
                    if status["in_flight"] == 0 and status["journal"]["pending"] == 0:
                        break
                    await asyncio.sleep(0.05)
                executed_by_replay = status["engine_stats"]["jobs_executed"]
                result = await client.submit("montecarlo", dict(self.PARAMS))
                after = await client.status()
                await client.aclose()
                return status, result, after, executed_by_replay

            status, result, after, executed_by_replay = asyncio.run(
                asyncio.wait_for(await_replay_then_resubmit(), TIMEOUT * 4)
            )
        finally:
            process.terminate()
            process.wait(timeout=15)

        assert status["journal"]["resumed"] == 1
        assert executed_by_replay > 0, "the replay must have re-run the sweep"
        # the resubmit is served from the replay's artifacts ...
        assert after["engine_stats"]["jobs_executed"] == executed_by_replay
        assert after["cache_stats"]["hits"] >= self.PARAMS["shards"]
        # ... and the payload is bit-identical to the uninterrupted run
        # (floats survive JSON exactly: dumps uses shortest round-trip repr)
        assert result.payload["sigma_v_blb"] == baseline["sigma_v_blb"]
        assert result.payload == baseline

    def test_cancel_then_resubmit_keeps_journal_lifecycle_pending(
        self, toy_workloads, tmp_path
    ):
        """A cancelled flight superseded by a resubmit of the same request
        must not erase the live flight's pending journal entry — a crash
        while the resubmit runs must still be replayable."""

        async def scenario():
            journal = JobJournal(tmp_path / "journal.ndjson")
            engine = SweepEngine(cache=ArtifactCache(tmp_path / "cache"))
            async with running_service(engine, journal=journal) as service:
                host, port = service.address
                first = await ServiceClient(host, port).connect()
                ticks = []
                params = {"n": 60}
                submit = asyncio.create_task(
                    first.submit("slow", params, on_progress=lambda d, t, l: ticks.append(d))
                )
                while not ticks:
                    await asyncio.sleep(0.005)
                old_flight = next(iter(service._flights.values()))
                await first.cancel()
                with pytest.raises(ServiceCancelledError):
                    await submit
                # resubmit the identical request before the old sweep thread
                # has died; then let the old flight's done-callback run
                second = await ServiceClient(host, port).connect()
                resubmit = asyncio.create_task(second.submit("slow", params))
                while old_flight.key not in service._flights:
                    await asyncio.sleep(0.005)
                await asyncio.gather(old_flight.task, return_exceptions=True)
                await asyncio.sleep(0)  # let the done-callback fire
                pending_mid = old_flight.key in service._journal_pending
                result = await resubmit
                await first.aclose()
                await second.aclose()
            # service.stop() flushed the journal writer thread
            return pending_mid, result, journal

        pending_mid, result, journal = run(scenario())
        assert pending_mid, "superseded flight's terminal record erased the live lifecycle"
        assert result.payload == {"sum": sum(range(60))}
        assert journal.pending() == [], "completed lifecycle must clear the journal"
        kinds = [record["record"] for record in journal.records()]
        assert kinds.count("submitted") == 2
        assert kinds.count("completed") == 1 and "cancelled" not in kinds

    def test_resume_with_clean_journal_resumes_nothing(self, tmp_path):
        process = _spawn_serve(tmp_path / "cache", "--resume")
        try:
            _read_banner_port(process)
            for line in process.stdout:
                if "resumed" in line:
                    assert "resumed 0 interrupted job(s)" in line
                    break
        finally:
            process.terminate()
            process.wait(timeout=15)
