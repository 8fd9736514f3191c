"""Tests for the distributed worker backend (:mod:`repro.cluster`).

Covers the tentpole guarantees:

* the shared NDJSON framing lives in :mod:`repro.wire` and the service
  protocol re-exports it (one tested implementation);
* job chunks and their sweep's ``batch_fn`` survive the pickle transport,
  and job failures come back as typed ``{type, message}`` errors;
* ``make_executor("distributed")`` produces **bit-identical** results to
  the serial executor, merged in submission order whatever the dispatch
  schedule;
* a worker killed mid-sweep has its chunks reassigned, the sweep completes
  bit-identically and progress totals stay correct;
* a *job* exception propagates to the submitting call site (the worker
  survives);
* engine-side cache hits are resolved before dispatch — warm shards never
  reach a worker;
* the sharded Monte-Carlo panel equals the one-shard panel bit-for-bit,
  serial or distributed, directly and through the service workload;
* the determinism tentpole: randomized dispatch/death schedules on
  heterogeneous (throttled) pools still merging bit-identically to
  serial;
* the ``cluster status`` / ``cache info --json`` CLI surfaces work.

Worker subprocesses unpickle job functions by module name; the executor
propagates the submitter's ``sys.path``, which is what makes this test
module importable on the worker side.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import repro
from repro import wire
from repro.analysis.pvt_sweeps import mismatch_monte_carlo, supply_sweep
from repro.circuits.technology import tsmc65_like
from repro.cluster import DistributedExecutor, fetch_status, parse_address
from repro.cluster import protocol as cluster_protocol
from repro.core.characterization import CharacterizationPlan, characterize
from repro.core.dse import DesignSpace, explore_design_space
from repro.core.pvt import monte_carlo_error_distribution
from repro.runtime import (
    ArtifactCache,
    BatchExecutor,
    Job,
    SerialExecutor,
    SweepEngine,
    SweepSpec,
    job_key,
    make_executor,
)
from repro.runtime.cli import main as cli_main
from repro.service import protocol as service_protocol
from repro.service.workloads import run_montecarlo

START_TIMEOUT = 60.0


# ----------------------------------------------------------------------
# Module-level job bodies (picklable by reference on the worker side)
# ----------------------------------------------------------------------
def _square(value: int) -> int:
    return value * value


def _seeded_value(entropy: int, index: int) -> float:
    """Deterministic float derived from a spawned SeedSequence child."""
    child = np.random.SeedSequence(entropy).spawn(index + 1)[index]
    return float(np.random.default_rng(child).standard_normal())


def _nap(seconds: float, value: int) -> int:
    time.sleep(seconds)
    return value


def _slow_seeded(entropy: int, index: int, seconds: float) -> float:
    """Seeded deterministic float whose wall time is tunable."""
    time.sleep(seconds)
    return _seeded_value(entropy, index)


def _square_batch(jobs) -> list:
    """A ``batch_fn`` over :func:`_square` jobs."""
    return [job.args[0] * job.args[0] for job in jobs]


def _short_batch(jobs) -> list:
    """A broken ``batch_fn``: one result too few."""
    return [job.run() for job in jobs][:-1]


def _boom(message: str) -> None:
    raise ValueError(message)


def _huge_array(count: int) -> np.ndarray:
    return np.zeros(count)


def _seeded_dict(entropy: int, index: int, count: int) -> dict:
    """A nested (dict-of-array) result, larger than one JSON line allows."""
    return {"blob": _seeded_array(entropy, index, count), "index": index}


def _seeded_array(entropy: int, index: int, count: int) -> np.ndarray:
    """Deterministic array result large enough to need the binary frame."""
    child = np.random.SeedSequence(entropy).spawn(index + 1)[index]
    return np.random.default_rng(child).standard_normal(count)


def _array_sum(values: np.ndarray) -> float:
    return float(values.sum())


def _seeded_jobs(count: int) -> list:
    return [
        Job(fn=_seeded_value, args=(1234, i), name=f"seeded[{i}]") for i in range(count)
    ]


# ----------------------------------------------------------------------
# Shared wire framing (satellite: extraction into repro.wire)
# ----------------------------------------------------------------------
class TestSharedWire:
    def test_service_protocol_reexports_wire(self):
        assert service_protocol.encode_message is wire.encode_message
        assert service_protocol.decode_message is wire.decode_message
        assert service_protocol.read_message is wire.read_message
        assert service_protocol.ProtocolError is wire.ProtocolError
        assert service_protocol.MAX_MESSAGE_BYTES == wire.MAX_MESSAGE_BYTES

    def test_round_trip_and_guards(self):
        message = {"op": "hello", "slots": 2}
        assert wire.decode_message(wire.encode_message(message)) == message
        with pytest.raises(wire.ProtocolError):
            wire.decode_message(b"[1, 2]\n")
        with pytest.raises(wire.ProtocolError):
            wire.encode_message({"blob": "x" * wire.MAX_MESSAGE_BYTES})


class TestJobTransport:
    def test_pack_round_trips_a_keyed_job(self):
        """A chunk blob is ``(batch_fn, jobs)``: no ``batch_fn`` comes back
        as ``None``, a module-level one as the same function."""
        job = Job(fn=_square, args=(3,), name="sq", key=job_key("transport-test", 3))
        batch_fn, [restored] = cluster_protocol.unpack_jobs(cluster_protocol.pack_jobs([job]))
        assert batch_fn is None
        assert restored.run() == 9
        assert (restored.name, restored.key) == (job.name, job.key)
        batch_fn, restored_jobs = cluster_protocol.unpack_jobs(
            cluster_protocol.pack_jobs([job, job], batch_fn=_square_batch)
        )
        assert batch_fn is _square_batch
        assert batch_fn(restored_jobs) == [9, 9]

    def test_exception_transport_preserves_type(self):
        """Built-in exception types come back by name, anything else as a
        RuntimeError naming the original type — nothing is unpickled."""

        def round_trip(error):
            message = cluster_protocol.chunk_failed_request("c1", error)
            assert set(message) == {"op", "chunk", "type", "message"}
            return cluster_protocol.chunk_failed_error(
                wire.decode_message(wire.encode_message(message))
            )

        recovered = round_trip(ValueError("deliberate"))
        assert type(recovered) is ValueError and str(recovered) == "deliberate"
        degraded = round_trip(wire.ProtocolError("not builtin"))
        assert type(degraded) is RuntimeError
        assert str(degraded) == "ProtocolError: not builtin"
        # Not re-raisable by name: needs five arguments, or asyncio futures
        # refuse it, or it is not an Exception at all.
        unicode_error = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad byte")
        for error in (unicode_error, StopIteration("x"), KeyboardInterrupt("x")):
            assert type(round_trip(error)) is RuntimeError
        spoofed = {"op": "chunk_failed", "chunk": "c1", "type": "print", "message": "x"}
        assert type(cluster_protocol.chunk_failed_error(spoofed)) is RuntimeError

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7500") == ("127.0.0.1", 7500)
        for bad in ("nohost", "host:", "host:notaport", "host:0", ":99"):
            with pytest.raises(ValueError):
                parse_address(bad)


# ----------------------------------------------------------------------
# Executor registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_make_distributed(self):
        executor = make_executor("distributed", workers=1, chunksize=2)
        assert isinstance(executor, DistributedExecutor)
        assert executor.workers == 1 and executor.chunksize == 2
        executor.close()  # never started: a no-op

    def test_irrelevant_options_rejected(self):
        with pytest.raises(ValueError, match="does not accept"):
            make_executor("distributed", batch_size=4)
        with pytest.raises(ValueError, match="does not accept"):
            make_executor("serial", connect="127.0.0.1:7500")

    def test_invalid_values_rejected(self):
        with pytest.raises(ValueError):
            make_executor("distributed", workers=-1)
        with pytest.raises(ValueError):
            make_executor("distributed", connect="not-an-address")
        with pytest.raises(ValueError):
            DistributedExecutor(workers=0)  # no local spawn and nowhere to join

    def test_cli_rejects_irrelevant_engine_flags(self, capsys):
        code = cli_main(
            ["run", "dse", "--fast", "--quiet", "--executor", "serial", "--connect", "127.0.0.1:7500"]
        )
        assert code == 2
        assert "does not accept connect" in capsys.readouterr().err
        code = cli_main(
            ["run", "dse", "--fast", "--quiet", "--connect", "127.0.0.1:7500"]
        )
        assert code == 2
        assert "--connect" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Distributed execution
# ----------------------------------------------------------------------
class TestDistributedExecution:
    def test_bit_identical_to_serial(self, cluster):
        jobs = _seeded_jobs(24)
        serial = SerialExecutor().execute(_seeded_jobs(24))
        distributed = cluster.execute(jobs)
        assert distributed == serial  # exact float equality, in order

    def test_progress_is_monotonic_and_complete(self, cluster):
        ticks = []
        jobs = [Job(fn=_square, args=(i,), name=f"sq[{i}]") for i in range(16)]
        results = cluster.execute(jobs, progress=lambda d, t, l: ticks.append((d, t)))
        assert results == [i * i for i in range(16)]
        assert ticks[-1] == (16, 16)
        done_values = [done for done, _ in ticks]
        assert done_values == sorted(done_values)
        assert all(total == 16 for _, total in ticks)

    def test_batch_fn_result_count_fails_the_run_typed(self, cluster):
        """A ``batch_fn`` returning the wrong count fails its chunk on the
        worker (``chunk_failed``), so the run raises the same
        ``RuntimeError`` the in-process batch executor does."""
        with pytest.raises(RuntimeError, match="batch_fn returned 0 results for 1 jobs"):
            cluster.execute(_seeded_jobs(4), batch_fn=_short_batch)
        assert cluster.execute(_seeded_jobs(4)) == SerialExecutor().execute(_seeded_jobs(4))

    def test_job_exception_propagates_and_cluster_survives(self, cluster):
        jobs = [Job(fn=_square, args=(1,), name="ok")] + [
            Job(fn=_boom, args=("deliberate job failure",), name="bad")
        ]
        with pytest.raises(ValueError, match="deliberate job failure"):
            cluster.execute(jobs)
        # the workers survived the job failure and keep serving
        assert cluster.execute(_seeded_jobs(6)) == SerialExecutor().execute(_seeded_jobs(6))
        assert cluster.status()["alive_workers"] == 2

    def test_oversized_dict_result_ships_binary(self, cluster):
        """A 16 MB dict-of-array result overflows any JSON line but rides
        the binary chunk_done frame: the sweep equals serial byte for byte
        and no chunk is refitted."""
        refitted = cluster.status()["stats"]["chunks_refitted"]
        jobs = [
            Job(fn=_seeded_dict, args=(5, 0, 2_000_000), name="huge"),
            Job(fn=_square, args=(2,), name="ok"),
        ]
        expected = SerialExecutor().execute(jobs)
        results = cluster.execute(jobs)
        assert results[1] == 4 and list(results[0]) == ["blob", "index"]
        assert results[0]["index"] == 0
        assert results[0]["blob"].tobytes() == expected[0]["blob"].tobytes()
        assert cluster.status()["stats"]["chunks_refitted"] == refitted

    def test_oversized_array_results_ship_binary_instead_of_failing(self, cluster):
        """Two 16 MB array results ride the binary completion frame — the
        sweep succeeds and stays bit-identical to serial."""
        jobs = [
            Job(fn=_seeded_array, args=(77, i, 2_000_000), name=f"wide[{i}]")
            for i in range(2)
        ]
        results = cluster.execute(jobs)
        expected = SerialExecutor().execute(
            [Job(fn=_seeded_array, args=(77, i, 2_000_000), name=f"wide[{i}]") for i in range(2)]
        )
        assert len(results) == 2
        for got, want in zip(results, expected):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_oversized_job_chunk_fails_instead_of_freezing(self, cluster):
        """A chunk too large to *dispatch* fails its run and leaves the
        scheduler alive for subsequent sweeps."""
        big = np.zeros(2_000_000)
        jobs = [Job(fn=_array_sum, args=(big,), name=f"big[{i}]") for i in range(2)]
        with pytest.raises(Exception, match="cannot dispatch"):
            cluster.execute(jobs)
        assert cluster.execute(_seeded_jobs(4)) == SerialExecutor().execute(_seeded_jobs(4))
        assert cluster.status()["alive_workers"] == 2

    def test_oversized_chunk_refits_instead_of_failing(self, start_cluster):
        """A multi-job chunk over the frame limit is halved and requeued:
        the sweep completes as long as each single job fits."""
        executor = DistributedExecutor(workers=1, chunksize=2, start_timeout=START_TIMEOUT)
        start_cluster(executor)
        try:
            # One job's array pickles+base64s to ~5.3 MB (fits the 8 MiB
            # frame); the 2-job chunk the chunksize asks for does not.
            jobs = [
                Job(fn=_array_sum, args=(np.full(500_000, float(i)),), name=f"fat[{i}]")
                for i in range(4)
            ]
            assert executor.execute(jobs) == [500_000.0 * i for i in range(4)]
            assert executor.status()["stats"]["chunks_refitted"] >= 1
        finally:
            executor.close()

    def test_multi_job_dict_results_ship_without_refit(self, start_cluster):
        """A multi-job chunk of large dict results ships as one binary
        frame: equal to serial, and nothing is refitted."""
        executor = DistributedExecutor(workers=1, chunksize=2, start_timeout=START_TIMEOUT)
        start_cluster(executor)
        jobs = [Job(fn=_seeded_dict, args=(8, i, 500_000), name=f"out[{i}]") for i in range(4)]
        try:
            results = executor.execute(jobs)
            assert executor.status()["stats"]["chunks_refitted"] == 0
        finally:
            executor.close()
        expected = SerialExecutor().execute(jobs)
        assert [r["index"] for r in results] == [0, 1, 2, 3]
        assert [r["blob"].tobytes() for r in results] == [
            e["blob"].tobytes() for e in expected
        ]

    def test_results_over_the_payload_bound_fail_their_run(self, monkeypatch):
        """A chunk whose payload exceeds MAX_BINARY_BYTES cannot ship: the
        worker's encode path refuses it, and the run fails through
        chunk_failed with a message naming the bound.  Worker and
        coordinator run in-process, with the bound shrunk instead of
        shipping 256 MiB."""
        import asyncio

        from repro.cluster import worker as cluster_worker
        from repro.cluster.coordinator import Coordinator

        monkeypatch.setattr(wire, "MAX_BINARY_BYTES", 1024)

        async def scenario():
            coordinator = Coordinator(worker_wait_timeout=START_TIMEOUT)
            host, port = await coordinator.start()
            worker = asyncio.ensure_future(cluster_worker.Worker(host, port).run())
            try:
                small = await coordinator.run(
                    [Job(fn=_seeded_array, args=(3, i, 8), name=f"s[{i}]") for i in range(2)],
                    chunksize=2,
                )
                with pytest.raises(RuntimeError, match="MAX_BINARY_BYTES"):
                    await coordinator.run(
                        [Job(fn=_seeded_array, args=(3, i, 129), name=f"b[{i}]") for i in range(2)],
                        chunksize=2,
                    )
                return small, coordinator.stats["chunks_refitted"]
            finally:
                await coordinator.stop()
                await asyncio.wait_for(worker, START_TIMEOUT)

        small, refitted = asyncio.run(scenario())
        assert [a.tobytes() for a in small] == [_seeded_array(3, i, 8).tobytes() for i in range(2)]
        assert refitted == 0

    def test_unpicklable_batch_fn_fails_without_refitting(self):
        """Only a frame-size overflow halves a chunk: a chunk whose
        ``batch_fn`` cannot be pickled fails its run at once."""
        import asyncio

        from repro.cluster import worker as cluster_worker
        from repro.cluster.coordinator import ClusterError, Coordinator

        async def scenario():
            coordinator = Coordinator(worker_wait_timeout=START_TIMEOUT)
            host, port = await coordinator.start()
            worker = asyncio.ensure_future(cluster_worker.Worker(host, port).run())
            try:
                with pytest.raises(ClusterError, match="cannot dispatch"):
                    await coordinator.run(
                        _seeded_jobs(16), chunksize=16, batch_fn=lambda jobs: [0] * len(jobs)
                    )
                return coordinator.stats["chunks_refitted"]
            finally:
                await coordinator.stop()
                await asyncio.wait_for(worker, START_TIMEOUT)

        assert asyncio.run(scenario()) == 0

    def test_single_job_runs_inline(self, cluster):
        before = cluster.status()["stats"]["chunks_dispatched"]
        assert cluster.execute([Job(fn=_square, args=(7,), name="one")]) == [49]
        assert cluster.status()["stats"]["chunks_dispatched"] == before

    def test_engine_cache_hits_never_reach_workers(self, cluster, tmp_path):
        engine = SweepEngine(cluster, cache=ArtifactCache(tmp_path / "cache"))

        def build(value):
            return Job(
                fn=_square,
                args=(value,),
                name=f"sq[{value}]",
                key=job_key("cluster-cache-test", value),
            )

        cold = engine.run(SweepSpec("cache-test", [build(i) for i in range(8)]))
        dispatched_after_cold = cluster.status()["stats"]["jobs_done"]
        warm = engine.run(SweepSpec("cache-test", [build(i) for i in range(8)]))
        assert warm == cold == [i * i for i in range(8)]
        # the warm sweep was resolved engine-side: no job crossed the wire
        assert cluster.status()["stats"]["jobs_done"] == dispatched_after_cold
        assert engine.stats.cache_hits == 8

    def test_status_document_and_cli(self, cluster, capsys):
        host, port = cluster.address
        status = fetch_status(f"{host}:{port}", timeout=10.0)
        assert status["alive_workers"] == 2
        # one cluster-wide queue, drained between sweeps
        assert status["queued_jobs"] == 0 and "orphaned_chunks" not in status
        assert status["protocol"] == cluster_protocol.CLUSTER_PROTOCOL_VERSION
        assert status["version"] == repro.__version__
        assert len([w for w in status["workers"] if w["alive"]]) == 2
        assert {w["pid"] for w in status["workers"] if w["alive"]} == set(
            cluster.worker_pids
        )
        # static chunks are the only dispatch policy: no scheduler telemetry
        for key in ("chunk_window", "scheduling", "pool_median_throughput", "stragglers"):
            assert key not in status
        for key in ("chunks_split", "splits_requested"):
            assert key not in status["stats"]
        for worker in status["workers"]:
            for key in ("inflight_chunks", "chunks_done", "jobs_done", "last_seen"):
                assert key in worker
            for key in ("queued_jobs", "queued_spans"):
                assert key not in worker
            for key in ("throughput_jobs_per_s", "ewma_chunk_seconds", "ewma_heartbeat_gap"):
                assert key not in worker

        assert cli_main(["cluster", "status", "--connect", f"{host}:{port}", "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["alive_workers"] == 2
        assert cli_main(["cluster", "status", "--connect", f"{host}:{port}"]) == 0
        text = capsys.readouterr().out
        assert "2 alive" in text and "jobs done" in text

    def test_retired_watch_op_is_refused_and_status_still_served(self, cluster):
        """A client that still asks for the removed ``watch`` stream gets an
        error reply instead of a hang, and the coordinator keeps serving."""
        import asyncio

        from repro.cluster.control import ControlError, _request

        host, port = cluster.address
        assert "watch" not in cluster_protocol.CONTROL_OPS
        with pytest.raises(ControlError, match="unexpected op 'watch'"):
            asyncio.run(_request(host, port, {"op": "watch", "id": "old-client"}, 10.0))
        assert fetch_status(f"{host}:{port}", timeout=10.0)["alive_workers"] == 2

    def test_status_unreachable_endpoint_fails_cleanly(self, capsys):
        assert (
            cli_main(
                ["cluster", "status", "--connect", "127.0.0.1:1", "--connect-timeout", "0.2"]
            )
            == 2
        )
        assert "cannot reach cluster" in capsys.readouterr().err


# ----------------------------------------------------------------------
# Worker failure: kill a worker mid-sweep (satellite)
# ----------------------------------------------------------------------
class TestWorkerFailure:
    def test_killed_worker_chunks_are_reassigned(self, start_cluster):
        executor = DistributedExecutor(
            workers=2,
            chunksize=1,
            heartbeat_timeout=2.5,
            start_timeout=START_TIMEOUT,
        )
        start_cluster(executor)
        try:
            count = 24
            victim = executor.worker_pids[0]
            killed = []
            ticks = []

            def progress(done: int, total: int, label: str) -> None:
                ticks.append((done, total))
                if done == 2 and not killed:
                    os.kill(victim, signal.SIGKILL)
                    killed.append(victim)

            jobs = [Job(fn=_nap, args=(0.12, i), name=f"nap[{i}]") for i in range(count)]
            results = executor.execute(jobs, progress=progress)

            # the sweep completed bit-identically to serial despite the kill
            assert killed, "the victim worker was never killed"
            assert results == list(range(count))
            # progress stayed monotonic against the full total and finished
            assert ticks[-1] == (count, count)
            done_values = [done for done, _ in ticks]
            assert done_values == sorted(done_values)
            assert all(total == count for _, total in ticks)
            # the coordinator recorded the death and the reassignments
            status = executor.status()
            assert status["alive_workers"] == 1
            assert status["stats"]["workers_lost"] == 1
            assert status["stats"]["chunks_retried"] >= 1
            assert status["stats"]["jobs_done"] >= count
        finally:
            executor.close()

    def test_failed_start_warns_and_fallback_resets_on_restart(self, start_cluster):
        """An unavailable cluster warns audibly and degrades to serial; a
        later successful restart routes sweeps to real workers again."""
        executor = DistributedExecutor(
            workers=0, connect="127.0.0.1:65413", start_timeout=1.0
        )
        with pytest.warns(RuntimeWarning, match="falling back to serial"):
            executor.start()
        assert executor._fallback is not None
        assert executor.execute(_seeded_jobs(4)) == SerialExecutor().execute(_seeded_jobs(4))
        executor.close()

        # reconfigure to something startable and restart
        executor.workers = 1
        executor.connect = None
        executor.start_timeout = START_TIMEOUT
        start_cluster(executor)
        try:
            assert executor.execute(_seeded_jobs(4)) == SerialExecutor().execute(
                _seeded_jobs(4)
            )
            assert executor.status()["alive_workers"] == 1
        finally:
            executor.close()

    def test_all_workers_dead_fails_instead_of_hanging(self, start_cluster):
        executor = DistributedExecutor(
            workers=1,
            chunksize=1,
            heartbeat_timeout=2.0,
            start_timeout=START_TIMEOUT,
        )
        start_cluster(executor)
        # A chunk that kills its (only) worker exhausts the retry budget.
        executor.coordinator.worker_wait_timeout = 1.0
        try:
            victim = executor.worker_pids[0]
            jobs = [Job(fn=_nap, args=(0.3, i), name=f"nap[{i}]") for i in range(6)]

            def progress(done: int, total: int, label: str) -> None:
                if done == 1:
                    os.kill(victim, signal.SIGKILL)

            with pytest.raises(Exception, match="(abandoned|no workers)"):
                executor.execute(jobs, progress=progress)
        finally:
            executor.close()


# ----------------------------------------------------------------------
# Heterogeneous pools: throttled workers, chaos schedules
# ----------------------------------------------------------------------
def _spawn_throttled_worker(address, throttle: float, name: str = "throttled"):
    """Join one deliberately slowed worker to a live cluster endpoint."""
    from repro.cluster.executor import spawn_worker_process

    host, port = address
    return spawn_worker_process(
        f"{host}:{port}", name=name, throttle=throttle, connect_timeout=START_TIMEOUT
    )


def _await_workers(executor: DistributedExecutor, count: int) -> None:
    deadline = time.monotonic() + START_TIMEOUT
    while executor.coordinator.worker_count() < count:
        assert time.monotonic() < deadline, f"{count} workers never registered"
        time.sleep(0.02)


class TestHelloValidation:
    """A live coordinator answers a malformed or out-of-date ``hello``
    with an ``error`` event and registers nothing."""

    def _hello_replies(self, hellos):
        import asyncio

        from repro.cluster.coordinator import Coordinator
        from repro.runtime.jobs import code_version

        async def scenario():
            coordinator = Coordinator()
            host, port = await coordinator.start()
            replies = []
            try:
                for fields in hellos:
                    reader, writer = await wire.open_connection(host, port)
                    hello = cluster_protocol.hello_request("probe", 42, 1, code_version())
                    writer.write(wire.encode_message({**hello, **fields}))
                    await writer.drain()
                    reply = await asyncio.wait_for(wire.read_message(reader), 10)
                    # Registration precedes the welcome, so the count is
                    # settled once the reply is read.
                    replies.append((reply, coordinator.worker_count()))
                    writer.close()
                return replies
            finally:
                await coordinator.stop()

        return asyncio.run(scenario())

    def test_malformed_hellos_get_error_and_no_registration(self):
        bad = [
            {"slots": "x"},
            {"slots": 0},
            {"slots": -3},
            {"slots": 1.5},
            {"slots": True},
            {"slots": None},
            {"pid": "12"},
            {"pid": 3.0},
            {"pid": -1},
            {"pid": [1]},
        ]
        replies = self._hello_replies(bad)
        assert [reply["event"] for reply, _ in replies] == ["error"] * len(bad)
        assert all("malformed hello" in reply["error"] for reply, _ in replies)
        assert [alive for _, alive in replies] == [0] * len(bad)

    def test_v5_worker_rejected_at_hello(self):
        (old, old_alive), (v6, v6_alive), (current, alive) = self._hello_replies(
            [{"protocol": 5}, {"protocol": 6}, {}]
        )
        for reply, registered in ((old, old_alive), (v6, v6_alive)):
            assert reply["event"] == "error" and "protocol mismatch" in reply["error"]
            assert registered == 0
        assert current["event"] == "welcome" and alive == 1  # the same hello at v7


class TestCoordinatorShutdown:
    def test_stop_leaves_no_connection_handler_pending(self):
        """``stop()`` cancels and awaits the handler of every open
        connection, so no handler is left pending for a closed loop."""
        import asyncio

        from repro.cluster.coordinator import Coordinator

        async def scenario():
            coordinator = Coordinator()
            host, port = await coordinator.start()
            reader, writer = await wire.open_connection(host, port)
            writer.write(wire.encode_message({"op": "ping", "id": 1}))
            await writer.drain()
            reply = await asyncio.wait_for(wire.read_message(reader), 10)
            handlers = [
                task
                for task in asyncio.all_tasks()
                if task.get_coro().__qualname__ == "Coordinator._handle_connection"
            ]
            await coordinator.stop()
            pending = [task for task in handlers if not task.done()]
            writer.close()
            return reply, handlers, pending

        reply, handlers, pending = asyncio.run(scenario())
        assert reply["event"] == "pong"
        assert len(handlers) == 1
        assert pending == []


    def test_distributed_run_exits_without_a_cancelled_handler_traceback(self, tmp_path):
        """Stopping the coordinator ends its connection handlers without a
        cancelled task, so asyncio logs nothing at exit."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.dirname(os.path.dirname(repro.__file__)), env.get("PYTHONPATH", "")]
        )
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro", "run", "characterize", "--fast", "--no-cache",
                "--executor", "distributed", "--workers", "2", "--quiet",
            ],
            env=env,
            cwd=tmp_path,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert completed.returncode == 0, completed.stderr
        assert "StreamReaderProtocol.connection_made" not in completed.stderr
        assert "CancelledError" not in completed.stderr


class TestQueueAccounting:
    """The coordinator's one FIFO queue, driven socketlessly: workers are
    registered by hand and sweeps are submitted through ``run``."""

    @staticmethod
    def _join(coordinator, worker_id):
        """Register a link the way ``hello`` does, without a socket."""
        from repro.cluster.coordinator import _WORKERS_ALIVE, _WorkerLink

        link = _WorkerLink(worker_id, "w", 0, 1, writer=None)
        coordinator._links[worker_id] = link
        _WORKERS_ALIVE.inc()
        return link

    @staticmethod
    async def _submit(coordinator, count):
        """Start one ``run`` of ``count`` jobs; return once it is queued."""
        import asyncio

        jobs = [Job(fn=_square, args=(i,), name=f"sq[{i}]") for i in range(count)]
        task = asyncio.ensure_future(coordinator.run(jobs, chunksize=1))
        await asyncio.sleep(0)
        return task

    def test_stall_clock_runs_only_while_no_worker_is_alive(self):
        """Queued work with no alive worker arms the clock, a worker joining
        disarms it, the last worker's death re-arms it, and the queued run
        fails once the clock passes ``worker_wait_timeout``."""
        import asyncio

        from repro.cluster.coordinator import ClusterError, Coordinator

        async def scenario():
            coordinator = Coordinator(worker_wait_timeout=10.0)
            task = await self._submit(coordinator, 1)
            coordinator._check_stall(100.0)
            assert coordinator._stalled_since == 100.0
            link = self._join(coordinator, "w1")
            coordinator._check_stall(105.0)
            assert coordinator._stalled_since is None
            coordinator._on_worker_death(link)
            coordinator._check_stall(200.0)
            assert coordinator._stalled_since == 200.0
            coordinator._check_stall(209.0)
            await asyncio.sleep(0)
            assert not task.done()
            coordinator._check_stall(211.0)
            with pytest.raises(ClusterError, match="no workers joined"):
                await task

        asyncio.run(scenario())

    def test_queued_work_is_not_charged_for_worker_deaths(self):
        """Workers that die without ever holding a run's chunks charge it
        nothing: more than ``MAX_CHUNK_RETRIES`` such deaths leave the run
        intact, and it completes on the next worker."""
        import asyncio

        from repro.cluster.coordinator import MAX_CHUNK_RETRIES, Coordinator

        async def scenario():
            coordinator = Coordinator()
            link = self._join(coordinator, "w0")
            task = await self._submit(coordinator, 4)
            for index in range(1, MAX_CHUNK_RETRIES + 3):
                successor = self._join(coordinator, f"w{index}")
                coordinator._on_worker_death(link)
                link = successor
            await asyncio.sleep(0)  # a failed run's task would finish here
            assert not task.done()
            assert coordinator.stats["chunks_retried"] == 0
            while (chunk := coordinator._next_chunk()) is not None:
                assert chunk.attempts == 0
                chunk.run.complete_chunk(chunk, [_square(i) for i in chunk.indices])
            assert await task == [0, 1, 4, 9]

        asyncio.run(scenario())

    def test_inflight_chunk_counts_one_attempt_per_death(self):
        """A chunk in flight on a dying worker goes back on the queue's
        front with one more attempt; past ``MAX_CHUNK_RETRIES`` its run
        fails, as a poison chunk must."""
        import asyncio

        from repro.cluster.coordinator import MAX_CHUNK_RETRIES, ClusterError, Coordinator

        async def scenario():
            coordinator = Coordinator()
            task = await self._submit(coordinator, 3)
            for attempt in range(MAX_CHUNK_RETRIES + 1):
                link = self._join(coordinator, f"w{attempt}")
                chunk = coordinator._next_chunk()
                assert (chunk.start, chunk.attempts) == (0, attempt)
                link.inflight[chunk.id] = chunk
                coordinator._on_worker_death(link)
            assert coordinator.stats["chunks_retried"] == MAX_CHUNK_RETRIES
            with pytest.raises(ClusterError, match="retry limit"):
                await task

        asyncio.run(scenario())


class TestAdaptiveScheduling:
    """The cluster adapting to hostile pools with static chunks alone:
    pull dispatch around throttled stragglers and death-retry."""

    def test_chunk_window_validation(self):
        """Static chunks are the only dispatch policy: no engine takes a
        ``chunk_window``."""
        with pytest.raises(TypeError):
            DistributedExecutor(workers=1, chunk_window=0.5)
        for engine in ("distributed", "serial"):
            with pytest.raises(ValueError, match="does not accept"):
                make_executor(engine, chunk_window=0.5)
        executor = make_executor("distributed", workers=1)
        assert not hasattr(executor, "chunk_window")
        executor.close()  # never started: a no-op

    def test_cli_rejects_chunk_window_on_non_distributed(self, capsys):
        for engine in ("serial", "distributed"):
            with pytest.raises(SystemExit) as exit_info:
                cli_main(
                    ["run", "dse", "--fast", "--quiet", "--executor", engine,
                     "--chunk-window", "0.5"]
                )
            assert exit_info.value.code == 2
            assert "unrecognized arguments: --chunk-window" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_adversarial_schedules_merge_bit_identical(
        self, seed, chaos_schedule, start_cluster
    ):
        """Randomized dispatch/death sequences on a throttled pool vs serial.

        Each trial draws a scheduling regime (:class:`ChaosSchedule` from
        ``conftest``) — chunk size, straggler slowness, and whether a
        worker is killed mid-run — and the merged result
        must equal the serial one exactly.  ``test_cluster_chaos`` runs the
        same regimes with two concurrent sweeps on top.
        """
        plan = chaos_schedule(seed)
        executor = DistributedExecutor(
            workers=2,
            chunksize=plan.probe,
            heartbeat_interval=0.05,
            heartbeat_timeout=2.0,
            start_timeout=START_TIMEOUT,
        )
        start_cluster(executor)
        straggler = None
        try:
            straggler = _spawn_throttled_worker(executor.address, throttle=plan.throttle)
            _await_workers(executor, 3)
            jobs = [
                Job(fn=_slow_seeded, args=(plan.entropy, i, 0.01), name=f"adv[{i}]")
                for i in range(plan.count)
            ]
            serial = SerialExecutor().execute(
                [
                    Job(fn=_slow_seeded, args=(plan.entropy, i, 0.0), name=f"adv[{i}]")
                    for i in range(plan.count)
                ]
            )
            victim = executor.worker_pids[0]
            killed = []

            def progress(done: int, total: int, label: str) -> None:
                if plan.kill_one and done >= 3 and not killed:
                    os.kill(victim, signal.SIGKILL)
                    killed.append(victim)

            assert executor.execute(jobs, progress=progress) == serial
            if plan.kill_one:
                assert killed, "the victim worker was never killed"
                assert executor.status()["stats"]["workers_lost"] >= 1
        finally:
            executor.close()
            if straggler is not None and straggler.poll() is None:
                straggler.terminate()
                straggler.wait(timeout=10)


# ----------------------------------------------------------------------
# Sharded Monte-Carlo (service <-> cluster integration)
# ----------------------------------------------------------------------
class TestShardedMonteCarlo:
    def test_sharded_equals_unsharded_serial(self):
        technology = tsmc65_like()
        reference = mismatch_monte_carlo(technology, samples=24, seed=11, shards=1)
        sharded = mismatch_monte_carlo(technology, samples=24, seed=11, shards=3)
        np.testing.assert_array_equal(
            reference["sigma_at_sampling_times"], sharded["sigma_at_sampling_times"]
        )
        np.testing.assert_array_equal(
            reference["final_voltages"], sharded["final_voltages"]
        )
        np.testing.assert_array_equal(reference["times"], sharded["times"])

    def test_sharded_equals_unsharded_distributed(self, cluster):
        technology = tsmc65_like()
        reference = mismatch_monte_carlo(technology, samples=30, seed=5, shards=1)
        distributed = mismatch_monte_carlo(
            technology, samples=30, seed=5, shards=5, engine=SweepEngine(cluster)
        )
        np.testing.assert_array_equal(
            reference["sigma_at_sampling_times"],
            distributed["sigma_at_sampling_times"],
        )
        np.testing.assert_array_equal(
            reference["final_voltages"], distributed["final_voltages"]
        )

    def test_shards_on_one_slot_fuse_into_one_batch_chunk(
        self, monkeypatch, start_cluster
    ):
        """Two shards on a one-slot cluster ship as one chunk, which the
        worker runs in one call of the Monte-Carlo ``batch_fn``.  The worker
        runs in this process, on its own thread, so its calls are visible."""
        import asyncio
        import socket
        import threading

        from repro.analysis import pvt_sweeps
        from repro.cluster import worker as cluster_worker

        calls = []
        run_batch = cluster_worker.run_batch

        def spy(batch_fn, jobs):
            calls.append((batch_fn, len(jobs)))
            return run_batch(batch_fn, jobs)

        monkeypatch.setattr(cluster_worker, "run_batch", spy)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        worker = cluster_worker.Worker("127.0.0.1", port, connect_timeout=START_TIMEOUT)
        thread = threading.Thread(target=asyncio.run, args=(worker.run(),), daemon=True)
        thread.start()
        executor = DistributedExecutor(
            workers=0, connect=f"127.0.0.1:{port}", start_timeout=START_TIMEOUT
        )
        technology = tsmc65_like()
        try:
            start_cluster(executor)
            panel = mismatch_monte_carlo(
                technology, samples=24, seed=11, shards=2, engine=SweepEngine(executor)
            )
            stats = executor.status()["stats"]
        finally:
            executor.close()
            thread.join(START_TIMEOUT)
        assert not thread.is_alive(), "the worker did not exit with its coordinator"
        assert stats["chunks_dispatched"] == 1
        assert calls == [(pvt_sweeps._mismatch_monte_carlo_batch, 2)]
        reference = mismatch_monte_carlo(technology, samples=24, seed=11, shards=1)
        for name in ("final_voltages", "sigma_at_sampling_times", "times"):
            np.testing.assert_array_equal(reference[name], panel[name])

    def test_shard_jobs_are_cacheable(self, tmp_path):
        technology = tsmc65_like()
        engine = SweepEngine(cache=ArtifactCache(tmp_path / "cache"))
        cold = mismatch_monte_carlo(
            technology, samples=16, seed=3, shards=4, engine=engine
        )
        warm = mismatch_monte_carlo(
            technology, samples=16, seed=3, shards=4, engine=engine
        )
        np.testing.assert_array_equal(
            cold["sigma_at_sampling_times"], warm["sigma_at_sampling_times"]
        )
        assert engine.stats.cache_hits == 4
        assert engine.stats.jobs_executed == 4  # only the cold run executed

    def test_service_workload_shards_match_single_job(self, tmp_path):
        engine = SweepEngine(cache=ArtifactCache(tmp_path / "cache"))
        single = run_montecarlo({"samples": 24, "seed": 7}, engine)
        sharded = run_montecarlo({"samples": 24, "seed": 7, "shards": 3}, engine)
        assert single["sigma_v_blb"] == sharded["sigma_v_blb"]
        assert sharded["shards"] == 3
        with pytest.raises(ValueError):
            run_montecarlo({"samples": 8, "shards": 0}, engine)


def _leaves(value, where="result") -> list:
    """Every leaf of a sweep result: its path, and dtype, shape and bytes
    for an array, the type of a container, type and ``repr`` (exact for
    floats) for anything else."""
    if isinstance(value, (np.ndarray, np.generic)):
        return [(where, value.dtype.str, np.shape(value), value.tobytes())]
    if dataclasses.is_dataclass(value):
        value = {field.name: getattr(value, field.name) for field in dataclasses.fields(value)}
    if isinstance(value, (list, tuple, dict)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        return [(where, type(value).__name__)] + [
            leaf for key, item in items for leaf in _leaves(item, f"{where}[{key!r}]")
        ]
    return [(where, type(value).__name__, repr(value))]


#: The real sweeps that carry a ``batch_fn``, each a call of
#: ``(technology, suite, config, engine)``.
BATCH_SWEEPS = {
    "characterize": lambda technology, suite, config, engine: characterize(
        technology, CharacterizationPlan.quick(), engine=engine
    ),
    "supply_sweep": lambda technology, suite, config, engine: supply_sweep(
        technology, engine=engine
    ),
    "explore_design_space": lambda technology, suite, config, engine: explore_design_space(
        suite, DesignSpace.quick(), engine=engine
    ),
    "monte_carlo_error_distribution": (
        lambda technology, suite, config, engine: monte_carlo_error_distribution(
            suite, config, samples=16, seed=42, engine=engine
        )
    ),
    **{
        f"mismatch_monte_carlo[shards={shards}]": (
            lambda technology, suite, config, engine, shards=shards: mismatch_monte_carlo(
                technology, samples=60, seed=11, shards=shards, engine=engine
            )
        )
        for shards in (1, 2, 3)
    },
}


@pytest.fixture(scope="module")
def serial_batch_sweeps(technology, quick_suite, fom_config):
    """Leaves of every batch sweep under the per-job ``serial`` executor."""
    engine = SweepEngine(SerialExecutor())
    return {
        name: _leaves(sweep(technology, quick_suite, fom_config, engine))
        for name, sweep in BATCH_SWEEPS.items()
    }


@pytest.fixture(scope="module", params=[1, 2], ids=["1-worker", "2-workers"])
def default_cluster(request, start_cluster):
    """A local cluster with the default chunk rule (no explicit chunksize)."""
    executor = DistributedExecutor(workers=request.param, start_timeout=START_TIMEOUT)
    start_cluster(executor)
    yield executor
    executor.close()


class TestBatchSweepsMatchSerial:
    """Every executor but ``serial`` runs a batch sweep's chunks through its
    ``batch_fn``; the results stay byte-identical to one job at a time."""

    @pytest.mark.parametrize("name", sorted(BATCH_SWEEPS))
    def test_parallel(
        self, name, cluster, serial_batch_sweeps, technology, quick_suite, fom_config
    ):
        """The auto engine (one batch in process) and the shared cluster
        (one job per chunk over two workers)."""
        for engine in (SweepEngine(), SweepEngine(cluster)):
            result = BATCH_SWEEPS[name](technology, quick_suite, fom_config, engine)
            assert _leaves(result) == serial_batch_sweeps[name]

    @pytest.mark.parametrize("name", sorted(BATCH_SWEEPS))
    def test_distributed(
        self, name, default_cluster, serial_batch_sweeps, technology, quick_suite, fom_config
    ):
        engine = SweepEngine(default_cluster)
        result = BATCH_SWEEPS[name](technology, quick_suite, fom_config, engine)
        assert _leaves(result) == serial_batch_sweeps[name]


class TestDnnGraphAcrossEngines:
    """Tables II and III, quick config, one VGG and one ResNet: the hit
    counts are the same under every executor."""

    @staticmethod
    def _tables(engine):
        from repro.analysis.dnn_tables import DnnExperimentConfig, run_dnn_accuracy_experiment
        from repro.dnn.datasets import cifar10_like, imagenet_like
        from repro.dnn.imc_injection import LutBackend
        from repro.multiplier.lut import ProductLookupTable

        config = DnnExperimentConfig.quick()
        sizes = dict(
            image_size=config.image_size,
            train_per_class=config.train_per_class,
            test_per_class=config.test_per_class,
        )
        imagenet = imagenet_like(**sizes)
        exact = ProductLookupTable.exact()
        shifted = ProductLookupTable(exact.mean + 1.0, exact.sigma, name="shifted")
        backends = {"exact-lut": LutBackend(exact), "shifted": LutBackend(shifted)}
        hits = {}
        for table, (dataset, base) in ((2, (imagenet, None)), (3, (cifar10_like(**sizes), imagenet))):
            reports = run_dnn_accuracy_experiment(
                dataset, backends, config=config, models=["VGG16", "ResNet50"],
                base_dataset=base, engine=engine,
            )
            for model, per_mode in reports.items():
                for mode, report in per_mode.items():
                    hits[f"table{table}/{model}/{mode}"] = (report.top1_hits, report.top5_hits)
        return hits

    def test_serial_auto_parallel_and_distributed_agree(
        self, cluster, tmp_path, start_cluster
    ):
        """Parallel: the shared cluster, one job per chunk; distributed: a
        fresh cluster with the default chunk rule and a cache."""
        serial = self._tables(SweepEngine(SerialExecutor()))
        assert len(serial) == 16
        assert self._tables(SweepEngine(cache=ArtifactCache(tmp_path / "auto"))) == serial
        assert self._tables(SweepEngine(cluster)) == serial
        executor = DistributedExecutor(workers=2, start_timeout=START_TIMEOUT)
        start_cluster(executor)
        try:
            engine = SweepEngine(executor, cache=ArtifactCache(tmp_path / "distributed"))
            assert self._tables(engine) == serial
            assert executor.status()["stats"]["chunks_dispatched"] > 0
        finally:
            executor.close()


class TestKeyedRobustness:
    def test_executors_agree_byte_for_byte_cold_and_warm(
        self, cluster, tmp_path, quick_suite, fom_config
    ):
        """The keyed Fig. 8 sweep: serial, batch and distributed return the
        same bytes, and so do their warm (all-hit) re-runs."""
        from repro.core.pvt import analyze_corner_robustness

        def errors(engine):
            report = analyze_corner_robustness(
                quick_suite,
                fom_config,
                supply_voltages=(0.9, 1.0, 1.1),
                temperatures_celsius=(0.0, 70.0),
                engine=engine,
            )
            return (
                report.supply_sweep.mean_error_lsb.tobytes()
                + report.temperature_sweep.mean_error_lsb.tobytes()
            )

        outputs = []
        for name, executor in (
            ("serial", SerialExecutor()),
            ("batch", BatchExecutor(batch_size=2)),
            ("distributed", cluster),
        ):
            engine = SweepEngine(executor, cache=ArtifactCache(tmp_path / name))
            outputs += [errors(engine), errors(engine)]
            assert engine.stats.jobs_executed == 5 and engine.stats.cache_hits == 5
        assert len(set(outputs)) == 1


# ----------------------------------------------------------------------
# CLI: cache info --json (satellite)
# ----------------------------------------------------------------------
class TestCacheInfoJson:
    def test_cache_info_json_document(self, tmp_path, capsys):
        cache = ArtifactCache(tmp_path / "cache")
        key = job_key("cache-info-json-test", 1)
        cache.put(key, {"x": np.arange(4.0), "k": 1})

        code = cli_main(["cache", "info", "--cache-dir", str(tmp_path / "cache"), "--json"])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["count"] == 1
        assert document["bytes"] > 0
        assert document["max_bytes"] is None
        assert document["root"] == str(tmp_path / "cache")
        assert set(document["stats"]) == {
            "hits",
            "misses",
            "writes",
            "corrupt_dropped",
            "evictions",
        }

    def test_cache_info_json_subprocess(self, tmp_path):
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        output = subprocess.check_output(
            [sys.executable, "-m", "repro", "cache", "info", "--json"],
            env=env,
            text=True,
            timeout=START_TIMEOUT,
        )
        document = json.loads(output)
        assert document["count"] == 0
        assert document["bytes"] == 0


# ----------------------------------------------------------------------
# Observability: trace ids
# ----------------------------------------------------------------------
class TestTraceAcrossCluster:
    def test_bit_identity_with_trace_and_round_trip(self, cluster):
        """Tracing is free: results stay bit-identical with a trace id set,
        and the chunk events prove the id crossed to workers and back."""
        from repro import obs

        seen = []
        callback = obs.EVENTS.subscribe(seen.append)
        try:
            jobs = _seeded_jobs(16)
            serial = SerialExecutor().execute(_seeded_jobs(16))
            assert cluster.execute(jobs, trace="trace-cluster-1") == serial
        finally:
            obs.EVENTS.unsubscribe(callback)
        mine = [e for e in seen if e.get("trace") == "trace-cluster-1"]
        types = {e["type"] for e in mine}
        assert "chunk_dispatched" in types
        # chunk_done events carry the worker-echoed trace: the id made the
        # full coordinator -> worker -> coordinator round trip
        assert "chunk_done" in types
        seqs = [e["seq"] for e in mine]
        assert seqs == sorted(seqs)
