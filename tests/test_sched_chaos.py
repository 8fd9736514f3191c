"""Adversarial scheduling harness for the multi-tenant priority scheduler.

Runs concurrent mixed-priority sweeps against one live cluster while a
seeded :class:`ChaosSchedule` (``tests/conftest.py``) interleaves the full
event zoo — preemptions, resumes, steals, throttled stragglers, a mid-run
pool resize and a SIGKILLed worker — and asserts the two invariants that make
the scheduler safe to ship:

* **bit-identity** — every sweep's merged result equals its serial
  reference exactly, whatever the interleaving;
* **exact progress** — each sweep's progress stream is monotone and ends
  at precisely its job count (preemption re-queues never lose or
  double-count work).

A deterministic preemption scenario then pins the event/counter surface
(``preempted`` / ``resumed``, ``repro_sched_*``), and the recovery test
SIGKILLs a ``serve`` subprocess *mid-preemption* — journal holding a
``paused`` transition — and proves ``--resume`` replays to bit-identical
results.

Every live-cluster test guards itself with ``START_TIMEOUT``-bounded waits;
the CI step adds outer ``timeout`` guards on top.
"""

from __future__ import annotations

import asyncio
import contextlib
import os
import signal
import threading
import time

import numpy as np
import pytest

from repro import obs
from repro.cluster import DistributedExecutor
from repro.journal import JobJournal, default_journal_path
from repro.runtime import Job, SerialExecutor, SweepEngine
from repro.sched import JOB_CLASSES, SchedPolicy
from repro.service import ServiceClient, ServiceError

from test_cluster import (
    START_TIMEOUT,
    _await_workers,
    _slow_seeded,
    _spawn_throttled_worker,
)
from test_resilience import TIMEOUT, _read_banner_port, _spawn_serve

#: Entropy offset separating the interactive sweep's values from the batch
#: sweep's (both derive from the plan's seed).
_INTERACTIVE_ENTROPY = 500


def _jobs(entropy: int, count: int, seconds: float, tag: str) -> list:
    return [
        Job(fn=_slow_seeded, args=(entropy, i, seconds), name=f"{tag}[{i}]")
        for i in range(count)
    ]


def _serial(entropy: int, count: int, tag: str) -> list:
    return SerialExecutor().execute(_jobs(entropy, count, 0.0, tag))


class TestChaosSchedules:
    """Randomized mixed-priority interleavings vs serial references."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_mixed_priority_sweeps_bit_identical_with_exact_progress(
        self, seed, chaos_schedule
    ):
        plan = chaos_schedule(seed)
        executor = DistributedExecutor(
            workers=2,
            chunksize=plan.probe,
            heartbeat_interval=0.05,
            heartbeat_timeout=2.0,
            start_timeout=START_TIMEOUT,
        )
        executor.start()
        if executor._fallback is not None:
            pytest.skip("cluster cannot start in this environment")
        batch_serial = _serial(plan.entropy, plan.count, "batch")
        interactive_serial = _serial(
            plan.entropy + _INTERACTIVE_ENTROPY, plan.interactive_count, "urgent"
        )
        stragglers = []
        batch_ticks: list = []
        interactive_ticks: list = []
        batch_outcome: dict = {}
        interactive_started = threading.Event()
        victim = executor.worker_pids[0]
        killed: list = []

        def batch_progress(done: int, total: int, label: str) -> None:
            batch_ticks.append((done, total))
            if done >= plan.interactive_after_done:
                interactive_started.set()
            if plan.kill_one and done >= 3 and not killed:
                os.kill(victim, signal.SIGKILL)
                killed.append(victim)

        def run_batch() -> None:
            try:
                batch_outcome["results"] = executor.execute(
                    _jobs(plan.entropy, plan.count, 0.01, "batch"),
                    progress=batch_progress,
                    sched={"class": "batch", "priority": plan.batch_priority},
                )
            except BaseException as error:  # surfaced on join below
                batch_outcome["error"] = error
            finally:
                interactive_started.set()  # never leave the main thread hanging

        runner = threading.Thread(target=run_batch)
        try:
            stragglers.append(
                _spawn_throttled_worker(executor.address, throttle=plan.throttle)
            )
            _await_workers(executor, 3)
            runner.start()
            assert interactive_started.wait(timeout=START_TIMEOUT)
            if plan.resize_mid_run:
                stragglers.append(
                    _spawn_throttled_worker(
                        executor.address, throttle=plan.throttle, name="resize"
                    )
                )
            interactive = executor.execute(
                _jobs(
                    plan.entropy + _INTERACTIVE_ENTROPY,
                    plan.interactive_count,
                    0.01,
                    "urgent",
                ),
                progress=lambda d, t, l: interactive_ticks.append((d, t)),
                sched={"class": "interactive", "priority": plan.interactive_priority},
            )
            runner.join(timeout=START_TIMEOUT)
            assert not runner.is_alive(), "the batch sweep never finished"
            if "error" in batch_outcome:
                raise batch_outcome["error"]

            # bit-identity, whatever interleaving the chaos produced
            assert interactive == interactive_serial
            assert batch_outcome["results"] == batch_serial

            # exact progress: monotone, terminating at precisely the totals
            for ticks, total in (
                (batch_ticks, plan.count),
                (interactive_ticks, plan.interactive_count),
            ):
                assert ticks, "sweep produced no progress ticks"
                dones = [done for done, _ in ticks]
                assert dones == sorted(dones)
                assert all(t == total for _, t in ticks)
                assert dones[-1] == total

            status = executor.status()
            assert set(status["sched"]["queued_jobs_by_class"]) == set(JOB_CLASSES)
            assert all(
                depth == 0
                for depth in status["sched"]["queued_jobs_by_class"].values()
            ), "queues must be drained after both sweeps completed"
            assert status["sched"]["paused_runs"] == 0
            assert set(status["sched"]["stats"]) == {
                "preempt_requests",
                "preemptions",
                "resumes",
                "jobs_requeued",
            }
            if plan.kill_one:
                assert killed, "the victim worker was never killed"
                assert status["stats"]["workers_lost"] >= 1
        finally:
            executor.close()
            for straggler in stragglers:
                if straggler.poll() is None:
                    straggler.terminate()
                    straggler.wait(timeout=10)


class TestDeterministicPreemption:
    """A pinned scenario in which preemption *must* fire: one fully busy
    worker, one oversized in-flight batch chunk, one urgent arrival."""

    def test_interactive_preempts_saturated_batch(self):
        executor = DistributedExecutor(
            workers=1,
            chunksize=12,  # the whole batch sweep rides one chunk
            heartbeat_interval=0.05,
            heartbeat_timeout=5.0,
            start_timeout=START_TIMEOUT,
        )
        executor.start()
        if executor._fallback is not None:
            pytest.skip("cluster cannot start in this environment")
        batch_serial = _serial(4242, 12, "batch")
        interactive_serial = _serial(4243, 4, "urgent")
        events: list = []
        subscription = obs.EVENTS.subscribe(events.append)
        batch_outcome: dict = {}
        dispatched = threading.Event()

        def watch_dispatch(event: dict) -> None:
            if event.get("type") == "chunk_dispatched":
                dispatched.set()

        watcher = obs.EVENTS.subscribe(watch_dispatch)

        def run_batch() -> None:
            try:
                batch_outcome["results"] = executor.execute(
                    _jobs(4242, 12, 0.1, "batch"),
                    trace="chaos-batch",
                    sched="batch",
                )
                batch_outcome["at"] = time.monotonic()
            except BaseException as error:
                batch_outcome["error"] = error

        runner = threading.Thread(target=run_batch)
        try:
            runner.start()
            assert dispatched.wait(timeout=START_TIMEOUT)
            interactive = executor.execute(
                _jobs(4243, 4, 0.01, "urgent"),
                trace="chaos-urgent",
                sched={"class": "interactive"},
            )
            interactive_done_at = time.monotonic()
            runner.join(timeout=START_TIMEOUT)
            assert not runner.is_alive()
            if "error" in batch_outcome:
                raise batch_outcome["error"]

            assert interactive == interactive_serial
            assert batch_outcome["results"] == batch_serial
            # the urgent sweep jumped the queue: it finished first even
            # though the batch sweep owned the only slot when it arrived
            assert interactive_done_at <= batch_outcome["at"]

            kinds = [event["type"] for event in events]
            assert "preempted" in kinds
            assert "resumed" in kinds
            preempted = next(e for e in events if e["type"] == "preempted")
            assert preempted["trace"] == "chaos-batch"
            assert preempted["requeued"] >= 1
            resumed = next(e for e in events if e["type"] == "resumed")
            assert resumed["trace"] == "chaos-batch"

            stats = executor.status()["sched"]["stats"]
            assert stats["preempt_requests"] >= 1
            assert stats["preemptions"] >= 1
            assert stats["resumes"] >= 1
            assert stats["jobs_requeued"] >= 1
        finally:
            obs.EVENTS.unsubscribe(subscription)
            obs.EVENTS.unsubscribe(watcher)
            executor.close()


class TestPreemptionRecovery:
    """SIGKILL ``serve`` mid-preemption; ``--resume`` replays bit-identically."""

    BATCH = {"samples": 8000, "seed": 11, "shards": 16}
    URGENT = {"samples": 64, "seed": 5, "shards": 2}

    def test_sigkill_mid_preemption_resumes_bit_identical(self, tmp_path):
        cache_dir = tmp_path / "cache"

        # baseline payloads from uninterrupted in-process runs
        from repro.service.workloads import get_workload
        from repro.runtime import ArtifactCache

        baseline_engine = SweepEngine(cache=ArtifactCache(tmp_path / "baseline"))
        batch_baseline = get_workload("montecarlo")(dict(self.BATCH), baseline_engine)
        urgent_baseline = get_workload("montecarlo")(dict(self.URGENT), baseline_engine)

        # --- cold run on a distributed 1-slot engine, killed mid-preemption
        process = _spawn_serve(
            cache_dir,
            "--executor",
            "distributed",
            "--workers",
            "1",
            "--chunksize",
            "16",
        )
        try:
            port = _read_banner_port(process)
            journal_path = default_journal_path(cache_dir)

            async def submit_and_kill_mid_preemption():
                batch_client = await ServiceClient("127.0.0.1", port).connect()
                urgent_client = await ServiceClient("127.0.0.1", port).connect()
                watch_client = await ServiceClient("127.0.0.1", port).connect()
                dispatched = asyncio.Event()

                async def watch_for_batch_dispatch():
                    # the server streams its coordinator's obs events over
                    # the watch op; the batch sweep rides one 16-job chunk
                    # (the urgent sweep's chunks carry only 2)
                    async for event in watch_client.watch():
                        if (
                            event.get("type") == "chunk_dispatched"
                            and event.get("jobs", 0) >= 8
                        ):
                            dispatched.set()
                            return

                watch_task = asyncio.create_task(watch_for_batch_dispatch())
                batch_task = asyncio.create_task(
                    batch_client.submit(
                        "montecarlo", dict(self.BATCH), sched={"class": "batch"}
                    )
                )
                # wait until the batch chunk provably occupies the 1-slot
                # worker; an urgent arrival now can only be served by
                # preempting it
                await dispatched.wait()
                urgent_task = asyncio.create_task(
                    urgent_client.submit(
                        "montecarlo", dict(self.URGENT), sched={"class": "interactive"}
                    )
                )
                # the urgent arrival forces a preemption on the saturated
                # 1-slot worker; the service journals it as a `paused`
                # transition — that record on disk IS "mid-preemption"
                while True:
                    kinds = [
                        record["record"]
                        for record in JobJournal(journal_path).records()
                    ]
                    if "paused" in kinds:
                        break
                    await asyncio.sleep(0.02)
                os.kill(process.pid, signal.SIGKILL)
                for task in (batch_task, urgent_task, watch_task):
                    task.cancel()
                    with contextlib.suppress(
                        ConnectionError,
                        OSError,
                        ServiceError,
                        asyncio.CancelledError,
                        asyncio.IncompleteReadError,
                    ):
                        await task
                for client in (batch_client, urgent_client, watch_client):
                    with contextlib.suppress(ConnectionError, OSError):
                        await client.aclose()

            asyncio.run(
                asyncio.wait_for(submit_and_kill_mid_preemption(), TIMEOUT * 4)
            )
        finally:
            process.kill()
            process.wait(timeout=15)

        journal = JobJournal(default_journal_path(cache_dir))
        kinds = [record["record"] for record in journal.records()]
        assert "paused" in kinds, "no preemption transition reached the journal"
        pending = journal.pending()
        assert pending, "the killed sweeps must be journal-pending"
        assert {entry.workload for entry in pending} == {"montecarlo"}
        assert any(entry.params == self.BATCH for entry in pending)

        # --- restart with --resume: replay, then resubmit both sweeps ----
        process = _spawn_serve(
            cache_dir,
            "--resume",
            "--executor",
            "distributed",
            "--workers",
            "1",
            "--chunksize",
            "16",
        )
        try:
            port = _read_banner_port(process)
            for line in process.stdout:
                if "resumed" in line:
                    assert "resumed 0" not in line
                    break

            async def await_replay_then_resubmit():
                client = await ServiceClient("127.0.0.1", port).connect()
                while True:
                    status = await client.status()
                    if status["in_flight"] == 0 and status["journal"]["pending"] == 0:
                        break
                    await asyncio.sleep(0.05)
                batch = await client.submit(
                    "montecarlo", dict(self.BATCH), sched={"class": "batch"}
                )
                urgent = await client.submit("montecarlo", dict(self.URGENT))
                await client.aclose()
                return batch, urgent

            batch_result, urgent_result = asyncio.run(
                asyncio.wait_for(await_replay_then_resubmit(), TIMEOUT * 8)
            )
        finally:
            process.terminate()
            process.wait(timeout=15)

        # bit-identical to the uninterrupted runs (floats survive JSON
        # exactly: dumps uses the shortest round-trip repr)
        assert batch_result.payload["sigma_v_blb"] == batch_baseline["sigma_v_blb"]
        assert batch_result.payload == batch_baseline
        assert urgent_result.payload == urgent_baseline


class TestSchedPolicyParsing:
    """The wire-facing policy parser (rejections surface as bad requests)."""

    def test_parse_accepts_class_names_and_objects(self):
        assert SchedPolicy.parse(None) == SchedPolicy()
        assert SchedPolicy.parse("interactive").priority == 10
        assert SchedPolicy.parse({"class": "batch", "priority": -2}).priority == -2
        policy = SchedPolicy.parse({"class": "interactive"})
        assert policy.job_class == "interactive" and policy.priority == 10
        assert SchedPolicy.parse(policy) is policy

    def test_parse_rejects_malformed_policies(self):
        for bad in ("urgent", {"class": "urgent"}, {"priority": "high"}, 42, 3.5):
            with pytest.raises(ValueError):
                SchedPolicy.parse(bad)
        with pytest.raises(ValueError):
            SchedPolicy.parse({"class": "batch", "priority": 10**9})

    def test_round_trip_and_describe(self):
        policy = SchedPolicy.parse({"class": "interactive", "priority": 7})
        assert SchedPolicy.parse(policy.to_dict()) == policy
        assert "interactive" in policy.describe()
