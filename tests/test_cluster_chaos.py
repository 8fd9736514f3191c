"""Adversarial scheduling harness for the cluster coordinator.

Runs two concurrent sweeps against one live cluster while a seeded
:class:`ChaosSchedule` (``tests/conftest.py``) adds a throttled
straggler, a mid-run pool resize and a SIGKILLed worker, and
asserts the two invariants that make the coordinator safe to ship:

* **bit-identity** — every sweep's merged result equals its serial
  reference exactly, whatever the interleaving;
* **exact progress** — each sweep's progress stream is monotone and ends
  at precisely its job count (death-retry re-queues never lose or
  double-count work).

Every live-cluster test guards itself with ``START_TIMEOUT``-bounded waits;
the CI step adds outer ``timeout`` guards on top.
"""

from __future__ import annotations

import os
import signal
import threading

import pytest

from repro.cluster import DistributedExecutor
from repro.runtime import Job, SerialExecutor

from test_cluster import (
    START_TIMEOUT,
    _await_workers,
    _slow_seeded,
    _spawn_throttled_worker,
)

#: Entropy offset separating the second sweep's values from the first
#: sweep's (both derive from the plan's seed).
_SECOND_ENTROPY = 500


def _jobs(entropy: int, count: int, seconds: float, tag: str) -> list:
    return [
        Job(fn=_slow_seeded, args=(entropy, i, seconds), name=f"{tag}[{i}]")
        for i in range(count)
    ]


def _serial(entropy: int, count: int, tag: str) -> list:
    return SerialExecutor().execute(_jobs(entropy, count, 0.0, tag))


class TestChaosSchedules:
    """Randomized interleavings of two concurrent sweeps vs serial references."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_concurrent_sweeps_bit_identical_with_exact_progress(
        self, seed, chaos_schedule, start_cluster
    ):
        plan = chaos_schedule(seed)
        executor = DistributedExecutor(
            workers=2,
            chunksize=plan.probe,
            heartbeat_interval=0.05,
            heartbeat_timeout=2.0,
            start_timeout=START_TIMEOUT,
        )
        start_cluster(executor)
        first_serial = _serial(plan.entropy, plan.count, "first")
        second_serial = _serial(
            plan.entropy + _SECOND_ENTROPY, plan.second_count, "second"
        )
        stragglers = []
        first_ticks: list = []
        second_ticks: list = []
        first_outcome: dict = {}
        second_started = threading.Event()
        victim = executor.worker_pids[0]
        killed: list = []

        def first_progress(done: int, total: int, label: str) -> None:
            first_ticks.append((done, total))
            if done >= plan.second_after_done:
                second_started.set()
            if plan.kill_one and done >= 3 and not killed:
                os.kill(victim, signal.SIGKILL)
                killed.append(victim)

        def run_first() -> None:
            try:
                first_outcome["results"] = executor.execute(
                    _jobs(plan.entropy, plan.count, 0.01, "first"),
                    progress=first_progress,
                )
            except BaseException as error:  # surfaced on join below
                first_outcome["error"] = error
            finally:
                second_started.set()  # never leave the main thread hanging

        runner = threading.Thread(target=run_first)
        try:
            stragglers.append(
                _spawn_throttled_worker(executor.address, throttle=plan.throttle)
            )
            _await_workers(executor, 3)
            runner.start()
            assert second_started.wait(timeout=START_TIMEOUT)
            if plan.resize_mid_run:
                stragglers.append(
                    _spawn_throttled_worker(
                        executor.address, throttle=plan.throttle, name="resize"
                    )
                )
            second = executor.execute(
                _jobs(
                    plan.entropy + _SECOND_ENTROPY,
                    plan.second_count,
                    0.01,
                    "second",
                ),
                progress=lambda d, t, l: second_ticks.append((d, t)),
            )
            runner.join(timeout=START_TIMEOUT)
            assert not runner.is_alive(), "the first sweep never finished"
            if "error" in first_outcome:
                raise first_outcome["error"]

            # bit-identity, whatever interleaving the chaos produced
            assert second == second_serial
            assert first_outcome["results"] == first_serial

            # exact progress: monotone, terminating at precisely the totals
            for ticks, total in (
                (first_ticks, plan.count),
                (second_ticks, plan.second_count),
            ):
                assert ticks, "sweep produced no progress ticks"
                dones = [done for done, _ in ticks]
                assert dones == sorted(dones)
                assert all(t == total for _, t in ticks)
                assert dones[-1] == total

            status = executor.status()
            assert status["queued_jobs"] == 0, "the queue must be drained after both sweeps"
            if plan.kill_one:
                assert killed, "the victim worker was never killed"
                assert status["stats"]["workers_lost"] >= 1
        finally:
            executor.close()
            for straggler in stragglers:
                if straggler.poll() is None:
                    straggler.terminate()
                    straggler.wait(timeout=10)
