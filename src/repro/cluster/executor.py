"""`DistributedExecutor` — the cluster as a drop-in sweep executor.

Registers as ``make_executor("distributed", workers=..., connect=...)`` so
every driver that routes work through :class:`repro.runtime.SweepEngine`
(characterisation, DSE, PVT / Monte-Carlo, the analysis drivers, the
service workloads) gains cluster execution without touching its code.

The executor owns the cluster endpoint: a :class:`~repro.cluster.coordinator.Coordinator`
running on a dedicated event-loop thread inside the submitting process.
``workers=N`` spawns N local single-slot worker subprocesses
(``python -m repro worker``); ``connect="HOST:PORT"`` binds the endpoint
on a routable address so *additional* workers on other hosts can join the
same sweeps (``python -m repro worker --connect HOST:PORT``).  The two
compose — a laptop can spawn four local workers and accept twenty more
from the lab machines.

It is the one multi-process strategy.  Guarantees, matching every other
executor:

* **bit-identical results** — jobs are deterministic work units, results
  are merged by submission index, so distributed == serial == auto
  bit-for-bit;
* **cache locality** — the engine resolves artifact-cache hits *before*
  the executor runs, so warm shards never cross the wire;
* **graceful degradation** — a host where sockets or subprocesses are
  unavailable (sandboxes, restricted CI) falls back to in-process
  execution, keeping a sweep's ``batch_fn``;
* **fault tolerance** — killed workers have their chunks reassigned and
  retried (see the coordinator); a *job* exception still propagates to the
  submitting call site unchanged.

The event-loop thread and the worker subprocesses start lazily on the
first :meth:`execute` and are torn down by :meth:`close` (also wired to
``atexit``; workers additionally exit on coordinator end-of-stream, so no
orphan processes survive a crashed submitter).
"""

from __future__ import annotations

import asyncio
import atexit
import concurrent.futures
import os
import subprocess
import sys
import threading
import time
import warnings
from typing import Any, Callable, List, Optional, Sequence, Tuple

from repro import obs
from repro.cluster.coordinator import ClusterError, Coordinator
from repro.cluster.worker import parse_address
from repro.runtime.executors import (
    CancelEvent,
    ProgressCallback,
    SerialExecutor,
    _serial_fallback,
    default_chunksize,
)
from repro.runtime.jobs import Job

_TEARDOWN_ERRORS_TOTAL = obs.counter(
    "repro_cluster_teardown_errors_total",
    "Coordinator stop failures swallowed during executor teardown "
    "(workers are still terminated and the loop thread joined).",
)


def _worker_environment() -> dict:
    """Environment for spawned workers: inherit, plus the submitter's
    ``sys.path`` so every module whose functions ride in pickled jobs is
    importable on the worker side (the same guarantee ``multiprocessing``'s
    spawn start method provides)."""
    env = dict(os.environ)
    entries = [entry for entry in sys.path if entry]
    env["PYTHONPATH"] = os.pathsep.join(entries)
    return env


def spawn_worker_process(
    connect: str,
    name: Optional[str] = None,
    slots: int = 1,
    throttle: float = 0.0,
    connect_timeout: float = 30.0,
) -> subprocess.Popen:
    """Spawn one ``python -m repro worker`` subprocess joining ``connect``.

    The single place the worker command line is assembled: the executor
    uses it for its local pool, and the chaos tests use it (with
    ``throttle``) to join deliberately slowed workers — so
    every spawner inherits the same flags and :func:`_worker_environment`.
    """
    command = [
        sys.executable,
        "-m",
        "repro",
        "worker",
        "--connect",
        connect,
        "--connect-timeout",
        str(connect_timeout),
    ]
    if name is not None:
        command += ["--name", name]
    if slots != 1:
        command += ["--slots", str(slots)]
    if throttle:
        command += ["--throttle", str(throttle)]
    return subprocess.Popen(
        command,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        env=_worker_environment(),
    )


class DistributedExecutor:
    """Run sweeps across long-lived worker processes, local or remote.

    Parameters
    ----------
    workers:
        Local worker subprocesses to spawn (default: the host CPU count).
        ``workers=0`` spawns none and relies entirely on external workers
        joining via ``connect``.
    connect:
        ``"HOST:PORT"`` bind address of the cluster endpoint (default
        loopback with an ephemeral port).  External workers join with
        ``python -m repro worker --connect HOST:PORT``.
    chunksize:
        Jobs per dispatched chunk.  The default
        (:func:`~repro.runtime.executors.default_chunksize`) gives a sweep
        with a ``batch_fn`` one chunk per worker slot, capped at
        :data:`~repro.runtime.executors.AUTO_BATCH_SIZE` jobs, and splits
        any other sweep into about four chunks per slot — small enough for
        a fast worker to pull more of them than a slow one and for
        death-retry to matter, large enough to amortise the pickle+frame
        overhead (see ``docs/scheduling.md``).
    heartbeat_interval, heartbeat_timeout:
        Liveness beacon cadence and the silence threshold after which a
        worker is declared dead.
    start_timeout:
        Budget for the cluster to come up (bind + worker registration).
        On expiry with zero workers the executor degrades to serial.
    """

    name = "distributed"

    def __init__(
        self,
        workers: Optional[int] = None,
        connect: Optional[str] = None,
        chunksize: Optional[int] = None,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 5.0,
        start_timeout: float = 30.0,
    ):
        if workers is not None and workers < 0:
            raise ValueError("workers must be non-negative")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be at least 1")
        if connect is not None:
            parse_address(connect)  # validate eagerly: CLI errors beat hangs
        self.workers = (os.cpu_count() or 1) if workers is None else workers
        if self.workers == 0 and connect is None:
            raise ValueError("workers=0 needs connect= so external workers can join")
        self.connect = connect
        self.chunksize = chunksize
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.start_timeout = start_timeout
        self.coordinator: Optional[Coordinator] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._loop_thread: Optional[threading.Thread] = None
        self._processes: List[subprocess.Popen] = []
        self._fallback: Optional[SerialExecutor] = None
        self._started = False
        self._lock = threading.Lock()
        self._atexit_registered = False

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Optional[Tuple[str, int]]:
        """Bound ``(host, port)`` of the cluster endpoint once started."""
        if self.coordinator is None:
            return None
        return self.coordinator.address

    @property
    def worker_pids(self) -> List[int]:
        """PIDs of the locally spawned worker subprocesses (for tests/ops)."""
        return [process.pid for process in self._processes]

    def start(self) -> "DistributedExecutor":
        """Start the cluster (idempotent); degrades to serial on failure.

        Sweeps still complete on hosts without sockets / subprocesses, but
        the degradation is *audibly* reported via :mod:`warnings`, so a
        broken cluster can never masquerade as a working one in CI logs.
        """
        with self._lock:
            if self._started:
                return self
            self._started = True
            self._fallback = None  # a restart gets a fresh chance
            try:
                self._start_locked()
            except Exception as error:
                self._teardown_locked()
                self._fallback = SerialExecutor()
                warnings.warn(
                    f"distributed executor unavailable ({type(error).__name__}: "
                    f"{error}); falling back to serial execution",
                    RuntimeWarning,
                    stacklevel=2,
                )
            return self

    def _start_locked(self) -> None:
        loop = asyncio.new_event_loop()
        thread = threading.Thread(target=loop.run_forever, name="cluster-loop", daemon=True)
        thread.start()
        self._loop = loop
        self._loop_thread = thread
        host, port = ("127.0.0.1", 0) if self.connect is None else parse_address(self.connect)
        coordinator = Coordinator(
            host=host,
            port=port,
            heartbeat_interval=self.heartbeat_interval,
            heartbeat_timeout=self.heartbeat_timeout,
        )
        asyncio.run_coroutine_threadsafe(coordinator.start(), loop).result(self.start_timeout)
        self.coordinator = coordinator
        if not self._atexit_registered:
            atexit.register(self.close)
            self._atexit_registered = True
        bound_host, bound_port = coordinator.address
        for index in range(self.workers):
            self._processes.append(
                spawn_worker_process(
                    f"{bound_host}:{bound_port}",
                    name=f"local-{index}",
                    connect_timeout=self.start_timeout,
                )
            )
        self._await_workers()

    def _await_workers(self) -> None:
        """Block until every spawned worker (at least one) registered,
        capped by start_timeout."""
        assert self.coordinator is not None
        wanted = max(1, self.workers)
        deadline = time.monotonic() + self.start_timeout
        while time.monotonic() < deadline:
            alive = self.coordinator.worker_count()
            if alive >= wanted:
                return
            # Spawned workers that died at startup can never register.
            spawned_alive = sum(1 for p in self._processes if p.poll() is None)
            if self.workers and spawned_alive == 0 and alive == 0:
                break
            time.sleep(0.02)
        if self.coordinator.worker_count() == 0:
            raise ClusterError("no workers registered within the start timeout")

    def close(self) -> None:
        """Stop the coordinator, terminate spawned workers, join the loop."""
        with self._lock:
            self._teardown_locked()
            self._started = False

    def _teardown_locked(self) -> None:
        if self.coordinator is not None and self._loop is not None:
            try:
                asyncio.run_coroutine_threadsafe(self.coordinator.stop(), self._loop).result(10)
            except Exception:
                # Teardown proceeds regardless (workers are terminated just
                # below), but a coordinator that cannot stop cleanly is
                # worth a trace on the registry.
                _TEARDOWN_ERRORS_TOTAL.inc()
        for process in self._processes:
            if process.poll() is None:
                process.terminate()
        for process in self._processes:
            try:
                process.wait(timeout=5)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5)
        self._processes.clear()
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self._loop.stop)
            if self._loop_thread is not None:
                self._loop_thread.join(timeout=5)
            if not self._loop.is_running():
                self._loop.close()
        self.coordinator = None
        self._loop = None
        self._loop_thread = None

    def __enter__(self) -> "DistributedExecutor":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        jobs: Sequence[Job],
        progress: Optional[ProgressCallback] = None,
        batch_fn: Optional[Callable[[Sequence[Job]], List[Any]]] = None,
        cancel: Optional[CancelEvent] = None,
        trace: Optional[str] = None,
    ) -> List[Any]:
        """Run ``jobs`` across the cluster; results in submission order.

        Single-job sweeps run inline (no wire round-trip can pay for
        itself).  A ``batch_fn`` ships with
        every chunk and the worker runs the chunk through it in one call;
        by default such a sweep is cut into one chunk per worker slot, so
        its shards on one worker fuse into one vectorised pass and progress
        ticks once per chunk.  Every in-process degradation (single job,
        no workers, fallback executor) keeps the ``batch_fn`` too.  A set
        ``cancel`` event is forwarded to the coordinator, which revokes the
        run's queued chunks and tells workers to drop in-flight ones; the call
        then raises :class:`~repro.runtime.SweepCancelled`.  ``trace``
        (the originating request's observability id, see :mod:`repro.obs`)
        rides every chunk frame of the run and is echoed by workers, so
        cross-tier metrics and ``watch`` events stay attributable.
        """
        if len(jobs) <= 1:
            return _serial_fallback(jobs, progress, batch_fn, cancel)
        if not self._started:
            self.start()
        if self._fallback is not None:
            return _serial_fallback(jobs, progress, batch_fn, cancel)
        assert self.coordinator is not None and self._loop is not None
        chunksize = self.chunksize or default_chunksize(
            len(jobs), self.coordinator.total_slots(), batched=batch_fn is not None
        )
        future = asyncio.run_coroutine_threadsafe(
            self.coordinator.run(
                jobs,
                chunksize,
                progress=progress,
                cancel_event=cancel,
                trace=trace,
                batch_fn=batch_fn,
            ),
            self._loop,
        )
        return future.result()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status(self, timeout: float = 10.0) -> dict:
        """Cluster status document (see :meth:`Coordinator.status_event`).

        ``timeout`` bounds the round-trip to the coordinator's event loop;
        on expiry the pending request is cancelled (so a wedged loop does
        not accumulate abandoned coroutines) and the timeout propagates.
        """
        if self._fallback is not None:
            return {"event": "status", "fallback": "serial", "workers": []}
        if self.coordinator is None or self._loop is None:
            return {"event": "status", "started": False, "workers": []}
        future = asyncio.run_coroutine_threadsafe(self._status_async(), self._loop)
        try:
            return future.result(timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise

    async def _status_async(self) -> dict:
        assert self.coordinator is not None
        return self.coordinator.status_event()
