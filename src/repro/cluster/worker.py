"""Long-lived cluster worker: ``python -m repro worker --connect HOST:PORT``.

A :class:`Worker` opens one TCP connection to the coordinator (retrying
with backoff while the coordinator is still binding — workers and
coordinator usually start together), registers with a ``hello`` carrying
its pid, slot count and code version, and then loops:

* ``chunk`` events are unpacked into :class:`~repro.runtime.jobs.Job`
  lists and executed on a thread pool sized to the worker's ``slots``
  (one chunk per slot in flight; the coordinator never over-commits);
* results go back as one ``chunk_done`` binary frame per chunk, packed by
  the pickle-free value codec (:func:`repro.wire.pack_values`);
* a job that raises reports ``chunk_failed`` with the exception's type
  name and message —
  the *worker survives* and keeps serving other chunks, the *sweep* fails
  at the submitting call site exactly as it would under the serial
  executor;
* a ``cancel`` event revokes one in-flight chunk (its run was cancelled):
  the chunk body stops at its next job boundary and reports nothing —
  the worker stays registered and keeps serving other chunks;
* heartbeats are sent at the interval the coordinator's ``welcome``
  announced, so a wedged or killed worker is detected and its chunks are
  reassigned;
* a ``shutdown`` event — or plain end-of-stream when the coordinator goes
  away — terminates the worker.  Workers therefore never outlive their
  coordinator as orphan processes.

Workers are processes, not threads, so a pool of single-slot workers gives
the same CPU-level parallelism as the process-pool executor while being
free to live on other hosts.
"""

from __future__ import annotations

import asyncio
import os
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, List, Optional, Tuple

from repro import obs, wire
from repro.cluster import protocol
from repro.runtime.executors import SweepCancelled
from repro.runtime.jobs import Job, code_version

# Worker-process metrics, scraped from the worker's own --metrics-port
# endpoint (workers are separate processes; the coordinator's registry
# cannot see them).
_CHUNKS_DONE = obs.counter(
    "repro_worker_chunks_done_total", "Chunks completed by this worker process."
)
_JOBS_DONE = obs.counter(
    "repro_worker_jobs_done_total", "Jobs completed by this worker process."
)
_CHUNK_SECONDS = obs.histogram(
    "repro_worker_chunk_seconds", "Wall time of chunks executed by this worker."
)


def _run_jobs(
    jobs: List[Job], cancel: threading.Event, throttle: float = 0.0
) -> List[Any]:
    """Chunk body on the worker thread: run every job unless revoked.

    ``cancel`` is the chunk's revocation flag (set by a coordinator
    ``cancel`` event), checked at every job boundary.  ``throttle`` adds a
    sleep before every job (the chaos knob behind ``--throttle``).
    """
    results: List[Any] = []
    for job in jobs:
        if cancel.is_set():
            raise SweepCancelled("chunk revoked by coordinator")
        if throttle > 0.0:
            time.sleep(throttle)
        results.append(job.run())
    return results


class WorkerError(RuntimeError):
    """The worker could not register with (or talk to) the coordinator."""


def parse_address(text: str) -> Tuple[str, int]:
    """Parse a ``host:port`` endpoint string.

    >>> parse_address("coordinator-host:7500")
    ('coordinator-host', 7500)
    >>> parse_address("7500")
    Traceback (most recent call last):
        ...
    ValueError: invalid address '7500' (expected HOST:PORT)
    """
    host, separator, port_text = text.rpartition(":")
    if not separator or not host:
        raise ValueError(f"invalid address {text!r} (expected HOST:PORT)")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"invalid port in address {text!r}") from None
    if not 0 < port < 65536:
        raise ValueError(f"port {port} out of range in address {text!r}")
    return host, port


class Worker:
    """One worker process serving chunks from a coordinator.

    Parameters
    ----------
    host, port:
        Coordinator endpoint.
    slots:
        Chunks this worker runs concurrently (thread pool size).  The
        default of 1 makes a *pool of worker processes* the unit of
        parallelism, matching the process-pool executor's model.
    name:
        Display name reported in ``cluster status``; defaults to
        ``<hostname>-<pid>``.
    connect_timeout:
        Retry-with-backoff budget while the coordinator is still binding.
    throttle:
        Artificial per-job delay in seconds (default 0: none).  A chaos
        knob: a throttled worker is a reproducible straggler for
        exercising work stealing and worker-death retry (see the chaos
        tests and the mixed-speed pool runbook in ``docs/operations.md``).
        Never set it in production pools.
    metrics_port:
        When set, serve this worker process's Prometheus metrics
        (``repro_worker_*``) on ``127.0.0.1:metrics_port`` for the
        lifetime of the connection (``--metrics-port``; 0 binds an
        ephemeral port, printed on start).
    """

    def __init__(
        self,
        host: str,
        port: int,
        slots: int = 1,
        name: Optional[str] = None,
        connect_timeout: float = 10.0,
        throttle: float = 0.0,
        metrics_port: Optional[int] = None,
    ):
        if slots < 1:
            raise ValueError("slots must be at least 1")
        if throttle < 0:
            raise ValueError("throttle must be non-negative")
        self.host = host
        self.port = port
        self.slots = slots
        self.name = name or f"{socket.gethostname()}-{os.getpid()}"
        self.connect_timeout = connect_timeout
        self.throttle = throttle
        self.metrics_port = metrics_port
        self.worker_id: Optional[str] = None
        self.chunks_done = 0

    async def run(self) -> None:
        """Serve until the coordinator shuts us down or disappears."""
        metrics_server: Optional[obs.MetricsServer] = None
        if self.metrics_port is not None:
            metrics_server = obs.MetricsServer(port=self.metrics_port)
            await metrics_server.start()
            print(
                f"worker metrics on http://127.0.0.1:{metrics_server.port}/metrics",
                flush=True,
            )
        reader, writer = await wire.open_connection(
            self.host, self.port, timeout=self.connect_timeout
        )
        pool = ThreadPoolExecutor(max_workers=self.slots, thread_name_prefix="chunk")
        send_lock = asyncio.Lock()
        loop = asyncio.get_running_loop()
        heartbeat_task: Optional["asyncio.Task"] = None
        chunk_tasks: set = set()
        # Per-chunk revocation flags: a coordinator `cancel` event sets the
        # matching flag and the body stops at its next job boundary.
        chunk_cancels: Dict[str, threading.Event] = {}

        async def send(message: Dict[str, Any]) -> None:
            async with send_lock:
                writer.write(wire.encode_message(message))
                await writer.drain()

        try:
            await send(
                protocol.hello_request(self.name, os.getpid(), self.slots, code_version())
            )
            welcome = await wire.read_message(reader)
            if welcome is None:
                raise WorkerError("coordinator closed the connection during hello")
            if welcome.get("event") == "error":
                raise WorkerError(f"registration rejected: {welcome.get('error')}")
            if welcome.get("event") != "welcome":
                raise WorkerError(f"unexpected registration reply: {welcome}")
            self.worker_id = str(welcome.get("worker"))
            interval = float(welcome.get("heartbeat_seconds", 1.0))

            async def heartbeat_loop() -> None:
                while True:
                    await asyncio.sleep(interval)
                    await send(protocol.heartbeat_request(self.worker_id or ""))

            async def run_chunk(
                chunk_id: str, blob: str, trace: Optional[str] = None
            ) -> None:
                # The flag was registered by the read loop when the chunk
                # arrived, so a `cancel` processed before this task first
                # runs is still seen.
                cancel = chunk_cancels.get(chunk_id) or threading.Event()
                started = time.monotonic()
                try:
                    jobs = protocol.unpack_jobs(blob)
                    results = await loop.run_in_executor(
                        pool, _run_jobs, jobs, cancel, self.throttle
                    )
                except asyncio.CancelledError:
                    raise
                except SweepCancelled:
                    # Revoked chunk: the coordinator already disowned it,
                    # so report nothing and stay available for new work.
                    return
                except BaseException as error:  # job failure -> sweep failure
                    if not cancel.is_set():
                        await send(protocol.chunk_failed_request(chunk_id, error))
                    return
                finally:
                    chunk_cancels.pop(chunk_id, None)
                if cancel.is_set():
                    # Revocation raced chunk completion; drop the result —
                    # the coordinator would discard it as a duplicate anyway.
                    return
                try:
                    reply = wire.encode_binary(
                        *protocol.chunk_done_frame(chunk_id, results, trace)
                    )
                except wire.ProtocolError as error:
                    # A result type the codec refuses, or a frame over its
                    # bound: the run fails, the worker keeps serving.
                    await send(
                        protocol.chunk_failed_request(
                            chunk_id,
                            wire.ProtocolError(
                                f"chunk {chunk_id} results cannot cross the wire: {error}"
                            ),
                        )
                    )
                    return
                async with send_lock:
                    writer.write(reply)
                    await writer.drain()
                self.chunks_done += 1
                _CHUNKS_DONE.inc()
                _JOBS_DONE.inc(len(results))
                _CHUNK_SECONDS.observe(time.monotonic() - started)

            def reap_chunk_task(task: "asyncio.Task") -> None:
                chunk_tasks.discard(task)
                if not task.cancelled():
                    task.exception()  # a failed send is fatal via the read loop

            heartbeat_task = asyncio.ensure_future(heartbeat_loop())
            while True:
                message = await wire.read_message(reader)
                if message is None or message.get("event") == "shutdown":
                    break
                if message.get("event") == "chunk":
                    chunk_id = str(message.get("chunk"))
                    chunk_cancels[chunk_id] = threading.Event()
                    trace = message.get("trace")
                    task = asyncio.ensure_future(
                        run_chunk(
                            chunk_id,
                            str(message.get("jobs", "")),
                            trace=str(trace) if trace is not None else None,
                        )
                    )
                    chunk_tasks.add(task)
                    task.add_done_callback(reap_chunk_task)
                elif message.get("event") == "cancel":
                    revoked = chunk_cancels.get(str(message.get("chunk")))
                    if revoked is not None:
                        revoked.set()
                elif message.get("event") == "error":
                    raise WorkerError(f"coordinator error: {message.get('error')}")
                # anything else: ignore (forward compatibility)
        except (ConnectionError, OSError, wire.ProtocolError):
            # Coordinator went away mid-stream; exit quietly — the
            # coordinator side reassigns whatever we were running.
            pass
        finally:
            if heartbeat_task is not None:
                heartbeat_task.cancel()
            for task in list(chunk_tasks):
                task.cancel()
            await asyncio.gather(
                *([heartbeat_task] if heartbeat_task else []),
                *chunk_tasks,
                return_exceptions=True,
            )
            pool.shutdown(wait=False, cancel_futures=True)
            if metrics_server is not None:
                await metrics_server.stop()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass


def run_worker(
    connect: str,
    slots: int = 1,
    name: Optional[str] = None,
    connect_timeout: float = 10.0,
    throttle: float = 0.0,
    metrics_port: Optional[int] = None,
) -> int:
    """Synchronous entry point used by ``python -m repro worker``.

    Parameters
    ----------
    connect:
        Coordinator endpoint as ``HOST:PORT`` (the address the submitting
        process passed to ``--connect``, or printed in ``cluster status``).
    slots:
        Chunks run concurrently by this worker (default 1: parallelism
        comes from running one worker per core).
    name:
        Display name in ``cluster status``; default ``<hostname>-<pid>``.
    connect_timeout:
        Retry-with-backoff budget while the coordinator is still binding.
    throttle:
        Artificial per-job delay in seconds — the deliberate-straggler
        chaos knob (``--throttle``); keep 0 in production pools.
    metrics_port:
        Serve this worker's Prometheus metrics on this port while the
        worker runs (``--metrics-port``; 0 picks an ephemeral port).

    Returns the process exit code: ``0`` on clean shutdown (coordinator
    closed the cluster), ``1`` on registration / transport failure —
    version-mismatch rejections land here, printed to stdout.

    Raises
    ------
    ValueError
        For a malformed ``connect`` address, ``slots < 1`` or a negative
        ``throttle``.
    """
    host, port = parse_address(connect)
    worker = Worker(
        host,
        port,
        slots=slots,
        name=name,
        connect_timeout=connect_timeout,
        throttle=throttle,
        metrics_port=metrics_port,
    )
    try:
        asyncio.run(worker.run())
    except (WorkerError, ConnectionError, OSError) as error:
        print(f"worker error: {error}", flush=True)
        return 1
    except KeyboardInterrupt:
        pass
    return 0
