"""The cluster coordinator: shard content-hashed jobs across workers.

:class:`Coordinator` is the asyncio server at the heart of the distributed
executor.  Long-lived :class:`~repro.cluster.worker.Worker` processes
connect to it over the shared NDJSON framing (:mod:`repro.wire`), register
with a ``hello`` (checked for protocol *and* code version — a worker running
different code must never compute shards) and then receive chunks of pickled
:class:`~repro.runtime.jobs.Job` units, each with its sweep's ``batch_fn``.

Scheduling model (the ARTIQ-style long-lived-worker pattern, adapted to
sweeps; the full design rationale lives in ``docs/scheduling.md``):

* every :meth:`run` appends one **span** ``[0, total)`` of undispatched
  work to a single cluster-wide FIFO queue, so concurrent runs dispatch
  in arrival order;
* each worker holds at most ``slots`` chunks in flight; whenever it has a
  free slot the scheduler cuts the run's static ``chunksize`` jobs off the
  front span and sends them (pull dispatch), so a fast (or late-joining)
  worker simply takes more chunks and a straggler holds at most its
  in-flight ones;
* a worker that dies — its connection drops or its heartbeat goes silent —
  has its in-flight chunks put back on the queue's front, with a bounded
  retry count (:data:`MAX_CHUNK_RETRIES`) so a chunk that kills every
  worker cannot loop forever;
* results are merged **by global job index**, so whatever the dispatch
  schedule, chunk sizing or retry history, the returned list is
  bit-identical to a serial run (the same guarantee every in-process
  executor gives);
* a run whose ``cancel_event`` fires is **revoked**: queued spans are
  purged, workers holding in-flight chunks receive ``cancel`` events and
  stop at their next job boundary, and the run fails with
  :class:`~repro.runtime.SweepCancelled` at the submitting call site.

A job that *raises* on a worker is a run failure, not a worker failure: the
exception's type name and message travel back and re-raise at the
submitting call site — as the same built-in type where there is one,
otherwise as ``RuntimeError("Type: message")``.  Results come back as
pickle-free binary frames: the coordinator never unpickles a worker's
bytes.

The coordinator never sees the artifact cache: :class:`repro.runtime.SweepEngine`
resolves cache hits *before* handing jobs to any executor, so warm shards
never leave the host and only genuine misses cross the wire.
"""

from __future__ import annotations

import asyncio
import dataclasses
import itertools
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Sequence, Tuple

from repro import obs, wire
from repro.cluster import protocol
from repro.runtime.executors import CancelEvent, ProgressCallback, SweepCancelled
from repro.runtime.jobs import Job, code_version

#: Help strings of the coordinator counters; each backs a registry metric
#: ``repro_cluster_<key>_total`` *and* the per-instance ``stats`` view the
#: ``status`` op reports (see :class:`repro.obs.CounterGroup`).
_STAT_HELP = {
    "runs": "Runs submitted to the coordinator.",
    "runs_cancelled": "Runs revoked by cooperative cancellation.",
    "chunks_dispatched": "Chunks sent to workers.",
    "chunks_completed": "Chunks completed by workers.",
    "chunks_retried": "In-flight chunks requeued after a worker death.",
    "chunks_cancelled": "In-flight chunks revoked by run cancellation.",
    "chunks_refitted": "Chunks halved to fit the wire frame limit.",
    "jobs_done": "Jobs completed across all runs.",
    "workers_lost": "Workers declared dead.",
    "duplicate_results": "Duplicate chunk results discarded.",
    "scheduler_errors": "Scheduler/reaper iterations that raised.",
}

_WORKERS_ALIVE = obs.gauge(
    "repro_cluster_workers_alive_total", "Registered workers currently alive."
)
_CHUNK_SECONDS = obs.histogram(
    "repro_cluster_chunk_seconds",
    "Dispatch-to-completion wall time of cluster chunks.",
)

#: How many worker deaths one chunk may survive before its run fails
#: (guards against a poison chunk that crashes every worker it lands on).
MAX_CHUNK_RETRIES = 3


class ClusterError(RuntimeError):
    """The cluster could not complete a sweep (no workers, retries spent)."""


@dataclasses.dataclass
class WorkerInfo:
    """Snapshot of one registered worker, as reported by ``status``."""

    id: str
    name: str
    pid: int
    slots: int
    alive: bool
    connected_at: float
    last_seen: float
    inflight_chunks: int
    chunks_done: int
    jobs_done: int
    #: Jobs currently dispatched to the worker (in-flight chunks).
    inflight_jobs: int = 0

    def to_dict(self) -> Dict[str, Any]:
        return dataclasses.asdict(self)


class _Run:
    """One :meth:`Coordinator.run` call: results, progress, completion."""

    _ids = itertools.count(1)

    def __init__(
        self,
        jobs: Sequence[Job],
        progress: Optional[ProgressCallback],
        chunksize: int,
        trace: Optional[str] = None,
        batch_fn: Optional[protocol.BatchFn] = None,
    ):
        self.id = f"run-{next(self._ids)}"
        self.jobs: List[Job] = list(jobs)
        self.total = len(self.jobs)
        self.chunksize = max(1, int(chunksize))
        #: The sweep's vectorised evaluator, shipped with every chunk so a
        #: worker runs the chunk in one call (``None``: job by job).
        self.batch_fn = batch_fn
        #: Observability id of the originating request; stamped on every
        #: chunk frame and event this run produces (``None`` = untraced).
        self.trace = trace
        self.results: List[Any] = [None] * self.total
        self.remaining = self.total
        self.progress = progress
        #: Frame-limit cap on this run's chunk sizes, learned when a cut
        #: has to be refitted (halved).  Per-run: the limit is a property
        #: of this run's job payload size, so one fat-job sweep must not
        #: cap a later tiny-job sweep on the same coordinator.
        self.max_chunk_jobs: Optional[int] = None
        self.future: "asyncio.Future[List[Any]]" = asyncio.get_running_loop().create_future()

    @property
    def done(self) -> bool:
        return self.future.done()

    def fail(self, error: BaseException) -> None:
        if not self.future.done():
            self.future.set_exception(error)

    def complete_chunk(self, chunk: "_Chunk", results: List[Any]) -> None:
        if self.done:
            return
        for index, value in zip(chunk.indices, results):
            self.results[index] = value
        self.remaining -= len(results)
        if results and self.progress is not None:
            # Label by index, not chunk.jobs[-1]: the property would copy
            # the whole job slice per tick.
            self.progress(
                self.total - self.remaining, self.total, self.jobs[chunk.stop - 1].name
            )
        if self.remaining == 0:
            self.future.set_result(self.results)


class _Span:
    """A contiguous, undispatched slice ``[start, stop)`` of one run's jobs.

    The queue holds spans, not chunks: the chunk a worker actually receives
    is cut from the front span at dispatch time.  ``attempts`` counts the
    worker deaths its jobs have already been through.
    """

    __slots__ = ("run", "start", "stop", "attempts")

    def __init__(self, run: _Run, start: int, stop: int, attempts: int = 0):
        self.run = run
        self.start = start
        self.stop = stop
        self.attempts = attempts

    def __len__(self) -> int:
        return self.stop - self.start


class _Chunk:
    """A dispatched slice of one run's jobs, in flight on one worker."""

    __slots__ = ("run", "id", "start", "stop", "attempts", "dispatched_at")

    def __init__(self, run: _Run, chunk_id: str, start: int, stop: int, attempts: int):
        self.run = run
        self.id = chunk_id
        self.start = start
        self.stop = stop
        self.attempts = attempts
        self.dispatched_at = 0.0

    def __len__(self) -> int:
        return self.stop - self.start

    @property
    def jobs(self) -> List[Job]:
        return self.run.jobs[self.start : self.stop]

    @property
    def indices(self) -> range:
        return range(self.start, self.stop)


class _WorkerLink:
    """Coordinator-side state of one connected worker."""

    def __init__(
        self,
        worker_id: str,
        name: str,
        pid: int,
        slots: int,
        writer: asyncio.StreamWriter,
    ):
        self.id = worker_id
        self.name = name
        self.pid = pid
        self.slots = max(1, slots)
        self.writer = writer
        self.alive = True
        self.connected_at = time.time()
        self.last_seen = time.time()
        self.inflight: Dict[str, _Chunk] = {}
        self.chunks_done = 0
        self.jobs_done = 0
        self._send_lock = asyncio.Lock()

    def inflight_jobs(self) -> int:
        return sum(len(chunk) for chunk in self.inflight.values())

    async def send(self, message: Dict[str, Any]) -> bool:
        """Write one message; ``False`` once the peer is gone."""
        return await self.send_bytes(wire.encode_message(message))

    async def send_bytes(self, data: bytes) -> bool:
        """Write one pre-encoded frame; ``False`` once the peer is gone."""
        if not self.alive:
            return False
        async with self._send_lock:
            if not self.alive:
                return False
            try:
                self.writer.write(data)
                await self.writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                return False
        return True

    def info(self) -> WorkerInfo:
        return WorkerInfo(
            id=self.id,
            name=self.name,
            pid=self.pid,
            slots=self.slots,
            alive=self.alive,
            connected_at=self.connected_at,
            last_seen=self.last_seen,
            inflight_chunks=len(self.inflight),
            chunks_done=self.chunks_done,
            jobs_done=self.jobs_done,
            inflight_jobs=self.inflight_jobs(),
        )


class Coordinator:
    """Shard sweeps across long-lived worker processes over TCP.

    Parameters
    ----------
    host, port:
        Bind address of the cluster endpoint; ``port=0`` picks a free port
        (see :attr:`address` after :meth:`start`).  Workers *and* control
        clients (``python -m repro cluster status``) connect here.
    heartbeat_interval:
        Interval workers are told to beacon at.
    heartbeat_timeout:
        Silence threshold after which a worker is declared dead and its
        chunks are put back on the queue.
    worker_wait_timeout:
        How long queued work may wait with *no* alive worker before the
        owning runs fail (covers workers that never start, e.g. a typo'd
        ``--connect`` address).  The reaper checks it once per
        ``heartbeat_interval``.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        heartbeat_interval: float = 1.0,
        heartbeat_timeout: float = 5.0,
        worker_wait_timeout: float = 30.0,
    ):
        if heartbeat_interval <= 0 or heartbeat_timeout <= 0:
            raise ValueError("heartbeat interval/timeout must be positive")
        if heartbeat_timeout <= heartbeat_interval:
            raise ValueError("heartbeat_timeout must exceed heartbeat_interval")
        self._host = host
        self._port = port
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = heartbeat_timeout
        self.worker_wait_timeout = worker_wait_timeout
        self._links: Dict[str, _WorkerLink] = {}
        #: The one cluster-wide FIFO of undispatched work.
        self._queue: Deque[_Span] = deque()
        #: When queued work began waiting with no alive worker (``None``:
        #: not stalled); armed and disarmed by :meth:`_check_stall`.
        self._stalled_since: Optional[float] = None
        self._runs: Dict[str, _Run] = {}
        self._server: Optional[asyncio.AbstractServer] = None
        self._tasks: List["asyncio.Task"] = []
        self._kick = asyncio.Event()
        self._worker_ids = itertools.count(1)
        self._chunk_ids = itertools.count(1)
        self._code_version = code_version()
        self._stopping = False
        self._connection_tasks: "Dict[asyncio.Task, asyncio.StreamWriter]" = {}
        # Per-instance view over process-wide registry counters: ``status``
        # reports this coordinator's own counts (zero at birth) while the
        # Prometheus endpoint scrapes the process-lifetime totals.
        self.stats = obs.CounterGroup(
            {
                key: obs.counter(f"repro_cluster_{key}_total", help_text)
                for key, help_text in _STAT_HELP.items()
            }
        )
    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """``(host, port)`` actually bound; valid after :meth:`start`."""
        return self._host, self._port

    async def start(self) -> Tuple[str, int]:
        """Bind the cluster endpoint; returns the bound ``(host, port)``."""
        if self._server is not None:
            return self.address
        self._server = await asyncio.start_server(
            self._handle_connection,
            self._host,
            self._port,
            limit=wire.MAX_MESSAGE_BYTES,
        )
        self._port = self._server.sockets[0].getsockname()[1]
        self._tasks.append(asyncio.ensure_future(self._scheduler_loop()))
        self._tasks.append(asyncio.ensure_future(self._reaper_loop()))
        return self.address

    async def stop(self) -> None:
        """Shut down: tell workers to exit, fail pending runs, close up."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for link in list(self._links.values()):
            if link.alive:
                await link.send(protocol.shutdown_event())
                link.alive = False
                try:
                    link.writer.close()
                except (ConnectionError, OSError):
                    pass
        for run in list(self._runs.values()):
            run.fail(ClusterError("coordinator stopped"))
        self._runs.clear()
        # Connection handlers outlive the closed server; finish them here so
        # none is left pending when the event loop closes.  Closing their
        # transports ends their read loops, so they return normally:
        # asyncio logs a traceback for a handler task that ends cancelled.
        handlers = list(self._connection_tasks.items())
        for _, writer in handlers:
            writer.close()
        if handlers:
            _, stuck = await asyncio.wait(
                [task for task, _ in handlers], timeout=self.heartbeat_timeout
            )
            for task in stuck:
                task.cancel()
            await asyncio.gather(*stuck, return_exceptions=True)
        self._connection_tasks.clear()
        for task in self._tasks:
            task.cancel()
        await asyncio.gather(*self._tasks, return_exceptions=True)
        self._tasks.clear()

    # ------------------------------------------------------------------
    # Submitting work
    # ------------------------------------------------------------------
    def worker_count(self) -> int:
        """Number of currently alive, registered workers."""
        return sum(1 for link in self._links.values() if link.alive)

    def total_slots(self) -> int:
        """Aggregate chunk slots across alive workers."""
        return sum(link.slots for link in self._links.values() if link.alive)

    async def run(
        self,
        jobs: Sequence[Job],
        chunksize: int,
        progress: Optional[ProgressCallback] = None,
        cancel_event: Optional[CancelEvent] = None,
        trace: Optional[str] = None,
        batch_fn: Optional[protocol.BatchFn] = None,
    ) -> List[Any]:
        """Execute ``jobs`` across the cluster; results in submission order.

        ``chunksize`` is the number of jobs per dispatched chunk.  A
        ``batch_fn`` rides every chunk frame of the run, and workers run
        each chunk through it in one call.

        ``progress`` fires on the coordinator's event loop as chunks
        complete, reporting ``(jobs done, jobs total, last job label)`` —
        callers bridging to other threads must pass a thread-safe callback
        (the distributed executor and the service broadcaster both do).

        ``cancel_event`` (a :class:`threading.Event`, settable from any
        thread) enables cooperative cancellation: a watcher polls it and,
        once set, revokes the run's queued spans, tells workers to drop
        its in-flight chunks (``cancel`` events) and fails the run with
        :class:`~repro.runtime.SweepCancelled`.

        ``trace`` is the originating request's observability id; it rides
        every chunk frame of this run (protocol v3, optional field) and is
        echoed back on ``chunk_done``, so metrics and ``watch`` events stay
        attributable end to end.
        """
        jobs = list(jobs)
        if not jobs:
            return []
        run = _Run(jobs, progress, chunksize, trace=trace, batch_fn=batch_fn)
        self._runs[run.id] = run
        self.stats.inc("runs")
        self._queue.append(_Span(run, 0, run.total))
        self._kick.set()
        watcher: Optional["asyncio.Task"] = None
        if cancel_event is not None:
            watcher = asyncio.ensure_future(self._watch_cancel(run, cancel_event))
        try:
            return await run.future
        finally:
            if watcher is not None:
                watcher.cancel()
                await asyncio.gather(watcher, return_exceptions=True)
            self._runs.pop(run.id, None)
            self._drop_run_chunks(run)

    async def _watch_cancel(self, run: _Run, cancel_event: CancelEvent) -> None:
        """Poll ``cancel_event``; revoke the run's work once it fires."""
        while not run.done:
            if cancel_event.is_set():
                await self.cancel_run(run)
                return
            await asyncio.sleep(min(0.05, self.heartbeat_interval))

    async def cancel_run(self, run: _Run) -> None:
        """Abort one run: revoke queued spans, drop in-flight chunks.

        The run's queued spans are purged;
        every worker holding an in-flight chunk of this run receives a
        ``cancel`` event and stops at its next job boundary.  The run's
        future fails with :class:`~repro.runtime.SweepCancelled`, which
        propagates to the submitting call site.
        """
        if run.done:
            return
        self.stats.inc("runs_cancelled")
        self._drop_run_chunks(run)
        for link in self._alive_links():
            doomed = [
                chunk_id
                for chunk_id, chunk in link.inflight.items()
                if chunk.run is run
            ]
            for chunk_id in doomed:
                link.inflight.pop(chunk_id, None)
                self.stats.inc("chunks_cancelled")
                await link.send(protocol.cancel_event(chunk_id))
        run.fail(SweepCancelled(f"run {run.id} cancelled"))
        self._kick.set()

    # ------------------------------------------------------------------
    # Scheduling: one cluster-wide FIFO of spans, pulled by free slots
    # ------------------------------------------------------------------
    def _alive_links(self) -> List[_WorkerLink]:
        return [link for link in self._links.values() if link.alive]

    def _next_chunk(self) -> Optional[_Chunk]:
        """Cut the next chunk off the front span (``None``: queue empty)."""
        while self._queue:
            span = self._queue[0]
            if span.run.done:
                self._queue.popleft()
                continue  # run already failed/finished; drop silently
            take = min(len(span), span.run.chunksize)
            if span.run.max_chunk_jobs is not None:
                # Frame-limit cap learned from a previous refit: never
                # re-cut (and re-pay the over-limit encode for) a chunk
                # size that already failed to fit one frame.
                take = max(1, min(take, span.run.max_chunk_jobs))
            chunk = _Chunk(
                span.run,
                f"{span.run.id}/c{next(self._chunk_ids)}",
                span.start,
                span.start + take,
                span.attempts,
            )
            span.start += take
            if not len(span):
                self._queue.popleft()
            return chunk
        return None

    async def _pump(self, link: _WorkerLink) -> None:
        """Top the worker up to its slot count with dispatchable chunks."""
        while link.alive and len(link.inflight) < link.slots:
            chunk = self._next_chunk()
            if chunk is None:
                return
            try:
                frame = wire.encode_message(
                    protocol.chunk_event(
                        chunk.id, chunk.jobs, trace=chunk.run.trace, batch_fn=chunk.run.batch_fn
                    )
                )
            except Exception as error:
                if isinstance(error, wire.ProtocolError) and len(chunk) > 1:
                    # The chunk — not any single job — overflows the frame
                    # limit (a chunksize can be set too big for fat jobs).
                    # Halve and requeue: O(log) retries converge on a
                    # dispatchable size or on single jobs.  Any other
                    # encode error (an unpicklable job or batch_fn) fails
                    # every size alike, so it fails the run at once below.
                    run, middle = chunk.run, (chunk.start + chunk.stop) // 2
                    half = len(chunk) // 2
                    if run.max_chunk_jobs is None or half < run.max_chunk_jobs:
                        run.max_chunk_jobs = half
                    self.stats.inc("chunks_refitted")
                    self._queue.appendleft(_Span(run, middle, chunk.stop, chunk.attempts))
                    self._queue.appendleft(_Span(run, chunk.start, middle, chunk.attempts))
                    continue
                # A chunk that cannot be dispatched (unpicklable, or one
                # job alone over the frame limit): that is the *sweep's*
                # failure, not the worker's — fail the run and keep the
                # scheduler alive.
                chunk.run.fail(
                    ClusterError(
                        f"cannot dispatch chunk {chunk.id}: {error} "
                        "(unpicklable job or batch_fn, or job too large for one frame)"
                    )
                )
                continue
            chunk.dispatched_at = time.monotonic()
            link.inflight[chunk.id] = chunk
            self.stats.inc("chunks_dispatched")
            obs.EVENTS.emit(
                "chunk_dispatched",
                trace=chunk.run.trace,
                worker=link.id,
                chunk=chunk.id,
                jobs=len(chunk),
            )
            if not await link.send_bytes(frame):
                self._on_worker_death(link)
                return

    async def _scheduler_loop(self) -> None:
        while True:
            await self._kick.wait()
            self._kick.clear()
            try:
                for link in self._alive_links():
                    await self._pump(link)
            except asyncio.CancelledError:
                raise
            except Exception:
                # A scheduling bug must degrade to a retry on the next kick,
                # never to a dead scheduler silently freezing every run.
                self.stats.inc("scheduler_errors")
                self._kick.set()
                await asyncio.sleep(self.heartbeat_interval)

    async def _reaper_loop(self) -> None:
        """Declare silent workers dead; time out work no worker can take."""
        while True:
            await asyncio.sleep(self.heartbeat_interval)
            now = time.time()
            for link in self._alive_links():
                if now - link.last_seen > self.heartbeat_timeout:
                    try:
                        link.writer.close()
                    except (ConnectionError, OSError):
                        pass
                    self._on_worker_death(link)
            self._check_stall(now)

    def _check_stall(self, now: float) -> None:
        """Run the stall clock while work is queued and no worker is alive.

        A worker joining disarms it; once it has run past
        ``worker_wait_timeout`` every queued run fails.
        """
        if not self._queue or self._alive_links():
            self._stalled_since = None
        elif self._stalled_since is None:
            self._stalled_since = now
        elif now - self._stalled_since > self.worker_wait_timeout:
            failed = {span.run for span in self._queue}
            self._queue.clear()
            self._stalled_since = None
            for run in failed:
                run.fail(
                    ClusterError(
                        "no workers joined within "
                        f"{self.worker_wait_timeout:.0f} s; sweep abandoned"
                    )
                )

    def _on_worker_death(self, link: _WorkerLink) -> None:
        """Put a dead worker's in-flight chunks back on the queue's front.

        Only those chunks ran on the worker, so only they count an attempt.
        """
        if not link.alive:
            return
        link.alive = False
        self.stats.inc("workers_lost")
        _WORKERS_ALIVE.dec()
        obs.EVENTS.emit(
            "worker_lost",
            worker=link.id,
            name=link.name,
            stranded_chunks=len(link.inflight),
        )
        stranded = list(link.inflight.values())
        link.inflight.clear()
        # Reversed, so the earliest-dispatched chunk ends up in front.
        for chunk in reversed(stranded):
            if chunk.run.done:
                continue
            attempts = chunk.attempts + 1
            if attempts > MAX_CHUNK_RETRIES:
                chunk.run.fail(
                    ClusterError(
                        f"work [{chunk.start}:{chunk.stop}) of {chunk.run.id} lost "
                        f"{attempts} workers (retry limit {MAX_CHUNK_RETRIES}); "
                        "sweep abandoned"
                    )
                )
                continue
            self.stats.inc("chunks_retried")
            self._queue.appendleft(_Span(chunk.run, chunk.start, chunk.stop, attempts))
        self._kick.set()

    def _drop_run_chunks(self, run: _Run) -> None:
        """Purge a finished/failed run's spans from the queue."""
        self._queue = deque(span for span in self._queue if span.run is not run)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        link: Optional[_WorkerLink] = None
        task = asyncio.current_task()
        self._connection_tasks[task] = writer
        try:
            while True:
                try:
                    message = await wire.read_message(reader)
                except wire.ProtocolError as error:
                    await self._send_raw(writer, protocol.error_event(str(error)))
                    break
                except (ConnectionError, OSError):
                    break
                if message is None:
                    break
                op = message.get("op")
                if link is None and op == "hello":
                    link = await self._handle_hello(message, writer)
                    if link is None:
                        break
                elif op == "heartbeat":
                    if link is not None and link.alive:
                        link.last_seen = time.time()
                elif op == "chunk_done" and link is not None:
                    link.last_seen = time.time()
                    self._handle_chunk_done(link, message)
                elif op == "chunk_failed" and link is not None:
                    link.last_seen = time.time()
                    self._handle_chunk_failed(link, message)
                elif op == "status":
                    await self._send_raw(writer, self.status_event(message.get("id")))
                elif op == "ping":
                    await self._send_raw(writer, {"event": "pong", "id": message.get("id")})
                else:
                    await self._send_raw(
                        writer, protocol.error_event(f"unexpected op {op!r}")
                    )
        finally:
            self._connection_tasks.pop(task, None)
            if link is not None:
                self._on_worker_death(link)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    @staticmethod
    async def _send_raw(writer: asyncio.StreamWriter, message: Dict[str, Any]) -> None:
        try:
            writer.write(wire.encode_message(message))
            await writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            pass

    async def _handle_hello(
        self, message: Dict[str, Any], writer: asyncio.StreamWriter
    ) -> Optional[_WorkerLink]:
        if message.get("protocol") != protocol.CLUSTER_PROTOCOL_VERSION:
            await self._send_raw(
                writer,
                protocol.error_event(
                    f"cluster protocol mismatch: coordinator speaks "
                    f"{protocol.CLUSTER_PROTOCOL_VERSION}, worker {message.get('protocol')!r}"
                ),
            )
            return None
        worker_version = message.get("code_version")
        if worker_version != self._code_version:
            # Mixed-version clusters would silently break bit-identical
            # results (and the content-addressed cache keys): refuse.
            await self._send_raw(
                writer,
                protocol.error_event(
                    f"code version mismatch: coordinator {self._code_version}, "
                    f"worker {worker_version}"
                ),
            )
            return None
        slots, pid = message.get("slots"), message.get("pid")
        if not (type(slots) is int and slots >= 1 and type(pid) is int and pid >= 0):
            await self._send_raw(
                writer,
                protocol.error_event(
                    f"malformed hello: slots must be an integer >= 1 and pid an "
                    f"integer >= 0, got slots={slots!r:.40}, pid={pid!r:.40}"
                ),
            )
            return None
        worker_id = f"w{next(self._worker_ids)}"
        link = _WorkerLink(
            worker_id,
            name=str(message.get("name", worker_id)),
            pid=pid,
            slots=slots,
            writer=writer,
        )
        self._links[worker_id] = link
        _WORKERS_ALIVE.inc()
        obs.EVENTS.emit(
            "worker_joined", worker=worker_id, name=link.name, slots=link.slots
        )
        await link.send(protocol.welcome_event(worker_id, self.heartbeat_interval))
        self._kick.set()  # a fresh worker immediately pulls queued work
        return link

    def _handle_chunk_done(self, link: _WorkerLink, message: Dict[str, Any]) -> None:
        chunk = link.inflight.pop(str(message.get("chunk")), None)
        if chunk is None:
            # Completion for a chunk this worker no longer owns (it was
            # presumed dead and the chunk reassigned).  Results are
            # deterministic, so dropping the duplicate is safe.
            self.stats.inc("duplicate_results")
            return
        seconds = time.monotonic() - chunk.dispatched_at
        try:
            results = protocol.chunk_done_results(message)
        except wire.ProtocolError as error:
            chunk.run.fail(ClusterError(f"undecodable results for {chunk.id}: {error}"))
            return
        if len(results) != len(chunk):
            chunk.run.fail(
                ClusterError(
                    f"chunk {chunk.id} returned {len(results)} results "
                    f"for {len(chunk)} jobs"
                )
            )
            return
        _CHUNK_SECONDS.observe(seconds)
        link.chunks_done += 1
        link.jobs_done += len(results)
        self.stats.inc("chunks_completed")
        self.stats.inc("jobs_done", len(results))
        obs.EVENTS.emit(
            "chunk_done",
            # Prefer the worker's echoed trace: its presence proves the id
            # crossed the wire both ways, not just coordinator bookkeeping.
            trace=message.get("trace") or chunk.run.trace,
            worker=link.id,
            chunk=chunk.id,
            jobs=len(results),
            seconds=seconds,
        )
        chunk.run.complete_chunk(chunk, results)
        self._kick.set()

    def _handle_chunk_failed(self, link: _WorkerLink, message: Dict[str, Any]) -> None:
        chunk = link.inflight.pop(str(message.get("chunk")), None)
        if chunk is None:
            self.stats.inc("duplicate_results")
            return
        chunk.run.fail(protocol.chunk_failed_error(message))
        self._kick.set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def status_event(self, request_id: Any = None) -> Dict[str, Any]:
        """The ``status`` reply document (also used by ``cluster status``)."""
        import repro

        return {
            "event": "status",
            "id": request_id,
            "protocol": protocol.CLUSTER_PROTOCOL_VERSION,
            "version": repro.__version__,
            "code_version": self._code_version,
            "address": list(self.address),
            "workers": [link.info().to_dict() for link in self._links.values()],
            "alive_workers": self.worker_count(),
            "total_slots": self.total_slots(),
            "runs_in_flight": len(self._runs),
            "queued_jobs": sum(len(span) for span in self._queue),
            "stats": dict(self.stats),
            "heartbeat_interval": self.heartbeat_interval,
            "heartbeat_timeout": self.heartbeat_timeout,
        }
