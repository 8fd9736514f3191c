"""repro.runtime — parallel sweep execution with content-addressed caching.

Every heavyweight driver in the repository (reference characterisation, the
48-corner design-space exploration, PVT / Monte-Carlo batches, DNN table
evaluations) submits its work to one front door, the :class:`SweepEngine`:

* workloads are decomposed into deterministic :class:`~repro.runtime.jobs.Job`
  units with stable content hashes (:mod:`repro.runtime.jobs`),
* execution strategy is pluggable — serial, process-pool parallel with
  configurable chunking, vectorised batches (:mod:`repro.runtime.executors`)
  or the cluster-backed ``distributed`` strategy (:mod:`repro.cluster`,
  long-lived worker processes on any host) — and every strategy produces
  bit-identical results,
* results of keyed jobs are persisted as content-addressed artifacts, one
  :mod:`repro.wire` value frame each (:mod:`repro.runtime.cache`);
  ``ArtifactCache(max_bytes=...)`` additionally LRU-evicts cold artifacts
  so the cache stays size-bounded,
* the unified CLI (``python -m repro run dse|pvt|characterize|tables``)
  routes every paper figure / table through the engine
  (:mod:`repro.runtime.cli`), and ``python -m repro serve`` exposes the
  same engine to many concurrent network clients (:mod:`repro.service`).

Typical use::

    from repro.runtime import ArtifactCache, ParallelExecutor, SweepEngine

    engine = SweepEngine(ParallelExecutor(max_workers=8), cache=ArtifactCache())
    result = explore_design_space(suite, engine=engine)   # 48 corners, parallel
    data = characterize(technology, engine=engine)        # warm cache: instant

Long-lived serving (see :mod:`repro.service` for the protocol)::

    engine = SweepEngine(cache=ArtifactCache(max_bytes=2_000_000_000))
    service = SweepService(engine, port=7463)     # asyncio TCP front door
    await service.serve_forever()                 # single-flight + streaming

Progress callbacks always see the *true* sweep size: cache hits count as
completed work, so a warm re-run still reports ``total`` ticks instead of
going dark.

Sweeps are **cooperatively cancellable**: ``SweepEngine.run(...,
cancel_event=threading.Event())`` (or an engine-level default) makes every
executor stop at the next job / chunk boundary and raise
:class:`SweepCancelled` once the event is set — the mechanism behind the
service's wire-level ``cancel`` and disconnect-implies-cancel semantics
(see ``docs/architecture.md``).
"""

from __future__ import annotations

import dataclasses
import threading
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro import obs
from repro.runtime.cache import ArtifactCache, CacheStats, default_cache_dir
from repro.runtime.executors import (
    BatchExecutor,
    CancelEvent,
    ParallelExecutor,
    ProgressCallback,
    SerialExecutor,
    SweepCancelled,
    make_executor,
)
from repro.runtime.jobs import Job, SweepSpec, code_version, fingerprint, job_key

__all__ = [
    "ArtifactCache",
    "BatchExecutor",
    "CacheStats",
    "CancelEvent",
    "EngineStats",
    "Job",
    "ParallelExecutor",
    "ProgressCallback",
    "SerialExecutor",
    "SweepCancelled",
    "SweepEngine",
    "SweepSpec",
    "code_version",
    "default_cache_dir",
    "default_engine",
    "fingerprint",
    "job_key",
    "make_executor",
]


# Process-wide mirrors of the per-instance EngineStats counters, so the
# Prometheus endpoint sees every engine in the process with no polling.
_SWEEPS_TOTAL = obs.counter("repro_engine_sweeps_total", "Sweeps started.")
_JOBS_SUBMITTED = obs.counter("repro_engine_jobs_submitted_total", "Jobs submitted to engines.")
_JOBS_EXECUTED = obs.counter("repro_engine_jobs_executed_total", "Jobs actually executed (cache misses).")
_CACHE_HITS = obs.counter("repro_engine_cache_hits_total", "Jobs served from the artifact cache.")
_RUN_SECONDS = obs.histogram("repro_engine_run_seconds", "Wall time of completed engine runs.")

#: Jobs per vectorised batch when the engine auto-selects the batch
#: strategy for a ``batch_fn``-carrying spec.  Large enough to amortise
#: per-pass Python overhead across a Monte-Carlo / corner-grid group,
#: small enough that cooperative cancellation still lands within a
#: reasonable boundary.
AUTO_BATCH_SIZE = 64


@dataclasses.dataclass
class EngineStats:
    """Aggregate counters of one :class:`SweepEngine` instance."""

    sweeps: int = 0
    jobs_submitted: int = 0
    jobs_executed: int = 0
    cache_hits: int = 0

    def describe(self) -> str:
        """Short human-readable counter summary."""
        return (
            f"{self.sweeps} sweeps, {self.jobs_submitted} jobs submitted, "
            f"{self.jobs_executed} executed, {self.cache_hits} served from cache"
        )


class SweepEngine:
    """Unified front door for sweep execution.

    Parameters
    ----------
    executor:
        Execution strategy.  Any object with the executor ``execute``
        contract works — the registry names (:func:`make_executor`) are
        ``serial``, ``parallel``, ``batch`` and ``distributed``.  When left
        ``None`` the engine runs in **auto** mode: sweeps whose spec
        carries a vectorised ``batch_fn`` execute through the batch
        strategy (the whole-chunk NumPy hot path), everything else runs
        serially — numerically identical either way, since every strategy
        is bit-identical by contract.  An explicitly passed executor always
        wins: the engine then never second-guesses the caller's strategy.
    cache:
        Optional :class:`ArtifactCache`.  Jobs that carry a content hash
        (``key``) are served from the cache when possible and their results
        stored after execution; jobs without one always execute.
    progress:
        Default progress callback used by :meth:`run` when the caller does
        not pass one (the CLI installs its progress line here).
    cancel_event:
        Default cooperative-cancellation event used by :meth:`run` when the
        caller does not pass one.  Setting it makes the *next* ``run`` (and
        any run currently executing through this engine) raise
        :class:`SweepCancelled` at the next job / chunk boundary.  The
        serving tier gives every single-flighted request its own engine view
        with a per-flight event here, so a cancelled request aborts without
        touching unrelated sweeps.

    Raises
    ------
    SweepCancelled
        From :meth:`run` / :meth:`run_one` when the effective
        cancel event is set before the sweep completes.  No partial results
        are returned and nothing is written to the cache.

    Examples
    --------
    >>> engine = SweepEngine()
    >>> jobs = [Job(fn=lambda a, b: a + b, args=pair) for pair in [(1, 2), (3, 4)]]
    >>> engine.run(SweepSpec("add", jobs))
    [3, 7]
    >>> engine.stats.sweeps, engine.stats.jobs_executed
    (1, 2)
    """

    def __init__(
        self,
        executor: Optional[Any] = None,
        cache: Optional[ArtifactCache] = None,
        progress: Optional[ProgressCallback] = None,
        cancel_event: Optional[CancelEvent] = None,
    ):
        self.executor = executor if executor is not None else SerialExecutor()
        # Auto-select (engine constructed without an explicit strategy):
        # specs carrying a batch_fn take the vectorised batch strategy.
        self._auto_batch = executor is None
        self.cache = cache
        self.progress = progress
        self.cancel_event = cancel_event
        # Trace id of the originating request (set per engine view by the
        # serving tier); stamped on every observability event this run
        # emits and forwarded to trace-aware executors.
        self.trace_id: Optional[str] = None
        self.stats = EngineStats()
        # Counter updates are read-modify-write; the serving layer runs
        # sweeps from several worker threads against shallow engine copies
        # that share this lock (and the stats object), so fleet-wide
        # counters stay exact under concurrency.
        self._stats_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        work: Union[SweepSpec, Sequence[Job]],
        progress: Optional[ProgressCallback] = None,
        cancel_event: Optional[CancelEvent] = None,
    ) -> List[Any]:
        """Execute a sweep and return the job results in submission order.

        Cacheable jobs are resolved against the artifact cache first; only
        the misses are handed to the executor, each distinct key once, and
        their results are stored back so the next run of the same sweep is
        near-instant.

        ``cancel_event`` (or the engine-level :attr:`cancel_event` default)
        enables cooperative cancellation: once set, the run raises
        :class:`SweepCancelled` at the next job / chunk boundary — during
        cache resolution, between executed jobs, or (for the distributed
        executor) after the coordinator revokes the outstanding chunks.  A
        cancelled run stores nothing in the cache.
        """
        spec = work if isinstance(work, SweepSpec) else SweepSpec("sweep", list(work))
        progress = progress if progress is not None else self.progress
        cancel = cancel_event if cancel_event is not None else self.cancel_event
        trace = self.trace_id
        started = time.monotonic()
        with self._stats_lock:
            self.stats.sweeps += 1
            self.stats.jobs_submitted += len(spec.jobs)
        _SWEEPS_TOTAL.inc()
        _JOBS_SUBMITTED.inc(len(spec.jobs))
        obs.EVENTS.emit("run_started", trace=trace, sweep=spec.name, jobs=len(spec.jobs))

        # Progress is always reported against the true sweep size: cache
        # hits count as completed work, so a warm run still emits events
        # and a mixed run never jumps from a smaller executed-only total.
        # A repeated missing key is executed once; each repeat
        # (``duplicates``: index -> index of its executed twin) takes the
        # twin's result after the executor returns.
        total = len(spec.jobs)
        results: List[Any] = [None] * len(spec.jobs)
        pending: List[Tuple[int, Job]] = []
        first_miss: Dict[str, int] = {}
        duplicates: Dict[int, int] = {}
        hits = 0
        for index, job in enumerate(spec.jobs):
            if cancel is not None and cancel.is_set():
                raise SweepCancelled(f"sweep {spec.name!r} cancelled during cache resolution")
            if self.cache is not None and job.key is not None:
                if job.key in first_miss:
                    duplicates[index] = first_miss[job.key]
                    continue
                value = self.cache.get(job.key)
                if value is not None:
                    results[index] = value
                    with self._stats_lock:
                        self.stats.cache_hits += 1
                    _CACHE_HITS.inc()
                    hits += 1
                    if progress is not None:
                        progress(hits, total, f"{job.name or 'job'} (cached)")
                    continue
                first_miss[job.key] = index
            pending.append((index, job))

        obs.EVENTS.emit(
            "cache_resolved", trace=trace, sweep=spec.name, hits=hits, pending=len(pending)
        )
        if pending:
            pending_jobs = [job for _, job in pending]
            executor_progress = None
            if progress is not None:
                offset = hits

                def executor_progress(done: int, _executed_total: int, label: str) -> None:
                    progress(offset + done, total, label)

            # Optional keywords are only forwarded when armed, so
            # third-party executors that predate the cancel / trace
            # contracts keep working for every plain run.
            extra = {}
            if cancel is not None:
                extra["cancel"] = cancel
            if trace is not None:
                extra["trace"] = trace
            executor = self.executor
            if self._auto_batch and spec.batch_fn is not None:
                # Auto mode: a sweep that brought its vectorised inner
                # loop runs through the batch strategy by default —
                # whole groups of jobs per NumPy pass instead of one
                # Python call per job.  Bit-identical by the executor
                # contract (the differential property suite enforces it).
                executor = BatchExecutor(batch_size=AUTO_BATCH_SIZE)
            executed = executor.execute(
                pending_jobs,
                progress=executor_progress,
                batch_fn=spec.batch_fn,
                **extra,
            )
            with self._stats_lock:
                self.stats.jobs_executed += len(pending_jobs)
            _JOBS_EXECUTED.inc(len(pending_jobs))
            for (index, job), value in zip(pending, executed):
                results[index] = value
                if self.cache is not None and job.key is not None:
                    self.cache.put(job.key, value)
        for done, (index, twin) in enumerate(duplicates.items(), start=hits + len(pending) + 1):
            results[index] = results[twin]
            if progress is not None:
                progress(done, total, f"{spec.jobs[index].name or 'job'} (duplicate)")
        elapsed = time.monotonic() - started
        _RUN_SECONDS.observe(elapsed)
        obs.EVENTS.emit(
            "run_finished",
            trace=trace,
            sweep=spec.name,
            jobs=total,
            executed=len(pending),
            seconds=elapsed,
        )
        return results

    def run_one(self, job: Job) -> Any:
        """Execute a single job through the engine (cache included)."""
        return self.run(SweepSpec(job.name or "job", [job]))[0]

    def describe(self) -> str:
        """Human-readable engine summary (executor, cache, counters)."""
        executor_name = getattr(self.executor, "name", type(self.executor).__name__)
        cache_part = self.cache.describe() if self.cache is not None else "no cache"
        return f"SweepEngine[{executor_name}] — {self.stats.describe()} — {cache_part}"


def default_engine(
    executor: Optional[str] = None,
    cache_dir: Optional[Any] = None,
    use_cache: bool = False,
    **executor_kwargs: Any,
) -> SweepEngine:
    """Build an engine from CLI-style options.

    ``executor=None`` (the default) builds an **auto** engine: sweeps
    carrying a ``batch_fn`` run through the vectorised batch strategy,
    everything else serially.  Passing a registry name pins the strategy.
    ``use_cache=True`` attaches an :class:`ArtifactCache` rooted at
    ``cache_dir`` (or the :func:`default_cache_dir`).
    """
    cache = ArtifactCache(cache_dir) if use_cache else None
    if executor is None:
        if executor_kwargs:
            raise ValueError(
                f"executor options {sorted(executor_kwargs)} need an explicit executor"
            )
        return SweepEngine(cache=cache)
    return SweepEngine(make_executor(executor, **executor_kwargs), cache=cache)
