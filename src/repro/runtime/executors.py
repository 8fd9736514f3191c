"""Pluggable sweep executors.

Three strategies run the same list of :class:`~repro.runtime.jobs.Job`
objects and are required to produce bit-identical, order-preserving results:

* :class:`SerialExecutor` — runs jobs inline; the reference behaviour every
  other executor must match and the default of :class:`repro.runtime.SweepEngine`.
* :class:`ParallelExecutor` — fans jobs out over a
  :class:`concurrent.futures.ProcessPoolExecutor` with configurable
  chunking; chunks keep the pickling overhead per job low on fine-grained
  grids.  Falls back to in-process execution when the pool cannot be
  created (single-CPU hosts, sandboxed environments) or when there is
  nothing to parallelise — still through the sweep's ``batch_fn`` when it
  has one, so degraded hosts keep the vectorised inner loop.
* :class:`BatchExecutor` — groups jobs and hands whole groups to a sweep's
  vectorised ``batch_fn`` (when provided), amortising shared setup across a
  corner-grid batch; without a ``batch_fn`` it degrades to a chunked serial
  loop.

A fourth strategy lives one layer up and registers here by name:
``make_executor("distributed", workers=..., connect=...)`` builds a
:class:`repro.cluster.DistributedExecutor`, which shards chunks across
long-lived worker *processes* (local subprocesses and/or workers on other
hosts) with heartbeats, work stealing and retry-on-worker-death — same
contract, same bit-identical results.

Executors never reorder results: job ``i``'s result is always at index
``i``, whatever completes first.

Every strategy also honours **cooperative cancellation**: ``execute``
accepts an optional ``cancel`` :class:`threading.Event` and raises
:class:`SweepCancelled` at the next job / chunk / batch boundary once it is
set.  Work that is already running finishes (blocking solver calls cannot
be interrupted), but nothing further starts — this is what lets the serving
tier abort a sweep whose every client disconnected without burning CPU to
the end (see :mod:`repro.service`).

``execute`` also accepts an optional ``trace`` id (the observability
layer's cross-tier request id, see :mod:`repro.obs`).  The in-process
strategies run where the engine already emitted the trace-stamped events,
so they accept and ignore it; the distributed strategy forwards it into
every chunk frame so worker-side completions stay attributable.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, as_completed
from typing import Any, Callable, List, Optional, Sequence

from repro.runtime.jobs import Job

# progress callbacks receive (jobs done, jobs total, label of the last unit)
ProgressCallback = Callable[[int, int, str], None]

# cooperative cancellation: executors poll this between work units / chunks
CancelEvent = threading.Event


class SweepCancelled(RuntimeError):
    """The sweep was cooperatively cancelled before it completed.

    Raised by every executor when the ``cancel`` event passed to
    :meth:`execute` is set.  Cancellation is *cooperative*: a work unit that
    is already running finishes (a blocking solver call cannot be interrupted
    mid-flight), but no further unit starts — the guarantee is "stops within
    one chunk boundary", not "stops instantly".  Partial results are
    discarded; nothing is written to the artifact cache for a cancelled
    sweep.
    """


def _check_cancel(cancel: Optional[CancelEvent], context: str) -> None:
    if cancel is not None and cancel.is_set():
        raise SweepCancelled(f"sweep cancelled {context}")


def _notify(progress: Optional[ProgressCallback], done: int, total: int, label: str) -> None:
    if progress is not None:
        progress(done, total, label)


def _run_chunk(jobs: Sequence[Job]) -> List[Any]:
    """Run a chunk of jobs in the current process (process-pool task body)."""
    return [job.run() for job in jobs]


def _chunked(jobs: Sequence[Job], size: int) -> List[List[Job]]:
    size = max(1, int(size))
    return [list(jobs[start : start + size]) for start in range(0, len(jobs), size)]


class SerialExecutor:
    """Run every job inline, in submission order.

    The reference executor: every other strategy must produce the same
    results in the same order.  ``cancel`` is checked before each job, so a
    cancelled sweep stops within one job boundary.
    """

    name = "serial"

    def execute(
        self,
        jobs: Sequence[Job],
        progress: Optional[ProgressCallback] = None,
        batch_fn: Optional[Callable[[Sequence[Job]], List[Any]]] = None,
        cancel: Optional[CancelEvent] = None,
        trace: Optional[str] = None,
    ) -> List[Any]:
        results: List[Any] = []
        total = len(jobs)
        for index, job in enumerate(jobs):
            _check_cancel(cancel, f"before job {index}/{total}")
            results.append(job.run())
            _notify(progress, index + 1, total, job.name)
        return results


def _serial_fallback(
    jobs: Sequence[Job],
    progress: Optional[ProgressCallback],
    batch_fn: Optional[Callable[[Sequence[Job]], List[Any]]],
    cancel: Optional[CancelEvent],
) -> List[Any]:
    """Degrade to in-process execution without losing the vectorised path.

    Every executor that falls back to running jobs locally (nothing to
    parallelise, pool creation failed, no cluster workers) routes through
    here: a sweep that carries a ``batch_fn`` keeps its whole-chunk NumPy
    inner loop via :class:`BatchExecutor` — so sandboxed single-core hosts
    still get the vectorised hot path — and only batch-less sweeps drop to
    the per-job serial loop.
    """
    if batch_fn is not None:
        return BatchExecutor().execute(jobs, progress, batch_fn=batch_fn, cancel=cancel)
    return SerialExecutor().execute(jobs, progress, cancel=cancel)


class ParallelExecutor:
    """Process-pool executor with configurable chunking.

    Parameters
    ----------
    max_workers:
        Worker process count; defaults to the host CPU count.
    chunksize:
        Jobs per pool task.  The default splits the sweep into roughly four
        chunks per worker, which balances scheduling overhead against load
        imbalance on heterogeneous grids.
    """

    name = "parallel"

    def __init__(self, max_workers: Optional[int] = None, chunksize: Optional[int] = None):
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        if chunksize is not None and chunksize < 1:
            raise ValueError("chunksize must be at least 1")
        self.max_workers = max_workers or os.cpu_count() or 1
        self.chunksize = chunksize

    def _default_chunksize(self, job_count: int) -> int:
        return max(1, job_count // (4 * self.max_workers))

    def execute(
        self,
        jobs: Sequence[Job],
        progress: Optional[ProgressCallback] = None,
        batch_fn: Optional[Callable[[Sequence[Job]], List[Any]]] = None,
        cancel: Optional[CancelEvent] = None,
        trace: Optional[str] = None,
    ) -> List[Any]:
        _check_cancel(cancel, "before dispatch")
        if len(jobs) <= 1 or self.max_workers <= 1:
            return _serial_fallback(jobs, progress, batch_fn, cancel)
        chunksize = self.chunksize or self._default_chunksize(len(jobs))
        chunks = _chunked(jobs, chunksize)
        try:
            pool = ProcessPoolExecutor(max_workers=min(self.max_workers, len(chunks)))
        except (OSError, ValueError, PermissionError):
            # Sandboxes without working semaphores / fork land here; the
            # sweep still completes, just without the parallel speedup.
            return _serial_fallback(jobs, progress, batch_fn, cancel)
        results: List[Any] = [None] * len(jobs)
        total = len(jobs)
        done = 0
        try:
            futures = {pool.submit(_run_chunk, chunk): index for index, chunk in enumerate(chunks)}
            for future in as_completed(futures):
                # Checked between completed chunks: a cancelled sweep stops
                # collecting, revokes the not-yet-started chunks and raises.
                if cancel is not None and cancel.is_set():
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise SweepCancelled("sweep cancelled between parallel chunks")
                chunk_index = futures[future]
                chunk = chunks[chunk_index]
                chunk_results = future.result()
                offset = chunk_index * chunksize
                for position, value in enumerate(chunk_results):
                    results[offset + position] = value
                done += len(chunk)
                _notify(progress, done, total, chunk[-1].name)
        except BrokenExecutor:
            # Pool construction succeeded but the workers could not start
            # (process limits, seccomp sandboxes): degrade to serial, same
            # as when the pool cannot be created at all.
            pool.shutdown()
            return _serial_fallback(jobs, progress, batch_fn, cancel)
        finally:
            pool.shutdown()
        return results


class BatchExecutor:
    """Grouped executor for vectorisable corner grids.

    Jobs are split into groups of ``batch_size`` and each group is handed to
    the sweep's ``batch_fn`` in one call, letting the sweep amortise shared
    setup (model tables, operating-condition objects) across the whole
    batch.  A sweep without a ``batch_fn`` runs as a chunked serial loop.
    """

    name = "batch"

    def __init__(self, batch_size: int = 8):
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self.batch_size = batch_size

    def execute(
        self,
        jobs: Sequence[Job],
        progress: Optional[ProgressCallback] = None,
        batch_fn: Optional[Callable[[Sequence[Job]], List[Any]]] = None,
        cancel: Optional[CancelEvent] = None,
        trace: Optional[str] = None,
    ) -> List[Any]:
        evaluate = batch_fn if batch_fn is not None else _run_chunk
        results: List[Any] = []
        total = len(jobs)
        for batch in _chunked(jobs, self.batch_size):
            _check_cancel(cancel, "between batches")
            batch_results = list(evaluate(batch))
            if len(batch_results) != len(batch):
                raise RuntimeError(
                    f"batch_fn returned {len(batch_results)} results for {len(batch)} jobs"
                )
            results.extend(batch_results)
            _notify(progress, len(results), total, batch[-1].name)
        return results


def _make_distributed(**kwargs: Any):
    # Imported lazily: repro.runtime stays free of any cluster (and hence
    # asyncio/socket) machinery unless the distributed strategy is chosen.
    from repro.cluster.executor import DistributedExecutor

    return DistributedExecutor(**kwargs)


_EXECUTOR_SPECS = {
    "serial": (SerialExecutor, frozenset()),
    "parallel": (ParallelExecutor, frozenset({"max_workers", "chunksize"})),
    "batch": (BatchExecutor, frozenset({"batch_size"})),
    "distributed": (
        _make_distributed,
        frozenset(
            {
                "workers",
                "connect",
                "chunksize",
                "min_workers",
                "heartbeat_interval",
                "heartbeat_timeout",
                "start_timeout",
            }
        ),
    ),
}


def make_executor(name: str, **kwargs: Any):
    """Build an executor by CLI name (``serial``/``parallel``/``batch``/``distributed``).

    Parameters
    ----------
    name:
        Registered strategy name.  ``serial`` takes no options; ``parallel``
        accepts ``max_workers`` / ``chunksize``; ``batch`` accepts
        ``batch_size``; ``distributed`` accepts ``workers`` / ``connect`` /
        ``chunksize`` / ``min_workers`` / ``heartbeat_interval`` /
        ``heartbeat_timeout`` / ``start_timeout`` (see
        :class:`repro.cluster.DistributedExecutor`).
    **kwargs:
        Options forwarded to the strategy's constructor.  ``None``-valued
        options mean "not set" (so CLI defaults can always be forwarded).

    Raises
    ------
    ValueError
        For an unknown strategy name, for an option the chosen executor
        does not understand (``make_executor("serial", max_workers=8)``
        raises instead of silently ignoring the flag), and for invalid
        values (``batch_size=0``, ``max_workers=0``), which propagate the
        constructor's ``ValueError`` instead of being coerced to a default.

    Examples
    --------
    >>> make_executor("serial").name
    'serial'
    >>> make_executor("parallel", max_workers=2).max_workers
    2
    >>> make_executor("batch", batch_size=None).batch_size  # None = default
    8
    >>> make_executor("serial", max_workers=8)
    Traceback (most recent call last):
        ...
    ValueError: executor 'serial' does not accept max_workers (it accepts no options)
    """
    try:
        factory, accepted = _EXECUTOR_SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; choose from {sorted(_EXECUTOR_SPECS)}"
        ) from None
    options = {key: value for key, value in kwargs.items() if value is not None}
    rejected = sorted(set(options) - accepted)
    if rejected:
        accepts = ", ".join(sorted(accepted)) if accepted else "no options"
        raise ValueError(
            f"executor {name!r} does not accept {', '.join(rejected)} "
            f"(it accepts {accepts})"
        )
    return factory(**options)
