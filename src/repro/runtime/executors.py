"""Pluggable sweep executors.

Every strategy runs the same list of :class:`~repro.runtime.jobs.Job`
objects and is required to produce bit-identical, order-preserving results:

* :class:`SerialExecutor` — runs jobs inline; the reference behaviour every
  other executor must match.
* :class:`BatchExecutor` — groups jobs and hands whole groups to a sweep's
  vectorised ``batch_fn`` (when provided), amortising shared setup across a
  corner-grid batch; without a ``batch_fn`` it degrades to a chunked serial
  loop.  It is not a registry name: the auto engine (a
  :class:`repro.runtime.SweepEngine` built with no executor) runs every
  ``batch_fn`` sweep through it, and every in-process fallback keeps a
  sweep's ``batch_fn`` through it.

The one multi-process strategy lives one layer up and registers here by
name: ``make_executor("distributed", workers=..., connect=...)`` builds a
:class:`repro.cluster.DistributedExecutor`, which shards chunks across
long-lived worker *processes* (local subprocesses and/or workers on other
hosts) with heartbeats, pull dispatch and retry-on-worker-death — same
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

import threading
from typing import Any, Callable, List, Optional, Sequence

from repro.runtime.jobs import Job

# progress callbacks receive (jobs done, jobs total, label of the last unit)
ProgressCallback = Callable[[int, int, str], None]

# cooperative cancellation: executors poll this between work units / chunks
CancelEvent = threading.Event

#: Jobs per vectorised batch of :class:`BatchExecutor` (the auto engine's
#: and every in-process fallback's batch size), and the cap on a batch
#: sweep's chunk on the cluster.  Large enough to amortise per-pass Python
#: overhead across a Monte-Carlo / corner-grid group, small enough that
#: cooperative cancellation still lands within a reasonable boundary.
AUTO_BATCH_SIZE = 64


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


def run_batch(
    batch_fn: Callable[[Sequence[Job]], List[Any]], jobs: Sequence[Job]
) -> List[Any]:
    """``batch_fn(jobs)`` as a list, checked to hold one result per job.

    The one place a ``batch_fn`` is called: :class:`BatchExecutor` and
    cluster workers both run a batch chunk through here.
    """
    results = list(batch_fn(jobs))
    if len(results) != len(jobs):
        raise RuntimeError(f"batch_fn returned {len(results)} results for {len(jobs)} jobs")
    return results


def default_chunksize(job_count: int, slots: int, batched: bool) -> int:
    """Jobs per cluster chunk without an explicit chunksize.

    A sweep with a ``batch_fn`` (``batched``) gets one chunk per slot,
    capped at :data:`AUTO_BATCH_SIZE` so cancellation lands as often as
    under the in-process auto engine: each chunk is one vectorised call, so
    fewer, larger chunks mean fewer fixed-cost passes.  Any other sweep
    gets about four chunks per slot, which balances dispatch overhead
    against load imbalance on heterogeneous grids.

    >>> default_chunksize(8, 1, batched=True), default_chunksize(3, 2, batched=True)
    (8, 2)
    >>> default_chunksize(1000, 2, batched=True), default_chunksize(40, 2, batched=False)
    (64, 5)
    """
    slots = max(1, slots)
    if batched:
        return max(1, min(AUTO_BATCH_SIZE, -(-job_count // slots)))
    return max(1, job_count // (4 * slots))


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

    The cluster falls back to running jobs locally (nothing to
    parallelise, no cluster workers) through here: a sweep that carries a
    ``batch_fn`` keeps its whole-chunk NumPy inner loop via
    :class:`BatchExecutor` — so sandboxed hosts still get the vectorised
    hot path — and only batch-less sweeps drop to the per-job serial loop.
    """
    if batch_fn is not None:
        return BatchExecutor().execute(jobs, progress, batch_fn=batch_fn, cancel=cancel)
    return SerialExecutor().execute(jobs, progress, cancel=cancel)


class BatchExecutor:
    """Grouped executor for vectorisable corner grids.

    Jobs are split into groups of ``batch_size`` and each group is handed to
    the sweep's ``batch_fn`` in one call, letting the sweep amortise shared
    setup (model tables, operating-condition objects) across the whole
    batch.  A sweep without a ``batch_fn`` runs through :class:`SerialExecutor`.
    """

    name = "batch"

    def __init__(self, batch_size: int = AUTO_BATCH_SIZE):
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
        if batch_fn is None:
            return SerialExecutor().execute(jobs, progress, cancel=cancel)
        results: List[Any] = []
        total = len(jobs)
        for batch in _chunked(jobs, self.batch_size):
            _check_cancel(cancel, "between batches")
            results.extend(run_batch(batch_fn, batch))
            _notify(progress, len(results), total, batch[-1].name)
        return results


def _make_distributed(**kwargs: Any):
    # Imported lazily: repro.runtime stays free of any cluster (and hence
    # asyncio/socket) machinery unless the distributed strategy is chosen.
    from repro.cluster.executor import DistributedExecutor

    return DistributedExecutor(**kwargs)


_EXECUTOR_SPECS = {
    "serial": (SerialExecutor, frozenset()),
    "distributed": (
        _make_distributed,
        frozenset(
            {
                "workers",
                "connect",
                "chunksize",
                "heartbeat_interval",
                "heartbeat_timeout",
                "start_timeout",
            }
        ),
    ),
}


def make_executor(name: str, **kwargs: Any):
    """Build an executor by CLI name (``serial``/``distributed``).

    Parameters
    ----------
    name:
        Registered strategy name.  ``serial`` takes no options;
        ``distributed`` accepts ``workers`` / ``connect`` / ``chunksize`` /
        ``heartbeat_interval`` / ``heartbeat_timeout`` / ``start_timeout`` (see :class:`repro.cluster.DistributedExecutor`).
        The auto engine is not a name: build ``SweepEngine()`` with no
        executor.
    **kwargs:
        Options forwarded to the strategy's constructor.  ``None``-valued
        options mean "not set" (so CLI defaults can always be forwarded).

    Raises
    ------
    ValueError
        For an unknown strategy name, for an option the chosen executor
        does not understand (``make_executor("serial", workers=8)`` raises
        instead of silently ignoring the flag), and for invalid values
        (``workers=-1``, ``chunksize=0``), which propagate the
        constructor's ``ValueError`` instead of being coerced to a default.

    Examples
    --------
    >>> make_executor("serial", workers=None).name  # None = not set
    'serial'
    >>> make_executor("serial", workers=8)
    Traceback (most recent call last):
        ...
    ValueError: executor 'serial' does not accept workers (it accepts no options)
    >>> make_executor("parallel")
    Traceback (most recent call last):
        ...
    ValueError: unknown executor 'parallel'; choose from ['distributed', 'serial']
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
