"""Work units of the sweep-execution engine.

Every driver workload in the repository — characterisation sweeps,
design-space corner grids, PVT sensitivity scans, Monte-Carlo batches, DNN
table evaluations — decomposes into independent, deterministic work units.
A :class:`Job` captures one such unit as a picklable callable plus its
arguments, so any executor (serial, vectorised batch, cluster worker) can
run it and every executor produces bit-identical results.

Jobs are *content-addressed*: :func:`fingerprint` reduces the job's inputs
(technology card, sweep plan, operating conditions, multiplier configuration,
code version, ...) to a stable SHA-256 digest that is identical across
processes and Python invocations.  The digest keys the on-disk artifact cache
(:mod:`repro.runtime.cache`), which is what makes warm re-runs of expensive
sweeps near-instant.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np


_CODE_VERSION: Optional[str] = None


def code_version() -> str:
    """Version string folded into every job fingerprint.

    Combines :data:`repro.__version__` with a digest of the package's Python
    sources, so *any* code change — not just a version bump — invalidates
    every cached artifact.  A cache can therefore never serve sweeps
    computed by older model physics.  The digest is computed once per
    process and is identical across processes running the same tree.
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import pathlib

        import repro

        digest = hashlib.sha256()
        package_root = pathlib.Path(repro.__file__).resolve().parent
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(path.read_bytes())
        _CODE_VERSION = f"{repro.__version__}+{digest.hexdigest()[:16]}"
    return _CODE_VERSION


def _canonical(value: Any) -> Any:
    """Reduce ``value`` to a canonical, JSON-serialisable structure.

    The mapping is injective enough for cache keys: two values that canonise
    identically produce identical sweep results.  Unknown types raise so an
    unstable ``repr`` can never leak into a fingerprint silently.
    """
    if value is None or isinstance(value, (bool, int, str)):
        return value
    if isinstance(value, float):
        # repr() round-trips doubles exactly and is stable across platforms;
        # float() first strips numpy float subclasses whose repr differs.
        return ["f", repr(float(value))]
    if isinstance(value, enum.Enum):
        return ["enum", type(value).__name__, value.name]
    if isinstance(value, np.ndarray):
        data = np.ascontiguousarray(value)
        return [
            "ndarray",
            data.dtype.str,
            list(data.shape),
            hashlib.sha256(data.tobytes()).hexdigest(),
        ]
    if isinstance(value, np.generic):
        return _canonical(value.item())
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        fields = [
            [field.name, _canonical(getattr(value, field.name))]
            for field in dataclasses.fields(value)
        ]
        return ["dataclass", type(value).__name__, fields]
    if isinstance(value, dict):
        # Keys are canonicalised like any other value (NOT stringified):
        # ``{1: x}`` and ``{"1": x}`` are distinct inputs and must not
        # collide in the fingerprint.  Mixed key types sort by their JSON
        # canonical form, which is deterministic across processes.
        items = sorted(
            ([_canonical(key), _canonical(item)] for key, item in value.items()),
            key=lambda pair: json.dumps(pair[0], sort_keys=True, separators=(",", ":")),
        )
        return ["dict", items]
    if isinstance(value, (list, tuple)):
        return ["seq", [_canonical(item) for item in value]]
    if isinstance(value, (set, frozenset)):
        return ["set", sorted(json.dumps(_canonical(item)) for item in value)]
    if callable(value):
        return ["fn", getattr(value, "__module__", "?"), getattr(value, "__qualname__", repr(value))]
    if hasattr(value, "to_dict"):
        return ["obj", type(value).__name__, _canonical(value.to_dict())]
    raise TypeError(f"cannot fingerprint value of type {type(value).__name__}")


def fingerprint(*parts: Any) -> str:
    """Stable SHA-256 content hash of arbitrarily nested sweep inputs.

    The hash is identical across processes and interpreter runs (it never
    relies on ``hash()`` / ``id()`` / ``repr`` of objects), which the cache
    tests assert by recomputing keys in a subprocess.
    """
    canonical = _canonical(list(parts))
    payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def job_key(kind: str, *parts: Any) -> str:
    """Cache key of one job: kind tag + code version + content fingerprint."""
    return fingerprint(kind, code_version(), *parts)


@dataclasses.dataclass
class Job:
    """One independently executable, deterministic unit of sweep work.

    Attributes
    ----------
    fn:
        Module-level callable (must be picklable for the distributed
        executor).  Given identical arguments it must return identical
        results — that determinism is what lets auto, serial and
        distributed engines produce bit-identical sweeps.
    args, kwargs:
        Arguments passed to ``fn``.
    name:
        Display name surfaced through progress callbacks.
    key:
        Content-address of the job (from :func:`job_key`); ``None`` marks
        the job as uncacheable.  A keyed job's result is stored in the
        artifact cache as it is, so it must be a value
        :func:`repro.wire.pack_values` carries, and not ``None``.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = dataclasses.field(default_factory=dict)
    name: str = ""
    key: Optional[str] = None

    def run(self) -> Any:
        """Execute the job in the current process."""
        return self.fn(*self.args, **self.kwargs)


@dataclasses.dataclass
class SweepSpec:
    """A named collection of jobs submitted to the engine as one sweep.

    Attributes
    ----------
    name:
        Sweep label used in progress reporting and engine statistics.
    jobs:
        The work units; the engine returns their results in this order
        regardless of executor scheduling.
    batch_fn:
        Optional vectorised evaluator: given a sequence of jobs it returns
        their results in order, amortising shared setup across the batch.
        Every executor but ``serial`` calls it: the auto engine per group
        (through :class:`~repro.runtime.executors.BatchExecutor`), the
        distributed executor once per chunk in the worker process.  Like a job's
        ``fn`` it must therefore be a module-level (picklable) callable.
    """

    name: str
    jobs: List[Job]
    batch_fn: Optional[Callable[[Sequence[Job]], List[Any]]] = None
