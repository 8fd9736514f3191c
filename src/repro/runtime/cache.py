"""Content-addressed on-disk artifact cache.

Expensive sweep results (reference-simulator characterisation tables,
design-space corner evaluations, trained DNN states) are stored as
artifacts addressed by the SHA-256 content hash of everything that
determines them: the sweep plan, the technology card, the operating
conditions and the code version (see :func:`repro.runtime.jobs.job_key`).
A warm re-run of a sweep therefore never touches the reference solver — it
decodes the artifact and returns.

An artifact file is one :mod:`repro.wire` binary frame: a JSON header line
``{"values": skeleton, "arrays": specs, "binary": N}`` followed by ``N``
payload bytes, written by :func:`repro.wire.pack_values` and read back by
:func:`repro.wire.unpack_values` — the frame a cluster ``chunk_done``
carries, minus its op fields.  Any value that codec carries can be cached
as it is, with no per-job encoder.

Robustness properties the tests assert:

* **hash stability** — keys are reproducible across processes, so a cache
  written by one run is valid for every later one;
* **invalidation** — any change to the technology card, the plan, the
  operating conditions or :data:`repro.__version__` changes the key, so
  stale artifacts are never served;
* **corrupt-artifact recovery** — an unreadable or undecodable artifact
  is treated as a miss and deleted, never as an error;
* **atomic writes** — artifacts are written to a temporary file and
  ``os.replace``-d into place, so a crashed run cannot leave a truncated
  artifact under a live key.  Temporary files orphaned by a crashed
  ``put`` still occupy disk, so :meth:`ArtifactCache.size_bytes` counts
  them and :meth:`ArtifactCache.clear` / :meth:`ArtifactCache.evict`
  sweep them.  So do the ``.npz`` artifacts (and their tmp files) that
  older builds wrote: they are never read again;
* **size-bounded LRU eviction** — a cache built with ``max_bytes`` evicts
  least-recently-used artifacts whenever a ``put`` pushes it over the
  limit (never the artifact just written).  Recency is tracked through
  the filesystem: every ``get`` hit bumps the artifact's timestamps via
  ``os.utime``, so eviction order survives process restarts and needs no
  sidecar index.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import tempfile
import threading
import time
from typing import Any, Iterator, List, Optional, Sequence, Union

from repro import obs, wire

# Process-wide mirrors of the per-instance CacheStats counters (one label
# per accounting event), plus the footprint gauge: `status`, `cache info`
# and the Prometheus endpoint all read the same accounting.
_CACHE_EVENTS = obs.counter(
    "repro_cache_events_total",
    "Artifact-cache accounting events (hit/miss/write/corrupt/evict).",
    labels=("event",),
)
_CACHE_SIZE = obs.gauge(
    "repro_cache_size_bytes",
    "Last measured on-disk footprint of the artifact cache.",
)

#: Artifact file suffix; a write goes to a ``.frame.tmp`` file first.
_SUFFIX = ".frame"

#: Files of the ``.npz`` format older builds wrote: never read, but
#: counted by size_bytes() and removed by clear() and evict().
_LEGACY_PATTERNS = ("*/*.npz", "*/*.npz.tmp")

# A tmp file this old cannot belong to an in-flight put(); evict() treats it
# as garbage from a crashed writer.  clear() sweeps tmp files regardless.
_STALE_TMP_SECONDS = 3600.0

PathLike = Union[str, pathlib.Path]


def default_cache_dir() -> pathlib.Path:
    """Cache root: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-optima``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro-optima"


@dataclasses.dataclass
class CacheStats:
    """Hit / miss counters of one :class:`ArtifactCache` instance."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    corrupt_dropped: int = 0
    evictions: int = 0

    def describe(self) -> str:
        """Short human-readable counter summary."""
        return (
            f"{self.hits} hits, {self.misses} misses, {self.writes} writes, "
            f"{self.corrupt_dropped} corrupt artifacts dropped, "
            f"{self.evictions} evicted"
        )


class ArtifactCache:
    """Content-addressed artifact store.

    Parameters
    ----------
    root:
        Cache directory; defaults to :func:`default_cache_dir`.  Artifacts
        are sharded into two-character subdirectories by key prefix so the
        directory stays navigable at scale.
    max_bytes:
        Optional size bound.  When set, every :meth:`put` that pushes the
        on-disk footprint over the limit evicts least-recently-used
        artifacts (never the one just written) until the cache fits;
        :meth:`evict` applies the same policy on demand.

    Raises
    ------
    ValueError
        For a negative ``max_bytes``, or (from :meth:`path_for` /
        :meth:`get` / :meth:`put`) for keys that are not lowercase hex
        digests, or (from :meth:`put`) for a ``None`` value, which
        :meth:`get` could not tell from a miss.
    repro.wire.ProtocolError
        From :meth:`put`, for a value :func:`repro.wire.pack_values`
        cannot carry.

    Examples
    --------
    >>> import tempfile
    >>> import numpy as np
    >>> cache = ArtifactCache(tempfile.mkdtemp())
    >>> key = "ab" * 32                       # content hash from job_key()
    >>> path = cache.put(key, {"x": np.arange(3), "label": "toy"})
    >>> value = cache.get(key)
    >>> value["x"].tolist(), value["label"]
    ([0, 1, 2], 'toy')
    >>> len(cache), cache.stats.hits
    (1, 1)
    >>> cache.get("cd" * 32) is None          # miss
    True
    """

    def __init__(self, root: Optional[PathLike] = None, max_bytes: Optional[int] = None):
        if max_bytes is not None and max_bytes < 0:
            raise ValueError("max_bytes must be non-negative")
        self.root = pathlib.Path(root) if root is not None else default_cache_dir()
        self.max_bytes = max_bytes
        self.stats = CacheStats()
        # Guards counter updates and the footprint estimate: the serving
        # layer drives one cache from several worker threads.
        self._lock = threading.Lock()
        # Running footprint estimate so a put() below the limit never has
        # to rescan the whole store.  Seeded from disk on first use; other
        # writer processes are invisible to it, which only delays (never
        # prevents) an eviction pass — evict() always measures exactly.
        self._size_estimate: Optional[int] = None

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def path_for(self, key: str) -> pathlib.Path:
        """On-disk location of the artifact for ``key``."""
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ValueError(f"cache keys must be lowercase hex digests, got {key!r}")
        return self.root / key[:2] / f"{key}{_SUFFIX}"

    def has(self, key: str) -> bool:
        """Whether an artifact (possibly corrupt) exists for ``key``."""
        return self.path_for(key).exists()

    # ------------------------------------------------------------------
    # Read / write
    # ------------------------------------------------------------------
    def get(self, key: str) -> Any:
        """Load the value stored under ``key``; ``None`` on a miss.

        A file that cannot be read or decoded — bad header JSON, a payload
        shorter or longer than declared, a malformed skeleton or array spec,
        a class the codec refuses — counts as a corrupt miss and is deleted
        so the next ``put`` rebuilds it from scratch; it never raises.
        """
        path = self.path_for(key)
        if not path.exists():
            with self._lock:
                self.stats.misses += 1
            _CACHE_EVENTS.inc(event="miss")
            obs.EVENTS.emit("cache_miss", key=key)
            return None
        try:
            frame = wire.decode_binary(path.read_bytes())
            value = wire.unpack_values(
                frame.get("values"), frame.get("arrays"), frame[wire.PAYLOAD_KEY]
            )
            if value is None:
                raise wire.ProtocolError("artifact holds no value")
        except (OSError, wire.ProtocolError):
            with self._lock:
                self.stats.corrupt_dropped += 1
                self.stats.misses += 1
            _CACHE_EVENTS.inc(event="corrupt")
            _CACHE_EVENTS.inc(event="miss")
            obs.EVENTS.emit("cache_miss", key=key, corrupt=True)
            try:
                path.unlink()
            except OSError:
                pass
            return None
        with self._lock:
            self.stats.hits += 1
        _CACHE_EVENTS.inc(event="hit")
        obs.EVENTS.emit("cache_hit", key=key)
        try:
            # Bump the timestamps so LRU eviction sees this artifact as
            # recently used even on filesystems mounted noatime.
            os.utime(path)
        except OSError:
            pass
        return value

    def put(self, key: str, value: Any) -> pathlib.Path:
        """Atomically store ``value`` under ``key`` and return its path.

        With ``max_bytes`` configured, a write that pushes the cache over
        the limit triggers LRU eviction; the artifact just written is
        always protected from it.
        """
        path = self.path_for(key)
        if value is None:
            raise ValueError("None cannot be cached: get() returns None for a miss")
        skeleton, specs, payload = wire.pack_values(value)
        frame = wire.encode_binary({"values": skeleton, "arrays": specs}, payload)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=f"{_SUFFIX}.tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(frame)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise
        over_limit = False
        try:
            written = path.stat().st_size
        except OSError:
            written = 0
        with self._lock:
            self.stats.writes += 1
            if self.max_bytes is not None:
                if self._size_estimate is None:
                    self._size_estimate = self.size_bytes()
                else:
                    self._size_estimate += written
                over_limit = self._size_estimate > self.max_bytes
                _CACHE_SIZE.set(self._size_estimate)
        _CACHE_EVENTS.inc(event="write")
        obs.EVENTS.emit("cache_write", key=key, bytes=written)
        if over_limit:
            self.evict(protect=(key,))
        return path

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _paths(self, *patterns: str) -> List[pathlib.Path]:
        if not self.root.exists():
            return []
        return sorted(path for pattern in patterns for path in self.root.glob(pattern))

    def _artifact_paths(self) -> List[pathlib.Path]:
        return self._paths(f"*/*{_SUFFIX}")

    def _tmp_paths(self) -> List[pathlib.Path]:
        """Temporary files orphaned by a ``put`` that crashed mid-write."""
        return self._paths(f"*/*{_SUFFIX}.tmp")

    def _legacy_paths(self) -> List[pathlib.Path]:
        """``.npz`` artifacts and tmp files an older build left behind."""
        return self._paths(*_LEGACY_PATTERNS)

    def keys(self) -> Iterator[str]:
        """Iterate over every stored artifact key."""
        for path in self._artifact_paths():
            yield path.stem

    def __len__(self) -> int:
        return sum(1 for _ in self.keys())

    def size_bytes(self) -> int:
        """Total on-disk footprint in bytes, stray tmp and legacy files included."""
        total = 0
        for path in self._artifact_paths() + self._tmp_paths() + self._legacy_paths():
            try:
                total += path.stat().st_size
            except OSError:
                pass  # deleted concurrently
        return total

    def clear(self) -> int:
        """Delete every artifact, stray tmp and legacy file; returns files removed."""
        removed = 0
        for path in self._artifact_paths() + self._tmp_paths() + self._legacy_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        with self._lock:
            self._size_estimate = 0
        _CACHE_SIZE.set(0)
        return removed

    def evict(
        self,
        max_bytes: Optional[int] = None,
        protect: Sequence[str] = (),
    ) -> int:
        """Evict least-recently-used artifacts until the cache fits.

        Parameters
        ----------
        max_bytes:
            Size bound to enforce; defaults to the cache's configured
            ``max_bytes``.  Raises :class:`ValueError` when neither is set.
        protect:
            Keys that must survive this pass whatever their recency —
            ``put`` uses it so eviction never drops the artifact just
            written.

        Returns the number of files removed.  Legacy ``.npz`` files (and
        their tmp files) and stale tmp files (older than one hour, i.e.
        certainly not an in-flight write) are swept first; artifacts are
        then removed oldest-first, where age is the newest of
        ``st_atime`` / ``st_mtime`` (every cache hit bumps both).
        """
        limit = self.max_bytes if max_bytes is None else max_bytes
        if limit is None:
            raise ValueError("evict() needs max_bytes (argument or constructor)")
        removed = 0
        stale_before = time.time() - _STALE_TMP_SECONDS
        legacy = set(self._legacy_paths())
        for stray in sorted(legacy) + self._tmp_paths():
            try:
                # Legacy files are never read again; a fresh tmp file may
                # belong to an in-flight put().
                if stray in legacy or stray.stat().st_mtime < stale_before:
                    stray.unlink()
                    removed += 1
            except OSError:
                pass
        entries = []
        for path in self._artifact_paths():
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((max(stat.st_atime, stat.st_mtime), stat.st_size, path))
        total = sum(size for _, size, _ in entries)
        protected = {self.path_for(key) for key in protect}
        for _, size, path in sorted(entries, key=lambda entry: (entry[0], entry[2])):
            if total <= limit:
                break
            if path in protected:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            removed += 1
            with self._lock:
                self.stats.evictions += 1
            _CACHE_EVENTS.inc(event="evict")
            obs.EVENTS.emit("cache_evict", key=path.stem, bytes=size)
        with self._lock:
            self._size_estimate = total
        _CACHE_SIZE.set(total)
        return removed

    def describe(self) -> str:
        """Human-readable cache summary used by ``python -m repro cache info``."""
        count = len(self)
        limit = "unbounded" if self.max_bytes is None else f"limit {self.max_bytes / 1e6:.2f} MB"
        return (
            f"artifact cache at {self.root}: {count} artifacts, "
            f"{self.size_bytes() / 1e6:.2f} MB, {limit} ({self.stats.describe()})"
        )
