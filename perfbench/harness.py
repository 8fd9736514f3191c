"""Shared pieces of the benchmark: statistics, process probes, the result.

Every workload module builds a :class:`Run`, records operations, checks
and samples into it, and hands it back to ``run.py``, which prints the
metrics by name with their units.  Nothing here imports :mod:`repro`, so
``run.py`` can refuse to start before touching the package.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time
from typing import Any, Callable, Dict, List, Sequence

import numpy as np

#: Thread-pool variables a BLAS or OpenMP runtime reads; recorded when set,
#: never set by the benchmark (the program runs with its own defaults).
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)

#: Fewest samples any reported median or percentile is taken over.
MIN_SAMPLES = 10
#: Fresh interpreters timed for an in-process workload's ``setup_s``.
SETUP_REPEATS = MIN_SAMPLES

_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    """Median of ``values`` (``0.0`` when there are none)."""
    return float(statistics.median(values)) if values else 0.0


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with ``q`` of the data at
    or below it.  No interpolation, so a percentile never reports a value
    between two clusters of a multi-modal latency mix."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return float(ordered[rank - 1])


# ----------------------------------------------------------------------
# Process probes
# ----------------------------------------------------------------------
def self_cpu_seconds() -> float:
    """User + system CPU of this process, all threads included."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def self_peak_rss_mb() -> float:
    """Peak resident set size of this process in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_cpu_seconds(pid: int) -> float:
    """User + system CPU of process ``pid`` from ``/proc`` (0 once gone)."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # Fields after the command name start at field 3 (state); utime and
    # stime are fields 14 and 15.
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS


def steal_seconds() -> float:
    """CPU time the hypervisor gave to other guests, summed over all CPUs
    since boot (``/proc/stat``); a run's delta shows an oversubscribed host."""
    try:
        with open("/proc/stat") as handle:
            fields = handle.readline().split()
    except OSError:
        return 0.0
    return int(fields[8]) / _CLOCK_TICKS if len(fields) > 8 else 0.0


def host_speed() -> float:
    """Median host speed over nine probes (see :class:`Timed`)."""
    return median([probe_s() / PROBE_REF_S for _ in range(9)])


# ----------------------------------------------------------------------
# Timing at the reference host speed
# ----------------------------------------------------------------------
#: Wall time of one :func:`probe_s` on a host running at reference speed
#: (the median on the 2-core host the bounds were set on).
PROBE_REF_S = 1.75e-3

_PROBE_MATRIX = np.linspace(0.0, 1.0, 48 * 48).reshape(48, 48)
_PROBE_VECTOR = np.linspace(0.0, 1.0, 2000)


def probe_s() -> float:
    """Wall time of a fixed reference workload, about 1.75 ms.

    The mix -- an integer loop, dict updates, small NumPy array and matrix
    operations -- resembles the interpreter-bound code of the program but
    calls none of it, so a change to the program never moves the probe.
    """
    started = time.perf_counter()
    total = 0
    for i in range(6000):
        total += i * i
    counts: Dict[int, int] = {}
    for i in range(1500):
        counts[i % 97] = counts.get(i % 97, 0) + i
    for _ in range(40):
        _PROBE_MATRIX @ _PROBE_MATRIX
        (np.exp(-_PROBE_VECTOR) * _PROBE_VECTOR).sum()
    return time.perf_counter() - started


def _probe_median() -> float:
    """Median of three probes: the first probe after an idle wait (a child
    process, a network reply) often runs slow and is outvoted."""
    return median([probe_s() for _ in range(3)])


class Timed:
    """Times a block and scales it to the reference host speed.

    ::

        with Timed() as timed:
            call()
        timed.raw_s      # wall time of the block
        timed.speed      # probe time around the block / PROBE_REF_S
        timed.seconds    # raw_s / speed: the block at reference speed

    The shared host this benchmark runs on changes speed by up to 1.5x
    within seconds, with no steal time, and every kind of code slows
    alike.  A probe just before and just after each timed block measures
    the host's speed at that moment; dividing by it removes the host's
    drift from the figure and keeps the program's own cost, since the
    probe runs none of the program.  Each side takes the median of three
    probes.  ``raw_s`` is kept in every record.
    """

    raw_s = 0.0
    speed = 1.0

    def __enter__(self) -> "Timed":
        self._before = _probe_median()
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.raw_s = time.perf_counter() - self._started
        self.speed = (self._before + _probe_median()) / (2.0 * PROBE_REF_S)

    @property
    def seconds(self) -> float:
        return self.raw_s / self.speed


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of process ``pid`` in MB."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid``, found by scanning ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            children.append(int(entry))
    return children


def wait_group_gone(pgid: int, timeout: float) -> None:
    """Wait until no process of process group ``pgid`` is left."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        alive = False
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as handle:
                    fields = handle.read().rsplit(")", 1)[1].split()
            except OSError:
                continue
            if int(fields[2]) == pgid and fields[0] != "Z":
                alive = True
                break
        if not alive:
            return
        time.sleep(0.05)
    raise RuntimeError(f"process group {pgid} still running after {timeout} s")


def python_env(root: pathlib.Path) -> Dict[str, str]:
    """Environment for a child interpreter that imports ``repro`` from ``src``."""
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONUNBUFFERED"] = "1"
    return env


def time_fresh_imports(root: pathlib.Path, code: str, repeats: int) -> List[Timed]:
    """Time ``repeats`` fresh interpreters each running ``code``.

    This is the in-process workloads' set-up: a new process importing the
    modules the pass uses and building the technology card.  An import
    happens once per process, so set-up is sampled in child processes.
    """
    samples = []
    env = python_env(root)
    for _ in range(repeats):
        with Timed() as timed:
            subprocess.run(
                [sys.executable, "-c", code],
                cwd=root,
                env=env,
                check=True,
                stdout=subprocess.DEVNULL,
                timeout=120,
            )
        samples.append(timed)
    return samples


# ----------------------------------------------------------------------
# Environment record
# ----------------------------------------------------------------------
def environment(root: pathlib.Path) -> Dict[str, Any]:
    """Where and with what a result was measured."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip() or None
    except OSError:
        sha = None
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    from repro.runtime import code_version

    return {
        "git_sha": sha,
        "source_digest": code_version(),
        "nproc": os.cpu_count(),
        "loadavg": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version,
        "thread_variables": {
            name: os.environ[name] for name in THREAD_VARIABLES if name in os.environ
        },
    }


# ----------------------------------------------------------------------
# The result of one run
# ----------------------------------------------------------------------
class Run:
    """Operations, checks and samples of one benchmark run.

    ``attempted`` counts every timed operation and every output check;
    ``failed`` counts operations that raised and checks that did not
    hold.  ``ok_ratio`` is ``1 - failed / attempted``.
    """

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.metrics: Dict[str, Dict[str, Any]] = {}
        self.details: Dict[str, Any] = {}

    def op(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Call one operation, counting it; a raise counts as failed and
        propagates (a pass cannot continue without the value)."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as error:
            self.fail(f"{getattr(fn, '__name__', fn)} raised {error!r}")
            raise

    def check(self, condition: bool, label: str) -> bool:
        """Record one output check."""
        self.attempted += 1
        if not condition:
            self.fail(f"check failed: {label}")
        return bool(condition)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    @property
    def ok_ratio(self) -> float:
        return 1.0 - self.failed / self.attempted if self.attempted else 0.0

    def summary(self) -> Dict[str, Any]:
        """The last line ``run.py`` prints."""
        return {
            "correct": self.failed == 0 and self.attempted > 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        }

    def write(self, directory: pathlib.Path, extra: Dict[str, Any]) -> pathlib.Path:
        """Write the full record (summary, samples, environment) as JSON."""
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{self.workload}-seed{self.seed}-trace{int(self.trace)}.json"
        record = {
            "workload": self.workload,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": self.trace,
            "failures": self.failures,
            **self.summary(),
            "details": self.details,
            **extra,
        }
        path.write_text(json.dumps(record, indent=1, default=_jsonable) + "\n")
        return path


def _jsonable(value: Any) -> Any:
    if hasattr(value, "tolist"):
        return value.tolist()
    return str(value)


def keep_measuring(started: float, seconds: float, samples: int, floor: int = MIN_SAMPLES) -> bool:
    """Loop condition of every workload: at least ``seconds`` of measuring
    and at least ``floor`` samples."""
    return samples < floor or time.perf_counter() - started < seconds


def scratch_dir(root: pathlib.Path, name: str) -> pathlib.Path:
    """A fresh directory under the checkout's ``.perfbench`` tree."""
    path = root / ".perfbench" / "tmp" / f"{name}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def load_reference(name: str) -> Dict[str, Any]:
    """Recorded outputs of the seed code (``reference.json``)."""
    path = pathlib.Path(__file__).with_name("reference.json")
    return json.loads(path.read_text())[name]
