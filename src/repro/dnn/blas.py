"""Run a block of NumPy work on one OpenBLAS thread.

The DNN train and evaluate jobs multiply small matrices: a second BLAS
thread buys them almost no wall time and doubles their CPU time (one
ResNet101-like training on a 2-core host: 28.3 s wall / 28.2 s CPU on one
thread, 26.5 s / 52.2 s on two).  :func:`one_blas_thread` sets the
OpenBLAS already loaded into the process to one thread for the duration of
a ``with`` block and restores the previous count afterwards.  The DNN
results do not change: a training and an evaluation give the same bits on
one thread and on two (``tests/test_dnn_blas.py``).

The library is found by scanning ``/proc/self/maps`` for a mapped
``openblas`` shared object; its thread setter and getter are resolved
through :mod:`ctypes` (the ``scipy_openblas`` names of NumPy 2 wheels
first, then the plain OpenBLAS ones).  Where there is no such library or
symbol (another BLAS, another platform) the block runs unchanged.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import threading
from typing import Callable, Iterator, Optional, Tuple

#: (setter, getter) symbol pairs, tried in order.
_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)

_lock = threading.Lock()
_depth = 0
_saved = 0


def _find_openblas() -> Optional[str]:
    """Path of an OpenBLAS shared object mapped into this process, if any."""
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            for line in maps:
                fields = line.split(maxsplit=5)
                if len(fields) < 6:
                    continue
                path = fields[5].strip()
                name = path.rsplit("/", 1)[-1].lower()
                if "openblas" in name and ".so" in name:
                    return path
    except OSError:
        return None
    return None


@functools.lru_cache(maxsize=1)
def _thread_controls() -> Optional[Tuple[Callable[[int], None], Callable[[], int]]]:
    """The loaded OpenBLAS's (set, get) thread-count functions, or ``None``."""
    path = _find_openblas()
    if path is None:
        return None
    try:
        library = ctypes.CDLL(path)
    except OSError:
        return None
    for setter_name, getter_name in _SYMBOLS:
        setter = getattr(library, setter_name, None)
        getter = getattr(library, getter_name, None)
        if setter is not None and getter is not None:
            setter.argtypes = [ctypes.c_int]
            setter.restype = None
            getter.argtypes = []
            getter.restype = ctypes.c_int
            return setter, getter
    return None


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the ``with`` block with OpenBLAS on one thread.

    Nested and concurrent blocks share one setting: the first block to
    enter saves the thread count and sets 1, the last to leave restores
    the saved count.  A no-op when no OpenBLAS is found.
    """
    global _depth, _saved
    controls = _thread_controls()
    if controls is None:
        yield
        return
    set_threads, get_threads = controls
    with _lock:
        if _depth == 0:
            _saved = get_threads()
            set_threads(1)
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0:
                set_threads(_saved)
