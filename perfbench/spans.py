"""In-memory span tracer for the traced run.

The traced run wraps public functions of the program's layers with timing
wrappers from this file.  Each call records a span (name, start, end,
parent span, run id) in memory; :meth:`Tracer.dump` writes them out when
the run ends.  A wrapper replaces the function wherever callers look it
up: every loaded ``repro`` module that holds the same function object
under that name, or the class for a method.  Runs that produce
end-to-end metrics install nothing.
"""

from __future__ import annotations

import functools
import json
import pathlib
import sys
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

#: (span name, module path, attribute).  An attribute ``Class.method``
#: patches the method on the class.
Target = Tuple[str, str, str]


class Span:
    __slots__ = ("name", "start", "end", "parent", "run")

    def __init__(self, name: str, start: float, parent: Optional[int], run: str):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.run = run


class Tracer:
    """Collects spans; one tracer per traced run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    # -- recording --------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        spans, run_id, stack_of = self.spans, self.run_id, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            span = Span(name, time.perf_counter(), stack[-1] if stack else None, run_id)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        traced.__wrapped_by_perfbench__ = fn  # type: ignore[attr-defined]
        return traced

    # -- installing -------------------------------------------------------
    def install(self, targets: Iterable[Target]) -> None:
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        for name, module_name, attribute in targets:
            module = sys.modules.get(module_name) or __import__(module_name, fromlist=["_"])
            if "." in attribute:
                owner_name, method = attribute.split(".", 1)
                self._patch_method(name, getattr(module, owner_name), method)
            else:
                self._patch_function(name, getattr(module, attribute), attribute)

    def _patch_function(self, name: str, original: Callable[..., Any], attribute: str) -> None:
        wrapper = self.wrap(name, original)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            if getattr(module, attribute, None) is original:
                setattr(module, attribute, wrapper)
                self._restore.append(functools.partial(setattr, module, attribute, original))

    def _patch_method(self, name: str, owner: type, method: str) -> None:
        raw = owner.__dict__[method]
        if isinstance(raw, classmethod):
            patched: Any = classmethod(self.wrap(name, raw.__func__))
        elif isinstance(raw, staticmethod):
            patched = staticmethod(self.wrap(name, raw.__func__))
        else:
            patched = self.wrap(name, raw)
        setattr(owner, method, patched)
        self._restore.append(functools.partial(setattr, owner, method, raw))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- reading ----------------------------------------------------------
    def window(self, start: float, end: float) -> List[Span]:
        """Spans that started inside ``[start, end]``."""
        return [span for span in self.spans if start <= span.start <= end]

    def dump(self, path: pathlib.Path) -> None:
        rows = [
            {
                "name": span.name,
                "start": span.start,
                "end": span.end,
                "parent": span.parent,
                "run": span.run,
            }
            for span in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(rows) + "\n")


def _union_length(intervals: Sequence[Tuple[float, float]]) -> float:
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span], all_spans: Sequence[Span]) -> Dict[str, float]:
    """Total self time per span name: each span's duration minus the part
    of it that its child spans cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    index_of = {id(span): index for index, span in enumerate(all_spans)}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    totals: Dict[str, float] = {}
    for span in spans:
        covered = _union_length(children.get(index_of[id(span)], []))
        totals[span.name] = totals.get(span.name, 0.0) + (span.end - span.start) - covered
    return totals


def inclusive_times(spans: Sequence[Span]) -> Dict[str, Tuple[float, int]]:
    """(total duration, call count) per span name."""
    totals: Dict[str, Tuple[float, int]] = {}
    for span in spans:
        duration, calls = totals.get(span.name, (0.0, 0))
        totals[span.name] = (duration + span.end - span.start, calls + 1)
    return totals


def root_coverage(spans: Sequence[Span], duration: float) -> float:
    """Time covered by spans without a parent, as a share of ``duration``."""
    roots = [(span.start, span.end) for span in spans if span.parent is None]
    return _union_length(roots) / duration if duration > 0 else 0.0
