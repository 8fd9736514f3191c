"""Committed baseline of grandfathered lint findings.

A baseline lets the lint gate turn on *today* even when historical
violations still exist: ``python -m repro lint --write-baseline`` records
the current findings in ``lint-baseline.json``, and subsequent runs fail
only on findings **not** in that file.  The shipped baseline is empty —
every true positive the checkers surfaced was fixed or explicitly
suppressed with a reason — and the self-check test keeps it that way;
the mechanism exists so future rules can land before their cleanups
finish.

Matching is by ``(rule, path, message)`` with multiplicity, deliberately
ignoring line/column so an unrelated edit that shifts a grandfathered
finding down the file does not break CI, while *adding a second
identical violation* in the same file still fails (the multiset only
absorbs as many findings as were recorded).

>>> from repro.lint.core import Finding
>>> old = Finding("a.py", 3, 0, "REPRO-DET01", "unseeded np.random.rand")
>>> moved = Finding("a.py", 9, 4, "REPRO-DET01", "unseeded np.random.rand")
>>> fresh = Finding("b.py", 1, 0, "REPRO-DET01", "unseeded np.random.rand")
>>> baseline = Baseline.from_findings([old])
>>> new, absorbed = baseline.filter([moved, fresh])
>>> [f.path for f in new], absorbed
(['b.py'], 1)
"""

from __future__ import annotations

import json
import pathlib
from collections import Counter as _Multiset
from typing import Dict, List, Sequence, Tuple

from repro.lint.core import Finding

__all__ = ["BASELINE_VERSION", "DEFAULT_BASELINE_NAME", "Baseline"]

BASELINE_VERSION = 1

#: Default committed location, repo-root relative (the CLI default).
DEFAULT_BASELINE_NAME = "lint-baseline.json"

_Key = Tuple[str, str, str]


class Baseline:
    """A multiset of grandfathered ``(rule, path, message)`` findings."""

    def __init__(self, entries: Sequence[Dict[str, str]] = ()):
        self._entries: "_Multiset[_Key]" = _Multiset(
            (entry["rule"], entry["path"], entry["message"]) for entry in entries
        )

    # ------------------------------------------------------------------
    # Construction / persistence
    # ------------------------------------------------------------------
    @classmethod
    def from_findings(cls, findings: Sequence[Finding]) -> "Baseline":
        baseline = cls()
        baseline._entries = _Multiset(f.baseline_key() for f in findings)
        return baseline

    @classmethod
    def load(cls, path: pathlib.Path) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        if not path.exists():
            return cls()
        document = json.loads(path.read_text(encoding="utf-8"))
        if not isinstance(document, dict) or "findings" not in document:
            raise ValueError(f"{path}: not a lint baseline file")
        version = document.get("version")
        if version != BASELINE_VERSION:
            raise ValueError(
                f"{path}: baseline version {version!r} is not {BASELINE_VERSION} "
                "(regenerate with --write-baseline)"
            )
        return cls(document["findings"])

    def write(self, path: pathlib.Path) -> None:
        """Persist, sorted and pretty-printed so diffs review cleanly."""
        entries = [
            {"rule": rule, "path": file_path, "message": message}
            for (rule, file_path, message) in sorted(self._entries.elements())
        ]
        document = {"version": BASELINE_VERSION, "findings": entries}
        path.write_text(
            json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------

    def filter(
        self, findings: Sequence[Finding]
    ) -> Tuple[List[Finding], int]:
        """Split ``findings`` into (fresh, absorbed-count).

        Each baseline entry absorbs at most as many findings as its
        recorded multiplicity; everything else is fresh and should fail
        the gate.
        """
        budget = _Multiset(self._entries)
        fresh: List[Finding] = []
        absorbed = 0
        for finding in findings:
            key = finding.baseline_key()
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                absorbed += 1
            else:
                fresh.append(finding)
        return fresh, absorbed
