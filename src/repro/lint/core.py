"""Core of the ``repro.lint`` static-analysis framework.

Everything the checkers share lives here: the :class:`Finding` record,
the :class:`Checker` base class, inline suppression parsing
(``# repro: ignore[RULE]``), file discovery, and :class:`LintRunner`,
which parses each file once and hands the AST to every registered
checker.  Like the rest of the observability stack the framework is
dependency-free — plain :mod:`ast`, no third-party linters — so it runs
anywhere the repository runs, including CI's bare matrix images.

The point of the subsystem is that the repository's *contracts* are
machine-checkable before anything executes: distributed == serial
bit-for-bit (so no unseeded randomness in solver paths), the
asyncio tiers must never block their event loops, pickle must not leak
past the one allowlisted cluster shim, failures must never be silently
swallowed, and wire-frame vocabularies must match the documented
protocol constants.  One checker per contract; see
:mod:`repro.lint.checkers` and ``docs/lint.md``.

>>> import pathlib, tempfile
>>> with tempfile.TemporaryDirectory() as tmp:
...     bad = pathlib.Path(tmp) / "mod.py"
...     _ = bad.write_text("import pickle\\ndata = pickle.loads(blob)\\n")
...     findings = run_lint([bad]).findings
>>> [f.rule for f in findings]
['REPRO-WIRE01']
>>> findings[0].line
2
"""

from __future__ import annotations

import ast
import dataclasses
import pathlib
import re
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = [
    "Finding",
    "Checker",
    "LintResult",
    "SUPPRESSION_RE",
    "discover_files",
    "dotted_name",
    "parse_suppressions",
    "run_lint",
]

#: Inline suppression marker.  ``# repro: ignore[RULE]`` (or a
#: comma-separated rule list) on the offending line silences those rules
#: for that line only; anything after ``--`` is the stated reason and is
#: encouraged (``docs/lint.md`` asks for one).
SUPPRESSION_RE = re.compile(
    r"#\s*repro:\s*ignore\[(?P<rules>[A-Za-z0-9_\-,\s\*]+)\]"
)

#: Severity vocabulary (today every shipped rule is an ``error``; the
#: field exists so advisory checkers can ride the same pipeline).
SEVERITIES = ("error", "warning")


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``path`` is kept exactly as the file was reached from the lint
    invocation (normalised to POSIX separators), so output lines are
    clickable from the directory the user ran the CLI in.  Baseline
    matching deliberately ignores ``line``/``col`` — see
    :mod:`repro.lint.baseline`.
    """

    path: str
    line: int
    col: int
    rule: str
    message: str
    severity: str = "error"

    def format_text(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        return dataclasses.asdict(self)

    def baseline_key(self) -> Tuple[str, str, str]:
        """Identity for baseline matching: stable across pure line moves."""
        return (self.rule, self.path, self.message)


class Checker:
    """Base class every rule implements.

    Subclasses set :attr:`rule` (the stable id reported on findings and
    accepted by ``--rule`` / suppressions), :attr:`description` (one
    line, rendered by ``--list-rules`` and pinned against ``docs/lint.md``)
    and implement :meth:`check`.  :meth:`applies_to` lets a rule scope
    itself to the packages whose contract it guards (the determinism
    rule only patrols solver paths, for example); everything else runs
    everywhere.
    """

    rule: str = "REPRO-XXX00"
    severity: str = "error"
    description: str = ""

    def applies_to(self, path: pathlib.PurePath) -> bool:
        return True

    def check(
        self, tree: ast.Module, source: str, path: pathlib.PurePath
    ) -> Iterable[Tuple[int, int, str]]:
        """Yield ``(line, col, message)`` violations for one parsed file."""
        raise NotImplementedError

    def finding(self, path: str, line: int, col: int, message: str) -> Finding:
        return Finding(
            path=path,
            line=line,
            col=col,
            rule=self.rule,
            message=message,
            severity=self.severity,
        )


@dataclasses.dataclass
class LintResult:
    """Outcome of one lint run (before baseline subtraction)."""

    findings: List[Finding]
    files_checked: int
    suppressed: int


def dotted_name(node: ast.AST) -> Optional[str]:
    """Flatten ``a.b.c`` attribute chains to ``"a.b.c"`` (else ``None``).

    The shared resolver every checker uses to recognise module-level
    calls (``time.sleep``, ``np.random.rand``, ``pickle.loads``) without
    importing anything.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Map line number -> rule ids suppressed on that line.

    ``*`` suppresses every rule on the line.  Matching is intentionally
    textual (comments are invisible to :mod:`ast`), the same trade-off
    ``# noqa`` makes.
    """
    suppressions: Dict[int, Set[str]] = {}
    for line_no, line in enumerate(source.splitlines(), start=1):
        if "repro:" not in line:  # cheap pre-filter
            continue
        match = SUPPRESSION_RE.search(line)
        if match is None:
            continue
        rules = {
            rule.strip().upper()
            for rule in match.group("rules").split(",")
            if rule.strip()
        }
        if rules:
            suppressions[line_no] = rules
    return suppressions


def discover_files(paths: Sequence[pathlib.Path]) -> Iterator[pathlib.Path]:
    """Expand files/directories into the ``.py`` files to lint.

    Directories recurse; hidden directories and ``__pycache__`` are
    skipped.  A named path that does not exist raises ``FileNotFoundError``
    (the CLI turns that into exit code 2).
    """
    seen: Set[pathlib.Path] = set()
    for path in paths:
        if not path.exists():
            raise FileNotFoundError(f"no such file or directory: {path}")
        if path.is_dir():
            candidates = sorted(
                candidate
                for candidate in path.rglob("*.py")
                if not any(
                    part.startswith(".") or part == "__pycache__"
                    for part in candidate.relative_to(path).parts
                )
            )
        else:
            candidates = [path]
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                yield candidate


def _checker_registry() -> "List[Checker]":
    from repro.lint.checkers import ALL_CHECKERS

    return list(ALL_CHECKERS)


def run_lint(
    paths: Sequence[pathlib.Path],
    checkers: Optional[Sequence[Checker]] = None,
) -> LintResult:
    """Lint ``paths`` with ``checkers`` (default: every registered rule).

    Files that fail to parse produce a ``REPRO-PARSE`` finding instead of
    aborting the run — a syntactically broken file is itself a violation,
    and the remaining files still get checked.
    """
    active = _checker_registry() if checkers is None else list(checkers)
    findings: List[Finding] = []
    files_checked = 0
    suppressed = 0
    for file_path in discover_files(paths):
        files_checked += 1
        display = file_path.as_posix()
        try:
            source = file_path.read_text(encoding="utf-8")
            tree = ast.parse(source, filename=display)
        except (SyntaxError, UnicodeDecodeError, OSError) as error:
            line = getattr(error, "lineno", None) or 1
            findings.append(
                Finding(
                    path=display,
                    line=int(line),
                    col=0,
                    rule="REPRO-PARSE",
                    message=f"file does not parse: {error}",
                )
            )
            continue
        suppressions = parse_suppressions(source)
        for checker in active:
            if not checker.applies_to(file_path):
                continue
            for line, col, message in checker.check(tree, source, file_path):
                rules_here = suppressions.get(line, set())
                if checker.rule in rules_here or "*" in rules_here:
                    suppressed += 1
                    continue
                findings.append(checker.finding(display, line, col, message))
    findings.sort()
    return LintResult(
        findings=findings, files_checked=files_checked, suppressed=suppressed
    )
