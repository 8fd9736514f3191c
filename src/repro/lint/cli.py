"""``python -m repro lint`` — the CLI/CI gate over the checker registry.

Exit codes are the contract CI builds on:

* ``0`` — no findings outside the committed baseline (suppressed and
  baselined findings do not fail the gate);
* ``1`` — at least one fresh finding (printed, text or JSON);
* ``2`` — usage error (unknown rule id, missing path, unreadable
  baseline).

``--write-baseline`` records the current findings as grandfathered and
exits 0; ``--format json`` emits one machine-readable document on stdout
(the CI job uploads it as an artifact); ``--rule`` restricts the run to
a subset of rules (repeatable), which is how the CI metrics-naming gate
invokes exactly ``REPRO-OBS01``.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import List

from repro.lint.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.lint.checkers import ALL_CHECKERS, RULES
from repro.lint.core import Finding, run_lint

__all__ = ["add_lint_arguments", "run_lint_command"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``lint`` subcommand's arguments to ``parser``."""
    parser.add_argument(
        "paths",
        nargs="*",
        type=pathlib.Path,
        metavar="PATHS",
        help="files or directories to lint (default: src if present, else .)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json is one document: findings + summary)",
    )
    parser.add_argument(
        "--rule",
        action="append",
        default=None,
        metavar="RULE",
        help="run only this rule id (repeatable; default: all rules)",
    )
    parser.add_argument(
        "--baseline",
        type=pathlib.Path,
        default=pathlib.Path(DEFAULT_BASELINE_NAME),
        metavar="PATH",
        help=f"grandfathered-findings file (default: {DEFAULT_BASELINE_NAME})",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="record the current findings as the new baseline and exit 0",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file (report every finding)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule table (id + description) and exit",
    )


def run_lint_command(args: argparse.Namespace) -> int:
    if args.list_rules:
        width = max(len(rule) for rule in RULES)
        for rule, description in sorted(RULES.items()):
            print(f"{rule:<{width}}  {description}")
        return 0

    checkers = list(ALL_CHECKERS)
    if args.rule:
        wanted = {rule.upper() for rule in args.rule}
        unknown = wanted - set(RULES)
        if unknown:
            print(
                f"error: unknown rule(s) {', '.join(sorted(unknown))} "
                f"(known: {', '.join(sorted(RULES))})",
                file=sys.stderr,
            )
            return 2
        checkers = [checker for checker in checkers if checker.rule in wanted]

    paths: List[pathlib.Path] = list(args.paths)
    if not paths:
        default = pathlib.Path("src")
        paths = [default if default.is_dir() else pathlib.Path(".")]

    try:
        result = run_lint(paths, checkers)
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.write_baseline:
        Baseline.from_findings(result.findings).write(args.baseline)
        print(
            f"wrote {len(result.findings)} finding(s) to {args.baseline}",
            file=sys.stderr,
        )
        return 0

    if args.no_baseline:
        baseline = Baseline()
    else:
        try:
            baseline = Baseline.load(args.baseline)
        except (ValueError, json.JSONDecodeError) as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
    fresh, baselined = baseline.filter(result.findings)

    if args.format == "json":
        print(
            json.dumps(
                {
                    "version": 1,
                    "files_checked": result.files_checked,
                    "rules": sorted(checker.rule for checker in checkers),
                    "findings": [finding.to_dict() for finding in fresh],
                    "baselined": baselined,
                    "suppressed": result.suppressed,
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for finding in fresh:
            print(finding.format_text())
        summary = (
            f"{result.files_checked} file(s) checked, "
            f"{len(fresh)} finding(s)"
        )
        if baselined:
            summary += f", {baselined} baselined"
        if result.suppressed:
            summary += f", {result.suppressed} suppressed"
        print(summary, file=sys.stderr)
    return 1 if fresh else 0
