"""repro.lint — project-aware static analysis over the repo's contracts.

The fifth cross-cutting layer (PR 7): a dependency-free, :mod:`ast`-based
checker framework that turns the repository's *runtime* invariants into
*merge-time* gates.  The contracts it guards are the ones every other
tier is built on — distributed == serial bit-for-bit, asyncio
tiers never block their loops, pickle stays pinned to the one cluster
shim awaiting the ``repro.wire`` migration, failures are never silently
swallowed, metric names obey the registry rule, and wire-frame literals
match the documented protocol vocabulary.

Entry points:

* ``python -m repro lint [PATHS]`` — the CLI gate (``--format text|json``,
  ``--rule RULE``, ``--write-baseline``, ``--list-rules``; exit 0 clean /
  1 findings / 2 usage error);
* :func:`run_lint` — the library API the tests drive;
* ``# repro: ignore[RULE] -- reason`` — inline suppression;
* ``lint-baseline.json`` — committed grandfathered findings (shipped
  empty; see :mod:`repro.lint.baseline`).

``docs/lint.md`` is the rule reference.  Layering: ``repro.lint`` imports
nothing from the tiers it checks (it reads their *source*, never their
modules), so linting cannot execute the code under analysis.
"""

from __future__ import annotations

from repro.lint.baseline import Baseline
from repro.lint.checkers import ALL_CHECKERS, RULES
from repro.lint.core import Checker, Finding, LintResult, run_lint

__all__ = [
    "ALL_CHECKERS",
    "Baseline",
    "Checker",
    "Finding",
    "LintResult",
    "RULES",
    "run_lint",
]
