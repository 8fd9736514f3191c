"""REPRO-DET01 — unseeded randomness in solver paths.

The repository's core contract is that distributed == serial
*bit-for-bit*: every job is a deterministic work unit, artifact-cache
keys assume re-running a plan reproduces its bytes, and the journal
replays interrupted sweeps expecting identical results.  One call into
global, unseeded randomness anywhere in a solver path breaks all three
silently.

Flagged, in the modelling/solver packages (``circuits``, ``core``,
``dnn``, ``eventsim``, ``converters``, ``multiplier``, ``analysis``):

* legacy module-level NumPy randomness — ``np.random.rand``,
  ``np.random.normal``, ``np.random.seed`` … (global-state RNG; even
  *seeded*, it is process-global and order-dependent across executors);
* any stdlib ``random.*`` call — same global-state problem;
* ``default_rng()`` / ``np.random.default_rng()`` with no arguments —
  OS-entropy seeding, unreproducible by construction.

The sanctioned idiom (see ``repro.core.pvt``): derive per-job seeds with
``np.random.SeedSequence(seed).spawn(n)`` and pass explicit
``np.random.Generator`` instances down the call chain.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterable, Set, Tuple

from repro.lint.core import Checker, dotted_name

__all__ = ["DeterminismChecker", "SOLVER_PACKAGES"]

#: Path segments marking the deterministic solver/model paths this rule
#: patrols (the service/cluster/runtime tiers hold no model math).
SOLVER_PACKAGES = (
    "circuits",
    "core",
    "dnn",
    "eventsim",
    "converters",
    "multiplier",
    "analysis",
)

#: ``np.random`` attributes that are deterministic plumbing, not draws.
_NP_RANDOM_ALLOWED = {
    "default_rng",  # argless form is flagged separately
    "SeedSequence",
    "Generator",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}


class DeterminismChecker(Checker):
    rule = "REPRO-DET01"
    description = (
        "unseeded randomness (np.random.* legacy calls, stdlib random, "
        "argless default_rng()) in a solver path"
    )

    def applies_to(self, path: pathlib.PurePath) -> bool:
        return any(part in SOLVER_PACKAGES for part in path.parts)

    def check(
        self, tree: ast.Module, source: str, path: pathlib.PurePath
    ) -> Iterable[Tuple[int, int, str]]:
        numpy_aliases, random_aliases, default_rng_aliases = _rng_aliases(tree)
        violations = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            message = _nondeterministic_reason(
                node, numpy_aliases, random_aliases, default_rng_aliases
            )
            if message is not None:
                violations.append((node.lineno, node.col_offset, message))
        return violations


def _rng_aliases(tree: ast.Module) -> Tuple[Set[str], Set[str], Set[str]]:
    """Names bound to numpy, stdlib random, and ``default_rng`` itself."""
    numpy_aliases: Set[str] = set()
    random_aliases: Set[str] = set()
    default_rng_aliases: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    numpy_aliases.add(alias.asname or "numpy")
                elif alias.name == "random":
                    random_aliases.add(alias.asname or "random")
                elif alias.name == "numpy.random" and alias.asname:
                    # `import numpy.random as npr`: npr.X == numpy.random.X
                    numpy_aliases.add(f"{alias.asname}?direct")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "numpy.random":
                for alias in node.names:
                    if alias.name == "default_rng":
                        default_rng_aliases.add(alias.asname or alias.name)
            elif node.module == "random":
                for alias in node.names:
                    random_aliases.add(f"{alias.asname or alias.name}?from")
    return numpy_aliases, random_aliases, default_rng_aliases


def _nondeterministic_reason(
    call: ast.Call,
    numpy_aliases: Set[str],
    random_aliases: Set[str],
    default_rng_aliases: Set[str],
) -> "str | None":
    func = call.func
    name = dotted_name(func)
    argless = not call.args and not call.keywords
    if name is not None:
        parts = name.split(".")
        # np.random.X(...) / numpy.random.X(...) / npr.X(...)
        attr = None
        if len(parts) >= 3 and parts[0] in numpy_aliases and parts[1] == "random":
            attr = parts[2]
        elif len(parts) == 2 and f"{parts[0]}?direct" in numpy_aliases:
            attr = parts[1]
        if attr is not None:
            if attr == "default_rng" and argless:
                return (
                    "default_rng() without a seed draws OS entropy; pass a "
                    "seed or a SeedSequence-derived child"
                )
            if attr not in _NP_RANDOM_ALLOWED:
                return (
                    f"legacy global-state call np.random.{attr}(); use an "
                    "explicit np.random.Generator seeded via SeedSequence"
                )
            return None
        # stdlib random module: random.X(...)
        if len(parts) == 2 and parts[0] in random_aliases:
            return (
                f"stdlib random.{parts[1]}() is process-global and "
                "unseeded; use a seeded np.random.Generator"
            )
    if isinstance(func, ast.Name):
        if func.id in default_rng_aliases and argless:
            return (
                "default_rng() without a seed draws OS entropy; pass a "
                "seed or a SeedSequence-derived child"
            )
        if f"{func.id}?from" in random_aliases:
            return (
                f"stdlib random.{func.id}() is process-global and "
                "unseeded; use a seeded np.random.Generator"
            )
    return None
