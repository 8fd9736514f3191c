"""REPRO-WIRE01 — pickle must not spread past the cluster shim.

The ROADMAP's untrusted-peer hardening item requires replacing the
cluster's pickled job transport with a restricted, schema-checked
serialisation (``repro.wire``).  That migration is only tractable while
the pickle surface stays *pinned to one file*: the allowlisted
``repro/cluster/protocol.py`` shim, whose docstring states the
trusted-peers-only stance.  This rule fails any new
``pickle.loads/dumps/load/dump`` (and friends) anywhere else, so the
surface that must migrate can never silently grow.

Also flagged: ``np.load(..., allow_pickle=True)``, which executes any
pickle a poisoned ``.npy`` / ``.npz`` file carries.

Raw-buffer decoding is confined the same way: ``np.frombuffer`` turns
attacker-supplied bytes into arrays with no validation of its own, so
every call must live behind the length/dtype/shape checks in
``repro/wire.py`` (``unpack_arrays``) — the ``FROMBUFFER_ALLOWLIST``.
Anywhere else, decode through :func:`repro.wire.unpack_arrays`; the
artifact cache does.
"""

from __future__ import annotations

import ast
import pathlib
from typing import Iterable, Tuple

from repro.lint.core import Checker, dotted_name

__all__ = ["WireSafetyChecker", "PICKLE_ALLOWLIST", "FROMBUFFER_ALLOWLIST"]

#: POSIX path suffixes allowed to touch pickle: the single cluster
#: transport shim (see its module docstring for the trust stance).
PICKLE_ALLOWLIST = ("repro/cluster/protocol.py",)

#: POSIX path suffixes allowed to call ``np.frombuffer``: the wire array
#: codec, which validates length/dtype/shape before viewing.  Everything
#: else must decode through ``repro.wire.unpack_arrays``.
FROMBUFFER_ALLOWLIST = ("repro/wire.py",)

#: Raw-buffer decoders (module.function) confined to the allowlist above.
_FROMBUFFER_CALLS = {
    "np.frombuffer",
    "numpy.frombuffer",
    "np.fromstring",
    "numpy.fromstring",
}

#: Pickle-family entry points (module.function).
_PICKLE_CALLS = {
    "pickle.loads",
    "pickle.dumps",
    "pickle.load",
    "pickle.dump",
    "pickle.Unpickler",
    "pickle.Pickler",
    "cPickle.loads",
    "cPickle.dumps",
    "marshal.loads",
    "marshal.dumps",
    "marshal.load",
    "marshal.dump",
    "shelve.open",
}


class WireSafetyChecker(Checker):
    rule = "REPRO-WIRE01"
    description = (
        "pickle/marshal call outside the allowlisted repro/cluster/protocol.py "
        "shim, np.load with allow_pickle=True, or np.frombuffer outside the "
        "validated repro.wire codec"
    )

    def applies_to(self, path: pathlib.PurePath) -> bool:
        posix = path.as_posix()
        return not any(posix.endswith(suffix) for suffix in PICKLE_ALLOWLIST)

    def check(
        self, tree: ast.Module, source: str, path: pathlib.PurePath
    ) -> Iterable[Tuple[int, int, str]]:
        frombuffer_exempt = any(
            path.as_posix().endswith(suffix) for suffix in FROMBUFFER_ALLOWLIST
        )
        from_pickle = set()
        from_numpy = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in (
                "pickle",
                "marshal",
            ):
                for alias in node.names:
                    from_pickle.add(alias.asname or alias.name)
            if isinstance(node, ast.ImportFrom) and node.module == "numpy":
                for alias in node.names:
                    if alias.name in ("frombuffer", "fromstring"):
                        from_numpy.add(alias.asname or alias.name)
        violations = []
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if not frombuffer_exempt and (
                name in _FROMBUFFER_CALLS
                or (isinstance(node.func, ast.Name) and node.func.id in from_numpy)
            ):
                violations.append(
                    (
                        node.lineno,
                        node.col_offset,
                        "raw-buffer decoding outside the validated codec "
                        "(repro/wire.py); decode through "
                        "repro.wire.unpack_arrays instead",
                    )
                )
                continue
            if name in _PICKLE_CALLS:
                violations.append(
                    (
                        node.lineno,
                        node.col_offset,
                        f"{name}() outside the allowlisted cluster shim "
                        "(repro/cluster/protocol.py); serialise through "
                        "repro.wire instead",
                    )
                )
                continue
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in from_pickle
            ):
                violations.append(
                    (
                        node.lineno,
                        node.col_offset,
                        f"{node.func.id}() (imported from pickle/marshal) "
                        "outside the allowlisted cluster shim; serialise "
                        "through repro.wire instead",
                    )
                )
                continue
            for keyword in node.keywords:
                if (
                    keyword.arg == "allow_pickle"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True
                ):
                    violations.append(
                        (
                            node.lineno,
                            node.col_offset,
                            "allow_pickle=True re-opens arbitrary code "
                            "execution on artifact reads; keep it False",
                        )
                    )
        return violations
