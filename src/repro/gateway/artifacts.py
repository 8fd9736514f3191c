"""Artifact object store: content-addressed result spill-out.

A sweep result above the gateway's ``--spill-bytes`` threshold does not
travel inline in the HTTP response; its canonical JSON encoding is
written to a :class:`LocalArtifactStore` and the REST API answers with
a content-addressed URL (``GET /v1/artifacts/{digest}``) instead.  The
digest is the SHA-256 of the stored bytes, so artifacts are immutable
and deduplicate across identical results.  The store uses two-level
fan-out directories and atomic tmp-then-rename writes, exactly the
layout of the engine's :class:`~repro.runtime.cache.ArtifactCache`.

>>> encode_result({"b": 1, "a": [2, 3]})
b'{"a": [2, 3], "b": 1}\\n'
>>> import hashlib
>>> hashlib.sha256(b"x").hexdigest() == digest_of(b"x")
True
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
from typing import Any

__all__ = [
    "ArtifactStoreError",
    "DIGEST_RE",
    "LocalArtifactStore",
    "digest_of",
    "encode_result",
]

#: Content addresses are lowercase SHA-256 hex, nothing else.
DIGEST_RE = re.compile(r"^[0-9a-f]{64}$")


class ArtifactStoreError(RuntimeError):
    """The store could not persist or produce an artifact."""


def encode_result(payload: Any) -> bytes:
    """Canonical JSON encoding of a sweep result payload.

    Sorted keys and a trailing newline make the encoding deterministic:
    the same payload always yields the same bytes, hence the same
    digest — which is what makes spilled artifacts bit-comparable to a
    direct :class:`~repro.service.client.ServiceClient` result.
    """
    return (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")


def digest_of(data: bytes) -> str:
    """The content address of ``data``: SHA-256 hex."""
    return hashlib.sha256(data).hexdigest()


class LocalArtifactStore:
    """Filesystem artifact store: ``root/<digest[:2]>/<digest>.bin``.

    Writes go through a temp file and :func:`os.replace` in the final
    directory, so a crashed gateway never leaves a torn artifact and
    concurrent writers of the same content race harmlessly.
    Directories are created lazily on first :meth:`put`; any OS-level
    failure surfaces as :class:`ArtifactStoreError` (which the gateway
    turns into a structured 500, never a stack trace on the wire).
    """

    def __init__(self, root: str):
        self.root = root
        self._puts = 0
        self._gets = 0

    def _path(self, digest: str) -> str:
        return os.path.join(self.root, digest[:2], digest + ".bin")

    def put(self, data: bytes) -> str:
        """Persist ``data``; return its content digest.  Idempotent."""
        digest = digest_of(data)
        path = self._path(digest)
        try:
            if os.path.exists(path):
                self._puts += 1
                return digest  # content-addressed: already stored
            os.makedirs(os.path.dirname(path), exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=os.path.dirname(path), suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(data)
                os.replace(tmp_path, path)
            except BaseException:
                try:
                    os.unlink(tmp_path)
                except OSError:
                    pass
                raise
        except OSError as error:
            raise ArtifactStoreError(
                f"artifact store write failed under {self.root!r}: {error}"
            ) from error
        self._puts += 1
        return digest

    def get(self, digest: str) -> bytes:
        """The stored bytes; :class:`KeyError` when absent."""
        if not DIGEST_RE.match(digest):
            raise KeyError(digest)
        try:
            with open(self._path(digest), "rb") as handle:
                data = handle.read()
        except FileNotFoundError:
            raise KeyError(digest) from None
        except OSError as error:
            raise ArtifactStoreError(
                f"artifact store read failed under {self.root!r}: {error}"
            ) from error
        self._gets += 1
        return data

    def stats(self) -> dict:
        """Store counters for the ``/healthz`` document."""
        return {"backend": "local", "root": self.root,
                "puts": self._puts, "gets": self._gets}
