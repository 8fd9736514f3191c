"""Shared minimal HTTP/1.1 plumbing for the repo's embedded endpoints.

Two servers speak HTTP in this repository — the Prometheus metrics
endpoint (:mod:`repro.obs.http`) and the REST/SSE gateway
(:mod:`repro.gateway`) — and both are deliberately framework-free.  This
module is their common core, the HTTP analogue of :mod:`repro.wire`:
request parsing with hard limits (:func:`read_request`), response
rendering (:func:`render_response`, :func:`json_response`) and the
structured JSON error body every endpoint answers with
(:func:`error_body`).

The dialect is intentionally narrow and documented here once:

* one request per connection — every response carries
  ``Connection: close`` (SSE streams stay open until the *server* is done
  writing, then close).  Scrape clients, curl, browsers and load
  balancers all handle this; it keeps both servers a screenful of code;
* bodies require ``Content-Length`` (no chunked transfer encoding) and
  are bounded by the caller's ``max_body_bytes`` — an oversized body is
  refused with :class:`HttpError` status 413 *before* it is read;
* header names are lower-cased on parse, values stripped.

>>> response = render_response(200, b'{"ok": true}')
>>> response.split(b"\\r\\n")[0]
b'HTTP/1.1 200 OK'
>>> b"Connection: close" in response
True
>>> error_body(404, "no such sweep", code="not-found")
b'{"code": "not-found", "error": "no such sweep", "status": 404}\\n'
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
from typing import Any, Dict, Iterable, Optional, Tuple

__all__ = [
    "HttpError",
    "HttpRequest",
    "REASONS",
    "error_body",
    "error_response",
    "json_response",
    "read_request",
    "render_response",
]

#: Hard bound on the request line; anything longer is a 400.
MAX_REQUEST_LINE_BYTES = 8192

#: Hard bound on the number of header lines; anything more is a 400.
MAX_HEADER_COUNT = 100

#: The status codes the embedded servers actually emit.
REASONS = {
    200: "OK",
    202: "Accepted",
    204: "No Content",
    307: "Temporary Redirect",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Content Too Large",
    500: "Internal Server Error",
    502: "Bad Gateway",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request that cannot be served; carries the response status.

    >>> error = HttpError(413, "body too large")
    >>> error.status, str(error)
    (413, 'body too large')
    """

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


@dataclasses.dataclass
class HttpRequest:
    """One parsed request: line, lower-cased headers, bounded body."""

    method: str
    path: str
    query: str
    version: str
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Any:
        """The body decoded as JSON; :class:`HttpError` 400 when it is not.

        >>> HttpRequest("POST", "/x", "", "HTTP/1.1", {}, b'{"a": 1}').json()
        {'a': 1}
        """
        try:
            return json.loads(self.body.decode("utf-8"))
        except (ValueError, RecursionError) as error:
            # ValueError covers bad UTF-8, bad JSON and integers past
            # Python's digit limit; RecursionError, arrays nested too deep.
            raise HttpError(400, f"request body is not valid JSON: {error}") from None


async def _read_line(reader: asyncio.StreamReader, timeout: float) -> bytes:
    """One line off ``reader``; :class:`HttpError` 400 past its buffer limit.

    ``StreamReader.readline`` raises ``ValueError`` for a line longer than
    the reader's limit (64 KiB by default).
    """
    try:
        return await asyncio.wait_for(reader.readline(), timeout=timeout)
    except ValueError:
        raise HttpError(400, "request line or header line too long") from None


async def read_request(
    reader: asyncio.StreamReader,
    max_body_bytes: int = 1_000_000,
    timeout: float = 10.0,
) -> Optional[HttpRequest]:
    """Parse one request off ``reader``; ``None`` on a clean immediate EOF.

    Raises :class:`HttpError` (400 for malformed framing, 413 for a body
    over ``max_body_bytes`` — checked against ``Content-Length`` before a
    single body byte is read) and :class:`asyncio.TimeoutError` when the
    peer stalls longer than ``timeout`` between lines.
    """
    request_line = await _read_line(reader, timeout)
    if request_line == b"":
        return None
    if len(request_line) > MAX_REQUEST_LINE_BYTES:
        raise HttpError(400, "request line too long")
    parts = request_line.decode("latin-1", "replace").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise HttpError(400, f"malformed request line {request_line!r}")
    method, target, version = parts
    headers: Dict[str, str] = {}
    while True:
        line = await _read_line(reader, timeout)
        if line in (b"\r\n", b"\n"):
            break
        if line == b"":
            raise HttpError(400, "connection closed inside the header block")
        if len(headers) >= MAX_HEADER_COUNT:
            raise HttpError(400, "too many header lines")
        name, sep, value = line.decode("latin-1", "replace").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()
    body = b""
    length_text = headers.get("content-length")
    if headers.get("transfer-encoding"):
        raise HttpError(400, "chunked transfer encoding is not supported")
    if length_text is not None:
        # ASCII digits only (int() would also take "+4", "1_0" and " 4"),
        # and few enough for int() to convert.
        if not (length_text.isascii() and length_text.isdigit()) or len(length_text) > 18:
            raise HttpError(400, f"bad Content-Length {length_text!r}")
        length = int(length_text)
        if length > max_body_bytes:
            raise HttpError(
                413,
                f"request body of {length} bytes exceeds the "
                f"{max_body_bytes}-byte limit",
            )
        try:
            body = await asyncio.wait_for(reader.readexactly(length), timeout=timeout)
        except asyncio.IncompleteReadError:
            raise HttpError(400, "connection closed inside the request body") from None
    path, _, query = target.partition("?")
    return HttpRequest(
        method=method, path=path, query=query, version=version,
        headers=headers, body=body,
    )


def render_response(
    status: int,
    body: bytes = b"",
    content_type: str = "application/json; charset=utf-8",
    extra_headers: Iterable[Tuple[str, str]] = (),
) -> bytes:
    """One complete ``Connection: close`` response as wire bytes."""
    reason = REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    for name, value in extra_headers:
        lines.append(f"{name}: {value}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


def json_response(
    status: int,
    document: Any,
    extra_headers: Iterable[Tuple[str, str]] = (),
) -> bytes:
    """A JSON document rendered as a complete response.

    >>> json_response(202, {"ok": True}).endswith(b'{"ok": true}\\n')
    True
    """
    body = (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")
    return render_response(status, body, extra_headers=extra_headers)


def error_body(status: int, message: str, code: Optional[str] = None) -> bytes:
    """The structured JSON error document every endpoint answers with."""
    document: Dict[str, Any] = {"error": message, "status": status}
    if code is not None:
        document["code"] = code
    return (json.dumps(document, sort_keys=True) + "\n").encode("utf-8")


def error_response(status: int, message: str, code: Optional[str] = None) -> bytes:
    """A complete error response (:func:`error_body` + headers)."""
    return render_response(status, error_body(status, message, code=code))
