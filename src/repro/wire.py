"""Shared newline-delimited-JSON wire framing.

One message per line, UTF-8 JSON objects, ``\\n`` terminated — trivially
debuggable with ``nc`` and language-agnostic on the peer side.  Both network
layers of the repository speak this framing:

* :mod:`repro.service` — the client-facing sweep service
  (``python -m repro serve``);
* :mod:`repro.cluster` — the coordinator/worker links of the distributed
  executor (``python -m repro worker``).

The framing is deliberately schema-light: :func:`read_message` enforces only
line length, valid JSON and a top-level object; per-op field validation
lives with each protocol's server, which answers violations with error
events instead of dropping the connection.

Binary frames
-------------
Large array payloads would suffer 4/3 inflation (plus two full copies) as
base64 text inside a JSON line, so the framing also supports
**length-prefixed binary frames**: a normal JSON header line that carries
the reserved key ``{"binary": N}``, followed immediately by exactly ``N``
raw payload bytes.  :func:`read_message` validates ``N`` against
:data:`MAX_BINARY_BYTES` *before* buffering a single payload byte, reads
the payload with ``readexactly`` (which is not subject to the line
``limit``), and attaches it to the decoded message under
:data:`PAYLOAD_KEY`.  A torn payload — the peer dies mid-transfer — raises
:class:`ProtocolError` promptly instead of hanging the reader.  The payload
bound is deliberately separate from :data:`MAX_MESSAGE_BYTES`: headers stay
small and debuggable while chunked NumPy results ride behind them.
:func:`pack_arrays` / :func:`unpack_arrays` are the canonical payload
codec — dtype/shape-tagged contiguous buffers, reconstructed zero-copy
with ``np.frombuffer`` (this module is the only place outside the cache
allowed to do that; the ``REPRO-WIRE01`` lint rule enforces it).
:func:`pack_values` / :func:`unpack_values` build on them to carry nested
values — dicts, lists, tuples, scalars, NumPy scalars and ``repro``
dataclasses — as a JSON skeleton in the header over one array payload,
with no pickle anywhere.

Everything here used to live in :mod:`repro.service.protocol`; it was
extracted so the service and the cluster share one tested implementation.
``repro.service.protocol`` re-exports these names for backwards
compatibility.
"""

from __future__ import annotations

import asyncio
import dataclasses
import json
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Hard bound on one framed message.  Generous enough for corner tables and
#: pickled job chunks (the fast DSE payload is ~10 kB), small enough to stop
#: a rogue peer from ballooning server memory.
MAX_MESSAGE_BYTES = 8 * 1024 * 1024

#: Hard bound on one binary payload (separate from the JSON-line bound:
#: headers stay small, bulk array data rides behind them).  Large enough
#: for any full-scale PVT / characterisation chunk, small enough that a
#: rogue peer cannot balloon memory with one declared length.
MAX_BINARY_BYTES = 256 * 1024 * 1024

#: Reserved header key announcing a binary frame: ``{"binary": N}`` means
#: "exactly N raw payload bytes follow this line".
BINARY_KEY = "binary"

#: Reserved key under which :func:`read_message` attaches a binary frame's
#: payload bytes to the decoded header.  Never travels inside the JSON
#: line itself — a peer that sends it literally is violating the framing.
PAYLOAD_KEY = "_payload"


class ProtocolError(ValueError):
    """A peer violated the framing rules (oversized line, bad JSON, ...)."""


def encode_message(message: Dict[str, Any]) -> bytes:
    """Serialise one message to its wire form (JSON + newline)."""
    data = json.dumps(message, sort_keys=True, separators=(",", ":")).encode("utf-8")
    if len(data) + 1 > MAX_MESSAGE_BYTES:
        raise ProtocolError(
            f"message of {len(data)} bytes exceeds the {MAX_MESSAGE_BYTES} byte limit"
        )
    return data + b"\n"


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one wire line back into a message dict."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ProtocolError(f"message is not valid JSON: {error}") from None
    if not isinstance(message, dict):
        raise ProtocolError("message must be a JSON object")
    return message


def encode_binary(message: Dict[str, Any], payload: bytes) -> bytes:
    """Serialise one binary frame: header line + raw payload bytes.

    ``message`` must not already carry the reserved :data:`BINARY_KEY` /
    :data:`PAYLOAD_KEY` keys; the payload length is declared for the
    reader.  The header line obeys :data:`MAX_MESSAGE_BYTES`, the payload
    obeys the separate :data:`MAX_BINARY_BYTES` bound.
    """
    if BINARY_KEY in message or PAYLOAD_KEY in message:
        raise ProtocolError(
            f"message must not carry the reserved {BINARY_KEY!r}/{PAYLOAD_KEY!r} keys"
        )
    payload = bytes(payload)
    if len(payload) > MAX_BINARY_BYTES:
        raise ProtocolError(
            f"binary payload of {len(payload)} bytes exceeds the "
            f"MAX_BINARY_BYTES limit of {MAX_BINARY_BYTES} bytes"
        )
    header = encode_message({**message, BINARY_KEY: len(payload)})
    return header + payload


def _declared_payload_length(message: Dict[str, Any]) -> Optional[int]:
    """Validate and return a header's declared payload length (or None)."""
    if PAYLOAD_KEY in message:
        raise ProtocolError(f"reserved key {PAYLOAD_KEY!r} inside a wire message")
    if BINARY_KEY not in message:
        return None
    declared = message[BINARY_KEY]
    if isinstance(declared, bool) or not isinstance(declared, int):
        raise ProtocolError(f"binary length must be an integer, got {declared!r}")
    if declared < 0:
        raise ProtocolError(f"binary length must be non-negative, got {declared}")
    if declared > MAX_BINARY_BYTES:
        raise ProtocolError(
            f"binary payload of {declared} bytes exceeds the "
            f"{MAX_BINARY_BYTES} byte limit"
        )
    return declared


async def read_message(reader: asyncio.StreamReader) -> Optional[Dict[str, Any]]:
    """Read one framed message; ``None`` on clean end-of-stream.

    The caller must have opened the stream with ``limit=MAX_MESSAGE_BYTES``
    (:func:`open_connection` and every server in the repository do), so an
    oversized line surfaces here as a :class:`ProtocolError` rather than
    unbounded buffering.

    A header declaring ``{"binary": N}`` is followed by exactly ``N`` raw
    payload bytes, attached to the returned message under
    :data:`PAYLOAD_KEY`.  The declared length is validated against
    :data:`MAX_BINARY_BYTES` *before* any payload byte is buffered, and a
    payload cut short by a dying peer raises :class:`ProtocolError`
    immediately — malformed binary frames can never hang the reader.
    """
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as error:
        if not error.partial:
            return None
        raise ProtocolError("connection closed mid-message") from None
    except asyncio.LimitOverrunError:
        raise ProtocolError(
            f"message exceeds the {MAX_MESSAGE_BYTES} byte limit"
        ) from None
    message = decode_message(line)
    declared = _declared_payload_length(message)
    if declared is None:
        return message
    try:
        payload = await reader.readexactly(declared)
    except asyncio.IncompleteReadError:
        raise ProtocolError("connection closed mid-payload") from None
    message[PAYLOAD_KEY] = payload
    return message


# ----------------------------------------------------------------------
# Array payload codec (the canonical binary-frame payload)
# ----------------------------------------------------------------------
def _check_dtype(dtype: np.dtype) -> None:
    """Refuse dtypes whose ``dtype.str`` cannot describe them faithfully.

    Object dtypes would smuggle pickles past the framing's trust boundary;
    zero-itemsize, structured and subarray dtypes do not survive a
    ``dtype.str`` round trip (``np.frombuffer`` rejects the first, the
    others lose their fields or shape).
    """
    if dtype.hasobject:
        raise ProtocolError("object dtypes cannot cross the wire as raw buffers")
    if dtype.itemsize == 0:
        raise ProtocolError(f"zero-itemsize dtype {dtype.str!r} cannot cross the wire")
    if dtype.fields is not None or dtype.subdtype is not None:
        raise ProtocolError(f"structured dtype {dtype} cannot cross the wire")


def pack_arrays(arrays: Sequence[np.ndarray]) -> Tuple[List[Dict[str, Any]], bytes]:
    """Pack NumPy arrays into dtype/shape specs plus one contiguous payload.

    Returns ``(specs, payload)`` where ``specs`` is a JSON-safe list of
    ``{"dtype": ..., "shape": [...]}`` entries (rides in the binary-frame
    header) and ``payload`` is the arrays' raw C-order bytes, concatenated
    in order.  Object, zero-itemsize and structured dtypes are rejected.
    """
    specs: List[Dict[str, Any]] = []
    buffers: List[bytes] = []
    for array in arrays:
        if not isinstance(array, np.ndarray):
            raise ProtocolError(f"pack_arrays expects ndarrays, got {type(array).__name__}")
        _check_dtype(array.dtype)
        specs.append({"dtype": array.dtype.str, "shape": list(array.shape)})
        buffers.append(array.tobytes())
    return specs, b"".join(buffers)


def unpack_arrays(specs: Sequence[Dict[str, Any]], payload: bytes) -> List[np.ndarray]:
    """Reconstruct :func:`pack_arrays` output zero-copy from the payload.

    The returned arrays are views over ``payload`` (read-only for a
    ``bytes`` payload).  Any inconsistency — bad dtype string, negative or
    non-integer shape, payload length not matching the specs — raises
    :class:`ProtocolError`.
    """
    if not isinstance(specs, (list, tuple)):
        raise ProtocolError("array specs must be a list")
    arrays: List[np.ndarray] = []
    offset = 0
    for spec in specs:
        if not isinstance(spec, dict):
            raise ProtocolError("array spec must be an object")
        dtype_text, shape = spec.get("dtype"), spec.get("shape")
        if not isinstance(dtype_text, str) or not isinstance(shape, list):
            raise ProtocolError(f"bad array spec {spec!r:.200}")
        if not all(type(n) is int and n >= 0 for n in shape):
            raise ProtocolError(f"bad array shape {shape!r:.200}")
        try:
            dtype = np.dtype(dtype_text)
        except (TypeError, ValueError) as error:
            raise ProtocolError(f"bad array dtype {dtype_text!r:.80}: {error}") from None
        _check_dtype(dtype)
        count = 1
        for n in shape:
            count *= n
        nbytes = count * dtype.itemsize
        if offset + nbytes > len(payload):
            raise ProtocolError(
                f"array payload of {len(payload)} bytes is shorter than its specs declare"
            )
        try:
            array = np.frombuffer(payload, dtype=dtype, count=count, offset=offset)
            arrays.append(array.reshape(shape))
        except ValueError as error:  # e.g. more dimensions than NumPy supports
            raise ProtocolError(f"bad array spec {spec!r:.200}: {error}") from None
        offset += nbytes
    if offset != len(payload):
        raise ProtocolError(
            f"array payload carries {len(payload) - offset} undeclared trailing bytes"
        )
    return arrays


# ----------------------------------------------------------------------
# Value codec (nested values: a JSON skeleton over one array payload)
# ----------------------------------------------------------------------
#: Python types a skeleton carries as themselves (JSON scalars).
_JSON_SCALARS = (bool, int, float, str)


def pack_values(value: Any) -> Tuple[Any, List[Dict[str, Any]], bytes]:
    """Pack a nested value into ``(skeleton, specs, payload)``.

    ``skeleton`` is a JSON-safe tree that mirrors ``value``; its arrays
    are replaced by references into :func:`pack_arrays` ``(specs,
    payload)``.  Nodes:

    * ``None``, ``bool``, ``int``, ``float``, ``str`` and ``list`` travel as
      themselves, except a NaN ``float``: ``{"nan": i}`` keeps its sign and
      payload bits in a 0-d array, which JSON's ``NaN`` would drop;
    * ``{"tuple": [...]}``; ``{"dict": [[key, value], ...]}`` (str keys,
      insertion order kept);
    * ``{"array": i}`` for a non-object ndarray and ``{"scalar": i}`` for a
      NumPy scalar (a 0-d array, decoded back to the same scalar type);
      array references ``i`` count up from 0 in traversal order;
    * ``{"dataclass": ["module:QualName", {field: value, ...}]}`` for a
      dataclass defined in a ``repro`` module.

    Types are matched exactly (a subclass such as a namedtuple or an
    ``OrderedDict`` is not its base), so a value decodes to the types it
    was packed from.  Anything else raises :class:`ProtocolError`.

    >>> skeleton, specs, payload = pack_values({"n": 3, "x": (np.float64(0.5), None)})
    >>> skeleton
    {'dict': [['n', 3], ['x', {'tuple': [{'scalar': 0}, None]}]]}
    >>> specs, len(payload)
    ([{'dtype': '<f8', 'shape': []}], 8)
    >>> unpack_values(skeleton, specs, payload)
    {'n': 3, 'x': (np.float64(0.5), None)}
    """
    arrays: List[np.ndarray] = []

    def skeleton_of(node: Any) -> Any:
        kind = type(node)
        if kind is float and node != node:
            arrays.append(np.array(node))
            return {"nan": len(arrays) - 1}
        if node is None or kind in _JSON_SCALARS:
            return node
        if kind is list:
            return [skeleton_of(item) for item in node]
        if kind is tuple:
            return {"tuple": [skeleton_of(item) for item in node]}
        if kind is dict:
            if not all(type(key) is str for key in node):
                raise ProtocolError("dict keys must be str to cross the wire")
            return {"dict": [[key, skeleton_of(item)] for key, item in node.items()]}
        if kind is np.ndarray or isinstance(node, np.generic):
            arrays.append(np.asarray(node))
            return {"array" if kind is np.ndarray else "scalar": len(arrays) - 1}
        if dataclasses.is_dataclass(node) and not isinstance(node, type):
            name = f"{kind.__module__}:{kind.__qualname__}"
            if _repro_dataclass(name) is not kind:
                raise ProtocolError(f"class {name!r} cannot be found by its name")
            fields = {
                field.name: skeleton_of(getattr(node, field.name))
                for field in dataclasses.fields(node)
            }
            return {"dataclass": [name, fields]}
        raise ProtocolError(f"{kind.__module__}.{kind.__qualname__} values cannot cross the wire")

    try:
        skeleton = skeleton_of(value)
    except RecursionError:
        raise ProtocolError("value nests too deeply to cross the wire") from None
    specs, payload = pack_arrays(arrays)
    return skeleton, specs, payload


def _repro_dataclass(name: Any) -> type:
    """Resolve ``"module:QualName"`` to a dataclass of a loaded repro module.

    Looks the module up in ``sys.modules`` and never imports: a peer can
    only name classes this process already has.
    """
    if not isinstance(name, str):
        raise ProtocolError("dataclass name must be a string")
    module_name, _, qualname = name.partition(":")
    if module_name != "repro" and not module_name.startswith("repro."):
        raise ProtocolError(f"class {name!r:.120} is outside the repro package")
    target: Any = sys.modules.get(module_name)
    if target is None:
        raise ProtocolError(f"module {module_name!r:.120} is not imported")
    for part in qualname.split("."):
        target = getattr(target, part, None)
    if not (
        isinstance(target, type)
        and dataclasses.is_dataclass(target)
        and target.__module__ == module_name
        and target.__qualname__ == qualname
    ):
        raise ProtocolError(f"{name!r:.120} does not name a repro dataclass")
    return target


def unpack_values(skeleton: Any, specs: Sequence[Dict[str, Any]], payload: bytes) -> Any:
    """Rebuild a :func:`pack_values` value.

    Arrays come back as owned, aligned, writable copies (as a local call
    would return them), NumPy scalars as their scalar type, dataclasses
    with their fields set directly (no ``__init__`` or ``__post_init__``
    runs).  Any malformed skeleton or spec raises :class:`ProtocolError`.
    """
    arrays = unpack_arrays(specs, payload)
    used = 0

    def build(node: Any) -> Any:
        nonlocal used
        kind = type(node)
        if node is None or kind in _JSON_SCALARS:
            return node
        if kind is list:
            return [build(item) for item in node]
        if kind is not dict or len(node) != 1:
            raise ProtocolError(f"malformed value node {node!r:.120}")
        [(tag, body)] = node.items()
        if tag in ("array", "scalar", "nan"):
            if type(body) is not int or body != used or used >= len(arrays):
                raise ProtocolError(f"array reference {body!r:.40} out of order")
            used += 1
            if tag == "array":
                return np.array(arrays[body])
            if arrays[body].ndim != 0:
                raise ProtocolError(f"{tag} reference {body} is not 0-d")
            if tag == "scalar":
                return arrays[body][()]
            if arrays[body].dtype != np.float64 or arrays[body] == arrays[body]:
                raise ProtocolError(f"nan reference {body} is not a float64 NaN")
            return float(arrays[body][()])
        if tag == "tuple" and type(body) is list:
            return tuple(build(item) for item in body)
        if tag == "dict" and type(body) is list:
            result: Dict[str, Any] = {}
            for pair in body:
                if not (type(pair) is list and len(pair) == 2 and type(pair[0]) is str):
                    raise ProtocolError(f"malformed dict entry {pair!r:.120}")
                if pair[0] in result:
                    raise ProtocolError(f"duplicate dict key {pair[0]!r:.80}")
                result[pair[0]] = build(pair[1])
            return result
        if tag == "dataclass" and type(body) is list and len(body) == 2:
            cls = _repro_dataclass(body[0])
            fields = dataclasses.fields(cls)
            values = body[1]
            if type(values) is not dict or set(values) != {field.name for field in fields}:
                raise ProtocolError(f"fields of {body[0]!r:.120} do not match the class")
            instance = cls.__new__(cls)
            for field in fields:
                object.__setattr__(instance, field.name, build(values[field.name]))
            return instance
        raise ProtocolError(f"malformed value node {node!r:.120}")

    try:
        value = build(skeleton)
    except RecursionError:
        raise ProtocolError("value skeleton nests too deeply") from None
    if used != len(arrays):
        raise ProtocolError(f"{len(arrays) - used} array specs are never referenced")
    return value


async def open_connection(
    host: str,
    port: int,
    timeout: Optional[float] = None,
    limit: int = MAX_MESSAGE_BYTES,
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open a framed stream, retrying with backoff while ``timeout`` lasts.

    With ``timeout=None`` this is a single connection attempt.  With a
    timeout, connection failures (typically ``ConnectionRefusedError`` from
    a server that is still binding its socket) are retried with exponential
    backoff until the deadline, then the last error propagates.  This is
    what lets a client start concurrently with the server it talks to —
    cluster workers racing their coordinator, test clients racing a
    subprocess ``python -m repro serve`` — without a flaky first connect.
    """
    if timeout is None:
        return await asyncio.open_connection(host, port, limit=limit)
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout
    delay = 0.05
    while True:
        try:
            return await asyncio.open_connection(host, port, limit=limit)
        except OSError:
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise
            await asyncio.sleep(min(delay, remaining))
            delay = min(delay * 2.0, 1.0)
