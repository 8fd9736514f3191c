"""Fuzz and conformance tests for the binary wire framing (repro.wire).

The binary-frame rules under test:

* a JSON header line carrying ``{"binary": N}`` is followed by exactly
  ``N`` raw payload bytes, attached under ``wire.PAYLOAD_KEY``;
* the declared length is validated against ``MAX_BINARY_BYTES`` *before*
  any payload byte is buffered;
* every malformed input — torn payloads, bad declared lengths, reserved
  keys inside the JSON line — raises :class:`ProtocolError` promptly
  instead of hanging the reader or growing its buffer;
* :func:`pack_arrays` / :func:`unpack_arrays` round-trip NumPy arrays
  bit-exactly and reject inconsistent specs;
* :func:`pack_values` / :func:`unpack_values` round-trip nested values
  with their exact Python and NumPy types, and every malformed skeleton
  or spec raises :class:`ProtocolError`.
"""

import asyncio
import collections
import dataclasses
import json
import math
import struct
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import wire
from repro.multiplier.config import MultiplierConfig

#: Every read in this file is wrapped in a timeout: a reader that blocks on
#: malformed input is exactly the bug the suite exists to catch.
READ_TIMEOUT = 5.0


def _read_all(data: bytes, limit: int = wire.MAX_MESSAGE_BYTES):
    """Feed ``data`` + EOF into a fresh stream and read messages until EOF."""

    async def scenario():
        reader = asyncio.StreamReader(limit=limit)
        reader.feed_data(data)
        reader.feed_eof()
        messages = []
        while True:
            message = await asyncio.wait_for(
                wire.read_message(reader), timeout=READ_TIMEOUT
            )
            if message is None:
                return messages
            messages.append(message)

    return asyncio.run(scenario())


def _read_one(data: bytes, limit: int = wire.MAX_MESSAGE_BYTES):
    return _read_all(data, limit=limit)[0]


class TestBinaryRoundTrip:
    def test_payload_attached_under_reserved_key(self):
        frame = wire.encode_binary({"op": "blob", "chunk": 3}, b"\x00\x01\xffdata")
        message = _read_one(frame)
        assert message["op"] == "blob"
        assert message["chunk"] == 3
        assert message[wire.BINARY_KEY] == 7
        assert message[wire.PAYLOAD_KEY] == b"\x00\x01\xffdata"

    def test_zero_length_payload(self):
        frame = wire.encode_binary({"op": "empty"}, b"")
        message = _read_one(frame)
        assert message[wire.PAYLOAD_KEY] == b""

    def test_binary_and_text_frames_interleave_on_one_stream(self):
        stream = (
            wire.encode_message({"op": "a"})
            + wire.encode_binary({"op": "b"}, b"xyz")
            + wire.encode_message({"op": "c"})
        )
        messages = _read_all(stream)
        assert [m["op"] for m in messages] == ["a", "b", "c"]
        assert messages[1][wire.PAYLOAD_KEY] == b"xyz"
        assert wire.PAYLOAD_KEY not in messages[0]

    def test_payload_bytes_are_opaque_even_when_they_look_like_json(self):
        """JSON lines inside a declared payload are payload, not frames."""
        payload = wire.encode_message({"op": "smuggled"}) * 3
        stream = wire.encode_binary({"op": "outer"}, payload) + wire.encode_message(
            {"op": "after"}
        )
        messages = _read_all(stream)
        assert [m["op"] for m in messages] == ["outer", "after"]
        assert messages[0][wire.PAYLOAD_KEY] == payload

    @given(payload=st.binary(max_size=4096), extra=st.integers(min_value=0, max_value=32))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_any_payload(self, payload, extra):
        tail = wire.encode_message({"op": "tail", "n": extra})
        messages = _read_all(wire.encode_binary({"op": "fuzz"}, payload) + tail)
        assert messages[0][wire.PAYLOAD_KEY] == payload
        assert messages[1]["n"] == extra


class TestMalformedFrames:
    def test_torn_payload_raises_promptly(self):
        frame = wire.encode_binary({"op": "torn"}, b"x" * 100)
        with pytest.raises(wire.ProtocolError, match="mid-payload"):
            _read_one(frame[:-40])

    def test_declared_longer_than_actual(self):
        header = wire.encode_message({wire.BINARY_KEY: 1000})
        with pytest.raises(wire.ProtocolError, match="mid-payload"):
            _read_one(header + b"only-a-few-bytes")

    def test_declared_above_bound_rejected_before_buffering(self):
        header = wire.encode_message({wire.BINARY_KEY: wire.MAX_BINARY_BYTES + 1})
        with pytest.raises(wire.ProtocolError, match="exceeds"):
            # No payload follows at all: the length alone must be rejected.
            _read_one(header)

    def test_absurd_declared_length_needs_no_memory(self):
        header = wire.encode_message({wire.BINARY_KEY: 10**18})
        with pytest.raises(wire.ProtocolError, match="exceeds"):
            _read_one(header)

    @pytest.mark.parametrize("declared", [-1, -(10**9), True, False, 1.5, "12", None, [4]])
    def test_bad_declared_length_types(self, declared):
        line = json.dumps({"op": "x", wire.BINARY_KEY: declared}).encode() + b"\n"
        with pytest.raises(wire.ProtocolError):
            _read_one(line)

    def test_reserved_payload_key_inside_line_rejected(self):
        line = json.dumps({"op": "x", wire.PAYLOAD_KEY: "spoof"}).encode() + b"\n"
        with pytest.raises(wire.ProtocolError, match="reserved"):
            _read_one(line)

    def test_encode_binary_rejects_reserved_keys(self):
        with pytest.raises(wire.ProtocolError):
            wire.encode_binary({wire.BINARY_KEY: 1}, b"")
        with pytest.raises(wire.ProtocolError):
            wire.encode_binary({wire.PAYLOAD_KEY: b""}, b"")

    def test_encode_binary_rejects_oversize_payload(self, monkeypatch):
        monkeypatch.setattr(wire, "MAX_BINARY_BYTES", 16)
        with pytest.raises(wire.ProtocolError, match="exceeds"):
            wire.encode_binary({"op": "big"}, b"x" * 17)

    @given(data=st.binary(max_size=2048))
    @settings(max_examples=100, deadline=None)
    def test_arbitrary_bytes_never_hang(self, data):
        """Any byte stream either parses or raises ProtocolError — never hangs."""
        try:
            _read_all(data, limit=4096)
        except wire.ProtocolError:
            pass


class TestArrayCodec:
    @pytest.mark.parametrize(
        "dtype", ["<f8", "<f4", "<i8", "<i4", "<u2", "|u1", "<c16", "|b1"]
    )
    def test_round_trip_preserves_bytes_dtype_shape(self, dtype):
        rng = np.random.default_rng(11)
        arrays = [
            (rng.standard_normal((3, 4, 2)) * 100).astype(dtype),
            np.zeros(0, dtype=dtype),
            (rng.standard_normal(7) * 10).astype(dtype),
        ]
        specs, payload = wire.pack_arrays(arrays)
        restored = wire.unpack_arrays(specs, payload)
        assert len(restored) == len(arrays)
        for original, copy in zip(arrays, restored):
            assert copy.dtype == original.dtype
            assert copy.shape == original.shape
            assert copy.tobytes() == original.tobytes()

    def test_unpacked_arrays_are_zero_copy_views(self):
        array = np.arange(12, dtype=np.float64).reshape(3, 4)
        specs, payload = wire.pack_arrays([array])
        restored = wire.unpack_arrays(specs, payload)[0]
        assert restored.base is not None  # a view, not a copy
        assert not restored.flags.writeable

    def test_non_contiguous_input_is_packed_contiguously(self):
        array = np.arange(20, dtype=np.float64).reshape(4, 5)[:, ::2]
        specs, payload = wire.pack_arrays([array])
        restored = wire.unpack_arrays(specs, payload)[0]
        assert np.array_equal(restored, array)

    def test_rejects_non_arrays_and_object_dtypes(self):
        with pytest.raises(wire.ProtocolError):
            wire.pack_arrays([[1, 2, 3]])
        with pytest.raises(wire.ProtocolError):
            wire.pack_arrays([np.array([object()])])
        with pytest.raises(wire.ProtocolError):
            wire.unpack_arrays([{"dtype": "|O", "shape": [1]}], b"")

    def test_rejects_short_payload_and_trailing_bytes(self):
        specs, payload = wire.pack_arrays([np.arange(4, dtype=np.float64)])
        with pytest.raises(wire.ProtocolError, match="shorter"):
            wire.unpack_arrays(specs, payload[:-1])
        with pytest.raises(wire.ProtocolError, match="trailing"):
            wire.unpack_arrays(specs, payload + b"\x00")

    def test_rejects_malformed_specs(self):
        for spec in (
            "not-a-dict",
            {},
            {"dtype": "<f8"},
            {"dtype": "no-such-dtype", "shape": [1]},
            {"dtype": "<f8", "shape": [-1]},
            {"dtype": "<f8", "shape": "oops"},
            {"dtype": "|V0", "shape": [1]},
            {"dtype": "|S0", "shape": [1]},
            {"dtype": "<U0", "shape": [1]},
        ):
            with pytest.raises(wire.ProtocolError):
                wire.unpack_arrays([spec], b"\x00" * 8)

    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        count=st.integers(min_value=0, max_value=5),
    )
    @settings(max_examples=50, deadline=None)
    def test_fuzzed_arrays_survive_a_full_wire_trip(self, seed, count):
        rng = np.random.default_rng(seed)
        dtypes = ["<f8", "<f4", "<i8", "<i2", "|u1"]
        arrays = []
        for _ in range(count):
            shape = tuple(int(n) for n in rng.integers(0, 5, size=int(rng.integers(1, 4))))
            dtype = dtypes[int(rng.integers(0, len(dtypes)))]
            arrays.append((rng.standard_normal(shape) * 50).astype(dtype))
        specs, payload = wire.pack_arrays(arrays)
        frame = wire.encode_binary({"op": "arrays", "arrays": specs}, payload)
        message = _read_one(frame)
        restored = wire.unpack_arrays(message["arrays"], message[wire.PAYLOAD_KEY])
        for original, copy in zip(arrays, restored):
            assert copy.dtype == original.dtype
            assert copy.shape == original.shape
            assert copy.tobytes() == original.tobytes()


# ----------------------------------------------------------------------
# Value codec
# ----------------------------------------------------------------------
#: Dtypes the round trip draws arrays and NumPy scalars from.
_DTYPES = [
    np.dtype(text)
    for text in ("<f8", "<f4", ">f8", "<i8", "<i2", "|u1", "|b1", "<c16", "|S3", "<U2", "<M8[ns]")
]

_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=8),
    st.sampled_from(_DTYPES).flatmap(
        lambda dtype: hnp.arrays(dtype, hnp.array_shapes(min_dims=0, max_dims=3, max_side=3))
    ),
    st.sampled_from(_DTYPES).flatmap(hnp.from_dtype),
    st.builds(MultiplierConfig, tau0=st.floats(1e-12, 1e-9), name=st.text(max_size=4)),
)

_values = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
    ),
    max_leaves=12,
)


def _assert_same(expected, actual):
    """Equal with the same Python type, dtype, shape and bytes throughout."""
    assert type(actual) is type(expected)
    if isinstance(expected, (np.ndarray, np.generic)):
        assert actual.dtype == expected.dtype
        assert np.shape(actual) == np.shape(expected)
        assert np.asarray(actual).tobytes() == np.asarray(expected).tobytes()
    elif isinstance(expected, float):
        assert struct.pack("<d", actual) == struct.pack("<d", expected)
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected)
        for want, got in zip(expected, actual):
            _assert_same(want, got)
    elif isinstance(expected, dict):
        assert list(actual) == list(expected)  # insertion order kept
        for key in expected:
            _assert_same(expected[key], actual[key])
    elif dataclasses.is_dataclass(expected):
        for field in dataclasses.fields(expected):
            _assert_same(getattr(expected, field.name), getattr(actual, field.name))
    else:
        assert actual == expected


def _wire_trip(value):
    """Pack, ship through a real binary frame, unpack."""
    skeleton, specs, payload = wire.pack_values(value)
    message = _read_one(
        wire.encode_binary({"op": "values", "values": skeleton, "arrays": specs}, payload)
    )
    return wire.unpack_values(message["values"], message["arrays"], message[wire.PAYLOAD_KEY])


@dataclasses.dataclass
class _LocalRecord:
    """A dataclass outside the repro package: never crosses the wire."""

    value: int = 0


class TestValueCodec:
    @given(value=_values)
    @settings(max_examples=150, deadline=None)
    def test_round_trip_preserves_types_and_bytes(self, value):
        _assert_same(value, _wire_trip(value))

    def test_exact_types_survive(self):
        signed_nan = struct.unpack("<d", struct.pack("<Q", 0xFFF8000000000123))[0]
        value = {
            "f64": np.float64(0.1),
            "i8": np.int8(-3),
            "pair": (1, 2.5),
            "floats": [signed_nan, math.inf, -0.0],
            "big": 2**100,
            "config": MultiplierConfig(name="fom"),
            "empty": (np.zeros((0, 3)), [], {}, ()),
        }
        restored = _wire_trip(value)
        _assert_same(value, restored)
        assert type(restored["f64"]) is np.float64 and type(restored["pair"]) is tuple

    def test_decoded_arrays_are_owned_and_writable(self):
        restored = _wire_trip({"a": np.arange(3, dtype="|u1"), "b": np.arange(3.0)})
        for array in restored.values():
            assert array.flags.owndata and array.flags.writeable and array.flags.aligned

    @pytest.mark.parametrize(
        "value",
        [
            {1: "int key"},
            {1.5, 2.5},
            b"bytes",
            1j,
            np.array([object()]),
            np.zeros(2, dtype=[("a", "<f8")]),
            _LocalRecord(),
            collections.OrderedDict(a=1),
            MultiplierConfig,
        ],
    )
    def test_unsupported_values_refused(self, value):
        with pytest.raises(wire.ProtocolError):
            wire.pack_values(value)

    @pytest.mark.parametrize(
        "name",
        [
            "collections:OrderedDict",
            "tests.test_wire:_LocalRecord",
            "repro_evil:Thing",
            "repro.no_such_module:Thing",
            "repro.wire:ProtocolError",
            "repro.multiplier.config:MultiplierConfig.__class__",
            "repro.multiplier.config:dataclasses",
            17,
        ],
    )
    def test_non_repro_or_unknown_class_names_refused(self, name):
        with pytest.raises(wire.ProtocolError):
            wire.unpack_values({"dataclass": [name, {}]}, [], b"")
        assert "repro.no_such_module" not in sys.modules  # never imported

    @pytest.mark.parametrize(
        "skeleton, specs, payload",
        [
            ({"array": 0}, [], b""),
            ({"array": 1}, [{"dtype": "<f8", "shape": []}], b"\x00" * 8),
            ({"array": True}, [{"dtype": "<f8", "shape": []}], b"\x00" * 8),
            ([{"array": 0}, {"array": 0}], [{"dtype": "<f8", "shape": []}], b"\x00" * 8),
            (None, [{"dtype": "<f8", "shape": []}], b"\x00" * 8),
            ({"scalar": 0}, [{"dtype": "<f8", "shape": [1]}], b"\x00" * 8),
            ({"nan": 0}, [{"dtype": "<f8", "shape": []}], b"\x00" * 8),
            ({"nan": 0}, [{"dtype": "<f4", "shape": []}], b"\x00\x00\xc0\x7f"),
            ({"tuple": {}}, [], b""),
            ({"dict": [["a", 1], ["a", 2]]}, [], b""),
            ({"dict": [[1, 2]]}, [], b""),
            ({"dict": [["a"]]}, [], b""),
            ({"dict": {"a": 1}}, [], b""),
            ({"set": [1]}, [], b""),
            ({"tuple": [], "dict": []}, [], b""),
            ({}, [], b""),
            ({"dataclass": ["repro.multiplier.config:MultiplierConfig", {}]}, [], b""),
            ({"dataclass": ["repro.multiplier.config:MultiplierConfig"]}, [], b""),
            (1, "specs", b""),
            (1, None, b""),
        ],
    )
    def test_malformed_skeletons_and_specs_raise_protocol_error(self, skeleton, specs, payload):
        with pytest.raises(wire.ProtocolError):
            wire.unpack_values(skeleton, specs, payload)

    def test_deep_nesting_raises_protocol_error(self):
        deep = []
        for _ in range(100_000):
            deep = [deep]
        with pytest.raises(wire.ProtocolError):
            wire.pack_values(deep)
        with pytest.raises(wire.ProtocolError):
            wire.unpack_values(deep, [], b"")

    @given(
        skeleton=st.recursive(
            st.one_of(st.none(), st.booleans(), st.integers(-2, 3), st.floats(), st.text(max_size=4)),
            lambda children: st.one_of(
                st.lists(children, max_size=3),
                st.dictionaries(
                    st.sampled_from(["array", "scalar", "nan", "tuple", "dict", "dataclass", "x"]),
                    children,
                    max_size=2,
                ),
            ),
            max_leaves=10,
        ),
        specs=st.one_of(
            st.lists(
                st.fixed_dictionaries(
                    {},
                    optional={
                        "dtype": st.one_of(
                            st.sampled_from(
                                ["<f8", "|u1", "|V0", "|S0", "<U0", "(2,)f8", "|O", "V8", "bogus"]
                            ),
                            st.integers(),
                        ),
                        "shape": st.one_of(
                            st.lists(st.integers(-1, 3), max_size=3), st.text(max_size=2)
                        ),
                    },
                ),
                max_size=3,
            ),
            st.none(),
            st.integers(),
        ),
        payload=st.binary(max_size=32),
    )
    @settings(max_examples=300, deadline=None)
    def test_fuzzed_skeletons_and_specs_never_escape_protocol_error(
        self, skeleton, specs, payload
    ):
        """Whatever a peer sends, decoding returns a value or raises
        ProtocolError — never another exception type."""
        try:
            wire.unpack_values(skeleton, specs, payload)
        except wire.ProtocolError:
            pass
