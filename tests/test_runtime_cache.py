"""Tests for content hashing and the on-disk artifact cache.

Covers hash stability across processes, invalidation when the technology
card / operating conditions / plan / code version change, corrupt-artifact
recovery (fuzzed over random, truncated and bit-flipped files), leftover
``.npz`` files of older builds, and warm characterisation runs that never
touch the reference solver.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro
import repro.runtime.jobs as jobs_module
from repro import wire
from repro.circuits.conditions import OperatingConditions
from repro.circuits.technology import ProcessCorner, tsmc65_like
from repro.core.characterization import CharacterizationPlan, characterize
from repro.multiplier.config import MultiplierConfig
from repro.runtime import (
    ArtifactCache,
    SweepEngine,
    code_version,
    default_cache_dir,
    fingerprint,
    job_key,
)

_SUBPROCESS_KEY_SCRIPT = """\
from repro.circuits.technology import tsmc65_like
from repro.core.characterization import CharacterizationPlan
from repro.runtime import job_key
print(job_key("char-base", tsmc65_like(), CharacterizationPlan.quick()))
"""


class TestFingerprint:
    def test_stable_within_process(self):
        technology = tsmc65_like()
        plan = CharacterizationPlan.quick()
        assert fingerprint(technology, plan) == fingerprint(technology, plan)

    def test_stable_across_processes(self):
        """Keys never depend on hash randomisation, id() or repr caprice."""
        local = job_key("char-base", tsmc65_like(), CharacterizationPlan.quick())
        env = dict(os.environ)
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
        env["PYTHONHASHSEED"] = "271828"  # force a different hash seed
        remote = subprocess.run(
            [sys.executable, "-c", _SUBPROCESS_KEY_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
        assert remote == local

    def test_technology_change_invalidates(self):
        base = tsmc65_like()
        assert fingerprint(base) != fingerprint(base.scaled(vth_nominal=0.36))
        assert fingerprint(base) != fingerprint(base.scaled(bitline_capacitance=51e-15))

    def test_plan_change_invalidates(self):
        quick = CharacterizationPlan.quick()
        bigger = CharacterizationPlan.quick()
        bigger = type(bigger)(
            times=quick.times,
            wordline_voltages=quick.wordline_voltages,
            supply_voltages=(0.9, 1.0),
            temperatures_celsius=quick.temperatures_celsius,
            mismatch_wordline_voltages=quick.mismatch_wordline_voltages,
            mismatch_samples=quick.mismatch_samples,
        )
        assert fingerprint(quick) != fingerprint(bigger)

    def test_conditions_change_invalidates(self):
        nominal = OperatingConditions(vdd=1.0, temperature=300.15)
        assert fingerprint(nominal) != fingerprint(nominal.with_vdd(1.05))
        assert fingerprint(nominal) != fingerprint(nominal.with_temperature(310.0))
        assert fingerprint(nominal) != fingerprint(
            nominal.with_corner(ProcessCorner.FAST)
        )

    def test_code_version_change_invalidates(self, monkeypatch):
        key_before = job_key("tag", 1)
        monkeypatch.setattr(jobs_module, "_CODE_VERSION", "0.0.0+deadbeef")
        assert job_key("tag", 1) != key_before

    def test_code_version_includes_source_digest(self):
        version = code_version()
        assert version.startswith(repro.__version__ + "+")
        assert len(version.split("+", 1)[1]) == 16

    def test_array_and_container_support(self):
        array = np.linspace(0.0, 1.0, 7)
        assert fingerprint(array) == fingerprint(array.copy())
        assert fingerprint(array) != fingerprint(array[:-1])
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
        assert fingerprint((1, 2)) == fingerprint([1, 2])
        assert fingerprint(np.float64(0.1)) == fingerprint(0.1)

    def test_unfingerprintable_value_raises(self):
        class Opaque:
            pass

        with pytest.raises(TypeError):
            fingerprint(Opaque())


def _frame(header, payload=b""):
    return json.dumps(header).encode("utf-8") + b"\n" + payload


def _valid_frame():
    skeleton, specs, payload = wire.pack_values(
        {"x": np.arange(4.0), "n": 3, "config": MultiplierConfig()}
    )
    return wire.encode_binary({"values": skeleton, "arrays": specs}, payload)


_VALID_FRAME = _valid_frame()
_F8 = {"dtype": "<f8", "shape": [1]}

#: Fixed undecodable files, one per way a file can be broken.
_CORRUPT_FILES = {
    "not-a-frame": b"this is not an npz archive",
    "empty": b"",
    "bad-json": b"{not json\n",
    "header-not-object": b"[1, 2]\n",
    "deep-nesting": b"[" * 100_000 + b"\n",
    "no-declared-length": _frame({"values": 1, "arrays": []}),
    "length-over-payload": _frame(
        {"values": {"array": 0}, "arrays": [_F8], "binary": 9}, b"\0" * 8
    ),
    "torn-payload": _VALID_FRAME[:-5],
    "trailing-bytes": _VALID_FRAME + b"\0",
    "malformed-skeleton": _frame({"values": {"bogus": 0}, "arrays": [], "binary": 0}),
    "unreferenced-spec": _frame({"values": 1, "arrays": [_F8], "binary": 8}, b"\0" * 8),
    "unparsable-dtype": _frame(
        {"values": {"array": 0}, "arrays": [{"dtype": "0)", "shape": [1]}], "binary": 8},
        b"\0" * 8,
    ),
    "malformed-spec": _frame(
        {"values": {"array": 0}, "arrays": [{"dtype": "O", "shape": [1]}], "binary": 8},
        b"\0" * 8,
    ),
    "no-value": _frame({"values": None, "arrays": [], "binary": 0}),
    "class-outside-repro": _frame(
        {"values": {"dataclass": ["os:stat_result", {}]}, "arrays": [], "binary": 0}
    ),
    "module-not-imported": _frame(
        {"values": {"dataclass": ["repro.not_a_module:Thing", {}]}, "arrays": [], "binary": 0}
    ),
}

#: JSON trees for fuzzed headers: plausible-looking skeletons and specs.
_JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 40)
    | st.sampled_from(
        ["array", "scalar", "nan", "tuple", "dict", "dataclass", "<f8", "|u1", "x"]
    ),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(
        st.sampled_from(["array", "tuple", "dict", "dataclass", "dtype", "shape"]),
        children,
        max_size=2,
    ),
    max_leaves=12,
)

#: Random, truncated, bit-flipped and fuzzed-header artifact files.
_FUZZED_FILES = st.one_of(
    st.binary(max_size=256),
    st.integers(0, len(_VALID_FRAME) - 1).map(lambda n: _VALID_FRAME[:n]),
    st.tuples(st.integers(0, len(_VALID_FRAME) - 1), st.integers(0, 7)).map(
        lambda flip: _VALID_FRAME[: flip[0]]
        + bytes([_VALID_FRAME[flip[0]] ^ (1 << flip[1])])
        + _VALID_FRAME[flip[0] + 1 :]
    ),
    st.tuples(_JSON, _JSON, st.integers(-2, 40), st.binary(max_size=40)).map(
        lambda parts: _frame(
            {"values": parts[0], "arrays": parts[1], "binary": parts[2]}, parts[3]
        )
    ),
)


def _read_planted(data):
    """Plant ``data`` as an artifact file and read it back through ``get``.

    An undecodable file must be a corrupt miss: counted, deleted, never
    raised, and the key works again afterwards.
    """
    with tempfile.TemporaryDirectory() as root:
        cache = ArtifactCache(root)
        key = job_key("corrupt-me")
        path = cache.path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(data)
        value = cache.get(key)
        if value is None:
            assert not path.exists(), "a corrupt artifact must be deleted"
            assert cache.stats.corrupt_dropped == 1 and cache.stats.misses == 1
            cache.put(key, np.arange(3.0))
            np.testing.assert_array_equal(cache.get(key), np.arange(3.0))
        else:
            assert path.exists() and cache.stats.hits == 1
            assert cache.stats.corrupt_dropped == 0
        return value


class TestArtifactCache:
    def test_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = job_key("test-artifact", 1)
        value = {
            "x": np.arange(5.0),
            "y": np.ones((2, 3), dtype=np.float32),
            "meta": {"label": "toy", "count": 5, "ratio": np.float64(0.5)},
            "config": MultiplierConfig(),
        }
        path = cache.put(key, value)
        assert path.exists() and path.suffix == ".frame"
        assert cache.has(key)
        loaded = cache.get(key)
        assert list(loaded) == list(value)
        for name in ("x", "y"):
            assert loaded[name].dtype == value[name].dtype
            np.testing.assert_array_equal(loaded[name], value[name])
        assert loaded["meta"] == value["meta"]
        assert type(loaded["meta"]["ratio"]) is np.float64
        assert loaded["config"] == value["config"]
        assert cache.stats.hits == 1 and cache.stats.writes == 1

    def test_file_is_one_wire_value_frame(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        path = cache.put(job_key("frame-format"), (np.arange(3), "label"))
        frame = wire.decode_binary(path.read_bytes())
        assert set(frame) == {"values", "arrays", wire.BINARY_KEY, wire.PAYLOAD_KEY}
        value = wire.unpack_values(frame["values"], frame["arrays"], frame[wire.PAYLOAD_KEY])
        assert value[1] == "label"
        np.testing.assert_array_equal(value[0], np.arange(3))

    def test_unpackable_and_none_values_are_refused(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(wire.ProtocolError):
            cache.put(job_key("unpackable"), {1: "int keys cannot cross the wire"})
        with pytest.raises(ValueError):
            cache.put(job_key("none"), None)
        assert len(cache) == 0 and list(cache.root.rglob("*.tmp")) == []

    def test_missing_key_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.get(job_key("nothing")) is None
        assert cache.stats.misses == 1

    @settings(max_examples=300, deadline=None)
    @given(_FUZZED_FILES)
    @example(_CORRUPT_FILES["not-a-frame"])
    def test_corrupt_artifact_recovery(self, data):
        """Random, truncated, bit-flipped and fuzzed-header files either
        decode (a flip inside an array's bytes leaves a valid frame) or are
        corrupt misses; ``get`` never raises."""
        _read_planted(data)

    @pytest.mark.parametrize("case", sorted(_CORRUPT_FILES))
    def test_undecodable_file_is_a_corrupt_miss(self, case):
        assert _read_planted(_CORRUPT_FILES[case]) is None

    def test_every_truncation_is_a_corrupt_miss(self):
        for length in range(len(_VALID_FRAME)):
            assert _read_planted(_VALID_FRAME[:length]) is None, length

    def test_intact_frame_is_a_hit(self):
        value = _read_planted(_VALID_FRAME)
        np.testing.assert_array_equal(value["x"], np.arange(4.0))
        assert value["config"] == MultiplierConfig()

    def test_invalid_key_rejected(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(ValueError):
            cache.path_for("../escape")
        with pytest.raises(ValueError):
            cache.path_for("")

    def test_len_size_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        for index in range(3):
            cache.put(job_key("bulk", index), np.arange(4.0))
        assert len(cache) == 3
        assert cache.size_bytes() > 0
        assert set(cache.keys()) == {job_key("bulk", i) for i in range(3)}
        assert cache.clear() == 3
        assert len(cache) == 0
        assert "artifact cache" in cache.describe()

    def test_default_cache_dir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "override"))
        assert default_cache_dir() == tmp_path / "override"
        assert ArtifactCache().root == tmp_path / "override"


class TestCharacterizationCaching:
    def test_warm_run_skips_reference_solver(self, technology, tmp_path, monkeypatch):
        """A warm cache serves every sweep without constructing the solver."""
        plan = CharacterizationPlan.quick()
        engine = SweepEngine(cache=ArtifactCache(tmp_path))
        cold = characterize(technology, plan, engine=engine)

        class ExplodingSolver:
            def __init__(self, *args, **kwargs):
                raise AssertionError("reference solver touched on a warm cache run")

        import repro.core.characterization as characterization_module

        monkeypatch.setattr(characterization_module, "TransientSolver", ExplodingSolver)
        warm = characterize(technology, plan, engine=engine)
        np.testing.assert_array_equal(
            cold.base.bitline_voltage, warm.base.bitline_voltage
        )
        np.testing.assert_array_equal(
            cold.supply.bitline_voltage, warm.supply.bitline_voltage
        )
        np.testing.assert_array_equal(cold.mismatch.sigma, warm.mismatch.sigma)
        np.testing.assert_array_equal(
            cold.discharge_energy.energy, warm.discharge_energy.energy
        )
        assert engine.stats.cache_hits > 0

    def test_technology_change_misses_cache(self, technology, tmp_path):
        plan = CharacterizationPlan.quick()
        cache = ArtifactCache(tmp_path)
        characterize(technology, plan, engine=SweepEngine(cache=cache))
        writes_before = cache.stats.writes
        assert writes_before > 0
        characterize(
            technology.scaled(vth_nominal=0.36, name="shifted"),
            plan,
            engine=SweepEngine(cache=cache),
        )
        assert cache.stats.writes == 2 * writes_before, (
            "a different technology card must not reuse cached sweeps"
        )

    def test_injected_solver_disables_caching(self, technology, solver, tmp_path):
        plan = CharacterizationPlan.quick()
        cache = ArtifactCache(tmp_path)
        characterize(technology, plan, solver=solver, engine=SweepEngine(cache=cache))
        assert len(cache) == 0
        assert cache.stats.writes == 0


class TestFingerprintKeyTypes:
    def test_dict_key_type_collision_regression(self):
        """`{1: x}` and `{"1": x}` are distinct inputs and must not share a
        fingerprint (previously dict keys were stringified)."""
        assert fingerprint({1: "x"}) != fingerprint({"1": "x"})
        assert fingerprint({True: "x"}) != fingerprint({1: "x"})
        assert fingerprint({1.0: "x"}) != fingerprint({1: "x"})
        assert fingerprint({None: "x"}) != fingerprint({"None": "x"})

    def test_dict_key_order_still_canonical(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
        assert fingerprint({2: "x", 10: "y"}) == fingerprint({10: "y", 2: "x"})

    def test_mixed_key_types_are_stable(self):
        mixed = {1: "a", "1": "b", 2.5: "c"}
        assert fingerprint(mixed) == fingerprint(dict(reversed(list(mixed.items()))))


class TestLegacyNpzFiles:
    """``.npz`` files an older build wrote are never read, but they count
    against the footprint and are removed by clear() and evict()."""

    @staticmethod
    def _plant(cache, name, size=4096):
        shard = cache.root / "cd"
        shard.mkdir(parents=True, exist_ok=True)
        path = shard / name
        path.write_bytes(b"\0" * size)
        return path

    def test_counted_never_read_and_cleared(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = job_key("legacy", 0)
        cache.put(key, np.arange(4.0))
        clean_size = cache.size_bytes()
        old = self._plant(cache, "cd" * 32 + ".npz")
        old_tmp = self._plant(cache, "crashed.npz.tmp", size=1024)
        assert cache.size_bytes() == clean_size + 4096 + 1024
        assert len(cache) == 1 and cache.get("cd" * 32) is None
        assert old.exists() and cache.stats.corrupt_dropped == 0
        assert cache.clear() == 3
        assert not old.exists() and not old_tmp.exists()
        assert cache.size_bytes() == 0

    def test_evict_removes_legacy_files_first(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = job_key("legacy", 1)
        cache.put(key, np.arange(4.0))
        old = self._plant(cache, "cd" * 32 + ".npz")
        old_tmp = self._plant(cache, "in-flight.npz.tmp", size=512)
        assert cache.evict(max_bytes=10**9) == 2
        assert not old.exists() and not old_tmp.exists()
        assert cache.has(key) and cache.stats.evictions == 0

    def test_put_over_max_bytes_drops_legacy_bytes(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=4000)
        old = self._plant(cache, "cd" * 32 + ".npz")
        key = job_key("legacy", 2)
        cache.put(key, np.arange(4.0))
        assert not old.exists() and cache.has(key)
        assert cache.size_bytes() <= 4000


class TestStrayTmpFiles:
    def _plant_stale_tmp(self, cache, age_seconds=7200.0, size=2048):
        shard = cache.root / "ab"
        shard.mkdir(parents=True, exist_ok=True)
        tmp = shard / "crashed-put.frame.tmp"
        tmp.write_bytes(b"\0" * size)
        stale = time.time() - age_seconds
        os.utime(tmp, (stale, stale))
        return tmp

    def test_size_bytes_counts_stray_tmp_files(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(job_key("tmp-sweep", 0), np.arange(4.0))
        clean_size = cache.size_bytes()
        tmp = self._plant_stale_tmp(cache)
        assert cache.size_bytes() == clean_size + tmp.stat().st_size

    def test_clear_sweeps_stray_tmp_files(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.put(job_key("tmp-sweep", 1), np.arange(4.0))
        tmp = self._plant_stale_tmp(cache)
        assert cache.clear() == 2, "artifact + stray tmp file"
        assert not tmp.exists()
        assert cache.size_bytes() == 0

    def test_evict_sweeps_stale_tmp_but_not_fresh_ones(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        stale = self._plant_stale_tmp(cache)
        fresh = cache.root / "ab" / "in-flight.frame.tmp"
        fresh.write_bytes(b"\0" * 512)  # recent: could be an in-flight put
        cache.evict(max_bytes=10**9)
        assert not stale.exists()
        assert fresh.exists()

    def test_failed_put_cleans_its_tmp_file(self, tmp_path, monkeypatch):
        cache = ArtifactCache(tmp_path)
        monkeypatch.setattr(
            os, "replace", lambda *a, **k: (_ for _ in ()).throw(OSError("disk full"))
        )
        with pytest.raises(OSError):
            cache.put(job_key("fail-put"), np.arange(2.0))
        assert list(cache.root.glob("*/*.tmp")) == []


class TestLruEviction:
    def _put(self, cache, tag, index, age_seconds):
        key = job_key(tag, index)
        path = cache.put(key, np.zeros(256))
        stamp = time.time() - age_seconds
        os.utime(path, (stamp, stamp))
        return key

    def test_evict_removes_least_recently_used_first(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        oldest = self._put(cache, "lru", 0, age_seconds=300)
        middle = self._put(cache, "lru", 1, age_seconds=200)
        newest = self._put(cache, "lru", 2, age_seconds=100)
        per_artifact = cache.size_bytes() // 3
        removed = cache.evict(max_bytes=2 * per_artifact)
        assert removed == 1
        assert not cache.has(oldest)
        assert cache.has(middle) and cache.has(newest)
        assert cache.stats.evictions == 1

    def test_get_bumps_recency(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        touched = self._put(cache, "bump", 0, age_seconds=300)
        untouched = self._put(cache, "bump", 1, age_seconds=200)
        assert cache.get(touched) is not None  # refreshes atime+mtime
        per_artifact = cache.size_bytes() // 2
        cache.evict(max_bytes=per_artifact)
        assert cache.has(touched), "a cache hit must protect against eviction"
        assert not cache.has(untouched)

    def test_put_auto_evicts_over_max_bytes(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=1)  # every put overflows
        first = self._put(cache, "auto", 0, age_seconds=100)
        second_key = job_key("auto", 1)
        cache.put(second_key, np.zeros(256))
        assert cache.has(second_key), "the artifact just written must survive"
        assert not cache.has(first)
        assert cache.stats.evictions == 1

    def test_max_bytes_enforced_after_put(self, tmp_path):
        cache = ArtifactCache(tmp_path, max_bytes=6500)
        keys = []
        for index in range(8):
            keys.append(job_key("bound", index))
            path = cache.put(keys[-1], np.zeros(256))
            stamp = time.time() - (100 - index)  # strictly increasing recency
            os.utime(path, (stamp, stamp))
            assert cache.size_bytes() <= 6500
        assert cache.has(keys[-1])
        survivors = set(cache.keys())
        assert survivors == set(keys[-len(survivors):]), "eviction is LRU-ordered"

    def test_surviving_artifact_still_serves_warm_runs(self, tmp_path):
        """Eviction of cold artifacts must not invalidate surviving ones."""
        cache = ArtifactCache(tmp_path)
        evicted = self._put(cache, "warm", 0, age_seconds=300)
        survivor = self._put(cache, "warm", 1, age_seconds=100)
        per_artifact = cache.size_bytes() // 2
        cache.evict(max_bytes=per_artifact)
        executions = []

        def producer(value):
            executions.append(value)
            return np.zeros(256)

        engine = SweepEngine(cache=cache)
        job = jobs_module.Job(
            fn=producer,
            args=(1,),
            name="warm",
            key=survivor,
        )
        engine.run_one(job)
        assert executions == [], "surviving artifact must serve the warm run"
        assert not cache.has(evicted)

    def test_evict_without_limit_raises(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(ValueError):
            cache.evict()

    def test_negative_max_bytes_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ArtifactCache(tmp_path, max_bytes=-1)

    def test_describe_reports_limit(self, tmp_path):
        assert "unbounded" in ArtifactCache(tmp_path).describe()
        assert "limit" in ArtifactCache(tmp_path, max_bytes=10**6).describe()
