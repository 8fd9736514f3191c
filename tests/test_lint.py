"""repro.lint — framework, the six checkers, suppressions, baseline, CLI.

Every rule gets a violating fixture module (tmp-path) and its compliant
twin; the acceptance contract — flipping a guarded invariant makes
``python -m repro lint`` exit non-zero with the right rule id — is
demonstrated here, not by hand.  The final class lints the *real*
``src/`` tree and requires it clean against the committed baseline.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.lint import ALL_CHECKERS, RULES, Baseline, Finding, run_lint
from repro.lint.checkers import load_protocol_vocabulary
from repro.lint.core import parse_suppressions
from repro.runtime.cli import main as cli_main

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
BASELINE = REPO_ROOT / "lint-baseline.json"


def lint_source(tmp_path, source, name="module.py", subdir=""):
    """Write ``source`` to a tmp module and lint it with every rule."""
    directory = tmp_path / subdir if subdir else tmp_path
    directory.mkdir(parents=True, exist_ok=True)
    target = directory / name
    target.write_text(textwrap.dedent(source), encoding="utf-8")
    return run_lint([target])


def rules_of(result):
    return sorted({finding.rule for finding in result.findings})


# ----------------------------------------------------------------------
# REPRO-ASYNC01 — blocking calls in async bodies
# ----------------------------------------------------------------------
class TestAsyncSafety:
    def test_time_sleep_in_async_def_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time

            async def handler():
                time.sleep(1.0)
            """,
        )
        assert rules_of(result) == ["REPRO-ASYNC01"]
        assert "asyncio.sleep" in result.findings[0].message

    def test_asyncio_sleep_is_quiet(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import asyncio

            async def handler():
                await asyncio.sleep(1.0)
            """,
        )
        assert result.findings == []

    @pytest.mark.parametrize(
        "call",
        [
            "socket.create_connection(('h', 1))",
            "subprocess.run(['ls'])",
            "subprocess.check_output(['ls'])",
            "open('f.txt')",
            "future.result()",
            "path.read_text()",
        ],
    )
    def test_blocking_calls_fire(self, tmp_path, call):
        result = lint_source(
            tmp_path,
            f"""
            import socket, subprocess

            async def handler(future, path):
                return {call}
            """,
        )
        assert rules_of(result) == ["REPRO-ASYNC01"]

    def test_from_time_import_sleep_alias_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from time import sleep as snooze

            async def handler():
                snooze(0.1)
            """,
        )
        assert rules_of(result) == ["REPRO-ASYNC01"]

    def test_sync_nested_def_is_an_executor_boundary(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time

            async def handler(loop):
                def blocking():
                    time.sleep(1.0)  # runs on the executor, not the loop
                await loop.run_in_executor(None, blocking)
            """,
        )
        assert result.findings == []

    def test_sleep_outside_async_is_quiet(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time

            def worker_loop():
                time.sleep(1.0)
            """,
        )
        assert result.findings == []

    def test_result_with_timeout_is_quiet(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            async def handler(future):
                return future.result(10)
            """,
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# REPRO-DET01 — unseeded randomness in solver paths
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_legacy_np_random_in_circuits_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import numpy as np

            def noise():
                return np.random.rand(8)
            """,
            subdir="circuits",
        )
        assert rules_of(result) == ["REPRO-DET01"]
        assert "np.random.rand" in result.findings[0].message

    def test_argless_default_rng_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import numpy as np

            def build():
                return np.random.default_rng()
            """,
            subdir="core",
        )
        assert rules_of(result) == ["REPRO-DET01"]

    def test_seeded_generator_idiom_is_quiet(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import numpy as np

            def shard(seed, samples):
                children = np.random.SeedSequence(seed).spawn(samples)
                return [np.random.default_rng(child) for child in children]
            """,
            subdir="dnn",
        )
        assert result.findings == []

    def test_stdlib_random_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import random

            def jitter():
                return random.random()
            """,
            subdir="eventsim",
        )
        assert rules_of(result) == ["REPRO-DET01"]

    def test_from_random_import_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from random import choice

            def pick(items):
                return choice(items)
            """,
            subdir="converters",
        )
        assert rules_of(result) == ["REPRO-DET01"]

    def test_outside_solver_packages_is_out_of_scope(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import numpy as np

            def noise():
                return np.random.rand(8)
            """,
            subdir="benchmarks",
        )
        assert result.findings == []


# ----------------------------------------------------------------------
# REPRO-WIRE01 — pickle outside the allowlisted shim
# ----------------------------------------------------------------------
class TestWireSafety:
    def test_pickle_loads_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import pickle

            def decode(blob):
                return pickle.loads(blob)
            """,
        )
        assert rules_of(result) == ["REPRO-WIRE01"]
        assert "repro/cluster/protocol.py" in result.findings[0].message

    def test_from_pickle_import_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from pickle import dumps

            def encode(obj):
                return dumps(obj)
            """,
        )
        assert rules_of(result) == ["REPRO-WIRE01"]

    def test_the_allowlisted_shim_path_is_exempt(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import pickle

            def decode(blob):
                return pickle.loads(blob)
            """,
            name="protocol.py",
            subdir="repro/cluster",
        )
        assert result.findings == []

    def test_allow_pickle_true_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import numpy as np

            def read(path):
                return np.load(path, allow_pickle=True)
            """,
        )
        assert rules_of(result) == ["REPRO-WIRE01"]

    def test_allow_pickle_false_is_quiet(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import numpy as np

            def read(path):
                return np.load(path, allow_pickle=False)
            """,
        )
        assert result.findings == []

    def test_frombuffer_outside_the_codecs_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import numpy as np

            def decode(blob):
                return np.frombuffer(blob, dtype=np.float64)
            """,
        )
        assert rules_of(result) == ["REPRO-WIRE01"]
        assert "unpack_arrays" in result.findings[0].message

    def test_from_numpy_import_frombuffer_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from numpy import frombuffer

            def decode(blob):
                return frombuffer(blob, dtype="<f8")
            """,
        )
        assert rules_of(result) == ["REPRO-WIRE01"]

    _FROMBUFFER_SOURCE = """
        import numpy as np

        def decode(blob):
            return np.frombuffer(blob, dtype=np.uint8)
        """

    @pytest.mark.parametrize("name, subdir", [("wire.py", "repro")])
    def test_the_validated_codecs_are_exempt(self, tmp_path, name, subdir):
        result = lint_source(tmp_path, self._FROMBUFFER_SOURCE, name=name, subdir=subdir)
        assert result.findings == []

    def test_the_artifact_cache_is_not_exempt(self, tmp_path):
        """The artifact cache decodes through repro.wire like everything else."""
        result = lint_source(
            tmp_path, self._FROMBUFFER_SOURCE, name="cache.py", subdir="repro/runtime"
        )
        assert rules_of(result) == ["REPRO-WIRE01"]

    def test_shipped_shim_really_is_the_only_pickle_surface(self):
        """The allowlist is not aspirational: linting src finds no
        pickle call outside the shim — and no raw-buffer decoding
        outside the validated codec (WIRE01 never appears over src)."""
        result = run_lint([SRC])
        assert "REPRO-WIRE01" not in rules_of(result)


# ----------------------------------------------------------------------
# REPRO-ERR01 — silent broad exception swallows
# ----------------------------------------------------------------------
class TestSilentFailure:
    @pytest.mark.parametrize(
        "handler",
        ["except Exception:", "except BaseException:", "except:",
         "except (ValueError, Exception):"],
    )
    def test_silent_broad_handler_fires(self, tmp_path, handler):
        result = lint_source(
            tmp_path,
            f"""
            def fragile():
                try:
                    work()
                {handler}
                    pass
            """,
        )
        assert rules_of(result) == ["REPRO-ERR01"]

    @pytest.mark.parametrize(
        "body",
        [
            "raise",
            "log.warning('boom: %s', error)",
            "errors.inc()",
            "failures.append(error)",
            "return fallback()",
        ],
    )
    def test_handler_that_does_something_is_quiet(self, tmp_path, body):
        result = lint_source(
            tmp_path,
            f"""
            def fragile(log, errors, failures, fallback):
                try:
                    work()
                except Exception as error:
                    {body}
            """,
        )
        assert result.findings == []

    def test_narrow_handler_is_quiet(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def probe(path):
                try:
                    return path.stat()
                except FileNotFoundError:
                    pass
            """,
        )
        assert result.findings == []

    def test_bare_constant_return_still_counts_as_silent(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def fragile():
                try:
                    return work()
                except Exception:
                    return None
            """,
        )
        assert rules_of(result) == ["REPRO-ERR01"]


# ----------------------------------------------------------------------
# REPRO-OBS01 — metric naming at construction sites
# ----------------------------------------------------------------------
class TestMetricsNaming:
    def test_bad_name_on_registry_factory_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from repro.obs import REGISTRY

            JOBS = REGISTRY.counter("jobs_executed")
            """,
        )
        assert rules_of(result) == ["REPRO-OBS01"]
        assert "repro_[a-z_]+_(total|bytes|seconds|ratio)" in result.findings[0].message

    def test_bad_name_on_direct_constructor_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from repro.obs import Counter, Gauge

            A = Counter("repro_engine_jobs")      # missing unit suffix
            B = Gauge("repro_cache_bytes")        # fine
            """,
        )
        assert rules_of(result) == ["REPRO-OBS01"]
        assert len(result.findings) == 1

    def test_conforming_names_are_quiet(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from repro import obs

            JOBS = obs.counter("repro_demo_jobs_total", "Jobs.", labels=("op",))
            SIZE = obs.gauge("repro_demo_cache_bytes")
            TIME = obs.histogram("repro_demo_run_seconds")
            """,
        )
        assert result.findings == []

    def test_bad_label_name_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from repro import obs

            JOBS = obs.counter("repro_demo_jobs_total", labels=("Op-Kind",))
            """,
        )
        assert rules_of(result) == ["REPRO-OBS01"]

    def test_unrelated_counter_calls_are_ignored(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            from collections import Counter as Multiset

            def tally(words, clock):
                counts = clock.counter("ticks")   # not a metrics registry
                return Multiset(words)
            """,
        )
        # collections.Counter("ticks") via alias and a non-registry
        # receiver: neither is a metric construction site.
        assert result.findings == []

    def test_pattern_is_pinned_to_the_runtime_registry_rule(self):
        """The checker's regex must be the one repro.obs enforces."""
        from repro.lint.checkers.metrics_naming import (
            LABEL_NAME_PATTERN,
            METRIC_NAME_PATTERN,
        )
        from repro.obs.metrics import LABEL_NAME_RE, METRIC_NAME_RE

        assert METRIC_NAME_PATTERN == METRIC_NAME_RE.pattern
        assert LABEL_NAME_PATTERN == LABEL_NAME_RE.pattern


# ----------------------------------------------------------------------
# REPRO-PROTO01 — frame-type literals vs the protocol constants
# ----------------------------------------------------------------------
class TestProtocolFrames:
    def test_unknown_op_in_dict_literal_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def request():
                return {"op": "frobnicate", "id": "r1"}
            """,
        )
        assert rules_of(result) == ["REPRO-PROTO01"]
        assert '"frobnicate"' in result.findings[0].message

    def test_typo_at_match_site_fires(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def dispatch(message):
                if message.get("event") == "chunk-done":   # typo: underscore
                    return True
            """,
        )
        assert rules_of(result) == ["REPRO-PROTO01"]

    def test_documented_frames_are_quiet(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def roundtrip(message):
                request = {"op": "submit", "id": "r1"}
                event = message.get("event")
                if event in ("accepted", "progress", "result", "error"):
                    return request
                if message.get("op") == "chunk_done":
                    return {"event": "welcome"}
            """,
        )
        assert result.findings == []

    def test_membership_tuple_is_checked_elementwise(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def classify(op):
                return op in ("status", "ping", "bogus_op")
            """,
        )
        assert rules_of(result) == ["REPRO-PROTO01"]
        assert '"bogus_op"' in result.findings[0].message

    def test_match_statement_cases_are_checked(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def dispatch(message):
                op = message.get("op")
                match op:
                    case "submit" | "cancel":
                        return 1
                    case "banana":
                        return 2
            """,
        )
        assert rules_of(result) == ["REPRO-PROTO01"]
        assert '"banana"' in result.findings[0].message

    def test_service_files_use_the_service_vocabulary(self, tmp_path):
        # "hello" is a cluster op; inside the service package it is a
        # violation even though the union vocabulary knows it.
        result = lint_source(
            tmp_path,
            """
            def request():
                return {"op": "hello"}
            """,
            subdir="service",
        )
        assert rules_of(result) == ["REPRO-PROTO01"]
        assert "service protocol" in result.findings[0].message

    def test_vocabulary_is_harvested_from_the_shipped_constants(self):
        from repro.cluster import protocol as cluster_protocol
        from repro.service import protocol as service_protocol

        vocabulary = load_protocol_vocabulary()
        assert vocabulary["service"]["op"] == set(service_protocol.SERVICE_OPS)
        assert vocabulary["service"]["event"] == set(
            service_protocol.SERVICE_EVENTS
        )
        assert vocabulary["cluster"]["op"] == set(
            cluster_protocol.WORKER_OPS
        ) | set(cluster_protocol.CONTROL_OPS)
        assert vocabulary["cluster"]["event"] == set(
            cluster_protocol.COORDINATOR_EVENTS
        )

    def test_gateway_vocabulary_is_harvested_from_routes_module(self):
        from repro import gateway

        vocabulary = load_protocol_vocabulary()
        assert vocabulary["gateway"]["event"] == set(gateway.SSE_EVENTS)
        assert vocabulary["gateway"]["route"] == set(gateway.ROUTES)
        assert vocabulary["any"]["route"] == set(gateway.ROUTES)
        assert set(gateway.SSE_EVENTS) <= vocabulary["any"]["event"]

    def test_unknown_route_shaped_literal_fires_anywhere(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def link():
                return "GET /v1/sweeps/{id}/resutl"   # typo'd route
            """,
        )
        assert rules_of(result) == ["REPRO-PROTO01"]
        assert "route table" in result.findings[0].message

    def test_declared_routes_and_raw_request_lines_are_quiet(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            def requests():
                table = ("POST /v1/sweeps", "GET /healthz")
                raw = "GET /metrics HTTP/1.0"   # request line, not a route
                return table, raw
            """,
        )
        assert result.findings == []

    def test_gateway_files_use_the_sse_vocabulary(self, tmp_path):
        # "accepted" is a service event; inside the gateway package the
        # event vocabulary is the SSE stream's.
        result = lint_source(
            tmp_path,
            """
            def frame(event):
                if event == "accepted":
                    return 1
                return event in ("snapshot", "progress", "obs", "done")
            """,
            subdir="gateway",
        )
        assert rules_of(result) == ["REPRO-PROTO01"]
        assert '"accepted"' in result.findings[0].message


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
class TestSuppressions:
    def test_each_rule_is_suppressible_inline(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time, pickle

            async def handler(blob):
                time.sleep(1)  # repro: ignore[REPRO-ASYNC01] -- test fixture
                return pickle.loads(blob)  # repro: ignore[REPRO-WIRE01] -- test fixture
            """,
        )
        assert result.findings == []
        assert result.suppressed == 2

    def test_suppression_is_rule_specific(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import time

            async def handler():
                time.sleep(1)  # repro: ignore[REPRO-WIRE01] -- wrong rule id
            """,
        )
        assert rules_of(result) == ["REPRO-ASYNC01"]

    def test_star_suppresses_everything_on_the_line(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import pickle

            def decode(blob):
                return pickle.loads(blob)  # repro: ignore[*] -- fixture
            """,
        )
        assert result.findings == []

    def test_suppression_only_covers_its_own_line(self, tmp_path):
        result = lint_source(
            tmp_path,
            """
            import pickle

            def decode(blob):
                first = pickle.loads(blob)  # repro: ignore[REPRO-WIRE01] -- one
                return pickle.loads(first)
            """,
        )
        assert len(result.findings) == 1
        assert result.findings[0].line == 6

    def test_parse_suppressions_formats(self):
        parsed = parse_suppressions(
            "x = 1  # repro: ignore[REPRO-DET01, REPRO-ERR01] -- reason\n"
            "y = 2  # repro: ignore[*]\n"
            "z = 3  # unrelated comment\n"
        )
        assert parsed == {1: {"REPRO-DET01", "REPRO-ERR01"}, 2: {"*"}}


# ----------------------------------------------------------------------
# Baseline round-trip
# ----------------------------------------------------------------------
class TestBaseline:
    def test_round_trip_absorbs_recorded_findings(self, tmp_path):
        target = tmp_path / "legacy.py"
        target.write_text(
            "import pickle\n\ndef decode(blob):\n    return pickle.loads(blob)\n"
        )
        findings = run_lint([target]).findings
        assert len(findings) == 1
        baseline_path = tmp_path / "baseline.json"
        Baseline.from_findings(findings).write(baseline_path)

        reloaded = Baseline.load(baseline_path)
        fresh, absorbed = reloaded.filter(run_lint([target]).findings)
        assert fresh == [] and absorbed == 1

    def test_line_moves_stay_absorbed_but_duplicates_do_not(self, tmp_path):
        target = tmp_path / "legacy.py"
        target.write_text(
            "import pickle\n\ndef decode(blob):\n    return pickle.loads(blob)\n"
        )
        baseline = Baseline.from_findings(run_lint([target]).findings)
        # Push the finding down the file: still absorbed.
        target.write_text(
            "import pickle\n\nPAD = 1\n\n\ndef decode(blob):\n"
            "    return pickle.loads(blob)\n"
        )
        fresh, absorbed = baseline.filter(run_lint([target]).findings)
        assert fresh == [] and absorbed == 1
        # A second identical violation exceeds the recorded multiplicity.
        target.write_text(
            "import pickle\n\ndef decode(blob):\n    return pickle.loads(blob)\n"
            "\n\ndef decode2(blob):\n    return pickle.loads(blob)\n"
        )
        fresh, absorbed = baseline.filter(run_lint([target]).findings)
        assert len(fresh) == 1 and absorbed == 1

    def test_missing_baseline_is_empty(self, tmp_path):
        baseline = Baseline.load(tmp_path / "nope.json")
        target = tmp_path / "legacy.py"
        target.write_text("import pickle\n\ndef decode(blob):\n    return pickle.loads(blob)\n")
        findings = run_lint([target]).findings
        assert findings and baseline.filter(findings) == (findings, 0)

    def test_malformed_baseline_raises(self, tmp_path):
        bad = tmp_path / "baseline.json"
        bad.write_text('{"version": 99, "findings": []}')
        with pytest.raises(ValueError):
            Baseline.load(bad)


# ----------------------------------------------------------------------
# CLI: exit codes, formats, --rule, --write-baseline
# ----------------------------------------------------------------------
class TestCli:
    def _violation(self, tmp_path):
        target = tmp_path / "bad.py"
        target.write_text(
            "import time\n\nasync def handler():\n    time.sleep(1)\n"
        )
        return target

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        clean = tmp_path / "ok.py"
        clean.write_text("import asyncio\n\nasync def h():\n    await asyncio.sleep(1)\n")
        assert cli_main(["lint", str(clean), "--no-baseline"]) == 0

    def test_exit_one_with_rule_id_on_violation(self, tmp_path, capsys):
        target = self._violation(tmp_path)
        code = cli_main(["lint", str(target), "--no-baseline"])
        captured = capsys.readouterr()
        assert code == 1
        assert "REPRO-ASYNC01" in captured.out
        assert f"{target.as_posix()}:4:" in captured.out

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        target = self._violation(tmp_path)
        code = cli_main(["lint", str(target), "--no-baseline", "--format", "json"])
        document = json.loads(capsys.readouterr().out)
        assert code == 1
        assert document["files_checked"] == 1
        assert document["findings"][0]["rule"] == "REPRO-ASYNC01"
        assert document["findings"][0]["line"] == 4
        assert sorted(document["rules"]) == sorted(RULES)

    def test_rule_filter_restricts_the_run(self, tmp_path):
        target = self._violation(tmp_path)
        assert cli_main(["lint", str(target), "--no-baseline", "--rule", "REPRO-DET01"]) == 0
        assert cli_main(["lint", str(target), "--no-baseline", "--rule", "REPRO-ASYNC01"]) == 1

    def test_unknown_rule_is_a_usage_error(self, tmp_path, capsys):
        assert cli_main(["lint", str(tmp_path), "--rule", "REPRO-NOPE"]) == 2

    def test_missing_path_is_a_usage_error(self, tmp_path, capsys):
        assert cli_main(["lint", str(tmp_path / "absent")]) == 2

    def test_write_baseline_then_clean_gate(self, tmp_path, capsys):
        target = self._violation(tmp_path)
        baseline = tmp_path / "baseline.json"
        assert cli_main(["lint", str(target), "--baseline", str(baseline), "--write-baseline"]) == 0
        assert cli_main(["lint", str(target), "--baseline", str(baseline)]) == 0
        # A *new* violation in the same tree still fails the gate.
        second = tmp_path / "worse.py"
        second.write_text("import pickle\n\ndef d(b):\n    return pickle.loads(b)\n")
        code = cli_main(["lint", str(tmp_path), "--baseline", str(baseline)])
        captured = capsys.readouterr()
        assert code == 1
        assert "REPRO-WIRE01" in captured.out
        assert "baselined" in captured.err

    def test_list_rules_names_every_checker(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule in out

    def test_module_entry_point_subprocess(self, tmp_path):
        """The acceptance-criteria invocation, end to end."""
        target = self._violation(tmp_path)
        process = subprocess.run(
            [sys.executable, "-m", "repro", "lint", str(target), "--no-baseline"],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
            cwd=str(tmp_path),
        )
        assert process.returncode == 1
        assert "REPRO-ASYNC01" in process.stdout

    def test_syntax_error_reports_parse_finding(self, tmp_path, capsys):
        broken = tmp_path / "broken.py"
        broken.write_text("def nope(:\n")
        assert cli_main(["lint", str(broken), "--no-baseline"]) == 1
        assert "REPRO-PARSE" in capsys.readouterr().out


# ----------------------------------------------------------------------
# Self-check: the shipped tree is clean
# ----------------------------------------------------------------------
class TestShippedTree:
    def test_src_is_clean_against_the_committed_baseline(self):
        result = run_lint([SRC])
        baseline = Baseline.load(BASELINE)
        fresh, _ = baseline.filter(result.findings)
        assert fresh == [], "lint findings outside the committed baseline:\n" + "\n".join(
            finding.format_text() for finding in fresh
        )

    def test_committed_baseline_is_empty(self):
        """The satellite contract: fixes landed with the checkers, so the
        shipped baseline grandfathers nothing."""
        assert json.loads(BASELINE.read_text(encoding="utf-8"))["findings"] == []

    def test_flipping_an_invariant_fails_the_gate(self, tmp_path):
        """Acceptance criterion: reintroduce each guarded violation into a
        copy of a real source file and the gate must go non-zero with the
        right rule id."""
        flips = {
            "REPRO-ASYNC01": (
                SRC / "repro/httpd.py",
                "    request_line = await _read_line(reader, timeout)",
                "    import time; time.sleep(0.5)\n"
                "    request_line = await _read_line(reader, timeout)",
            ),
            "REPRO-DET01": (
                SRC / "repro/circuits/mismatch.py",
                "        self._rng = np.random.default_rng(seed)",
                "        self._rng = np.random.default_rng(seed)\n"
                "        self._noise = np.random.rand(4)",
            ),
            "REPRO-WIRE01": (
                SRC / "repro/wire.py",
                "import json",
                "import json\nimport pickle\n_eager = pickle.loads(b'')",
            ),
        }
        for rule, (origin, needle, replacement) in flips.items():
            source = origin.read_text(encoding="utf-8")
            assert needle in source, f"flip anchor moved in {origin}"
            mutated = tmp_path / origin.relative_to(SRC)
            mutated.parent.mkdir(parents=True, exist_ok=True)
            mutated.write_text(source.replace(needle, replacement), encoding="utf-8")
            result = run_lint([mutated])
            assert rule in rules_of(result), f"{rule} did not fire on the flip"

    def test_every_checker_has_rule_and_description(self):
        assert len(ALL_CHECKERS) == 6
        for checker in ALL_CHECKERS:
            assert checker.rule.startswith("REPRO-")
            assert checker.description

    def test_finding_text_format_is_clickable(self):
        finding = Finding("src/x.py", 3, 4, "REPRO-DET01", "boom")
        assert finding.format_text() == "src/x.py:3:4: REPRO-DET01 boom"
