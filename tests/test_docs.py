"""Documentation health checks: links resolve, doctest examples run.

Run in CI by the docs job (see ``.github/workflows/ci.yml``): every
relative link in README.md and docs/*.md must point at a real file, and
every ``>>>`` example in the public-API docstrings must execute — so the
documentation cannot silently rot as the code moves.
"""

from __future__ import annotations

import doctest
import pathlib
import re

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Markdown files whose links must resolve.
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")],
    key=lambda path: path.name,
)

#: Modules whose docstring examples must execute (the docstring-sweep
#: satellite added ``>>>`` examples to each).
DOCTEST_MODULES = [
    "repro.journal",
    "repro.runtime",
    "repro.runtime.cache",
    "repro.runtime.cli",
    "repro.runtime.executors",
    "repro.cluster.worker",
    "repro.cluster.control",
    "repro.cluster.protocol",
    "repro.wire",
    "repro.obs.metrics",
    "repro.obs.events",
    "repro.lint.core",
    "repro.lint.baseline",
    "repro.httpd",
    "repro.gateway.config",
    "repro.gateway.routes",
    "repro.gateway.sse",
    "repro.gateway.artifacts",
    "repro.dnn.imc_injection",
    "repro.dnn.network",
    "repro.dnn.quantization",
    "repro.circuits.mosfet",
    "repro.circuits.transient",
]

_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _relative_links(markdown: str):
    for target in _LINK.findall(markdown):
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        yield target.split("#", 1)[0]


class TestDocsTree:
    def test_docs_tree_exists(self):
        for name in (
            "architecture.md",
            "protocol.md",
            "operations.md",
            "scheduling.md",
            "observability.md",
            "lint.md",
            "gateway.md",
        ):
            assert (REPO_ROOT / "docs" / name).is_file(), f"docs/{name} missing"

    def test_readme_links_the_docs_tree(self):
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        for name in (
            "architecture.md",
            "protocol.md",
            "operations.md",
            "scheduling.md",
            "observability.md",
            "lint.md",
            "gateway.md",
        ):
            assert f"docs/{name}" in readme, f"README does not link docs/{name}"

    def test_architecture_links_scheduling(self):
        text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
        assert "scheduling.md" in text, "architecture.md does not link scheduling.md"

    @pytest.mark.parametrize("path", DOC_FILES, ids=lambda p: p.name)
    def test_relative_links_resolve(self, path):
        text = path.read_text(encoding="utf-8")
        broken = [
            target
            for target in _relative_links(text)
            if not (path.parent / target).exists()
        ]
        assert not broken, f"{path.name} has broken links: {broken}"

    def test_docs_describe_shipped_wire_behaviour(self):
        """The protocol spec must match the code's constants and codes."""
        from repro.service import protocol as service_protocol
        from repro.cluster import protocol as cluster_protocol

        spec = (REPO_ROOT / "docs" / "protocol.md").read_text(encoding="utf-8")
        assert f"PROTOCOL_VERSION = {service_protocol.PROTOCOL_VERSION}" in spec
        assert (
            f"CLUSTER_PROTOCOL_VERSION = {cluster_protocol.CLUSTER_PROTOCOL_VERSION}"
            in spec
        )
        for code in service_protocol.ERROR_CODES:
            assert f"`{code}`" in spec, f"error code {code} undocumented"
        for op in ("submit", "cancel", "status", "ping", "watch"):
            assert f'"op": "{op}"' in spec, f"service op {op} undocumented"
        # Service protocol v3 (observability): the watch stream's frames
        # and the trace field on accepted must be specified.
        for event in ("watching", "obs"):
            assert f'"event": "{event}"' in spec, f"service event {event} undocumented"
        assert '"trace"' in spec or "`trace`" in spec, "trace field undocumented"
        # Service v6: a submit carries exactly the documented fields.
        for field in service_protocol.SUBMIT_FIELDS:
            assert f'"{field}"' in spec, f"submit field {field} undocumented"
        accepted = service_protocol.accepted_event("r", "k", False, trace="t-1")
        assert accepted["trace"] == "t-1"
        assert service_protocol.watch_request("r")["op"] == "watch"
        assert service_protocol.obs_event("r", {"seq": 1})["data"] == {"seq": 1}
        # Cluster frame names must match the constructors in
        # repro.cluster.protocol.
        for op in ("chunk_done", "chunk_failed", "heartbeat"):
            assert f'"op": "{op}"' in spec, f"cluster op {op} undocumented"
        for event in ("chunk", "cancel", "welcome", "shutdown"):
            assert f'"event": "{event}"' in spec, f"cluster event {event} undocumented"
        # The spec's example frames must build with the real constructors.
        done, _ = cluster_protocol.chunk_done_frame("c1", [1, 2])
        assert done["count"] == 2
        assert "`count`" in spec or '"count"' in spec, "chunk_done count field undocumented"

    def test_docs_describe_binary_chunk_done_frame(self):
        """The binary-frame substrate, the cluster's one ``chunk_done``
        frame, its typed ``chunk_failed`` and the service's binary result
        frame must be specified with the shipped constants, and the spec's
        frames must build with the real constructors."""
        import numpy as np

        from repro import wire
        from repro.cluster import protocol as cluster_protocol
        from repro.service import protocol as service_protocol

        spec = (REPO_ROOT / "docs" / "protocol.md").read_text(encoding="utf-8")
        # The substrate: the header key and both bounds, as shipped.
        assert wire.BINARY_KEY == "binary"
        assert '"binary"' in spec, "binary header key undocumented"
        assert wire.MAX_BINARY_BYTES == 256 * 1024 * 1024
        assert "MAX_BINARY_BYTES" in spec, "binary payload bound undocumented"
        assert "MAX_MESSAGE_BYTES" in spec
        # Cluster v6: one chunk_done frame, built by the real constructor
        # from a nested result list, carrying exactly the documented fields.
        header, payload = cluster_protocol.chunk_done_frame(
            "c1", [np.zeros(2), {"k": 1}], trace="t-1"
        )
        assert set(header) == {"op", "chunk", "count", "values", "arrays", "trace"}
        for field in header:
            assert f'"{field}"' in spec, f"chunk_done field {field} undocumented"
        assert header["count"] == 2 and len(payload) == 16
        assert header["arrays"] == [{"dtype": "<f8", "shape": [2]}]
        for tag in ("tuple", "dict", "array", "scalar", "nan", "dataclass"):
            assert f'"{tag}"' in spec, f"value skeleton tag {tag} undocumented"
        frame = wire.encode_binary(header, payload)
        assert frame.split(b"\n", 1)[1] == payload
        failed = cluster_protocol.chunk_failed_request("c1", ValueError("x"))
        assert failed == {"op": "chunk_failed", "chunk": "c1", "type": "ValueError", "message": "x"}
        assert '"type"' in spec and '"message"' in spec, "typed chunk_failed undocumented"
        # Service v5: the binary result frame and its switch-over threshold.
        assert "RESULT_BINARY_BYTES" in spec, "result switch-over undocumented"
        assert service_protocol.RESULT_BINARY_BYTES == 256 * 1024
        result_header = service_protocol.result_header("r1", 0.5)
        assert result_header["event"] == "result" and "payload" not in result_header

    def test_protocol_vocabulary_constants_cover_the_spec(self):
        """The frame-vocabulary tuples (which pin the REPRO-PROTO01 lint
        rule) must agree with the frames the spec documents and the
        constructors actually emit."""
        from repro.service import protocol as service_protocol
        from repro.cluster import protocol as cluster_protocol

        assert set(service_protocol.SERVICE_OPS) == {
            "submit", "cancel", "status", "ping", "watch",
        }
        for event in ("accepted", "progress", "result", "error", "watching",
                      "obs", "pong", "status"):
            assert event in service_protocol.SERVICE_EVENTS
        # Constructor outputs are members of their vocabulary.
        assert (
            cluster_protocol.hello_request("n", 1, 2, "v")["op"]
            in cluster_protocol.WORKER_OPS
        )
        for event_message in (
            cluster_protocol.welcome_event("w", 1.0),
            cluster_protocol.cancel_event("c"),
            cluster_protocol.shutdown_event(),
            cluster_protocol.error_event("boom"),
        ):
            assert event_message["event"] in cluster_protocol.COORDINATOR_EVENTS

    def test_gateway_doc_matches_the_route_table(self):
        """docs/gateway.md is the wire-facing spec: every route in the
        table and every SSE event name must appear there, plus the
        headers/fields a client integrates against."""
        from repro.gateway.routes import ROUTES, SSE_EVENTS

        text = (REPO_ROOT / "docs" / "gateway.md").read_text(encoding="utf-8")
        for route in ROUTES:
            assert f"`{route}`" in text, f"route {route} undocumented"
        for event in SSE_EVENTS:
            assert f"`{event}`" in text, f"SSE event {event} undocumented"
        from repro.service import workload_names

        for name in workload_names():
            assert f"`{name}`" in text, f"workload {name} missing from the registry list"
        for needle in (
            "python -m repro gateway",
            "--spill-bytes",
            "--artifact-root",
            "X-Repro-Digest",
            "Last-Event-ID",
            "bad-request",
            "error_code",
        ):
            assert needle in text, f"gateway.md does not mention {needle}"

    def test_lint_doc_matches_the_shipped_rules(self):
        """docs/lint.md is the rule reference: every shipped rule id, the
        exit-code contract and the suppression syntax must be there, and
        the metric pattern quoted must be the enforced one."""
        from repro.lint import RULES
        from repro.obs.metrics import METRIC_NAME_RE

        text = (REPO_ROOT / "docs" / "lint.md").read_text(encoding="utf-8")
        for rule in RULES:
            assert f"`{rule}`" in text, f"rule {rule} undocumented in lint.md"
        for needle in (
            "python -m repro lint",
            "--write-baseline",
            "--format json",
            "--list-rules",
            "repro: ignore[",
            "lint-baseline.json",
            "REPRO-PARSE",
        ):
            assert needle in text, f"lint.md does not mention {needle}"
        assert METRIC_NAME_RE.pattern.strip("^$") in text

    def test_scheduling_doc_names_the_shipped_knobs(self):
        """The scheduler guide must reference the real flags and status
        fields, so it cannot silently rot as the code moves."""
        text = (REPO_ROOT / "docs" / "scheduling.md").read_text(encoding="utf-8")
        for needle in (
            "--chunksize",
            "queued_jobs",
            "chunks_retried",
            "chunks_refitted",
            "--throttle",
        ):
            assert needle in text, f"scheduling.md does not mention {needle}"

    def test_docs_do_not_mention_the_retired_chunk_window(self):
        """Static chunks are the cluster's only dispatch policy; no doc may
        still advertise the removed adaptive window option."""
        stale = [
            f"{path.name}: {needle}"
            for path in DOC_FILES
            for needle in ("--chunk-window", "chunk_window")
            if needle in path.read_text(encoding="utf-8")
        ]
        assert not stale, f"docs still mention the removed option: {stale}"

    def test_docs_do_not_mention_the_retired_priority_scheduler(self):
        """FIFO backlogs are the coordinator's only policy: no doc, and no
        ``run --help``, may still advertise the removed scheduling flags,
        split frames or scheduler metrics."""
        from repro.runtime.cli import build_parser

        # Spelled in pieces so a repository-wide search for the retired
        # names finds nothing.
        needles = ("--sched-class", "--sched-priority", "split" "_ack", "repro_" "sched_")
        stale = [
            f"{path.name}: {needle}"
            for path in DOC_FILES
            for needle in needles
            if needle in path.read_text(encoding="utf-8")
        ]
        assert not stale, f"docs still mention the retired scheduler: {stale}"
        run_parser = build_parser()._subparsers._group_actions[0].choices["run"]
        help_text = run_parser.format_help()
        assert "--sched-" not in help_text

    def test_docs_do_not_mention_the_removed_serving_options(self):
        """Completion callbacks, the submit rate limiter and the service
        thread option are gone; no doc may still advertise them."""
        stale = [
            f"{path.name}: {needle}"
            for path in DOC_FILES
            for needle in (
                "webhook", "--rate", "--burst", "retry_after", "--service-workers"
            )
            if needle in path.read_text(encoding="utf-8").lower()
        ]
        assert not stale, f"docs still mention removed options: {stale}"

    def test_documented_run_commands_name_run_workloads(self):
        """Every ``python -m repro run <name>`` in the docs names a workload
        the ``run`` parser offers (upper-case placeholders such as ``NAME``
        aside); ``a|b`` alternatives are checked one by one."""
        import argparse

        from repro.runtime.cli import build_parser

        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        run_parser = subparsers.choices["run"]
        choices = next(action.choices for action in run_parser._actions if action.dest == "workload")
        named = [
            (path.name, name)
            for path in DOC_FILES
            for match in re.finditer(
                r"python -m repro run\s+([a-z][\w|-]*)", path.read_text(encoding="utf-8")
            )
            for name in match.group(1).split("|")
        ]
        assert named, "no `python -m repro run <name>` found in the docs"
        stale = [f"{doc}: run {name}" for doc, name in named if name not in choices]
        assert not stale, f"docs name workloads `run` does not offer: {stale}"

    def test_documented_command_flags_exist(self):
        """Every ``--flag`` on a ``python -m repro <subcommand>`` command in
        the docs is an option of that subcommand's parser, so a doc cannot
        keep advertising a flag the CLI no longer has.  A command ends at
        its closing backtick, a ``#`` comment or the end of the line
        (backslash continuations are joined)."""
        import argparse

        from repro.runtime.cli import build_parser

        subparsers = next(
            action
            for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        checked, stale = 0, []
        for path in DOC_FILES:
            text = path.read_text(encoding="utf-8").replace("\\\n", " ")
            for line in text.splitlines():
                for match in re.finditer(r"python -m repro\s+([a-z][\w-]*)", line):
                    command = line[match.end():]
                    if line[: match.start()].count("`") % 2:
                        command = command.split("`", 1)[0]
                    command = command.split(" #", 1)[0]
                    name = match.group(1)
                    parser = subparsers.choices.get(name)
                    if parser is None:
                        stale.append(f"{path.name}: no subcommand {name!r}")
                        continue
                    options = {
                        option for action in parser._actions for option in action.option_strings
                    }
                    for flag in re.findall(r"(?<![\w-])--[a-z][\w-]*", command):
                        checked += 1
                        if flag not in options:
                            stale.append(f"{path.name}: {name} {flag}")
        assert checked, "no `python -m repro <subcommand> --flag` found in the docs"
        assert not stale, f"docs advertise options the CLI does not have: {stale}"

    def test_observability_doc_matches_the_registry(self):
        """docs/observability.md is a *reference*: every metric any tier
        registers and every event type must be documented, and the naming
        rule quoted there must be the enforced one."""
        import repro.runtime  # noqa: F401  (registers engine metrics)
        import repro.runtime.cache  # noqa: F401
        import repro.service.server  # noqa: F401
        import repro.cluster.worker  # noqa: F401
        import repro.obs.http  # noqa: F401
        import repro.gateway.server  # noqa: F401
        from repro import obs
        from repro.cluster.coordinator import Coordinator

        Coordinator()  # cluster counters register at first construction
        text = (REPO_ROOT / "docs" / "observability.md").read_text(encoding="utf-8")
        undocumented = [name for name in obs.REGISTRY.names() if name not in text]
        assert not undocumented, f"metrics missing from observability.md: {undocumented}"
        for event_type in obs.EVENT_TYPES:
            assert f"`{event_type}`" in text, f"event type {event_type} undocumented"
        # the naming rule in the doc is the one the registry enforces
        assert obs.METRIC_NAME_RE.pattern.strip("^$") in text
        # the watch frame schema: seq / ts / type / trace
        for field in ("`seq`", "`ts`", "`type`", "`trace`"):
            assert field in text, f"watch frame field {field} undocumented"
        # the advertised read paths
        for needle in ("--metrics-port", '"op": "watch"', "/metrics", "trace"):
            assert needle in text, f"observability.md does not mention {needle}"


class TestDoctests:
    @pytest.mark.parametrize("module_name", DOCTEST_MODULES)
    def test_docstring_examples_execute(self, module_name):
        import importlib

        module = importlib.import_module(module_name)
        results = doctest.testmod(module, verbose=False)
        assert results.attempted > 0, f"{module_name} lost its doctest examples"
        assert results.failed == 0

    def test_every_module_with_examples_is_listed(self):
        """A ``>>>`` example outside :data:`DOCTEST_MODULES` never runs."""
        source_root = REPO_ROOT / "src"
        with_examples = set()
        for path in (source_root / "repro").rglob("*.py"):
            if ">>>" not in path.read_text(encoding="utf-8"):
                continue
            parts = path.relative_to(source_root).with_suffix("").parts
            if parts[-1] == "__init__":
                parts = parts[:-1]
            with_examples.add(".".join(parts))
        unlisted = sorted(with_examples - set(DOCTEST_MODULES))
        assert not unlisted, f">>> examples missing from DOCTEST_MODULES: {unlisted}"
