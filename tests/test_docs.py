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
    "repro.sched",
    "repro.telemetry",
    "repro.runtime",
    "repro.runtime.cache",
    "repro.runtime.cli",
    "repro.runtime.executors",
    "repro.cluster.worker",
    "repro.cluster.control",
    "repro.obs.metrics",
    "repro.obs.events",
    "repro.lint.core",
    "repro.lint.baseline",
    "repro.httpd",
    "repro.gateway.config",
    "repro.gateway.routes",
    "repro.gateway.sse",
    "repro.gateway.artifacts",
    "repro.gateway.webhooks",
    "repro.dnn.imc_injection",
    "repro.dnn.network",
    "repro.circuits.mosfet",
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
        # Service protocol v4 (multi-tenant scheduling): the sched submit
        # field and the journal's pause/resume transitions are specified.
        assert '"sched"' in spec or "`sched`" in spec, "sched field undocumented"
        for transition in ("paused", "resumed"):
            assert f"`{transition}`" in spec, f"transition {transition} undocumented"
        accepted = service_protocol.accepted_event("r", "k", False, trace="t-1")
        assert accepted["trace"] == "t-1"
        assert service_protocol.watch_request("r")["op"] == "watch"
        assert service_protocol.obs_event("r", {"seq": 1})["data"] == {"seq": 1}
        # Cluster protocol v3 (adaptive scheduling): frame names must match
        # the constructors in repro.cluster.protocol.
        for op in ("chunk_done", "split_ack", "chunk_failed", "heartbeat"):
            assert f'"op": "{op}"' in spec, f"cluster op {op} undocumented"
        for event in ("split", "chunk", "cancel", "welcome", "shutdown"):
            assert f'"event": "{event}"' in spec, f"cluster event {event} undocumented"
        # The spec's example frames must build with the real constructors.
        split = cluster_protocol.split_event("c1", keep=0)
        assert split["event"] == "split" and split["keep"] == 0
        ack = cluster_protocol.split_ack_request("c1", kept=3)
        assert ack["op"] == "split_ack" and ack["kept"] == 3
        done, _ = cluster_protocol.chunk_done_frame("c1", [1, 2])
        assert done["count"] == 2
        assert '"kept"' in spec or "`kept`" in spec, "split_ack kept field undocumented"
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
        assert (
            cluster_protocol.split_ack_request("c", 1)["op"]
            in cluster_protocol.WORKER_OPS
        )
        for event_message in (
            cluster_protocol.welcome_event("w", 1.0),
            cluster_protocol.split_event("c", 0),
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
        for needle in (
            "python -m repro gateway",
            "--spill-bytes",
            "--artifact-root",
            "X-Repro-Signature",
            "X-Repro-Delivery-Attempt",
            "X-Repro-Digest",
            "Last-Event-ID",
            "verify_signature",
            "webhook_url",
            "error_code",
            "sched",
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
        """The scheduler guide must reference the real flags and telemetry
        fields, so it cannot silently rot as the code moves."""
        text = (REPO_ROOT / "docs" / "scheduling.md").read_text(encoding="utf-8")
        for needle in (
            "--chunk-window",
            "chunk_window",
            "throughput_jobs_per_s",
            "split",
            "--throttle",
            # multi-tenant scheduling (repro.sched)
            "--sched-class",
            "--sched-priority",
            "preempt",
            "bench_priority_scheduling.py",
        ):
            assert needle in text, f"scheduling.md does not mention {needle}"
        from repro.cluster.coordinator import SPLIT_AGE_FACTOR

        assert f"SPLIT_AGE_FACTOR = {SPLIT_AGE_FACTOR}" in text
        # the documented class vocabulary and default priorities are the
        # shipped ones
        from repro.sched import DEFAULT_PRIORITIES, JOB_CLASSES

        for job_class in JOB_CLASSES:
            assert f"`{job_class}`" in text, f"job class {job_class} undocumented"
        assert JOB_CLASSES == ("interactive", "batch")
        assert DEFAULT_PRIORITIES == {"interactive": 10, "batch": 0}

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
        import repro.gateway.webhooks  # noqa: F401
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
