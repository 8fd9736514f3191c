"""The benchmark's own tests.

From the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

They run every workload at a small size (one pair, one round, one
set-up), check the metric names and units against ``BENCHMARK.json``,
inject wrong outputs into each workload's checks, and check that a traced
``dnn_tables`` pass makes twelve ``train_network`` calls.  The file is not
named ``test_*.py``, so the repository's own test run does not collect it.
"""

from __future__ import annotations

import json
import pathlib
import re
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import dnn_tables  # noqa: E402
import harness  # noqa: E402
import inprocess  # noqa: E402
import paper_sweeps  # noqa: E402
import run as entry  # noqa: E402
import served_mix  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture
def small(monkeypatch):
    """One sample of everything: one pair, one round, one set-up."""
    monkeypatch.setattr(harness, "MIN_SAMPLES", 1)
    monkeypatch.setattr(harness, "SETUP_REPEATS", 1)
    monkeypatch.setattr(served_mix, "MIN_ROUNDS", 1)
    monkeypatch.setattr(served_mix, "SETUPS", 1)


def small_run(workload: str, trace: bool = False) -> harness.Run:
    run = harness.Run(workload, seed=3, seconds=0, trace=trace)
    run.layer_values = sys.modules[workload].run(run, ROOT)
    return run


# ----------------------------------------------------------------------
# Small runs of every workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workload", ["paper_sweeps", "dnn_tables", "served_mix"])
def test_small_run_reports_every_metric_and_passes_its_checks(small, workload):
    run = small_run(workload)
    assert run.failures == []
    assert run.attempted > 0 and run.failed == 0
    assert set(entry.END_TO_END) <= set(run.metrics)
    for name, unit in entry.END_TO_END.items():
        assert run.metrics[name]["unit"] == unit
        assert run.metrics[name]["value"] > 0, name


def test_traced_dnn_tables_pass_trains_twelve_times(small):
    run = small_run("dnn_tables", trace=True)
    values = run.layer_values
    assert values["dnn.train_calls"] == 12
    assert values["dnn.lut_matmul_calls"] > 0
    assert values["trace.span_coverage"] >= 0.9
    assert run.failed == 0


# ----------------------------------------------------------------------
# Metric names and units
# ----------------------------------------------------------------------
def test_metric_names_and_units_are_well_formed_and_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == entry.END_TO_END
    assert per_layer == entry.PER_LAYER
    for name, unit in {**end_to_end, **per_layer}.items():
        assert NAME.match(name), name
        assert UNIT.match(unit), unit
    assert not set(end_to_end) & set(per_layer)
    assert {w["name"] for w in spec["workloads"]} == set(entry.WORKLOADS)
    assert end_to_end["setup_s"] == "s"
    bounds = [m["bound"] for m in spec["end_to_end"]]
    assert max(bounds) <= 0.25
    assert next(m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s") == max(bounds)


# ----------------------------------------------------------------------
# Injected wrong outputs count as failed
# ----------------------------------------------------------------------
def fake_pass(outputs):
    return inprocess.Pass(1.0, 1.0, [1.0], ["call"], 1.0, [1.0], [1.0], outputs, 0, 0, 0, (0.0, 1.0))


def test_wrong_paper_output_lowers_ok_ratio():
    reference = harness.load_reference("paper_sweeps")
    outputs = {name: [1.0, 2.0] for name in ("dse_table", "corners", "fig5", "monte_carlo", "robustness", "errors")}
    outputs.update({name: reference[name] for name in ("records", "model_rms_mv", "fom_energy_pj")})
    wrong = dict(outputs, monte_carlo=[1.0, 2.5], fom_energy_pj=reference["fom_energy_pj"] * 1.01)
    run = harness.Run("paper_sweeps", 0, 0, False)
    paper_sweeps.make_check(reference)(run, fake_pass(outputs), fake_pass(outputs))
    assert run.failed == 0 and run.ok_ratio == 1.0
    paper_sweeps.make_check(reference)(run, fake_pass(outputs), fake_pass(wrong))
    assert run.failed == 1  # the warm Monte-Carlo differs; cold matches the record
    paper_sweeps.make_check(reference)(run, fake_pass(wrong), fake_pass(wrong))
    assert run.failed == 2 and run.ok_ratio < 1.0


def test_wrong_dnn_hit_counts_lower_ok_ratio():
    reference = harness.load_reference("dnn_tables")
    good = {"hits": reference["hits"], "corners": {}}
    hits = dict(reference["hits"])
    key = next(iter(hits))
    hits[key] = [hits[key][0] + 1, *hits[key][1:]]
    run = harness.Run("dnn_tables", 0, 0, False)
    dnn_tables.make_check(reference)(run, fake_pass(good), fake_pass(good))
    assert run.failed == 0
    dnn_tables.make_check(reference)(run, fake_pass(good), fake_pass({"hits": hits, "corners": {}}))
    assert run.failed == 1 and run.ok_ratio < 1.0


def test_wrong_served_payloads_lower_ok_ratio():
    from repro.analysis.pvt_sweeps import mismatch_monte_carlo
    from repro.circuits.technology import tsmc65_like

    params = {"samples": 20, "seed": 5, "shards": 2}
    expected = mismatch_monte_carlo(tsmc65_like(), samples=20, seed=5)
    sigmas = {
        f"{float(t) * 1e9:.1f}ns": float(s)
        for t, s in zip(expected["sampling_times"], expected["sigma_at_sampling_times"])
    }
    wrong_sigmas = dict(sigmas)
    wrong_sigmas[next(iter(sigmas))] += 1e-6
    records = [
        {"workload": "montecarlo", "path": "direct", "params": params, "payload": {"sigma_v_blb": sigmas}},
        {"workload": "eventsim", "path": "gateway", "params": {}, "payload": {"matches_model": True}},
    ]
    client = served_mix.Client(harness.Run("served_mix", 0, 0, False), system=None)
    served_mix.check_round(client, records, harness.load_reference("served_mix"))
    assert client.run.failed == 0 and client.run.attempted == 2
    records[0]["payload"] = {"sigma_v_blb": wrong_sigmas}
    records[1]["payload"] = {"matches_model": False}
    served_mix.check_round(client, records, harness.load_reference("served_mix"))
    assert client.run.failed == 2 and client.run.ok_ratio < 1.0


def test_answer_differing_from_first_answer_counts_as_failed():
    import asyncio

    class FakeDirect:
        answers = iter([{"value": 1}, {"value": 2}])

        async def submit(self, workload, params):
            class Result:
                payload = next(FakeDirect.answers)
                elapsed_seconds = 0.0
                deduplicated = False

            return Result()

    client = served_mix.Client(harness.Run("served_mix", 0, 0, False), system=None)
    client.direct = FakeDirect()
    asyncio.run(client.send("miss", "direct", "montecarlo", {"seed": 1}))
    asyncio.run(client.send("hit", "direct", "montecarlo", {"seed": 1}))
    assert client.run.attempted == 2 and client.run.failed == 1


# ----------------------------------------------------------------------
# The entry point
# ----------------------------------------------------------------------
def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "paper_sweeps", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""


def test_timed_scales_wall_time_by_the_probes_around_it(monkeypatch):
    # Three probes before the block, three after; each side's median counts.
    probes = iter([2, 9, 2, 4, 4, 1])
    monkeypatch.setattr(harness, "probe_s", lambda: next(probes) * harness.PROBE_REF_S)
    with harness.Timed() as timed:
        pass
    assert timed.speed == 3.0
    assert timed.seconds == timed.raw_s / 3.0


def test_percentile_is_nearest_rank():
    values = list(range(1, 21))
    assert harness.percentile(values, 0.95) == 19
    assert harness.percentile(values, 0.5) == 10
    assert harness.percentile([5.0], 0.95) == 5.0
