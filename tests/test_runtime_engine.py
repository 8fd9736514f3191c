"""Tests for the sweep-execution engine and its executors.

The load-bearing guarantees:

* serial, vectorised batch (the auto engine's) and distributed executors
  produce bit-identical, order-preserving results on the same jobs;
* the design-space exploration and Monte-Carlo PVT flows are
  schedule-independent (parallel == serial, element for element).  The
  parallel runs go through the one multi-process path, the shared
  two-worker ``cluster`` fixture (``tests/conftest.py``);
* cacheable jobs are served from the artifact cache on re-runs;
* the unified CLI drives a full DSE run end-to-end through the engine.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest

import repro
from repro.core.characterization import CharacterizationPlan, characterize
from repro.core.dse import DesignSpace, explore_design_space
from repro.core.pvt import monte_carlo_error_distribution
from repro.runtime import (
    ArtifactCache,
    BatchExecutor,
    Job,
    SerialExecutor,
    SweepEngine,
    SweepSpec,
    job_key,
    make_executor,
)
from repro.runtime.cli import main as cli_main
from repro.runtime.executors import AUTO_BATCH_SIZE


def _square(value: int) -> int:
    """Toy job body (module-level so cluster workers can unpickle it)."""
    return value * value


def _toy_jobs(count: int = 10):
    return [Job(fn=_square, args=(i,), name=f"square[{i}]") for i in range(count)]


def _square_batch(jobs):
    """Vectorised toy batch evaluator."""
    values = np.asarray([job.args[0] for job in jobs])
    return list((values * values).tolist())


def _pid_batch(jobs):
    """Batch evaluator that tags each result with the evaluating process."""
    return [(job.run(), os.getpid()) for job in jobs]


def _short_batch(jobs):
    """A broken batch evaluator: one result too few."""
    return [job.run() for job in jobs][:-1]


class TestExecutors:
    def test_serial_preserves_order(self):
        results = SerialExecutor().execute(_toy_jobs())
        assert results == [i * i for i in range(10)]

    @pytest.mark.parametrize("chunksize", [None, 1, 3, 100])
    def test_parallel_matches_serial(self, cluster, monkeypatch, chunksize):
        jobs = _toy_jobs(17)
        expected = SerialExecutor().execute(jobs)
        monkeypatch.setattr(cluster, "chunksize", chunksize)
        assert cluster.execute(jobs) == expected

    def test_parallel_single_job_falls_back_to_serial(self):
        from repro.cluster import DistributedExecutor

        executor = DistributedExecutor(workers=1)
        assert executor.execute(_toy_jobs(1)) == [0]
        assert not executor._started  # one job never starts the cluster

    def test_parallel_rejects_bad_arguments(self):
        from repro.cluster import DistributedExecutor

        with pytest.raises(ValueError):
            DistributedExecutor(workers=-1)
        with pytest.raises(ValueError):
            DistributedExecutor(chunksize=0)

    def test_batch_without_batch_fn(self):
        assert BatchExecutor(batch_size=4).execute(_toy_jobs(10)) == [
            i * i for i in range(10)
        ]

    def test_batch_with_vectorised_batch_fn(self):
        results = BatchExecutor(batch_size=3).execute(
            _toy_jobs(10), batch_fn=_square_batch
        )
        assert results == [i * i for i in range(10)]

    def test_batch_fn_result_count_is_validated(self):
        with pytest.raises(RuntimeError):
            BatchExecutor(batch_size=4).execute(_toy_jobs(8), batch_fn=lambda jobs: [1])

    def test_parallel_runs_each_chunk_through_the_batch_fn(self, cluster, monkeypatch):
        """Under the default chunk rule a batch sweep is one chunk per
        worker slot, each one ``batch_fn`` call in a worker process
        (``_pid_batch`` tags results with its pid)."""
        monkeypatch.setattr(cluster, "chunksize", None)
        results = cluster.execute(_toy_jobs(6), batch_fn=_pid_batch)
        assert [value for value, _ in results] == [i * i for i in range(6)]
        pids = [pid for _, pid in results]
        assert pids[:3] == [pids[0]] * 3 and pids[3:] == [pids[3]] * 3
        assert os.getpid() not in pids

    def test_parallel_batch_fn_result_count_is_validated(self, cluster):
        with pytest.raises(RuntimeError, match="batch_fn returned"):
            cluster.execute(_toy_jobs(6), batch_fn=_short_batch)

    def test_batch_rejects_bad_batch_size(self):
        with pytest.raises(ValueError):
            BatchExecutor(batch_size=0)

    def test_progress_callback_reaches_total(self, cluster, monkeypatch):
        seen = []
        SerialExecutor().execute(_toy_jobs(5), progress=lambda d, t, n: seen.append((d, t)))
        assert seen == [(i + 1, 5) for i in range(5)]
        seen = []
        BatchExecutor(batch_size=2).execute(
            _toy_jobs(5), progress=lambda d, t, n: seen.append((d, t)), batch_fn=_square_batch
        )
        assert seen == [(2, 5), (4, 5), (5, 5)]
        seen = []
        monkeypatch.setattr(cluster, "chunksize", 2)
        cluster.execute(_toy_jobs(5), progress=lambda d, t, n: seen.append((d, t)))
        assert seen[-1] == (5, 5)

    def test_make_executor(self):
        assert isinstance(make_executor("serial"), SerialExecutor)
        executor = make_executor("distributed", workers=3)
        assert executor.name == "distributed" and executor.workers == 3
        executor.close()  # never started: a no-op
        for name in ("parallel", "batch", "quantum"):
            with pytest.raises(ValueError, match=r"choose from \['distributed', 'serial'\]"):
                make_executor(name)


class TestFallbackKeepsBatchFn:
    """Regression: every in-process degradation used to silently drop
    ``batch_fn`` (falling back to a plain serial loop); a sweep that
    brought its vectorised inner loop must keep it on every fallback
    path."""

    @staticmethod
    def _tracking_batch_fn(calls):
        def batch_fn(jobs):
            calls.append(len(jobs))
            return [job.args[0] ** 2 for job in jobs]

        return batch_fn

    def test_distributed_single_job_fallback(self):
        from repro.cluster import DistributedExecutor

        calls = []
        executor = DistributedExecutor(workers=1)
        results = executor.execute(_toy_jobs(1), batch_fn=self._tracking_batch_fn(calls))
        assert results == [0]
        assert calls == [1]
        assert not executor._started  # never paid a cluster spin-up for one job


class TestSweepEngine:
    def test_run_preserves_submission_order(self, cluster):
        engine = SweepEngine(cluster)
        results = engine.run(SweepSpec("toy", _toy_jobs(8)))
        assert results == [i * i for i in range(8)]

    def test_run_accepts_spec_or_job_list(self):
        engine = SweepEngine()
        jobs = [Job(fn=_square, args=(i,)) for i in range(4)]
        assert engine.run(SweepSpec("squares", jobs)) == [0, 1, 4, 9]
        assert engine.run(jobs) == [0, 1, 4, 9]
        assert engine.stats.sweeps == 2

    def test_run_one(self):
        assert SweepEngine().run_one(Job(fn=_square, args=(7,))) == 49

    def test_stats_accumulate(self):
        engine = SweepEngine()
        engine.run(SweepSpec("toy", _toy_jobs(3)))
        engine.run(SweepSpec("toy", _toy_jobs(2)))
        assert engine.stats.sweeps == 2
        assert engine.stats.jobs_submitted == 5
        assert engine.stats.jobs_executed == 5
        assert "5 jobs submitted" in engine.describe()

    def test_describe_names_the_auto_engine(self):
        # The auto engine runs batch_fn sweeps batched, so it must not
        # print the serial executor's name; a pinned executor keeps its own.
        assert SweepEngine().describe().startswith("SweepEngine[auto] — ")
        assert SweepEngine(SerialExecutor()).describe().startswith("SweepEngine[serial] — ")
        assert SweepEngine(BatchExecutor()).describe().startswith("SweepEngine[batch] — ")

    def test_cacheable_jobs_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        executions = []

        def producer(value):
            executions.append(value)
            return np.arange(value, dtype=float)

        def build_job(value):
            return Job(
                fn=producer,
                args=(value,),
                name=f"produce[{value}]",
                key=job_key("toy-producer", value),
            )

        engine = SweepEngine(cache=cache)
        first = engine.run(SweepSpec("toy", [build_job(5), build_job(6)]))
        second = engine.run(SweepSpec("toy", [build_job(5), build_job(6)]))
        assert executions == [5, 6], "second run must be served from the cache"
        assert engine.stats.cache_hits == 2
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)

    def test_uncacheable_jobs_always_execute(self, tmp_path):
        engine = SweepEngine(cache=ArtifactCache(tmp_path))
        engine.run(SweepSpec("toy", _toy_jobs(3)))
        engine.run(SweepSpec("toy", _toy_jobs(3)))
        assert engine.stats.cache_hits == 0
        assert engine.stats.jobs_executed == 6


class TestScheduleIndependence:
    """Parallel (the shared cluster) and batch execution must be
    bit-identical to serial."""

    def test_dse_parallel_and_batch_match_serial(self, quick_suite, cluster, monkeypatch):
        space = DesignSpace.quick()
        serial = explore_design_space(quick_suite, space)
        monkeypatch.setattr(cluster, "chunksize", 2)
        parallel = explore_design_space(quick_suite, space, engine=SweepEngine(cluster))
        batched = explore_design_space(
            quick_suite, space, engine=SweepEngine(BatchExecutor(batch_size=3))
        )
        assert len(serial.points) == len(list(space.configurations()))
        for reference, candidate in zip(serial.points, parallel.points):
            np.testing.assert_array_equal(
                reference.analysis.results, candidate.analysis.results
            )
            assert reference.analysis.energy_per_multiplication == (
                candidate.analysis.energy_per_multiplication
            )
            assert reference.config == candidate.config
        for reference, candidate in zip(serial.points, batched.points):
            np.testing.assert_array_equal(
                reference.analysis.results, candidate.analysis.results
            )

    def test_monte_carlo_sigma_is_schedule_independent(
        self, quick_suite, fom_config, cluster, monkeypatch
    ):
        """SeedSequence.spawn-derived seeds make serial and parallel runs
        produce bit-identical sigma estimates (satellite requirement)."""
        serial = monte_carlo_error_distribution(
            quick_suite, fom_config, samples=16, seed=42
        )
        monkeypatch.setattr(cluster, "chunksize", 3)
        parallel = monte_carlo_error_distribution(
            quick_suite, fom_config, samples=16, seed=42, engine=SweepEngine(cluster)
        )
        np.testing.assert_array_equal(serial, parallel)
        assert float(np.std(serial)) == float(np.std(parallel))
        assert float(np.std(serial)) > 0.0

    def test_characterization_parallel_matches_serial(self, technology, cluster):
        plan = CharacterizationPlan.quick()
        serial = characterize(technology, plan)
        parallel = characterize(technology, plan, engine=SweepEngine(cluster))
        np.testing.assert_array_equal(
            serial.base.bitline_voltage, parallel.base.bitline_voltage
        )
        np.testing.assert_array_equal(
            serial.supply.bitline_voltage, parallel.supply.bitline_voltage
        )
        np.testing.assert_array_equal(serial.mismatch.sigma, parallel.mismatch.sigma)
        np.testing.assert_array_equal(
            serial.discharge_energy.energy, parallel.discharge_energy.energy
        )


class TestCli:
    def test_run_dse_fast_end_to_end(self, tmp_path, capsys):
        json_path = tmp_path / "dse.json"
        exit_code = cli_main(
            [
                "run",
                "dse",
                "--fast",
                "--quiet",
                "--cache-dir",
                str(tmp_path / "cache"),
                "--json",
                str(json_path),
            ]
        )
        assert exit_code == 0
        output = capsys.readouterr().out
        assert "Table I reproduction" in output
        assert "SweepEngine" in output
        payload = json.loads(json_path.read_text())
        assert payload["corner_count"] == len(list(DesignSpace.quick().configurations()))
        assert {row["corner"] for row in payload["selected"]} == {
            "fom",
            "power",
            "variation",
        }

    def test_run_dse_fast_warm_cache_executes_nothing(self, tmp_path, capsys):
        args = ["run", "dse", "--fast", "--quiet", "--cache-dir", str(tmp_path / "cache")]
        assert cli_main(args) == 0
        capsys.readouterr()
        assert cli_main(args) == 0
        output = capsys.readouterr().out
        assert " 0 executed" in output

    def test_cache_info_and_clear(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert cli_main(["run", "dse", "--fast", "--quiet", "--cache-dir", str(cache_dir)]) == 0
        capsys.readouterr()
        assert cli_main(["cache", "info", "--cache-dir", str(cache_dir)]) == 0
        assert "artifacts" in capsys.readouterr().out
        assert cli_main(["cache", "clear", "--cache-dir", str(cache_dir)]) == 0
        assert "removed" in capsys.readouterr().out
        assert len(ArtifactCache(cache_dir)) == 0

    def test_executor_cli_choices(self, tmp_path):
        for engine in (["--executor", "serial"], ["--executor", "distributed", "--workers", "1"]):
            assert (
                cli_main(
                    ["run", "characterize", "--fast", "--quiet", *engine]
                    + ["--cache-dir", str(tmp_path / f"cache-{engine[1]}")]
                )
                == 0
            )

    @pytest.mark.parametrize(
        "flags",
        [["--executor", "parallel"], ["--executor", "batch"], ["--batch-size", "4"]],
        ids=["parallel", "batch", "batch-size"],
    )
    def test_retired_engine_options_are_usage_errors(self, flags):
        """``distributed`` is the one multi-process path and ``batch`` is no
        registry name: each of these spellings is an argparse usage error,
        not a traceback."""
        repo_src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        result = subprocess.run(
            [sys.executable, "-m", "repro", "run", "dse", "--fast", "--quiet", *flags],
            env={**os.environ, "PYTHONPATH": repo_src},
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 2
        assert "usage: python -m repro" in result.stderr
        assert "Traceback" not in result.stderr


class TestMakeExecutorValidation:
    """CLI flags must never be silently ignored or coerced."""

    def test_irrelevant_options_rejected(self):
        with pytest.raises(ValueError, match="serial"):
            make_executor("serial", workers=8)
        with pytest.raises(ValueError, match="distributed"):
            make_executor("distributed", max_workers=8)
        with pytest.raises(ValueError, match="distributed"):
            make_executor("distributed", batch_size=4)
        with pytest.raises(ValueError, match="typo_option"):
            make_executor("distributed", typo_option=1)

    def test_none_means_unset_and_is_always_accepted(self):
        assert isinstance(
            make_executor("serial", workers=None, chunksize=None, connect=None),
            SerialExecutor,
        )
        # The auto engine's batch size is BatchExecutor's default.
        assert BatchExecutor().batch_size == AUTO_BATCH_SIZE

    def test_invalid_values_propagate_instead_of_coercing(self):
        with pytest.raises(ValueError, match="batch_size"):
            BatchExecutor(batch_size=0)
        with pytest.raises(ValueError, match="workers"):
            make_executor("distributed", workers=-1)
        with pytest.raises(ValueError, match="chunksize"):
            make_executor("distributed", chunksize=0)


class TestEngineProgressTotals:
    """Progress is reported against the true sweep size, cache hits included."""

    @staticmethod
    def _cacheable_job(value):
        return Job(
            fn=_square,
            args=(value,),
            name=f"square[{value}]",
            key=job_key("progress-totals", value),
        )

    def test_fully_cached_sweep_still_reports_progress(self, tmp_path):
        engine = SweepEngine(cache=ArtifactCache(tmp_path))
        jobs = [self._cacheable_job(i) for i in range(4)]
        engine.run(SweepSpec("toy", jobs))

        seen = []
        engine.run(
            SweepSpec("toy", [self._cacheable_job(i) for i in range(4)]),
            progress=lambda d, t, label: seen.append((d, t, label)),
        )
        assert [(d, t) for d, t, _ in seen] == [(i + 1, 4) for i in range(4)]
        assert all("(cached)" in label for _, _, label in seen)

    def test_mixed_sweep_counts_hits_and_executions_against_true_total(self, tmp_path):
        engine = SweepEngine(cache=ArtifactCache(tmp_path))
        engine.run(SweepSpec("warmup", [self._cacheable_job(0), self._cacheable_job(2)]))

        seen = []
        engine.run(
            SweepSpec("mixed", [self._cacheable_job(i) for i in range(5)]),
            progress=lambda d, t, label: seen.append((d, t)),
        )
        assert all(total == 5 for _, total in seen)
        dones = [done for done, _ in seen]
        assert dones == sorted(dones), "progress must be monotone"
        assert dones[-1] == 5
        assert len(seen) == 5, "every job (hit or executed) reports one tick"

    def test_repeated_keys_execute_once_and_still_tick(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        engine = SweepEngine(cache=cache)
        seen = []
        results = engine.run(
            SweepSpec("repeats", [self._cacheable_job(i) for i in (0, 1, 0, 2, 1)]),
            progress=lambda d, t, label: seen.append((d, t, label)),
        )
        assert results == [0, 1, 0, 4, 1]
        assert engine.stats.jobs_executed == 3
        assert len(list(cache.keys())) == 3
        assert [(d, t) for d, t, _ in seen] == [(i + 1, 5) for i in range(5)]
        assert [label for _, _, label in seen[-2:]] == [
            "square[0] (duplicate)",
            "square[1] (duplicate)",
        ]

    def test_engine_default_progress_callback_is_used(self, tmp_path):
        seen = []
        engine = SweepEngine(progress=lambda d, t, label: seen.append((d, t)))
        engine.run(SweepSpec("toy", _toy_jobs(3)))
        assert seen == [(1, 3), (2, 3), (3, 3)]


class TestParseSize:
    def test_suffixes(self):
        from repro.runtime.cli import parse_size

        assert parse_size("1234") == 1234
        assert parse_size("500M") == 500_000_000
        assert parse_size("1.5k") == 1500
        assert parse_size("2GB") == 2_000_000_000

    def test_invalid_inputs_raise_value_error(self):
        from repro.runtime.cli import parse_size

        for bad in ("", "x", "12Q", "inf", "1e999", "nan", "-1"):
            with pytest.raises(ValueError):
                parse_size(bad)
