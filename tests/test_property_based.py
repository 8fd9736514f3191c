"""Property-based tests (hypothesis) for core data structures and invariants."""

import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.converters.adc import Adc
from repro.converters.dac import LinearDac
from repro.core.metrics import rms_error, speedup_ratio
from repro.core.polynomials import Polynomial1D, SeparableProductModel
from repro.dnn.imc_injection import ExactBackend, LutBackend
from repro.dnn.quantization import ActivationQuantizer, QuantizationScheme, quantize_weights_symmetric
from repro.eventsim.kernel import SimulationKernel
from repro.multiplier.lut import ProductLookupTable


class TestPolynomialProperties:
    @given(
        coefficients=st.lists(
            st.floats(min_value=-5.0, max_value=5.0, allow_nan=False), min_size=1, max_size=6
        ),
        scale=st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
        x=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    )
    def test_scaling_is_linear(self, coefficients, scale, x):
        poly = Polynomial1D(np.array(coefficients))
        scaled = poly.scaled(scale)
        assert float(scaled(x)) == pytest.approx(scale * float(poly(x)), rel=1e-9, abs=1e-9)

    @given(
        degree_x=st.integers(min_value=0, max_value=3),
        degree_y=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_separable_fit_recovers_separable_data(self, degree_x, degree_y, seed):
        rng = np.random.default_rng(seed)
        coeff_x = rng.uniform(0.5, 1.5, degree_x + 1)
        coeff_y = rng.uniform(0.5, 1.5, degree_y + 1)
        x = rng.uniform(-1.0, 1.0, 200)
        y = rng.uniform(-1.0, 1.0, 200)
        target = np.polynomial.polynomial.polyval(x, coeff_x) * np.polynomial.polynomial.polyval(
            y, coeff_y
        )
        model = SeparableProductModel(degrees=(degree_x, degree_y))
        model.fit([x, y], target)
        assert model.rms_residual([x, y], target) < 1e-6


class TestConverterProperties:
    @given(
        v_zero=st.floats(min_value=0.1, max_value=0.5),
        span=st.floats(min_value=0.2, max_value=0.7),
        code=st.integers(min_value=0, max_value=15),
    )
    def test_dac_output_always_inside_range(self, v_zero, span, code):
        dac = LinearDac(bits=4, v_zero=v_zero, v_full_scale=v_zero + span)
        voltage = float(dac.voltage(code))
        assert v_zero - 1e-12 <= voltage <= v_zero + span + 1e-12

    @given(code=st.integers(min_value=0, max_value=15))
    def test_dac_inverse_is_exact_on_codes(self, code):
        dac = LinearDac(bits=4, v_zero=0.3, v_full_scale=1.0)
        assert int(dac.code_for_voltage(dac.voltage(code))) == code

    @given(
        voltage=st.floats(min_value=0.0, max_value=0.2, allow_nan=False),
        levels=st.integers(min_value=8, max_value=512),
    )
    def test_adc_reconstruction_error_within_half_lsb(self, voltage, levels):
        adc = Adc(levels=levels, gain=0.25 / levels)
        if voltage <= adc.full_scale:
            error = abs(float(adc.quantization_error(voltage)))
            assert error <= adc.lsb / 2.0 + 1e-12


class TestQuantizationProperties:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        scale=st.floats(min_value=0.01, max_value=2.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_weight_quantisation_error_bounded(self, seed, scale):
        rng = np.random.default_rng(seed)
        weights = rng.normal(0.0, scale, size=(20, 6)).astype(np.float32)
        codes, scales = quantize_weights_symmetric(weights, QuantizationScheme())
        reconstructed = codes * scales
        assert float(np.max(np.abs(reconstructed - weights))) <= float(scales.max()) * 0.5 + 1e-7

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=20, deadline=None)
    def test_activation_codes_within_range(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.normal(1.0, 2.0, size=300).astype(np.float32)
        quantizer = ActivationQuantizer.calibrate(values, QuantizationScheme())
        codes = quantizer.quantize(values)
        assert codes.min() >= 0
        assert codes.max() <= 15


class TestBackendProperties:
    @given(seed=st.integers(min_value=0, max_value=5_000))
    @settings(max_examples=20, deadline=None)
    def test_exact_lut_equals_exact_backend(self, seed):
        rng = np.random.default_rng(seed)
        activations = rng.integers(0, 16, size=(5, 9))
        weights = rng.integers(-8, 8, size=(9, 3))
        lut = LutBackend(ProductLookupTable.exact())
        exact = ExactBackend()
        assert np.allclose(
            lut.matmul(activations, weights, activation_zero_point=int(rng.integers(0, 16))),
            exact.matmul(activations, weights),
        )


class TestMetricProperties:
    @given(
        values=st.lists(
            st.floats(min_value=-100.0, max_value=100.0, allow_nan=False), min_size=1, max_size=30
        )
    )
    def test_rms_error_of_identical_arrays_is_zero(self, values):
        assert rms_error(values, values) == pytest.approx(0.0, abs=1e-12)

    @given(
        reference=st.floats(min_value=1e-6, max_value=1e3),
        fast=st.floats(min_value=1e-6, max_value=1e3),
    )
    def test_speedup_ratio_is_reciprocal(self, reference, fast):
        assert speedup_ratio(reference, fast) == pytest.approx(1.0 / speedup_ratio(fast, reference))


class TestKernelProperties:
    @given(
        delays=st.lists(
            st.floats(min_value=1e-12, max_value=1e-6, allow_nan=False), min_size=1, max_size=20
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_events_always_execute_in_nondecreasing_time_order(self, delays):
        kernel = SimulationKernel()
        executed_times = []
        for delay in delays:
            kernel.schedule_at(delay, lambda: executed_times.append(kernel.now))
        kernel.run()
        assert executed_times == sorted(executed_times)
        assert len(executed_times) == len(delays)


def _dispatch_index(index: int) -> int:
    """Identity job for the socketless dispatch properties."""
    return index


# ----------------------------------------------------------------------
# Differential executor identity (module-level helpers so the process
# pool and the cluster workers can pickle them)
# ----------------------------------------------------------------------
def _diff_vector(seed: int, size: int) -> np.ndarray:
    """Deterministic pseudo-random vector: the per-job hot-path stand-in."""
    rng = np.random.default_rng(seed)
    return rng.standard_normal(size).cumsum()


def _diff_dict_of_array(seed: int, size: int) -> dict:
    """Nested result: arrays plus a NumPy scalar and a Python int."""
    vector = _diff_vector(seed, size)
    return {"vector": vector, "mask": vector > 0, "last": vector[-1], "size": size}


def _diff_dict_of_int(seed: int, size: int) -> dict:
    """Nested result without any array: Python ints in a dict and a list."""
    counts = np.random.default_rng(seed).integers(0, 100, size)
    return {"seed": seed, "total": int(counts.sum()), "counts": [int(c) for c in counts]}


def _diff_design_point(seed: int, size: int):
    """A DSE result: a dataclass nesting a frozen dataclass and arrays."""
    from repro.core.dse import DesignPoint
    from repro.multiplier.config import MultiplierConfig
    from repro.multiplier.error_analysis import InputSpaceAnalysis

    rng = np.random.default_rng(seed)
    config = MultiplierConfig(tau0=float(rng.uniform(1e-10, 3e-10)), name=f"p{seed}")
    expected = rng.integers(0, 225, (size, size)).astype(float)
    results = expected + rng.integers(-2, 3, (size, size))
    analysis = InputSpaceAnalysis(
        config=config,
        expected=expected,
        results=results,
        errors=np.abs(results - expected),
        analog_sigma=rng.standard_normal((size, size)) * 1e-3,
        energy_per_multiplication=float(rng.uniform(1e-14, 1e-13)),
        energy_per_operation=np.float64(rng.uniform(1e-14, 1e-13)),
        adc_lsb=1e-3,
    )
    return DesignPoint(config=config, analysis=analysis)


#: Job bodies of the differential suite, by result shape.
_DIFF_BODIES = {
    "array": _diff_vector,
    "dict_of_array": _diff_dict_of_array,
    "dict_of_int": _diff_dict_of_int,
    "design_point": _diff_design_point,
}


def _diff_batch(jobs) -> list:
    """Whole-group evaluator: one stacked NumPy pass over the batch.

    Each stream keeps its own generator and its identical ``standard_normal``
    call, so the stacked cumulative sum is bit-identical to the per-job path
    — the same hoisting pattern the PVT Monte-Carlo batch uses.
    """
    size = jobs[0].args[1]
    stacked = np.stack(
        [np.random.default_rng(job.args[0]).standard_normal(size) for job in jobs]
    )
    return list(np.cumsum(stacked, axis=1))


def _diff_jobs(
    entropy: int, count: int, size: int, keyed: bool = False, shape: str = "array"
) -> list:
    from repro.runtime import Job, job_key

    return [
        Job(
            fn=_DIFF_BODIES[shape],
            args=(entropy + index, size),
            name=f"diff[{index}]",
            key=job_key("prop-diff", shape, entropy, index, size) if keyed else None,
        )
        for index in range(count)
    ]


def _assert_byte_identical(reference: list, candidate: list) -> None:
    assert len(reference) == len(candidate)
    for index, (expected, actual) in enumerate(zip(reference, candidate)):
        _assert_same_value(expected, actual, f"[{index}]")


def _assert_same_value(expected, actual, where: str) -> None:
    """Same Python type, and same dtype / shape / bytes for every array."""
    import dataclasses

    assert type(actual) is type(expected), f"type drift at {where}"
    if isinstance(expected, (np.ndarray, np.generic)):
        assert actual.dtype == expected.dtype, f"dtype drift at {where}"
        assert np.shape(actual) == np.shape(expected), f"shape drift at {where}"
        assert actual.tobytes() == expected.tobytes(), f"byte drift at {where}"
    elif isinstance(expected, dict):
        assert list(actual) == list(expected), f"key drift at {where}"
        for key in expected:
            _assert_same_value(expected[key], actual[key], f"{where}[{key!r}]")
    elif isinstance(expected, (list, tuple)):
        assert len(actual) == len(expected), f"length drift at {where}"
        for position, (want, got) in enumerate(zip(expected, actual)):
            _assert_same_value(want, got, f"{where}[{position}]")
    elif dataclasses.is_dataclass(expected):
        for field in dataclasses.fields(expected):
            _assert_same_value(
                getattr(expected, field.name), getattr(actual, field.name), f"{where}.{field.name}"
            )
    else:
        assert actual == expected, f"value drift at {where}"


@pytest.fixture(scope="module")
def diff_cluster():
    """A small local cluster shared by the distributed differential tests."""
    from repro.cluster import DistributedExecutor

    executor = DistributedExecutor(workers=2, chunksize=2, start_timeout=60.0)
    executor.start()
    if executor._fallback is not None:
        pytest.skip("cluster cannot start in this environment")
    yield executor
    executor.close()


class TestExecutorDifferential:
    """All executor strategies must return byte-identical results at
    identical indices, with and without a vectorised ``batch_fn`` — the
    lock on the vectorised-default hot path."""

    @given(
        entropy=st.integers(min_value=0, max_value=2**20),
        count=st.integers(min_value=1, max_value=24),
        size=st.integers(min_value=1, max_value=64),
        batch_size=st.integers(min_value=1, max_value=16),
        chunksize=st.integers(min_value=1, max_value=8),
        use_batch_fn=st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_in_process_executors_byte_identical(
        self, entropy, count, size, batch_size, chunksize, use_batch_fn
    ):
        from repro.runtime import SweepEngine, SweepSpec, make_executor

        batch_fn = _diff_batch if use_batch_fn else None

        def run(executor):
            return SweepEngine(executor).run(
                SweepSpec("diff", _diff_jobs(entropy, count, size), batch_fn=batch_fn)
            )

        reference = run(make_executor("serial"))
        _assert_byte_identical(reference, run(None))  # auto (the default)
        _assert_byte_identical(
            reference, run(make_executor("batch", batch_size=batch_size))
        )
        _assert_byte_identical(
            reference,
            run(make_executor("parallel", max_workers=2, chunksize=chunksize)),
        )

    @given(
        entropy=st.integers(min_value=0, max_value=2**20),
        count=st.integers(min_value=1, max_value=16),
        size=st.integers(min_value=1, max_value=48),
        warm=st.lists(st.integers(min_value=0, max_value=15), max_size=8),
        use_batch_fn=st.booleans(),
    )
    @settings(max_examples=8, deadline=None)
    def test_cache_warm_cold_mix_byte_identical(
        self, entropy, count, size, warm, use_batch_fn
    ):
        """A partially warm artifact cache must not perturb a single byte:
        whichever subset of jobs is served from disk, every executor still
        returns the serial cold-run results, for every result shape."""
        from repro.runtime import ArtifactCache, SweepEngine, SweepSpec, make_executor

        warm_indices = sorted({index for index in warm if index < count})
        for shape in _DIFF_BODIES:
            batch_fn = _diff_batch if use_batch_fn and shape == "array" else None
            reference = SweepEngine(make_executor("serial")).run(
                SweepSpec("diff", _diff_jobs(entropy, count, size, shape=shape), batch_fn=batch_fn)
            )
            for executor in (None, make_executor("batch", batch_size=4)):
                with tempfile.TemporaryDirectory() as root:
                    engine = SweepEngine(executor, cache=ArtifactCache(root))
                    if warm_indices:
                        jobs = _diff_jobs(entropy, count, size, keyed=True, shape=shape)
                        engine.run(
                            SweepSpec(
                                "warmup",
                                [jobs[index] for index in warm_indices],
                                batch_fn=batch_fn,
                            )
                        )
                    mixed = engine.run(
                        SweepSpec(
                            "diff",
                            _diff_jobs(entropy, count, size, keyed=True, shape=shape),
                            batch_fn=batch_fn,
                        )
                    )
                    _assert_byte_identical(reference, mixed)

    @given(
        entropy=st.integers(min_value=0, max_value=2**16),
        count=st.integers(min_value=1, max_value=10),
        size=st.integers(min_value=1, max_value=32),
        use_batch_fn=st.booleans(),
    )
    @settings(max_examples=4, deadline=None)
    def test_distributed_matches_serial_byte_identical(
        self, diff_cluster, entropy, count, size, use_batch_fn
    ):
        """Every result shape the cluster ships — plain arrays, dicts of
        arrays and NumPy scalars, dicts of ints, DSE ``DesignPoint``
        dataclasses — comes back byte-identical to serial."""
        from repro.runtime import SweepEngine, SweepSpec, make_executor

        for shape in _DIFF_BODIES:
            batch_fn = _diff_batch if use_batch_fn and shape == "array" else None

            def run(executor):
                jobs = _diff_jobs(entropy, count, size, shape=shape)
                return SweepEngine(executor).run(SweepSpec("diff", jobs, batch_fn=batch_fn))

            _assert_byte_identical(run(make_executor("serial")), run(diff_cluster))


class TestDispatchProperties:
    """Invariants of the cluster coordinator's FIFO span queues and
    half-backlog stealing, checked socketlessly against its real
    dispatch code path."""

    @given(
        workers=st.integers(min_value=1, max_value=3),
        chunksize=st.integers(min_value=1, max_value=8),
        counts=st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=999),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_job_dispatched_once_in_fifo_order(
        self, workers, chunksize, counts, seed
    ):
        """Whatever worker asks next, every job of every run is dispatched
        exactly once.  A lone worker never steals, so its chunks leave in
        submission order: run by run, job by job (FIFO)."""
        import asyncio

        from repro.cluster.coordinator import Coordinator, _Run, _WorkerLink
        from repro.runtime import Job

        async def scenario():
            coordinator = Coordinator()
            links = []
            for index in range(workers):
                link = _WorkerLink(f"w{index}", "w", 0, 1, writer=None)
                coordinator._links[link.id] = link
                links.append(link)
            runs = []
            for count in counts:
                run = _Run(
                    [Job(fn=_dispatch_index, args=(i,)) for i in range(count)],
                    None,
                    chunksize,
                )
                coordinator._distribute(coordinator._initial_spans(run))
                runs.append(run)
            rng = np.random.default_rng(seed)
            order = []
            while any(link.queue for link in links):
                thief = links[int(rng.integers(0, workers))]
                chunk = coordinator._next_chunk(thief)
                assert chunk is not None, "queued work but nothing dispatchable"
                assert 1 <= len(chunk) <= chunksize
                order.extend((runs.index(chunk.run), i) for i in chunk.indices)
            expected = [(r, i) for r, run in enumerate(runs) for i in range(run.total)]
            assert sorted(order) == expected
            if workers == 1:
                assert order == expected

        asyncio.run(scenario())
