"""Shared fixtures for the test suite.

Expensive artefacts (reference-simulator characterisation, fitted model
suites, trained networks) are session-scoped so the whole suite stays fast:
most tests run against one shared quick calibration rather than re-running
the reference sweeps.
"""

from __future__ import annotations

import dataclasses
import warnings

import numpy as np
import pytest

from repro.circuits import OperatingConditions, TransientSolver, tsmc65_like
from repro.core.calibration import CalibrationResult, calibrate
from repro.core.characterization import CharacterizationPlan
from repro.dnn.datasets import make_synthetic_image_dataset
from repro.multiplier.config import MultiplierConfig
from repro.multiplier.imac import InSramMultiplier


@pytest.fixture(scope="session")
def technology():
    """The default 65 nm-class technology card."""
    return tsmc65_like()


@pytest.fixture(scope="session")
def nominal_conditions(technology):
    """Nominal PVT operating point."""
    return OperatingConditions.nominal(technology)


@pytest.fixture(scope="session")
def solver(technology):
    """Shared reference transient solver."""
    return TransientSolver(technology)


@pytest.fixture(scope="session")
def quick_calibration(technology) -> CalibrationResult:
    """A quick-plan OPTIMA calibration shared by most model-level tests."""
    return calibrate(technology, CharacterizationPlan.quick())


@pytest.fixture(scope="session")
def full_calibration(technology) -> CalibrationResult:
    """The default-plan calibration used by accuracy-sensitive tests."""
    return calibrate(technology)


@pytest.fixture(scope="session")
def suite(full_calibration):
    """Fitted OPTIMA model suite (default plan)."""
    return full_calibration.suite


@pytest.fixture(scope="session")
def quick_suite(quick_calibration):
    """Fitted OPTIMA model suite (quick plan)."""
    return quick_calibration.suite


@pytest.fixture(scope="session")
def fom_config() -> MultiplierConfig:
    """A representative accurate multiplier configuration."""
    return MultiplierConfig(
        tau0=0.16e-9, v_dac_zero=0.3, v_dac_full_scale=1.0, name="fom-test"
    )


@pytest.fixture(scope="session")
def multiplier(suite, fom_config) -> InSramMultiplier:
    """OPTIMA-backed multiplier at the representative configuration."""
    return InSramMultiplier(suite, fom_config)


@pytest.fixture(scope="session")
def tiny_dataset():
    """A tiny 4-class synthetic image dataset for DNN tests."""
    return make_synthetic_image_dataset(
        classes=4,
        train_per_class=25,
        test_per_class=8,
        image_size=8,
        channels=3,
        noise=0.10,
        seed=3,
        name="tiny",
    )


@pytest.fixture(scope="session")
def start_cluster():
    """Start a :class:`~repro.cluster.DistributedExecutor`, failing the test
    if it fell back to serial.

    A cluster that cannot start must show as a failure that names the
    fallback reason, not pass its distributed coverage as a skip.
    """

    def start(executor):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            executor.start()
        if executor._fallback is not None:
            reasons = "; ".join(str(warning.message) for warning in caught)
            pytest.fail(f"cluster fell back to serial: {reasons or 'no warning raised'}")
        return executor

    return start


@pytest.fixture(scope="session")
def cluster(start_cluster):
    """A two-worker local cluster (one job per chunk) shared by every test
    that runs sweeps on the distributed executor without breaking it.

    Tests that need another chunk rule set ``chunksize`` for their own run
    and restore it.
    """
    from repro.cluster import DistributedExecutor

    executor = start_cluster(DistributedExecutor(workers=2, chunksize=1, start_timeout=60.0))
    yield executor
    executor.close()


@pytest.fixture()
def rng() -> np.random.Generator:
    """Fresh deterministic random generator per test."""
    return np.random.default_rng(1234)


@dataclasses.dataclass(frozen=True)
class ChaosSchedule:
    """One seeded adversarial scheduling regime for the cluster tests.

    Drawn deterministically from a seed, so every trial is reproducible
    from its parametrized id alone.  The base regime (chunk size /
    straggler throttle / worker kill / job count) drives the randomized
    dispatch/death schedules of ``test_cluster``; the concurrency fields
    (drawn strictly *after* the base regime, so legacy seeds keep their
    historical draws) add a second concurrent sweep and a mid-run pool
    resize for ``test_cluster_chaos``.
    """

    seed: int
    #: Static chunk size.
    probe: int
    #: Straggler worker's per-job sleep.
    throttle: float
    #: SIGKILL one local worker mid-run.
    kill_one: bool
    #: Jobs in the (batch) sweep.
    count: int
    # --- concurrent sweeps (test_cluster_chaos) -----------------------
    #: Jobs in the concurrently submitted second sweep.
    second_count: int
    #: First-sweep progress ticks to wait for before submitting the
    #: second sweep (so it arrives while the first is in flight).
    second_after_done: int
    #: Join one extra throttled worker mid-run (a pool resize).
    resize_mid_run: bool

    @property
    def entropy(self) -> int:
        """Entropy for the sweep's seeded job values."""
        return 9000 + self.seed

    @classmethod
    def draw(cls, seed: int) -> "ChaosSchedule":
        rng = np.random.default_rng(1000 + seed)
        # The retired adaptive-window draw, consumed and discarded so every
        # seed keeps the rest of its historical regime.
        if rng.random() < 0.75:
            rng.uniform(0.02, 0.08)
        probe = int(rng.integers(1, 6))
        throttle = float(rng.uniform(0.03, 0.12))
        kill_one = bool(rng.random() < 0.5)
        count = int(rng.integers(16, 28))
        second_count = int(rng.integers(6, 12))
        # The retired priority draws (second sweep, then first), consumed
        # and discarded like the adaptive-window draw above.
        rng.integers(5, 20)
        rng.integers(-3, 1)
        return cls(
            seed=seed,
            probe=probe,
            throttle=throttle,
            kill_one=kill_one,
            count=count,
            second_count=second_count,
            second_after_done=int(rng.integers(2, 5)),
            resize_mid_run=bool(rng.random() < 0.5),
        )


@pytest.fixture()
def chaos_schedule():
    """Factory fixture: ``chaos_schedule(seed)`` draws one seeded regime."""
    return ChaosSchedule.draw
