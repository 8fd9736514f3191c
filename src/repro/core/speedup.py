"""Runtime comparison between OPTIMA and the reference circuit simulator.

Paper Section V reports a ~101x speed-up for iterating over the multiplier
input space and design corners and a 28.1x speed-up for mismatch Monte-Carlo
sampling, comparing the OPTIMA (SystemVerilog) flow against Cadence Virtuoso.
The equivalent comparison here pits the polynomial model suite against the
ODE-based transient solver.  Absolute factors depend on the host machine and
on how heavily the reference solver is vectorised, so the benchmark reports
the measured factor alongside the paper's.

One model-side call takes about a millisecond, so a single timing of it is
mostly clock and scheduler noise.  The model side is therefore timed over
repeated calls lasting at least :data:`MIN_MODEL_SECONDS` and scaled back to
the workload one reference run covers.  Each workload is timed in
:data:`REFERENCE_RUNS` rounds of one reference run followed by one model-side
timing, so both sides of a round see the same host speed, and the median of
each side is reported: one disturbed run does not move the recorded factor,
and a host whose speed drifts between processes slows both sides alike.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Callable, Optional, Tuple

import numpy as np

from repro.circuits.conditions import OperatingConditions
from repro.circuits.technology import TechnologyCard
from repro.core.model_suite import OptimaModelSuite
from repro.core.metrics import speedup_ratio
from repro.multiplier.config import MultiplierConfig
from repro.multiplier.imac import InSramMultiplier
from repro.multiplier.reference import ReferenceMultiplier

#: Shortest wall time, in seconds, over which one model-side call is
#: repeated before its per-call time is taken.
MIN_MODEL_SECONDS = 0.2

#: Rounds per workload, each one reference run and one model-side timing;
#: each side's median is reported.  The reference path memoises nothing,
#: so every run repeats the full work.
REFERENCE_RUNS = 3


@dataclasses.dataclass
class SpeedupReport:
    """Measured runtimes and speed-up factors."""

    reference_input_space_seconds: float
    optima_input_space_seconds: float
    reference_monte_carlo_seconds: float
    optima_monte_carlo_seconds: float
    input_space_repetitions: int
    monte_carlo_samples: int

    @property
    def input_space_speedup(self) -> float:
        """Speed-up for iterating the multiplier input space."""
        return speedup_ratio(
            self.reference_input_space_seconds, self.optima_input_space_seconds
        )

    @property
    def monte_carlo_speedup(self) -> float:
        """Speed-up for mismatch Monte-Carlo sampling."""
        return speedup_ratio(
            self.reference_monte_carlo_seconds, self.optima_monte_carlo_seconds
        )

    def describe(self) -> str:
        """Human-readable summary of the comparison."""
        return (
            f"input-space iteration: reference "
            f"{self.reference_input_space_seconds * 1e3:.3f} ms, "
            f"OPTIMA {self.optima_input_space_seconds * 1e3:.3f} ms "
            f"-> {self.input_space_speedup:.1f}x\n"
            f"mismatch Monte-Carlo : reference "
            f"{self.reference_monte_carlo_seconds * 1e3:.3f} ms, "
            f"OPTIMA {self.optima_monte_carlo_seconds * 1e3:.3f} ms "
            f"-> {self.monte_carlo_speedup:.1f}x"
        )


def _seconds_per_call(call: Callable[[], object]) -> float:
    """Mean wall time of ``call``, repeated for at least
    :data:`MIN_MODEL_SECONDS`."""
    calls = 0
    start = time.perf_counter()
    while True:
        call()
        calls += 1
        elapsed = time.perf_counter() - start
        if elapsed >= MIN_MODEL_SECONDS:
            return elapsed / calls


def _interleaved_medians(
    reference: Callable[[], object], model: Callable[[], object], scale: float
) -> Tuple[float, float]:
    """Median reference and model times over :data:`REFERENCE_RUNS` rounds.

    A round times one run of ``reference``, then ``model`` per call (see
    :func:`_seconds_per_call`) times ``scale``, the model calls one
    reference run covers.
    """
    reference_times, model_times = [], []
    for _ in range(REFERENCE_RUNS):
        start = time.perf_counter()
        reference()
        reference_times.append(time.perf_counter() - start)
        model_times.append(scale * _seconds_per_call(model))
    return float(np.median(reference_times)), float(np.median(model_times))


def measure_speedup(
    technology: TechnologyCard,
    suite: OptimaModelSuite,
    config: Optional[MultiplierConfig] = None,
    input_space_repetitions: int = 3,
    monte_carlo_samples: int = 200,
    conditions: Optional[OperatingConditions] = None,
    seed: int = 0,
) -> SpeedupReport:
    """Time the reference and OPTIMA evaluations of the same workload.

    Each workload runs :data:`REFERENCE_RUNS` rounds; a round times one
    reference run, then repeats one model evaluation for at least
    :data:`MIN_MODEL_SECONDS` and scales its mean time to the same
    workload: ``input_space_repetitions`` input-space evaluations, one
    Monte-Carlo batch.  Each side reports its median round.

    Parameters
    ----------
    technology:
        Technology card of the reference simulator.
    suite:
        Calibrated OPTIMA model suite.
    config:
        Multiplier configuration to evaluate; defaults to the paper's
        ``fom`` corner parameters.
    input_space_repetitions:
        How many times the full 256-entry input space is evaluated (stands
        in for iterating over design corners).
    monte_carlo_samples:
        Mismatch Monte-Carlo sample count.
    """
    if input_space_repetitions <= 0:
        raise ValueError("input_space_repetitions must be positive")
    if monte_carlo_samples <= 0:
        raise ValueError("monte_carlo_samples must be positive")
    config = config or MultiplierConfig(name="fom")
    conditions = conditions or OperatingConditions.nominal(technology)

    reference = ReferenceMultiplier(technology, config, conditions=conditions)
    fast = InSramMultiplier(suite, config, conditions=conditions)
    x_grid, d_grid = fast.input_space()

    # --- input-space iteration ----------------------------------------
    def reference_input_space_pass() -> None:
        for _ in range(input_space_repetitions):
            reference.characterize_input_space(conditions)

    reference_input_space, optima_input_space = _interleaved_medians(
        reference_input_space_pass,
        lambda: fast.multiply(x_grid, d_grid, conditions=conditions),
        scale=input_space_repetitions,
    )

    # --- mismatch Monte-Carlo ------------------------------------------
    rng = np.random.default_rng(seed)
    wordline_voltage = fast.wordline_voltage(config.max_operand)
    discharge_times = np.full(monte_carlo_samples, config.max_discharge_time)
    wordline_voltages = np.full(monte_carlo_samples, float(np.asarray(wordline_voltage)))
    reference_monte_carlo, optima_monte_carlo = _interleaved_medians(
        lambda: reference.characterize_monte_carlo(
            monte_carlo_samples, conditions=conditions, seed=seed
        ),
        lambda: suite.sample_discharge_voltage(
            discharge_times, wordline_voltages, rng, conditions=conditions
        ),
        scale=1,
    )

    # Guard against zero-duration timings on very fast machines.
    epsilon = 1e-9
    return SpeedupReport(
        reference_input_space_seconds=max(reference_input_space, epsilon),
        optima_input_space_seconds=max(optima_input_space, epsilon),
        reference_monte_carlo_seconds=max(reference_monte_carlo, epsilon),
        optima_monte_carlo_seconds=max(optima_monte_carlo, epsilon),
        input_space_repetitions=input_space_repetitions,
        monte_carlo_samples=monte_carlo_samples,
    )
