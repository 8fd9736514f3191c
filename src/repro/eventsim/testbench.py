"""Full multiply-sequence testbench on the event-driven framework.

The testbench executes the sequence of paper Fig. 3 / Section V with explicit
timing:

1. write the weight word into the array columns,
2. pre-charge all bit-line-bars,
3. settle the word-line DAC to the input voltage,
4. start all discharges simultaneously; sample bit-line ``i`` after
   ``2**i * tau0``,
5. charge-share the sampling capacitors,
6. convert the combined voltage with the ADC.

The digital result must agree with the vectorised
:class:`~repro.multiplier.imac.InSramMultiplier` model (the testbench uses
the same model suite and read-out calibration) — the integration tests assert
exactly that, which validates the event-based framework against the direct
evaluation path.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional

import numpy as np

from repro.circuits.conditions import OperatingConditions
from repro.core.model_suite import OptimaModelSuite
from repro.eventsim.components import (
    AdcReadout,
    BitlineComponent,
    PrechargeUnit,
    SamplingSwitch,
    WordlineDriver,
)
from repro.eventsim.kernel import SimulationKernel
from repro.multiplier.config import MultiplierConfig
from repro.multiplier.imac import InSramMultiplier


@dataclasses.dataclass
class TestbenchResult:
    """Outcome of one event-driven multiply."""

    x: int
    d: int
    product: int
    expected: int
    combined_discharge: float
    finish_time: float
    executed_events: int
    event_log: List[str]


class MultiplierTestbench:
    """Event-driven testbench of the IMAC-style multiplier.

    Parameters
    ----------
    suite:
        Calibrated OPTIMA model suite.
    config:
        Multiplier configuration to exercise.
    conditions:
        PVT conditions of the run.
    rng:
        Optional random generator; when provided, each discharge is
        perturbed with the Eq. 6 mismatch sigma.
    precharge_time, settle_time, adc_time:
        Phase durations of the controller sequence.
    """

    def __init__(
        self,
        suite: OptimaModelSuite,
        config: MultiplierConfig,
        conditions: Optional[OperatingConditions] = None,
        rng: Optional[np.random.Generator] = None,
        precharge_time: float = 0.5e-9,
        settle_time: float = 0.2e-9,
        adc_time: float = 1.0e-9,
    ) -> None:
        self.suite = suite
        self.config = config
        self.conditions = conditions or OperatingConditions(
            vdd=suite.vdd_nominal, temperature=suite.temperature_nominal
        )
        self.rng = rng
        self.precharge_time = precharge_time
        self.settle_time = settle_time
        self.adc_time = adc_time

        # Reuse the multiplier model for the DAC and the read-out
        # calibration, so the testbench and the direct model share one
        # transfer function by construction.
        self._model = InSramMultiplier(suite, config, conditions=self.conditions)

        self.kernel = SimulationKernel()
        self.bitlines = [
            BitlineComponent(self.kernel, suite, index, self.conditions, rng=rng)
            for index in range(config.bits)
        ]
        self.precharge = PrechargeUnit(
            self.kernel,
            [bitline.voltage for bitline in self.bitlines],
            vdd=self.conditions.vdd,
            duration=precharge_time,
        )
        self.wordline = WordlineDriver(self.kernel, self._model.dac, settle_time=settle_time)
        self.sampler = SamplingSwitch(self.kernel, branches=config.bits)
        self.readout = AdcReadout(
            self.kernel,
            adc=self._model.adc,
            scale=self._model._readout_scale,
            offset=self._model._readout_offset,
            product_levels=config.product_levels,
            conversion_time=adc_time,
        )

    # ------------------------------------------------------------------
    # Sequence
    # ------------------------------------------------------------------
    def run_multiply(self, x: int, d: int) -> TestbenchResult:
        """Execute one full multiply through the event queue."""
        if not 0 <= x <= self.config.max_operand:
            raise ValueError(f"x out of range 0..{self.config.max_operand}")
        if not 0 <= d <= self.config.max_operand:
            raise ValueError(f"d out of range 0..{self.config.max_operand}")

        kernel = self.kernel
        start = kernel.now
        self.sampler.clear()

        # Phase 1: write the weight into the columns (digital, immediate).
        for index, bitline in enumerate(self.bitlines):
            bitline.write_bit((d >> index) & 1)

        # Phase 2: pre-charge.
        self.precharge.start()

        # Phase 3: word-line settle after pre-charge completes.  The
        # discharge phase starts one picosecond after the settle event so
        # the word-line value is guaranteed to be up to date when the
        # bit-line components latch it.
        wordline_ready = start + self.precharge_time + self.settle_time
        discharge_start = wordline_ready + 1e-12
        kernel.schedule_at(
            start + self.precharge_time,
            lambda: self.wordline.apply(x),
            label="controller: apply input code",
        )

        # Phase 4: discharges start once the word line has settled; each
        # bit-line is sampled after its bit-weighted window.
        def start_discharges() -> None:
            wordline_voltage = self.wordline.wordline.value
            for bitline in self.bitlines:
                bitline.begin_discharge(wordline_voltage)

        kernel.schedule_at(discharge_start, start_discharges, label="controller: discharge start")

        for index, duration in enumerate(self.config.discharge_times()):
            def make_sampler(branch_index: int) -> object:
                def do_sample() -> None:
                    discharge = self.bitlines[branch_index].sample()
                    self.sampler.capture(branch_index, discharge)

                return do_sample

            kernel.schedule_at(
                discharge_start + duration,
                make_sampler(index),
                label=f"controller: sample blb{index}",
            )

        # Phase 5: charge sharing after the slowest sample, then ADC.
        share_time = discharge_start + self.config.max_discharge_time + 0.05e-9
        state: Dict[str, float] = {}

        def do_share() -> None:
            state["combined"] = self.sampler.share()
            self.wordline.release()
            self.readout.convert(state["combined"])

        kernel.schedule_at(share_time, do_share, label="controller: charge share")

        kernel.run()

        return TestbenchResult(
            x=x,
            d=d,
            product=self.readout.result.value,
            expected=x * d,
            combined_discharge=float(state.get("combined", 0.0)),
            finish_time=kernel.now,
            executed_events=kernel.executed_events,
            event_log=kernel.event_log(),
        )

    def run_sweep(self, pairs: List[tuple]) -> List[TestbenchResult]:
        """Run a list of (x, d) pairs and return one result per pair."""
        return [self.run_multiply(int(x), int(d)) for x, d in pairs]

    def model_result(self, x: int, d: int) -> int:
        """Result of the direct (non-event-driven) model for comparison."""
        return int(np.asarray(self._model.multiply(x, d)))
