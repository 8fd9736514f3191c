"""Tests for the event-driven simulation framework."""

import numpy as np
import pytest

from repro.eventsim.kernel import SimulationKernel
from repro.eventsim.signals import AnalogSignal, DigitalSignal, Signal
from repro.eventsim.components import (
    AdcReadout,
    BitlineComponent,
    PrechargeUnit,
    SamplingSwitch,
    WordlineDriver,
)
from repro.eventsim.testbench import MultiplierTestbench
from repro.converters.adc import Adc
from repro.converters.dac import LinearDac
from repro.circuits.conditions import OperatingConditions
from repro.multiplier.config import MultiplierConfig


class TestKernel:
    def test_events_execute_in_time_order(self):
        kernel = SimulationKernel()
        order = []
        kernel.schedule_at(2e-9, lambda: order.append("late"))
        kernel.schedule_at(1e-9, lambda: order.append("early"))
        kernel.run()
        assert order == ["early", "late"]
        assert kernel.now == pytest.approx(2e-9)

    def test_same_time_events_keep_scheduling_order(self):
        kernel = SimulationKernel()
        order = []
        kernel.schedule_at(1e-9, lambda: order.append("first"))
        kernel.schedule_at(1e-9, lambda: order.append("second"))
        kernel.run()
        assert order == ["first", "second"]

    def test_schedule_after_is_relative(self):
        kernel = SimulationKernel()
        seen = []
        kernel.schedule_at(1e-9, lambda: kernel.schedule_after(1e-9, lambda: seen.append(kernel.now)))
        kernel.run()
        assert seen[0] == pytest.approx(2e-9)

    def test_cannot_schedule_in_the_past(self):
        kernel = SimulationKernel()
        kernel.schedule_at(1e-9, lambda: None)
        kernel.run()
        with pytest.raises(ValueError):
            kernel.schedule_at(0.5e-9, lambda: None)

    def test_cancelled_events_are_skipped(self):
        kernel = SimulationKernel()
        seen = []
        event = kernel.schedule_at(1e-9, lambda: seen.append("cancelled"))
        kernel.schedule_at(2e-9, lambda: seen.append("kept"))
        event.cancel()
        kernel.run()
        assert seen == ["kept"]

    def test_run_until_stops_early(self):
        kernel = SimulationKernel()
        seen = []
        kernel.schedule_at(1e-9, lambda: seen.append(1))
        kernel.schedule_at(5e-9, lambda: seen.append(5))
        executed = kernel.run(until=2e-9)
        assert executed == 1
        assert seen == [1]
        assert kernel.now == pytest.approx(2e-9)
        assert kernel.run() == 1
        assert seen == [1, 5]

    def test_event_log_and_reset(self):
        kernel = SimulationKernel()
        kernel.schedule_at(1e-9, lambda: None, label="labelled event")
        kernel.run()
        assert any("labelled event" in line for line in kernel.event_log())


class TestSignals:
    def test_history_and_value_at(self):
        signal = DigitalSignal("ctrl", initial=0)
        signal.set(1, 1e-9)
        signal.set(2.0, 2e-9)
        assert signal.value == 2
        assert isinstance(signal.value, int)

    def test_backwards_drive_rejected(self):
        signal = Signal("ctrl", initial=0)
        signal.set(1, 1e-9)
        with pytest.raises(ValueError):
            signal.set(2, 0.5e-9)

    def test_listeners_invoked(self):
        signal = DigitalSignal("flag")
        seen = []
        signal.on_change(lambda sig, time: seen.append((sig.value, time)))
        signal.set(1, 3e-9)
        assert seen == [(1, 3e-9)]

    def test_analog_signal_waveform(self):
        signal = AnalogSignal("v", initial=1.0)
        signal.set(0.8, 1e-9)
        signal.set(0.6, 2e-9)
        times, values = signal.as_waveform()
        assert times.shape == values.shape == (3,)
        assert signal.max_value() == pytest.approx(1.0)
        assert signal.min_value() == pytest.approx(0.6)


class TestComponents:
    def test_precharge_unit(self):
        kernel = SimulationKernel()
        lines = [AnalogSignal("blb0", 0.2), AnalogSignal("blb1", 0.4)]
        unit = PrechargeUnit(kernel, lines, vdd=1.0, duration=0.5e-9)
        unit.start()
        kernel.run()
        assert all(line.value == pytest.approx(1.0) for line in lines)
        assert unit.done.value == 1

    def test_wordline_driver_settles_to_dac_voltage(self):
        kernel = SimulationKernel()
        driver = WordlineDriver(kernel, LinearDac(v_zero=0.3, v_full_scale=1.0))
        driver.apply(15)
        kernel.run()
        assert driver.wordline.value == pytest.approx(1.0)
        assert driver.settled.value == 1
        driver.release()
        assert driver.wordline.value == pytest.approx(0.0)

    def test_bitline_component_requires_discharge_start(self, suite):
        kernel = SimulationKernel()
        conditions = OperatingConditions(vdd=suite.vdd_nominal, temperature=suite.temperature_nominal)
        bitline = BitlineComponent(kernel, suite, 0, conditions)
        with pytest.raises(RuntimeError):
            bitline.sample()

    def test_sampling_switch_requires_all_branches(self):
        kernel = SimulationKernel()
        switch = SamplingSwitch(kernel, branches=2)
        switch.capture(0, 0.1)
        with pytest.raises(RuntimeError):
            switch.share()
        switch.capture(1, 0.3)
        assert switch.share() == pytest.approx(0.2)
        with pytest.raises(IndexError):
            switch.capture(5, 0.1)

    def test_adc_readout_converts_after_delay(self):
        kernel = SimulationKernel()
        readout = AdcReadout(
            kernel,
            adc=Adc(levels=1000, gain=1e-3),
            scale=1.0,
            offset=0.0,
            product_levels=225,
            conversion_time=1e-9,
        )
        readout.convert(0.1)
        assert readout.result_valid.value == 0
        kernel.run()
        assert readout.result_valid.value == 1
        assert readout.result.value == 100


class TestTestbench:
    def test_matches_direct_model_on_sampled_pairs(self, suite):
        config = MultiplierConfig(tau0=0.16e-9, v_dac_zero=0.3, v_dac_full_scale=1.0, name="tb")
        testbench = MultiplierTestbench(suite, config)
        for x, d in ((0, 0), (1, 15), (7, 9), (15, 15), (3, 12)):
            result = testbench.run_multiply(x, d)
            assert result.product == testbench.model_result(x, d)
            assert result.expected == x * d

    def test_sequence_produces_events_and_advances_time(self, suite):
        config = MultiplierConfig(name="tb2")
        testbench = MultiplierTestbench(suite, config)
        result = testbench.run_multiply(5, 10)
        assert result.executed_events >= 8
        assert result.finish_time > config.max_discharge_time
        assert any("charge share" in line for line in result.event_log)

    def test_run_sweep(self, suite):
        testbench = MultiplierTestbench(suite, MultiplierConfig(name="tb3"))
        results = testbench.run_sweep([(1, 1), (2, 3)])
        assert len(results) == 2
        assert results[1].expected == 6

    def test_out_of_range_operands_rejected(self, suite):
        testbench = MultiplierTestbench(suite, MultiplierConfig(name="tb4"))
        with pytest.raises(ValueError):
            testbench.run_multiply(16, 0)
        with pytest.raises(ValueError):
            testbench.run_multiply(0, -1)

    def test_stochastic_testbench_runs(self, suite, rng):
        testbench = MultiplierTestbench(suite, MultiplierConfig(name="tb5"), rng=rng)
        result = testbench.run_multiply(9, 9)
        assert 0 <= result.product <= 225
