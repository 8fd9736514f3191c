"""Tests for :func:`repro.dnn.blas.one_blas_thread`."""

import contextlib
import sys
import threading

import numpy as np
import pytest

from repro.analysis import dnn_tables
from repro.analysis.dnn_tables import DnnExperimentConfig, ModelSpec
from repro.dnn import blas
from repro.dnn.blas import one_blas_thread
from repro.dnn.datasets import imagenet_like
from repro.multiplier.lut import ProductLookupTable

CONTROLS = blas._thread_controls()
needs_openblas = pytest.mark.skipif(CONTROLS is None, reason="no OpenBLAS loaded")


def threads() -> int:
    return CONTROLS[1]()


@pytest.fixture
def two_threads():
    """Start from two BLAS threads, so setting one is visible; restore after."""
    set_threads, get_threads = CONTROLS
    before = get_threads()
    set_threads(2)
    yield
    set_threads(before)


@needs_openblas
class TestOneBlasThread:
    def test_finds_the_loaded_openblas(self):
        assert "openblas" in blas._find_openblas().lower()

    def test_restores_after_a_normal_exit(self, two_threads):
        with one_blas_thread():
            assert threads() == 1
        assert threads() == 2

    def test_restores_after_an_exception(self, two_threads):
        with pytest.raises(RuntimeError, match="boom"):
            with one_blas_thread():
                assert threads() == 1
                raise RuntimeError("boom")
        assert threads() == 2

    def test_nested_blocks_restore_once(self, two_threads):
        with one_blas_thread():
            with one_blas_thread():
                assert threads() == 1
            assert threads() == 1
        assert threads() == 2

    def test_concurrent_blocks_restore_when_the_last_leaves(self, two_threads):
        first_in, second_in, first_out = (threading.Event() for _ in range(3))
        seen = {}

        def first():
            with one_blas_thread():
                first_in.set()
                second_in.wait(10)
            seen["after first"] = threads()
            first_out.set()

        def second():
            first_in.wait(10)
            with one_blas_thread():
                second_in.set()
                first_out.wait(10)
                seen["inside second"] = threads()

        workers = [threading.Thread(target=first), threading.Thread(target=second)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(20)
        assert not any(worker.is_alive() for worker in workers)
        assert seen == {"after first": 1, "inside second": 1}
        assert threads() == 2

    def test_many_threads_entering_and_leaving_restore_once(self, two_threads):
        """Eight threads, each entering and leaving 500 times with a short
        switch interval: every block sees one thread, and the count is
        restored exactly when the last block leaves."""
        seen = []

        def churn():
            for _ in range(500):
                with one_blas_thread():
                    seen.append(threads())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=churn) for _ in range(8)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        assert len(seen) == 8 * 500 and set(seen) == {1}
        assert blas._depth == 0
        assert threads() == 2

    def test_no_op_without_a_library(self, two_threads, monkeypatch):
        monkeypatch.setattr(blas, "_find_openblas", lambda: None)
        blas._thread_controls.cache_clear()
        try:
            with one_blas_thread():
                assert threads() == 2
            assert threads() == 2
        finally:
            blas._thread_controls.cache_clear()

    def test_training_and_evaluation_bits_do_not_change(self, two_threads, monkeypatch):
        """One BLAS thread or two: the same trained state and hit counts."""
        config = DnnExperimentConfig(
            image_size=8,
            train_per_class=4,
            test_per_class=2,
            epochs=1,
            calibration_samples=16,
        )
        dataset = imagenet_like(image_size=8, train_per_class=4, test_per_class=2)
        corners = {"lut": ProductLookupTable.exact().mean + 1.0}
        modes = ("float32", "int4", "lut")
        window = (0, config.evaluation_size(dataset))
        model = ModelSpec("ResNet50", 8, dataset.classes)

        def run():
            state = dnn_tables.train(model, None, dataset, config.training())
            quantized = dnn_tables.quantize(model, state, dataset, config.calibration_samples)
            counts = dnn_tables.evaluate(model, state, quantized, dataset, modes, window, corners)
            return state, counts

        state, counts = run()
        monkeypatch.setattr(dnn_tables, "one_blas_thread", contextlib.nullcontext)
        plain_state, plain_counts = run()
        assert state.keys() == plain_state.keys()
        assert all(np.array_equal(state[name], plain_state[name]) for name in state)
        assert counts == plain_counts
