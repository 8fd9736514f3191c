#!/usr/bin/env python3
"""In-SRAM multipliers inside a quantised DNN (paper Section VI).

Trains a scaled-down VGG16-style network on the synthetic "imagenet-like"
dataset, quantises it to INT4, and evaluates its accuracy when every
multiplication runs through each of the three in-SRAM multiplier corners —
the single-model version of the Table II experiment.

Run with ``python examples/dnn_inference.py`` (takes a couple of minutes).
"""

from __future__ import annotations

from repro.analysis.dnn_tables import corner_backends
from repro.circuits import tsmc65_like
from repro.core.calibration import calibrated_suite
from repro.dnn import (
    TrainingConfig,
    build_vgg16_like,
    evaluate_backends,
    imagenet_like,
    load_quantized_network,
    quantize_network,
    train_network,
)
from repro.dnn.training import classification_accuracy


def main() -> None:
    technology = tsmc65_like()
    print("calibrating OPTIMA and selecting multiplier corners ...")
    suite = calibrated_suite(technology).suite
    backends = corner_backends(technology, suite=suite)
    for name, backend in backends.items():
        print(
            f"  corner {name:<10} mean LUT error "
            f"{backend.table.mean_error_lsb():5.2f} LSB, "
            f"small-operand error {backend.table.error_for_small_operands():5.2f} LSB"
        )
    print()

    print("building the synthetic imagenet-like dataset ...")
    dataset = imagenet_like()
    print("  " + dataset.describe())

    print("training a VGG16-style network (FLOAT32) ...")
    network = build_vgg16_like((dataset.image_shape[0], dataset.image_shape[1], 3), dataset.classes)
    train_network(network, dataset, TrainingConfig(epochs=10, learning_rate=0.08, verbose=True))
    accuracy = classification_accuracy(network, dataset.test_images, dataset.test_labels)
    print(f"  final FLOAT32 test accuracy: {100 * accuracy:.1f} %")
    print()

    print("post-training INT4 quantisation ...")
    state = quantize_network(network, dataset.train_images[:128])
    quantized = load_quantized_network(network, state)

    print("evaluating all execution modes on the test split ...")
    reports = evaluate_backends(network, quantized, backends, dataset)
    print()
    print(f"{'mode':<12}{'top-1 [%]':>12}{'top-5 [%]':>12}")
    for mode, report in reports.items():
        print(f"{mode:<12}{100 * report.top1:>12.1f}{100 * report.top5:>12.1f}")
    print()
    print(
        "expected shape (paper Table II): float32 >= int4 >= fom >> power > variation,\n"
        "with the variation corner collapsing because of its error on small operands."
    )


if __name__ == "__main__":
    main()
