"""``dnn_tables``: the Tables II and III protocol, cold then warm.

One pass, through the drivers users call, on a fresh auto ``SweepEngine``:
``calibrated_suite`` (quick characterisation plan), ``explore_design_space``
(48 corners) and ``select_corners``, ``corner_backends``, then
``run_dnn_accuracy_experiment`` for each of the four backbones on
``imagenet_like`` (Table II) and on ``cifar10_like`` with ``base_dataset``
(Table III).  DNN train, quantise and evaluate dominate and appear in no
other workload; Table III retrains Table II's base models.

The experiment runs at :func:`bench_config`, a reduced
``DnnExperimentConfig`` sized so that ten cold / warm pairs fit in a run
and the runs of all workloads fit the benchmark's time budget (the
``quick()`` preset takes 13-15 s a pass).  All four backbones, both
tables and all five execution modes are kept, so a pass makes the same
twelve ``train_network`` calls as the full protocol.  Five training
images per class give each Table II call two minibatches and each
Table III call one.

The seed draws the order in which each table visits the backbones; every
model is built and trained from fixed seeds, so the accuracies do not
depend on it.  The checks: the top-1 / top-5 hit counts per (table, model,
mode) are identical cold and warm and equal the recorded counts.
"""

from __future__ import annotations

import dataclasses
import pathlib
from typing import Any, Dict, List

import numpy as np

import harness
import inprocess
import paper_sweeps

SETUP_CODE = (
    "import repro.analysis.dnn_tables, repro.core.calibration, repro.core.characterization, "
    "repro.core.dse, repro.dnn.datasets, repro.runtime\n"
    "from repro.circuits.technology import tsmc65_like\n"
    "tsmc65_like()\n"
)

TARGETS = [
    target for target in paper_sweeps.TARGETS if not target[0].startswith(("analysis.", "core.pvt"))
] + [
    ("core.calibrate", "repro.core.calibration", "calibrated_suite"),
    ("multiplier.lut_build", "repro.multiplier.lut", "ProductLookupTable.from_multiplier"),
    ("analysis.corner_backends", "repro.analysis.dnn_tables", "corner_backends"),
    ("analysis.dnn_experiment", "repro.analysis.dnn_tables", "run_dnn_accuracy_experiment"),
    ("dnn.datasets", "repro.dnn.datasets", "imagenet_like"),
    ("dnn.datasets", "repro.dnn.datasets", "cifar10_like"),
    ("dnn.train", "repro.dnn.training", "train_network"),
    ("dnn.col2im", "repro.dnn.layers", "col2im"),
    ("dnn.quantize", "repro.dnn.quantization", "quantize_network"),
    ("dnn.eval", "repro.dnn.evaluation", "evaluate_backends"),
    ("dnn.lut_matmul", "repro.dnn.imc_injection", "LutBackend.matmul"),
]


def bench_config():
    from repro.analysis.dnn_tables import DnnExperimentConfig

    return dataclasses.replace(
        DnnExperimentConfig.quick(),
        train_per_class=5,
        test_per_class=1,
        epochs=1,
        transfer_epochs=1,
        calibration_samples=16,
        max_eval_samples=None,
    )


def model_order(seed: int, pair: int, table: int) -> List[int]:
    return [int(i) for i in np.random.default_rng([seed, pair, table]).permutation(4)]


def make_body(seed: int, config: Any):
    from repro.analysis import dnn_tables
    from repro.circuits.technology import tsmc65_like
    from repro.core import calibration, dse
    from repro.core.characterization import CharacterizationPlan
    from repro.dnn import datasets

    technology = tsmc65_like()
    plan = CharacterizationPlan.quick()

    def body(timer: inprocess.Timer, engine: Any, pair: int) -> Dict[str, Any]:
        suite = timer(calibration.calibrated_suite, technology, plan=plan, engine=engine).suite
        exploration = timer(dse.explore_design_space, suite, engine=engine)
        corners = dse.select_corners(exploration)
        backends = timer(dnn_tables.corner_backends, technology, suite=suite, corners=corners)
        sizes = dict(
            image_size=config.image_size,
            train_per_class=config.train_per_class,
            test_per_class=config.test_per_class,
        )
        imagenet = timer(datasets.imagenet_like, **sizes)
        cifar = timer(datasets.cifar10_like, **sizes)
        hits: Dict[str, List[int]] = {}
        for table, (dataset, base) in enumerate(((imagenet, None), (cifar, imagenet))):
            builders = dnn_tables.model_builders(config.image_size, imagenet.classes)
            for index in model_order(seed, pair, table):
                reports = timer(
                    dnn_tables.run_dnn_accuracy_experiment,
                    dataset,
                    backends,
                    config=config,
                    models=[builders[index]],
                    base_dataset=base,
                )
                for model, per_mode in reports.items():
                    for mode, report in per_mode.items():
                        hits[f"table{table + 2}/{model}/{mode}"] = [
                            int(round(report.top1 * report.samples)),
                            int(round(report.top5 * report.samples)),
                            int(report.samples),
                        ]
        fom = [value for key, value in hits.items() if key.endswith("/fom")]
        return {
            "hits": dict(sorted(hits.items())),
            "fom_top1_pct": 100.0 * float(np.mean([top1 / samples for top1, _, samples in fom])),
            "corners": corners,
        }

    return body


def make_check(reference: Dict[str, Any]):
    def check(run: harness.Run, cold: inprocess.Pass, warm: inprocess.Pass) -> None:
        run.check(cold.outputs["hits"] == warm.outputs["hits"], "warm hit counts == cold")
        run.check(inprocess.same(cold.outputs["corners"], warm.outputs["corners"]), "warm corners == cold")
        run.check(cold.outputs["hits"] == reference["hits"], "hit counts == recorded")

    return check


def run(run: harness.Run, root: pathlib.Path) -> Dict[str, float]:
    """Measure; fill the run's end-to-end metrics, return layer values."""
    setup = harness.time_fresh_imports(root, SETUP_CODE, harness.SETUP_REPEATS)
    body = make_body(run.seed, bench_config())
    measured = inprocess.measure(
        run, root, body, make_check(harness.load_reference("dnn_tables")), TARGETS
    )
    pairs = measured["pairs"]
    # Cold and warm calls: in the cold pass alone the quick calibration
    # and the ResNet101 experiments share the top 5% and the p95 swaps
    # between them; with both passes the p95 is a ResNet101 experiment.
    inprocess.end_to_end(run, pairs, setup, latency_sides=("cold", "warm"))
    last = pairs[-1]["cold"].outputs
    run.details["outputs"] = {"hits": last["hits"], "fom_top1_pct": last["fom_top1_pct"]}
    if not run.trace:
        return {}
    return layers(pairs, measured["tracer"], last)


#: Per-layer metrics: (kind, span names); see :func:`inprocess.layer_metrics`.
LAYERS = {
    "circuits.discharge_s": ("total", ["circuits.discharge"]),
    "circuits.discharge_calls": ("calls", ["circuits.discharge"]),
    "core.characterize_s": ("total", ["core.characterize"]),
    "core.fit_s": ("total", ["core.fit"]),
    "core.dse_s": ("total", ["core.dse"]),
    "core.calibrate_s": ("total", ["core.calibrate", "core.dse"]),
    "multiplier.lut_build_s": ("total", ["multiplier.lut_build"]),
    "dnn.train_s": ("total", ["dnn.train"]),
    "dnn.train_calls": ("calls", ["dnn.train"]),
    "dnn.train_self_s": ("self", ["dnn.train"]),
    "dnn.col2im_s": ("total", ["dnn.col2im"]),
    "dnn.quantize_s": ("total", ["dnn.quantize"]),
    "dnn.eval_s": ("total", ["dnn.eval"]),
    "dnn.eval_self_s": ("self", ["dnn.eval"]),
    "dnn.lut_matmul_s": ("total", ["dnn.lut_matmul"]),
    "dnn.lut_matmul_calls": ("calls", ["dnn.lut_matmul"]),
}


def layers(pairs, tracer, outputs) -> Dict[str, float]:
    values = inprocess.layer_metrics(pairs, tracer, LAYERS)
    values["dnn.fom_top1_pct"] = outputs["fom_top1_pct"]
    return values
