"""DNN accuracy experiments (paper Tables II and III) as one job graph.

The driver trains the scaled-down model zoo on a synthetic dataset, performs
INT4 post-training quantisation and evaluates five execution modes per model
(FLOAT32, exact INT4, and the fom / power / variation in-SRAM multiplier
corners selected by the design-space exploration).  Table II uses the
20-class "imagenet-like" dataset; Table III re-uses the same backbones with a
replaced 10-class head and brief transfer training on the "cifar10-like"
dataset, mirroring the paper's transfer-learning setup.

Each model runs through three kinds of engine job.  Their arguments are
names and data, never a live network, dataset or backend:

* **train** (:func:`train`) -- builds the model by name (a
  :class:`ModelSpec`), loads the optional start state, trains it and
  returns the trained :func:`~repro.dnn.network.network_state`.  Key: the
  model spec, the start state, the dataset spec and the
  :class:`TrainingConfig`.  A Table III transfer training is a train job
  whose start state is the trained base weights plus a fresh head.
* **quantize** (:func:`quantize`) -- calibrates the trained network once
  on the first ``calibration_samples`` training images and returns the
  state :func:`~repro.dnn.quantization.quantize_network` makes, a dict of
  arrays per quantised layer.  Key: the model spec,
  the state, the dataset spec, ``calibration_samples`` and the
  :data:`INT4` scheme.
* **evaluate** (:func:`evaluate`) -- builds the float network and, with
  :func:`~repro.dnn.quantization.load_quantized_network`, the INT4 network
  from the two states, with no calibration, and returns integer
  top-1 / top-5 hit counts of every mode on one window of the test split,
  so the counts of disjoint windows add up exactly.  Key: the quantize
  key, the modes in the order given, the window and the corner tables.

What travels: states as dicts of arrays; a generated dataset as its
:class:`~repro.dnn.datasets.DatasetSpec` (a hand-built one travels whole);
the corners as their LUT mean arrays, or as :data:`DSE_CORNERS`, the name
of the paper's DSE-selected corners.  The process that runs a job
regenerates a dataset, and builds the named corners, once
(``functools.lru_cache``).

:func:`run_dnn_accuracy_experiment` submits the trains as one sweep,
longest first, then the quantisations, then the evaluations; Table III's
transfer trains are one more sweep.  Results come back in model order.
Under a multi-process executor the models train concurrently, each job on
one BLAS thread (:func:`~repro.dnn.blas.one_blas_thread`).  Without an
engine, a plain serial engine with no cache runs the jobs in process, in
that order, and no key is hashed.  With a cache, Table III's base
trainings are cache hits of Table II's, and a warm re-run executes
nothing.  The service ``dnn`` workload (:mod:`repro.service.workloads`)
runs the same graph for one model and splits its evaluation into
test-set windows; that evaluate sweep carries a ``batch_fn``, so the
windows one worker gets share one rebuild of the networks and one copy
of the states on the wire.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.circuits.technology import TechnologyCard, tsmc65_like
from repro.core.calibration import calibrated_suite
from repro.core.dse import explore_design_space, select_corners
from repro.core.model_suite import OptimaModelSuite
from repro.dnn.blas import one_blas_thread
from repro.dnn.datasets import Dataset, DatasetSpec
from repro.dnn.evaluation import AccuracyReport, evaluate_backends
from repro.dnn.imc_injection import LutBackend
from repro.dnn.models import (
    build_resnet101_like,
    build_resnet50_like,
    build_vgg16_like,
    build_vgg19_like,
)
from repro.dnn.network import Network, copy_network, load_network_state, network_state
from repro.dnn.quantization import (
    QuantizationScheme,
    load_quantized_network,
    quantize_network,
)
from repro.dnn.training import TrainingConfig, replace_classifier_head, train_network
from repro.multiplier.config import MultiplierConfig
from repro.multiplier.imac import InSramMultiplier
from repro.multiplier.lut import ProductLookupTable
from repro.runtime import Job, SweepEngine, SweepSpec, job_key

#: The paper's four models by name, in ascending training cost.
MODELS: Dict[str, Callable[[Tuple[int, int, int], int], Network]] = {
    "VGG16": build_vgg16_like,
    "VGG19": build_vgg19_like,
    "ResNet50": build_resnet50_like,
    "ResNet101": build_resnet101_like,
}

#: The execution modes of Tables II / III: FLOAT32, exact INT4 and the
#: three corners :func:`~repro.core.dse.select_corners` names.
MODES = ("float32", "int4", "fom", "power", "variation")

#: The quantisation scheme of the paper (the bit widths are INT4, fixed).
INT4 = QuantizationScheme()

#: Corner spec naming the paper's corners: the calibrated tsmc65-like
#: suite, the full design space and :func:`~repro.core.dse.select_corners`.
DSE_CORNERS = "dse"

#: What a job receives for a dataset: its spec, or a hand-built dataset.
DatasetArg = Union[DatasetSpec, Dataset]
#: What an evaluate job receives for the corners: LUT means by name, or a spec.
Corners = Union[Mapping[str, np.ndarray], str]
State = Dict[str, np.ndarray]


@dataclasses.dataclass
class DnnExperimentConfig:
    """Size / effort knobs of the DNN accuracy experiment.

    The defaults are sized so the full four-model Table II reproduction runs
    in a few minutes on a laptop; the ``quick()`` preset is what tests use.
    """

    image_size: int = 16
    train_per_class: int = 60
    test_per_class: int = 20
    epochs: int = 8
    transfer_epochs: int = 4
    batch_size: int = 64
    learning_rate: float = 0.08
    calibration_samples: int = 128
    max_eval_samples: Optional[int] = None
    seed: int = 0

    @classmethod
    def quick(cls) -> "DnnExperimentConfig":
        """Reduced effort preset used by unit tests."""
        return cls(
            image_size=8,
            train_per_class=25,
            test_per_class=10,
            epochs=3,
            transfer_epochs=2,
            calibration_samples=64,
            max_eval_samples=120,
        )

    def training(self) -> TrainingConfig:
        """Hyper-parameters of a model's (base) training."""
        return TrainingConfig(
            epochs=self.epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate,
            seed=self.seed,
        )

    def transfer_training(self) -> TrainingConfig:
        """Hyper-parameters of the Table III transfer training."""
        return TrainingConfig(
            epochs=self.transfer_epochs,
            batch_size=self.batch_size,
            learning_rate=self.learning_rate / 2.0,
            seed=self.seed + 1,
        )

    def evaluation_size(self, dataset: DatasetArg) -> int:
        """Test samples evaluated: the test split, capped at ``max_eval_samples``."""
        total = dataset.test_size
        if self.max_eval_samples is not None:
            total = min(total, self.max_eval_samples)
        return total


@dataclasses.dataclass(frozen=True)
class ModelSpec:
    """One of the :data:`MODELS` by name: all a job needs to build it.

    ``classes`` is the width the model is built with; a Table III model
    has ``transfer_classes`` set, its head replaced by one that wide.
    """

    name: str
    image_size: int
    classes: int
    transfer_classes: Optional[int] = None

    def __post_init__(self) -> None:
        if self.name not in MODELS:
            raise ValueError(f"unknown model {self.name!r}; available: {', '.join(MODELS)}")

    def build(self, state: Optional[Mapping[str, np.ndarray]] = None) -> Network:
        """The network, freshly initialised or holding ``state``."""
        network = copy_network(_initialised(self.name, self.image_size, self.classes))
        if self.transfer_classes is not None:
            network = replace_classifier_head(network, self.transfer_classes)
        if state is not None:
            load_network_state(network, state)
        return network


@functools.lru_cache(maxsize=None)
def _initialised(name: str, image_size: int, classes: int) -> Network:
    """A paper model freshly initialised, built once per process.

    :meth:`ModelSpec.build` hands out copies (:func:`copy_network`), which
    cost a third of drawing the initial weights again; this one is never
    trained.
    """
    return MODELS[name]((image_size, image_size, 3), classes)


def model_builders(
    image_size: int, classes: int
) -> List[Tuple[str, Callable[[], Network]]]:
    """The four (name, builder) pairs of paper Tables II / III."""
    shape = (image_size, image_size, 3)
    return [(name, functools.partial(builder, shape, classes)) for name, builder in MODELS.items()]


def corner_backends(
    technology: Optional[TechnologyCard] = None,
    suite: Optional[OptimaModelSuite] = None,
    corners: Optional[Dict[str, MultiplierConfig]] = None,
) -> Dict[str, LutBackend]:
    """Build the fom / power / variation LUT backends from the DSE corners."""
    technology = technology or tsmc65_like()
    if suite is None:
        suite = calibrated_suite(technology).suite
    if corners is None:
        corners = select_corners(explore_design_space(suite))
    return {
        name: LutBackend(ProductLookupTable.from_multiplier(InSramMultiplier(suite, config)), name=name)
        for name, config in corners.items()
    }


# ----------------------------------------------------------------------
# The job bodies
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _generated(spec: DatasetSpec) -> Dataset:
    """The dataset of ``spec``, generated once per process.

    Its arrays are made read-only: every job in the process shares them.
    """
    dataset = spec.generate()
    for array in (dataset.train_images, dataset.train_labels, dataset.test_images, dataset.test_labels):
        array.setflags(write=False)
    return dataset


def _dataset(dataset: DatasetArg) -> Dataset:
    return _generated(dataset) if isinstance(dataset, DatasetSpec) else dataset


def train(
    model: ModelSpec,
    start_state: Optional[State],
    dataset: DatasetArg,
    training: TrainingConfig,
) -> State:
    """Train job: ``model``, from ``start_state`` if given, trained on ``dataset``.

    Returns the trained state.  Runs on one BLAS thread.
    """
    network = model.build(start_state)
    with one_blas_thread():
        train_network(network, _dataset(dataset), training)
    return network_state(network)


def quantize(
    model: ModelSpec, state: State, dataset: DatasetArg, calibration_samples: int
) -> State:
    """Quantize job: the :data:`INT4` calibration of the trained ``model``.

    Calibrates on the first ``calibration_samples`` training images and
    returns the :func:`~repro.dnn.quantization.quantize_network` state.
    Runs on one BLAS thread.
    """
    network = model.build(state)
    calibration = _dataset(dataset).train_images[:calibration_samples]
    with one_blas_thread():
        return quantize_network(network, calibration, INT4)


@functools.lru_cache(maxsize=None)
def _dse_corner_means() -> Dict[str, np.ndarray]:
    """LUT means of the :data:`DSE_CORNERS`, built once per process.

    The first call pays the calibration plus the full design-space
    exploration.
    """
    return _lut_means(corner_backends())


def _lut_means(backends: Mapping[str, Any]) -> Dict[str, np.ndarray]:
    """The corner tables that travel with evaluate jobs: each LUT's means.

    Only deterministic LUT backends qualify: a stochastic one draws from an
    RNG whose state would depend on everything evaluated before.
    """
    for name, backend in backends.items():
        if not isinstance(backend, LutBackend) or backend.stochastic:
            raise ValueError(f"corner {name!r} is not a deterministic LutBackend")
    return {name: backend.table.mean for name, backend in backends.items()}


def _lut_backend(name: str, mean: np.ndarray) -> LutBackend:
    """The deterministic backend of one corner's LUT means (sigma is unused)."""
    table = ProductLookupTable(mean, np.zeros_like(mean), name=name, max_operand=len(mean) - 1)
    return LutBackend(table, name=name)


def evaluate(
    model: ModelSpec,
    state: State,
    quantized: State,
    dataset: DatasetArg,
    modes: Sequence[str],
    window: Tuple[int, int],
    corners: Corners,
) -> Dict[str, int]:
    """Evaluate job: hit counts of every mode on ``test[lo:hi]``.

    ``modes`` are ``"float32"``, ``"int4"`` and corner names of
    ``corners`` (LUT means by name, or :data:`DSE_CORNERS`); a corner mode
    with no table is a :class:`ValueError`.  The INT4 network is rebuilt
    from ``quantized``, with no calibration.  Returns ``{"samples": hi -
    lo, "<mode>_top1": ..., "<mode>_top5": ...}`` as integers, so window
    counts add up exactly.  Runs on one BLAS thread.
    """
    return _window_counts(model, state, quantized, dataset, modes, corners, [window])[0]


def _window_counts(
    model: ModelSpec,
    state: State,
    quantized: State,
    dataset: DatasetArg,
    modes: Sequence[str],
    corners: Corners,
    windows: Sequence[Tuple[int, int]],
) -> List[Dict[str, int]]:
    """:func:`evaluate` of several windows, rebuilding the networks once."""
    backends = {}
    corner_modes = [mode for mode in modes if mode not in ("float32", "int4")]
    if corner_modes:
        means = _dse_corner_means() if corners == DSE_CORNERS else corners
        for mode in corner_modes:
            if mode not in means:
                raise ValueError(f"mode {mode!r} has no corner table")
            backends[mode] = _lut_backend(mode, means[mode])
    network = model.build(state)
    all_counts = []
    with one_blas_thread():
        int4 = load_quantized_network(network, quantized)
        for window in windows:
            reports = evaluate_backends(
                network, int4, backends, _dataset(dataset), modes=modes, window=window
            )
            counts = {"samples": int(window[1]) - int(window[0])}
            for mode, report in reports.items():
                counts[f"{mode}_top1"] = report.top1_hits
                counts[f"{mode}_top5"] = report.top5_hits
            all_counts.append(counts)
    return all_counts


def _all_but_the_window(job: Job) -> List[int]:
    """Identities of an evaluate job's arguments, its window left out."""
    return [id(arg) for index, arg in enumerate(job.args) if index != 5]


def _evaluate_batch(jobs: Sequence[Job]) -> List[Dict[str, int]]:
    """``batch_fn`` of a windowed evaluate sweep.

    Consecutive jobs that differ only in their window (the same argument
    objects, as :func:`window_counts` makes them) share one rebuild of the
    networks; one chunk of them also ships the states once, since a
    chunk is pickled whole.  The counts are those of one job at a time.
    """
    counts: List[Dict[str, int]] = []
    for _, group in itertools.groupby(jobs, key=_all_but_the_window):
        group = list(group)
        model, state, quantized, dataset, modes, _, corners = group[0].args
        windows = [job.args[5] for job in group]
        counts += _window_counts(model, state, quantized, dataset, modes, corners, windows)
    return counts


# ----------------------------------------------------------------------
# The sweeps
# ----------------------------------------------------------------------
def trained_states(
    engine: SweepEngine,
    models: Sequence[ModelSpec],
    dataset: DatasetArg,
    training: TrainingConfig,
    start_states: Optional[Sequence[Optional[State]]] = None,
) -> List[State]:
    """Train every model as one sweep, in the order given; their states."""
    starts = start_states or [None] * len(models)
    keyed = engine.cache is not None
    jobs = [
        Job(
            fn=train,
            args=(model, start, dataset, training),
            name=f"train[{model.name}]",
            key=job_key("dnn-train", model, start, dataset, training) if keyed else None,
        )
        for model, start in zip(models, starts)
    ]
    return engine.run(SweepSpec(f"train[{len(jobs)}]", jobs))


def window_counts(
    engine: SweepEngine,
    models: Sequence[ModelSpec],
    states: Sequence[State],
    dataset: DatasetArg,
    calibration_samples: int,
    modes: Sequence[str],
    corners: Corners,
    windows: Sequence[Tuple[int, int]],
) -> List[List[Dict[str, int]]]:
    """Quantise every trained model (one sweep), then evaluate every window.

    The evaluations are one sweep too; returns, per model, the hit counts
    (:func:`evaluate`) of each window.
    """
    keyed = engine.cache is not None
    keys = [
        job_key("dnn-quantize", model, state, dataset, calibration_samples, INT4) if keyed else None
        for model, state in zip(models, states)
    ]
    quantize_jobs = [
        Job(
            fn=quantize,
            args=(model, state, dataset, calibration_samples),
            name=f"quantize[{model.name}]",
            key=key,
        )
        for model, state, key in zip(models, states, keys)
    ]
    quantized = engine.run(SweepSpec(f"quantize[{len(quantize_jobs)}]", quantize_jobs))
    modes = tuple(modes)
    jobs = [
        Job(
            fn=evaluate,
            args=(model, state, codes, dataset, modes, window, corners),
            name=f"evaluate[{model.name}:{window[0]}:{window[1]}]",
            key=job_key("dnn-evaluate", key, modes, window, corners) if keyed else None,
        )
        for model, state, codes, key in zip(models, states, quantized, keys)
        for window in windows
    ]
    # Only the windows of one model have a rebuild to share.
    batch_fn = _evaluate_batch if len(windows) > 1 else None
    counts = engine.run(SweepSpec(f"evaluate[{len(jobs)}]", jobs, batch_fn=batch_fn))
    return [counts[index : index + len(windows)] for index in range(0, len(counts), len(windows))]


def _transfer_start(model: ModelSpec, base_state: State) -> State:
    """Start state of a transfer training: the base weights plus a fresh head."""
    network = dataclasses.replace(model, transfer_classes=None).build(base_state)
    return network_state(replace_classifier_head(network, model.transfer_classes))


def run_dnn_accuracy_experiment(
    dataset: DatasetArg,
    backends: Dict[str, LutBackend],
    config: Optional[DnnExperimentConfig] = None,
    models: Optional[Sequence[Union[str, Tuple[str, Callable[[], Network]]]]] = None,
    base_dataset: Optional[DatasetArg] = None,
    engine: Optional[SweepEngine] = None,
) -> Dict[str, Dict[str, AccuracyReport]]:
    """Train, quantise and evaluate every model on ``dataset``.

    Parameters
    ----------
    dataset:
        Dataset whose test split is reported (or its spec).
    backends:
        Deterministic corner LUT backends (typically from
        :func:`corner_backends`); their tables travel as arrays.
    config:
        Effort knobs.
    models:
        Names of :data:`MODELS` to run, in report order; defaults to all
        four.  A ``(name, builder)`` pair as :func:`model_builders` returns
        stands for its name: every job builds its network by name.
    base_dataset:
        When provided, each model is first trained on ``base_dataset`` and
        then transfer-trained on ``dataset`` with a replaced classifier head
        (the paper's CIFAR-10 protocol).  When omitted, models are trained
        directly on ``dataset``.
    engine:
        Optional :class:`~repro.runtime.SweepEngine` the jobs run through
        (see the module docstring); by default a serial one with no cache.
        The hit counts are the same either way.
    """
    config = config or DnnExperimentConfig()
    engine = engine or SweepEngine()
    names = [model if isinstance(model, str) else model[0] for model in models or MODELS]
    classes = _head_classes(dataset, base_dataset)
    specs = [ModelSpec(name, config.image_size, classes) for name in names]
    # Longest first: under a multi-process executor the slowest training
    # starts at once instead of last.
    specs.sort(key=lambda spec: list(MODELS).index(spec.name), reverse=True)
    corners = _lut_means(backends)
    modes = ("float32", "int4", *backends)
    travelling = _travelling(dataset)
    if base_dataset is not None:
        base_states = trained_states(engine, specs, _travelling(base_dataset), config.training())
        specs = [dataclasses.replace(spec, transfer_classes=dataset.classes) for spec in specs]
        starts = [_transfer_start(spec, state) for spec, state in zip(specs, base_states)]
        states = trained_states(engine, specs, travelling, config.transfer_training(), starts)
    else:
        states = trained_states(engine, specs, travelling, config.training())
    window = (0, config.evaluation_size(dataset))
    counts = window_counts(
        engine, specs, states, travelling, config.calibration_samples, modes, corners, [window]
    )
    by_name = {spec.name: per_window[0] for spec, per_window in zip(specs, counts)}
    return {name: _reports(name, modes, by_name[name]) for name in names}


def _travelling(dataset: DatasetArg) -> DatasetArg:
    """What a job receives for ``dataset``: its spec when it has one."""
    if isinstance(dataset, Dataset) and dataset.spec is not None:
        return dataset.spec
    return dataset


def _reports(model: str, modes: Sequence[str], counts: Dict[str, int]) -> Dict[str, AccuracyReport]:
    samples = counts["samples"]
    return {
        mode: AccuracyReport(
            model=model,
            mode=mode,
            top1=counts[f"{mode}_top1"] / samples,
            top5=counts[f"{mode}_top5"] / samples,
            samples=samples,
            top1_hits=counts[f"{mode}_top1"],
            top5_hits=counts[f"{mode}_top5"],
        )
        for mode in modes
    }


def _head_classes(dataset: DatasetArg, base_dataset: Optional[DatasetArg]) -> int:
    """Classes the freshly built models should output."""
    return base_dataset.classes if base_dataset is not None else dataset.classes


def paper_table2_reference() -> Dict[str, Dict[str, Tuple[float, float]]]:
    """Paper Table II (ImageNet): {model: {mode: (top-1, top-5)}} in percent."""
    return {
        "VGG16": {
            "float32": (70.30, 90.10),
            "int4": (69.25, 89.62),
            "fom": (68.97, 89.11),
            "power": (64.45, 81.79),
            "variation": (38.22, 47.81),
        },
        "VGG19": {
            "float32": (71.30, 90.00),
            "int4": (70.09, 89.78),
            "fom": (69.91, 89.24),
            "power": (63.34, 79.61),
            "variation": (36.66, 48.37),
        },
        "ResNet50": {
            "float32": (74.90, 92.10),
            "int4": (73.48, 91.75),
            "fom": (73.39, 91.65),
            "power": (61.56, 80.88),
            "variation": (48.07, 56.71),
        },
        "ResNet101": {
            "float32": (76.40, 92.80),
            "int4": (75.12, 91.91),
            "fom": (74.95, 91.63),
            "power": (59.77, 78.49),
            "variation": (48.45, 53.19),
        },
    }


def paper_table3_reference() -> Dict[str, Dict[str, float]]:
    """Paper Table III (CIFAR-10): {model: {mode: top-1}} in percent."""
    return {
        "VGG16": {
            "float32": 92.24,
            "int4": 92.04,
            "fom": 91.98,
            "power": 87.39,
            "variation": 68.10,
        },
        "VGG19": {
            "float32": 92.71,
            "int4": 92.42,
            "fom": 92.29,
            "power": 89.79,
            "variation": 66.85,
        },
        "ResNet50": {
            "float32": 93.10,
            "int4": 92.86,
            "fom": 92.83,
            "power": 90.81,
            "variation": 73.83,
        },
        "ResNet101": {
            "float32": 93.35,
            "int4": 93.06,
            "fom": 93.04,
            "power": 90.42,
            "variation": 69.77,
        },
    }


def format_accuracy_table(
    results: Dict[str, Dict[str, AccuracyReport]],
    paper_reference: Optional[Dict[str, Dict[str, Tuple[float, float]]]] = None,
    top5: bool = True,
) -> str:
    """Fixed-width text rendering of a Table II / III reproduction."""
    if not results:
        return "(no results)"
    modes = list(next(iter(results.values())).keys())
    header = f"{'model':<11}" + "".join(f"{mode:>20}" for mode in modes)
    lines = [header, "-" * len(header)]
    for model, reports in results.items():
        cells = []
        for mode in modes:
            report = reports[mode]
            if top5:
                cells.append(f"{100 * report.top1:6.1f}/{100 * report.top5:5.1f}")
            else:
                cells.append(f"{100 * report.top1:6.1f}")
        lines.append(f"{model:<11}" + "".join(f"{cell:>20}" for cell in cells))
    if paper_reference:
        lines.append("")
        lines.append("paper reference (top-1):")
        for model, per_mode in paper_reference.items():
            cells = []
            for mode in modes:
                value = per_mode.get(mode)
                if value is None:
                    cells.append(f"{'-':>20}")
                elif isinstance(value, tuple):
                    cells.append(f"{value[0]:>20.1f}")
                else:
                    cells.append(f"{float(value):>20.1f}")
            lines.append(f"{model:<11}" + "".join(cells))
    lines.append("(measured cells are top-1/top-5 percent)" if top5 else "(cells are top-1 percent)")
    return "\n".join(lines)
