"""Sweep workloads the service can run, keyed by wire-protocol name.

A workload is a plain function ``fn(params, engine) -> payload``:

* ``params`` — the (already JSON-decoded) ``params`` object of the submit
  request;
* ``engine`` — a :class:`repro.runtime.SweepEngine` view whose ``progress``
  callback streams ticks back to every subscribed client; workloads route
  all heavy lifting through it so caching, executor choice and progress
  reporting come for free;
* return value — any JSON-serialisable object; it becomes the ``payload``
  of the terminal ``result`` event.

Workload functions run on a worker thread (the service wraps them in
``loop.run_in_executor``), so they may block; they must not touch the event
loop.  The built-ins mirror the ``python -m repro run`` subcommands'
``--json`` payloads, so a service client and a batch CLI run produce
comparable documents.

The registry is open: tests and downstream deployments add workloads with
:func:`register_workload` (used as a decorator or called directly).
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Dict, List, Optional

from repro.runtime import SweepEngine

WorkloadFn = Callable[[Dict[str, Any], SweepEngine], Any]

_WORKLOADS: Dict[str, WorkloadFn] = {}


def register_workload(name: str, fn: Optional[WorkloadFn] = None):
    """Register ``fn`` under ``name``; usable as ``@register_workload("x")``."""

    def _register(workload: WorkloadFn) -> WorkloadFn:
        _WORKLOADS[name] = workload
        return workload

    if fn is not None:
        return _register(fn)
    return _register


def unregister_workload(name: str) -> None:
    """Remove a workload (primarily for test isolation)."""
    _WORKLOADS.pop(name, None)


def get_workload(name: str) -> WorkloadFn:
    """Look up a workload; raises ``KeyError`` with the known names."""
    try:
        return _WORKLOADS[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {', '.join(workload_names())}"
        ) from None


def workload_names() -> List[str]:
    """Sorted names of every registered workload."""
    return sorted(_WORKLOADS)


# ----------------------------------------------------------------------
# Built-in paper workloads (imports deferred so the service layer stays
# importable without pulling the whole modelling stack upfront)
# ----------------------------------------------------------------------
@register_workload("dse")
def run_dse(params: Dict[str, Any], engine: SweepEngine) -> Dict[str, Any]:
    """48-corner design-space exploration; ``{"fast": true}`` for the quick grid."""
    from repro.analysis.design_space import corner_summary_rows, run_design_space_exploration
    from repro.circuits.technology import tsmc65_like
    from repro.core.calibration import calibrated_suite
    from repro.core.characterization import CharacterizationPlan
    from repro.core.dse import DesignSpace

    fast = bool(params.get("fast", False))
    technology = tsmc65_like()
    plan = CharacterizationPlan.quick() if fast else None
    space = DesignSpace.quick() if fast else None
    suite = calibrated_suite(technology, plan=plan, engine=engine).suite
    result = run_design_space_exploration(technology, suite=suite, space=space, engine=engine)
    return {
        "command": "dse",
        "fast": fast,
        "corner_count": len(result.points),
        "corners": result.table(),
        "selected": corner_summary_rows(result),
    }


@register_workload("characterize")
def run_characterize(params: Dict[str, Any], engine: SweepEngine) -> Dict[str, Any]:
    """Reference characterisation sweeps; ``{"fast": true}`` for the quick plan."""
    from repro.circuits.technology import tsmc65_like
    from repro.core.characterization import CharacterizationPlan, characterize

    fast = bool(params.get("fast", False))
    technology = tsmc65_like()
    plan = CharacterizationPlan.quick() if fast else CharacterizationPlan()
    data = characterize(technology, plan, engine=engine)
    return {
        "command": "characterize",
        "fast": fast,
        "records": {
            "base": len(data.base),
            "supply": len(data.supply),
            "temperature": len(data.temperature),
            "mismatch": len(data.mismatch),
            "write_energy": len(data.write_energy),
            "discharge_energy": len(data.discharge_energy),
        },
        "total_records": data.record_count(),
    }


def _eventsim_shard(pairs: tuple, fast: bool) -> Dict[str, Any]:
    """Module-level shard body (picklable for the process-pool executor).

    Runs one contiguous slice of ``(x, d)`` operand pairs through the
    event-driven :class:`~repro.eventsim.testbench.MultiplierTestbench`
    and returns per-pair arrays for an artifact-friendly merge.
    """
    import numpy as np

    from repro.circuits.technology import tsmc65_like
    from repro.core.calibration import calibrated_suite
    from repro.core.characterization import CharacterizationPlan
    from repro.eventsim.testbench import MultiplierTestbench
    from repro.multiplier.config import MultiplierConfig

    plan = CharacterizationPlan.quick() if fast else None
    suite = calibrated_suite(tsmc65_like(), plan=plan).suite
    testbench = MultiplierTestbench(suite, MultiplierConfig(name="service-eventsim"))
    results = testbench.run_sweep([tuple(pair) for pair in pairs])
    return {
        "x": np.array([result.x for result in results], dtype=int),
        "d": np.array([result.d for result in results], dtype=int),
        "product": np.array([result.product for result in results], dtype=int),
        "expected": np.array([result.expected for result in results], dtype=int),
        "model": np.array(
            [testbench.model_result(result.x, result.d) for result in results],
            dtype=int,
        ),
        "executed_events": np.array(
            [result.executed_events for result in results], dtype=int
        ),
        "finish_time": np.array(
            [result.finish_time for result in results], dtype=float
        ),
    }


@register_workload("eventsim")
def run_eventsim(params: Dict[str, Any], engine: SweepEngine) -> Dict[str, Any]:
    """Event-driven multiplier testbench sweep (paper Fig. 3 sequence).

    Parameters: ``pairs`` (list of ``[x, d]`` operand pairs; default a
    4x4 corner grid of the operand range), ``fast`` (quick calibration
    plan), ``shards`` (split the pair list into that many contiguous
    engine jobs — under a ``distributed`` executor they spread across
    cluster workers, and every shard is content-addressed so warm repeats
    resolve from the artifact cache).

    The payload reports each pair's event-driven ``product`` next to the
    direct model's result; ``matches_model`` is the end-to-end check that
    the event framework and the vectorised multiplier model agree.
    """
    import numpy as np

    from repro.circuits.technology import tsmc65_like
    from repro.runtime import Artifact, Job, SweepSpec, job_key

    fast = bool(params.get("fast", False))
    shards = int(params.get("shards", 1))
    raw_pairs = params.get("pairs")
    if raw_pairs is None:
        corners = (0, 5, 10, 15)
        raw_pairs = [[x, d] for x in corners for d in corners]
    if not isinstance(raw_pairs, list) or not raw_pairs:
        raise ValueError("pairs must be a non-empty list of [x, d] pairs")
    pairs = []
    for pair in raw_pairs:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ValueError(f"malformed operand pair {pair!r} (expected [x, d])")
        x, d = int(pair[0]), int(pair[1])
        if not 0 <= x <= 15 or not 0 <= d <= 15:
            raise ValueError(f"operand pair {pair!r} out of range 0..15")
        pairs.append((x, d))
    if shards < 1:
        raise ValueError("shards must be at least 1")
    shards = min(shards, len(pairs))
    bounds = np.linspace(0, len(pairs), shards + 1, dtype=int)
    jobs = []
    for index in range(shards):
        shard = tuple(pairs[int(bounds[index]):int(bounds[index + 1])])
        jobs.append(
            Job(
                fn=_eventsim_shard,
                args=(shard, fast),
                name=f"eventsim[{len(shard)}]",
                key=job_key("service-eventsim", tsmc65_like(), shard, fast),
                encode=lambda result: Artifact(arrays=dict(result)),
                decode=lambda artifact: dict(artifact.arrays),
            )
        )
    outputs = engine.run(SweepSpec(f"eventsim[{len(pairs)}x{shards}]", jobs))
    merged = {
        name: np.concatenate([output[name] for output in outputs])
        for name in outputs[0]
    }
    return {
        "command": "eventsim",
        "fast": fast,
        "pairs": len(pairs),
        "shards": shards,
        "matches_model": bool(np.array_equal(merged["product"], merged["model"])),
        "max_abs_error": int(np.max(np.abs(merged["product"] - merged["expected"]))),
        "total_events": int(merged["executed_events"].sum()),
        "results": [
            {
                "x": int(x),
                "d": int(d),
                "product": int(product),
                "expected": int(expected),
            }
            for x, d, product, expected in zip(
                merged["x"], merged["d"], merged["product"], merged["expected"]
            )
        ],
    }


#: Execution modes of the paper's Table II / III protocol the ``dnn``
#: workload can evaluate (FLOAT32, exact INT4, and the DSE corner LUTs).
DNN_MODES = ("float32", "int4", "fom", "power", "variation")


def _dnn_config(quick: bool) -> Any:
    """The ``dnn`` workload's :class:`DnnExperimentConfig` preset."""
    from repro.analysis.dnn_tables import DnnExperimentConfig

    return DnnExperimentConfig.quick() if quick else DnnExperimentConfig()


@functools.lru_cache(maxsize=None)
def _dnn_dataset(quick: bool) -> Any:
    """The ``dnn`` workload's dataset, generated once per process.

    Generating it takes longer than the rest of a warm (all cached)
    request; its arrays are made read-only since every request shares them.
    """
    from repro.dnn.datasets import imagenet_like

    config = _dnn_config(quick)
    dataset = imagenet_like(
        image_size=config.image_size,
        train_per_class=config.train_per_class,
        test_per_class=config.test_per_class,
    )
    for array in (dataset.train_images, dataset.train_labels, dataset.test_images, dataset.test_labels):
        array.setflags(write=False)
    return dataset


def _dnn_network(model: str, quick: bool) -> Any:
    """A freshly built (untrained) ``model`` for the ``dnn`` workload."""
    from repro.analysis.dnn_tables import model_builders

    builders = dict(model_builders(_dnn_config(quick).image_size, _dnn_dataset(quick).classes))
    return builders[model]()


def _evaluate_shard(model: str, modes: tuple, quick: bool, window: tuple, state: Any) -> Dict[str, int]:
    """Module-level shard body: hit counts of the trained model on ``window``.

    Only the trained ``state`` travels with the job; the network and the
    dataset are rebuilt where the shard runs, so a shard's cluster message
    stays small at any dataset size.
    """
    from repro.analysis.dnn_tables import evaluate_window
    from repro.dnn.network import load_network_state

    network = _dnn_network(model, quick)
    load_network_state(network, state)
    return evaluate_window(network, _dnn_dataset(quick), modes, _dnn_config(quick), window)


@register_workload("dnn")
def run_dnn(params: Dict[str, Any], engine: SweepEngine) -> Dict[str, Any]:
    """DNN accuracy pipeline (paper Table II protocol) as a sharded sweep.

    Parameters: ``model`` (one of the four Table II backbones, default
    ``"VGG16"``), ``modes`` (subset of :data:`DNN_MODES`, default
    ``["float32", "int4"]`` — corner modes pull in the DSE), ``quick``
    (default true: the test-scale :meth:`DnnExperimentConfig.quick`
    preset) and ``shards`` (split the test-set evaluation into that many
    contiguous engine jobs).

    The model's train job (:func:`repro.analysis.dnn_tables.train`) runs
    once through the engine, so N shards cost one training and a later
    request for the same model, with any modes, loads the cached weights.
    Each shard evaluates one window of the effective test set with
    :func:`~repro.analysis.dnn_tables.evaluate_window`, keyed by the
    request's modes; the merged top-1 / top-5 accuracies are sums of
    integer hit counts, bit-identical to one evaluation of the full test
    set for any shard count.

    Placement, a known cost: the train job is a one-job sweep, which
    every executor (the distributed one included) runs in the calling
    process.  A cold request therefore trains in the service process, on
    the thread serving it, while that process also serves every other
    request: ~0.3 s for a quick VGG16, ~7 s with ``quick=False`` (2-core
    host), and the service's peak memory then holds the training (VmHWM
    46 -> 106 MB for one ``quick=False`` VGG16 request).  Only the
    evaluation shards, which carry just the trained state, reach cluster
    workers.
    """
    import numpy as np

    from repro.analysis.dnn_tables import evaluation_job, train
    from repro.dnn.network import network_state
    from repro.runtime import SweepSpec, job_key

    model = str(params.get("model", "VGG16"))
    if model not in ("VGG16", "VGG19", "ResNet50", "ResNet101"):
        raise ValueError(f"unknown model {model!r}")
    modes = tuple(params.get("modes", ["float32", "int4"]))
    if not modes:
        raise ValueError("modes must be a non-empty list")
    for mode in modes:
        if mode not in DNN_MODES:
            raise ValueError(f"unknown mode {mode!r}; available: {', '.join(DNN_MODES)}")
    quick = bool(params.get("quick", True))
    shards = int(params.get("shards", 1))
    if shards < 1:
        raise ValueError("shards must be at least 1")

    config = _dnn_config(quick)
    dataset = _dnn_dataset(quick)
    network = _dnn_network(model, quick)
    train(network, dataset, config.training(), engine)
    state = network_state(network)
    total = config.evaluation_size(dataset)
    shards = min(shards, total)
    bounds = np.linspace(0, total, shards + 1, dtype=int)
    windows = [(int(bounds[index]), int(bounds[index + 1])) for index in range(shards)]
    jobs = [
        evaluation_job(
            _evaluate_shard,
            (model, modes, quick, window, state),
            f"dnn[{model}:{window[0]}:{window[1]}]",
            job_key("service-dnn", model, modes, quick, window),
        )
        for window in windows
    ]
    outputs = engine.run(SweepSpec(f"dnn[{model}x{shards}]", jobs))
    samples = sum(output["samples"] for output in outputs)
    reports = {}
    for mode in modes:
        top1 = sum(output[f"{mode}_top1"] for output in outputs) / samples
        top5 = sum(output[f"{mode}_top5"] for output in outputs) / samples
        reports[mode] = {
            "model": model,
            "mode": mode,
            "top1": top1,
            "top5": top5,
            "top1_percent": 100.0 * top1,
            "top5_percent": 100.0 * top5,
            "samples": samples,
        }
    return {
        "command": "dnn",
        "model": model,
        "quick": quick,
        "shards": shards,
        "samples": samples,
        "reports": reports,
    }


def _montecarlo_job(samples: int, seed: int) -> Dict[str, Any]:
    """Module-level job body (picklable for the process-pool executor)."""
    from repro.analysis.pvt_sweeps import mismatch_monte_carlo
    from repro.circuits.technology import tsmc65_like

    return mismatch_monte_carlo(tsmc65_like(), samples=samples, seed=seed)


@register_workload("montecarlo")
def run_montecarlo(params: Dict[str, Any], engine: SweepEngine) -> Dict[str, Any]:
    """Fig. 5d Monte-Carlo mismatch spread; ``samples`` / ``seed`` / ``shards``.

    With ``shards`` (default 1) the per-sample workload splits into that
    many contiguous :func:`numpy.random.SeedSequence`-stable sample ranges
    submitted through the engine — under a ``distributed`` executor the
    shards spread across cluster workers, their progress ticks merge into
    the request's single progress stream, and the merged panel is
    bit-identical to the unsharded one.  Each shard is content-addressed,
    so repeat requests resolve engine-side from the artifact cache and warm
    shards never reach a worker.

    Unsharded, the panel is one vectorised solver call riding the engine as
    a single cacheable job, exactly as before.
    """
    from repro.circuits.technology import tsmc65_like
    from repro.runtime import Artifact, Job, job_key

    samples = int(params.get("samples", 200))
    seed = int(params.get("seed", 2024))
    shards = int(params.get("shards", 1))
    if samples < 1:
        raise ValueError("samples must be at least 1")
    if shards < 1:
        raise ValueError("shards must be at least 1")
    if shards > 1:
        from repro.analysis.pvt_sweeps import mismatch_monte_carlo_sharded

        result = mismatch_monte_carlo_sharded(
            tsmc65_like(), samples=samples, seed=seed, shards=shards, engine=engine
        )
    else:
        job = Job(
            fn=_montecarlo_job,
            args=(samples, seed),
            name=f"montecarlo[{samples}]",
            key=job_key("service-montecarlo", tsmc65_like(), samples, seed),
            encode=lambda result: Artifact(arrays=dict(result)),
            decode=lambda artifact: dict(artifact.arrays),
        )
        result = engine.run_one(job)
    sigmas = {
        f"{float(t) * 1e9:.1f}ns": float(s)
        for t, s in zip(result["sampling_times"], result["sigma_at_sampling_times"])
    }
    return {
        "command": "montecarlo",
        "samples": samples,
        "seed": seed,
        "shards": shards,
        "sigma_v_blb": sigmas,
    }
