"""``paper_sweeps``: the non-DNN paper pipeline, cold then warm.

One pass, through public functions on a fresh auto ``SweepEngine``:
``characterize`` (full plan), ``fit_all_models``, ``explore_design_space``
(48 corners) and ``select_corners``, the Fig. 5 supply / temperature /
corner sweeps, ``mismatch_monte_carlo``, then ``analyze_corner_robustness``
and ``monte_carlo_error_distribution`` on the fom corner.  The reference
solver and ``core`` do almost all the work; ``dnn`` does none.  The cold /
warm pair isolates the artifact cache.

The seed draws the Monte-Carlo seeds of each pair.  The checks: the warm
pass returns exactly what the cold pass did, and the supply-model RMS and
the fom corner's energy equal the recorded values.
"""

from __future__ import annotations

import pathlib
from typing import Any, Dict

import numpy as np

import harness
import inprocess

#: Fig. 5d Monte-Carlo samples per pass.  The paper panel uses 1,000;
#: 250 keeps ten cold / warm pairs inside one run.
MC_SAMPLES = 250
ERROR_SAMPLES = 200

SETUP_CODE = (
    "import repro.analysis.pvt_sweeps, repro.core.characterization, repro.core.fitting, "
    "repro.core.dse, repro.core.pvt, repro.core.model_suite, repro.runtime\n"
    "from repro.circuits.technology import tsmc65_like\n"
    "tsmc65_like()\n"
)

TARGETS = [
    ("circuits.discharge", "repro.circuits.transient", "TransientSolver.simulate_discharge"),
    ("core.characterize", "repro.core.characterization", "characterize"),
    ("core.fit", "repro.core.fitting", "fit_all_models"),
    ("core.dse", "repro.core.dse", "explore_design_space"),
    ("core.select_corners", "repro.core.dse", "select_corners"),
    ("analysis.fig5", "repro.analysis.pvt_sweeps", "supply_sweep"),
    ("analysis.fig5", "repro.analysis.pvt_sweeps", "temperature_sweep"),
    ("analysis.fig5", "repro.analysis.pvt_sweeps", "corner_sweep"),
    ("analysis.fig5", "repro.analysis.pvt_sweeps", "mismatch_monte_carlo"),
    ("core.pvt", "repro.core.pvt", "analyze_corner_robustness"),
    ("core.pvt", "repro.core.pvt", "monte_carlo_error_distribution"),
]


def monte_carlo_seeds(seed: int, pair: int) -> tuple:
    rng = np.random.default_rng([seed, pair])
    return int(rng.integers(1, 2**31)), int(rng.integers(1, 2**31))


def make_body(seed: int):
    from repro.analysis import pvt_sweeps
    from repro.circuits.technology import tsmc65_like
    from repro.core import characterization, dse, fitting, pvt
    from repro.core.model_suite import OptimaModelSuite

    technology = tsmc65_like()

    def body(timer: inprocess.Timer, engine: Any, pair: int) -> Dict[str, Any]:
        mc_seed, error_seed = monte_carlo_seeds(seed, pair)
        data = timer(characterization.characterize, technology, engine=engine)
        fitted = timer(fitting.fit_all_models, data)
        suite = OptimaModelSuite(
            discharge=fitted.discharge,
            write_energy=fitted.write_energy,
            discharge_energy=fitted.discharge_energy,
            technology_name=technology.name,
        )
        exploration = timer(dse.explore_design_space, suite, engine=engine)
        corners = dse.select_corners(exploration)
        supply = timer(pvt_sweeps.supply_sweep, technology, engine=engine)
        temperature = timer(pvt_sweeps.temperature_sweep, technology, engine=engine)
        process = timer(pvt_sweeps.corner_sweep, technology, engine=engine)
        monte_carlo = timer(
            pvt_sweeps.mismatch_monte_carlo, technology, samples=MC_SAMPLES, seed=mc_seed
        )
        fom = corners["fom"]
        robustness = timer(pvt.analyze_corner_robustness, suite, fom, engine=engine)
        errors = timer(
            pvt.monte_carlo_error_distribution,
            suite,
            fom,
            samples=ERROR_SAMPLES,
            seed=error_seed,
            engine=engine,
        )
        return {
            "records": data.record_count(),
            "model_rms_mv": fitted.report.rms_supply * 1e3,
            "fom_energy_pj": exploration.best_fom().analysis.energy_per_operation * 1e12,
            "dse_table": exploration.table(),
            "corners": corners,
            "fig5": (supply, temperature, process),
            "monte_carlo": monte_carlo,
            "robustness": robustness,
            "errors": errors,
        }

    return body


def make_check(reference: Dict[str, Any]):
    def check(run: harness.Run, cold: inprocess.Pass, warm: inprocess.Pass) -> None:
        for name in ("dse_table", "corners", "fig5", "monte_carlo", "robustness", "errors"):
            run.check(inprocess.same(cold.outputs[name], warm.outputs[name]), f"warm {name} == cold")
        for name in ("records", "model_rms_mv", "fom_energy_pj"):
            value, expected = cold.outputs[name], reference[name]
            run.check(
                bool(np.isclose(value, expected, rtol=1e-9, atol=0.0)),
                f"{name} {value!r} == recorded {expected!r}",
            )

    return check


def run(run: harness.Run, root: pathlib.Path) -> Dict[str, float]:
    """Measure; fill the run's end-to-end metrics, return layer values."""
    setup = harness.time_fresh_imports(root, SETUP_CODE, harness.SETUP_REPEATS)
    body = make_body(run.seed)
    measured = inprocess.measure(
        run, root, body, make_check(harness.load_reference("paper_sweeps")), TARGETS
    )
    pairs = measured["pairs"]
    # Cold calls only: the warm pass adds a cluster of few-millisecond
    # cache hits that puts the p50 on the edge of the Fig. 5 sweeps.
    inprocess.end_to_end(run, pairs, setup, latency_sides=("cold",))
    last = pairs[-1]["cold"].outputs
    run.details["outputs"] = {
        "records": last["records"],
        "model_rms_mv": last["model_rms_mv"],
        "fom_energy_pj": last["fom_energy_pj"],
    }
    if not run.trace:
        return {}
    return layers(pairs, measured["tracer"], last)


#: Per-layer metrics: (kind, span names); see :func:`inprocess.layer_metrics`.
LAYERS = {
    "circuits.discharge_s": ("total", ["circuits.discharge"]),
    "circuits.discharge_calls": ("calls", ["circuits.discharge"]),
    "analysis.fig5_s": ("total", ["analysis.fig5"]),
    "core.characterize_s": ("total", ["core.characterize"]),
    "core.characterize_self_s": ("self", ["core.characterize"]),
    "core.fit_s": ("total", ["core.fit"]),
    "core.dse_s": ("total", ["core.dse"]),
    "core.pvt_s": ("total", ["core.pvt"]),
}


def layers(pairs, tracer, outputs) -> Dict[str, float]:
    values = inprocess.layer_metrics(pairs, tracer, LAYERS)
    values["core.model_rms_mv"] = outputs["model_rms_mv"]
    values["core.fom_energy_pj"] = outputs["fom_energy_pj"]
    return values
