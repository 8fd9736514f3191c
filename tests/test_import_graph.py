"""What a process imports: the layering rule, checked on a fresh interpreter.

Package ``__init__`` modules do not re-export across layers, so a process
loads only the layers it runs.  Each test starts a new interpreter (the
test process itself has imported everything), imports one set of modules
and reads ``sys.modules`` back.  No timing is measured.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys

import repro

SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: The modules the paper pipeline (characterise, fit, DSE, PVT) runs on.
PAPER_PIPELINE = (
    "repro.analysis.pvt_sweeps",
    "repro.core.characterization",
    "repro.core.fitting",
    "repro.core.dse",
    "repro.core.pvt",
    "repro.core.model_suite",
    "repro.runtime",
)


def _loaded_after(modules):
    """Names in ``sys.modules`` of a fresh interpreter after importing ``modules``."""
    code = (
        "import json, sys\n"
        f"import {', '.join(modules)}\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    output = subprocess.check_output(
        [sys.executable, "-c", code], env=env, text=True, timeout=60
    )
    return json.loads(output)


def _under(names, packages):
    """The names that are one of ``packages`` or a submodule of one."""
    return [
        name
        for name in names
        if any(name == package or name.startswith(package + ".") for package in packages)
    ]


def test_paper_pipeline_loads_no_dnn_serving_or_asyncio_code():
    """Nor the process pool (see the next test)."""
    loaded = _loaded_after(PAPER_PIPELINE)
    assert "repro.analysis.pvt_sweeps" in loaded
    forbidden = _under(
        loaded,
        (
            "repro.dnn",
            "repro.analysis.dnn_tables",
            "repro.httpd",
            "repro.obs.http",
            "repro.service",
            "repro.cluster",
            "repro.gateway",
            "asyncio",
            "concurrent.futures.process",
            "multiprocessing",
        ),
    )
    assert not forbidden, f"the paper pipeline imported {forbidden}"


def test_no_module_loads_the_process_pool():
    """The cluster is the one multi-process path: importing every module of
    the package loads neither ``concurrent.futures.process`` nor
    ``multiprocessing``, and no module imports them lazily either."""
    modules = [module.name for module in pkgutil.walk_packages(repro.__path__, "repro.")]
    loaded = _loaded_after(modules)
    assert "repro.cluster.executor" in loaded
    assert not _under(loaded, ("concurrent.futures.process", "multiprocessing"))
    package = os.path.join(SRC_DIR, "repro")
    for root, _, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(root, name), encoding="utf-8") as handle:
                    source = handle.read()
                assert "ProcessPoolExecutor" not in source, name
                assert "import multiprocessing" not in source, name


def test_runtime_imports_no_modelling_layer():
    loaded = _loaded_after(("repro.runtime",))
    assert "repro.runtime" in loaded
    modelling = _under(
        loaded,
        ("repro.circuits", "repro.core", "repro.dnn", "repro.analysis", "repro.multiplier"),
    )
    assert not modelling, f"repro.runtime imported {modelling}"
