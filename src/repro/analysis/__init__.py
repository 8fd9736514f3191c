"""Experiment drivers: one module per paper table / figure.

Every driver returns plain data structures (lists of dictionaries or small
dataclasses) and provides a ``format_*`` helper that renders the same rows
the paper reports, so the benchmarks under ``benchmarks/`` only need to call
one function per artefact.

| Paper artefact | Driver |
|---|---|
| Fig. 1 (state-of-the-art design space) | :mod:`repro.analysis.sota` |
| Fig. 4 (discharge non-idealities)       | :mod:`repro.analysis.nonidealities` |
| Fig. 5 (PVT influence)                  | :mod:`repro.analysis.pvt_sweeps` |
| Fig. 6 + RMS table (model evaluation)   | :mod:`repro.analysis.model_evaluation` |
| Fig. 7 (design-space corners)           | :mod:`repro.analysis.design_space` |
| Table I + Fig. 8 (selected corners)     | :mod:`repro.analysis.design_space` |
| Table II / III (DNN accuracy)           | :mod:`repro.analysis.dnn_tables` |
| Speed-up claim                           | :mod:`repro.core.speedup` |
"""
