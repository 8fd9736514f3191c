"""OPTIMA core: behavioural models, calibration, and design-space exploration.

This package is the paper's primary contribution:

* :mod:`repro.core.polynomials` — 1-D and separable-product polynomial
  models with least-squares / alternating-least-squares fitting.
* :mod:`repro.core.discharge_model` — the bit-line discharge models of
  paper Eq. 3-6.
* :mod:`repro.core.energy_model` — the write / discharge energy models of
  paper Eq. 7-8.
* :mod:`repro.core.characterization` — reference-simulator sweeps that
  produce the fitting datasets (the "extensive simulation data" of
  Section IV-C).
* :mod:`repro.core.fitting` — least-squares calibration of every model.
* :mod:`repro.core.model_suite` — the bundle of fitted models plus
  serialisation.
* :mod:`repro.core.calibration` — one-call calibration flow producing the
  suite and the Fig. 6 RMS-error report.
* :mod:`repro.core.metrics` — RMS / LSB / speed-up metrics.
* :mod:`repro.core.dse` — multiplier design-space exploration (Section V).
* :mod:`repro.core.pvt` — PVT robustness and Monte-Carlo analysis of
  selected corners (Fig. 8).
* :mod:`repro.core.speedup` — OPTIMA-vs-reference runtime comparison.
"""
