"""Synthetic survey-response generation.

The paper's raw data — 124 students' item-level ratings over two waves —
is not published.  This package builds the closest synthetic equivalent:
a seeded latent-trait (Gaussian copula) Likert response model whose knobs
are *calibrated* so the generated raw responses, pushed through the same
scoring and statistics pipeline the paper used, reproduce the paper's
published statistics (per-skill means, wave-level SDs, per-skill
emphasis↔growth Pearson correlations) within tight tolerances.

Crucially, nothing downstream is hard-coded: the benchmarks recompute
Tables 1–6 from simulated *item-level* responses, so the whole analysis
pipeline (scoring → t-tests → Cohen's d → Pearson → rankings) is
exercised end-to-end, exactly as it would be on real data.

- :mod:`repro.simulation.model` — the latent-trait response model.
- :mod:`repro.simulation.calibration` — deterministic fixed-point
  calibration of the model's knobs against published targets.
- :mod:`repro.simulation.assemble` — conversion of the model's raw score
  arrays into :mod:`repro.survey` response objects.
"""

from repro.simulation.assemble import assemble_waves
from repro.simulation.calibration import CalibrationResult, calibrate
from repro.simulation.model import ModelKnobs, ResponseModel, SimulationTargets

__all__ = [
    "CalibrationResult",
    "ModelKnobs",
    "ResponseModel",
    "SimulationTargets",
    "assemble_waves",
    "calibrate",
]
