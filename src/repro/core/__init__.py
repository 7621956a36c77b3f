"""Core: the PBL study driver and the paper's published targets.

- :mod:`repro.core.targets` — every number printed in the paper's Tables
  1–6, stored once as calibration targets and comparison baselines.
- :mod:`repro.core.study` — :class:`PBLStudy`, the end-to-end driver:
  cohort → sections → teams → course run (assignments actually execute
  their parallel programs) → two survey waves → full statistical analysis.
- :mod:`repro.core.analysis` — the Tables 1–6 computations from raw waves.
- :mod:`repro.core.hypotheses` — the three hypotheses H1–H3 as executable
  checks over an analysis result.
- :mod:`repro.core.report` — the rendered reproduction report.

The names below load their submodule on first access (PEP 562), so a
process that imports only :mod:`repro.core.analysis`, as the mega-cohort
does, loads neither the study nor the course, cohort and reporting
packages.
"""

from importlib import import_module

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "PAPER": "targets",
    "PaperTargets": "targets",
    "StudyAnalysis": "analysis",
    "analyze_waves": "analysis",
    "ComparisonRow": "experiments",
    "ExperimentSummary": "experiments",
    "build_experiment_summary": "experiments",
    "render_markdown": "experiments",
    "HypothesisOutcome": "hypotheses",
    "evaluate_hypotheses": "hypotheses",
    "ReproductionReport": "report",
    "PBLStudy": "study",
    "StudyResult": "study",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    # Anything else, submodules included, is an AttributeError here, so
    # ``from repro.core import study`` falls back to importing it.
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
