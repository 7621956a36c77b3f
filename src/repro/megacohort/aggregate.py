"""Re-export of the shard statistics, which live in :mod:`repro.core.analysis`.

Kept because perfbench imports ``repro.megacohort.aggregate.SurveyStats``.
"""

from repro.core.analysis import SurveyStats, analyze

__all__ = ["SurveyStats", "analyze"]
