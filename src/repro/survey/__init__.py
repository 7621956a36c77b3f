"""The Beyerlein *Team Design Skills Growth Survey* substrate.

The paper (its Fig. 2 and §II.B) assesses the PBL module with the survey of
Beyerlein, Davishahl, Davis, Lyons and Gentili (ASEE 2005).  The instrument
measures seven elements — Teamwork, Information Gathering, Problem
Definition, Idea Generation, Evaluation & Decision Making, Implementation,
Communication — each through a *definition* item plus several *component*
(performance-indicator) items, on two 5-point scales:

- **Class Emphasis** (1 "Did not discuss" … 5 "Major emphasis")
- **Personal Growth** (1 "I did not use this skill within this class" …
  5 "I experienced a tremendous growth and added many new skills")

The survey is administered twice (mid-semester and end of semester).

Modules
-------
- :mod:`repro.survey.scales` — the two rating scales with their verbatim
  anchor labels.
- :mod:`repro.survey.instrument` — elements, items and the full instrument.
- :mod:`repro.survey.responses` — response records for students × waves.
- :mod:`repro.survey.scoring` — skill scores, overall averages, composite
  scores, cohort aggregation (the inputs of Tables 1–6).

:mod:`repro.survey.reliability` (per-element Cronbach's alpha) is imported
as a submodule, not re-exported here, so the study does not load it.
"""

from repro.survey.instrument import (
    ELEMENT_NAMES,
    Element,
    Instrument,
    Item,
    team_design_skills_survey,
)
from repro.survey.responses import ElementResponse, StudentResponse, WaveResponses
from repro.survey.scales import (
    CLASS_EMPHASIS_SCALE,
    PERSONAL_GROWTH_SCALE,
    Category,
    Scale,
    validate_likert,
)
from repro.survey.scoring import (
    CohortScores,
    cohort_scores,
    composite_scores,
    element_score,
    overall_average,
    skill_scores,
)

__all__ = [
    "CLASS_EMPHASIS_SCALE",
    "ELEMENT_NAMES",
    "Category",
    "CohortScores",
    "Element",
    "ElementResponse",
    "Instrument",
    "Item",
    "PERSONAL_GROWTH_SCALE",
    "Scale",
    "StudentResponse",
    "WaveResponses",
    "cohort_scores",
    "composite_scores",
    "element_score",
    "overall_average",
    "skill_scores",
    "team_design_skills_survey",
    "validate_likert",
]
