"""Shared fixtures.

The full study run takes ~1 s (calibration + programs + analysis), so it
is computed once per session and shared by every integration test.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import settings

from repro.core import PBLStudy, ReproductionReport
from repro.core.targets import PAPER, simulation_targets
from repro.simulation import ResponseModel, calibrate

#: ``HYPOTHESIS_PROFILE=stateful-long`` runs the state machines (see
#: ``tests/test_pipeline_store_machine.py``) far longer than tier-1 does;
#: CI runs it as a step of its own.
settings.register_profile("stateful-long", max_examples=300,
                          stateful_step_count=50, deadline=None)
if os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(os.environ["HYPOTHESIS_PROFILE"])


@pytest.fixture(scope="session")
def study():
    return PBLStudy.default(seed=2018)


@pytest.fixture(scope="session")
def study_result(study):
    return study.run()


@pytest.fixture(scope="session")
def report(study, study_result):
    return ReproductionReport(analysis=study_result.analysis, paper=study.paper)


@pytest.fixture(scope="session")
def calibrated_model():
    targets = simulation_targets(PAPER)
    model = ResponseModel(targets.skills, targets.n_students, seed=2018)
    result = calibrate(model, targets)
    return model, targets, result
