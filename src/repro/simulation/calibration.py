"""Deterministic calibration of the response model.

Because :class:`~repro.simulation.model.ResponseModel` fixes its underlying
standard-normal draws at construction, every observed statistic is a smooth
deterministic function of the knobs, and each target is (locally) monotone
in exactly one knob:

- the observed mean of a skill's scores is increasing in its latent ``mu``;
- the observed wave-level SD of the overall average is increasing in the
  student-factor share ``alpha``;
- the observed emphasis↔growth Pearson r of a skill is increasing in its
  residual correlation ``c_q``.

Calibration therefore runs a few rounds of coordinate-wise secant updates.
It converges in a handful of rounds to well under the publication
tolerances (the paper reports 2 decimal places).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simulation.model import (
    CATEGORIES,
    WAVES,
    ModelKnobs,
    ResponseModel,
    SimulationTargets,
)

__all__ = ["CalibrationResult", "calibrate"]

# Publication precision is 2 decimals; calibrate well inside that.
MEAN_TOL = 0.005
SD_TOL = 0.005
R_TOL = 0.02
MAX_ROUNDS = 60


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated knobs plus the residual errors at convergence."""

    knobs: ModelKnobs
    rounds: int
    max_mean_error: float
    max_sd_error: float
    max_r_error: float
    converged: bool

    def __str__(self) -> str:
        status = "converged" if self.converged else "NOT converged"
        return (
            f"calibration {status} in {self.rounds} rounds "
            f"(|mean err| <= {self.max_mean_error:.4f}, "
            f"|sd err| <= {self.max_sd_error:.4f}, "
            f"|r err| <= {self.max_r_error:.4f})"
        )


def _target_arrays(targets: SimulationTargets) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    k = len(targets.skills)
    mean = np.empty((k, 2, 2))
    sd = np.empty((2, 2))
    r = np.empty((k, 2))
    for ki, skill in enumerate(targets.skills):
        for ci, cat in enumerate(CATEGORIES):
            for wi, wave in enumerate(WAVES):
                mean[ki, ci, wi] = targets.skill_means[(skill, cat, wave)]
    for ci, cat in enumerate(CATEGORIES):
        for wi, wave in enumerate(WAVES):
            sd[ci, wi] = targets.overall_sd[(cat, wave)]
    for ki, skill in enumerate(targets.skills):
        for wi, wave in enumerate(WAVES):
            r[ki, wi] = targets.pearson_r[(skill, wave)]
    return mean, sd, r


def _target_var(target_sd: np.ndarray) -> np.ndarray:
    return target_sd**2


def calibrate(
    model: ResponseModel,
    targets: SimulationTargets,
    knobs: ModelKnobs | None = None,
) -> CalibrationResult:
    """Fit the model's knobs to the published targets.

    Raises :class:`ValueError` if the model and targets disagree on the
    skill list; returns a :class:`CalibrationResult` whose ``converged``
    flag reports whether all tolerances were met (they always are for the
    paper's targets; the flag exists for exotic user-supplied targets).
    """
    if tuple(targets.skills) != model.skills:
        raise ValueError("model and targets must agree on the skill list and order")
    if targets.n_students != model.n_students:
        raise ValueError("model and targets must agree on the cohort size")

    target_mean, target_sd, target_r = _target_arrays(targets)
    current = (knobs or ModelKnobs.initial(targets)).copy()

    rounds = 0
    errors = (np.inf, np.inf, np.inf)
    # The knobs do not change between one round's final check and the
    # next round's first step, so that step reuses the check's statistics.
    final = model.observed(current)
    for rounds in range(1, MAX_ROUNDS + 1):
        obs = final

        # 1. SDs: the overall SD scales with the student-share; update
        #    alpha via the variance decomposition, clamped to [0, 0.98].
        #    observed_var ~= base_var + (s*alpha)^2 where base_var is the
        #    alpha-independent floor; solve for the new alpha directly.
        s = model.latent_scale
        obs_var = obs["overall_sd"] ** 2
        base_var = obs_var - (s * current.alpha) ** 2
        want = _target_var(target_sd) - base_var
        current.alpha = np.sqrt(np.clip(want / (s * s), 0.0, 0.98**2))

        # 2. Correlations: damped secant (discretisation attenuates r by a
        #    roughly constant factor, so the ratio update converges).  When
        #    a residual correlation saturates at its ceiling and the
        #    observed r is still short, route the remaining correlation
        #    through the shared student factor by raising rho_p.
        obs2 = model.observed(current)
        r_err = obs2["pearson_r"] - target_r
        current.c_q = np.clip(current.c_q - 0.9 * r_err, -0.995, 0.995)
        saturated_short = (current.c_q >= 0.995) & (r_err < -R_TOL / 2.0)
        if np.any(saturated_short):
            deficit = float(-r_err[saturated_short].max())
            current.rho_p = min(0.99, current.rho_p + 0.5 * deficit)

        # 3. Means: inner secant loop on mu alone, last so the final check
        #    sees means solved under the round's alpha/c_q.  The
        #    discretised mean tracks the latent mean with slope ~1
        #    mid-scale but flattens near the Likert ceiling, so estimate
        #    the local slope from the previous inner step.
        #    A loop that stops early leaves ``mu`` as its last step saw it,
        #    so that step's statistics are the round's final ones.
        prev_mu: np.ndarray | None = None
        prev_mean: np.ndarray | None = None
        for _ in range(8):
            obs3 = model.observed(current)
            mean_err = obs3["skill_mean"] - target_mean
            if float(np.abs(mean_err).max()) <= MEAN_TOL / 2.0:
                final = obs3
                break
            slope = np.ones_like(mean_err)
            if prev_mu is not None:
                d_mu = current.mu - prev_mu
                d_obs = obs3["skill_mean"] - prev_mean
                with np.errstate(divide="ignore", invalid="ignore"):
                    est = np.where(np.abs(d_mu) > 1e-9, d_obs / d_mu, 1.0)
                slope = np.clip(np.nan_to_num(est, nan=1.0), 0.25, 1.5)
            prev_mu = current.mu.copy()
            prev_mean = obs3["skill_mean"].copy()
            current.mu = current.mu - mean_err / slope
        else:
            final = model.observed(current)

        errors = (
            float(np.abs(final["skill_mean"] - target_mean).max()),
            float(np.abs(final["overall_sd"] - target_sd).max()),
            float(np.abs(final["pearson_r"] - target_r).max()),
        )
        if errors[0] <= MEAN_TOL and errors[1] <= SD_TOL and errors[2] <= R_TOL:
            break

    return CalibrationResult(
        knobs=current,
        rounds=rounds,
        max_mean_error=errors[0],
        max_sd_error=errors[1],
        max_r_error=errors[2],
        converged=errors[0] <= MEAN_TOL and errors[1] <= SD_TOL and errors[2] <= R_TOL,
    )
