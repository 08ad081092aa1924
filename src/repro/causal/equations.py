"""Per-dataset structural equations, lifted out of the data generators.

Each registry dataset's synthetic generator samples from a hand-built
SCM (see :mod:`repro.data`).  This module states those same mechanisms
as *deterministic* equation lists the causal layer can act on — the
coefficients are imported from the data modules themselves
(``HOURS_EQUATION``, ``WAGE_EQUATION``, ...), so the repair math and the
sampling math share one source of truth.

An equation comes in one of three modes:

* ``additive`` — ``effect = predict(causes) + u`` with exogenous noise
  ``u`` abducted per individual (Mahajan et al.'s
  abduction-action-prediction); the effect is recomputed when a cause
  moved.
* ``floor`` — a hard support bound: ``effect >= predict(causes)``
  (e.g. age can never be below the minimum attainment age of the
  counterfactual's education level).
* ``monotone`` — ``effect >= its pre-intervention value`` (time only
  moves forward: age, and the paper's non-decreasing LSAT).

Equation lists are **topologically ordered**: an equation may reference
effects repaired by earlier list entries (KDD's ``wage`` reads the
already-repaired ``age``), and floors are stated after the additive
equations that feed them.

Values are expressed in *raw attribute units* (years of age, LSAT
points, ranks for ordinal categoricals), which keeps the equations
legible against the generator code; the models in
:mod:`repro.causal.models` handle the encoded <-> raw conversion.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..data.adult import EDUCATION_LEVELS, EDUCATION_MIN_AGE, HOURS_EQUATION
from ..data.kdd_census import (
    KDD_EDUCATION_LEVELS,
    KDD_EDUCATION_MIN_AGE,
    WAGE_EQUATION,
    WEEKS_EQUATION,
)
from ..data.law_school import (
    LSAT_EQUATION,
    TIER_EQUATION,
    ZFYGPA_EQUATION,
    ZGPA_EQUATION,
)

__all__ = ["EQUATION_MODES", "StructuralEquation", "scm_equations"]

EQUATION_MODES = ("additive", "floor", "monotone")


@dataclass(frozen=True)
class StructuralEquation:
    """One structural equation of a dataset's SCM.

    Attributes
    ----------
    effect:
        Name of the endogenous feature the equation determines.  Must be
        a mutable continuous feature (repair writes it back).
    causes:
        Parent feature names, in the order ``predict`` expects them.
        Empty for ``monotone`` equations.
    predict:
        Vectorized deterministic skeleton: maps a dict of per-cause raw
        value arrays to the predicted effect values (raw units).
        ``None`` for ``monotone`` equations.
    mode:
        One of :data:`EQUATION_MODES` (see the module docstring).
    """

    effect: str
    causes: tuple = ()
    predict: object = None
    mode: str = "additive"
    #: Human-readable provenance shown in docs and ``describe()``.
    note: str = field(default="", compare=False)

    def __post_init__(self):
        if self.mode not in EQUATION_MODES:
            raise ValueError(f"mode must be one of {EQUATION_MODES}, got {self.mode!r}")
        if self.mode == "monotone":
            if self.causes or self.predict is not None:
                raise ValueError("monotone equations take no causes/predict")
        elif self.predict is None:
            raise ValueError(f"{self.mode} equation for {self.effect!r} needs predict")

    @property
    def label(self):
        """Stable identifier: ``effect<-cause,cause`` (``effect<-self``)."""
        parents = ",".join(self.causes) if self.causes else "self"
        return f"{self.effect}<-{parents}"

    def describe(self):
        """One-line human-readable summary."""
        return f"{self.label} [{self.mode}]" + (f": {self.note}" if self.note else "")


def _min_age_lookup(levels, min_age_map):
    """Vectorized education-rank -> minimum-age table lookup."""
    table = np.array([float(min_age_map[level]) for level in levels])

    def predict(values):
        ranks = np.asarray(values["education"]).astype(int)
        # integer clip, without np.clip's per-call iinfo lookup
        return table[np.minimum(np.maximum(ranks, 0), len(table) - 1)]

    return predict


def _adult_equations():
    def hours(values):
        rank_shift = values["occupation"] - HOURS_EQUATION["anchor_rank"]
        base = HOURS_EQUATION["base"] + HOURS_EQUATION["gender_shift"] * values["gender"]
        return base + HOURS_EQUATION["per_occupation_rank"] * rank_shift

    return (
        StructuralEquation(
            "age",
            ("education",),
            _min_age_lookup(EDUCATION_LEVELS, EDUCATION_MIN_AGE),
            mode="floor",
            note="each education level has a minimum attainment age",
        ),
        StructuralEquation("age", mode="monotone", note="time only moves forward"),
        StructuralEquation(
            "hours_per_week",
            ("occupation", "gender"),
            hours,
            note="hours track occupation rank (noise abducted)",
        ),
    )


def _kdd_equations():
    def wage(values):
        education_term = WAGE_EQUATION["per_education_rank"] * values["education"]
        age_term = WAGE_EQUATION["per_year_of_age"] * values["age"]
        return WAGE_EQUATION["base"] + education_term + age_term

    def weeks(values):
        years_working = values["age"] - WEEKS_EQUATION["working_age_start"]
        working_age = np.clip(years_working / WEEKS_EQUATION["working_age_span"], 0.0, 1.0)
        utilization = WEEKS_EQUATION["base_utilization"] + 0.5 * WEEKS_EQUATION["utilization_span"]
        graduated = values["education"] >= WEEKS_EQUATION["min_bonus_rank"]
        bonus = WEEKS_EQUATION["hs_grad_bonus"] * graduated
        return WEEKS_EQUATION["weeks_full_year"] * working_age * utilization + bonus

    return (
        StructuralEquation(
            "age",
            ("education",),
            _min_age_lookup(KDD_EDUCATION_LEVELS, KDD_EDUCATION_MIN_AGE),
            mode="floor",
            note="each education level has a minimum attainment age",
        ),
        StructuralEquation("age", mode="monotone", note="time only moves forward"),
        StructuralEquation(
            "wage_per_hour",
            ("education", "age"),
            wage,
            note="wage tracks education rank and age (noise abducted)",
        ),
        StructuralEquation(
            "weeks_worked",
            ("education", "age"),
            weeks,
            note="weeks track working age at mean utilization",
        ),
    )


def _law_equations():
    # Inverting the generator's tier equation (tier tracks the admission
    # z-score, which weights the standardized LSAT by ``per_aptitude``):
    # one tier step corresponds to per_aptitude / per_admission_z LSAT
    # points, so a more selective school implies a higher LSAT floor.
    lsat_per_tier = LSAT_EQUATION["per_aptitude"] / TIER_EQUATION["per_admission_z"]

    def lsat(values):
        return LSAT_EQUATION["base"] + lsat_per_tier * (values["tier"] - TIER_EQUATION["anchor"])

    def zfygpa(values):
        return ZFYGPA_EQUATION["per_tier"] * (values["tier"] - ZFYGPA_EQUATION["tier_anchor"])

    def zgpa(values):
        return ZGPA_EQUATION["per_zfygpa"] * values["zfygpa"]

    return (
        StructuralEquation(
            "lsat",
            ("tier",),
            lsat,
            note="tier up implies LSAT up (inverse of the admission eq.)",
        ),
        StructuralEquation("lsat", mode="monotone", note="an achieved score is not unlearned"),
        StructuralEquation(
            "zfygpa",
            ("tier",),
            zfygpa,
            note="grade curves tighten with selectivity (noise abducted)",
        ),
        StructuralEquation(
            "zgpa",
            ("zfygpa",),
            zgpa,
            note="final GPA tracks first-year GPA (noise abducted)",
        ),
    )


_EQUATIONS = {
    "adult": _adult_equations,
    "kdd_census": _kdd_equations,
    "law_school": _law_equations,
}


def scm_equations(dataset_name):
    """The topologically-ordered equation list for a registry dataset."""
    if dataset_name not in _EQUATIONS:
        raise KeyError(
            f"no structural equations for dataset {dataset_name!r}; "
            f"options: {sorted(_EQUATIONS)}"
        )
    return _EQUATIONS[dataset_name]()
