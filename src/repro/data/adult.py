"""Synthetic Adult Income dataset (UCI "Adult" stand-in).

Matches the paper's Table I row: 48 842 raw instances, 32 561 after
cleaning, 9 attributes (5 categorical / 2 binary / 2 continuous), target
``income`` (>50k), immutables ``race`` and ``gender``.

The structural causal model implements the relations the paper's
constraints rely on:

* ``education`` is caused by ``age`` — each level has a minimum
  attainment age, so in the *data* education never exceeds what the age
  allows (the binary constraint of Eq. 2).
* ``occupation`` is caused by ``education``; ``hours_per_week`` by
  occupation; ``income`` by a logistic model over age, education rank,
  hours, occupation and marital status.
"""

from __future__ import annotations

import numpy as np

from .frame import TabularFrame
from .schema import DatasetSchema, FeatureSpec, FeatureType
from .scm import bernoulli_logit, conditional_categorical, inject_missing, sample_categorical

__all__ = ["ADULT_SCHEMA", "EDUCATION_LEVELS", "EDUCATION_MIN_AGE",
           "HOURS_EQUATION", "generate_adult"]

RAW_INSTANCES = 48_842
CLEAN_INSTANCES = 32_561

EDUCATION_LEVELS = (
    "school", "hs_grad", "some_college", "assoc", "bachelors", "masters", "doctorate",
)

#: Minimum age at which each education level is attainable; the SCM never
#: violates these, which is what makes the age/education causal constraint
#: meaningful on this dataset.
EDUCATION_MIN_AGE = {
    "school": 17, "hs_grad": 18, "some_college": 19, "assoc": 20,
    "bachelors": 22, "masters": 24, "doctorate": 27,
}

#: Deterministic skeleton of the ``hours_per_week`` structural equation
#: (Gaussian noise is added on top when sampling):
#: ``hours = base + per_occupation_rank * (rank - anchor_rank) +
#: gender_shift * gender``.  Shared with :mod:`repro.causal.equations`,
#: which uses the same coefficients for abduction-action-prediction
#: repair, so the causal layer and the generator can never drift apart.
HOURS_EQUATION = {
    "base": 40.0,
    "per_occupation_rank": 4.0,
    "anchor_rank": 2.0,
    "gender_shift": 3.0,
}

WORKCLASSES = ("private", "self_employed", "government", "unemployed")
MARITAL_STATUSES = ("single", "married", "divorced", "widowed")
OCCUPATIONS = ("blue_collar", "service", "sales", "white_collar", "professional")
RACES = ("white", "black", "asian", "amer_indian", "other")

ADULT_SCHEMA = DatasetSchema(
    name="adult",
    display_name="Adult Income",
    features=(
        FeatureSpec("age", FeatureType.CONTINUOUS, bounds=(17.0, 90.0)),
        FeatureSpec("hours_per_week", FeatureType.CONTINUOUS, bounds=(1.0, 99.0)),
        FeatureSpec("workclass", FeatureType.CATEGORICAL, categories=WORKCLASSES),
        FeatureSpec("education", FeatureType.CATEGORICAL, categories=EDUCATION_LEVELS),
        FeatureSpec("marital_status", FeatureType.CATEGORICAL, categories=MARITAL_STATUSES),
        FeatureSpec("occupation", FeatureType.CATEGORICAL, categories=OCCUPATIONS),
        FeatureSpec("race", FeatureType.CATEGORICAL, categories=RACES, immutable=True),
        FeatureSpec("gender", FeatureType.BINARY, immutable=True),
        FeatureSpec("native_us", FeatureType.BINARY),
    ),
    target="income",
    target_classes=("<=50k", ">50k"),
    desired_class=1,
)


def _sample_education(rng, age):
    """Draw education levels whose minimum ages respect ``age``."""
    n = len(age)
    # Base appetite for higher education, increasing with (capped) age.
    appetite = np.clip((age - 17.0) / 20.0, 0.0, 1.0)
    levels = np.array(EDUCATION_LEVELS, dtype=object)
    min_ages = np.array([EDUCATION_MIN_AGE[level] for level in EDUCATION_LEVELS])
    feasible = age[:, None] >= min_ages[None, :]
    # Weight levels: mid levels common, extremes rarer, shifted by appetite.
    base = np.array([0.16, 0.30, 0.20, 0.08, 0.16, 0.07, 0.03])
    tilt = np.linspace(-1.0, 1.0, len(levels))
    weights = base[None, :] * np.exp(tilt[None, :] * (appetite[:, None] - 0.4) * 2.0)
    weights = np.where(feasible, weights, 0.0)
    return conditional_categorical(rng, levels, weights)


def _sample_occupation(rng, education_rank):
    """Occupation depends on education: higher rank favours professional."""
    n = len(education_rank)
    rank = education_rank / (len(EDUCATION_LEVELS) - 1)
    weights = np.empty((n, len(OCCUPATIONS)))
    weights[:, 0] = 1.2 - rank          # blue_collar
    weights[:, 1] = 0.9 - 0.5 * rank    # service
    weights[:, 2] = 0.6 + 0.1 * rank    # sales
    weights[:, 3] = 0.3 + 0.9 * rank    # white_collar
    weights[:, 4] = 0.05 + 1.3 * rank ** 2  # professional
    weights = np.clip(weights, 0.01, None)
    return conditional_categorical(rng, np.array(OCCUPATIONS, dtype=object), weights)


def _sample_marital(rng, age):
    """Marital status driven by age."""
    n = len(age)
    young = np.clip((30.0 - age) / 13.0, 0.0, 1.0)
    old = np.clip((age - 40.0) / 50.0, 0.0, 1.0)
    weights = np.empty((n, len(MARITAL_STATUSES)))
    weights[:, 0] = 0.15 + 0.8 * young        # single
    weights[:, 1] = 0.55 - 0.35 * young       # married
    weights[:, 2] = 0.12 + 0.15 * old         # divorced
    weights[:, 3] = 0.02 + 0.3 * old          # widowed
    weights = np.clip(weights, 0.01, None)
    return conditional_categorical(rng, np.array(MARITAL_STATUSES, dtype=object), weights)


def generate_adult(n_instances=RAW_INSTANCES, seed=0, missing_fraction=None):
    """Sample the synthetic Adult dataset.

    Parameters
    ----------
    n_instances:
        Raw row count before cleaning (paper: 48 842).
    seed:
        RNG seed; the full pipeline is deterministic in it.
    missing_fraction:
        Fraction of rows to corrupt with missing cells.  Defaults to the
        rate that reproduces Table I's 48 842 -> 32 561 cleaning.

    Returns
    -------
    (frame, labels):
        ``frame`` has missing values still present (call
        :func:`repro.data.preprocess.clean`); ``labels`` is the
        0/1 income array aligned with the frame.
    """
    rng = np.random.default_rng(seed)
    if missing_fraction is None:
        missing_fraction = 1.0 - CLEAN_INSTANCES / RAW_INSTANCES

    # Exogenous roots.
    age = np.clip(rng.gamma(6.0, 4.5, size=n_instances) + 17.0, 17.0, 90.0)
    gender = (rng.random(n_instances) < 0.67).astype(np.float64)  # 1 = male
    native_us = (rng.random(n_instances) < 0.90).astype(np.float64)
    race = sample_categorical(
        rng, RACES, (0.855, 0.096, 0.031, 0.010, 0.008), n_instances)

    # Endogenous attributes (the causal chain the constraints reference).
    education = _sample_education(rng, age)
    education_rank = np.array(
        [EDUCATION_LEVELS.index(level) for level in education], dtype=np.float64)
    occupation = _sample_occupation(rng, education_rank)
    marital = _sample_marital(rng, age)
    workclass = sample_categorical(
        rng, WORKCLASSES, (0.70, 0.11, 0.13, 0.06), n_instances)

    occupation_rank = np.array(
        [OCCUPATIONS.index(level) for level in occupation], dtype=np.float64)
    hours = np.clip(
        HOURS_EQUATION["base"]
        + HOURS_EQUATION["per_occupation_rank"]
        * (occupation_rank - HOURS_EQUATION["anchor_rank"])
        + HOURS_EQUATION["gender_shift"] * gender
        + rng.normal(0.0, 9.0, size=n_instances),
        1.0, 99.0)

    married = (marital == "married").astype(np.float64)
    # Concave age effect: earnings peak mid-career (~48) and decline toward
    # retirement, as in the real survey data.  This matters for the paper's
    # feasibility experiments — for older individuals the classifier's age
    # gradient turns negative, so unconstrained CF methods suggest getting
    # younger, which the unary causal constraint rejects.
    age_peak = 48.0
    logits = (
        -6.6
        + 0.042 * age
        - 0.005 * (np.maximum(age - age_peak, 0.0) ** 2)
        + 0.55 * education_rank
        + 0.035 * hours
        + 0.35 * occupation_rank
        + 1.1 * married
        + 0.25 * gender
    )
    income = bernoulli_logit(rng, logits)

    frame = TabularFrame({
        "age": age,
        "hours_per_week": hours,
        "workclass": workclass,
        "education": education,
        "marital_status": marital,
        "occupation": occupation,
        "race": race,
        "gender": gender,
        "native_us": native_us,
    })
    frame = inject_missing(frame, ("workclass", "occupation"), missing_fraction, rng)
    return frame, income
