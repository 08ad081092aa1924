"""Data substrate: schemas, synthetic SCM generators, preprocessing.

Replaces the paper's UCI/LSAC downloads with structural-causal-model
samplers that match each dataset's published schema and the causal
relations the constraints reference (``docs/causal.md`` states those
mechanisms as the structural equations the causal layer acts on).
"""

from .adult import ADULT_SCHEMA, EDUCATION_LEVELS, EDUCATION_MIN_AGE, generate_adult
from .frame import TabularFrame
from .kdd_census import (
    KDD_EDUCATION_LEVELS,
    KDD_EDUCATION_MIN_AGE,
    KDD_SCHEMA,
    generate_kdd_census,
)
from .law_school import LAW_SCHEMA, generate_law_school
from .preprocess import TabularEncoder, clean
from .registry import (
    PAPER_SIZES,
    DatasetBundle,
    dataset_names,
    dataset_schema,
    load_dataset,
)
from .schema import DatasetSchema, FeatureSpec, FeatureType
from .splits import train_val_test_split

__all__ = [
    "FeatureType", "FeatureSpec", "DatasetSchema", "TabularFrame",
    "ADULT_SCHEMA", "EDUCATION_LEVELS", "EDUCATION_MIN_AGE", "generate_adult",
    "KDD_SCHEMA", "KDD_EDUCATION_LEVELS", "KDD_EDUCATION_MIN_AGE",
    "generate_kdd_census",
    "LAW_SCHEMA", "generate_law_school",
    "TabularEncoder", "clean", "train_val_test_split",
    "DatasetBundle", "load_dataset", "dataset_names", "dataset_schema",
    "PAPER_SIZES",
]
