"""Training configuration for the feasibility CF-VAE, incl. Table III.

``paper_config(dataset, kind)`` returns the hyperparameters the paper
reports in Table III (learning rate, batch size 2048, epochs 25/50),
plus the loss weights — which the paper leaves as "selected from
experimentation" — tuned for this substrate.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

__all__ = [
    "CFTrainingConfig",
    "DensityLossConfig",
    "CausalLossConfig",
    "paper_config",
    "TABLE3_SETTINGS",
    "fast_config",
    "inloss_config",
    "DEFAULT_INLOSS_DENSITY_WEIGHT",
    "DEFAULT_INLOSS_CAUSAL_WEIGHT",
]


@dataclass(frozen=True)
class DensityLossConfig:
    """Settings for the in-objective (differentiable) density term.

    ``kind`` selects the surrogate: ``"kde"`` is a Gaussian KDE over a
    subsampled reference population in encoded input space;
    ``"latent"`` is a soft-min kNN distance in the CF-VAE's latent
    space (the reference rows are re-encoded with the current encoder
    weights each step, so the term tracks the manifold as it trains).
    """

    kind: str = "kde"
    bandwidth_scale: float = 1.0
    temperature: float = 0.05
    max_reference: int = 256
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ("kde", "latent"):
            raise ValueError(f"density loss kind must be 'kde' or 'latent', got {self.kind!r}")
        if self.bandwidth_scale <= 0:
            raise ValueError(f"bandwidth_scale must be positive, got {self.bandwidth_scale}")
        if self.temperature <= 0:
            raise ValueError(f"temperature must be positive, got {self.temperature}")
        if self.max_reference < 1:
            raise ValueError(f"max_reference must be >= 1, got {self.max_reference}")


@dataclass(frozen=True)
class CausalLossConfig:
    """Settings for the in-objective (differentiable) causal term.

    ``kind`` names the causal model the surrogate is built from —
    ``"scm"`` penalises squared residuals of the abduct→intervene
    structural equations, ``"mined"`` applies squared hinge penalties
    to mined monotone relations.
    """

    kind: str = "scm"

    def __post_init__(self):
        if self.kind not in ("scm", "mined"):
            raise ValueError(f"causal loss kind must be 'scm' or 'mined', got {self.kind!r}")


@dataclass(frozen=True)
class CFTrainingConfig:
    """Hyperparameters for the four-part counterfactual objective.

    The first three fields mirror Table III; the weight fields balance
    the loss terms of Eq. 3 (validity, proximity, feasibility, sparsity)
    plus the VAE's KL regulariser.
    """

    learning_rate: float = 1e-3
    batch_size: int = 2048
    epochs: int = 25
    optimizer: str = "adam"
    momentum: float = 0.9
    validity_weight: float = 1.0
    proximity_weight: float = 1.0
    feasibility_weight: float = 5.0
    sparsity_l1_weight: float = 0.1
    sparsity_l0_weight: float = 0.05
    sparsity_l0_tau: float = 0.05
    kl_weight: float = 0.01
    hinge_margin: float = 0.5
    latent_noise: float = 0.1
    warmstart_epochs: int = 15
    proximity_metric: str = "l1"
    density_weight_inloss: float = 0.0
    causal_weight_inloss: float = 0.0
    loss_density: DensityLossConfig = DensityLossConfig()
    loss_causal: CausalLossConfig = CausalLossConfig()

    def __post_init__(self):
        # range() and slicing in the training loops need real ints: a
        # float batch size would only fail there, with a bare TypeError
        for name in ("batch_size", "epochs", "warmstart_epochs"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an int, got {value!r}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size <= 0:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if self.epochs <= 0:
            raise ValueError(f"epochs must be positive, got {self.epochs}")
        if self.warmstart_epochs < 0:
            raise ValueError(f"warmstart_epochs must be >= 0, got {self.warmstart_epochs}")
        if self.optimizer not in ("sgd", "adam"):
            raise ValueError(f"optimizer must be 'sgd' or 'adam', got {self.optimizer!r}")
        if self.proximity_metric not in ("l1", "l2"):
            raise ValueError(
                f"proximity_metric must be 'l1' or 'l2', got {self.proximity_metric!r}")
        # The artifact store round-trips configs through JSON manifests
        # (``CFTrainingConfig(**manifest["config"])``), where the nested
        # loss configs arrive back as plain dicts — coerce them here so
        # every constructor path yields the frozen dataclass form.
        if isinstance(self.loss_density, dict):
            object.__setattr__(self, "loss_density", DensityLossConfig(**self.loss_density))
        if isinstance(self.loss_causal, dict):
            object.__setattr__(self, "loss_causal", CausalLossConfig(**self.loss_causal))
        if self.density_weight_inloss < 0:
            raise ValueError(
                f"density_weight_inloss must be >= 0, got {self.density_weight_inloss}")
        if self.causal_weight_inloss < 0:
            raise ValueError(
                f"causal_weight_inloss must be >= 0, got {self.causal_weight_inloss}")

    def scaled_for(self, n_rows):
        """Adapt the batch size to small datasets (tests, examples).

        The paper's batch of 2048 assumes tens of thousands of training
        rows; on miniature datasets it would leave the optimiser with a
        handful of steps.  This keeps at least ~8 batches per epoch
        without exceeding the configured batch size.
        """
        target = max(16, min(self.batch_size, n_rows // 8))
        if n_rows >= 8 * self.batch_size:
            return self
        return replace(self, batch_size=target)


#: The hyperparameters exactly as Table III reports them (learning rate,
#: batch size, epochs).  The paper's learning rates drive *their* training
#: framework; on this numpy substrate the equivalent schedule is Adam at
#: 1e-3, so ``TABLE3_SETTINGS`` keeps the paper's epoch/batch structure
#: with the tuned ``learning_rate``/``optimizer`` defaults, while the
#: ``learning_rate`` entries here record the published numbers.
PAPER_TABLE3 = {
    ("adult", "unary"): {"learning_rate": 0.2, "batch_size": 2048, "epochs": 25},
    ("adult", "binary"): {"learning_rate": 0.2, "batch_size": 2048, "epochs": 50},
    ("kdd_census", "unary"): {"learning_rate": 0.1, "batch_size": 2048, "epochs": 25},
    ("kdd_census", "binary"): {"learning_rate": 0.1, "batch_size": 2048, "epochs": 25},
    ("law_school", "unary"): {"learning_rate": 0.2, "batch_size": 2048, "epochs": 25},
    ("law_school", "binary"): {"learning_rate": 0.2, "batch_size": 2048, "epochs": 50},
}

#: Per-dataset loss-weight adjustments.  KDD's 32 one-hot blocks squeeze
#: through the same fixed Table II widths as Adult's 5, so data fidelity
#: needs a stronger proximity/sparsity pull and a longer reconstruction
#: warm-start there.
_DATASET_OVERRIDES = {
    "kdd_census": {"proximity_weight": 3.0, "sparsity_l0_weight": 0.2,
                   "warmstart_epochs": 30},
}

TABLE3_SETTINGS = {
    key: CFTrainingConfig(batch_size=row["batch_size"], epochs=row["epochs"],
                          **_DATASET_OVERRIDES.get(key[0], {}))
    for key, row in PAPER_TABLE3.items()
}


def paper_config(dataset, kind):
    """Return the Table III-derived configuration for ``(dataset, kind)``."""
    key = (dataset, kind)
    if key not in TABLE3_SETTINGS:
        raise KeyError(f"no Table III setting for {key!r}")
    return TABLE3_SETTINGS[key]


def fast_config(epochs=8, batch_size=256):
    """A small configuration for tests and quick examples."""
    return CFTrainingConfig(
        learning_rate=3e-3, batch_size=batch_size, epochs=epochs,
        warmstart_epochs=8)


#: Default in-objective term weights, tuned on the smoke workload so the
#: density/causal pull reshapes the decoder without drowning the validity
#: hinge (see docs/performance.md for the candidates-per-valid-CF table).
DEFAULT_INLOSS_DENSITY_WEIGHT = 0.2
DEFAULT_INLOSS_CAUSAL_WEIGHT = 2.0


def inloss_config(base, density_weight=None, causal_weight=None,
                  loss_density=None, loss_causal=None):
    """Return ``base`` with the six-part in-objective terms switched on.

    ``density_weight``/``causal_weight`` default to the tuned module
    constants; pass ``0.0`` explicitly to disable one of the terms.
    ``loss_density``/``loss_causal`` optionally replace the nested
    surrogate configs.
    """
    updates = {
        "density_weight_inloss": DEFAULT_INLOSS_DENSITY_WEIGHT
        if density_weight is None else float(density_weight),
        "causal_weight_inloss": DEFAULT_INLOSS_CAUSAL_WEIGHT
        if causal_weight is None else float(causal_weight),
    }
    if loss_density is not None:
        updates["loss_density"] = loss_density
    if loss_causal is not None:
        updates["loss_causal"] = loss_causal
    return replace(base, **updates)
