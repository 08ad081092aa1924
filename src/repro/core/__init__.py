"""The paper's contribution: feasibility-aware counterfactual generation.

Four-part loss (Eq. 3 + constraints + sparsity, extensible to six parts
with in-objective density/causal terms), the CF-VAE training loop
(Figure 4) and the :class:`FeasibleCFExplainer` public API.
"""

from .config import (
    CFTrainingConfig,
    CausalLossConfig,
    DEFAULT_INLOSS_CAUSAL_WEIGHT,
    DEFAULT_INLOSS_DENSITY_WEIGHT,
    DensityLossConfig,
    PAPER_TABLE3,
    TABLE3_SETTINGS,
    fast_config,
    inloss_config,
    paper_config,
)
from .explainer import FeasibleCFExplainer
from .generator import CFVAEGenerator
from .losses import FourPartLoss, sparsity_penalty
from .result import CFBatchResult
from .selection import DensityCFSelector

__all__ = [
    "CFTrainingConfig", "paper_config", "TABLE3_SETTINGS", "PAPER_TABLE3", "fast_config",
    "DensityLossConfig", "CausalLossConfig", "inloss_config",
    "DEFAULT_INLOSS_DENSITY_WEIGHT", "DEFAULT_INLOSS_CAUSAL_WEIGHT",
    "FourPartLoss", "sparsity_penalty",
    "CFVAEGenerator", "CFBatchResult", "FeasibleCFExplainer",
    "DensityCFSelector",
]
