"""Mahajan et al. (2019): causal-constraint CF-VAE *without* sparsity.

"Preserving Causal Constraints in Counterfactual Explanations for
Machine Learning Classifiers" is the closest prior work and the paper's
main head-to-head.  Architecturally it is the same conditional VAE
trained with validity + proximity + causal feasibility — the difference
the paper highlights is the absence of the sparsity term, which is
exactly how we implement it: the shared :class:`CFVAEGenerator` with the
sparsity weights zeroed.
"""

from __future__ import annotations

import numpy as np
from dataclasses import replace

from ..constraints import build_constraints
from ..core.config import CFTrainingConfig
from ..core.generator import CFVAEGenerator
from ..models import ConditionalVAE
from .base import BaseCFExplainer

__all__ = ["MahajanExplainer"]


class MahajanExplainer(BaseCFExplainer):
    """Causal CF-VAE baseline (no sparsity term).

    Parameters
    ----------
    constraint_kind:
        ``"unary"`` or ``"binary"`` — Mahajan et al. is trained per
        constraint model, like our method (Table IV reports both rows).
    config:
        Optional base config; its sparsity weights are forced to zero.
    min_epochs:
        Training-epoch floor (default 50, the setting the L2 objective
        needs to converge at paper scale).  Benchmarks lower it to keep
        smoke sweeps fast.
    """

    def __init__(self, encoder, blackbox, constraint_kind="unary",
                 config=None, seed=0, min_epochs=50):
        super().__init__(encoder, blackbox, seed=seed)
        self.name = f"mahajan_{constraint_kind}"
        self.constraint_kind = constraint_kind
        base = config or CFTrainingConfig()
        # Faithful differences from our method: no sparsity
        # term; ELBO-style squared reconstruction proximity; a milder causal
        # term (Mahajan et al. regularise with a learned causal-proximity
        # score rather than our hard hinge penalties); and a larger margin /
        # validity weight, which keeps the method at its published ~100%
        # validity despite the quadratic pull.
        # Table III lists *our* model's epochs; the Mahajan baseline is
        # trained separately and its L2 objective converges more slowly,
        # so it gets at least 50 epochs.
        self.config = replace(base, sparsity_l1_weight=0.0, sparsity_l0_weight=0.0,
                              proximity_metric="l2", validity_weight=3.0,
                              hinge_margin=1.5, feasibility_weight=2.0,
                              epochs=max(base.epochs, int(min_epochs)))
        self.constraints = build_constraints(encoder, constraint_kind)
        self.generator = None

    def _fit(self, x_train, y_train):
        vae = ConditionalVAE(
            self.encoder.n_encoded, np.random.default_rng(self.seed + 3))
        self.generator = CFVAEGenerator(
            vae, self.blackbox, self.constraints, self.projector,
            self.config, rng=np.random.default_rng(self.seed + 4))
        self.generator.fit(x_train)

    def _generate(self, x, desired):
        return self.generator.generate(x, desired)
