"""One strategy API for the core method and every baseline.

A *strategy* is anything that can propose raw counterfactual candidates
for a batch of encoded rows: the paper's CF-VAE generator, each of the
six Table IV baselines (FACE, REVISE, C-CHVAE, CEM, DiCE-random,
Mahajan) and anything a user registers.  Strategies only propose;
immutable projection, validity filtering, feasibility evaluation,
density scoring and the Table IV metrics all live once in
:class:`repro.engine.runner.EngineRunner` instead of being re-implemented
per method.

``build_strategy`` is the single factory the experiment harness, the
scenario registry and the serving layer share — it constructs exactly
the explainer objects the pre-engine harness built, so Table IV rows are
unchanged.
"""

from __future__ import annotations

import hashlib
import json
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..utils.validation import resolve_desired

__all__ = [
    "STRATEGY_NAMES",
    "CFStrategy",
    "CandidateBatch",
    "CoreCFStrategy",
    "build_strategy",
]

#: Method names the factory accepts, in the paper's Table IV row order.
STRATEGY_NAMES = (
    "mahajan_unary",
    "mahajan_binary",
    "revise",
    "cchvae",
    "cem",
    "dice_random",
    "face",
    "ours_unary",
    "ours_binary",
)


@dataclass
class CandidateBatch:
    """Raw (pre-projection) counterfactual candidates for a batch.

    Attributes
    ----------
    x:
        Encoded input rows, shape ``(n, d)``.
    desired:
        Resolved desired class per row, shape ``(n,)``.
    candidates:
        Candidate counterfactuals, shape ``(n, m, d)`` — ``m`` candidates
        per input row.  Most strategies propose ``m = 1``; the core
        CF-VAE can propose a diverse sweep via latent perturbation.
    """

    x: np.ndarray
    desired: np.ndarray
    candidates: np.ndarray

    def __len__(self):
        return len(self.x)

    @property
    def n_candidates(self):
        """Candidates per input row (``m``)."""
        return self.candidates.shape[1]

    @property
    def flat(self):
        """Candidates flattened to ``(n * m, d)`` in ``np.repeat`` order."""
        n, m, d = self.candidates.shape
        return self.candidates.reshape(n * m, d)


class CFStrategy(ABC):
    """Propose-only interface every counterfactual method implements.

    Lifecycle: construct, :meth:`fit` on the training split, then
    :meth:`propose` raw candidates for encoded rows.  Everything
    downstream of proposal is the engine runner's job.
    """

    #: Row label used in reports, caches and the scenario registry.
    name = "strategy"

    @abstractmethod
    def fit(self, x_train, y_train=None):
        """Fit method-specific machinery; returns ``self``."""

    @abstractmethod
    def propose(self, x, desired=None) -> CandidateBatch:
        """Propose raw (pre-projection) candidates for encoded rows ``x``."""

    def describe(self):
        """JSON-able identity dict; the basis of :meth:`fingerprint`."""
        return {
            "class": type(self).__name__,
            "name": self.name,
            "seed": int(getattr(self, "seed", 0)),
        }

    def fingerprint(self):
        """Deterministic hash of the strategy identity, for cache keys."""
        canonical = json.dumps(self.describe(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


class CoreCFStrategy(CFStrategy):
    """The paper's CF-VAE generator exposed through the strategy API.

    Parameters
    ----------
    explainer:
        A :class:`repro.core.FeasibleCFExplainer` (fitted or not — an
        unfitted explainer is trained by :meth:`fit`).
    name:
        Report label; defaults to ``ours_<constraint kind>``.
    n_candidates:
        Candidates proposed per row.  ``1`` decodes the deterministic
        posterior mean (the one-shot ``explain`` path); larger values add
        latent-perturbation diversity (the "perturbed the output of the
        encoder" step of Section III-C): Gaussian latent noise of scale
        ``max(latent_noise, 0.05)``, drawn for every row in one generator
        call in row-major order (identical to sampling row by row), and
        all ``n * m`` latents decode in one batched pass, candidate 0 of
        each row being the zero-noise decode.
    rng:
        Noise stream of the diverse mode; defaults to a fresh
        ``default_rng(seed + 500)`` per proposal.
    """

    def __init__(self, explainer, name=None, n_candidates=1, rng=None):
        self.explainer = explainer
        self.name = name or f"ours_{explainer.constraint_kind}"
        self.n_candidates = int(n_candidates)
        if self.n_candidates < 1:
            raise ValueError(f"n_candidates must be >= 1, got {n_candidates}")
        self.rng = rng
        self.seed = explainer.seed

    @property
    def constraints(self):
        """The explainer's own constraint set (its trained kind)."""
        return self.explainer.constraints

    def fit(self, x_train, y_train=None):
        self.explainer.fit(x_train, y_train)
        return self

    def propose(self, x, desired=None):
        explainer = self.explainer
        generator = explainer.generator
        if generator is None:
            raise RuntimeError(f"{self.name} is not fitted; call fit() first")
        x = explainer._check_rows(x, "x")
        desired = resolve_desired(explainer.blackbox, x, desired)

        vae = generator.vae
        vae.eval()
        n, d = x.shape
        m = self.n_candidates
        mu, _ = vae.encode_array(x, desired)
        if m == 1:
            decoded = vae.decode_array(mu, desired)
        else:
            rng = self.rng or np.random.default_rng(explainer.seed + 500)
            noise_scale = max(generator.config.latent_noise, 0.05)
            latent_dim = mu.shape[1]
            noise = rng.normal(0.0, noise_scale, size=(n, m, latent_dim))
            noise[:, 0, :] = 0.0  # always include the deterministic candidate
            z = (mu[:, None, :] + noise).reshape(n * m, latent_dim)
            labels = np.repeat(np.asarray(desired, dtype=np.float64), m)
            decoded = vae.decode_latent(z, labels)
        return CandidateBatch(x=x, desired=desired, candidates=decoded.reshape(n, m, d))

    def describe(self):
        from dataclasses import asdict

        info = super().describe()
        info["constraint_kind"] = self.explainer.constraint_kind
        info["n_candidates"] = self.n_candidates
        info["config"] = {
            key: (float(value) if isinstance(value, float) else value)
            for key, value in asdict(self.explainer.config).items()
        }
        return info


def build_strategy(method_name, encoder, blackbox, dataset=None, seed=0, config=None, **params):
    """Construct an unfitted strategy for a Table IV method name.

    This is the exact construction recipe the pre-engine experiment
    harness used per method — same classes, same configs, same seeds —
    packaged as the one factory the harness, the scenario registry and
    the serving layer all call.

    Parameters
    ----------
    method_name:
        One of :data:`STRATEGY_NAMES`.
    encoder, blackbox:
        Fitted encoder and trained classifier shared by every method.
    dataset:
        Dataset name for paper-config lookup (defaults to the encoder's
        schema name).
    seed:
        Method seed.
    config:
        Optional :class:`repro.core.CFTrainingConfig` override for the
        trained methods (ours/Mahajan); defaults to the paper's Table III
        setting for the dataset and kind.
    params:
        Extra keyword arguments forwarded to the method constructor
        (e.g. ``vae_epochs=6`` for a bench-scale REVISE).
    """
    from ..baselines import (
        CCHVAEExplainer,
        CEMExplainer,
        DiceRandomExplainer,
        FACEExplainer,
        MahajanExplainer,
        ReviseExplainer,
    )
    from ..core import FeasibleCFExplainer, paper_config

    dataset = dataset or encoder.schema.name
    if method_name in ("ours_unary", "ours_binary"):
        kind = method_name.split("_")[1]
        # the sweep size belongs to the strategy wrapper, the rest to the
        # explainer constructor (e.g. the density scenarios ask for a
        # multi-candidate sweep via n_candidates)
        n_candidates = params.pop("n_candidates", 1)
        explainer = FeasibleCFExplainer(
            encoder,
            constraint_kind=kind,
            config=config or paper_config(dataset, kind),
            blackbox=blackbox,
            seed=seed,
            **params,
        )
        return CoreCFStrategy(explainer, name=method_name, n_candidates=n_candidates)
    if method_name in ("mahajan_unary", "mahajan_binary"):
        kind = method_name.split("_")[1]
        return MahajanExplainer(
            encoder,
            blackbox,
            constraint_kind=kind,
            config=config or paper_config(dataset, kind),
            seed=seed,
            **params,
        )

    classes = {
        "revise": ReviseExplainer,
        "cchvae": CCHVAEExplainer,
        "cem": CEMExplainer,
        "dice_random": DiceRandomExplainer,
        "face": FACEExplainer,
    }
    if method_name not in classes:
        raise KeyError(f"unknown method {method_name!r}; options: {STRATEGY_NAMES}")
    return classes[method_name](encoder, blackbox, seed=seed, **params)
