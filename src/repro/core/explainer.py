"""Public API: :class:`FeasibleCFExplainer`.

Ties the whole pipeline together — black-box training, constraint
construction, CF-VAE training and counterfactual generation — behind the
interface the examples, experiments and benchmarks use:

.. code-block:: python

    bundle = load_dataset("adult", n_instances=5000)
    explainer = FeasibleCFExplainer(bundle.encoder, constraint_kind="unary")
    explainer.fit(*bundle.split("train"))
    result = explainer.explain(bundle.split("test")[0])
    print(result.validity_rate, result.feasibility_rate)
"""

from __future__ import annotations

import numpy as np

from ..constraints import ConstraintSet, ImmutableProjector, build_constraints
from ..models import BlackBoxClassifier, ConditionalVAE, train_classifier
from ..utils.validation import check_encoded_rows, check_training_labels
from .config import CFTrainingConfig
from .generator import CFVAEGenerator

__all__ = ["FeasibleCFExplainer"]


class FeasibleCFExplainer:
    """Feasible counterfactual explanations with causality and sparsity.

    Parameters
    ----------
    encoder:
        Fitted :class:`repro.data.TabularEncoder` describing the dataset.
    constraint_kind:
        ``"unary"`` (Eq. 1) or ``"binary"`` (Eq. 2) — which causal model
        to train, as in the paper's two model variants.  Alternatively
        pass ``constraints`` explicitly.
    constraints:
        Optional explicit :class:`repro.constraints.ConstraintSet`,
        overriding the catalog lookup.
    config:
        :class:`CFTrainingConfig`; defaults to the class defaults.
    blackbox:
        Optionally a pre-trained classifier to explain.  When omitted,
        :meth:`fit` trains the paper's two-linear-layer model first.
    seed:
        Single seed controlling model init, training and generation.
    """

    def __init__(self, encoder, constraint_kind="unary", constraints=None,
                 config=None, blackbox=None, seed=0):
        self.encoder = encoder
        self.config = config or CFTrainingConfig()
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

        if constraints is not None:
            self.constraints = constraints if isinstance(constraints, ConstraintSet) \
                else ConstraintSet(constraints)
            self.constraint_kind = "custom"
        else:
            self.constraints = build_constraints(encoder, constraint_kind)
            self.constraint_kind = constraint_kind

        self.blackbox = blackbox
        self.projector = ImmutableProjector(encoder)
        self.generator = None
        self._runner = None

    @classmethod
    def from_trained(cls, encoder, blackbox, vae, constraint_kind="unary",
                     config=None, seed=0):
        """Assemble a ready-to-explain pipeline from trained components.

        The warm-start twin of ``__init__`` + :meth:`fit`: both models
        arrive already trained (e.g. restored from an artifact store), so
        no training pass runs.  The returned explainer produces outputs
        identical to the instance that trained the weights.
        """
        explainer = cls(encoder, constraint_kind=constraint_kind, config=config,
                        blackbox=blackbox, seed=seed)
        explainer.generator = CFVAEGenerator.from_trained(
            vae, blackbox, explainer.constraints, explainer.projector,
            explainer.config, rng=np.random.default_rng(explainer.seed + 4))
        return explainer

    def _check_rows(self, x, name):
        """2-D + schema-width validation against the training encoder."""
        return check_encoded_rows(x, self.encoder, name)

    # -- training -----------------------------------------------------------
    def fit(self, x_train, y_train, blackbox_epochs=30, balanced=True,
            verbose=False):
        """Train the pipeline: black-box (if needed), then the CF-VAE.

        Parameters
        ----------
        x_train:
            Encoded training matrix.
        y_train:
            0/1 labels, one per row of ``x_train``, for the black-box
            stage and the in-loss references.
        blackbox_epochs:
            Epochs for the classifier stage (skipped when a pre-trained
            ``blackbox`` was supplied).
        balanced:
            Class-balance the classifier loss (recommended: the benchmark
            datasets are skewed toward the undesired class).
        """
        x_train = self._check_rows(x_train, "x_train")
        y_train = check_training_labels(y_train, len(x_train))

        if self.blackbox is None:
            self.blackbox = BlackBoxClassifier(
                self.encoder.n_encoded, np.random.default_rng(self.seed + 1))
            train_classifier(
                self.blackbox, x_train, y_train, epochs=blackbox_epochs,
                rng=np.random.default_rng(self.seed + 2), balanced=balanced,
                verbose=verbose)

        vae = ConditionalVAE(
            self.encoder.n_encoded, np.random.default_rng(self.seed + 3))
        self.generator = CFVAEGenerator(
            vae, self.blackbox, self.constraints, self.projector,
            self.config, rng=np.random.default_rng(self.seed + 4))
        if self.config.density_weight_inloss or self.config.causal_weight_inloss:
            self._prepare_inloss(x_train, y_train)
        self.generator.fit(x_train, verbose=verbose)
        return self

    def _prepare_inloss(self, x_train, y_train):
        """Fit the six-part loss surrogates before the CF-VAE stage.

        The density reference is the desired-class slice of the training
        rows (the region a counterfactual should land in — the same
        policy as ``fit_class_density``); the causal surrogate wraps the
        dataset's causal model named by ``config.loss_causal``.
        """
        cfg = self.config
        desired_class = int(self.encoder.schema.desired_class)
        reference = None
        if cfg.density_weight_inloss:
            reference = x_train[np.asarray(y_train) == desired_class]
            if len(reference) == 0:
                reference = x_train
        causal = None
        if cfg.causal_weight_inloss:
            from ..causal import fit_causal

            causal = fit_causal(cfg.loss_causal.kind, self.encoder, x_train, y_train)
        self.generator.prepare_inloss(
            reference=reference, causal=causal, desired_class=desired_class)

    @property
    def history(self):
        """Per-epoch averaged loss parts from the CF-VAE stage."""
        if self.generator is None:
            return []
        return self.generator.history

    # -- engine integration -----------------------------------------------------
    def as_strategy(self, name=None, n_candidates=1, rng=None):
        """Expose this explainer through the engine's strategy API.

        With ``n_candidates=1`` the strategy proposes the deterministic
        decode :meth:`explain` uses; larger values propose a diverse
        latent-perturbation sweep for density-aware selection.
        """
        from ..engine import CoreCFStrategy

        return CoreCFStrategy(self, name=name, n_candidates=n_candidates, rng=rng)

    def _engine_runner(self):
        """Cached :class:`repro.engine.EngineRunner` over this pipeline."""
        from ..engine import EngineRunner

        if self._runner is None or self._runner.blackbox is not self.blackbox:
            self._runner = EngineRunner(
                self.encoder, self.blackbox,
                constraints=self.constraints)
        return self._runner

    # -- explanation ------------------------------------------------------------
    def explain(self, x, desired=None):
        """Generate counterfactuals for encoded rows ``x``.

        Returns a :class:`CFBatchResult` with validity/feasibility flags
        computed against the black-box and the constraint set.  A thin
        adapter over the shared engine runner: projection, validity and
        the fused feasibility pass all happen in
        :meth:`repro.engine.EngineRunner.run`.
        """
        if self.generator is None:
            raise RuntimeError("explainer is not fitted; call fit() first")
        return self._engine_runner().run(self.as_strategy(), x, desired)

    def explain_frame(self, frame, desired=None):
        """Convenience wrapper: explain raw rows from a TabularFrame."""
        return self.explain(self.encoder.transform(frame), desired)
