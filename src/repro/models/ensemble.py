"""Black-box ensembles: K model variants scored in one batched pass.

"Density-Guided Robust Counterfactual Explanations on Tabular Data under
Model Multiplicity" (PAPERS.md) shows that counterfactuals validated
against a single trained classifier frequently stop flipping the label
once the model is retrained — fatal for a serving system whose cached
explanations outlive model versions.  :class:`BlackBoxEnsemble` is the
repo's answer: K retrained variants of the shared
:class:`~repro.models.blackbox.BlackBoxClassifier` (different seed
streams, optionally bootstrap-resampled training rows) behind ONE
batched scoring call, so the engine can ask "how many plausible models
does this candidate flip?" for a whole ``(n * m, d)`` candidate sweep at
close to single-model cost.

The batched path exploits the members' shared two-linear-layer shape:
the K first-layer weight matrices concatenate into one ``(d, K * h)``
block, so the hidden activations of every member come out of a single
GEMM; the K scalar heads then reduce the ``(n, K, h)`` hidden tensor
with one einsum.  Hard predictions are bit-identical to the
pre-ensemble path (one ``forward_array`` per member, the parity
reference in ``tests/helpers/loops.py``); raw logits may differ at
float precision because BLAS blocking varies with the fused batch
shape — the same caveat :meth:`repro.density.DensityModel.score_tiled`
documents for its matmul-backed estimators.

State round trips through the flat array-or-scalar dict contract shared
with :class:`repro.density.DensityModel` and
:class:`repro.causal.CausalModel`, so the artifact store persists
ensembles as a standard fingerprinted overlay next to the pipeline.
"""

from __future__ import annotations

import numpy as np

from ..utils.validation import check_2d, check_2d_fast, check_binary_labels, check_count
from .blackbox import BlackBoxClassifier, train_classifier

__all__ = ["ENSEMBLE_MODES", "BlackBoxEnsemble", "train_ensemble"]

#: Retraining modes :func:`train_ensemble` accepts: ``seed`` retrains
#: each member from a different weight-init/batching stream on the full
#: split; ``bootstrap`` additionally resamples the training rows with
#: replacement per member.
ENSEMBLE_MODES = ("seed", "bootstrap")


class BlackBoxEnsemble:
    """K same-architecture classifier variants scored in one pass.

    Parameters
    ----------
    members:
        Trained :class:`BlackBoxClassifier` instances.  All members must
        agree on ``n_features`` and ``hidden`` — the fused scoring path
        stacks their weights into one block.
    mode:
        How the members were produced (``"seed"`` / ``"bootstrap"``);
        provenance only, recorded in the persisted state.
    seed:
        Root seed of the training sweep; provenance only.
    """

    kind = "ensemble"

    #: State keys excluded from :meth:`fingerprint` (none for ensembles;
    #: the attribute completes the shared ``Persistable`` contract).
    fingerprint_excludes = ()

    def __init__(self, members, mode="seed", seed=0):
        members = list(members)
        if not members:
            raise ValueError("an ensemble needs at least one member")
        first = members[0]
        for index, member in enumerate(members):
            if not isinstance(member, BlackBoxClassifier):
                raise TypeError(
                    f"member {index} is {type(member).__name__}, expected BlackBoxClassifier"
                )
            if member.n_features != first.n_features or member.hidden != first.hidden:
                raise ValueError(
                    f"member {index} has shape ({member.n_features}, {member.hidden}), "
                    f"expected ({first.n_features}, {first.hidden}): the fused "
                    f"scoring path needs one shared architecture"
                )
        if mode not in ENSEMBLE_MODES:
            raise ValueError(f"mode must be one of {ENSEMBLE_MODES}, got {mode!r}")
        self.members = members
        self.mode = mode
        self.seed = int(seed)
        self._stack = None

    def __len__(self):
        return len(self.members)

    @property
    def n_members(self):
        """Number of model variants (K)."""
        return len(self.members)

    @property
    def n_features(self):
        """Shared encoded input width of every member."""
        return self.members[0].n_features

    @property
    def hidden(self):
        """Shared hidden width of every member."""
        return self.members[0].hidden

    # -- fused scoring -------------------------------------------------------
    def _stacked_weights(self):
        """Member weights fused into block matrices (built once, cached).

        Layer 1 concatenates along the output axis — ``(d, K * h)`` plus
        a ``(K * h,)`` bias — so one GEMM produces every member's hidden
        activations.  Layer 2 keeps the per-member ``(K, h)`` heads and
        ``(K,)`` biases for the einsum reduction.
        """
        if self._stack is None:
            w1 = np.concatenate(
                [m.network.layers[0].weight.data for m in self.members], axis=1
            )
            b1 = np.concatenate([m.network.layers[0].bias.data for m in self.members])
            w2 = np.stack([m.network.layers[2].weight.data[:, 0] for m in self.members])
            b2 = np.asarray([m.network.layers[2].bias.data[0] for m in self.members])
            self._stack = (w1, b1, w2, b2)
        return self._stack

    def predict_logits_all(self, x):
        """Logits of every member for rows ``x``, shape ``(n, K)``.

        ONE fused pass for the whole ensemble: a single ``(n, d) @
        (d, K*h)`` GEMM for all first layers, a shared ReLU, and one
        einsum over the ``(n, K, h)`` hidden tensor for the K scalar
        heads.  Hard sign decisions match one ``predict_logits`` call per
        member bit for bit; raw floats may differ at BLAS blocking
        precision.
        """
        x = check_2d_fast(x, "x")
        w1, b1, w2, b2 = self._stacked_weights()
        hidden = np.maximum(x @ w1 + b1, 0.0)
        hidden = hidden.reshape(len(x), self.n_members, self.hidden)
        return np.einsum("nkh,kh->nk", hidden, w2) + b2

    def predict_all(self, x):
        """Hard 0/1 predictions of every member, shape ``(n, K)``."""
        return (self.predict_logits_all(x) > 0.0).astype(int)

    def agreement(self, x, desired):
        """Fraction of members classifying each row as its ``desired`` class.

        The cross-model validity score of a candidate batch: shape
        ``(n,)``, values in ``[0, 1]``.  ``desired`` broadcasts against
        the rows.
        """
        desired = np.asarray(desired, dtype=int)
        votes = self.predict_all(x) == desired.reshape(-1, 1)
        return votes.mean(axis=1)

    def predict(self, x):
        """Majority-vote hard predictions, ties broken by mean logit sign."""
        logits = self.predict_logits_all(x)
        votes = (logits > 0.0).mean(axis=1)
        majority = np.where(votes == 0.5, logits.mean(axis=1) > 0.0, votes > 0.5)
        return majority.astype(int)

    # -- persistence ---------------------------------------------------------
    def get_state(self):
        """Flat state dict: ``kind`` + scalars + per-member weight arrays.

        Keys follow ``member<i>.<param>`` with the parameter names of
        :meth:`repro.nn.Module.state_dict`, so the artifact store's
        overlay machinery (arrays to npz, scalars to the json sidecar)
        persists an ensemble exactly like density or causal state.
        """
        state = {
            "kind": self.kind,
            "mode": self.mode,
            "seed": self.seed,
            "n_members": self.n_members,
            "n_features": int(self.n_features),
            "hidden": int(self.hidden),
        }
        for index, member in enumerate(self.members):
            for name, value in member.state_dict().items():
                state[f"member{index}.{name}"] = value
        return state

    @classmethod
    def from_state(cls, state):
        """Rebuild a trained ensemble from :meth:`get_state` output."""
        if state.get("kind") != cls.kind:
            raise ValueError(
                f"state kind {state.get('kind')!r} is not an ensemble state"
            )
        n_members = int(state["n_members"])
        members = []
        for index in range(n_members):
            prefix = f"member{index}."
            weights = {
                key[len(prefix):]: value
                for key, value in state.items()
                if key.startswith(prefix)
            }
            if not weights:
                raise ValueError(f"ensemble state is missing member {index}")
            member = BlackBoxClassifier(
                int(state["n_features"]),
                np.random.default_rng(0),
                hidden=int(state["hidden"]),
            )
            member.load_state_dict(weights)
            member.eval()
            members.append(member)
        return cls(members, mode=state.get("mode", "seed"), seed=int(state.get("seed", 0)))

    def fingerprint(self):
        """Deterministic hash of the member weights, for caches and the store.

        Delegates to the shared :func:`repro.serve.persist.fingerprint_state`
        contract (arrays hashed by content, scalars canonically
        JSON-encoded) — the exact contract of
        ``DensityModel.fingerprint`` and ``CausalModel.fingerprint``, so
        the store and the serving cache treat ensemble staleness
        identically to density/causal staleness.
        """
        from ..serve.persist import fingerprint_state

        return fingerprint_state(self.get_state(), self.fingerprint_excludes)


def train_ensemble(
    x_train,
    y_train,
    n_members=5,
    mode="seed",
    seed=0,
    epochs=10,
    hidden=16,
    batch_size=256,
    lr=0.05,
    balanced=True,
    include=None,
):
    """Train K classifier variants; returns a :class:`BlackBoxEnsemble`.

    Each member trains on the same split with its own weight-init and
    batching streams (``seed + 100 * (i + 1)`` and ``+ 1`` — disjoint
    from the pipeline's ``seed + 10/11`` streams, so member 0 is a
    genuine retrain of the primary model, not a copy).  ``bootstrap``
    mode additionally resamples the training rows with replacement per
    member, widening the plausible-model set beyond seed variance.

    ``include`` prepends an already-trained classifier (the pipeline's
    primary model) as member 0 without retraining it, for ensembles that
    must contain the model actually being served.
    """
    x_train = check_2d(x_train, "x_train")
    y_train = check_binary_labels(y_train, "y_train")
    if mode not in ENSEMBLE_MODES:
        raise ValueError(f"mode must be one of {ENSEMBLE_MODES}, got {mode!r}")
    check_count(n_members, "n_members", 1)

    members = []
    if include is not None:
        members.append(include)
    n_trained = n_members - len(members)
    n_features = x_train.shape[1]
    for index in range(n_trained):
        member_seed = int(seed) + 100 * (index + 1)
        x, y = x_train, y_train
        if mode == "bootstrap":
            rows = np.random.default_rng(member_seed + 2).integers(
                0, len(x_train), size=len(x_train)
            )
            x, y = x_train[rows], y_train[rows]
        member = BlackBoxClassifier(
            n_features, np.random.default_rng(member_seed), hidden=hidden
        )
        train_classifier(
            member,
            x,
            y,
            epochs=epochs,
            lr=lr,
            batch_size=batch_size,
            rng=np.random.default_rng(member_seed + 1),
            balanced=balanced,
        )
        members.append(member)
    return BlackBoxEnsemble(members, mode=mode, seed=seed)
