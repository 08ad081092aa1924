"""Versioned on-disk store for trained explanation pipelines.

One artifact = one directory holding the trained black-box weights, the
CF-VAE weights and a ``manifest.json`` with everything needed to rebuild
the pipeline in a fresh process: the encoder's fitted state, the training
configuration, provenance (dataset, size, seed, constraint kind) and a
fingerprint over all of it.

Staleness is a first-class failure: loading re-derives the fingerprint
from the manifest against the *current* code's schema and rejects the
artifact (``StaleArtifactError``) when the schema, config or format
version has drifted since training, instead of silently serving outputs
from an incompatible model.  File corruption is caught by per-file
SHA-256 checksums recorded in the manifest.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import time
from dataclasses import asdict

import numpy as np

from ..causal import causal_from_state
from ..core import CFTrainingConfig, FeasibleCFExplainer, paper_config
from ..data import TabularEncoder, dataset_schema
from ..density import density_from_state
from ..experiments.runconfig import get_scale
from ..models import BlackBoxClassifier, BlackBoxEnsemble, ConditionalVAE
from ..nn import load_state, save_state
from .pipeline import TrainedPipeline, pipeline_fingerprint, train_pipeline

__all__ = [
    "ARTIFACT_FORMAT_VERSION",
    "ArtifactError",
    "ArtifactStore",
    "OVERLAY_KINDS",
    "StaleArtifactError",
]

#: Bump when the artifact layout or manifest schema changes; loading an
#: artifact written under any other version raises StaleArtifactError.
ARTIFACT_FORMAT_VERSION = 1

_MANIFEST = "manifest.json"
_BLACKBOX = "blackbox.npz"
_CFVAE = "cfvae.npz"


def _rebuild_density(store, name, state, vae=None, encoder=None):
    return density_from_state(state, vae=vae)


def _rebuild_causal(store, name, state, vae=None, encoder=None):
    if encoder is None:
        # rebuilt from the artifact's own manifest, so a causal overlay
        # is loadable without first loading the full pipeline
        manifest = store.manifest(name)
        schema = dataset_schema(manifest["dataset"])
        encoder = TabularEncoder.from_state(schema, manifest["encoder"])
    return causal_from_state(state, encoder)


def _rebuild_ensemble(store, name, state, vae=None, encoder=None):
    return BlackBoxEnsemble.from_state(state)


#: Overlay kind -> ``rebuild(store, name, state, vae=, encoder=)``, the
#: recipe turning a loaded flat state dict back into a fitted model
#: (``vae`` re-attaches a CF-VAE to latent density estimators,
#: ``encoder`` a fitted encoder to causal models; each kind ignores the
#: one it does not need).  A ``kind`` overlay lives in ``<kind>.npz``
#: (its arrays) and ``<kind>.json`` (scalar state, fingerprint,
#: checksum).  The order is the order the serving constructor takes them.
OVERLAY_KINDS = {
    "density": _rebuild_density,
    "causal": _rebuild_causal,
    "ensemble": _rebuild_ensemble,
}


def _overlay_rebuild(kind):
    if kind not in OVERLAY_KINDS:
        raise KeyError(
            f"unknown overlay kind {kind!r}; known: {', '.join(sorted(OVERLAY_KINDS))}")
    return OVERLAY_KINDS[kind]


class ArtifactError(RuntimeError):
    """An artifact is missing, incomplete or corrupted."""


class StaleArtifactError(ArtifactError):
    """An artifact exists but no longer matches the current code/config.

    Every raise site records the mismatch in structured form —
    ``expected`` (what the current code or caller demanded) and
    ``found`` (what the artifact actually carries) — so rollover
    tooling can log the exact fingerprint/version pair and the serving
    migration path can distinguish a model-rollover mismatch from
    corruption without parsing the message.
    """

    def __init__(self, message, expected=None, found=None):
        super().__init__(message)
        self.expected = expected
        self.found = found


def _file_sha256(path):
    """Streamed SHA-256 so checksumming never loads a file wholesale."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


class ArtifactStore:
    """Directory of named, fingerprinted pipeline artifacts.

    Parameters
    ----------
    root:
        Directory holding one subdirectory per artifact name.  Created
        lazily on the first :meth:`save`.
    """

    def __init__(self, root):
        self.root = pathlib.Path(root)

    def artifact_dir(self, name):
        """Directory of the artifact called ``name``."""
        return self.root / name

    def names(self):
        """Sorted names of artifacts that have a manifest on disk."""
        if not self.root.is_dir():
            return []
        return sorted(item.name for item in self.root.iterdir() if (item / _MANIFEST).is_file())

    def exists(self, name):
        """Whether an artifact called ``name`` has a manifest on disk."""
        return (self.artifact_dir(name) / _MANIFEST).is_file()

    @staticmethod
    def default_name(dataset, constraint_kind, seed):
        """Canonical artifact name for a (dataset, kind, seed) pipeline."""
        return f"{dataset}-{constraint_kind}-seed{int(seed)}"

    # -- writing ------------------------------------------------------------
    def save(self, pipeline, name=None):
        """Persist a :class:`TrainedPipeline`; returns the artifact dir.

        The manifest is written last, so a crash mid-save leaves a
        directory without a manifest — which :meth:`load` reports as a
        missing artifact rather than a corrupt one.  Non-finite weights
        raise :class:`ArtifactError` naming the first offending
        parameter, before anything is written: a diverged model must
        never be served.
        """
        if pipeline.constraint_kind not in ("unary", "binary"):
            raise ArtifactError(
                f"cannot persist constraint_kind={pipeline.constraint_kind!r}: "
                f"custom constraint sets have no catalog recipe to rebuild "
                f"from on load"
            )
        explainer = pipeline.explainer
        if explainer.generator is None:
            raise ArtifactError("pipeline is not fitted; nothing to persist")

        for owner, module in (("blackbox", explainer.blackbox), ("vae", explainer.generator.vae)):
            for parameter, value in module.state_dict().items():
                if not np.isfinite(value).all():
                    raise ArtifactError(
                        f"refusing to persist non-finite weights: {owner} "
                        f"parameter {parameter!r} holds NaN or inf"
                    )

        if name is None:
            name = self.default_name(pipeline.dataset, pipeline.constraint_kind, pipeline.seed)
        target = self.artifact_dir(name)
        target.mkdir(parents=True, exist_ok=True)
        save_state(target / _BLACKBOX, explainer.blackbox)
        save_state(target / _CFVAE, explainer.generator.vae)

        manifest = {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "created_at": time.time(),
            "dataset": pipeline.dataset,
            "n_instances": int(pipeline.n_instances),
            "seed": int(pipeline.seed),
            "constraint_kind": pipeline.constraint_kind,
            "blackbox_epochs": int(pipeline.blackbox_epochs),
            "config": _config_payload(pipeline.config),
            "encoder": explainer.encoder.get_state(),
            "blackbox": {
                "hidden": int(explainer.blackbox.hidden),
                "accuracy": float(pipeline.blackbox_accuracy),
            },
            "vae": {"latent_dim": int(explainer.generator.vae.latent_dim)},
            "fingerprint": pipeline.fingerprint,
            "checksums": {
                _BLACKBOX: _file_sha256(target / _BLACKBOX),
                _CFVAE: _file_sha256(target / _CFVAE),
            },
        }
        manifest_path = target / _MANIFEST
        manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
        return target

    # -- reading ------------------------------------------------------------
    def manifest(self, name):
        """Parsed manifest of artifact ``name`` (raises on missing/corrupt)."""
        path = self.artifact_dir(name) / _MANIFEST
        if not path.is_file():
            raise ArtifactError(f"no artifact {name!r} under {self.root} (missing {_MANIFEST})")
        try:
            return json.loads(path.read_text())
        except json.JSONDecodeError as error:
            raise ArtifactError(f"manifest of {name!r} is corrupted: {error}") from error

    def fresh(self, name, fingerprint):
        """Whether ``name`` exists and matches ``fingerprint`` exactly."""
        if not self.exists(name):
            return False
        try:
            manifest = self.manifest(name)
        except ArtifactError:
            return False
        return (
            manifest.get("format_version") == ARTIFACT_FORMAT_VERSION
            and manifest.get("fingerprint") == fingerprint
        )

    def load(self, name, expected_fingerprint=None):
        """Rebuild a :class:`TrainedPipeline` from artifact ``name``.

        Raises :class:`StaleArtifactError` when the format version, the
        recomputed fingerprint or ``expected_fingerprint`` disagree with
        the manifest, and :class:`ArtifactError` when a weight file fails
        its checksum.  ``bundle`` on the result is ``None`` — the store
        persists models, never data.
        """
        manifest = self.manifest(name)
        target = self.artifact_dir(name)

        version = manifest.get("format_version")
        if version != ARTIFACT_FORMAT_VERSION:
            raise StaleArtifactError(
                f"artifact {name!r} has format_version={version}, this code "
                f"reads version {ARTIFACT_FORMAT_VERSION} "
                f"(expected {ARTIFACT_FORMAT_VERSION}, found {version}); "
                f"retrain and re-save",
                expected=ARTIFACT_FORMAT_VERSION,
                found=version,
            )

        for filename, recorded in manifest["checksums"].items():
            path = target / filename
            if not path.is_file():
                raise ArtifactError(f"artifact {name!r} is missing {filename}")
            actual = _file_sha256(path)
            if actual != recorded:
                raise ArtifactError(
                    f"artifact {name!r}: {filename} fails its checksum "
                    f"(expected {recorded[:12]}..., got {actual[:12]}...); "
                    f"the file is corrupted or was edited after save"
                )

        dataset = manifest["dataset"]
        schema = dataset_schema(dataset)
        config = CFTrainingConfig(**manifest["config"])
        recomputed = pipeline_fingerprint(
            dataset,
            manifest["n_instances"],
            manifest["seed"],
            manifest["constraint_kind"],
            config,
            schema,
            manifest["blackbox_epochs"],
        )
        if recomputed != manifest["fingerprint"]:
            raise StaleArtifactError(
                f"artifact {name!r} is stale: its fingerprint no longer "
                f"matches the current schema/config for {dataset!r} "
                f"(expected {recomputed}, found {manifest['fingerprint']}); "
                f"retrain and re-save",
                expected=recomputed,
                found=manifest["fingerprint"],
            )
        if expected_fingerprint is not None and expected_fingerprint != recomputed:
            raise StaleArtifactError(
                f"artifact {name!r} does not match the requested pipeline "
                f"(expected {expected_fingerprint}, found {recomputed})",
                expected=expected_fingerprint,
                found=recomputed,
            )

        encoder = TabularEncoder.from_state(schema, manifest["encoder"])
        blackbox = BlackBoxClassifier(
            encoder.n_encoded,
            np.random.default_rng(0),
            hidden=manifest["blackbox"]["hidden"],
        )
        load_state(target / _BLACKBOX, blackbox)
        blackbox.eval()
        vae = ConditionalVAE(
            encoder.n_encoded,
            np.random.default_rng(0),
            latent_dim=manifest["vae"]["latent_dim"],
        )
        load_state(target / _CFVAE, vae)
        explainer = FeasibleCFExplainer.from_trained(
            encoder,
            blackbox,
            vae,
            constraint_kind=manifest["constraint_kind"],
            config=config,
            seed=manifest["seed"],
        )
        return TrainedPipeline(
            explainer=explainer,
            dataset=dataset,
            n_instances=manifest["n_instances"],
            seed=manifest["seed"],
            constraint_kind=manifest["constraint_kind"],
            blackbox_epochs=manifest["blackbox_epochs"],
            blackbox_accuracy=manifest["blackbox"]["accuracy"],
            bundle=None,
        )

    # -- model-state overlays (density, causal, ensemble) --------------------
    def _load_overlay(self, name, kind):
        """Read an overlay's ``(state, meta)``; shared staleness checks."""
        npz_name, meta_name = f"{kind}.npz", f"{kind}.json"
        target = self.artifact_dir(name)
        meta_path = target / meta_name
        if not meta_path.is_file():
            raise ArtifactError(
                f"artifact {name!r} has no {kind} state (missing {meta_name})"
            )
        try:
            meta = json.loads(meta_path.read_text())
        except json.JSONDecodeError as error:
            raise ArtifactError(f"{kind} sidecar of {name!r} is corrupted: {error}") from error

        version = meta.get("format_version")
        if version != ARTIFACT_FORMAT_VERSION:
            raise StaleArtifactError(
                f"{kind} state of {name!r} has format_version={version}, this "
                f"code reads version {ARTIFACT_FORMAT_VERSION} "
                f"(expected {ARTIFACT_FORMAT_VERSION}, found {version}); "
                f"refit and re-save",
                expected=ARTIFACT_FORMAT_VERSION,
                found=version,
            )
        # arrays of >= 1 MiB once went to standalone .npy files this
        # code no longer reads
        moved = sorted(meta.get("mmap_arrays") or ())
        if moved:
            raise StaleArtifactError(
                f"{kind} state of {name!r} keeps {', '.join(moved)} in .npy "
                f"files outside {npz_name}, a layout this code no longer reads; "
                f"refit and re-save",
                expected=[],
                found=moved,
            )

        npz_path = target / npz_name
        if not npz_path.is_file():
            raise ArtifactError(f"artifact {name!r} is missing {npz_name}")
        actual = _file_sha256(npz_path)
        if actual != meta["checksum"]:
            raise ArtifactError(
                f"artifact {name!r}: {npz_name} fails its checksum "
                f"(expected {meta['checksum'][:12]}..., got {actual[:12]}...); "
                f"the file is corrupted or was edited after save"
            )

        state = dict(meta["state"])
        with np.load(npz_path) as data:
            for key in meta["array_keys"]:
                state[key] = data[key]
        return state, meta

    def _check_overlay_fingerprint(self, name, model, meta, kind, expected_fingerprint):
        """Reject a rebuilt overlay model whose fingerprint drifted."""
        recomputed = model.fingerprint()
        if recomputed != meta["fingerprint"]:
            raise StaleArtifactError(
                f"{kind} state of {name!r} is stale: its fingerprint no "
                f"longer matches the persisted state "
                f"(expected {recomputed}, found {meta['fingerprint']}); "
                f"refit and re-save",
                expected=recomputed,
                found=meta["fingerprint"],
            )
        if expected_fingerprint is not None and expected_fingerprint != recomputed:
            raise StaleArtifactError(
                f"{kind} state of {name!r} does not match the requested "
                f"model (expected {expected_fingerprint}, found {recomputed})",
                expected=expected_fingerprint,
                found=recomputed,
            )
        return model

    # -- generic overlay API -------------------------------------------------
    def save_overlay(self, name, kind, model):
        """Persist a fitted model as a ``kind`` overlay on artifact ``name``.

        One entry point for every kind of :data:`OVERLAY_KINDS`: arrays
        of the model's :meth:`get_state` go into ``<kind>.npz``; scalar
        state, the model fingerprint and the npz checksum go into a
        ``<kind>.json`` sidecar (written last, like the manifest).  The
        artifact itself must already exist — model state is an overlay
        on a trained pipeline, never a standalone artifact.
        """
        _overlay_rebuild(kind)
        if not self.exists(name):
            raise ArtifactError(
                f"no artifact {name!r} to attach {kind} state to; save the pipeline first"
            )
        npz_name, meta_name = f"{kind}.npz", f"{kind}.json"
        state = model.get_state()
        arrays = {k: v for k, v in state.items() if isinstance(v, np.ndarray)}
        scalars = {k: v for k, v in state.items() if not isinstance(v, np.ndarray)}
        target = self.artifact_dir(name)
        np.savez(target / npz_name, **arrays)
        meta = {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "created_at": time.time(),
            "state": scalars,
            "array_keys": sorted(arrays),
            "fingerprint": model.fingerprint(),
            "checksum": _file_sha256(target / npz_name),
        }
        (target / meta_name).write_text(json.dumps(meta, indent=2) + "\n")
        return target / meta_name

    def has_overlay(self, name, kind):
        """Whether artifact ``name`` carries a persisted ``kind`` overlay."""
        _overlay_rebuild(kind)
        return (self.artifact_dir(name) / f"{kind}.json").is_file()

    def load_overlay(self, name, kind, expected_fingerprint=None, vae=None, encoder=None):
        """Rebuild the fitted ``kind`` model stored with artifact ``name``.

        ``vae`` re-attaches the CF-VAE a ``latent`` density estimator
        scores through; ``encoder`` the fitted encoder a causal model
        reads its feature layout from (rebuilt from the artifact's own
        manifest when omitted).  Kinds ignore the context arguments they
        do not need.  Error contract matches :meth:`load`:
        :class:`StaleArtifactError` (carrying ``expected``/``found``) on
        version or fingerprint drift, :class:`ArtifactError` on
        missing/corrupt files.
        """
        rebuild = _overlay_rebuild(kind)
        state, meta = self._load_overlay(name, kind)
        model = rebuild(self, name, state, vae=vae, encoder=encoder)
        return self._check_overlay_fingerprint(name, model, meta, kind, expected_fingerprint)

    # -- train-or-load ------------------------------------------------------
    def ensure(
        self,
        dataset,
        scale="fast",
        seed=0,
        constraint_kind="unary",
        config=None,
        name=None,
        bundle=None,
        verbose=False,
    ):
        """Warm-start from a fresh artifact or train-and-save a new one.

        Returns ``(pipeline, was_cached)``.  A stale or missing artifact
        is replaced by retraining; a fresh one short-circuits training
        entirely.
        """
        scale = get_scale(scale)
        if config is None:
            config = paper_config(dataset, constraint_kind)
        fingerprint = pipeline_fingerprint(
            dataset,
            scale.instances_for(dataset),
            seed,
            constraint_kind,
            config,
            dataset_schema(dataset),
            scale.blackbox_epochs,
        )
        name = name or self.default_name(dataset, constraint_kind, seed)
        if self.fresh(name, fingerprint):
            return self.load(name, expected_fingerprint=fingerprint), True
        pipeline = train_pipeline(
            dataset,
            scale=scale,
            seed=seed,
            constraint_kind=constraint_kind,
            config=config,
            bundle=bundle,
            verbose=verbose,
        )
        self.save(pipeline, name=name)
        return pipeline, False


def _config_payload(config):
    """JSON-ready dict of a CFTrainingConfig."""
    payload = asdict(config)
    return {
        key: (float(value) if isinstance(value, float) else value)
        for key, value in payload.items()
    }
