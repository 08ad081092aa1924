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
from dataclasses import asdict, dataclass

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
    "MMAP_THRESHOLD",
    "ArtifactError",
    "ArtifactStore",
    "OverlayKind",
    "StaleArtifactError",
    "overlay_kinds",
    "register_overlay_kind",
]

#: Bump when the artifact layout or manifest schema changes; loading an
#: artifact written under any other version raises StaleArtifactError.
ARTIFACT_FORMAT_VERSION = 1

#: Overlay state arrays at or above this many bytes are written as
#: standalone ``<kind>.<key>.npy`` sidecar files instead of entries in
#: the ``<kind>.npz`` bundle, so loads can hand them back as
#: ``np.load(..., mmap_mode="r")`` memory maps — a 1M-row reference
#: population never gets a second resident copy.  The zip-framed npz
#: container cannot be memory-mapped, which is why the format splits.
MMAP_THRESHOLD = 1 << 20

_MANIFEST = "manifest.json"
_BLACKBOX = "blackbox.npz"
_CFVAE = "cfvae.npz"
_DENSITY = "density.npz"
_DENSITY_META = "density.json"
_CAUSAL = "causal.npz"
_CAUSAL_META = "causal.json"
_ENSEMBLE = "ensemble.npz"
_ENSEMBLE_META = "ensemble.json"


@dataclass(frozen=True)
class OverlayKind:
    """One registered overlay family: its files and its rebuild recipe.

    ``rebuild(store, name, state, vae=, encoder=)`` turns the loaded flat
    state dict back into a fitted model; kinds ignore the context
    keyword arguments they do not need (``vae`` re-attaches a CF-VAE to
    latent density estimators, ``encoder`` a fitted encoder to causal
    models).
    """

    name: str
    npz_name: str
    meta_name: str
    rebuild: callable


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


#: kind name -> OverlayKind; the store's generic save/load/has dispatch.
_OVERLAY_KINDS = {}


def register_overlay_kind(kind, overwrite=False):
    """Register an :class:`OverlayKind` under its name.

    Every model family the store can attach to an artifact (density,
    causal, ensemble, ...) registers once; the generic
    :meth:`ArtifactStore.save_overlay` / :meth:`ArtifactStore.load_overlay`
    surface then covers it with no per-kind store methods.
    """
    if kind.name in _OVERLAY_KINDS and not overwrite:
        raise ValueError(
            f"overlay kind {kind.name!r} is already registered (overwrite=True replaces)")
    _OVERLAY_KINDS[kind.name] = kind
    return kind


def overlay_kinds():
    """Sorted names of every registered overlay kind."""
    return tuple(sorted(_OVERLAY_KINDS))


def _overlay_kind(kind):
    if kind not in _OVERLAY_KINDS:
        known = ", ".join(overlay_kinds())
        raise KeyError(f"unknown overlay kind {kind!r}; registered: {known}")
    return _OVERLAY_KINDS[kind]


register_overlay_kind(OverlayKind("density", _DENSITY, _DENSITY_META, _rebuild_density))
register_overlay_kind(OverlayKind("causal", _CAUSAL, _CAUSAL_META, _rebuild_causal))
register_overlay_kind(OverlayKind("ensemble", _ENSEMBLE, _ENSEMBLE_META, _rebuild_ensemble))


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

    def __init__(self, root, mmap_threshold=MMAP_THRESHOLD):
        self.root = pathlib.Path(root)
        self.mmap_threshold = int(mmap_threshold)

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
        missing artifact rather than a corrupt one.
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

    # -- model-state overlays (density, causal) -----------------------------
    def _save_overlay(self, name, model, label, npz_name, meta_name):
        """Persist a fitted model's flat state next to artifact ``name``.

        Small arrays of the state go into ``<label>.npz``; arrays at or
        above the store's ``mmap_threshold`` bytes are written as
        standalone ``<label>.<key>.npy`` sidecars (loadable with
        ``mmap_mode="r"``).  Scalar state, the model fingerprint and the
        per-file checksums go into a ``<label>.json`` sidecar (written
        last, like the manifest).  The artifact itself must already
        exist — model state is an overlay on a trained pipeline, never a
        standalone artifact.
        """
        if not self.exists(name):
            raise ArtifactError(
                f"no artifact {name!r} to attach {label} state to; save the pipeline first"
            )
        state = model.get_state()
        arrays = {k: v for k, v in state.items() if isinstance(v, np.ndarray)}
        scalars = {k: v for k, v in state.items() if not isinstance(v, np.ndarray)}
        target = self.artifact_dir(name)
        for stale in target.glob(f"{label}.*.npy"):
            stale.unlink()
        large = {k: v for k, v in arrays.items() if v.nbytes >= self.mmap_threshold}
        small = {k: v for k, v in arrays.items() if k not in large}
        np.savez(target / npz_name, **small)
        mmap_arrays = {}
        for key in sorted(large):
            filename = f"{label}.{key}.npy"
            np.save(target / filename, np.ascontiguousarray(large[key]))
            mmap_arrays[key] = {
                "file": filename,
                "checksum": _file_sha256(target / filename),
            }
        meta = {
            "format_version": ARTIFACT_FORMAT_VERSION,
            "created_at": time.time(),
            "state": scalars,
            "array_keys": sorted(small),
            "mmap_arrays": mmap_arrays,
            "fingerprint": model.fingerprint(),
            "checksum": _file_sha256(target / npz_name),
        }
        (target / meta_name).write_text(json.dumps(meta, indent=2) + "\n")
        return target / meta_name

    def _load_overlay(self, name, label, npz_name, meta_name):
        """Read an overlay's ``(state, meta)``; shared staleness checks."""
        target = self.artifact_dir(name)
        meta_path = target / meta_name
        if not meta_path.is_file():
            raise ArtifactError(
                f"artifact {name!r} has no {label} state (missing {meta_name})"
            )
        try:
            meta = json.loads(meta_path.read_text())
        except json.JSONDecodeError as error:
            raise ArtifactError(f"{label} sidecar of {name!r} is corrupted: {error}") from error

        version = meta.get("format_version")
        if version != ARTIFACT_FORMAT_VERSION:
            raise StaleArtifactError(
                f"{label} state of {name!r} has format_version={version}, this "
                f"code reads version {ARTIFACT_FORMAT_VERSION} "
                f"(expected {ARTIFACT_FORMAT_VERSION}, found {version}); "
                f"refit and re-save",
                expected=ARTIFACT_FORMAT_VERSION,
                found=version,
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
        # large arrays live in standalone .npy sidecars so they come
        # back as read-only memory maps — checksummed in streaming
        # chunks, never copied into resident memory (pre-split overlays
        # have no mmap_arrays entry and take only the npz path above)
        for key, entry in meta.get("mmap_arrays", {}).items():
            mmap_path = target / entry["file"]
            if not mmap_path.is_file():
                raise ArtifactError(f"artifact {name!r} is missing {entry['file']}")
            actual = _file_sha256(mmap_path)
            if actual != entry["checksum"]:
                raise ArtifactError(
                    f"artifact {name!r}: {entry['file']} fails its checksum "
                    f"(expected {entry['checksum'][:12]}..., got {actual[:12]}...); "
                    f"the file is corrupted or was edited after save"
                )
            state[key] = np.load(mmap_path, mmap_mode="r")
        return state, meta

    def _check_overlay_fingerprint(self, name, model, meta, label, expected_fingerprint):
        """Reject a rebuilt overlay model whose fingerprint drifted."""
        recomputed = model.fingerprint()
        if recomputed != meta["fingerprint"]:
            raise StaleArtifactError(
                f"{label} state of {name!r} is stale: its fingerprint no "
                f"longer matches the persisted state "
                f"(expected {recomputed}, found {meta['fingerprint']}); "
                f"refit and re-save",
                expected=recomputed,
                found=meta["fingerprint"],
            )
        if expected_fingerprint is not None and expected_fingerprint != recomputed:
            raise StaleArtifactError(
                f"{label} state of {name!r} does not match the requested "
                f"model (expected {expected_fingerprint}, found {recomputed})",
                expected=expected_fingerprint,
                found=recomputed,
            )
        return model

    # -- generic overlay API -------------------------------------------------
    def save_overlay(self, name, kind, model):
        """Persist a fitted model as a ``kind`` overlay on artifact ``name``.

        One entry point for every registered :class:`OverlayKind`
        (:func:`overlay_kinds` lists them): arrays of the model's
        :meth:`get_state` go into ``<kind>.npz``; scalar state, the model
        fingerprint and the npz checksum go into a ``<kind>.json``
        sidecar (written last, like the manifest).
        """
        spec = _overlay_kind(kind)
        return self._save_overlay(name, model, spec.name, spec.npz_name, spec.meta_name)

    def has_overlay(self, name, kind):
        """Whether artifact ``name`` carries a persisted ``kind`` overlay."""
        spec = _overlay_kind(kind)
        return (self.artifact_dir(name) / spec.meta_name).is_file()

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
        spec = _overlay_kind(kind)
        state, meta = self._load_overlay(name, spec.name, spec.npz_name, spec.meta_name)
        model = spec.rebuild(self, name, state, vae=vae, encoder=encoder)
        return self._check_overlay_fingerprint(
            name, model, meta, spec.name, expected_fingerprint)

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
