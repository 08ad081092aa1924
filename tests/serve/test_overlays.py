"""Generic overlay surface: one save/load/has surface for every kind.

The per-kind store triples (``save_density`` / ``save_causal`` /
``save_ensemble`` and their load/has siblings) collapsed into
``save_overlay(name, kind, model)`` dispatching through the fixed
``OVERLAY_KINDS`` rebuild table.  These tests cover the generic surface
and the table.
"""

import pytest

from repro.serve import ArtifactStore
from repro.serve.store import OVERLAY_KINDS


@pytest.fixture(scope="module")
def saved(tiny_pipeline, tmp_path_factory):
    """A stored artifact plus one fitted model per overlay kind."""
    from repro.causal import fit_causal
    from repro.density import KnnDensity
    from repro.models import train_ensemble

    store = ArtifactStore(tmp_path_factory.mktemp("overlays"))
    store.save(tiny_pipeline, name="t")
    x_train, y_train = tiny_pipeline.bundle.split("train")
    desired_class = int(tiny_pipeline.bundle.schema.desired_class)
    models = {
        "density": KnnDensity(k_neighbors=5).fit(
            x_train[y_train == desired_class][:120]),
        "causal": fit_causal("scm", tiny_pipeline.encoder, x_train),
        "ensemble": train_ensemble(
            x_train, y_train, n_members=2, epochs=1,
            include=tiny_pipeline.blackbox),
    }
    return store, models


class TestGenericSurface:
    def test_registry_lists_the_three_builtin_kinds(self):
        assert tuple(OVERLAY_KINDS) == ("density", "causal", "ensemble")

    @pytest.mark.parametrize("kind", ("density", "causal", "ensemble"))
    def test_roundtrip_every_kind(self, saved, tiny_pipeline, kind):
        store, models = saved
        assert not store.has_overlay("t", kind)
        store.save_overlay("t", kind, models[kind])
        assert store.has_overlay("t", kind)
        # the file names derive from the kind
        target = store.artifact_dir("t")
        assert (target / f"{kind}.npz").is_file()
        assert (target / f"{kind}.json").is_file()
        loaded = store.load_overlay(
            "t", kind, encoder=tiny_pipeline.encoder)
        assert loaded.fingerprint() == models[kind].fingerprint()

    def test_unknown_kind_lists_known(self, saved):
        store, models = saved
        with pytest.raises(KeyError, match="unknown overlay kind"):
            store.save_overlay("t", "hologram", models["density"])
        with pytest.raises(KeyError, match="unknown overlay kind"):
            store.has_overlay("t", "hologram")
        with pytest.raises(KeyError, match="unknown overlay kind"):
            store.load_overlay("t", "hologram")
