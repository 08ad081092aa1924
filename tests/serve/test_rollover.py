"""Graceful artifact rollover: ``warm_start(on_stale="migrate")`` and the
batched cache-survivor migration across a model retrain."""

import json

import numpy as np
import pytest

from repro.serve import (
    ArtifactStore,
    ExplanationService,
    StaleArtifactError,
    train_pipeline,
)


@pytest.fixture(scope="module")
def rollover(tmp_path_factory, tiny_pipeline, tiny_settings, explain_rows):
    """A store whose artifact rolled from pipeline v1 to pipeline v2.

    Returns ``(store, v1_pipeline, v1_service, v1_fingerprint)`` with the
    v1 service's cache filled — and the store now holding the retrained
    v2 artifact under the same name.
    """
    scale, config = tiny_settings
    store = ArtifactStore(tmp_path_factory.mktemp("rollover") / "store")
    store.save(tiny_pipeline, name="tiny")
    v1_fingerprint = tiny_pipeline.fingerprint

    v1_service = ExplanationService.warm_start(
        store, "tiny", expected_fingerprint=v1_fingerprint)
    v1_service.explain_batch(explain_rows)
    assert len(v1_service.cache) == len(explain_rows)

    # the rollover: same artifact name, retrained pipeline (new seed)
    v2_pipeline = train_pipeline(
        "adult", scale=scale, seed=1, constraint_kind="unary", config=config)
    assert v2_pipeline.fingerprint != v1_fingerprint
    store.save(v2_pipeline, name="tiny")
    return store, tiny_pipeline, v1_service, v1_fingerprint


class TestStrictDefault:
    def test_stale_fingerprint_raises_by_default(self, rollover):
        store, _, _, v1_fingerprint = rollover
        with pytest.raises(StaleArtifactError) as info:
            ExplanationService.warm_start(
                store, "tiny", expected_fingerprint=v1_fingerprint)
        assert info.value.expected == v1_fingerprint

    def test_on_stale_validation(self, rollover):
        store, _, _, _ = rollover
        with pytest.raises(ValueError, match="on_stale"):
            ExplanationService.warm_start(store, "tiny", on_stale="shrug")


class TestMigrateOnStale:
    def test_round_trip_survives_the_fingerprint_change(self, rollover,
                                                        explain_rows):
        store, _, v1_service, v1_fingerprint = rollover
        service = ExplanationService.warm_start(
            store, "tiny", expected_fingerprint=v1_fingerprint,
            on_stale="migrate", migrate_from=v1_service)
        # the service answers with the artifact the store holds NOW
        assert service.fingerprint != v1_service.fingerprint
        result = service.explain_batch(explain_rows)
        assert len(result) == len(explain_rows)

    def test_migration_counters_partition_the_old_cache(self, rollover):
        store, _, v1_service, v1_fingerprint = rollover
        service = ExplanationService.warm_start(
            store, "tiny", expected_fingerprint=v1_fingerprint,
            on_stale="migrate", migrate_from=v1_service)
        counters = service.last_migration
        assert counters["examined"] == len(v1_service.cache)
        assert counters["survivors"] + counters["dropped"] == counters["examined"]
        assert len(service.cache) == counters["survivors"]

    def test_survivors_still_flip_the_new_model(self, rollover):
        store, _, v1_service, v1_fingerprint = rollover
        service = ExplanationService.warm_start(
            store, "tiny", expected_fingerprint=v1_fingerprint,
            on_stale="migrate", migrate_from=v1_service)
        # every re-inserted entry's counterfactual reaches its desired
        # class under the NEW model — that is the migration invariant
        for (_, desired, _), (x_cf, predicted, _) in service.cache.items():
            assert predicted == desired
            assert service.explainer.blackbox.predict(
                x_cf.reshape(1, -1))[0] == desired

    def test_migrate_without_expected_fingerprint_still_raises(self, rollover):
        # nothing to forgive: without a requested pipeline the staleness
        # is internal and must propagate even under on_stale="migrate"
        store, _, _, _ = rollover
        manifest_path = store.artifact_dir("tiny") / "manifest.json"
        original = manifest_path.read_text()
        manifest = json.loads(original)
        manifest["fingerprint"] = "gandalf"
        manifest_path.write_text(json.dumps(manifest))
        try:
            with pytest.raises(StaleArtifactError):
                ExplanationService.warm_start(store, "tiny", on_stale="migrate")
        finally:
            manifest_path.write_text(original)

    def test_internal_corruption_is_not_forgiven(self, rollover):
        # the artifact itself is inconsistent: migration must not mask it
        store, _, v1_service, v1_fingerprint = rollover
        manifest_path = store.artifact_dir("tiny") / "manifest.json"
        original = manifest_path.read_text()
        manifest = json.loads(original)
        manifest["fingerprint"] = "gandalf"
        manifest_path.write_text(json.dumps(manifest))
        try:
            with pytest.raises(StaleArtifactError):
                ExplanationService.warm_start(
                    store, "tiny", expected_fingerprint=v1_fingerprint,
                    on_stale="migrate", migrate_from=v1_service)
        finally:
            manifest_path.write_text(original)


class TestMigrateCacheDirect:
    def test_restart_carry_over_on_matching_pipeline(self, rollover,
                                                     explain_rows):
        # migrate_from composes with a successful strict load: carry a
        # previous process's cache across a restart with no rollover
        store, v1_pipeline, v1_service, _ = rollover
        fresh = ExplanationService(v1_pipeline)
        fresh.migrate_cache(v1_service)
        counters = fresh.last_migration
        assert counters["examined"] == len(v1_service.cache)
        # same model: exactly the VALID cached explanations survive
        # (migration re-attempts cached failures instead of carrying them)
        n_valid = sum(entry[1] == key[1]
                      for key, entry in v1_service.cache.items())
        assert counters["survivors"] == n_valid
        hits_before = fresh.cache.hits
        fresh.explain_batch(explain_rows)
        assert fresh.cache.hits == hits_before + counters["survivors"]

    def test_foreign_width_rows_are_skipped(self, rollover):
        store, v1_pipeline, v1_service, _ = rollover
        donor = ExplanationService(v1_pipeline)
        bad_row = np.zeros(3, dtype=np.float64)
        donor.cache.put(
            (bad_row.tobytes(), 1, donor.cache_fingerprint),
            (bad_row, 1, True))
        fresh = ExplanationService(v1_pipeline)
        counters = fresh.migrate_cache(donor)
        assert counters == {"examined": 0, "survivors": 0, "dropped": 0}

    def test_entries_under_stale_keys_are_ignored(self, rollover,
                                                  explain_rows):
        store, v1_pipeline, v1_service, _ = rollover
        donor = ExplanationService(v1_pipeline)
        donor.explain_batch(explain_rows[:4])
        # a leftover entry keyed under some older fingerprint must not
        # be re-validated as if it were current
        row = np.asarray(explain_rows[0], dtype=np.float64)
        donor.cache.put((row.tobytes(), 1, "stale-fingerprint"), (row, 1, True))
        fresh = ExplanationService(v1_pipeline)
        counters = fresh.migrate_cache(donor)
        assert counters["examined"] == 4

    def test_empty_cache_migrates_to_zero_counters(self, rollover):
        store, v1_pipeline, _, _ = rollover
        fresh = ExplanationService(v1_pipeline)
        counters = fresh.migrate_cache(ExplanationService(v1_pipeline))
        assert counters == {"examined": 0, "survivors": 0, "dropped": 0}
        assert fresh.last_migration == counters


class TestEnsembleRollover:
    def test_ensemble_overlay_survives_migration_path(self, rollover,
                                                      explain_rows):
        from repro.models import train_ensemble

        store, v1_pipeline, v1_service, v1_fingerprint = rollover
        v2 = store.load("tiny")  # warm-started artifacts carry no bundle
        x_train, y_train = v1_pipeline.bundle.split("train")
        ensemble = train_ensemble(
            x_train, y_train, n_members=2, seed=1, epochs=2,
            include=v2.blackbox)
        store.save_overlay("tiny", "ensemble", ensemble)
        service = ExplanationService.warm_start(
            store, "tiny", expected_fingerprint=v1_fingerprint,
            on_stale="migrate", migrate_from=v1_service, overlays={"ensemble": "store"})
        assert service.ensemble.fingerprint() == ensemble.fingerprint()
        # the migrated survivors were keyed under the ensemble-extended
        # composite fingerprint, so robust serving replays them
        assert len(service.cache) == service.last_migration["survivors"]
        result = service.explain_batch(explain_rows)
        assert len(result) == len(explain_rows)
