"""Tests for CFTrainingConfig and the Table III settings."""

import numpy as np
import pytest

from repro.core import CFTrainingConfig, TABLE3_SETTINGS, fast_config, paper_config


class TestConfigValidation:
    def test_defaults_valid(self):
        config = CFTrainingConfig()
        assert config.batch_size == 2048  # Table III batch size

    def test_rejects_bad_lr(self):
        with pytest.raises(ValueError):
            CFTrainingConfig(learning_rate=0.0)

    def test_rejects_bad_batch(self):
        with pytest.raises(ValueError):
            CFTrainingConfig(batch_size=0)

    def test_rejects_bad_epochs(self):
        with pytest.raises(ValueError):
            CFTrainingConfig(epochs=-1)

    def test_rejects_negative_warmstart_epochs(self):
        with pytest.raises(ValueError, match="warmstart_epochs"):
            CFTrainingConfig(warmstart_epochs=-1)
        assert CFTrainingConfig(warmstart_epochs=0).warmstart_epochs == 0

    def test_rejects_non_int_loop_sizes(self):
        for field, value in (("batch_size", 40.5), ("epochs", 2.0),
                             ("warmstart_epochs", True)):
            with pytest.raises(ValueError, match=f"{field} must be an int"):
                CFTrainingConfig(**{field: value})
        assert CFTrainingConfig(batch_size=np.int64(64)).batch_size == 64

    def test_rejects_bad_optimizer(self):
        with pytest.raises(ValueError):
            CFTrainingConfig(optimizer="rmsprop")

    def test_scaled_for_small_data(self):
        config = CFTrainingConfig(batch_size=2048)
        scaled = config.scaled_for(100)
        assert scaled.batch_size == 16  # floor keeps batches viable
        assert scaled.epochs == config.epochs

    def test_scaled_keeps_step_count_medium_data(self):
        config = CFTrainingConfig(batch_size=2048)
        scaled = config.scaled_for(4000)
        assert scaled.batch_size == 500  # ~8 batches per epoch

    def test_scaled_noop_for_big_data(self):
        config = CFTrainingConfig(batch_size=2048)
        assert config.scaled_for(20_000) is config

    def test_rejects_bad_proximity_metric(self):
        with pytest.raises(ValueError):
            CFTrainingConfig(proximity_metric="cosine")

    def test_frozen(self):
        with pytest.raises(Exception):
            CFTrainingConfig().epochs = 3


class TestTable3:
    def test_all_six_rows_present(self):
        datasets = {"adult", "kdd_census", "law_school"}
        kinds = {"unary", "binary"}
        assert set(TABLE3_SETTINGS) == {(d, k) for d in datasets for k in kinds}

    def test_paper_values(self):
        from repro.core import PAPER_TABLE3
        assert PAPER_TABLE3[("adult", "unary")]["learning_rate"] == 0.2
        assert PAPER_TABLE3[("kdd_census", "unary")]["learning_rate"] == 0.1
        assert paper_config("adult", "unary").epochs == 25
        assert paper_config("adult", "binary").epochs == 50
        assert paper_config("kdd_census", "binary").epochs == 25
        assert paper_config("law_school", "binary").epochs == 50

    def test_all_use_batch_2048(self):
        assert all(c.batch_size == 2048 for c in TABLE3_SETTINGS.values())

    def test_unknown_key(self):
        with pytest.raises(KeyError):
            paper_config("adult", "ternary")

    def test_fast_config(self):
        config = fast_config(epochs=3, batch_size=64)
        assert config.epochs == 3
        assert config.batch_size == 64
