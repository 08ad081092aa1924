"""Schema-mismatch validation across explainers and the serving layer.

A request whose rows do not match the trained encoding must fail with a
clear :class:`SchemaMismatchError` naming the expected column count —
never with a numpy broadcasting error from deep inside a matmul.
"""

import numpy as np
import pytest

from repro.baselines import DiceRandomExplainer
from repro.serve import ExplanationService
from repro.utils.validation import SchemaMismatchError


@pytest.fixture(scope="module")
def wrong_width_rows():
    return np.zeros((3, 5))


class TestFeasibleCFExplainer:
    def test_explain_rejects_wrong_width(self, tiny_pipeline, wrong_width_rows):
        with pytest.raises(SchemaMismatchError, match="expects"):
            tiny_pipeline.explainer.explain(wrong_width_rows)

    def test_fit_rejects_wrong_width(self, tiny_pipeline, wrong_width_rows):
        from repro.core import FeasibleCFExplainer

        explainer = FeasibleCFExplainer(tiny_pipeline.encoder)
        with pytest.raises(SchemaMismatchError, match="adult"):
            explainer.fit(wrong_width_rows, np.array([0, 1, 0]))

    def test_message_names_both_widths(self, tiny_pipeline, wrong_width_rows):
        expected = tiny_pipeline.encoder.n_encoded
        with pytest.raises(SchemaMismatchError) as excinfo:
            tiny_pipeline.explainer.explain(wrong_width_rows)
        assert "5 columns" in str(excinfo.value)
        assert f"{expected} encoded columns" in str(excinfo.value)


class TestBaselineExplainers:
    def test_generate_rejects_wrong_width(self, tiny_pipeline, wrong_width_rows):
        bundle = tiny_pipeline.bundle
        baseline = DiceRandomExplainer(bundle.encoder, tiny_pipeline.blackbox, seed=0)
        baseline.fit(*bundle.split("train"))
        with pytest.raises(SchemaMismatchError, match="expects"):
            baseline.generate(wrong_width_rows)

    def test_fit_rejects_wrong_width(self, tiny_pipeline, wrong_width_rows):
        baseline = DiceRandomExplainer(
            tiny_pipeline.encoder, tiny_pipeline.blackbox, seed=0
        )
        with pytest.raises(SchemaMismatchError, match="expects"):
            baseline.fit(wrong_width_rows)


class TestService:
    def test_explain_batch_rejects_wrong_width(self, tiny_pipeline, wrong_width_rows):
        service = ExplanationService(tiny_pipeline)
        with pytest.raises(SchemaMismatchError, match="adult"):
            service.explain_batch(wrong_width_rows)

    def test_valid_width_passes(self, tiny_pipeline, explain_rows):
        service = ExplanationService(tiny_pipeline)
        result = service.explain_batch(explain_rows[:2])
        assert len(result) == 2
