"""Parity: batched ``repair_batch`` vs the per-row ``repair_loop``.

The acceptance bar of the causal layer: on every registry dataset, for
both models, across noise scales and sweep widths, the one-pass batched
repair must be *bit-identical* to the per-row loop reference.  Built on
the shared ``tests.helpers.parity`` harness.
"""

from functools import partial

import numpy as np
import pytest

from repro.causal import MinedCausalModel, ScmCausalModel
from tests.helpers.loops import repair_loop
from tests.helpers.parity import (
    assert_batched_matches_loop,
    assert_bit_identical,
    candidate_sweep,
    registry_bundle_fixture,
)

bundle = registry_bundle_fixture(n_instances=900, seed=1)

#: Explicit relations per dataset so the mined model is deterministic
#: here (mining itself is covered in test_causal_models.py).
MINED_RELATIONS = {
    "adult": [("education", "age", 0.02), ("occupation", "hours_per_week", 0.05)],
    "kdd_census": [("education", "age", 0.02), ("education", "wage_per_hour", 0.04)],
    "law_school": [("tier", "lsat", 0.05), ("zfygpa", "zgpa", 0.08)],
}


def models_for(bundle):
    scm = ScmCausalModel(bundle.encoder)
    mined = MinedCausalModel(
        bundle.encoder, relations=MINED_RELATIONS[bundle.name])
    return {"scm": scm, "mined": mined}


class TestRepairParity:
    @pytest.mark.parametrize("kind", ["scm", "mined"])
    def test_across_noise_scales(self, bundle, kind):
        model = models_for(bundle)[kind]
        x = bundle.encoded[:40]
        for trial, scale in enumerate((0.0, 1e-7, 1e-3, 0.05, 0.3)):
            rng = np.random.default_rng(100 + trial)
            sweep = candidate_sweep(x, rng, scale, m=4)
            assert_batched_matches_loop(
                model.repair_batch, partial(repair_loop, model), x, sweep,
                context=f"{kind} repair at noise {scale}")

    @pytest.mark.parametrize("kind", ["scm", "mined"])
    def test_across_sweep_widths(self, bundle, kind):
        model = models_for(bundle)[kind]
        x = bundle.encoded[:16]
        for m in (1, 2, 5, 16):
            sweep = candidate_sweep(x, np.random.default_rng(m), 0.05, m=m)
            assert_batched_matches_loop(
                model.repair_batch, partial(repair_loop, model), x, sweep,
                context=f"{kind} repair at m={m}")

    @pytest.mark.parametrize("kind", ["scm", "mined"])
    def test_single_row(self, bundle, kind):
        model = models_for(bundle)[kind]
        x = bundle.encoded[:1]
        sweep = candidate_sweep(x, np.random.default_rng(11), 0.05, m=3)
        assert_batched_matches_loop(
            model.repair_batch, partial(repair_loop, model), x, sweep,
            context=f"{kind} repair on one row")

    @pytest.mark.parametrize("kind", ["scm", "mined"])
    def test_identity_candidates_pass_through_unchanged(self, bundle, kind):
        # x is real data, hence causally consistent: repairing an exact
        # copy of the input must return its exact bits (score 0)
        model = models_for(bundle)[kind]
        x = bundle.encoded[:30]
        sweep = np.repeat(x[:, None, :], 3, axis=1)
        repaired, _ = assert_batched_matches_loop(
            model.repair_batch, partial(repair_loop, model), x, sweep,
            context=f"{kind} identity repair")
        assert_bit_identical(repaired, sweep, context=f"{kind} identity output")
        np.testing.assert_array_equal(model.score(x, x), np.zeros(len(x)))

    @pytest.mark.parametrize("kind", ["scm", "mined"])
    def test_unvalidated_path_matches_validated(self, bundle, kind):
        # the engine runner's validate=False fast path must produce the
        # exact bits of the public validated entry
        model = models_for(bundle)[kind]
        x = bundle.encoded[:20]
        sweep = candidate_sweep(x, np.random.default_rng(9), 0.1, m=4)
        assert_bit_identical(
            model.repair_batch(x, sweep, validate=False),
            model.repair_batch(x, sweep),
            context=f"{kind} validate=False parity")

    def test_scm_repair_is_idempotent(self, bundle):
        # a repaired sweep is already causally consistent: repairing it
        # again must be the identity (the SCM equations are acyclic)
        model = ScmCausalModel(bundle.encoder)
        x = bundle.encoded[:25]
        sweep = candidate_sweep(x, np.random.default_rng(3), 0.1, m=4)
        repaired = model.repair_batch(x, sweep)
        assert_bit_identical(
            model.repair_batch(x, repaired), repaired,
            context="scm idempotence")


def historical_scm_repair(model, x, candidates):
    """``ScmCausalModel._repair_flat`` as first written, for flat ``(N, d)`` pairs.

    Per call it reads every feature with ``(high - low)``, abducts every
    residual, derives each tolerance and clip range and clips with
    ``np.clip``; the model now resolves those constants once and clips
    with ``ndarray.clip``.
    """
    codec = model._codec

    def read(a):
        values = {}
        for name in model._features:
            kind, column = codec.kinds[name], codec.columns[name]
            if kind == "categorical":
                values[name] = np.argmax(a[:, column], axis=1).astype(np.float64)
            elif kind == "continuous":
                low, high = codec.ranges[name]
                values[name] = a[:, column] * (high - low) + low
            else:
                values[name] = a[:, column]
        return values

    def bounds(name):
        return codec.ranges[name] if codec.kinds[name] == "continuous" else (0.0, 1.0)

    def tolerance(name):
        if codec.kinds[name] == "continuous":
            low, high = codec.ranges[name]
            return 1e-6 * (high - low)
        return 1e-6

    out = candidates.copy()
    v_x, v_cf = read(x), read(out)
    original = {eq.effect: v_cf[eq.effect] for eq in model.equations}
    residuals = {eq.label: v_x[eq.effect] - eq.predict({c: v_x[c] for c in eq.causes})
                 for eq in model.equations if eq.mode == "additive"}
    for eq in model.equations:
        effect = eq.effect
        if eq.mode == "monotone":
            new = np.maximum(v_cf[effect], v_x[effect])
        elif eq.mode == "floor":
            new = np.maximum(v_cf[effect], eq.predict({c: v_cf[c] for c in eq.causes}))
        else:
            moved = np.zeros(len(out), dtype=bool)
            for cause in eq.causes:
                moved |= np.abs(v_cf[cause] - v_x[cause]) > tolerance(cause)
            predicted = eq.predict({c: v_cf[c] for c in eq.causes})
            new = np.where(moved, predicted + residuals[eq.label], v_cf[effect])
        low, high = bounds(effect)
        v_cf[effect] = np.where(new != v_cf[effect], np.clip(new, low, high), v_cf[effect])
    for effect, before in original.items():
        changed = v_cf[effect] != before
        if changed.any():
            low, high = bounds(effect)
            encoded = (v_cf[effect] - low) / (high - low) \
                if codec.kinds[effect] == "continuous" else v_cf[effect]
            column = codec.columns[effect]
            out[:, column] = np.where(changed, encoded, out[:, column])
    return out


class TestScmRepairFormula:
    def test_repair_matches_the_historical_formula(self, bundle):
        model = ScmCausalModel(bundle.encoder)
        x = bundle.encoded[:60]
        for trial, scale in enumerate((0.0, 1e-7, 1e-3, 0.05, 0.3, 1.0)):
            m = 1 + trial % 4
            sweep = candidate_sweep(x, np.random.default_rng(200 + trial), scale, m=m)
            sweep[::7, 0, :] = 0.0  # the encoded box's corners drive clipping
            sweep[1::7, -1, :] = 1.0
            flat = historical_scm_repair(
                model, np.repeat(x, m, axis=0), sweep.reshape(len(x) * m, -1))
            assert_bit_identical(
                model.repair_batch(x, sweep), flat.reshape(sweep.shape),
                context=f"scm repair vs historical formula at noise {scale}")

    def test_floor_lookup_clips_ranks_like_np_clip(self, bundle):
        model = ScmCausalModel(bundle.encoder)
        ranks = np.arange(-3.0, 30.0)
        for eq in model.equations:
            if eq.mode != "floor":
                continue
            edge = np.clip(ranks, 0, len(bundle.encoder.schema.feature("education").categories) - 1)
            assert_bit_identical(
                eq.predict({"education": ranks}), eq.predict({"education": edge}),
                context=f"{eq.label} rank clip")
