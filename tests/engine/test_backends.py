"""Backend registry, per-scenario assignment and run_scenario dispatch."""

import pytest

from repro.engine import (
    DEFAULT_BACKEND,
    EngineRunner,
    NumpyBackend,
    PlanBackend,
    TiledFloat32Backend,
    assign_backend,
    backend_for,
    backend_names,
    get_backend,
    register_backend,
    run_scenario,
)
from repro.engine import backends as backends_module
from repro.experiments.runconfig import ExperimentScale
from tests.helpers.parity import staged_runner

SCALE = ExperimentScale("tiny", 900, 12, 4)


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = backend_names()
        assert "numpy" in names
        assert "float32" in names
        assert DEFAULT_BACKEND == "numpy"

    def test_get_resolves_names_and_passes_instances(self):
        assert isinstance(get_backend("numpy"), NumpyBackend)
        assert isinstance(get_backend("float32"), TiledFloat32Backend)
        instance = TiledFloat32Backend(tile_rows=5)
        assert get_backend(instance) is instance

    def test_get_produces_fresh_instances(self):
        # factories are called per resolution: backends may hold
        # per-plan state, so plans must never share one
        assert get_backend("numpy") is not get_backend("numpy")

    def test_unknown_backend_lists_known(self):
        with pytest.raises(KeyError, match="unknown backend"):
            get_backend("tpu")

    def test_register_rejects_duplicates(self):
        with pytest.raises(ValueError, match="already registered"):
            register_backend("numpy", NumpyBackend)

    def test_register_custom_and_overwrite(self):
        class _Probe(PlanBackend):
            name = "probe"

        try:
            register_backend("probe", _Probe)
            assert isinstance(get_backend("probe"), _Probe)
            register_backend("probe", _Probe, overwrite=True)
        finally:
            backends_module._BACKENDS.pop("probe", None)

    def test_describe_feeds_the_plan_fingerprint(self):
        assert get_backend("numpy").describe() == {
            "backend": "numpy", "parity": "bitwise"}
        info = TiledFloat32Backend(tile_rows=9).describe()
        assert info["backend"] == "float32"
        assert info["parity"] == "hard"
        assert info["tile_rows"] == 9


class TestScenarioAssignment:
    def test_default_is_numpy(self):
        assert backend_for("adult/cem") == DEFAULT_BACKEND

    def test_assign_and_clear(self):
        try:
            assign_backend("adult/cem", "float32")
            assert backend_for("adult/cem") == "float32"
        finally:
            assign_backend("adult/cem", None)
        assert backend_for("adult/cem") == DEFAULT_BACKEND

    def test_assign_validates_eagerly(self):
        with pytest.raises(KeyError, match="unknown backend"):
            assign_backend("adult/cem", "tpu")
        assert backend_for("adult/cem") == DEFAULT_BACKEND


class TestRunScenarioDispatch:
    @pytest.fixture(scope="class")
    def context(self):
        from repro.experiments.harness import prepare_context

        return prepare_context("adult", scale=SCALE, seed=0)

    def test_plan_engine_reproduces_staged_report(self, context):
        # a runner whose run is the staged reference scores the same row
        reference = staged_runner(EngineRunner(context.bundle.encoder, context.blackbox))
        staged = run_scenario("adult/cem", context=context, runner=reference)
        compiled = run_scenario("adult/cem", context=context)
        assert compiled.report == staged.report

    def test_assigned_backend_switches_the_default_engine(self, context):
        # an assignment flips engine=None resolution to the plan path;
        # the report must still match the staged grid entry
        staged = run_scenario("adult/face", context=context)
        try:
            assign_backend("adult/face", "float32")
            assigned = run_scenario("adult/face", context=context)
        finally:
            assign_backend("adult/face", None)
        assert assigned.report.method == staged.report.method
        assert assigned.report.validity == staged.report.validity

    def test_rejects_unknown_engine(self, context):
        # the staged/plan knob is gone: every scenario replays a plan
        with pytest.raises(TypeError, match="engine"):
            run_scenario("adult/cem", context=context, engine="plan")
