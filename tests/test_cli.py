"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def table_lines(out, title):
    """The rendered table block that starts at ``title``."""
    lines = out.splitlines()
    for index, line in enumerate(lines):
        if line.startswith(title):
            block = []
            for row in lines[index:]:
                if not row.strip():
                    break
                block.append(row)
            return block
    raise AssertionError(f"no table titled {title!r} in output:\n{out}")


def table_cells(line):
    return [cell.strip() for cell in line.split("|")]


class TestParser:
    def test_commands_accepted(self):
        parser = build_parser()
        for command in ("table1", "table2", "table3", "table4", "table5",
                        "figure6", "discover", "serve-demo", "run-scenario",
                        "list-scenarios", "all"):
            args = parser.parse_args([command])
            assert args.command == command

    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.dataset == "adult"
        assert args.scale == "fast"
        assert args.seed == 0
        assert args.out is None

    def test_rejects_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table9"])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table4", "--dataset", "mnist"])


class TestExecution:
    def test_table1_prints(self, capsys):
        assert main(["table1", "--scale", "smoke"]) == 0
        assert "TABLE I" in capsys.readouterr().out

    def test_table2_prints(self, capsys):
        assert main(["table2"]) == 0
        assert "TABLE II" in capsys.readouterr().out

    def test_table3_prints(self, capsys):
        assert main(["table3"]) == 0
        assert "TABLE III" in capsys.readouterr().out

    def test_discover_writes_artifact(self, capsys, tmp_path):
        code = main(["discover", "--dataset", "law_school",
                     "--scale", "smoke", "--out", str(tmp_path)])
        assert code == 0
        assert "tier" in capsys.readouterr().out
        assert (tmp_path / "discovered_law_school.txt").exists()

    def test_out_directory_created(self, tmp_path):
        target = tmp_path / "nested" / "dir"
        main(["table1", "--scale", "smoke", "--out", str(target)])
        assert (target / "table1.txt").exists()

    def test_serve_demo_trains_then_warm_starts(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        out_dir = tmp_path / "out"
        code = main(["serve-demo", "--scale", "smoke", "--rows", "32",
                     "--artifact-dir", str(store_dir), "--out", str(out_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "SERVE DEMO" in out
        assert "cold train + save" in out
        assert (out_dir / "serve_demo_adult.txt").exists()
        assert (store_dir / "adult-unary-seed0" / "manifest.json").exists()

        code = main(["serve-demo", "--scale", "smoke", "--rows", "32",
                     "--artifact-dir", str(store_dir)])
        assert code == 0
        assert "cache hit" in capsys.readouterr().out

    def test_serve_demo_with_baseline_strategy(self, capsys, tmp_path):
        code = main(["serve-demo", "--scale", "smoke", "--rows", "16",
                     "--artifact-dir", str(tmp_path / "store"),
                     "--strategy", "dice_random"])
        assert code == 0
        out = capsys.readouterr().out
        assert "strategy dice_random" in out
        assert "fit strategy" in out

    def test_serve_demo_through_the_pool_and_async_front(self, capsys, tmp_path):
        code = main(["serve-demo", "--scale", "smoke", "--rows", "16",
                     "--artifact-dir", str(tmp_path / "store"),
                     "--workers", "2", "--async"])
        assert code == 0
        out = capsys.readouterr().out
        assert "async front (2 replicas)" in out
        assert "POOL STATS (2 replicas)" in out

    def test_list_scenarios(self, capsys, tmp_path):
        code = main(["list-scenarios", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "adult/face" in out
        assert "law_school/ours_binary" in out
        assert (tmp_path / "scenarios.txt").exists()

    def test_list_scenarios_filtered(self, capsys):
        assert main(["list-scenarios", "--strategy", "face"]) == 0
        out = capsys.readouterr().out
        assert "adult/face" in out
        assert "adult/cem" not in out

    def test_run_scenario_requires_name(self, capsys):
        assert main(["run-scenario"]) == 2
        assert "requires --scenario" in capsys.readouterr().out

    def test_run_scenario_smoke(self, capsys, tmp_path):
        code = main(["run-scenario", "--scenario", "adult/dice_random",
                     "--scale", "smoke", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "SCENARIO adult/dice_random" in out
        assert "validity" in out
        assert (tmp_path / "scenario_adult_dice_random.txt").exists()

    def test_run_scenario_density_variant(self, capsys, tmp_path):
        code = main(["run-scenario", "--scenario", "adult/dice_random",
                     "--density", "knn", "--scale", "smoke",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "SCENARIO adult/dice_random+knn" in out
        assert "density (mean kNN dist)" in out
        assert (tmp_path / "scenario_adult_dice_random+knn.txt").exists()

    def test_list_scenarios_shows_density_column(self, capsys):
        assert main(["list-scenarios", "--strategy", "face"]) == 0
        out = capsys.readouterr().out
        assert "adult/face+knn" in out
        assert "adult/face+kde" in out

    def test_run_scenario_robust_variant(self, capsys, tmp_path):
        code = main(["run-scenario", "--scenario", "adult/dice_random",
                     "--ensemble", "2", "--scale", "smoke",
                     "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "SCENARIO adult/dice_random+robust" in out
        assert "cross-model validity (%)" in out
        assert "robust validity (%)" in out
        assert (tmp_path / "scenario_adult_dice_random+robust.txt").exists()

    def test_serve_demo_with_ensemble(self, capsys, tmp_path):
        code = main(["serve-demo", "--scale", "smoke", "--rows", "16",
                     "--artifact-dir", str(tmp_path / "store"),
                     "--ensemble", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "fit + persist ensemble" in out
        assert "K2 ensemble" in out


class TestParserModelFlags:
    def test_causal_default_and_choices(self):
        args = build_parser().parse_args(["run-scenario"])
        assert args.causal is None
        for choice in ("scm", "mined"):
            parsed = build_parser().parse_args(["run-scenario", "--causal", choice])
            assert parsed.causal == choice

    def test_rejects_unknown_causal_model(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-scenario", "--causal", "tarot"])

    def test_rejects_unknown_density_estimator(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-scenario", "--density", "voronoi"])

    def test_ensemble_default_and_value(self):
        assert build_parser().parse_args(["run-scenario"]).ensemble is None
        parsed = build_parser().parse_args(
            ["run-scenario", "--ensemble", "4"])
        assert parsed.ensemble == 4
        assert build_parser().parse_args(
            ["serve-demo", "--ensemble", "3"]).ensemble == 3

    def test_rejects_non_integer_ensemble(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-scenario", "--ensemble", "many"])


class TestListScenariosLayout:
    def metric_rows(self, capsys, argv):
        assert main(argv) == 0
        out = capsys.readouterr().out
        block = table_lines(out, "Scenario registry")
        return out, block

    def test_column_layout(self, capsys):
        out, block = self.metric_rows(capsys, ["list-scenarios", "--strategy", "face"])
        header = table_cells(block[1])
        assert header == ["scenario", "dataset", "strategy", "kind",
                          "desired", "density", "causal", "robust", "inloss"]
        # every data row has exactly one cell per column
        for row in block[3:]:
            assert len(table_cells(row)) == len(header)

    def test_variant_rows_fill_the_right_column(self, capsys):
        out, block = self.metric_rows(capsys, ["list-scenarios", "--strategy", "face"])
        rows = {table_cells(row)[0]: table_cells(row) for row in block[3:]}
        assert rows["adult/face"][5:] == ["-", "-", "-", "-"]
        assert rows["adult/face+knn"][5:] == ["knn", "-", "-", "-"]
        assert rows["adult/face+scm"][5:] == ["-", "scm", "-", "-"]
        assert rows["adult/face+mined"][5:] == ["-", "mined", "-", "-"]
        assert rows["adult/face+robust"][5:] == ["-", "-", "K4", "-"]
        assert rows["adult/face+robust-knn"][5:] == ["knn", "-", "K4", "-"]

    def test_title_counts_the_rows(self, capsys):
        out, block = self.metric_rows(capsys, ["list-scenarios", "--strategy", "face"])
        n_rows = len(block) - 3  # title, header, separator
        assert block[0] == f"Scenario registry ({n_rows} entries)"

    def test_unfiltered_registry_is_at_least_140(self, capsys):
        out, block = self.metric_rows(capsys, ["list-scenarios"])
        assert len(block) - 3 >= 140


class TestRunScenarioOutput:
    def scenario_metrics(self, capsys, argv, title):
        assert main(argv) == 0
        block = table_lines(capsys.readouterr().out, title)
        return {table_cells(row)[0]: table_cells(row)[1] for row in block[3:]}

    def test_causal_variant_reports_plausibility(self, capsys, tmp_path):
        metrics = self.scenario_metrics(
            capsys,
            ["run-scenario", "--scenario", "adult/dice_random",
             "--causal", "scm", "--scale", "smoke", "--out", str(tmp_path)],
            "SCENARIO adult/dice_random+scm (scale smoke)")
        assert 0.0 <= float(metrics["causal plausibility (%)"]) <= 100.0
        assert metrics["density (mean kNN dist)"] == "-"
        assert float(metrics["validity"]) > 0
        assert (tmp_path / "scenario_adult_dice_random+scm.txt").exists()

    def test_density_variant_reports_density_not_causal(self, capsys):
        metrics = self.scenario_metrics(
            capsys,
            ["run-scenario", "--scenario", "adult/dice_random",
             "--density", "knn", "--scale", "smoke"],
            "SCENARIO adult/dice_random+knn (scale smoke)")
        assert float(metrics["density (mean kNN dist)"]) >= 0.0
        assert metrics["causal plausibility (%)"] == "-"

    def test_unknown_scenario_names_the_registry(self):
        with pytest.raises(KeyError, match="unknown scenario"):
            main(["run-scenario", "--scenario", "adult/gandalf"])


class TestServeDemoRoundTripFlags:
    def test_causal_flag_persists_and_serves_from_store(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        code = main(["serve-demo", "--scale", "smoke", "--rows", "16",
                     "--artifact-dir", str(store_dir), "--causal", "scm"])
        assert code == 0
        out = capsys.readouterr().out
        block = table_lines(out, "SERVE DEMO (adult")
        stages = [table_cells(row)[0] for row in block[3:]]
        assert stages == ["ensure artifact", "fit + persist causal",
                          "warm-start batch", "cached batch"]
        details = {table_cells(row)[0]: table_cells(row)[2] for row in block[3:]}
        assert details["fit + persist causal"] == "scm, served from store state"
        assert "strategy core generator + scm causal" in block[0]
        assert (store_dir / "adult-unary-seed0" / "causal.json").exists()
        assert (store_dir / "adult-unary-seed0" / "causal.npz").exists()

        # second run warm-starts from the persisted artifact (no retrain)
        code = main(["serve-demo", "--scale", "smoke", "--rows", "16",
                     "--artifact-dir", str(store_dir), "--causal", "scm"])
        assert code == 0
        rerun = table_lines(capsys.readouterr().out, "SERVE DEMO (adult")
        assert table_cells(rerun[3])[2] == "cache hit"

    def test_density_and_causal_flags_compose(self, capsys, tmp_path):
        store_dir = tmp_path / "store"
        code = main(["serve-demo", "--scale", "smoke", "--rows", "8",
                     "--artifact-dir", str(store_dir),
                     "--density", "knn", "--causal", "mined"])
        assert code == 0
        block = table_lines(capsys.readouterr().out, "SERVE DEMO (adult")
        stages = [table_cells(row)[0] for row in block[3:]]
        assert stages == ["ensure artifact", "fit + persist density",
                          "fit + persist causal", "warm-start batch",
                          "cached batch"]
        assert "knn density + mined causal" in block[0]
        artifact = store_dir / "adult-unary-seed0"
        assert (artifact / "density.json").exists()
        assert (artifact / "causal.json").exists()


class TestDensityBackendFlag:
    def test_parse_and_choices(self):
        args = build_parser().parse_args(
            ["run-scenario", "--density-backend", "ann"])
        assert args.density_backend == "ann"
        assert build_parser().parse_args(["run-scenario"]).density_backend is None
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run-scenario", "--density-backend", "faiss"])

    def test_run_scenario_with_ann_backend(self, capsys, tmp_path):
        code = main(["run-scenario", "--scenario", "adult/dice_random",
                     "--density", "knn", "--density-backend", "ann",
                     "--scale", "smoke", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "SCENARIO adult/dice_random+knn@ann" in out
        assert "density (mean kNN dist)" in out

    def test_serve_demo_backend_requires_density(self, capsys):
        with pytest.raises(SystemExit, match="requires --density"):
            main(["serve-demo", "--scale", "smoke", "--rows", "8",
                  "--density-backend", "ann"])

    def test_serve_demo_with_ann_backend(self, capsys, tmp_path):
        code = main(["serve-demo", "--scale", "smoke", "--rows", "8",
                     "--artifact-dir", str(tmp_path / "store"),
                     "--density", "knn", "--density-backend", "ann"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(ann)" in out
