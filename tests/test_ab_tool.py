"""Tests for the A/B tool's parsing and verdict logic (benchmarks/ab.py)."""

import importlib.util
import json
import pathlib

import pytest

_AB_PATH = pathlib.Path(__file__).resolve().parents[1] / "benchmarks" / "ab.py"
WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "rows_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}
VALID = {"name": "valid_pct", "unit": "%", "better": "higher", "bound": 0.1}


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("ab", _AB_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(wall_s, rows_per_s=50.0):
    return json.dumps({"correct": True, "attempted": 720, "failed": 0, "metrics": {
        "wall_s": {"value": wall_s, "unit": "s"},
        "rows_per_s": {"value": rows_per_s, "unit": "1/s"}}})


def test_parse_result_reads_the_last_json_line(ab):
    stdout = "\n".join(["# wall_s 3.4 s", result_line(9.9), "# raw wall_s 3.5 s",
                        result_line(3.4, 52.0), ""])
    result = ab.parse_result(stdout)
    assert result["correct"] and result["metrics"]["wall_s"]["value"] == 3.4
    with pytest.raises(ValueError):
        ab.parse_result("# no result\n")


def test_clear_speedup_is_a_gain(ab):
    base = [3.40, 3.37, 3.47, 3.45, 3.39, 3.41, 3.50, 3.38, 3.43, 3.44]
    head = [2.25, 2.20, 2.28, 2.26, 2.22, 2.27, 2.24, 2.21, 2.30, 2.23]
    row = ab.verdict(WALL, base, head)
    assert row["verdict"] == "gain" and row["wins"] == 10 and row["pairs"] == 10
    assert row["ratio"] == pytest.approx(2.245 / 3.42, rel=1e-3)
    assert row["base"][0] <= row["base"][1] <= row["base"][2]


def test_higher_is_better_metrics_flip_the_direction(ab):
    row = ab.verdict(RATE, [50.0] * 10, [80.0] * 10)
    assert row["verdict"] == "gain" and row["wins"] == 10
    row = ab.verdict(RATE, [80.0] * 10, [50.0] * 10)
    assert row["verdict"] == "REGRESSION" and row["wins"] == 0


def test_a_slowdown_beyond_the_bound_is_a_regression(ab):
    base = [3.0, 3.1, 2.9, 3.0]
    assert ab.verdict(WALL, base, [3.9, 4.0, 3.8, 3.9])["verdict"] == "REGRESSION"
    # within the 25% bound: not a regression, and not a gain either
    assert ab.verdict(WALL, base, [3.6, 3.7, 3.5, 3.6])["verdict"] == "ok"


def test_a_gain_needs_nine_of_ten_wins_and_a_gap_beyond_the_iqr(ab):
    base = [3.0, 3.2, 2.8, 3.4, 2.6, 3.0, 3.2, 2.8, 3.4, 2.6]
    # every pair won, but the gap is inside BASE's interquartile range
    narrow = [value - 0.1 for value in base]
    assert ab.verdict(WALL, base, narrow)["verdict"] == "ok"
    # a wide gap, but only eight of ten pairs won
    mixed = [value - 1.0 for value in base[:8]] + [value + 0.2 for value in base[8:]]
    row = ab.verdict(WALL, base, mixed)
    assert row["wins"] == 8 and row["verdict"] == "ok"


def test_identical_quality_metrics_are_ok(ab):
    row = ab.verdict(VALID, [97.08] * 10, [97.08] * 10)
    assert row["verdict"] == "ok" and row["wins"] == 0 and row["ratio"] == 1.0
    assert "97.08" in ab.render(row)


def test_a_gain_needs_at_least_ten_pairs(ab):
    # four pairs, every one won by a gap far beyond the IQR: still only ok
    base = [3.40, 3.37, 3.47, 3.45]
    head = [2.25, 2.20, 2.28, 2.26]
    row = ab.verdict(WALL, base, head)
    assert row["wins"] == 4 and row["verdict"] == "ok"
    assert ab.verdict(WALL, base * 3, head * 3)["verdict"] == "gain"


def test_a_spread_wider_than_the_bound_is_unresolved(ab):
    # BASE's IQR is 2.0 on a median of 4.0: wider than the 25% bound
    base = [2.0, 3.0, 4.0, 5.0, 6.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    overlapping = [value * 0.7 for value in base]
    assert ab.verdict(WALL, base, overlapping)["verdict"] == "unresolved"
    # no overlap: every HEAD run beats (or loses to) every BASE run
    assert ab.verdict(WALL, base, [1.0] * 10)["verdict"] == "gain"
    assert ab.verdict(WALL, base, [9.0] * 10)["verdict"] == "REGRESSION"
    assert ab.verdict(RATE, base, [1.0] * 10)["verdict"] == "REGRESSION"


def fake_runs(ab, monkeypatch, walls):
    """Replace the checkouts and e2ebench runs with canned results.

    ``walls[(side, workload)]`` is the ``wall_s`` of every run of that
    side and workload, None for a failed run; returns the list of runs
    made, as ``(side, workload, seed)``.
    """
    calls = []

    def run_side(checkout, workload, seed, seconds):
        calls.append((checkout.name, workload, seed))
        wall = walls[checkout.name, workload]
        return None if wall is None else json.loads(result_line(wall))

    monkeypatch.setattr(ab, "export", lambda ref, into: into.mkdir(parents=True))
    monkeypatch.setattr(ab, "run_side", run_side)
    return calls


def test_several_workloads_interleave_their_pairs_with_one_table_each(ab, monkeypatch, capsys):
    calls = fake_runs(ab, monkeypatch, {
        ("base", "fit"): 3.0, ("head", "fit"): 2.9,
        ("base", "serve_stream"): 2.5, ("head", "serve_stream"): 2.5})
    status = ab.main(["BASE", "HEAD", "--workload", "fit", "serve_stream",
                      "--pairs", "2", "--seed", "7"])
    assert status == 0
    assert calls == [("base", "fit", 7), ("head", "fit", 7),
                     ("base", "serve_stream", 7), ("head", "serve_stream", 7),
                     ("head", "fit", 8), ("base", "fit", 8),
                     ("head", "serve_stream", 8), ("base", "serve_stream", 8)]
    out = capsys.readouterr().out
    assert "fit: BASE -> HEAD, 2 pairs" in out
    assert "serve_stream: BASE -> HEAD, 2 pairs" in out
    assert out.count("wall_s          ") == 2  # one table row per workload


@pytest.mark.parametrize("serve_head", [4.0, None], ids=["regression", "failed-run"])
def test_one_failing_workload_fails_the_whole_ab(ab, monkeypatch, capsys, serve_head):
    fake_runs(ab, monkeypatch, {
        ("base", "fit"): 3.0, ("head", "fit"): 2.9,
        ("base", "serve_async"): 2.5, ("head", "serve_async"): serve_head})
    assert ab.main(["BASE", "--workload", "fit", "serve_async", "--pairs", "2"]) == 1
    out = capsys.readouterr().out
    assert "fit: BASE -> HEAD" in out
    assert ("REGRESSION" in out) if serve_head else ("2 pair(s) had a failed run" in out)


def test_parse_passes_reads_the_workload_header(ab):
    stdout = ("# workload=serve_async seed=3 trace=0 passes=29+0 setups=29\n"
              "# nproc=2 python=3.11\n" + result_line(0.3) + "\n")
    assert ab.parse_passes(stdout) == 29
    assert ab.parse_passes("# workload=fit seed=0 trace=1 passes=4+2 setups=6\n") == 6
    assert ab.parse_passes(result_line(0.3)) is None


def test_passes_per_run_print_below_peak_rss(ab, monkeypatch, capsys):
    passes = {"base": iter([24, 26, 25]), "head": iter([30, 28, 29])}

    def run_side(checkout, workload, seed, seconds):
        result = json.loads(result_line(0.3))
        result["metrics"]["peak_rss_mb"] = {"value": 140.0, "unit": "MB"}
        result["passes"] = next(passes[checkout.name])
        return result

    monkeypatch.setattr(ab, "export", lambda ref, into: into.mkdir(parents=True))
    monkeypatch.setattr(ab, "run_side", run_side)
    assert ab.main(["BASE", "--workload", "serve_async", "--pairs", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rss = next(i for i, line in enumerate(lines) if line.startswith("peak_rss_mb"))
    assert lines[rss + 1].split() == ["passes", "per", "run", "(median):", "base", "25,",
                                      "head", "29"]
