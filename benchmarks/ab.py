"""Same-host A/B of two commits on the end-to-end benchmark (``e2ebench``).

Usage, from the repository root::

    python3 benchmarks/ab.py BASE [HEAD] [--workload fit [W ...]] [--pairs 10] [--seed 100]

Each ref is exported with ``git archive`` into its own temporary
directory, so both sides run committed files only.  The script then runs
``--pairs`` pairs of ``e2ebench/run.py --workload W --seed S --seconds T``
for each workload W (one run per side per pair, seed ``--seed + pair``,
``T`` the ``run_seconds`` of ``BENCHMARK.json``), alternating which side
runs first, and reads each run's last line (the JSON result).  With
several workloads the pairs interleave: pair 1 of every workload, then
pair 2 of every workload, and so on.

For each workload, and every end-to-end metric of ``BENCHMARK.json``
(which it only reads), it prints a table row with each side's median and
quartiles, the HEAD/BASE median ratio, the pairs HEAD won, and a verdict
(below ``peak_rss_mb`` it also prints each side's median passes per run:
e2ebench's peak RSS grows with the passes a run fits, so a faster side
reads as using more memory):

* ``unresolved`` — BASE's interquartile range exceeds the metric's bound
  (relative to BASE's median) and the two sides' runs overlap: the
  spread is too wide to tell;
* ``REGRESSION`` — HEAD's median is worse than BASE's by more than the
  metric's bound;
* ``gain`` — at least 10 pairs, HEAD won at least 90% of them and its
  median beats BASE's by more than BASE's interquartile range;
* ``ok`` — none of these.

The exit status is 1 when any metric of any workload regressed or is
unresolved, or a run failed.
"""

from __future__ import annotations

import argparse
import json
import math
import pathlib
import re
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: Share of pairs HEAD must win for a ``gain`` verdict.
GAIN_WIN_SHARE = 0.9
#: Fewest pairs a ``gain`` verdict needs.
GAIN_MIN_PAIRS = 10


def parse_result(stdout):
    """The JSON result object: the last line of a run's output that parses."""
    for line in reversed(stdout.strip().splitlines()):
        line = line.strip()
        if line.startswith("{"):
            return json.loads(line)
    raise ValueError("no JSON result line in the run's output")


def parse_passes(stdout):
    """Passes one run made: ``N + M`` of its ``# workload=... passes=N+M`` line, or None."""
    match = re.search(r"^# workload=.* passes=(\d+)\+(\d+)", stdout, re.MULTILINE)
    return int(match[1]) + int(match[2]) if match else None


def passes_note(results):
    """One line: each side's median passes per run (``?`` when no run reported it)."""
    sides = []
    for side in ("base", "head"):
        counts = [r["passes"] for r in results[side] if r.get("passes") is not None]
        sides.append(f"{side} {statistics.median(counts):g}" if counts else f"{side} ?")
    return f"{'':15s} passes per run (median): {', '.join(sides)}"


def quartiles(values):
    """``(q1, median, q3)`` of ``values`` (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(metric, base, head):
    """Compare paired samples of one metric; returns a summary dict.

    ``metric`` is a ``BENCHMARK.json`` end-to-end entry (``name``,
    ``better``, ``bound``); ``base[i]`` and ``head[i]`` are the two sides
    of pair ``i``.
    """
    sign = 1.0 if metric["better"] == "higher" else -1.0
    base_q1, base_median, base_q3 = quartiles(base)
    head_q1, head_median, head_q3 = quartiles(head)
    # positive = HEAD better, as a fraction of BASE's median
    scale = abs(base_median) or 1.0
    change = sign * (head_median - base_median) / scale
    wins = sum(1 for b, h in zip(base, head) if sign * (h - b) > 0)
    # every HEAD run better (or every one worse) than every BASE run
    head_scores = [sign * h for h in head]
    base_scores = [sign * b for b in base]
    separated = (min(head_scores) > max(base_scores)
                 or max(head_scores) < min(base_scores))
    if (base_q3 - base_q1) / scale > metric["bound"] and not separated:
        label = "unresolved"
    elif -change > metric["bound"]:
        label = "REGRESSION"
    elif (len(base) >= GAIN_MIN_PAIRS
          and wins >= math.ceil(GAIN_WIN_SHARE * len(base))
          and sign * (head_median - base_median) > base_q3 - base_q1):
        label = "gain"
    else:
        label = "ok"
    return {
        "name": metric["name"],
        "base": (base_q1, base_median, base_q3),
        "head": (head_q1, head_median, head_q3),
        "ratio": head_median / base_median if base_median else math.nan,
        "wins": wins,
        "pairs": len(base),
        "verdict": label,
    }


def render(row):
    """One table line for a :func:`verdict` summary."""
    def side(q):
        return f"{q[1]:.4g} [{q[0]:.4g}-{q[2]:.4g}]".rjust(26)

    return (f"{row['name']:15s} {side(row['base'])}  {side(row['head'])}  "
            f"{row['ratio']:6.3f}  {row['wins']:2d}/{row['pairs']:<2d}  {row['verdict']}")


def export(ref, into):
    """``git archive`` ``ref`` into directory ``into``."""
    into.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def run_side(checkout, workload, seed, seconds):
    """One e2ebench run in ``checkout``; its parsed result, or None on failure."""
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    try:
        result = parse_result(done.stdout)
    except ValueError:
        result = None
    if done.returncode != 0 or result is None or not result.get("correct"):
        sys.stderr.write(f"run failed in {checkout} (seed {seed}):\n{done.stderr[-2000:]}\n")
        return None
    result["passes"] = parse_passes(done.stdout)
    return result


def report(workload, args, seconds, metrics, results, failed):
    """Print one workload's table; True when it fails the A/B."""
    print()
    print(f"{workload}: {args.base} -> {args.head}, {len(results['base'])} pairs, "
          f"{seconds:g} s per run, median [q1-q3]")
    print(f"{'metric':15s} {'base':>26s}  {'head':>26s}  {'ratio':>6s}  wins   verdict")
    failing = False
    for metric in metrics:
        name = metric["name"]
        if not results["base"] or name not in results["base"][0]["metrics"]:
            continue
        row = verdict(metric, [r["metrics"][name]["value"] for r in results["base"]],
                      [r["metrics"][name]["value"] for r in results["head"]])
        failing |= row["verdict"] in ("REGRESSION", "unresolved")
        print(render(row))
        if name == "peak_rss_mb":
            print(passes_note(results))
    if failed:
        print(f"{failed} pair(s) had a failed run")
    return failing or bool(failed) or not results["base"]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("head", nargs="?", default="HEAD")
    parser.add_argument("--workload", nargs="+", default=["fit"])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    args = parser.parse_args(argv)
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]

    results = {w: {"base": [], "head": []} for w in args.workload}
    failed = dict.fromkeys(args.workload, 0)
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        sides = {"base": pathlib.Path(tmp) / "base", "head": pathlib.Path(tmp) / "head"}
        export(args.base, sides["base"])
        export(args.head, sides["head"])
        for pair in range(args.pairs):
            order = ("base", "head") if pair % 2 == 0 else ("head", "base")
            for workload in args.workload:
                got = {side: run_side(sides[side], workload, args.seed + pair, seconds)
                       for side in order}
                if None in got.values():
                    failed[workload] += 1
                    continue
                for side, result in got.items():
                    results[workload][side].append(result)
                print(f"# {workload} pair {pair + 1}/{args.pairs} ({order[0]} first): "
                      f"wall_s base {got['base']['metrics']['wall_s']['value']:.4g} "
                      f"head {got['head']['metrics']['wall_s']['value']:.4g}", flush=True)

    failing = False
    for workload in args.workload:
        failing |= report(workload, args, seconds, metrics, results[workload],
                          failed[workload])
    return 1 if failing else 0


if __name__ == "__main__":
    sys.exit(main())
