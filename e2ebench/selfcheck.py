"""Determinism self-check of the benchmark.

For every workload: two untraced and two traced runs with one seed must
report identical quality percentages and identical counts
(``EXACT_METRICS``), and an untraced and a traced run with a second
seed must pass every output check.  Each run is a short ``run.py``
child process (``SECONDS`` long), waited for.  Usage, from the
repository root::

    python3 e2ebench/selfcheck.py

Exits 0 when everything holds.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
SECONDS = 1.0
#: The seed run twice, and the second seed.
SEED, OTHER_SEED = 3, 4
EXACT_METRICS = {
    0: ("valid_pct", "feasible_pct", "accepted_pct"),
    1: ("serve.cache_hit_pct", "engine.usable_pct", "nn.backward_calls",
        "nn.optim_steps", "engine.run_calls", "serve.cache_lookups"),
}


def run(workload, seed, trace):
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    done = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=200)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(command[1:])} exited {done.returncode}:\n"
                         f"{done.stdout[-2000:]}\n{done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    return {name: metric["value"] for name, metric in result["metrics"].items()}


def main():
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    problems = []
    for workload in WORKLOADS:
        for trace, names in EXACT_METRICS.items():
            first = run(workload, SEED, trace)
            second = run(workload, SEED, trace)
            for name in names:
                if first[name] != second[name]:
                    problems.append(f"{workload} seed {SEED}: {name} "
                                    f"{first[name]} then {second[name]}")
            shown = ", ".join(f"{name}={first[name]:.6g}" for name in names)
            print(f"{workload} seed {SEED} trace {trace}: {shown}", flush=True)
            run(workload, OTHER_SEED, trace)
            print(f"{workload} seed {OTHER_SEED} trace {trace}: ok", flush=True)
    for problem in problems:
        print(f"NOT REPEATED: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
