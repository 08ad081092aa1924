"""Benchmark: exact vs ANN density queries over growing reference sizes.

One synthetic Adult population (``generate_adult``, seeded, no missing
cells) is encoded once and sliced to each reference size.  At every
size the exact ``cKDTree`` and the IVF
:class:`repro.density.ann.AnnIndex` answer the same k-NN query batch,
and the contract is checked in order:

1. **recall first** — ``recall@k`` of the ANN neighbours against the
   exact ones must reach :data:`MIN_ANN_RECALL` before anything is timed;
2. **speedup second** — from :data:`ANN_GATE_ROWS` reference rows up,
   the ANN query rate must be :data:`MIN_ANN_SPEEDUP` times the exact
   one.  Below that the exact scan still fits in cache and the ratio is
   printed but not checked.

The script exits non-zero (an ``AssertionError``) when either check
fails and prints one JSON object per run.  CI runs it at 1k and 10k
reference rows (the recall check; the speedup floor starts at 100k);
the 100k and 1M sizes take minutes.  Tier-1 holds the recall floor up
to 10k reference rows (``tests/density/test_ann.py``).  Run it with::

    PYTHONPATH=src python benchmarks/bench_density_at_scale.py \
        --sizes 1000 10000 100000 1000000
"""

import argparse
import json
import pathlib
import sys
import time

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

from repro.data import TabularEncoder, dataset_schema, generate_adult  # noqa: E402
from repro.density import KnnDensity, recall_at_k  # noqa: E402

#: Reference sizes measured by default.
DEFAULT_SIZES = (1_000, 10_000, 100_000, 1_000_000)

#: Fewest reference rows at which the speedup floor is checked.
ANN_GATE_ROWS = 100_000

#: recall@k the ANN neighbours must reach at every size.
MIN_ANN_RECALL = 0.9

#: ANN/exact query-rate ratio required from ``ANN_GATE_ROWS`` rows up.
MIN_ANN_SPEEDUP = 5.0

#: Neighbours per query.
K = 10


def _best_seconds(fn, repeats):
    """Best wall-clock of ``repeats`` calls (min absorbs scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return max(best, 1e-9)


def run_density_at_scale(sizes=DEFAULT_SIZES, seed=0, n_queries=512):
    """Check recall, then time exact vs ANN k-NN queries, per reference size."""
    sizes = sorted(int(size) for size in sizes)
    if not sizes:
        raise ValueError("sizes must be non-empty")
    frame, _ = generate_adult(max(sizes), seed=seed, missing_fraction=0.0)
    encoded = TabularEncoder(dataset_schema("adult")).fit_transform(frame)

    rng = np.random.default_rng(seed + 1)
    picked = rng.choice(len(encoded), size=min(n_queries, len(encoded)), replace=False)
    queries = encoded[picked] + rng.normal(0.0, 0.02, (len(picked), encoded.shape[1]))

    rows = []
    for size in sizes:
        reference = encoded[:size]
        k_eff = min(K, size)
        exact = KnnDensity(k_neighbors=k_eff, backend="exact").fit(reference)
        ann = exact.with_backend("ann")

        _, exact_idx = exact.query(queries, k_eff)
        _, ann_idx = ann.query(queries, k_eff)
        recall = recall_at_k(exact_idx, ann_idx)
        if recall < MIN_ANN_RECALL:
            raise AssertionError(
                f"ANN recall@{k_eff} at {size} reference rows is {recall:.3f}, "
                f"below the {MIN_ANN_RECALL} floor")

        repeats = 3 if size <= 10_000 else 1
        exact_rate = len(queries) / _best_seconds(lambda: exact.query(queries, k_eff), repeats)
        ann_rate = len(queries) / _best_seconds(lambda: ann.query(queries, k_eff), repeats)
        speedup = ann_rate / exact_rate
        if size >= ANN_GATE_ROWS and speedup < MIN_ANN_SPEEDUP:
            raise AssertionError(
                f"ANN speedup at {size} reference rows is {speedup:.2f}x, "
                f"below the {MIN_ANN_SPEEDUP}x floor")

        rows.append({
            "reference_rows": size,
            "k": k_eff,
            "recall_at_k": round(float(recall), 4),
            "exact_rows_per_sec": round(exact_rate, 1),
            "ann_rows_per_sec": round(ann_rate, 1),
            "ann_speedup": round(float(speedup), 2),
            "speedup_checked": size >= ANN_GATE_ROWS,
        })

    return {"dataset": "adult", "queries": int(len(queries)), "sizes": rows}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(DEFAULT_SIZES),
                        help="reference sizes to measure (default: 1k 10k 100k 1M)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--queries", type=int, default=512)
    args = parser.parse_args(argv)
    section = run_density_at_scale(sizes=args.sizes, seed=args.seed, n_queries=args.queries)
    print(json.dumps(section, indent=2))


if __name__ == "__main__":
    main()
