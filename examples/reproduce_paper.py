"""Reproduce every table and figure of the paper in one run.

Regenerates Tables I-V and Figure 6 at a chosen scale and writes the
rendered artifacts to ``results/<scale>/``.  The ``standard`` scale
caps each dataset at 20k instances; ``fast`` finishes in about a
minute.

Run with:  python examples/reproduce_paper.py [fast|standard|smoke|paper]
"""

import pathlib
import sys
import time


from repro.core import FeasibleCFExplainer, paper_config
from repro.experiments import (
    build_figure6,
    build_table1,
    build_table2,
    build_table3,
    build_table4,
    build_table5,
    prepare_context,
    run_method,
    TABLE4_METHOD_ORDER,
)

DATASET_LABELS = {
    "adult": "Adult Income dataset",
    "kdd_census": "KDD-Census Income dataset",
    "law_school": "Law School dataset",
}


def main():
    scale = sys.argv[1] if len(sys.argv) > 1 else "fast"
    out_dir = pathlib.Path("results") / scale
    out_dir.mkdir(parents=True, exist_ok=True)
    started = time.time()

    def emit(name, text):
        (out_dir / name).write_text(text + "\n")
        print("\n" + text)

    print(f"=== Reproducing all tables and figures at scale {scale!r} ===")
    emit("table1.txt", build_table1(scale=scale)[0])
    emit("table2.txt", build_table2(n_features=9)[0])
    emit("table3.txt", build_table3()[0])

    for dataset in ("adult", "kdd_census", "law_school"):
        print(f"\n--- Table IV on {dataset} ---")
        context = prepare_context(dataset, scale=scale, seed=0)
        print(f"black-box accuracy: {context.blackbox_accuracy:.3f}, "
              f"explaining {len(context.x_explain)} instances")
        reports = []
        for method in TABLE4_METHOD_ORDER:
            t0 = time.time()
            report = run_method(context, method)
            reports.append(report)
            print(f"  {method:<14} validity={report.validity:6.2f} "
                  f"sparsity={report.sparsity:5.2f} ({time.time() - t0:.1f}s)")
        emit(f"table4_{dataset}.txt",
             build_table4(reports, DATASET_LABELS[dataset])[0])

        if dataset == "adult":
            explainer = FeasibleCFExplainer(
                context.bundle.encoder, constraint_kind="binary",
                config=paper_config("adult", "binary"),
                blackbox=context.blackbox, seed=0)
            explainer.fit(context.x_train, context.y_train)
            batch = explainer.explain(context.x_explain, context.desired)
            emit("table5.txt", build_table5(batch)[0])

        figure = build_figure6(dataset, scale=scale, n_points=300,
                               tsne_iterations=300, context=context)
        emit(f"figure6_{dataset}.txt", figure.render())

    print(f"\nDone in {time.time() - started:.0f}s. "
          f"Artifacts in {out_dir}/")


if __name__ == "__main__":
    main()
