"""Table IVa benchmark: the full nine-method comparison on Adult Income.

Runs every method of the paper's Table IV on the smoke-scale Adult
dataset and regenerates the comparison table.  Shape assertions encode
the paper's qualitative findings.
"""

from repro.experiments import build_table4, run_table4

from conftest import save_artifact


def test_table4a_adult(benchmark, artifact_dir):
    reports = benchmark.pedantic(
        run_table4, args=("adult",), kwargs={"scale": "smoke"},
        rounds=1, iterations=1)
    text, _ = build_table4(reports, "Adult Income dataset")
    save_artifact("table4a_adult.txt", text)
    print("\n" + text)

    by_name = {report.method: report for report in reports}
    ours_unary = by_name["ours_unary"]
    ours_binary = by_name["ours_binary"]

    # Paper shape: our models reach ~100% validity on Adult...
    assert ours_unary.validity >= 90.0
    assert ours_binary.validity >= 90.0
    # ...with the top unary feasibility among VAE-family methods,
    assert ours_unary.feasibility_unary >= by_name["revise"].feasibility_unary
    assert ours_unary.feasibility_unary >= by_name["cchvae"].feasibility_unary
    # ...while CEM wins sparsity but not the overall trade-off.
    assert by_name["cem"].sparsity <= ours_unary.sparsity
