# The exact engine checked against a seeded Monte Carlo estimator: sample
# qubit states from each measure, estimate run and succession probabilities,
# and compare at explicit error bars.  Run with:
#   python demos/04_monte_carlo_check.py

from qdutch import (
    Measure,
    RunSpec,
    SampleConfig,
    compare_exact_vs_mc,
    draw_samples,
    estimate_succession,
    run_probability,
    succession,
)

N = 200_000

print("== what the samplers produce ==")
for measure in Measure:
    batch = draw_samples(SampleConfig(measure=measure, seed=11, samples=50_000))
    print(
        f"  {measure.value:5s}: mean lambda1 = {batch.lambda1.mean():.4f}, "
        f"mean q = {batch.success_probability.mean():.4f}, "
        f"rejection acceptance = {batch.acceptance_rate:.3f}"
    )

print("\n== exact vs estimated run probabilities ==")
for measure in Measure:
    config = SampleConfig(measure=measure, seed=11, samples=N)
    for r in compare_exact_vs_mc(config, [RunSpec(2, 2), RunSpec(5, 1)]):
        print(
            f"  {measure.value:5s} (n={r.n}, k={r.k}): exact {float(r.exact):.6f}, "
            f"estimate {r.estimate:.6f} +/- {r.stderr:.6f}, z = {r.z:.2f}"
        )

print("\n== succession ratios on a shared sample ==")
for measure in Measure:
    config = SampleConfig(measure=measure, seed=11, samples=N)
    spec = RunSpec(3, 2)
    estimate, stderr = estimate_succession(config, spec)
    exact = float(succession(measure, spec))
    print(
        f"  {measure.value:5s}: exact {exact:.6f}, estimate {estimate:.6f} +/- {stderr:.6f}"
    )

print("\n(the same seed and sample count give bit-identical numbers)")
