"""The headline comparison: two-layer versus single-layer interpolation of h1.

h1(x, y) = 1/(0.1 + |x - y|) has a kink along the diagonal, which no
tensor-product kernel space contains.  The two-layer model learns an inner
map g that re-aligns the kink so the outer Matern interpolant can resolve
it; a linear (degree-1 polynomial) inner kernel suffices because a
rotation already fixes the geometry.

Run:  python3 demos/03_two_layer_interpolation.py        (about half a second)
"""

from deepkern import (
    BfgsConfig,
    DiagScaledKernel,
    PolyKernel,
    SamplingPlan,
    TensorMaternKernel,
    run_comparison,
)

plan = SamplingPlan(n_samples=50, noise_sigma=0.01, seed=7041)
outer = TensorMaternKernel(1, 2)
inner = DiagScaledKernel(PolyKernel(1, 2), weights=(1.0, 1.0))

print("fitting both arms (N = 50, 16 multistart restarts)...")
report = run_comparison("h1", outer, inner, plan, mode="interpolation",
                        config=BfgsConfig(restarts=16, seed=0))

two, single = report.two_layer.error, report.single_layer.error
print(f"\n{'':>14}  {'mean err':>9}  {'max err':>9}  {'share > 10% sup|h1|':>20}")
print(f"{'single-layer':>14}  {single.mean_error:9.4f}  {single.max_error:9.3f}  {single.frac_above_10pct:20.1%}")
print(f"{'two-layer':>14}  {two.mean_error:9.4f}  {two.max_error:9.3f}  {two.frac_above_10pct:20.1%}")
print(f"\nbest restart: #{report.two_layer.params['restart_index']} "
      f"with objective {report.two_layer.params['objective']:.3f}")
print("\nthe concatenated model cuts the mean grid error by "
      f"{single.mean_error / two.mean_error:.1f}x on this seed")
