"""Quenched vs annealed decay rates.

Two routes estimate the quenched rate (i.i.d. environment replicas, and
one long window read ergodically).  The annealed rate is exact: a walk
from 0 to n on Z passes every site in between, so its edge crossing
counts fix it, and a transfer kernel over those counts gives E[e] on any
window.  The local-time path estimator, which samples walks instead,
cross-checks it.  Averaging survival weights before taking logs always
helps the walk: the annealed rate sits below the quenched one (Jensen),
and the gap is the subject of the entropy demo.
"""

from killedwalk import (
    annealed_localtime_mc,
    annealed_transfer,
    estimate_alpha_ergodic,
    estimate_alpha_mc,
    estimate_beta,
    make_distribution,
)

bern = make_distribution({"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]})

print("== quenched rate, route 1: i.i.d. replicas ==")
alpha = estimate_alpha_mc(bern, n_samples=3000, tol=1e-7, seed=1)
print(f"  alpha = {alpha.value:.4f} +- {alpha.ci_halfwidth:.4f} "
      f"(truncation budget {alpha.trunc_bias:.1e}, {alpha.n_samples} environments)")

print("\n== quenched rate, route 2: one long environment ==")
ratios = estimate_alpha_ergodic(bern, n=20000, r_offset=64, seed=2)
for k in (10, 100, 1000, 20000):
    print(f"  a(0,{k:>6d})/{k:<6d} = {dict(ratios)[k]:.4f}")

print("\n== annealed rate: transfer kernel, cross-checked by local-time paths ==")
for n, r in ((2, -8), (4, -9)):
    exact = annealed_transfer(bern, n=n, r=r)
    mc = annealed_localtime_mc(bern, n=n, r=r, n_paths=200_000, seed=3)
    z = (mc.f_value - exact.f_value) / mc.f_stderr
    print(f"  n={n}: kernel b/n = {exact.b_value/n:.5f} (crossing cap {exact.kernel_cap}); "
          f"local-time MC {mc.b_value/n:.5f} +- {mc.b_stderr/n:.5f}, z = {z:+.2f}")

beta = estimate_beta(bern, n_grid=[2, 4, 8, 12])
print("\n== annealed rate along the grid (every row exact) ==")
for row in beta.params["grid"]:
    print(f"  n={row['n']:>2d} (barrier {row['r']:>4d}): b/n = {row['b_over_n']:.5f} "
          f"(barrier budget {row['trunc_over_n']:.1e}, crossing cap {row['kernel_cap']})")
print(f"  extrapolated beta = {beta.value:.4f}; "
      f"certified upper bound min b/n = {beta.params['min_over_grid']:.4f}")
print(f"\n  Jensen ordering: alpha {alpha.value:.4f} +- {alpha.ci_halfwidth:.4f} >= beta {beta.value:.4f}: "
      f"{alpha.value + alpha.ci_halfwidth >= beta.value}")
