"""Quenched vs annealed decay rates.

Two routes estimate the quenched rate (i.i.d. environment replicas, and
one long window read ergodically).  The annealed rate is exact: a walk
from 0 to n on Z passes every site in between, so its edge crossing
counts fix it, and a transfer kernel over those counts gives E[e] on any
window.  The point law whose rate is ln 2 cross-checks it.  Averaging
survival weights before taking logs always helps the walk: the annealed
rate sits below the quenched one (Jensen), and the gap is the subject of
the entropy demo.
"""

import math

from killedwalk import (
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

print("\n== annealed rate: transfer kernel, cross-checked by the point law at ln 2 ==")
const = make_distribution({"kind": "point", "value": -math.log(0.8)})
exact = annealed_transfer(const, n=16, r=-64)
print(f"  point law -ln 0.8: kernel b/16 = {exact.b_value/16:.12f} at barrier -64, "
      f"ln 2 = {math.log(2.0):.12f}, gap {abs(exact.b_value/16 - math.log(2.0)):.1e}")

beta = estimate_beta(bern, n_grid=[2, 4, 8, 12])
print("\n== annealed rate along the grid (every row exact) ==")
for row in beta.params["grid"]:
    print(f"  n={row['n']:>2d} (barrier {row['r']:>4d}): b/n = {row['b_over_n']:.5f} "
          f"(barrier budget {row['trunc_over_n']:.1e}, crossing cap {row['kernel_cap']})")
print(f"  extrapolated beta = {beta.value:.4f}; "
      f"certified upper bound min b/n = {beta.params['min_over_grid']:.4f}")
print(f"\n  Jensen ordering: alpha {alpha.value:.4f} +- {alpha.ci_halfwidth:.4f} >= beta {beta.value:.4f}: "
      f"{alpha.value + alpha.ci_halfwidth >= beta.value}")
