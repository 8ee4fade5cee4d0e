"""Folding a regular tree onto the integers.

On the d-regular tree, a walk moving along a fixed geodesic keeps making
excursions into the d-2 branches hanging off each geodesic vertex.  The
survival weight of those excursions defines an effective potential per
geodesic site; with it, every line tool applies verbatim.  The branch
recursion carries certified two-sided brackets (kill vs free frontier),
and trajectory simulation on the very same keyed potentials cross-checks
them.
"""

import math
from dataclasses import replace

from killedwalk import (
    F_limit,
    TreeConfig,
    excursion_survival_h,
    first_passage_gf,
    geodesic_step_prob,
    make_distribution,
    reduce_to_line,
    rho_environment,
    sigma_finite_prob,
    simulate_excursions,
    simulate_geodesic_passage,
)

print("== zero potential: everything is explicit ==")
for d in (3, 4, 5):
    print(f"  d={d}: P(reach a fixed neighbour) = {first_passage_gf(d, 1.0):.6f}, "
          f"P(ever step onto the geodesic neighbours) = {sigma_finite_prob(d):.6f}")

delta0 = make_distribution({"kind": "point", "value": 0.0})
cfg0 = TreeConfig(3, depth_cap_D=64)
print("\n  excursion-survival brackets close on 0.8 as the recursion deepens:")
for depth in (1, 2, 4, 8, 16, 32, 60):
    h = excursion_survival_h(replace(cfg0, depth_cap_D=depth), delta0)
    print(f"    depth {depth:2d}: [{h.lower:.12f}, {h.upper:.12f}]  width {h.width:.1e}")

print("\n== random potentials: brackets plus an effective line model ==")
bern = make_distribution({"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]})
cfg = TreeConfig(3, depth_cap_D=12)
seq = rho_environment(cfg, bern, (0, 5), seed=5)[0]
for b in seq:
    print(f"  site {b.site_index}: rho in [{b.rho_lower:.6f}, {b.rho_upper:.6f}]")
bound = bern.mean + math.log(cfg.d / 2.0)
print(f"  one-step bound on the mean effective potential: E[omega] + ln(d/2) = {bound:.4f}")

site = 2
excursions = simulate_excursions(cfg, bern, site_index=site, n_excursions=50_000, seed=5)
mean, se, _ = excursions
h = seq[site].h_bracket
print(f"\n  cross-check at site {site}: simulated excursion survival {mean:.5f} +- {se:.5f} "
      f"(stop budget {excursions.trunc_budget:.1e}) vs bracket [{h.lower:.5f}, {h.upper:.5f}]")

print("\n== two models, one number ==")
model = reduce_to_line(cfg, bern, n=2, seed=23, r_ratio=8.0)
line = F_limit(model.env_mid, tol=1e-9, p=model.step_right_prob)
passage = simulate_geodesic_passage(cfg, bern, target=1, n_walks=15_000, seed=23)
tree_mc, tree_se, _ = passage
print(f"  effective line: survival to the next geodesic site = {line.e_value:.5f} "
      f"(bracket halfwidth {model.max_halfwidth:.1e})")
print(f"  full tree walk: {tree_mc:.5f} +- {tree_se:.5f} (stop budget {passage.trunc_budget:.1e})")

print("\n== drift ==")
for p in (1 / 3, 0.5, 0.8):
    q = geodesic_step_prob(TreeConfig(3, drift_p=p))
    print(f"  uphill pull p = {p:.3f} on the tree -> geodesic walk steps uphill w.p. {q:.4f}")
