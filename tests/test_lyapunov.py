import math
import tracemalloc

import numpy as np
import pytest

from killedwalk.env import make_distribution, sample_environment
from killedwalk.line_solver import two_point_a, two_point_e
from killedwalk.lyapunov import (
    annealed_exact_enum,
    annealed_localtime_mc,
    estimate_alpha_ergodic,
    estimate_alpha_mc,
    estimate_beta,
    iterate_configs,
)

BERN = make_distribution({"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]})
CONST = make_distribution({"kind": "point", "value": -math.log(0.8)})
DELTA0 = make_distribution({"kind": "point", "value": 0.0})


def test_alpha_mc_constant_potential():
    est = estimate_alpha_mc(CONST, n_samples=8, tol=1e-9, seed=1)
    assert est.value == pytest.approx(math.log(2.0), abs=1e-8)
    assert est.ci_halfwidth == 0.0  # deterministic law
    assert est.method == "quenched-mc"


def test_alpha_mc_delta_zero_is_trivially_zero():
    est = estimate_alpha_mc(DELTA0, n_samples=10, seed=0)
    assert est.value == 0.0 and est.ci_halfwidth == 0.0


def test_alpha_mc_seed_ranges_agree():
    a = estimate_alpha_mc(BERN, n_samples=1500, tol=1e-6, seed=101)
    b = estimate_alpha_mc(BERN, n_samples=1500, tol=1e-6, seed=202)
    assert abs(a.value - b.value) <= a.ci_halfwidth + b.ci_halfwidth + a.trunc_bias + b.trunc_bias


def test_alpha_mc_memory_does_not_grow_with_samples():
    # most samples of this law converge only at barriers -512 .. -16384; at
    # 200 samples the rows alive at r = -4096 already exceed the cell budget
    sparse = make_distribution({"kind": "finite", "atoms": [[0.0, 0.999], [1.0, 0.001]]})

    def peak(n_samples):
        tracemalloc.start()
        try:
            estimate_alpha_mc(sparse, n_samples=n_samples, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(800) <= 1.2 * peak(200)


def test_ergodic_constant_potential_ratio_is_flat():
    ratios = estimate_alpha_ergodic(CONST, n=50, r_offset=64, seed=0)
    values = [v for _, v in ratios]
    # additivity on a constant environment: every prefix mean is the same step value
    assert max(values) - min(values) <= 1e-12


def test_ergodic_equals_cumulative_mean_of_step_increments():
    r = -32
    n = 40
    env = sample_environment(BERN, (r, n), seed=9, stream_id=0)
    ratios = estimate_alpha_ergodic(BERN, n=n, r_offset=-r, seed=9, stream_id=0)
    increments = [two_point_a(env, j, j + 1, r) for j in range(n)]
    running = np.cumsum(increments) / np.arange(1, n + 1)
    for (k, ratio), want in zip(ratios, running):
        assert ratio == pytest.approx(want, rel=1e-12, abs=1e-13)


def test_ergodic_agrees_with_mc_within_3_se():
    mc = estimate_alpha_mc(BERN, n_samples=3000, tol=1e-6, seed=5)
    n = 12_000
    ratios = estimate_alpha_ergodic(BERN, n=n, r_offset=64, seed=50)
    increments = np.diff([0.0] + [k * v for k, v in ratios])
    se_erg = increments.std(ddof=1) / math.sqrt(n)
    combined = 3.0 * (mc.ci_halfwidth / 1.959963984540054 + se_erg)
    assert abs(ratios[-1][1] - mc.value) <= combined + mc.trunc_bias


def test_scaling_norm_property():
    n = 16_000
    ratios = dict(estimate_alpha_ergodic(BERN, n=n, r_offset=64, seed=31))
    se = 0.6 / math.sqrt(n // 2)  # sd of one-step increments is below 0.6
    assert abs(ratios[n] - ratios[n // 2]) <= 4 * se


def test_iterate_configs_covers_everything():
    total = 0
    mass = 0.0
    for values, probs in iterate_configs(BERN, 5, batch_size=7):
        total += values.shape[0]
        mass += probs.sum()
        assert values.shape[1] == 5
    assert total == 2**5
    assert mass == pytest.approx(1.0, rel=1e-14)


def test_enum_point_mass_is_single_configuration():
    enum = annealed_exact_enum(CONST, n=4, r=-6)
    env = sample_environment(CONST, (-6, 4), seed=0)
    assert enum.n_configs == 1
    assert enum.f_value == pytest.approx(two_point_e(env, 0, 4, -6), rel=1e-12)


def test_enum_two_site_hand_formula():
    big = 7.0
    q = 0.3
    dist = make_distribution({"kind": "finite", "atoms": [[0.0, q], [big, 1.0 - q]]})
    enum = annealed_exact_enum(dist, n=1, r=-1)
    # only site 0 can be paid: f = E[exp(-omega(0))] / 2
    want = (q + (1.0 - q) * math.exp(-big)) / 2.0
    assert enum.f_value == pytest.approx(want, rel=1e-14)
    assert enum.n_configs == 2


def test_enum_jensen_gap_is_strict_for_random_law():
    enum = annealed_exact_enum(BERN, n=3, r=-4)
    assert enum.b_value < enum.mean_a
    const = annealed_exact_enum(CONST, n=3, r=-4)
    assert const.b_value == pytest.approx(const.mean_a, rel=1e-13)


def test_enum_barrier_monotonicity():
    values = [annealed_exact_enum(BERN, n=2, r=r).f_value for r in (-2, -4, -8)]
    assert values[0] < values[1] < values[2]


def test_enum_truncation_certificate_brackets_deep_barrier():
    deep = annealed_exact_enum(BERN, n=2, r=-18)  # 19 sites: bias ~ exp(-9)
    for r in (-2, -4, -8):
        shallow = annealed_exact_enum(BERN, n=2, r=r)
        assert shallow.b_value - deep.b_value <= shallow.trunc_bound
        assert shallow.trunc_bound >= 0.0
    # the certificate itself shrinks as the barrier deepens
    bounds = [annealed_exact_enum(BERN, n=2, r=r).trunc_bound for r in (-2, -4, -8)]
    assert bounds[0] > bounds[1] > bounds[2]


def test_localtime_truncation_estimate_matches_enum_certificate():
    enum = annealed_exact_enum(BERN, n=3, r=-4)
    mc = annealed_localtime_mc(BERN, n=3, r=-4, n_paths=150_000, seed=17)
    assert mc.trunc_bound == pytest.approx(enum.trunc_bound, rel=0.15)


def test_enum_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        annealed_exact_enum(BERN, n=8, r=-32)


def test_localtime_rejects_empty_batches():
    for size in (0, -4):
        with pytest.raises(ValueError, match="batch_size"):
            annealed_localtime_mc(BERN, n=2, r=-2, n_paths=10, batch_size=size)


def test_localtime_delta0_reduces_to_ruin_probability():
    mc = annealed_localtime_mc(DELTA0, n=5, r=-7, n_paths=60_000, seed=3)
    want = 7.0 / 12.0
    assert abs(mc.f_value - want) <= 4 * mc.f_stderr
    assert mc.n_capped == 0
    assert mc.n_hit == pytest.approx(want * mc.n_paths, abs=4 * math.sqrt(mc.n_paths))


def test_localtime_matches_enum_within_4_se():
    for n, r in ((2, -6), (4, -8)):
        enum = annealed_exact_enum(BERN, n=n, r=r)
        mc = annealed_localtime_mc(BERN, n=n, r=r, n_paths=120_000, seed=11)
        assert abs(mc.f_value - enum.f_value) <= 4 * mc.f_stderr


def test_localtime_constant_potential_matches_solver():
    env = sample_environment(CONST, (-6, 3), seed=0)
    exact = two_point_e(env, 0, 3, -6)
    mc = annealed_localtime_mc(CONST, n=3, r=-6, n_paths=120_000, seed=13)
    assert abs(mc.f_value - exact) <= 4 * mc.f_stderr


def test_localtime_exponential_law_matches_closed_form():
    # n = 1, r = -1: only site 0 is payable, so f = E[exp(-omega)] / 2
    expo = make_distribution({"kind": "exponential", "rate": 2.0})
    mc = annealed_localtime_mc(expo, n=1, r=-1, n_paths=100_000, seed=5)
    want = (2.0 / 3.0) / 2.0
    assert abs(mc.f_value - want) <= 4 * mc.f_stderr
    with pytest.raises(ValueError, match="finite-support"):
        estimate_beta(expo, n_grid=[2], method="enum")


def test_b_over_n_weakly_decreasing_along_doubling_grid():
    r = -8
    pairs = [(n, annealed_exact_enum(BERN, n=n, r=r).b_value / n) for n in (1, 2, 4, 8)]
    for (_, first), (_, second) in zip(pairs, pairs[1:]):
        assert second <= first + 1e-12


def test_fkg_supermultiplicativity_under_enumeration():
    from killedwalk.line_solver import forward_step_weights

    for n, m, r in ((2, 2, -2), (3, 2, -3)):
        e_joint = e_left = e_right = 0.0
        for values, probs in iterate_configs(BERN, n + m - 1 - r):
            _, lw = forward_step_weights(values, 0.5)
            a_left = np.sum(lw[:, -(n + m) : -(m)], axis=1)
            a_right = np.sum(lw[:, -(m):], axis=1)
            e_joint += probs @ np.exp(a_left + a_right)
            e_left += probs @ np.exp(a_left)
            e_right += probs @ np.exp(a_right)
        assert e_joint >= e_left * e_right - 1e-12


def test_estimate_beta_constant_potential_extrapolates_exactly():
    est = estimate_beta(CONST, n_grid=[2, 4, 8, 16], seed=0)
    assert est.value == pytest.approx(math.log(2.0), abs=1e-3)
    assert est.params["min_over_grid"] >= est.value - 1e-12
    assert est.method == "annealed-extrapolated"


def test_estimate_beta_grid_rows_document_methods():
    est = estimate_beta(BERN, n_grid=[2, 3], r_ratio=3.0, seed=1, n_paths=5_000)
    rows = est.params["grid"]
    assert [row["n"] for row in rows] == [2, 3]
    assert all(row["method"] == "annealed-enum" for row in rows)
    assert all(row["se_b"] == 0.0 for row in rows)
    assert all(row["trunc"] is not None and row["trunc"] >= 0.0 for row in rows)


def test_estimate_beta_uses_mc_beyond_cap():
    est = estimate_beta(BERN, n_grid=[2, 8], r_ratio=4.0, seed=1, n_paths=20_000)
    methods = [row["method"] for row in est.params["grid"]]
    assert methods == ["annealed-enum", "annealed-localtime-mc"]


def test_estimate_beta_reports_unstable_extrapolation():
    est = estimate_beta(BERN, n_grid=[4, 6, 8], r_ratio=4.0, seed=3, n_paths=100)
    assert est.params["warning"]  # tiny path budget cannot pin the slope
    stable = estimate_beta(BERN, n_grid=[2, 4], r_ratio=3.0, seed=3)
    assert not stable.params["warning"]


def test_jensen_ordering_alpha_vs_beta():
    alpha = estimate_alpha_mc(BERN, n_samples=2000, tol=1e-6, seed=8)
    beta = estimate_beta(BERN, n_grid=[2, 4, 6], r_ratio=2.0, seed=8, n_paths=50_000)
    budget = alpha.ci_halfwidth + beta.ci_halfwidth + alpha.trunc_bias + 0.02
    assert beta.value <= alpha.value + budget
