import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import (
    annealed_exact_enum,
    batched_step_weights,
    iterate_configs,
    kernel_cap_full_scan,
    site_kernels_gather,
)
from killedwalk import line_solver, lyapunov
from killedwalk.env import Environment, make_distribution, sample_environment
from killedwalk.entropy import exponential_tilt, simplex_tilt
from killedwalk.line_solver import F_limit_batch, two_point_a, two_point_e
from killedwalk.lyapunov import (
    _first_fitting_cap,
    _log_kernel_tails,
    _log_transfer,
    _pascal_table,
    _site_kernels,
    annealed_transfer,
    estimate_alpha_ergodic,
    estimate_alpha_mc,
    estimate_beta,
)
from killedwalk.tree import TreeConfig, geodesic_step_prob

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


EXP1 = make_distribution({"kind": "exponential", "rate": 1.0})
BATCHES = {
    "bernoulli-grid": [BERN] + [exponential_tilt(BERN, t).tilt for t in np.linspace(-1.0, 4.0, 6)],
    "exp1": [EXP1] + [exponential_tilt(EXP1, t).tilt for t in (-0.5, 2.0, 6.0)],
    # a delta-zero law between two killing laws shifts the row blocks after it
    "delta0": [BERN, simplex_tilt(BERN, [1.0, 0.0]).tilt, exponential_tilt(BERN, 2.0).tilt, DELTA0],
}


@pytest.mark.parametrize("budget", [None, 64], ids=["default-chunks", "chunks-across-laws"])
@pytest.mark.parametrize("name", BATCHES)
def test_batched_laws_keep_every_row(monkeypatch, name, budget):
    laws = BATCHES[name]
    alone = [F_limit_batch(law, seed=7, n_samples=40, tol=1e-7) for law in laws]
    if budget:  # 32 rows a chunk at r = -2, so chunks straddle the 40-row law blocks
        monkeypatch.setattr(line_solver, "_CELL_BUDGET", budget)
    batched = line_solver._keyed_rows(laws, 7, np.arange(40), 1e-7, 0.5)
    assert len(batched) == len(laws)
    for one, rows in zip(alone, batched):
        for field in ("a_value", "trunc_bound", "r_used", "converged"):
            got, want = getattr(rows, field), getattr(one, field)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (name, field)
    assert lyapunov._alpha_mc_laws(laws, 40, 1e-7, 7) == [estimate_alpha_mc(law, 40, 1e-7, 7) for law in laws]
    if name == "delta0":
        assert batched[3].a_value.tolist() == [0.0] * 40 and batched[3].converged.all()
        assert batched[1].r_used.tolist() == [0] * 40


@pytest.mark.parametrize("dist, n_grid", [(BERN, [2, 4, 8]), (EXP1, [8, 2, 4]), (CONST, [2, 4, 8, 16])])
def test_beta_builds_two_pascal_tables_per_call(monkeypatch, dist, n_grid):
    # the largest n runs first: its pilot table at cap 16, then its own cap,
    # whose table holds every smaller cap's as its leading block
    builds = []

    def spy(p_step, cap):
        builds.append((p_step, cap))
        return _pascal_table(p_step, cap)

    monkeypatch.setattr(lyapunov, "_pascal_table", spy)
    est = estimate_beta(dist, n_grid)
    rows = est.params["grid"]
    assert builds == [(0.5, 16), (0.5, rows[-1]["kernel_cap"])]
    assert [row["n"] for row in rows] == sorted(n_grid)
    monkeypatch.undo()
    for row in rows:  # each row as its own call, with its own tables
        alone = annealed_transfer(dist, row["n"], row["r"])
        assert (row["b"], row["trunc"], row["kernel_cap"]) == (alone.b_value, alone.trunc_bound, alone.kernel_cap)


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


def test_alpha_mc_budgets_unconverged_rows(monkeypatch):
    # rows stopped at a shallow barrier stay in the mean; their certificates
    # bound how far each sits above its barrier-free value
    sparse = make_distribution({"kind": "finite", "atoms": [[0.0, 0.999], [1.0, 0.001]]})
    deep = estimate_alpha_mc(sparse, n_samples=200, seed=3)
    monkeypatch.setattr(line_solver, "DEFAULT_R_MAX", -64)
    shallow = estimate_alpha_mc(sparse, n_samples=200, seed=3)
    assert shallow.params["n_unconverged"] == shallow.n_samples == 200
    assert shallow.value >= deep.value - 1e-12
    assert shallow.value - shallow.trunc_bias <= deep.value + 1e-12


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


def test_enum_cap_enforced():
    with pytest.raises(ValueError, match="cap"):
        annealed_exact_enum(BERN, n=8, r=-32)


def test_b_over_n_weakly_decreasing_along_doubling_grid():
    r = -8
    pairs = [(n, annealed_exact_enum(BERN, n=n, r=r).b_value / n) for n in (1, 2, 4, 8)]
    for (_, first), (_, second) in zip(pairs, pairs[1:]):
        assert second <= first + 1e-12


def test_fkg_supermultiplicativity_under_enumeration():
    for n, m, r in ((2, 2, -2), (3, 2, -3)):
        e_joint = e_left = e_right = 0.0
        for values, probs in iterate_configs(BERN, n + m - 1 - r):
            _, lw = batched_step_weights(values, 0.5)
            a_left = np.sum(lw[:, -(n + m) : -(m)], axis=1)
            a_right = np.sum(lw[:, -(m):], axis=1)
            e_joint += probs @ np.exp(a_left + a_right)
            e_left += probs @ np.exp(a_left)
            e_right += probs @ np.exp(a_right)
        assert e_joint >= e_left * e_right - 1e-12


def test_estimate_beta_constant_potential_extrapolates_exactly():
    est = estimate_beta(CONST, n_grid=[2, 4, 8, 16])
    assert est.value == pytest.approx(math.log(2.0), abs=1e-3)
    assert est.params["min_over_grid"] >= est.value - 1e-12
    assert est.method == "annealed-extrapolated"


def test_estimate_beta_grid_rows_document_methods():
    est = estimate_beta(BERN, n_grid=[2, 3], r_ratio=3.0)
    rows = est.params["grid"]
    assert [row["n"] for row in rows] == [2, 3]
    assert all(row["method"] == "annealed-transfer" for row in rows)
    assert all(row["trunc"] is not None and row["trunc"] >= 0.0 for row in rows)


def test_jensen_ordering_alpha_vs_beta():
    alpha = estimate_alpha_mc(BERN, n_samples=2000, tol=1e-6, seed=8)
    beta = estimate_beta(BERN, n_grid=[2, 4, 6], r_ratio=2.0)
    budget = alpha.ci_halfwidth + beta.ci_halfwidth + alpha.trunc_bias + 0.02
    assert beta.value <= alpha.value + budget


def test_estimate_beta_rejects_bad_grids_and_ratios():
    for grid in ([2, 4, 4], [], [0, 2], [-2], [2.5], [float("nan")], ["2"], 4, [[2], 4], [10**400], [2, -(10**400)]):
        with pytest.raises(ValueError, match="n_grid"):
            estimate_beta(BERN, n_grid=grid)
    for ratio in (math.inf, -math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="r_ratio"):
            estimate_beta(BERN, n_grid=[2, 4], r_ratio=ratio)


# ---------------------------------------------------------------------------
# the crossing-count transfer kernel
# ---------------------------------------------------------------------------


def _enum_with_drifts(dist, n, r, p_sites, start):
    """(f, trunc_bound) by enumeration, with one step probability per site
    and any start: the oracle's sweeps, read from the start's column."""
    p_sites = np.asarray(p_sites, dtype=np.float64)
    f = gap = 0.0
    for values, probs in iterate_configs(dist, n - 1 - r):
        _, lw = batched_step_weights(values, p_sites)
        f += float(probs @ np.exp(np.sum(lw[:, start - (r + 1) :], axis=1)))
        _, lv = batched_step_weights(values[:, ::-1], 1.0 - p_sites[::-1])
        log_gap = np.sum(lv[:, n - 1 - start :], axis=1) - np.sum(values, axis=1)
        gap += float(probs @ np.exp(log_gap))
    return f, math.log1p(gap / f)


@st.composite
def finite_laws(draw):
    n_atoms = draw(st.integers(1, 3))
    values = draw(st.lists(st.floats(0.0, 3.0), min_size=n_atoms, max_size=n_atoms, unique=True))
    if draw(st.booleans()):
        values[0] = 0.0
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n_atoms, max_size=n_atoms))
    total = sum(weights)
    atoms = [[v, w / total] for v, w in zip(values, weights)]
    return make_distribution({"kind": "finite", "atoms": atoms})


@settings(deadline=None, derandomize=True)
@given(dist=finite_laws(), n=st.integers(1, 4), r=st.integers(-6, -1), p=st.floats(0.2, 0.8))
def test_transfer_matches_enumeration(dist, n, r, p):
    kernel = annealed_transfer(dist, n, r, p)
    enum = annealed_exact_enum(dist, n, r, p)
    assert kernel.f_value == pytest.approx(enum.f_value, rel=1e-13)
    assert kernel.trunc_bound == pytest.approx(enum.trunc_bound, rel=1e-13)
    assert 0.0 <= kernel.kernel_tail <= 2.0**-52 * kernel.f_value


@settings(deadline=None, derandomize=True)
@given(dist=finite_laws(), n=st.integers(1, 4), r=st.integers(-6, -1), data=st.data())
def test_transfer_matches_enumeration_with_site_drifts_and_start(dist, n, r, data):
    p_sites = data.draw(st.lists(st.floats(0.2, 0.8), min_size=n - 1 - r, max_size=n - 1 - r))
    start = data.draw(st.integers(r + 1, n - 1))
    kernel = annealed_transfer(dist, n, r, p_sites, start=start)
    f, trunc = _enum_with_drifts(dist, n, r, p_sites, start)
    assert kernel.f_value == pytest.approx(f, rel=1e-13)
    assert kernel.trunc_bound == pytest.approx(trunc, rel=1e-13)


def test_transfer_reads_a_law_only_through_its_laplace_transform():
    expo = make_distribution({"kind": "exponential", "rate": 1.0})

    class LaplaceOnly:
        def laplace(self, ell):
            return expo.laplace(ell)

    want = annealed_transfer(expo, 4, -8)
    got = annealed_transfer(LaplaceOnly(), 4, -8)
    assert (got.f_value, got.trunc_bound, got.kernel_cap) == (want.f_value, want.trunc_bound, want.kernel_cap)


def test_transfer_closed_forms():
    for n, r in ((1, -1), (1, -9), (3, -5), (5, -7)):
        ruin = annealed_transfer(DELTA0, n, r)  # gambler's ruin
        assert ruin.f_value == pytest.approx(-r / (n - r), rel=1e-12)
    expo = make_distribution({"kind": "exponential", "rate": 2.0})
    assert annealed_transfer(expo, 1, -1).f_value == pytest.approx(expo.laplace(1) / 2.0, rel=1e-14)
    for n, r in ((4, -6), (16, -64)):
        env = Environment(r, n, np.full(n - r + 1, CONST.mean))
        assert annealed_transfer(CONST, n, r).f_value == pytest.approx(two_point_e(env, 0, n, r), rel=1e-12)


def _hit_prob(p_of: dict, x: int, target: int, barrier: int) -> float:
    """P_x(hit target before barrier) for the potential-free walk, by a
    linear solve of the harmonic equations between the two."""
    inner = list(range(min(target, barrier) + 1, max(target, barrier)))
    idx = {y: i for i, y in enumerate(inner)}
    mat = np.eye(len(inner))
    rhs = np.zeros(len(inner))
    for y in inner:
        for nb, w in ((y + 1, p_of[y]), (y - 1, 1.0 - p_of[y])):
            if nb == target:
                rhs[idx[y]] += w
            elif nb != barrier:
                mat[idx[y], idx[nb]] -= w
    return float(np.linalg.solve(mat, rhs)[idx[x]])


@pytest.mark.parametrize(
    "dist,n,r,p,start",
    [
        (BERN, 4, -8, 0.5, 0),
        (DELTA0, 3, -6, 0.5, 0),
        (make_distribution({"kind": "exponential", "rate": 1.0}), 4, -8, 0.5, 0),
        (BERN, 5, -4, [0.6] * 5 + [0.5] + [0.4] * 2, 2),
    ],
)
def test_kernel_tail_bounds_the_crossings_it_drops(dist, n, r, p, start):
    sites = np.arange(r + 1, n)
    p_sites = np.broadcast_to(np.asarray(p, dtype=np.float64), sites.shape)
    starts = (sites >= start).astype(int).tolist()
    p_of = dict(zip(sites.tolist(), p_sites.tolist()))
    log_ab = np.log(
        [_hit_prob(p_of, x, x + 1, r) * _hit_prob(p_of, x + 1, x, n) for x in range(r + 1, n - 1)]
    )
    caps = np.array([1, 2, 4, 8])
    tails = np.exp(_log_kernel_tails(dist, log_ab, caps))

    def f_at(cap):
        phi = dist.laplace(np.arange(2 * cap + 2))
        return math.exp(_log_transfer(p_sites.tolist(), starts, phi, cap))

    for cap, tail in zip(caps, tails):
        dropped = f_at(2 * cap) - f_at(cap)
        assert 0.0 < dropped <= tail
    res = annealed_transfer(dist, n, r, p, start=start)
    assert f_at(2 * res.kernel_cap) - res.f_value <= res.kernel_tail + 1e-15 * res.f_value
    assert res.kernel_tail <= 2.0**-52 * res.f_value


def test_transfer_rejects_bad_windows_and_drifts():
    for n, r, start in ((2, 0, 0), (2, -2, 2), (2, -2, -2), (0, -2, 0)):
        with pytest.raises(ValueError, match="r < start < n"):
            annealed_transfer(BERN, n, r, start=start)
    for p in (0.0, 1.0, math.nan, [0.5, 1.2, 0.5], [0.5, 0.5]):
        with pytest.raises(ValueError, match="p must"):
            annealed_transfer(BERN, 2, -2, p)


def test_transfer_memory_peak_at_cap_429():
    # one Pascal table and one pair of site kernels live at a time: about
    # 6 MB at K = 429, where gathered kernels and their index arrays took 10 MB
    tracemalloc.start()
    try:
        res = annealed_transfer(BERN, 8, -32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.kernel_cap == 429
    assert peak <= 8 * 2**20


@settings(deadline=None, derandomize=True)
@given(
    dist=finite_laws(),
    p=st.floats(0.05, 0.95),
    cap=st.integers(0, 96),
    extra=st.integers(0, 20),
)
def test_site_kernel_views_match_the_gathered_kernels_bit_for_bit(dist, p, cap, extra):
    phi = dist.laplace(np.arange(2 * cap + 2))
    got = _site_kernels(p, _pascal_table(p, cap + extra), phi, cap)
    want = site_kernels_gather(p, phi, cap)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_site_kernels_refuse_a_short_phi_or_a_small_table():
    cap = 5
    phi = BERN.laplace(np.arange(2 * cap + 2))
    table = _pascal_table(0.5, cap)
    with pytest.raises(ValueError, match="phi for cap 5 needs 12 values"):
        _site_kernels(0.5, table, phi[:-1], cap)
    for small in (_pascal_table(0.5, cap - 1), table[:-1], table[:, :-1], table[0]):
        with pytest.raises(ValueError, match="Pascal table for cap 5"):
            _site_kernels(0.5, small, phi, cap)


@pytest.mark.parametrize("n", [2, 8, 16])
@pytest.mark.parametrize(
    "dist", [BERN, make_distribution({"kind": "exponential", "rate": 1.0}), CONST], ids=["bernoulli", "exp1", "point"]
)
def test_transfer_cap_is_the_first_fitting_cap_of_the_full_scan(dist, n):
    res = annealed_transfer(dist, n, -4 * n)
    assert (res.kernel_cap, res.kernel_tail) == kernel_cap_full_scan(dist, n, -4 * n)


@settings(deadline=None, derandomize=True, max_examples=20)
@given(dist=finite_laws(), n=st.sampled_from([2, 8, 16]))
def test_transfer_cap_matches_the_full_scan_on_finite_laws(dist, n):
    res = annealed_transfer(dist, n, -4 * n)
    assert (res.kernel_cap, res.kernel_tail) == kernel_cap_full_scan(dist, n, -4 * n)


def test_first_fitting_cap_agrees_with_the_full_scan_in_every_block():
    log_ab = np.log([0.93, 0.97, 0.99, 0.95])
    tails = _log_kernel_tails(BERN, log_ab, np.arange(2049))
    assert np.all(np.diff(tails) < 0.0)  # so tails[cap] first fits at cap
    for cap in (0, 1, 63, 64, 65, 127, 128, 300, 1023, 1024, 1500, 2047, 2048):
        assert _first_fitting_cap(BERN, log_ab, tails[cap]) == (cap, float(tails[cap]))
    assert _first_fitting_cap(BERN, log_ab, tails[2048] - 1.0) is None


def test_transfer_refuses_a_window_past_the_largest_cap():
    law = make_distribution({"kind": "finite", "atoms": [[0.0, 0.3], [0.7, 0.3], [2.0, 0.4]]})
    with pytest.raises(ValueError, match=r"more than 2048 crossings per edge on the window \(-200, 2\)"):
        annealed_transfer(law, 2, -200)


@pytest.mark.parametrize("case", ["half", "drift", "turning-point"])
def test_transfer_builds_one_pascal_table_per_step_probability(monkeypatch, case):
    n, r, start = 8, -32, 0
    if case == "half":
        p = 0.5
    elif case == "drift":
        p = 0.45
    else:  # the turning point's uphill, peak and downhill steps at k = 2, target 4
        n, r, start = 4, -3, 2
        q_up = geodesic_step_prob(TreeConfig(d=3, drift_p=0.45))
        sites = np.arange(r + 1, n)
        p = np.where(sites < 2, q_up, np.where(sites == 2, 0.5, 1.0 - q_up))
    builds = []

    def spy(p_step, cap):
        builds.append((p_step, cap))
        return _pascal_table(p_step, cap)

    monkeypatch.setattr(lyapunov, "_pascal_table", spy)
    res = annealed_transfer(BERN, n, r, p, start=start)
    # the pilot builds each p at cap 16; the forward and mirrored passes
    # share one build of each p and each 1 - p at the chosen cap
    p_list = np.broadcast_to(np.asarray(p, dtype=np.float64), (n - r - 1,)).tolist()
    want = [(x, 16) for x in set(p_list)] + [(x, res.kernel_cap) for x in set(p_list) | {1.0 - x for x in p_list}]
    assert sorted(builds) == sorted(want)
