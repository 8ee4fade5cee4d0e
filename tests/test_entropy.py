import math
import tracemalloc

import numpy as np
import pytest

from _oracles import constant_potential_one_step_a, window_entropy
from killedwalk import entropy, line_solver, lyapunov
from killedwalk.entropy import (
    OptimizerConfig,
    TiltedProductMeasure,
    expected_F_under,
    exponential_tilt,
    kl_divergence,
    minimize_variational,
    simplex_tilt,
)
from killedwalk.env import PotentialDistribution, make_distribution
from killedwalk.lyapunov import estimate_alpha_mc, estimate_beta

BERN = make_distribution({"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]})
SKEW = make_distribution({"kind": "finite", "atoms": [[0.0, 0.75], [1.0, 0.25]]})
CONST = make_distribution({"kind": "point", "value": -math.log(0.8)})


def test_kl_zero_iff_equal():
    assert kl_divergence(BERN, BERN) == 0.0
    assert kl_divergence(SKEW, SKEW) == 0.0
    assert kl_divergence(BERN, SKEW) > 0.0


def test_kl_two_atom_value():
    want = 0.5 * math.log(0.5 / 0.75) + 0.5 * math.log(0.5 / 0.25)
    assert kl_divergence(BERN, SKEW) == pytest.approx(want, rel=1e-14)
    assert want == pytest.approx(0.5 * math.log(4.0 / 3.0), rel=1e-14)


def test_kl_infinite_outside_support():
    wide = make_distribution({"kind": "finite", "atoms": [[0.0, 0.5], [2.0, 0.5]]})
    assert kl_divergence(wide, BERN) == math.inf
    assert kl_divergence(BERN, wide) == math.inf  # 1.0 not charged by wide


@pytest.mark.parametrize("theta", [800.0, -800.0])
def test_kl_of_a_tilt_that_empties_an_atom(theta):
    # exp(-800) underflows, so the tilt puts weight 0 on one atom: 0 ln 0 = 0
    tilt = exponential_tilt(BERN, theta).tilt
    assert sorted(w for _, w in tilt.atoms) == [0.0, 1.0]
    assert kl_divergence(tilt, BERN) == pytest.approx(math.log(2.0), rel=1e-14)
    # an atom of weight 0 needs no support under p
    uncharged = PotentialDistribution(kind="finite", atoms=((0.0, 1.0), (3.0, 0.0)))
    assert kl_divergence(uncharged, make_distribution({"kind": "point", "value": 0.0})) == 0.0


def test_kl_rejects_continuous_input():
    expo = make_distribution({"kind": "exponential", "rate": 1.0})
    with pytest.raises(ValueError, match="finite-support"):
        kl_divergence(expo, BERN)


def test_kl_nonnegative_on_random_pairs():
    rng = np.random.default_rng(0)
    values = [0.0, 0.3, 1.0, 2.5]
    for _ in range(50):
        qw = rng.dirichlet(np.ones(4))
        pw = rng.dirichlet(np.ones(4))
        q = make_distribution({"kind": "finite", "atoms": [[v, w] for v, w in zip(values, qw)]})
        p = make_distribution({"kind": "finite", "atoms": [[v, w] for v, w in zip(values, pw)]})
        assert kl_divergence(q, p) >= 0.0


def test_window_entropy_is_window_size_times_kl():
    kl = kl_divergence(BERN, SKEW)
    q_atoms, p_atoms = dict(BERN.atoms), dict(SKEW.atoms)
    for size in (1, 2, 4):
        direct = window_entropy(q_atoms, p_atoms, size)
        assert direct == pytest.approx(size * kl, rel=1e-12)
        # per-site value is constant along the growing window (the sup form)
        assert direct / size == pytest.approx(kl_divergence(BERN, SKEW), rel=1e-12)


def test_exponential_tilt_reweights_and_normalizes():
    tpm = exponential_tilt(BERN, theta=1.3)
    values = np.array([v for v, _ in tpm.tilt.atoms])
    weights = np.array([w for _, w in tpm.tilt.atoms])
    want = np.array([0.5, 0.5 * math.exp(-1.3)])
    want /= want.sum()
    assert np.allclose(weights, want, rtol=1e-14)
    assert abs(weights.sum() - 1.0) <= 1e-12
    assert np.array_equal(values, [0.0, 1.0])
    assert exponential_tilt(BERN, 0.0).tilt.atoms == BERN.atoms


def test_exponential_tilt_of_point_mass_is_itself():
    tpm = exponential_tilt(CONST, theta=3.0)
    assert tpm.tilt == CONST and tpm.kl_per_site() == 0.0


def test_exponential_family_tilt_and_kl_closed_form():
    base = make_distribution({"kind": "exponential", "rate": 2.0})
    tpm = exponential_tilt(base, theta=1.0)
    assert tpm.tilt.rate == pytest.approx(3.0)
    # KL(Exp(mu_t) || Exp(mu)) = ln(mu_t/mu) + mu/mu_t - 1, checked by quadrature
    from scipy.integrate import quad

    mu_t, mu = 3.0, 2.0
    integrand = lambda t: mu_t * math.exp(-mu_t * t) * math.log(
        (mu_t * math.exp(-mu_t * t)) / (mu * math.exp(-mu * t))
    )
    numeric, _ = quad(integrand, 0, 60)
    assert tpm.kl_per_site() == pytest.approx(numeric, rel=1e-9)
    with pytest.raises(ValueError, match="family"):
        exponential_tilt(base, theta=-2.0)


def test_simplex_tilt_validation():
    with pytest.raises(ValueError, match="weight per base atom"):
        simplex_tilt(BERN, [0.2, 0.3, 0.5])
    with pytest.raises(ValueError, match="vanish"):
        simplex_tilt(BERN, [0.0, 0.0])
    tpm = simplex_tilt(BERN, [3.0, 1.0])
    assert tpm.tilt.atoms == ((0.0, 0.75), (1.0, 0.25))


def test_tilts_refuse_non_finite_input_by_name():
    # a NaN or infinite weight normalizes to a law with no atoms, and a NaN
    # theta to NaN weights or a NaN rate
    expo = make_distribution({"kind": "exponential", "rate": 1.0})
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=r"weights\[0\] must be finite"):
            simplex_tilt(BERN, [bad, 1.0])
        for base in (BERN, expo):
            with pytest.raises(ValueError, match="theta must be finite"):
                exponential_tilt(base, bad)


def test_expected_F_at_base_reproduces_quenched_estimator_bitwise():
    alpha = estimate_alpha_mc(BERN, n_samples=400, tol=1e-6, seed=77)
    at_base = expected_F_under(exponential_tilt(BERN, 0.0), n_samples=400, tol=1e-6, seed=77)
    assert at_base.value == alpha.value
    assert at_base.ci_halfwidth == alpha.ci_halfwidth


def test_expected_F_under_point_tilt_is_constant_potential_value():
    tpm = simplex_tilt(BERN, [0.0, 1.0])  # all mass on omega = 1
    est = expected_F_under(tpm, n_samples=8, tol=1e-9, seed=0)
    assert est.value == pytest.approx(constant_potential_one_step_a(math.exp(-1.0)), abs=1e-8)


def test_expected_F_monotone_under_mass_shift():
    # smaller theta pushes mass toward larger potentials, raising E_Q[F]
    values = [
        expected_F_under(exponential_tilt(BERN, th), n_samples=500, tol=1e-6, seed=3).value
        for th in (-1.0, 0.0, 1.5)
    ]
    assert values[0] > values[1] > values[2]


def test_variational_collapse_for_point_mass():
    cfg = OptimizerConfig(n_samples=4, tol=1e-9, seed=0, theta_lo=-1, theta_hi=1, n_grid=5, max_evals=12)
    report = minimize_variational(CONST, optimizer_cfg=cfg)
    assert report.var_min_value == pytest.approx(math.log(2.0), abs=1e-8)
    assert report.alpha_hat.value == pytest.approx(math.log(2.0), abs=1e-8)
    assert report.var_min_tilt.tilt == CONST


@pytest.mark.parametrize("n_grid", [-1, 0, 1])
def test_variational_refuses_a_grid_below_two_points(monkeypatch, n_grid):
    # n_grid = 0 once returned the lone theta = 0 row, or died in min() when
    # theta_lo > 0; the refusal comes before any sample is drawn
    monkeypatch.setattr(lyapunov, "_keyed_rows", None)
    for theta_lo in (-1.0, 0.5):
        cfg = OptimizerConfig(n_samples=4, seed=0, theta_lo=theta_lo, theta_hi=1.0, n_grid=n_grid)
        with pytest.raises(ValueError, match="n_grid"):
            minimize_variational(BERN, optimizer_cfg=cfg)


@pytest.mark.parametrize(
    "base",
    [
        BERN,
        make_distribution({"kind": "exponential", "rate": 1.0}),
        # renormalized at theta = 0, atom 1 comes back as 0.29999999999999993
        make_distribution({"kind": "finite", "atoms": [[0.0, 0.2], [1.0, 0.3], [2.0, 0.5]]}),
        # weights that do not sum to 1.0 in floats
        make_distribution({"kind": "finite", "atoms": [[0.0, 0.06], [1.0, 0.57], [2.0, 0.37]]}),
    ],
)
def test_variational_runs_the_engine_once_per_evaluation(monkeypatch, base):
    calls = []  # one entry per law the engine runs; a call may run several
    engine = lyapunov._keyed_rows
    monkeypatch.setattr(lyapunov, "_keyed_rows", lambda dists, *a: calls.extend(dists) or engine(dists, *a))
    cfg = OptimizerConfig(n_samples=40, seed=3, theta_lo=-0.5, theta_hi=2.0, n_grid=6, max_evals=8)
    for family in ["exponential-tilt"] + ["free-simplex"] * (base.kind == "finite"):
        calls.clear()
        report = minimize_variational(base, family=family, optimizer_cfg=cfg)
        curve = report.objective_curve
        if family == "free-simplex":  # the Q = P anchor, then Nelder-Mead's starting point
            at_base = curve[:2]
            assert len(at_base) == 2 and len(calls) == 1 + report.n_evals - 2
        else:
            at_base = [row for row in curve if row["theta"] == 0.0]
            # alpha_hat is one law of the engine, which the one theta = 0 row reuses
            assert len(at_base) == 1 and len(calls) == report.n_evals == 8
        alpha = report.alpha_hat.value
        rows = [(row["E_Q_F"], row["kl_per_site"], row["objective"]) for row in at_base]
        assert rows == [(alpha, 0.0, alpha)] * len(at_base), family


@pytest.mark.parametrize("base", [BERN, make_distribution({"kind": "exponential", "rate": 1.0})])
def test_variational_report_equals_one_tilt_at_a_time(base):
    # the grid runs alpha_hat and every tilt through one batched loop, and
    # golden-section steps one law at a time; each row is the one-law estimate
    cfg = OptimizerConfig(n_samples=60, seed=4, theta_lo=-0.5, theta_hi=3.0, n_grid=7, max_evals=12)
    report = minimize_variational(base, optimizer_cfg=cfg)
    assert report.alpha_hat == estimate_alpha_mc(base, 60, cfg.tol, 4)
    assert report.n_evals == 12 and len(report.objective_curve) == 8  # 7 points and theta = 0
    for row in report.objective_curve:
        tpm = exponential_tilt(base, row["theta"])
        est = expected_F_under(tpm, 60, cfg.tol, 4)
        want = {"E_Q_F": est.value, "kl_per_site": tpm.kl_per_site(), "objective": est.value + tpm.kl_per_site(),
                "stat_halfwidth": est.ci_halfwidth}
        assert {k: row[k] for k in want} == want, row["theta"]
    best = report.var_min_tilt
    assert report.var_min_value == expected_F_under(best, 60, cfg.tol, 4).value + best.kl_per_site()


def test_variational_simplex_report_equals_one_law_at_a_time():
    law = make_distribution({"kind": "finite", "atoms": [[0.0, 0.2], [1.0, 0.3], [2.0, 0.5]]})
    cfg = OptimizerConfig(n_samples=50, seed=2, max_evals=10)
    report = minimize_variational(law, family="free-simplex", optimizer_cfg=cfg)
    assert report.alpha_hat == estimate_alpha_mc(law, 50, cfg.tol, 2)
    best = report.var_min_tilt
    assert report.var_min_value == expected_F_under(best, 50, cfg.tol, 2).value + best.kl_per_site()


def test_batched_grid_holds_the_peak_of_its_costliest_tilt(monkeypatch):
    # the benchmark's grid: alpha_hat and 19 tilts of 300 rows each.  Run one
    # law a call in chunks of 2**18 cells, as before the grid was batched,
    # its peak was that of its costliest tilt; all 6000 rows in one loop must
    # stay within 10% of it, the per-row state of every law included
    laws = [BERN] + [exponential_tilt(BERN, t).tilt for t in np.linspace(-1.0, 4.0, 19)]

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    batched = peak(lambda: lyapunov._alpha_mc_laws(laws, 300, 1e-7, 0))
    monkeypatch.setattr(line_solver, "_CELL_BUDGET", 2**18)
    alone = max(peak(lambda: estimate_alpha_mc(law, 300, 1e-7, 0)) for law in laws)
    assert batched <= 1.1 * alone


@pytest.mark.parametrize(
    "base, theta_lo", [(BERN, -1.0), (make_distribution({"kind": "exponential", "rate": 1.0}), -0.5)]
)
def test_grid_memory_does_not_grow_with_its_tilt_count(base, theta_lo):
    # one loop over every law once kept each law's per-row state at once:
    # 40 tilts of 300 rows peaked 1.65 times as high as 20
    def peak(n_laws):
        laws = [base] + [exponential_tilt(base, t).tilt for t in np.linspace(theta_lo, 4.0, n_laws - 1)]
        tracemalloc.start()
        try:
            lyapunov._alpha_mc_laws(laws, 300, 1e-7, 0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(40) <= 1.1 * peak(20)


def _significant_sign_changes(objective, noise):
    diffs = np.diff(objective)
    signs = [d for d in diffs if abs(d) > noise]
    changes = sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))
    return changes


def test_variational_sandwich_bernoulli():
    beta = estimate_beta(BERN, n_grid=[2, 4, 6], r_ratio=2.0)
    cfg = OptimizerConfig(
        n_samples=800, tol=1e-6, seed=21, theta_lo=-1.0, theta_hi=4.0, n_grid=11, max_evals=40
    )
    report = minimize_variational(BERN, optimizer_cfg=cfg)
    alpha = report.alpha_hat

    at_zero = [row for row in report.objective_curve if row["theta"] == 0.0]
    assert len(at_zero) == 1
    assert at_zero[0]["objective"] == alpha.value  # Q = P shares every seed
    assert at_zero[0]["kl_per_site"] == 0.0

    eps = (
        alpha.ci_halfwidth
        + beta.ci_halfwidth
        + report.stat_halfwidth
        + report.trunc_budget
        + alpha.trunc_bias
        + 0.02  # extrapolation slack on the short beta grid
    )
    assert report.var_min_value <= alpha.value + 1e-12  # theta = 0 is in the family
    assert report.var_min_value >= beta.value - eps

    # coercivity: the curve rises again past the minimizer
    curve = report.objective_curve
    best = min(range(len(curve)), key=lambda i: curve[i]["objective"])
    assert curve[-1]["objective"] > curve[best]["objective"]
    assert curve[0]["objective"] > curve[best]["objective"]

    # common random numbers keep the curve free of noise jitter
    noise = 2.0 * max(row["stat_halfwidth"] for row in curve)
    assert _significant_sign_changes([row["objective"] for row in curve], noise) <= 1


def test_variational_free_simplex_family():
    cfg = OptimizerConfig(n_samples=300, tol=1e-6, seed=4, max_evals=60)
    report = minimize_variational(BERN, family="free-simplex", optimizer_cfg=cfg)
    assert report.var_min_value <= report.alpha_hat.value + 1e-12
    with pytest.raises(ValueError, match="4 atoms"):
        five = make_distribution(
            {"kind": "finite", "atoms": [[float(v), 0.2] for v in range(5)]}
        )
        minimize_variational(five, family="free-simplex", optimizer_cfg=cfg)


@pytest.mark.parametrize("spec", [{"kind": "point", "value": 0.3}, {"kind": "finite", "atoms": [[0.3, 1.0]]}])
def test_free_simplex_on_one_atom_fails_by_name(monkeypatch, spec):
    # the one-atom finite spelling once crashed inside numpy's Nelder-Mead set-up
    monkeypatch.setattr(entropy, "estimate_alpha_mc", None)  # no evaluation may run
    with pytest.raises(ValueError, match="free-simplex minimization needs 2 to 4 atoms, got 1"):
        minimize_variational(make_distribution(spec), family="free-simplex", optimizer_cfg=OptimizerConfig(n_samples=4))


def test_variational_refuses_an_unknown_family_or_an_exponential_simplex_at_once(monkeypatch):
    monkeypatch.setattr(entropy, "estimate_alpha_mc", None)  # no evaluation may run
    expo = make_distribution({"kind": "exponential", "rate": 1.0})
    cfg = OptimizerConfig(n_samples=4)
    with pytest.raises(ValueError, match="free-simplex minimization needs 2 to 4 atoms, got an exponential law"):
        minimize_variational(expo, family="free-simplex", optimizer_cfg=cfg)
    with pytest.raises(ValueError, match="family must be one of"):
        minimize_variational(BERN, family="bogus", optimizer_cfg=cfg)


def test_tilted_measure_requires_matching_support():
    outside = make_distribution({"kind": "finite", "atoms": [[0.0, 0.5], [3.0, 0.5]]})
    tpm = TiltedProductMeasure(base=BERN, tilt=outside)
    assert tpm.kl_per_site() == math.inf


def test_kl_accepts_point_masses():
    point = make_distribution({"kind": "point", "value": 1.0})
    assert kl_divergence(point, BERN) == pytest.approx(math.log(2.0), rel=1e-14)
    assert kl_divergence(point, point) == 0.0


def test_variational_exponential_base_stays_in_family():
    base = make_distribution({"kind": "exponential", "rate": 0.8})
    cfg = OptimizerConfig(n_samples=60, tol=1e-5, seed=2, theta_lo=-2.0, theta_hi=2.0,
                          n_grid=7, max_evals=20)
    report = minimize_variational(base, optimizer_cfg=cfg)
    assert report.var_min_value <= report.alpha_hat.value + 1e-12
    assert all(row["theta"] > -0.8 for row in report.objective_curve)
