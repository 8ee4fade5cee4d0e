"""Acceptance suite: one test per criterion, at the stated tolerance and
time budget, each printing a single PASS/FAIL line (run pytest -s to see
them inline)."""

import json
import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from killedwalk.cli import main as cli_main
from killedwalk.entropy import OptimizerConfig, minimize_variational
from killedwalk.env import Environment, EnvironmentSource, make_distribution, sample_environment
from killedwalk.line_solver import F_limit, green_function_window
from _oracles import (
    WindowModel,
    annealed_exact_enum,
    batched_step_weights,
    iterate_configs,
    solve_survival_window,
)
from killedwalk.lyapunov import annealed_transfer, estimate_alpha_mc, estimate_beta
from killedwalk.tree import TreeConfig, excursion_survival_h, rho_environment, simulate_excursions

BERN = make_distribution({"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]})
CONST = make_distribution({"kind": "point", "value": -math.log(0.8)})
LN2 = math.log(2.0)


def _report(criterion: str, elapsed: float, limit: float, ok: bool, detail: str = ""):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    print(f"[{status}] {criterion} ({elapsed:.2f}s / limit {limit:.0f}s) {detail}")
    assert ok, f"{criterion}: {detail}"
    assert elapsed < limit, f"{criterion}: took {elapsed:.2f}s, budget {limit}s"


def test_criterion_1_closed_form_identities():
    t0 = time.perf_counter()
    ok = True
    details = []

    def expect(name, value, want):
        nonlocal ok
        err = abs(value - want) / max(abs(want), 1.0)
        if err > 1e-12:
            ok = False
            details.append(f"{name}: {value} vs {want}")

    from killedwalk.tree import first_passage_gf, sigma_finite_prob

    expect("L(1) d=3", sigma_finite_prob(3), 0.8)
    expect("L(1) d=4", sigma_finite_prob(4), 0.6)
    for d in range(3, 11):
        gf = first_passage_gf(d, 1.0)
        expect(f"F(1) d={d}", gf, 1.0 / (d - 1))
        lhs = sigma_finite_prob(d)
        expect(f"L-recursion d={d}", lhs, 2.0 / d + ((d - 2.0) / d) * gf * lhs)
    for r in (-1, -4, -9):
        env = Environment(r, 1, np.zeros(1 - r + 1))
        got = solve_survival_window(WindowModel(env, r, 1, 0, 0.5)).e_value
        expect(f"gambler's ruin r={r}", got, -r / (1.0 - r))
    _report("criterion 1: closed-form identities", time.perf_counter() - t0, 1.0, ok, "; ".join(details))


def test_criterion_2_constant_potential_oracle():
    t0 = time.perf_counter()
    limit_abs = 1e-6
    a_limit = F_limit(EnvironmentSource(CONST, seed=0), tol=1e-9).a_value
    a_mc = estimate_alpha_mc(CONST, n_samples=16, tol=1e-9, seed=0).value
    b_extrap = estimate_beta(CONST, n_grid=[2, 4, 8, 16]).value
    cfg = OptimizerConfig(n_samples=4, tol=1e-9, seed=0, theta_lo=-1, theta_hi=1, n_grid=5, max_evals=12)
    m = minimize_variational(CONST, optimizer_cfg=cfg).var_min_value
    errs = {
        "F_limit": a_limit - LN2,
        "alpha_mc": a_mc - LN2,
        "beta_extrapolated": b_extrap - LN2,
        "variational_min": m - LN2,
    }
    ok = all(abs(e) <= limit_abs for e in errs.values())
    detail = ", ".join(f"{k} err {v:.2e}" for k, v in errs.items())
    _report("criterion 2: constant-potential oracle", time.perf_counter() - t0, 10.0, ok, detail)


def test_criterion_3_additivity_multiplicativity():
    t0 = time.perf_counter()
    r = -5
    worst_a = worst_e = 0.0
    for seed in range(100):
        env = sample_environment(BERN, (r, 10), seed=1000 + seed)
        res = {}
        for x in range(0, 11):
            for z in range(x, 11):
                res[(x, z)] = solve_survival_window(WindowModel(env, r, z, x, 0.5))
        for y in range(0, 11):
            for z in range(y, 11):
                a_gap = abs(res[(0, z)].a_value - (res[(0, y)].a_value + res[(y, z)].a_value))
                rel_a = a_gap / max(res[(0, z)].a_value, 1.0)
                e_gap = abs(res[(0, z)].e_value - res[(0, y)].e_value * res[(y, z)].e_value)
                rel_e = e_gap / res[(0, z)].e_value
                worst_a = max(worst_a, rel_a)
                worst_e = max(worst_e, rel_e)
    ok = worst_a <= 1e-12 and worst_e <= 1e-12
    _report(
        "criterion 3: additivity/multiplicativity suite",
        time.perf_counter() - t0, 10.0, ok,
        f"worst relative gaps a {worst_a:.2e}, e {worst_e:.2e}",
    )


def test_criterion_4_oracle_equivalence_and_fkg():
    t0 = time.perf_counter()
    ok = True
    details = []
    for n in (2, 4, 8):
        r = -(13 - n)  # 12 enumerated sites: inside the 14-site budget
        enum = annealed_exact_enum(BERN, n=n, r=r)
        kernel = annealed_transfer(BERN, n, r)
        rel_f = abs(kernel.f_value - enum.f_value) / enum.f_value
        rel_trunc = abs(kernel.trunc_bound - enum.trunc_bound) / enum.trunc_bound
        details.append(f"n={n}: rel f {rel_f:.1e}, rel trunc {rel_trunc:.1e}")
        if max(rel_f, rel_trunc) > 1e-13:
            ok = False
    for n, m, r in ((2, 2, -2), (3, 2, -3)):
        e_joint = e_left = e_right = 0.0
        for values, probs in iterate_configs(BERN, n + m - 1 - r):
            _, lw = batched_step_weights(values, 0.5)
            left = np.sum(lw[:, -(n + m) : -m], axis=1)
            right = np.sum(lw[:, -m:], axis=1)
            e_joint += probs @ np.exp(left + right)
            e_left += probs @ np.exp(left)
            e_right += probs @ np.exp(right)
        slack = e_joint - e_left * e_right
        details.append(f"fkg({n},{m}): slack={slack:.2e}")
        if slack < -1e-12:
            ok = False
    _report("criterion 4: oracle equivalence + FKG", time.perf_counter() - t0, 300.0, ok, "; ".join(details))


def test_criterion_5_jensen_sandwich():
    t0 = time.perf_counter()
    seed = 2024
    beta = estimate_beta(BERN, n_grid=[2, 4, 8, 12], r_ratio=4.0)
    cfg = OptimizerConfig(
        n_samples=2000, tol=1e-7, seed=seed, theta_lo=-1.0, theta_hi=4.0, n_grid=13, max_evals=45
    )
    report = minimize_variational(BERN, optimizer_cfg=cfg)
    alpha = report.alpha_hat
    m = report.var_min_value

    jensen_budget = alpha.ci_halfwidth + beta.ci_halfwidth + alpha.trunc_bias
    ok_jensen = alpha.value >= beta.value - jensen_budget

    eps = (
        alpha.ci_halfwidth
        + beta.ci_halfwidth
        + report.stat_halfwidth
        + report.trunc_budget
        + alpha.trunc_bias
        + max(row["trunc_over_n"] for row in beta.params["grid"])
    )
    ok_sandwich = (beta.value - eps <= m) and (m <= alpha.value + eps)

    at_zero = [row for row in report.objective_curve if row["theta"] == 0.0]
    ok_anchor = len(at_zero) == 1 and at_zero[0]["objective"] == alpha.value

    ok = ok_jensen and ok_sandwich and ok_anchor
    detail = (
        f"alpha {alpha.value:.4f}±{alpha.ci_halfwidth:.4f}, beta {beta.value:.4f}"
        f"±{beta.ci_halfwidth:.4f}, min {m:.4f}, eps {eps:.4f}, anchor exact: {ok_anchor}"
    )
    _report("criterion 5: Jensen ordering + variational sandwich", time.perf_counter() - t0, 600.0, ok, detail)


def test_criterion_6_tree_reduction():
    t0 = time.perf_counter()
    ok = True
    details = []

    cfg60 = TreeConfig(3, depth_cap_D=64)
    delta0 = make_distribution({"kind": "point", "value": 0.0})
    widths = {}
    for depth in range(1, 61):
        h = excursion_survival_h(replace(cfg60, depth_cap_D=depth), delta0)
        widths[depth] = h.upper - h.lower
        if not (h.lower <= 0.8 <= h.upper):
            ok = False
            details.append(f"zero-potential bracket misses L(1) at D={depth}")
    if widths[60] > 1e-9:
        ok = False
    details.append(f"width(60)={widths[60]:.2e}")

    cfg = TreeConfig(3, depth_cap_D=10)
    site, seed, stream = 3, 5, 9
    bracket = rho_environment(cfg, BERN, (0, site), seed=seed, stream_id=stream)[0][site].h_bracket
    mean, se, _ = simulate_excursions(
        cfg, BERN, site_index=site, n_excursions=100_000, seed=seed, stream_id=stream
    )
    inside = bracket.lower - 4 * se <= mean <= bracket.upper + 4 * se
    details.append(f"excursion MC {mean:.5f}±{se:.5f} vs [{bracket.lower:.5f}, {bracket.upper:.5f}]")
    ok = ok and inside

    seq = rho_environment(cfg, BERN, (0, 299), seed=6)[0]
    uppers = np.array([b.rho_upper for b in seq])
    mean_width = float(np.mean([b.rho_upper - b.rho_lower for b in seq]))
    bound = BERN.mean + math.log(3.0 / 2.0) + mean_width + 4 * uppers.std(ddof=1) / math.sqrt(uppers.size)
    ok_rho = uppers.mean() <= bound
    details.append(f"mean rho {uppers.mean():.4f} <= bound {bound:.4f}")
    ok = ok and ok_rho

    _report("criterion 6: tree reduction", time.perf_counter() - t0, 300.0, ok, "; ".join(details))


def test_criterion_7_shape_theorem_diagnostic():
    t0 = time.perf_counter()
    env = sample_environment(CONST, (-100, 100), seed=0)
    deviations = []
    for n in (5, 10, 20):
        g = green_function_window(env, 0, n, (-100, 100))
        ratio = -math.log(g) / (n * LN2)
        deviations.append(abs(ratio - 1.0))
    ok = deviations[0] <= 0.15 and deviations[0] >= deviations[1] >= deviations[2]
    _report(
        "criterion 7: shape-theorem diagnostic",
        time.perf_counter() - t0, 120.0, ok,
        "deviations " + ", ".join(f"{d:.4f}" for d in deviations),
    )


def test_criterion_8_reproducibility(tmp_path):
    t0 = time.perf_counter()
    configs = {
        "alpha": {
            "command": "alpha",
            "params": {
                "distribution": {"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]},
                "n_samples": 80,
                "tol": 1e-6,
            },
            "seed": 31,
        },
        "beta": {
            "command": "beta",
            "params": {
                "distribution": {"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]},
                "n_grid": [2, 6],
                "r_ratio": 3.0,
                "n_paths": 30_000,
            },
            "seed": 32,
        },
        "tree-reduce": {
            "command": "tree-reduce",
            "params": {
                "distribution": {"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]},
                "d": 3,
                "n": 3,
                "depth_cap": 8,
            },
            "seed": 33,
        },
        "variational": {
            "command": "variational",
            "params": {
                "distribution": {"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]},
                "n_samples": 40,
                "tol": 1e-6,
                "n_grid": 5,
                "max_evals": 12,
                "beta": False,
            },
            "seed": 34,
        },
        "green": {
            "command": "green",
            "params": {
                "distribution": {"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]},
                "window": [-60, 60],
                "n_values": [4, 8],
            },
            "seed": 35,
        },
    }
    cwd = os.getcwd()
    os.chdir(tmp_path)
    ok = True
    details = []
    try:
        for name, payload in configs.items():
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps(payload))
            assert cli_main(["--config", str(cfg_path), "--out", f"{name}-a", "--threads", "1"]) == 0
            manifest = str(tmp_path / f"{name}-a.manifest.json")
            assert cli_main(["--config", manifest, "--out", f"{name}-b", "--threads", "4"]) == 0
            same = (tmp_path / f"{name}-a.csv").read_bytes() == (tmp_path / f"{name}-b.csv").read_bytes()
            details.append(f"{name}: identical={same}")
            ok = ok and same
            if name == "tree-reduce":
                same_env = (
                    (tmp_path / "tree-reduce-a.rho-env.json").read_bytes()
                    == (tmp_path / "tree-reduce-b.rho-env.json").read_bytes()
                )
                details.append(f"rho-env identical={same_env}")
                ok = ok and same_env
    finally:
        os.chdir(cwd)
    _report("criterion 8: manifest/thread reproducibility", time.perf_counter() - t0, 120.0, ok, "; ".join(details))
