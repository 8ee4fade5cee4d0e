"""The three benchmark workloads: the studies of one round and their checks.

A study is either a `killedwalk` CLI subcommand at a reference config (run
through `cli.main`, which writes a JSON data file and a manifest) or a
library cross-check that no subcommand reaches.  Every study reports the
error budget it carries (CI halfwidths, truncation budgets, bracket
halfwidths) and the output checks it must pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import killedwalk as kw
from killedwalk import cli

Z95 = 1.959963984540054
LN2 = math.log(2.0)
BERN = {"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]}
EXP1 = {"kind": "exponential", "rate": 1.0}
# survival 0.8 per visit: the quenched and annealed rates are both ln 2
POINT = {"kind": "point", "value": -math.log(0.8)}

ORACLE_TOL = 1e-6
EXACT_SLACK = 1e-9  # float noise allowed between two exact sweeps
N_SE = 4.0


def derive_seed(*key: int) -> int:
    """A 32-bit study seed from (workload seed, round, study index)."""
    return int(np.random.SeedSequence([k & 0xFFFFFFFFFFFFFFFF for k in key]).generate_state(1)[0])


@dataclass
class Outcome:
    """What one study produced, read back after its timed call."""

    budget: float
    checks: list[tuple[str, bool, str]] = field(default_factory=list)


def run_cli(argv: list[str]) -> int:
    """`killedwalk` ARGV through `cli.main`, its summary lines discarded."""
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _check(name: str, ok: bool, detail: str) -> tuple[str, bool, str]:
    return (name, bool(ok), detail)


@dataclass(frozen=True)
class CliStudy:
    """One `killedwalk` subcommand; `judge` turns its JSON output into an Outcome."""

    label: str
    stage: str
    command: str
    params: dict
    judge: object

    def argv(self, seed: int, base: str) -> list[str]:
        argv = [self.command, "--seed", str(seed), "--threads", "1", "--format", "json", "--out", base]
        for key, value in self.params.items():
            argv += ["-P", f"{key}={json.dumps(value)}"]
        return argv

    def run(self, seed: int, base: str):
        rc = run_cli(self.argv(seed, base))
        if rc != 0:
            raise RuntimeError(f"killedwalk {self.command} exited with {rc}")
        return base

    def outcome(self, seed: int, raw) -> Outcome:
        with open(f"{raw}.json", encoding="utf-8") as fh:
            data = json.load(fh)
        return self.judge(self, data)


@dataclass(frozen=True)
class CallStudy:
    """A library cross-check; `call(seed)` is timed, `judge(seed, result)` is not."""

    label: str
    stage: str
    call: object
    judge: object

    def run(self, seed: int, base: str):
        return self.call(seed)

    def outcome(self, seed: int, raw) -> Outcome:
        return self.judge(seed, raw)


@dataclass(frozen=True)
class Workload:
    name: str
    studies: tuple
    probe: str  # label of the CLI study replayed at --threads 2


# -- quenched ----------------------------------------------------------------


def _judge_alpha(study, data) -> Outcome:
    s = data["summary"]
    out = Outcome(budget=s["ci_halfwidth"] + s["trunc_bias"])
    if study.params["distribution"] == POINT:
        err = abs(s["value"] - LN2)
        out.checks.append(_check("oracle-alpha-ln2", err <= ORACLE_TOL, f"|alpha - ln 2| = {err:.3e}"))
    return out


def _judge_variational(study, data) -> Outcome:
    s = data["summary"]
    at_zero = [row["objective"] for row in data["rows"] if row["theta"] == 0.0]
    ok = len(at_zero) == 1 and at_zero[0] == s["alpha_hat"]
    detail = f"objective(theta=0) = {at_zero!r}, alpha = {s['alpha_hat']!r}"
    return Outcome(
        budget=s["alpha_ci"] + s["stat_halfwidth"] + s["trunc_budget"],
        checks=[_check("variational-theta0-equals-alpha", ok, detail)],
    )


def _alpha(label: str, spec: dict) -> CliStudy:
    params = {"distribution": spec, "method": "mc", "n_samples": 1000, "tol": 1e-7}
    return CliStudy(label, "primary", "alpha", params, _judge_alpha)


QUENCHED = Workload(
    name="quenched",
    studies=(
        _alpha("alpha-bernoulli", BERN),
        _alpha("alpha-exp1", EXP1),
        # 19 grid points plus theta = 0 spend all 20 evaluations, so no
        # golden-section refinement runs: where it goes depends on the seed,
        # and its cost with it (6.2 s to 8.6 s a study at n_grid 9)
        CliStudy(
            "variational-bernoulli",
            "secondary",
            "variational",
            {
                "distribution": BERN, "family": "exponential-tilt", "n_samples": 300,
                "tol": 1e-7, "theta_lo": -1.0, "theta_hi": 4.0, "n_grid": 19,
                "max_evals": 20, "beta": False,
            },
            _judge_variational,
        ),
        _alpha("alpha-oracle", POINT),
    ),
    probe="alpha-bernoulli",
)


# -- annealed ----------------------------------------------------------------


def _judge_beta(study, data) -> Outcome:
    p = study.params
    dist = kw.make_distribution(p["distribution"])
    s = data["summary"]
    out = Outcome(budget=s["ci_halfwidth"] + sum(row["trunc_err"] for row in data["rows"]))
    for row in data["rows"]:
        # Jensen: E[e] >= e(E omega) because e is convex in omega, so b_n <= a_r(0, n; mean)
        n = row["n"]
        r = -math.ceil(p["r_ratio"] * n)
        env = kw.Environment(r, n, np.full(n - r + 1, dist.mean))
        a_mean = kw.two_point_a(env, 0, n, r)
        b = row["b_over_n"] * n
        slack = N_SE * row["stat_err"] * n if row["method"].endswith("mc") else EXACT_SLACK
        out.checks.append(
            _check(f"jensen-{study.label}-n{n}", b <= a_mean + slack, f"b = {b!r}, a(mean) = {a_mean!r}, slack = {slack:.3e}")
        )
    if p["distribution"] == POINT:
        err = abs(s["value"] - LN2)
        out.checks.append(_check("oracle-beta-ln2", err <= ORACLE_TOL, f"|beta - ln 2| = {err:.3e}"))
    return out


def _beta(label: str, stage: str, spec: dict, n_grid: list[int]) -> CliStudy:
    params = {"distribution": spec, "n_grid": n_grid, "r_ratio": 4.0, "n_paths": 100_000}
    return CliStudy(label, stage, "beta", params, _judge_beta)


ANNEALED = Workload(
    name="annealed",
    studies=(
        _beta("beta-bernoulli", "primary", BERN, [2, 4, 8]),
        _beta("beta-exp1", "secondary", EXP1, [2, 4, 8]),
        _beta("beta-oracle", "primary", POINT, [2, 4, 8, 16]),
    ),
    probe="beta-exp1",
)


# -- tree --------------------------------------------------------------------

TREE_CFG = kw.TreeConfig(d=3, depth_cap_D=10)
TURN_CFG = kw.TreeConfig(d=3, drift_p=0.45)
TURN_SPEC = kw.GeodesicSpec("turning-point", turning_index_k=2, target_index=4)
ZERO_CFG = kw.TreeConfig(d=3, depth_cap_D=60)
BERN_DIST = kw.make_distribution(BERN)
ZERO_DIST = kw.make_distribution({"kind": "point", "value": 0.0})


def _judge_tree_reduce(study, data) -> Outcome:
    s = data["summary"]
    return Outcome(budget=s["systematic_halfwidth"] + s["max_bracket_halfwidth"])


def _judge_excursions(seed: int, result) -> Outcome:
    mean, se, _lost = result
    h = kw.rho_for_site(TREE_CFG, BERN_DIST, 0, seed=seed).h_bracket
    inside = h.lower - N_SE * se <= mean <= h.upper + N_SE * se
    zero = kw.excursion_survival_h(ZERO_CFG, ZERO_DIST)
    target = kw.sigma_finite_prob(3)
    return Outcome(
        budget=Z95 * se + 0.5 * h.width,
        checks=[
            _check("excursion-mc-inside-bracket", inside, f"mean = {mean!r} +- {se:.3e}, bracket = [{h.lower!r}, {h.upper!r}]"),
            _check("zero-potential-bracket-d60", zero.lower <= target <= zero.upper, f"[{zero.lower!r}, {zero.upper!r}] vs {target}"),
        ],
    )


def _judge_passage(seed: int, result) -> Outcome:
    return Outcome(budget=Z95 * result[1])


def _judge_turning(seed: int, report) -> Outcome:
    res = abs(report.additivity_residual)
    return Outcome(budget=0.0, checks=[_check("turning-point-additivity", res <= 1e-12, f"residual = {res:.3e}")])


TREE = Workload(
    name="tree",
    studies=(
        CliStudy(
            "tree-reduce",
            "primary",
            "tree-reduce",
            {"distribution": BERN, "d": 3, "n": 32, "depth_cap": 16},
            _judge_tree_reduce,
        ),
        CallStudy(
            "excursions",
            "secondary",
            lambda seed: kw.simulate_excursions(TREE_CFG, BERN_DIST, site_index=0, n_excursions=5000, seed=seed),
            _judge_excursions,
        ),
        CallStudy(
            "geodesic-passage",
            "secondary",
            lambda seed: kw.simulate_geodesic_passage(TREE_CFG, BERN_DIST, target=2, n_walks=1000, seed=seed),
            _judge_passage,
        ),
        CallStudy(
            "turning-point",
            "secondary",
            lambda seed: kw.turning_point_decompose(TURN_SPEC, TURN_CFG, BERN_DIST, seed=seed, barrier_r=-3),
            _judge_turning,
        ),
    ),
    probe="tree-reduce",
)

WORKLOADS = {w.name: w for w in (QUENCHED, ANNEALED, TREE)}
