"""Reproducible batch front-end.

Every run resolves its configuration (file plus flag overrides, flags
winning), executes one subcommand, and writes the data file together with
a manifest that echoes the fully resolved configuration, the library
version and the master seed.  Feeding the manifest back through --config
reproduces the data files byte for byte: all randomness is keyed per
work item.  --threads is accepted, for old manifests and scripts, and
ignored.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field

from . import __version__
from .env import Environment, make_distribution, sample_environment
from .entropy import OptimizerConfig, minimize_variational
from .line_solver import F_limit, green_function_window, two_point_a
from .lyapunov import _is_positive_integer, annealed_transfer, estimate_alpha_mc, estimate_alpha_ergodic, estimate_beta
from .tree import TreeConfig, first_passage_gf, reduce_to_line, sigma_finite_prob

COMMANDS = ("alpha", "beta", "variational", "tree-reduce", "green", "selftest")

CSV_COLUMNS = {
    "alpha": ["method", "value", "ci_halfwidth", "n_samples", "trunc_bias", "n_unconverged"],
    "alpha-ergodic": ["k", "a_over_k"],
    "beta": ["n", "b_over_n", "method", "stat_err", "trunc_err"],
    "variational": ["theta", "E_Q_F", "kl_per_site", "objective"],
    "green": ["n", "g_value", "neg_log_g", "ratio"],
    "tree-reduce": ["site", "rho_lower", "rho_mid", "rho_upper", "h_lower", "h_upper"],
    "selftest": ["check", "value", "expected", "abs_error", "status"],
}


@dataclass
class RunConfig:
    """Fully resolved description of one batch run."""

    command: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    format: str = "csv"
    out: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


class ConfigError(ValueError):
    """A bad configuration entry, named by config_field.

    exit_code 2 marks an entry no run can be set up from; 1 marks a value
    a library routine refuses (out of its range), which exits 1 whether
    the routine or the CLI catches it.
    """

    def __init__(self, message: str, config_field: str = "", exit_code: int = 2):
        super().__init__(message)
        self.config_field = config_field
        self.exit_code = exit_code


def _fmt(value) -> str:
    """Stable text form: shortest float round-trip, so identical numbers
    always serialize to identical bytes."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _write_csv(path: str, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row.get(col)) for col in columns])


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _dist_from(params: dict):
    spec = params.get("distribution")
    if spec is None:
        raise ConfigError("missing distribution spec", config_field="distribution")
    try:
        return make_distribution(spec)
    except ValueError as exc:
        raise ConfigError(f"bad distribution: {exc}", config_field="distribution") from exc


def _r_ratio(p: dict, prefix: str = "") -> float:
    r_ratio = float(p.get("r_ratio", 4.0))
    if not (math.isfinite(r_ratio) and r_ratio > 0):
        raise ConfigError(f"{prefix}r_ratio must be finite and > 0, got {r_ratio!r}", f"{prefix}r_ratio", exit_code=1)
    return r_ratio


def _n_grid(p: dict, prefix: str = "") -> list:
    ns = p.get("n_grid", [2, 4, 8])
    if not (isinstance(ns, list) and ns and all(map(_is_positive_integer, ns)) and len(set(ns)) == len(ns)):
        raise ConfigError(f"{prefix}n_grid must hold distinct positive integers, got {ns!r}", f"{prefix}n_grid", exit_code=1)
    return ns


def _at_least(p: dict, key: str, default: int, least: int) -> int:
    value = int(p.get(key, default))
    if value < least:
        raise ConfigError(f"{key} must be >= {least}, got {value}", key, exit_code=1)
    return value


def run(config: RunConfig) -> dict:
    """Execute one subcommand; returns {"rows", "columns", "summary"}."""
    handler = {
        "alpha": _run_alpha,
        "beta": _run_beta,
        "variational": _run_variational,
        "tree-reduce": _run_tree_reduce,
        "green": _run_green,
        "selftest": _run_selftest,
    }.get(config.command)
    if handler is None:
        raise ConfigError(f"unknown command {config.command!r}", config_field="command")
    return handler(config)


def _run_alpha(config: RunConfig) -> dict:
    p = config.params
    dist = _dist_from(p)
    method = p.get("method", "mc")
    if method == "mc":
        est = estimate_alpha_mc(
            dist,
            n_samples=_at_least(p, "n_samples", 1000, 2),
            tol=float(p.get("tol", 1e-7)),
            seed=config.seed,
        )
        row = {
            "method": est.method,
            "value": est.value,
            "ci_halfwidth": est.ci_halfwidth,
            "n_samples": est.n_samples,
            "trunc_bias": est.trunc_bias,
            "n_unconverged": est.params["n_unconverged"],
        }
        return {"rows": [row], "columns": CSV_COLUMNS["alpha"], "summary": row}
    if method == "ergodic":
        ratios = estimate_alpha_ergodic(
            dist,
            n=int(p.get("n", 2000)),
            r_offset=int(p.get("r_offset", 64)),
            seed=config.seed,
            stream_id=int(p.get("stream_id", 0)),
        )
        rows = [{"k": k, "a_over_k": v} for k, v in ratios]
        summary = {"method": "quenched-ergodic", "value": rows[-1]["a_over_k"], "n": len(rows)}
        return {"rows": rows, "columns": CSV_COLUMNS["alpha-ergodic"], "summary": summary}
    raise ConfigError(f"alpha method must be 'mc' or 'ergodic', got {method!r}", "method")


def _run_beta(config: RunConfig) -> dict:
    p = config.params
    dist = _dist_from(p)
    # "method" and "n_paths" are accepted and ignored: every row is exact
    est = estimate_beta(dist, n_grid=_n_grid(p), r_ratio=_r_ratio(p))
    rows = [
        {
            "n": row["n"],
            "b_over_n": row["b_over_n"],
            "method": row["method"],
            "stat_err": row["se_b_over_n"],
            "trunc_err": row["trunc_over_n"],
        }
        for row in est.params["grid"]
    ]
    summary = {
        "value": est.value,
        "ci_halfwidth": est.ci_halfwidth,
        "method": est.method,
        "min_over_grid": est.params["min_over_grid"],
        "min_over_grid_n": est.params["min_over_grid_n"],
    }
    return {"rows": rows, "columns": CSV_COLUMNS["beta"], "summary": summary}


def _run_variational(config: RunConfig) -> dict:
    p = config.params
    dist = _dist_from(p)
    cfg = OptimizerConfig(
        n_samples=_at_least(p, "n_samples", 1000, 2),
        tol=float(p.get("tol", 1e-7)),
        seed=config.seed,
        theta_lo=float(p.get("theta_lo", -1.0)),
        theta_hi=float(p.get("theta_hi", 6.0)),
        n_grid=_at_least(p, "n_grid", 25, 2),
        param_tol=float(p.get("param_tol", 1e-4)),
        max_evals=int(p.get("max_evals", 200)),
    )
    beta_cfg = p.get("beta", {})
    if beta_cfg is not None and beta_cfg is not False and not isinstance(beta_cfg, dict):
        raise ConfigError(f"beta must be an object, null or false, got {beta_cfg!r}", "beta")
    beta_hat = None
    if beta_cfg is not False:
        beta_cfg = beta_cfg or {}
        beta_hat = estimate_beta(dist, n_grid=_n_grid(beta_cfg, "beta."), r_ratio=_r_ratio(beta_cfg, "beta."))
    report = minimize_variational(
        dist, family=p.get("family", "exponential-tilt"), optimizer_cfg=cfg, beta_hat=beta_hat
    )
    rows = [
        {k: row[k] for k in ("theta", "E_Q_F", "kl_per_site", "objective")}
        for row in report.objective_curve
    ]
    summary = {
        "alpha_hat": report.alpha_hat.value,
        "alpha_ci": report.alpha_hat.ci_halfwidth,
        "beta_hat": beta_hat.value if beta_hat else None,
        "beta_ci": beta_hat.ci_halfwidth if beta_hat else None,
        "var_min_value": report.var_min_value,
        "var_min_theta": report.var_min_tilt.theta,
        "stat_halfwidth": report.stat_halfwidth,
        "trunc_budget": report.trunc_budget,
        "converged": report.converged,
        "n_evals": report.n_evals,
    }
    return {"rows": rows, "columns": CSV_COLUMNS["variational"], "summary": summary}


def _run_tree_reduce(config: RunConfig) -> dict:
    p = config.params
    dist = _dist_from(p)
    try:
        tree_cfg = TreeConfig(
            d=int(p.get("d", 3)),
            drift_p=p.get("drift_p"),
            depth_cap_D=int(p.get("depth_cap", 10)),
        )
    except ValueError as exc:
        raise ConfigError(str(exc), config_field="tree") from exc
    n = _at_least(p, "n", 8, 1)
    model = reduce_to_line(
        tree_cfg, dist, n,
        seed=config.seed,
        stream_id=int(p.get("stream_id", 0)),
        r_ratio=_r_ratio(p),
    )
    rows = [
        {
            "site": b.site_index,
            "rho_lower": b.rho_lower,
            "rho_mid": b.midpoint,
            "rho_upper": b.rho_upper,
            "h_lower": b.h_bracket.lower,
            "h_upper": b.h_bracket.upper,
        }
        for b in model.brackets
    ]
    r = model.env_mid.window_lo
    step = model.step_right_prob
    a_mid = two_point_a(model.env_mid, 0, n, r, step)
    a_low = two_point_a(model.env_lower, 0, n, r, step)
    a_high = two_point_a(model.env_upper, 0, n, r, step)
    summary = {
        "alpha_tilde_per_site": a_mid / n,
        "alpha_tilde_lower": a_low / n,
        "alpha_tilde_upper": a_high / n,
        "systematic_halfwidth": (a_high - a_low) / (2 * n),
        "step_right_prob": step,
        "n": n,
        "max_bracket_halfwidth": model.max_halfwidth,
    }
    return {
        "rows": rows,
        "columns": CSV_COLUMNS["tree-reduce"],
        "summary": summary,
        "environment": model.env_mid,
    }


def _run_green(config: RunConfig) -> dict:
    p = config.params
    n_values = p.get("n_values", [5, 10, 20])
    if not isinstance(n_values, list) or not all(
        isinstance(n, int) and not isinstance(n, bool) and n >= 1 for n in n_values
    ):
        raise ConfigError(f"n_values must be a list of integers >= 1, got {n_values!r}", "n_values")
    window = p.get("window", [-100, 100])
    if not (
        isinstance(window, (list, tuple))
        and len(window) == 2
        and all(isinstance(x, int) and not isinstance(x, bool) for x in window)
        and window[0] < 0 < window[1]
    ):
        raise ConfigError(f"window must be two integers lo < 0 < hi, got {window!r}", "window")
    window = tuple(window)
    env_file = p.get("environment_file")
    if env_file:
        env = Environment.load(env_file)
        window = (env.window_lo, env.window_hi)
    else:
        dist = _dist_from(p)
        env = sample_environment(dist, window, config.seed, int(p.get("stream_id", 0)))
    past_end = [n for n in n_values if n >= window[1]]
    if past_end:
        raise ConfigError(f"n_values must lie below the window's right end {window[1]}, got {past_end}", "n_values")
    step = p.get("step_right_prob", 0.5)
    if isinstance(step, bool) or not isinstance(step, (int, float)) or not 0.0 < step < 1.0:
        raise ConfigError(f"step_right_prob must be a number in (0, 1), got {step!r}", "step_right_prob")
    step = float(step)
    alpha_ref = p.get("alpha_ref")
    if alpha_ref is None:
        alpha_ref = F_limit(env, tol=float(p.get("tol", 1e-9)), p=step).a_value
    rows = []
    for n in n_values:
        g = green_function_window(env, 0, n, window, step)
        neg_log_g = -math.log(g) if g > 0 else math.inf
        rows.append(
            {"n": n, "g_value": g, "neg_log_g": neg_log_g, "ratio": neg_log_g / (n * alpha_ref)}
        )
    summary = {"alpha_ref": alpha_ref, "window": list(window)}
    return {"rows": rows, "columns": CSV_COLUMNS["green"], "summary": summary}


def _run_selftest(config: RunConfig) -> dict:
    """Closed-form identity suite; every row must pass at 1e-12."""
    import numpy as np

    checks = []

    def check(name, value, expected, tol=1e-12):
        err = abs(value - expected)
        checks.append(
            {
                "check": name,
                "value": value,
                "expected": expected,
                "abs_error": err,
                "status": "PASS" if err <= tol else "FAIL",
            }
        )

    check("sigma-finite-prob-d3", sigma_finite_prob(3), 0.8)
    check("sigma-finite-prob-d4", sigma_finite_prob(4), 0.6)
    for d in range(3, 11):
        check(f"first-passage-gf-d{d}", first_passage_gf(d, 1.0), 1.0 / (d - 1))
        gf = first_passage_gf(d, 1.0)
        lhs = sigma_finite_prob(d)
        rhs = 2.0 / d + ((d - 2.0) / d) * gf * lhs
        check(f"sigma-recursion-residual-d{d}", lhs - rhs, 0.0)
    for r in (-1, -4, -9):
        env = Environment(r, 1, np.zeros(1 - r + 1))
        check(f"gamblers-ruin-r{r}", F_limit(env, r_schedule=[r]).e_value, -r / (1.0 - r))
    const = make_distribution({"kind": "point", "value": -math.log(0.8)})
    env = sample_environment(const, (-64, 1), seed=0)
    check("constant-potential-one-step", F_limit(env, tol=1e-12).a_value, math.log(2.0), tol=1e-9)
    delta0 = make_distribution({"kind": "point", "value": 0.0})
    for r in (-1, -4, -9):
        check(f"annealed-gamblers-ruin-r{r}", annealed_transfer(delta0, 1, r).f_value, -r / (1.0 - r))
    n, r = 16, -64
    b_const = annealed_transfer(const, n, r).b_value
    const_env = Environment(r, n, np.full(n - r + 1, const.mass_value))
    check("annealed-constant-vs-solver-n16", b_const, two_point_a(const_env, 0, n, r))
    check("annealed-constant-rate-n16", b_const / n, math.log(2.0), tol=1e-9)
    n_fail = sum(1 for row in checks if row["status"] == "FAIL")
    return {
        "rows": checks,
        "columns": CSV_COLUMNS["selftest"],
        "summary": {"n_checks": len(checks), "n_failed": n_fail},
        "failed": n_fail,
    }


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    file_cfg: dict = {}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            loaded = json.load(fh)
        # a manifest is itself a valid config: unwrap its echoed run block
        file_cfg = loaded.get("run_config", loaded)
    command = args.command or file_cfg.get("command")
    if not command:
        raise ConfigError("no command given (flag or config file)", config_field="command")
    params = dict(file_cfg.get("params", {}))
    for key, value in (args.param or []):
        params[key] = value
    seed = args.seed if args.seed is not None else int(file_cfg.get("seed", 0))
    seed &= 0xFFFFFFFFFFFFFFFF  # master seed is a 64-bit word
    fmt = args.format or file_cfg.get("format", "csv")
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}", config_field="format")
    out = args.out or file_cfg.get("out")
    return RunConfig(command=command, params=params, seed=seed, format=fmt, out=out)


def _parse_param(text: str) -> tuple[str, object]:
    if "=" not in text:
        raise argparse.ArgumentTypeError("expected KEY=JSONVALUE")
    key, raw = text.split("=", 1)
    try:
        return key, json.loads(raw)
    except json.JSONDecodeError:
        return key, raw


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="killedwalk",
        description="survival-exponent laboratory for random walks killed by random potentials",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS, help="subcommand to run")
    parser.add_argument("--config", help="JSON config file (or a previously emitted manifest)")
    parser.add_argument("--seed", type=int, default=None, help="master seed (overrides config)")
    parser.add_argument("--threads", type=int, default=None, help="ignored; accepted so old manifests and scripts still run")
    parser.add_argument("--format", choices=("csv", "json"), default=None)
    parser.add_argument("--out", help="output base path")
    parser.add_argument(
        "--param",
        "-P",
        action="append",
        type=_parse_param,
        metavar="KEY=JSON",
        help="override one params entry, e.g. -P n_samples=4000",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = None
    try:
        config = _resolve_config(args)
        result = run(config)
    except ConfigError as exc:
        record = {"error": str(exc), "field": exc.config_field, "command": args.command, "exit_code": exc.exit_code}
        print(json.dumps(record), file=sys.stderr)
        return exc.exit_code
    except (ValueError, RuntimeError, OSError) as exc:
        command = config.command if config else args.command
        record = {"error": str(exc), "field": "", "command": command, "exit_code": 1}
        print(json.dumps(record), file=sys.stderr)
        return 1

    base = config.out or f"killedwalk-{config.command}"
    data_path = f"{base}.{config.format}"
    manifest_path = f"{base}.manifest.json"
    outputs = {"data": data_path, "manifest": manifest_path}
    if config.command == "tree-reduce":
        env_path = f"{base}.rho-env.json"
        result["environment"].save(env_path)
        outputs["environment"] = env_path
    if config.format == "csv":
        _write_csv(data_path, result["columns"], result["rows"])
    else:
        _write_json(
            data_path,
            {"command": config.command, "rows": result["rows"], "summary": result["summary"]},
        )
    _write_json(
        manifest_path,
        {
            "killedwalk_version": __version__,
            "master_seed": config.seed,
            "run_config": config.to_dict(),
            "outputs": outputs,
        },
    )
    for key, value in result["summary"].items():
        print(f"{key}: {value}")
    for path in outputs.values():
        print(f"wrote {path}")
    if config.command == "selftest":
        for row in result["rows"]:
            print(f"[{row['status']}] {row['check']}: {row['value']!r} vs {row['expected']!r}")
        return 0 if result["failed"] == 0 else 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
