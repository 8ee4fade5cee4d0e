"""Reproducible batch front-end.

Every run resolves its configuration (file plus flag overrides, flags
winning), reads each value it uses through one typed reader, executes one
subcommand, and writes the data file together with a manifest that echoes
the params as given, the library version and the master seed.  A param
left out takes the default of the recorded killedwalk_version.  Feeding
the manifest back through --config reproduces the data files byte for
byte: all randomness is keyed per work item.  --threads is accepted, for
old manifests and scripts, and ignored.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field

from . import __version__
from .env import Environment, EnvironmentSource, make_distribution, sample_environment
from .entropy import OptimizerConfig, check_family, minimize_variational
from .line_solver import F_limit, F_r, green_function_window, two_point_a
from .lyapunov import annealed_transfer, estimate_alpha_mc, estimate_alpha_ergodic, estimate_beta
from .tree import TreeConfig, deepest_depth_cap, first_passage_gf, reduce_to_line, sigma_finite_prob

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
    """One batch run: its command, params as given, seed, format and output base."""

    command: str
    params: dict = field(default_factory=dict)
    seed: int = 0
    format: str = "csv"
    out: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)


class ConfigError(ValueError):
    """A bad configuration entry, named by config_field; the run exits 2."""

    def __init__(self, message: str, config_field: str = ""):
        super().__init__(message)
        self.config_field = config_field


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


def _typed(value, kind):
    """value as kind (int, float, str, dict or list of ints), or None if it
    is not one.  A bool is no number and a float must be finite; an int may
    be written as an integral float, and comes back as given if it is one."""
    if kind in (str, dict):
        return value if isinstance(value, kind) else None
    if kind is list:
        items = [_typed(item, int) for item in value] if isinstance(value, list) else [None]
        return None if None in items else items
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value  # no float round trip: a 64-bit seed keeps every bit
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        return None  # NaN, infinities and ints no float holds fail the bound
    number = float(value)
    return number if kind is float else int(number) if number.is_integer() else None


def _param(p: dict, key: str, default, kind, ok, need: str, prefix: str = ""):
    """p[key], or default when the key is absent, as kind once it passes
    ok (None passes any value of the kind); any other value is a
    ConfigError naming the field.  A None default lets the key be null."""
    value = p.get(key, default)
    if value is None and default is None:
        return None
    typed = _typed(value, kind)
    if typed is None or (ok and not ok(typed)):
        raise ConfigError(f"{prefix}{key} must be {need}, got {value!r}", prefix + key)
    return typed


def _positive(value) -> bool:
    return value > 0


def _at_least(p: dict, key: str, default: int, least: int) -> int:
    return _param(p, key, default, int, lambda v: v >= least, f"an integer >= {least}")


def _n_grid(p: dict, prefix: str = "") -> list:
    return _param(p, "n_grid", [2, 4, 8], list,
                  lambda ns: ns and 1 <= min(ns) and max(ns) <= sys.float_info.max and len(set(ns)) == len(ns),
                  "a list of distinct integers from 1 to the largest float", prefix)


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
    method = _param(p, "method", "mc", str, ("mc", "ergodic").__contains__, "'mc' or 'ergodic'")
    if method == "mc":
        est = estimate_alpha_mc(
            dist,
            n_samples=_at_least(p, "n_samples", 1000, 2),
            tol=_param(p, "tol", 1e-7, float, _positive, "a number > 0"),
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
    ratios = estimate_alpha_ergodic(
        dist,
        n=_at_least(p, "n", 2000, 1),
        r_offset=_param(p, "r_offset", 64, int, bool, "a nonzero integer"),
        seed=config.seed,
        stream_id=_param(p, "stream_id", 0, int, None, "an integer"),
    )
    rows = [{"k": k, "a_over_k": v} for k, v in ratios]
    summary = {"method": "quenched-ergodic", "value": rows[-1]["a_over_k"], "n": len(rows)}
    return {"rows": rows, "columns": CSV_COLUMNS["alpha-ergodic"], "summary": summary}


def _run_beta(config: RunConfig) -> dict:
    p = config.params
    dist = _dist_from(p)
    # "method" and "n_paths" are accepted and ignored: every row is exact
    est = estimate_beta(dist, n_grid=_n_grid(p), r_ratio=_param(p, "r_ratio", 4.0, float, _positive, "a number > 0"))
    rows = [
        {
            "n": row["n"],
            "b_over_n": row["b_over_n"],
            "method": row["method"],
            "stat_err": 0.0,
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
    theta_lo = _param(p, "theta_lo", -1.0, float, None, "a finite number")
    cfg = OptimizerConfig(
        n_samples=_at_least(p, "n_samples", 1000, 2),
        tol=_param(p, "tol", 1e-7, float, _positive, "a number > 0"),
        seed=config.seed,
        theta_lo=theta_lo,
        theta_hi=_param(p, "theta_hi", 6.0, float, lambda v: v > theta_lo, f"a finite number > theta_lo = {theta_lo!r}"),
        n_grid=_at_least(p, "n_grid", 25, 2),
        param_tol=_param(p, "param_tol", 1e-4, float, lambda v: v >= 0, "a finite number >= 0"),
        max_evals=_at_least(p, "max_evals", 200, 0),
    )
    family = _param(p, "family", "exponential-tilt", str, None, "a string")
    try:
        check_family(family, dist)
    except ValueError as exc:
        raise ConfigError(str(exc), "family") from None
    beta_hat = None
    if p.get("beta") is not False:
        beta_cfg = _param(p, "beta", None, dict, None, "an object, null or false") or {}
        r_ratio = _param(beta_cfg, "r_ratio", 4.0, float, _positive, "a number > 0", "beta.")
        beta_hat = estimate_beta(dist, n_grid=_n_grid(beta_cfg, "beta."), r_ratio=r_ratio)
    report = minimize_variational(dist, family=family, optimizer_cfg=cfg)
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
    drift_p = _param(p, "drift_p", None, float, lambda v: 0 < v < 1, "null or a number in (0, 1)")
    d = _at_least(p, "d", 3, 3)
    deepest, why = deepest_depth_cap(d, d - 2, dist)
    depth_cap = _param(p, "depth_cap", 10, int, lambda v: 1 <= v <= deepest, f"an integer >= 1 and at most {deepest}{why}")
    tree_cfg = TreeConfig(d=d, drift_p=drift_p, depth_cap_D=depth_cap)
    n = _at_least(p, "n", 8, 1)
    model = reduce_to_line(
        tree_cfg, dist, n,
        seed=config.seed,
        stream_id=_param(p, "stream_id", 0, int, None, "an integer"),
        r_ratio=_param(p, "r_ratio", 4.0, float, _positive, "a number > 0"),
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
    n_values = _param(p, "n_values", [5, 10, 20], list, lambda ns: all(n >= 1 for n in ns), "a list of integers >= 1")
    window = _param(p, "window", [-100, 100], list, lambda w: len(w) == 2 and w[0] < 0 < w[1], "two integers lo < 0 < hi")
    step = _param(p, "step_right_prob", 0.5, float, lambda s: 0 < s < 1, "a number in (0, 1)")
    alpha_ref = _param(p, "alpha_ref", None, float, _positive, "null or a number > 0")
    tol = _param(p, "tol", 1e-9, float, _positive, "a number > 0")
    stream_id = _param(p, "stream_id", 0, int, None, "an integer")
    env_file = _param(p, "environment_file", None, str, None, "null or a file path")
    if env_file:
        try:
            env = Environment.load(env_file)
        except ValueError as exc:  # a missing or unreadable file is an OSError and exits 1
            raise ConfigError(f"bad environment_file {env_file!r}: {exc}", "environment_file") from None
        window = (env.window_lo, env.window_hi)
    else:
        dist = _dist_from(p)
        env = sample_environment(dist, window, config.seed, stream_id)
    past_end = [n for n in n_values if n >= window[1]]
    if past_end:
        raise ConfigError(f"n_values must lie below the window's right end {window[1]}, got {past_end}", "n_values")
    alpha_ref_ci = None
    if alpha_ref is None:
        # alpha's Monte Carlo estimate, not F_limit of env (one draw of F);
        # it exists only for the symmetric walk on a sampled law
        if env_file or step != 0.5:
            raise ConfigError(
                "alpha_ref is required with an environment_file or a step_right_prob other than 0.5", "alpha_ref"
            )
        est = estimate_alpha_mc(dist, 1000, tol, config.seed)
        alpha_ref, alpha_ref_ci = est.value, est.ci_halfwidth
    rows = []
    for n in n_values:
        g = green_function_window(env, 0, n, window, step)
        neg_log_g = -math.log(g) if g > 0 else math.inf
        rows.append(
            {"n": n, "g_value": g, "neg_log_g": neg_log_g, "ratio": neg_log_g / (n * alpha_ref)}
        )
    summary = {"alpha_ref": alpha_ref, "alpha_ref_ci": alpha_ref_ci, "window": list(window)}
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
        check(f"gamblers-ruin-r{r}", F_r(env, r).e_value, -r / (1.0 - r))
    const = make_distribution({"kind": "point", "value": -math.log(0.8)})
    env = sample_environment(const, (-64, 1), seed=0)
    check("constant-potential-one-step", F_limit(env, tol=1e-12).a_value, math.log(2.0), tol=1e-9)
    delta0 = make_distribution({"kind": "point", "value": 0.0})
    for r in (-1, -4, -9):
        check(f"annealed-gamblers-ruin-r{r}", annealed_transfer(delta0, 1, r).f_value, -r / (1.0 - r))
    n, r = 16, -64
    b_const = annealed_transfer(const, n, r).b_value
    const_env = Environment(r, n, np.full(n - r + 1, const.mean))
    check("annealed-constant-vs-solver-n16", b_const, two_point_a(const_env, 0, n, r))
    check("annealed-constant-rate-n16", b_const / n, math.log(2.0), tol=1e-9)
    for step in (0.3, 0.7):  # the walk without killing reaches 1 surely iff step >= 1/2
        zero = F_limit(EnvironmentSource(delta0, seed=0), tol=1e-12, p=step).a_value
        check(f"zero-potential-one-step-p{step}", zero, max(0.0, math.log((1.0 - step) / step)))
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
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not JSON: {exc}", "config") from None
        # a manifest is itself a valid config: unwrap its echoed run block
        file_cfg = loaded.get("run_config", loaded) if isinstance(loaded, dict) else loaded
        if not (isinstance(file_cfg, dict) and isinstance(file_cfg.get("params", {}), dict)):
            raise ConfigError(f"config must be an object whose params is an object, got {file_cfg!r}", "config")
    command = args.command or _param(file_cfg, "command", "", str, COMMANDS.__contains__, f"given, one of {COMMANDS}")
    params = dict(file_cfg.get("params", {}))
    for key, value in (args.param or []):
        params[key] = value
    seed = args.seed if args.seed is not None else _param(file_cfg, "seed", 0, int, None, "an integer")
    seed &= 0xFFFFFFFFFFFFFFFF  # master seed is a 64-bit word
    fmt = args.format or _param(file_cfg, "format", "csv", str, ("csv", "json").__contains__, "csv or json")
    out = args.out or _param(file_cfg, "out", None, str, None, "null or a path")
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
    except (ValueError, RuntimeError, OSError, MemoryError) as exc:  # a ConfigError exits 2, any other failure 1
        code = 2 if isinstance(exc, ConfigError) else 1
        command = config.command if config else args.command
        record = {"error": str(exc), "field": getattr(exc, "config_field", ""), "command": command, "exit_code": code}
        print(json.dumps(record), file=sys.stderr)
        return code

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
