"""Span tracer for the traced benchmark run.

The tracer wraps the public functions of every killedwalk module (plus the
two hot methods `PotentialDistribution.ppf` and
`EnvironmentSource.materialize`) from outside the package: it rebinds each
name in every module namespace that holds it, so calls between modules go
through the wrapper too, and restores the originals on `uninstall`.

Each call becomes a span (id, parent, round, name, start, end).  Self time
is the span's duration minus the time its child spans cover.  Counters are
read from arguments and return values only, never from inside the library.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from collections import defaultdict

# Modules are the layers; `_parallel` is reported as `parallel` because a
# metric name must start with a letter or a digit.
LAYERS = ("rng", "env", "line_solver", "lyapunov", "entropy", "tree", "_parallel", "cli")
METHODS = (("env", "PotentialDistribution", "ppf"), ("env", "EnvironmentSource", "materialize"))


def layer_name(module: str) -> str:
    return module.lstrip("_")


def _arg(sig: inspect.Signature, args, kwargs, name: str):
    bound = sig.bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments[name]


class Tracer:
    """Records spans and per-function tallies for one traced round at a time."""

    def __init__(self, package, spans_path):
        self.package = package
        self._spans_file = open(spans_path, "w", encoding="utf-8")
        self._spans_file.write("span_id,parent_id,round,name,start_s,end_s\n")
        self._patches: list[tuple[object, str, object]] = []
        self._next_id = 1
        self.round_id = -1
        self._stack: list[list] = [[0, 0.0]]
        self.spans: list[tuple] = []
        self.tally: dict[str, dict[str, float]] = {}

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        pkg = self.package.__name__
        modules = [sys.modules[f"{pkg}.{name}"] for name in LAYERS]
        namespaces = [self.package, *modules]
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for name, fn in inspect.getmembers(mod, inspect.isfunction):
                if name.startswith("_") or fn.__module__ != mod.__name__:
                    continue
                wrapped = self._wrap(f"{layer_name(short)}.{name}", fn)
                for ns in namespaces:
                    if getattr(ns, name, None) is fn:
                        self._patches.append((ns, name, fn))
                        setattr(ns, name, wrapped)
        for short, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{pkg}.{short}"], cls_name)
            fn = cls.__dict__[meth]
            self._patches.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(f"{short}.{meth}", fn))

    def uninstall(self) -> None:
        for owner, name, fn in reversed(self._patches):
            setattr(owner, name, fn)
        self._patches.clear()

    # -- spans --------------------------------------------------------------

    def begin_round(self, round_id: int) -> None:
        self.round_id = round_id
        self.spans = []
        self.tally = defaultdict(lambda: defaultdict(float))

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span (round, study)."""
        frame = self._enter()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, name, t0, time.perf_counter())

    def _enter(self):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _exit(self, frame, name, t0, t1):
        self._stack.pop()
        parent = self._stack[-1]
        dur = t1 - t0
        parent[1] += dur
        self_s = dur - frame[1]
        self.spans.append((frame[0], parent[0], self.round_id, name, t0, t1))
        tally = self.tally[name]
        tally["calls"] += 1
        tally["incl_s"] += dur
        tally["self_s"] += self_s
        return tally, self_s

    def _wrap(self, name: str, fn):
        extract = EXTRACTORS.get(name)
        sig = inspect.signature(fn) if extract else None
        perf = time.perf_counter
        maps = name == "parallel.ordered_map"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if maps and not hasattr(args[0], "__wrapped__"):
                # a closure mapped over work items: give it a span of its own,
                # so its time counts for the module that defined it
                args = (self._wrap(_mapped_name(args[0]), args[0]), *args[1:])
            frame = self._enter()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                tally, self_s = self._exit(frame, name, t0, perf())
            if extract is not None:
                for key, value in extract(sig, args, kwargs, result, self_s).items():
                    tally[key] += value
            return result

        return traced

    def end_round(self) -> dict:
        """Write the round's spans out and return its tallies."""
        self._spans_file.writelines(
            f"{sid},{parent},{rnd},{name},{t0:.9f},{t1:.9f}\n" for sid, parent, rnd, name, t0, t1 in self.spans
        )
        self.spans = []
        return self.tally

    def close(self) -> None:
        self._spans_file.close()


def _mapped_name(fn) -> str:
    """`lyapunov.annealed_localtime_mc.run_batch` for a nested function."""
    layer = layer_name(fn.__module__.rsplit(".", 1)[-1])
    return f"{layer}.{fn.__qualname__.replace('.<locals>', '').replace('<lambda>', 'lambda')}"


# -- counters read from arguments and return values --------------------------


def _size(result) -> int:
    return int(getattr(result, "size", 1))


def _sweep(sig, args, kwargs, result, self_s):
    w = result[0]
    kind = "scalar" if w.ndim == 1 else "batched"
    return {f"{kind}_sites": w.size, f"{kind}_self_s": self_s}


def _f_limit(sig, args, kwargs, result, self_s):
    # the default barrier schedule is r = -2, -4, -8, ...: log2|r| solves
    r = result.r_used
    return {
        "solved": r is not None,
        "doublings": math.log2(-r) if r else 0.0,
        "r_used_sum": r or 0,
        "not_converged": not result.converged,
    }


def _alpha_mc(sig, args, kwargs, result, self_s):
    return {"samples": _arg(sig, args, kwargs, "n_samples"), "n_dropped": result.params.get("n_dropped", 0)}


def _localtime(sig, args, kwargs, result, self_s):
    return {"paths": result.n_paths, "n_hit": result.n_hit, "n_capped": result.n_capped}


def _beta(sig, args, kwargs, result, self_s):
    methods = [row["method"] for row in result.params["grid"]]
    enum = sum(m == "annealed-enum" for m in methods)
    return {"rows_enum": enum, "rows_mc": len(methods) - enum}


def _rho_env(sig, args, kwargs, result, self_s):
    d = _arg(sig, args, kwargs, "cfg").d
    brackets = result[0]
    # a site's branch forest has d-2 roots and (d-1)^level vertices per root per level
    vertices = sum((d - 2) * sum((d - 1) ** lvl for lvl in range(b.h_bracket.depth_used)) for b in brackets)
    return {"sites": len(brackets), "forest_vertices": vertices}


def _excursions(sig, args, kwargs, result, self_s):
    return {"excursions": _arg(sig, args, kwargs, "n_excursions"), "lost": result[2]}


def _passage(sig, args, kwargs, result, self_s):
    return {"walks": _arg(sig, args, kwargs, "n_walks"), "capped": result[2]}


EXTRACTORS = {
    "rng.keyed_uniform": lambda sig, a, k, r, s: {"sites": _size(r)},
    "env.ppf": lambda sig, a, k, r, s: {"sites": _size(r)},
    "env.materialize": lambda sig, a, k, r, s: {"sites": len(r)},
    "line_solver.forward_step_weights": _sweep,
    "line_solver.F_limit": _f_limit,
    "lyapunov.estimate_alpha_mc": _alpha_mc,
    "lyapunov.annealed_exact_enum": lambda sig, a, k, r, s: {"configs": r.n_configs},
    "lyapunov.annealed_localtime_mc": _localtime,
    "lyapunov.estimate_beta": _beta,
    "entropy.minimize_variational": lambda sig, a, k, r, s: {"n_evals": r.n_evals},
    "tree.rho_environment": _rho_env,
    "tree.simulate_excursions": _excursions,
    "tree.simulate_geodesic_passage": _passage,
    "parallel.ordered_map": lambda sig, a, k, r, s: {"items": len(r)},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def unit_of(name: str) -> str:
    quantity = name.rsplit(".", 1)[1]
    if quantity.endswith("_per_s"):
        return "1/s"
    if quantity.startswith("ms_"):
        return "ms"
    if quantity.startswith("s_per_"):
        return "s"
    if quantity.endswith("_s"):
        return "s"
    if quantity.endswith("_frac") or quantity.startswith("speedup") or quantity == "error_budget":
        return "1"
    if quantity == "r_used_mean":
        return "sites"
    return "count"


def layer_metrics(tally: dict) -> dict[str, float]:
    """Per-layer metrics of one traced round from its tallies.

    The layers' self times plus `bench.self_s` add up to `trace.round_s`,
    the duration of the round's root span.
    """
    t = defaultdict(lambda: defaultdict(float), tally)
    round_s = t["bench.round"]["incl_s"]
    ku, sweep, flim = t["rng.keyed_uniform"], t["line_solver.forward_step_weights"], t["line_solver.F_limit"]
    amc, enum, ltm = t["lyapunov.estimate_alpha_mc"], t["lyapunov.annealed_exact_enum"], t["lyapunov.annealed_localtime_mc"]
    rho, exc, pas = t["tree.rho_environment"], t["tree.simulate_excursions"], t["tree.simulate_geodesic_passage"]
    m = {
        "rng.keyed_uniform.calls": ku["calls"],
        "rng.keyed_uniform.sites": ku["sites"],
        "rng.keyed_uniform.self_s": ku["self_s"],
        "rng.keyed_uniform.sites_per_s": _ratio(ku["sites"], ku["self_s"]),
        "rng.stream_generator.calls": t["rng.stream_generator"]["calls"],
        "env.ppf.sites": t["env.ppf"]["sites"],
        "env.ppf.self_s": t["env.ppf"]["self_s"],
        "env.materialize.calls": t["env.materialize"]["calls"],
        "env.materialize.sites": t["env.materialize"]["sites"],
        "line_solver.forward_step_weights.scalar_sites": sweep["scalar_sites"],
        "line_solver.forward_step_weights.batched_sites": sweep["batched_sites"],
        "line_solver.forward_step_weights.scalar_sites_per_s": _ratio(sweep["scalar_sites"], sweep["scalar_self_s"]),
        "line_solver.forward_step_weights.batched_sites_per_s": _ratio(sweep["batched_sites"], sweep["batched_self_s"]),
        "line_solver.F_limit.calls": flim["calls"],
        "line_solver.F_limit.ms_per_call": 1e3 * _ratio(flim["incl_s"], flim["calls"]),
        "line_solver.F_limit.doublings_per_call": _ratio(flim["doublings"], flim["solved"]),
        "line_solver.F_limit.r_used_mean": _ratio(flim["r_used_sum"], flim["solved"]),
        "line_solver.F_limit.not_converged": flim["not_converged"],
        "line_solver.truncation_tail_bound.self_s": t["line_solver.truncation_tail_bound"]["self_s"],
        "lyapunov.estimate_alpha_mc.samples": amc["samples"],
        "lyapunov.estimate_alpha_mc.samples_per_s": _ratio(amc["samples"], amc["incl_s"]),
        "lyapunov.estimate_alpha_mc.n_dropped": amc["n_dropped"],
        "lyapunov.annealed_exact_enum.configs": enum["configs"],
        "lyapunov.annealed_exact_enum.configs_per_s": _ratio(enum["configs"], enum["incl_s"]),
        "lyapunov.annealed_exact_enum.self_s": enum["self_s"],
        "lyapunov.annealed_localtime_mc.paths": ltm["paths"],
        "lyapunov.annealed_localtime_mc.paths_per_s": _ratio(ltm["paths"], ltm["incl_s"]),
        "lyapunov.annealed_localtime_mc.hit_frac": _ratio(ltm["n_hit"], ltm["paths"]),
        "lyapunov.annealed_localtime_mc.n_capped": ltm["n_capped"],
        "lyapunov.annealed_localtime_mc.self_s": ltm["self_s"] + t["lyapunov.annealed_localtime_mc.run_batch"]["self_s"],
        "lyapunov.estimate_beta.rows_enum": t["lyapunov.estimate_beta"]["rows_enum"],
        "lyapunov.estimate_beta.rows_mc": t["lyapunov.estimate_beta"]["rows_mc"],
        "entropy.minimize_variational.n_evals": t["entropy.minimize_variational"]["n_evals"],
        "entropy.minimize_variational.self_s": t["entropy.minimize_variational"]["self_s"],
        "entropy.expected_F_under.s_per_call": _ratio(
            t["entropy.expected_F_under"]["incl_s"], t["entropy.expected_F_under"]["calls"]
        ),
        "tree.rho_environment.sites": rho["sites"],
        "tree.rho_environment.forest_vertices": rho["forest_vertices"],
        "tree.rho_environment.vertices_per_s": _ratio(rho["forest_vertices"], rho["incl_s"]),
        "tree.rho_environment.self_s": rho["self_s"],
        "tree.simulate_excursions.excursions": exc["excursions"],
        "tree.simulate_excursions.excursions_per_s": _ratio(exc["excursions"], exc["incl_s"]),
        "tree.simulate_excursions.lost_frac": _ratio(exc["lost"], exc["excursions"]),
        "tree.simulate_geodesic_passage.walks": pas["walks"],
        "tree.simulate_geodesic_passage.walks_per_s": _ratio(pas["walks"], pas["incl_s"]),
        "tree.simulate_geodesic_passage.capped": pas["capped"],
        "tree.turning_point_decompose.self_s": t["tree.turning_point_decompose"]["self_s"],
        "parallel.ordered_map.items": t["parallel.ordered_map"]["items"],
        "cli.run.self_s": t["cli.run"]["self_s"],
        "cli.main.io_s": t["cli.main"]["incl_s"] - t["cli.run"]["incl_s"],
    }
    layer_self = {layer_name(mod): 0.0 for mod in LAYERS}
    layer_self["bench"] = 0.0
    for name, row in tally.items():
        layer_self[name.split(".", 1)[0]] += row["self_s"]
    for layer, self_s in layer_self.items():
        m[f"{layer}.self_s"] = self_s
    m["trace.round_s"] = round_s
    m["trace.unattributed_frac"] = _ratio(layer_self["bench"], round_s)
    return {k: float(v) for k, v in m.items()}
