"""Estimators for the quenched and annealed survival decay rates.

The quenched rate is the almost-sure linear decay of -ln e(0, n, omega);
because the negative log survival weight is additive along the line it
equals the mean of the one-step functional, which two independent routes
estimate here (i.i.d. replicas and one long ergodic window).  The annealed
rate comes from -ln E[e(0, n, omega)], estimated either by exact
enumeration over potential configurations or by an exactly unbiased
local-time reweighting of simulated paths.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .env import EnvironmentSource, PotentialDistribution
from .line_solver import F_limit_batch, forward_step_weights
from .rng import stream_generator

Z95 = 1.959963984540054  # two-sided 95% normal quantile
DEFAULT_CONFIG_CAP = 2**22
_LOCALTIME_TAG = 0x6C74  # namespace for local-time path streams


@dataclass(frozen=True)
class LyapunovEstimate:
    """Point estimate with a 95% normal-theory CI.

    trunc_bias is the certified deterministic barrier-truncation budget,
    kept separate from the statistical halfwidth on purpose: the two error
    sources have different semantics.
    """

    value: float
    ci_halfwidth: float
    n_samples: int
    method: str
    params: dict = field(default_factory=dict)
    trunc_bias: float = 0.0


def _mean_F_estimate(
    dist: PotentialDistribution,
    n_samples: int,
    tol: float,
    seed: int,
    method: str = "quenched-mc",
    max_drop_fraction: float = 0.01,
) -> LyapunovEstimate:
    """Sample mean of the one-step functional over i.i.d. environments.

    Sample i draws its environment from stream_id = i, so two runs with
    the same seed share environments sample-by-sample (the common random
    number contract used by the tilted-measure objective).  All samples
    run through one batched barrier-doubling loop (F_limit_batch).
    """
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    rows = F_limit_batch(dist, seed, n_samples, tol=tol)
    values = rows.a_value[rows.converged]
    truncs = rows.trunc_bound[rows.converged]
    n_dropped = n_samples - values.size
    if n_dropped > max_drop_fraction * n_samples:
        raise RuntimeError(
            f"{n_dropped}/{n_samples} samples failed to converge; "
            "law too close to the zero point mass for this tolerance"
        )
    mean = float(values.mean())
    sd = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return LyapunovEstimate(
        value=mean,
        ci_halfwidth=Z95 * sd / math.sqrt(values.size),
        n_samples=int(values.size),
        method=method,
        params={"seed": seed, "tol": tol, "n_dropped": n_dropped},
        trunc_bias=float(truncs.mean()) if truncs.size else 0.0,
    )


def estimate_alpha_mc(
    dist: PotentialDistribution,
    n_samples: int,
    tol: float = 1e-7,
    seed: int = 0,
) -> LyapunovEstimate:
    """Quenched decay rate as the Monte Carlo mean of the one-step
    functional over independent environments."""
    return _mean_F_estimate(dist, n_samples, tol, seed, method="quenched-mc")


def estimate_alpha_ergodic(
    dist: PotentialDistribution,
    n: int,
    r_offset: int = 64,
    seed: int = 0,
    stream_id: int = 0,
) -> list[tuple[int, float]]:
    """Running ratio a_r(0, k) / k along one long environment, k = 1..n.

    By additivity this is the cumulative mean of per-step increments, so
    it converges to the same limit as the i.i.d. estimator.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    r = -abs(int(r_offset))
    if r == 0:
        raise ValueError("r_offset must be nonzero")
    env = EnvironmentSource(dist, seed, stream_id).materialize(r, n)
    omega = env.slice_values(r + 1, n - 1)
    _, log_w = forward_step_weights(omega, 0.5)
    a_cum = -np.cumsum(log_w[-n:])
    ks = np.arange(1, n + 1)
    return list(zip(ks.tolist(), (a_cum / ks).tolist()))


def iterate_configs(dist: PotentialDistribution, n_sites: int, batch_size: int = 65536):
    """Yield (values, probs) batches covering every potential configuration
    on n_sites sites for a finite-support law.

    values has shape (batch, n_sites); probs are the product weights.
    """
    if dist.kind == "point":
        yield np.full((1, n_sites), dist.mass_value), np.ones(1)
        return
    if dist.kind != "finite":
        raise ValueError("exact enumeration needs a finite-support law")
    atom_vals = np.array([v for v, _ in dist.atoms])
    atom_wts = np.array([w for _, w in dist.atoms])
    m = atom_vals.size
    total = m**n_sites
    for start in range(0, total, batch_size):
        idx = np.arange(start, min(start + batch_size, total), dtype=np.int64)
        digits = np.empty((idx.size, n_sites), dtype=np.int64)
        rem = idx
        for j in range(n_sites - 1, -1, -1):
            rem, digits[:, j] = np.divmod(rem, m)
        yield atom_vals[digits], np.prod(atom_wts[digits], axis=1)


@dataclass(frozen=True)
class AnnealedEnumResult:
    f_value: float
    b_value: float
    mean_a: float
    n_configs: int
    barrier_r: int
    trunc_bound: float


def annealed_exact_enum(
    dist: PotentialDistribution,
    n: int,
    r: int,
    p: float = 0.5,
    config_cap: int = DEFAULT_CONFIG_CAP,
) -> AnnealedEnumResult:
    """Exact E[e_r(0, n, omega)] by full enumeration over configurations
    of the sites the walk can pay, r+1 .. n-1.

    Also returns the exact mean of a_r(0, n, omega) (the quenched side of
    the Jensen gap) and a certified upper bound on the barrier bias
    b_r - b: every path counted by f but not by f_r first travels from 0
    to the barrier without touching n (a mirrored sweep integrates that
    passage weight exactly) and must then still pay every window site at
    least once more on its way to n.
    """
    if not (r < 0 < n):
        raise ValueError("need r < 0 < n")
    n_sites = n - 1 - r
    if dist.kind == "finite":
        m = len(dist.atoms)
        if m**n_sites > config_cap:
            raise ValueError(
                f"enumeration cap exceeded: {m}^{n_sites} configurations > {config_cap}"
            )
    f_acc = 0.0
    a_acc = 0.0
    gap_acc = 0.0
    count = 0
    for values, probs in iterate_configs(dist, n_sites):
        _, log_w = forward_step_weights(values, p)
        a_cfg = -np.sum(log_w[:, -n:], axis=1)
        f_acc += float(probs @ np.exp(-a_cfg))
        a_acc += float(probs @ a_cfg)
        # mirrored sweep: right barrier at n, walking left from 0 to r;
        # the return trip to n then pays every window site once more
        _, log_v = forward_step_weights(values[:, ::-1], 1.0 - p)
        log_gap = np.sum(log_v[:, n - 1 :], axis=1) - np.sum(values, axis=1)
        gap_acc += float(probs @ np.exp(log_gap))
        count += values.shape[0]
    return AnnealedEnumResult(
        f_value=f_acc,
        b_value=-math.log(f_acc),
        mean_a=a_acc,
        n_configs=count,
        barrier_r=r,
        trunc_bound=math.log1p(gap_acc / f_acc),
    )


@dataclass(frozen=True)
class LocaltimeMCResult:
    f_value: float
    f_stderr: float
    b_value: float
    b_stderr: float
    n_paths: int
    n_hit: int
    n_capped: int
    barrier_r: int
    trunc_bound: float


def annealed_localtime_mc(
    dist: PotentialDistribution,
    n: int,
    r: int,
    n_paths: int,
    seed: int = 0,
    p: float = 0.5,
    batch_size: int = 4096,
    max_steps: int | None = None,
) -> LocaltimeMCResult:
    """Unbiased estimate of E[e_r(0, n, omega)] by local-time reweighting.

    Paths are simulated under the potential-free walk from 0 until they
    hit n or the barrier; a path that reaches n first scores the product
    over sites of the single-site Laplace transform at its visit count.
    Averaging that score over paths recovers the annealed survival weight
    exactly, with no environment sampling at all.  Paths that hit the
    barrier first score the same product toward trunc_bound, an estimate
    of the certified upper bound on the barrier bias b_r - b (their
    reweighted mass is exactly what deeper barriers would admit).
    """
    if n_paths < 1 or not (r < 0 < n):
        raise ValueError("need n_paths >= 1 and r < 0 < n")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    span = n - r
    if max_steps is None:
        max_steps = 60 * span * span
    lo = r + 1
    n_sites = n - 1 - lo + 1
    n_batches = (n_paths + batch_size - 1) // batch_size

    def run_batch(b: int):
        count = min(batch_size, n_paths - b * batch_size)
        gen = stream_generator(seed, _LOCALTIME_TAG, b)
        pos = np.zeros(count, dtype=np.int64)
        counts = np.zeros((count, n_sites), dtype=np.int64)
        active = np.ones(count, dtype=bool)
        hit = np.zeros(count, dtype=bool)
        steps = 0
        while active.any() and steps < max_steps:
            idx = np.nonzero(active)[0]
            np.add.at(counts, (idx, pos[idx] - lo), 1)
            moves = np.where(gen.random(idx.size) < p, 1, -1)
            pos[idx] += moves
            arrived = pos[idx] == n
            killed = pos[idx] == r
            hit[idx[arrived]] = True
            active[idx[arrived | killed]] = False
            steps += 1
        capped = int(active.sum())
        table = dist.laplace(np.arange(int(counts.max()) + 1)) if count else np.ones(1)
        barrier_hit = ~hit & ~active
        total = total_sq = gap_total = 0.0
        if hit.any():
            scores = np.prod(table[counts[hit]], axis=1)
            total = float(scores.sum())
            total_sq = float((scores**2).sum())
        if barrier_hit.any():
            # +1 visit per site: the continuation from the barrier to the
            # target pays the whole window once more
            extended = dist.laplace(np.arange(int(counts[barrier_hit].max()) + 2))
            gap_total = float(np.prod(extended[counts[barrier_hit] + 1], axis=1).sum())
        return count, total, total_sq, int(hit.sum()), capped, gap_total

    rows = [run_batch(b) for b in range(n_batches)]
    n_tot = sum(row[0] for row in rows)
    s1 = math.fsum(row[1] for row in rows)
    s2 = math.fsum(row[2] for row in rows)
    n_hit = sum(row[3] for row in rows)
    n_capped = sum(row[4] for row in rows)
    gap = math.fsum(row[5] for row in rows) / n_tot
    mean = s1 / n_tot
    var = max(s2 / n_tot - mean**2, 0.0) * n_tot / max(n_tot - 1, 1)
    se = math.sqrt(var / n_tot)
    if mean <= 0.0:
        raise RuntimeError("no path reached the target; increase n_paths or move the barrier")
    return LocaltimeMCResult(
        f_value=mean,
        f_stderr=se,
        b_value=-math.log(mean),
        b_stderr=se / mean,
        n_paths=n_tot,
        n_hit=n_hit,
        n_capped=n_capped,
        barrier_r=r,
        trunc_bound=math.log1p(gap / mean),
    )


def estimate_beta(
    dist: PotentialDistribution,
    n_grid,
    r_ratio: float = 4.0,
    method: str = "auto",
    seed: int = 0,
    n_paths: int = 200_000,
    config_cap: int = DEFAULT_CONFIG_CAP,
) -> LyapunovEstimate:
    """Annealed decay rate from b_r(0, n) on a grid of distances.

    Each grid value of b/n is an upper bound on the limit (the limit is
    the infimum over n), so the estimate carries both an affine-fit slope
    over the top half of the grid (the point value) and the grid minimum
    (a certified upper bound, reported in params).
    """
    ns = sorted(int(n) for n in n_grid)
    if not ns or ns[0] < 1:
        raise ValueError("n_grid must hold positive distances")
    rows = []
    for n in ns:
        r = -math.ceil(r_ratio * n)
        n_sites = n - 1 - r
        use_enum = method == "enum" or (
            method == "auto"
            and (
                dist.kind == "point"
                or (dist.kind == "finite" and len(dist.atoms) ** n_sites <= config_cap)
            )
        )
        if method == "enum" and dist.kind == "exponential":
            raise ValueError("exact enumeration needs a finite-support law")
        if use_enum:
            enum = annealed_exact_enum(dist, n, r, config_cap=config_cap)
            rows.append(
                {
                    "n": n, "r": r, "b": enum.b_value, "se_b": 0.0,
                    "trunc": enum.trunc_bound, "method": "annealed-enum",
                }
            )
        else:
            mc = annealed_localtime_mc(dist, n, r, n_paths, seed=seed)
            rows.append(
                {
                    "n": n, "r": r, "b": mc.b_value, "se_b": mc.b_stderr,
                    "trunc": mc.trunc_bound, "method": "annealed-localtime-mc",
                }
            )
    for row in rows:
        row["b_over_n"] = row["b"] / row["n"]
        row["se_b_over_n"] = row["se_b"] / row["n"]
        row["trunc_over_n"] = row["trunc"] / row["n"]
    i_min = int(np.argmin([row["b_over_n"] for row in rows]))
    top = rows[len(rows) // 2 :] if len(rows) > 1 else rows
    slope, slope_se, intercept = _affine_fit(top)
    warning = ""
    if not math.isfinite(slope) or Z95 * slope_se > 0.25 * max(abs(slope), 1e-12):
        warning = "MC variance too large for a stable extrapolation; trust min_over_grid"
    methods = {row["method"] for row in rows}
    return LyapunovEstimate(
        value=slope,
        ci_halfwidth=Z95 * slope_se,
        n_samples=sum(n_paths if row["method"].endswith("mc") else 1 for row in rows),
        method="annealed-extrapolated" if len(rows) > 1 else rows[0]["method"],
        params={
            "seed": seed,
            "r_ratio": r_ratio,
            "grid": rows,
            "fit_intercept": intercept,
            "min_over_grid": rows[i_min]["b_over_n"],
            "min_over_grid_se": rows[i_min]["se_b_over_n"],
            "min_over_grid_n": rows[i_min]["n"],
            "methods": sorted(methods),
            "warning": warning,
        },
    )


def _affine_fit(rows) -> tuple[float, float, float]:
    """Weighted least squares of b on n; returns (slope, slope_se, intercept)."""
    ns = np.array([row["n"] for row in rows], dtype=np.float64)
    bs = np.array([row["b"] for row in rows], dtype=np.float64)
    ses = np.array([row["se_b"] for row in rows], dtype=np.float64)
    if len(rows) == 1:
        return bs[0] / ns[0], ses[0] / ns[0], 0.0
    w = 1.0 / (ses**2 + 1e-24)
    sw = w.sum()
    nbar = (w * ns).sum() / sw
    bbar = (w * bs).sum() / sw
    var_n = (w * (ns - nbar) ** 2).sum()
    slope = (w * (ns - nbar) * (bs - bbar)).sum() / var_n
    intercept = bbar - slope * nbar
    if np.all(ses == 0.0):
        return float(slope), 0.0, float(intercept)
    slope_se = math.sqrt(((w * (ns - nbar)) ** 2 @ ses**2)) / var_n
    return float(slope), float(slope_se), float(intercept)
