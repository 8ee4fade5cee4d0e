"""Estimators for the quenched and annealed survival decay rates.

The quenched rate is the almost-sure linear decay of -ln e(0, n, omega);
because the negative log survival weight is additive along the line it
equals the mean of the one-step functional, which two independent routes
estimate here (i.i.d. replicas and one long ergodic window).  The annealed
rate comes from -ln E[e(0, n, omega)].  A path on Z from 0 to n passes
every site in between, so its crossing counts fix it and E[e] is exact in
polynomial time: a transfer kernel over crossing counts (annealed_transfer)
gives every row of estimate_beta.  An exactly unbiased local-time
reweighting of simulated paths (annealed_localtime_mc) stays as the
independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .env import EnvironmentSource, PotentialDistribution
from .line_solver import F_limit_batch, forward_step_weights
from .rng import stream_generator

Z95 = 1.959963984540054  # two-sided 95% normal quantile
_MAX_CROSSING_CAP = 2**11  # a K x K kernel of 32 MB
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
) -> LyapunovEstimate:
    """Sample mean of the one-step functional over i.i.d. environments.

    Sample i draws its environment from stream_id = i, so two runs with
    the same seed share environments sample-by-sample (the common random
    number contract used by the tilted-measure objective).  All samples
    run through one batched barrier-doubling loop (F_limit_batch).  A row
    that did not converge by the deepest barrier is kept: its trunc_bound
    certifies its overestimate all the same, so it enters trunc_bias, and
    params counts it as n_unconverged.
    """
    if n_samples < 2:
        raise ValueError("need n_samples >= 2")
    rows = F_limit_batch(dist, seed, n_samples, tol=tol)
    return LyapunovEstimate(
        value=float(rows.a_value.mean()),
        ci_halfwidth=Z95 * float(rows.a_value.std(ddof=1)) / math.sqrt(n_samples),
        n_samples=n_samples,
        method=method,
        params={"seed": seed, "tol": tol, "n_unconverged": int(n_samples - rows.converged.sum())},
        trunc_bias=float(rows.trunc_bound.mean()),
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


@dataclass(frozen=True)
class AnnealedTransferResult:
    """E[e_r(start, n, omega)] from the crossing-count transfer kernel.

    trunc_bound certifies the barrier bias b_r - b.  The kernel keeps the
    paths that cross no edge leftward more than kernel_cap times;
    kernel_tail (at most 2^-52 f) bounds the mass f - f_K it drops, and
    bounds what it drops from the barrier gap as well.
    """

    f_value: float
    b_value: float
    barrier_r: int
    trunc_bound: float
    kernel_cap: int
    kernel_tail: float


def _site_kernels(p: float, phi: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """M_s[a, b] = C(L-1, a) p^(b+s) q^a phi(L) with L = a + b + s visits,
    for s = 0 and s = 1 (s = 1 when the walk starts at or left of the site).

    a and b count the leftward crossings of the site's left and right edge.
    Pascal's rule gives C(m, a) p^(m-a) q^a from positive terms only.  The
    entry is 0 when a > 0 = b + s (the last exit goes right) and phi(0)
    when L = 0.
    """
    g = np.zeros((2 * cap + 2, cap + 1))  # row m + 1 holds C(m, .) p^(m-.) q^.
    g[1, 0] = 1.0
    for m in range(2, 2 * cap + 2):
        np.multiply(g[m - 1], p, out=g[m])
        g[m, 1:] += (1.0 - p) * g[m - 1, :-1]
    a = np.arange(cap + 1)[:, None]
    visits = a + a.T
    m0 = p * g[visits, a] * phi[visits]
    m0[0, 0] = phi[0]
    return m0, p * g[visits + 1, a] * phi[visits + 1]


def _log_transfer(p_sites, s_sites, phi: np.ndarray, cap: int) -> float:
    """ln e_0' M_1 ... M_m e_0 over the given sites, rescaled site by site."""
    kernels: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    v = np.zeros(cap + 1)
    v[0] = 1.0
    log_scale = 0.0
    for p, s in zip(p_sites, s_sites):
        if p not in kernels:
            kernels[p] = _site_kernels(p, phi, cap)
        v = v @ kernels[p][s]
        top = v.max()
        if top == 0.0:
            return -math.inf
        v /= top
        log_scale += math.log(top)
    return log_scale + math.log(v[0])


def _log_kernel_tails(dist: PotentialDistribution, log_ab: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """ln of phi(K+1) sum_x (A_x B_x)^(K+1), a bound on f - f_K, per cap K.

    A path that crosses edge (x, x+1) leftward more than K times visits
    x+1 more than K times, and each crossing is a round trip x+1 -> x ->
    x+1 that the potential-free walk survives with probability A_x B_x.
    """
    if log_ab.size == 0:  # a one-site window has no edge to cross back
        return np.full(caps.shape, -np.inf)
    terms = np.multiply.outer(caps + 1.0, log_ab)
    top = terms.max(axis=1)
    with np.errstate(divide="ignore"):
        log_phi = np.log(dist.laplace(caps + 1))
    return log_phi + top + np.log(np.exp(terms - top[:, None]).sum(axis=1))


def annealed_transfer(
    dist: PotentialDistribution, n: int, r: int, p=0.5, start: int = 0
) -> AnnealedTransferResult:
    """Exact E[e_r(start, n, omega)] by the crossing-count transfer kernel.

    A path from start to its first hit of n, killed at r, is fixed up to
    prod_y C(L_y - 1, d_{y-1}) orderings by its leftward edge crossings
    d_y (discrete Ray-Knight).  Averaging the potential of each site over
    its L_y visits turns E[e] into a product of site kernels on the
    crossing counts, e_0' M_{r+1} ... M_{n-1} e_0, at cost O((n - r) K^2).
    p is the step-right probability, a scalar or one value per site
    r+1 .. n-1.

    The crossing cap K is the smallest whose kernel tail is at most 2^-52
    times a lower bound on f (the kernel at a small cap).  trunc_bound: every
    path counted by f but not by f_r first travels from start to the
    barrier without touching n (the mirrored kernel integrates that
    passage) and must then pay every window site at least once more on its
    way to n (phi(L + 1) at every site).
    """
    if not (r < start < n):
        raise ValueError(f"need r < start < n, got r={r}, start={start}, n={n}")
    sites = np.arange(r + 1, n)
    p_arr = np.asarray(p, dtype=np.float64)
    if p_arr.shape not in ((), sites.shape) or not np.all((p_arr > 0.0) & (p_arr < 1.0)):
        raise ValueError(f"p must lie in (0, 1), as a scalar or one value per site {r + 1} .. {n - 1}")
    p_arr = np.broadcast_to(p_arr, sites.shape)
    p_list = p_arr.tolist()
    s_fwd = (sites >= start).astype(int).tolist()
    pilot = 16  # f_16 <= f is the lower bound the cap is chosen against
    log_f_lower = _log_transfer(p_list, s_fwd, dist.laplace(np.arange(2 * pilot + 2)), pilot)
    if log_f_lower == -math.inf:
        raise ValueError("the annealed survival weight underflows on this window")
    # B_x = P_x(hit x+1 before r), A_x = P_{x+1}(hit x before n) without potential
    zero = np.zeros(sites.size)
    _, log_b = forward_step_weights(zero, p_arr)
    _, log_a = forward_step_weights(zero, 1.0 - p_arr[::-1])
    log_ab = log_b[:-1] + log_a[::-1][1:]
    tails = _log_kernel_tails(dist, log_ab, np.arange(_MAX_CROSSING_CAP + 1))
    fits = np.flatnonzero(tails <= log_f_lower - 52.0 * math.log(2.0))
    if fits.size == 0:
        raise ValueError(
            f"the transfer kernel needs more than {_MAX_CROSSING_CAP} crossings per edge "
            f"on the window ({r}, {n}); use a smaller barrier distance"
        )
    cap = int(fits[0])
    phi = dist.laplace(np.arange(2 * cap + 3))
    log_f = _log_transfer(p_list, s_fwd, phi[:-1], cap)
    # mirrored: from start down to r with n as the barrier, one more visit per site
    q_rev = [1.0 - x for x in reversed(p_list)]
    s_rev = (sites[::-1] <= start).astype(int).tolist()
    log_gap = _log_transfer(q_rev, s_rev, phi[1:], cap)
    return AnnealedTransferResult(
        f_value=math.exp(log_f),
        b_value=-log_f,
        barrier_r=r,
        trunc_bound=math.log1p(math.exp(log_gap - log_f)),
        kernel_cap=cap,
        kernel_tail=math.exp(tails[cap]),
    )


@dataclass(frozen=True)
class LocaltimeMCResult:
    """Local-time Monte Carlo estimate of E[e_r(0, n, omega)].

    trunc_bound estimates the barrier bias b_r - b.  cap_bound certifies
    what scoring the n_capped paths still running at max_steps as zero
    adds to b_value: log1p of their partial scores over the scored total.
    """

    f_value: float
    f_stderr: float
    b_value: float
    b_stderr: float
    n_paths: int
    n_hit: int
    n_capped: int
    barrier_r: int
    trunc_bound: float
    cap_bound: float


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
    reweighted mass is exactly what deeper barriers would admit).  Paths
    still running after max_steps score zero; their partial scores go to
    cap_bound instead.  The Laplace transform is nonincreasing in the
    visit count, so a partial score bounds the score of every
    continuation, and log1p(sum of partial scores / scored total) bounds
    how far the zeros lift b_value.
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
        total = total_sq = gap_total = cap_total = 0.0
        if capped:
            cap_total = float(np.prod(table[counts[active]], axis=1).sum())
        if hit.any():
            scores = np.prod(table[counts[hit]], axis=1)
            total = float(scores.sum())
            total_sq = float((scores**2).sum())
        if barrier_hit.any():
            # +1 visit per site: the continuation from the barrier to the
            # target pays the whole window once more
            extended = dist.laplace(np.arange(int(counts[barrier_hit].max()) + 2))
            gap_total = float(np.prod(extended[counts[barrier_hit] + 1], axis=1).sum())
        return count, total, total_sq, int(hit.sum()), capped, gap_total, cap_total

    rows = [run_batch(b) for b in range(n_batches)]
    n_tot = sum(row[0] for row in rows)
    s1 = math.fsum(row[1] for row in rows)
    s2 = math.fsum(row[2] for row in rows)
    n_hit = sum(row[3] for row in rows)
    n_capped = sum(row[4] for row in rows)
    gap = math.fsum(row[5] for row in rows) / n_tot
    cap = math.fsum(row[6] for row in rows) / n_tot
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
        cap_bound=math.log1p(cap / mean),
    )


def estimate_beta(dist: PotentialDistribution, n_grid, r_ratio: float = 4.0) -> LyapunovEstimate:
    """Annealed decay rate from b_r(0, n) on a grid of distances.

    Every grid row is exact (annealed_transfer) with the barrier at
    r = -ceil(r_ratio * n).  Each b/n is an upper bound on the limit (the
    limit is the infimum over n), so the estimate carries both an affine-fit
    slope over the top half of the grid (the point value) and the grid
    minimum (a certified upper bound, reported in params).
    """
    ns = list(n_grid) if np.iterable(n_grid) else []
    if not ns or len(set(ns)) < len(ns) or not all(map(_is_positive_integer, ns)):
        raise ValueError(f"n_grid must hold distinct positive integers, got {n_grid!r}")
    if not (math.isfinite(r_ratio) and r_ratio > 0):
        raise ValueError(f"r_ratio must be finite and > 0, got {r_ratio!r}")
    rows = []
    for n in sorted(int(n) for n in ns):
        r = -math.ceil(r_ratio * n)
        res = annealed_transfer(dist, n, r)
        rows.append(
            {
                "n": n, "r": r, "b": res.b_value, "se_b": 0.0, "trunc": res.trunc_bound,
                "b_over_n": res.b_value / n, "se_b_over_n": 0.0, "trunc_over_n": res.trunc_bound / n,
                "kernel_cap": res.kernel_cap, "kernel_tail": res.kernel_tail, "method": "annealed-transfer",
            }
        )
    best = min(rows, key=lambda row: row["b_over_n"])
    top = rows[len(rows) // 2 :]
    if len(top) > 1:  # least-squares line b = slope * n + intercept
        slope, intercept = np.polyfit([row["n"] for row in top], [row["b"] for row in top], 1)
    else:
        slope, intercept = top[0]["b_over_n"], 0.0
    return LyapunovEstimate(
        value=float(slope),
        ci_halfwidth=0.0,
        n_samples=len(rows),
        method="annealed-extrapolated" if len(rows) > 1 else "annealed-transfer",
        params={
            "r_ratio": r_ratio,
            "grid": rows,
            "fit_intercept": float(intercept),
            "min_over_grid": best["b_over_n"],
            "min_over_grid_n": best["n"],
        },
    )


def _is_positive_integer(n) -> bool:
    numeric = isinstance(n, (int, float, np.integer, np.floating)) and not isinstance(n, bool)
    return numeric and float(n).is_integer() and n >= 1
