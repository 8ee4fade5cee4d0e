"""Estimators for the quenched and annealed survival decay rates.

The quenched rate is the almost-sure linear decay of -ln e(0, n, omega);
because the negative log survival weight is additive along the line it
equals the mean of the one-step functional, which two independent routes
estimate here (i.i.d. replicas and one long ergodic window).  The annealed
rate comes from -ln E[e(0, n, omega)].  A path on Z from 0 to n passes
every site in between, so its crossing counts fix it and E[e] is exact in
polynomial time: a transfer kernel over crossing counts (annealed_transfer)
gives every row of estimate_beta.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .env import EnvironmentSource, PotentialDistribution, _checked_int
from .line_solver import _barrier, _forward_sweep, _keyed_rows, _step_probs, _tol, forward_step_weights

Z95 = 1.959963984540054  # two-sided 95% normal quantile
# rows of one _keyed_rows call of _alpha_mc_laws, whose laws run in groups of
# whole laws (one law at least).  The benchmark's variational grid, 20 laws x
# 300 rows, must peak within 1.1 x its costliest tilt alone, 633 KB: groups
# of 1800 rows read 593 KB (14.6-15.7 ms a grid), of 2400 644 KB, of 3000
# 701 KB, and one group 841 KB (13.0-13.3 ms); groups of 600 read 487 KB
# but took 18.6-18.8 ms
_GROUP_ROWS = 1800
_MAX_CROSSING_CAP = 2**11  # a (2K + 2) x (K + 1) Pascal table of 67 MB, K x K kernels of 34 MB


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


def estimate_alpha_mc(
    dist: PotentialDistribution,
    n_samples: int,
    tol: float = 1e-7,
    seed: int = 0,
) -> LyapunovEstimate:
    """Quenched decay rate as the Monte Carlo mean of the one-step
    functional over independent environments.

    Sample i draws its environment from stream_id = i, so two runs with
    the same seed share environments sample by sample; the variational
    objective relies on that when it passes each tilted law as dist.  This
    is the one-law case of _alpha_mc_laws: the samples are the rows of one
    keyed barrier-doubling loop (line_solver._keyed_rows), those of
    F_limit_batch digit for digit.  A row that did not converge by the
    deepest barrier is kept: its trunc_bound certifies its overestimate all
    the same, so it enters trunc_bias, and params counts it as
    n_unconverged.
    """
    return _alpha_mc_laws([dist], n_samples, tol, seed)[0]


def _alpha_mc_laws(dists, n_samples: int, tol: float, seed: int) -> list[LyapunovEstimate]:
    """estimate_alpha_mc(dist, n_samples, tol, seed) for every dist in
    dists, from line_solver._keyed_rows calls on groups of whole laws of
    at most _GROUP_ROWS rows (one law at least), so that the loop's per-row
    state stays bounded however many laws there are.  Each group's rows
    become estimates before the next group runs; tol is read by _tol."""
    n_samples = _checked_int(n_samples, "n_samples", 2)
    seed = _checked_int(seed, "seed")
    tol = _tol(tol)
    per_group = max(1, _GROUP_ROWS // n_samples)
    return [
        LyapunovEstimate(
            value=float(rows.a_value.mean()),
            ci_halfwidth=Z95 * float(rows.a_value.std(ddof=1)) / math.sqrt(n_samples),
            n_samples=n_samples,
            method="quenched-mc",
            params={"seed": seed, "tol": tol, "n_unconverged": int(n_samples - rows.converged.sum())},
            trunc_bias=float(rows.trunc_bound.mean()),
        )
        for start in range(0, len(dists), per_group)
        for rows in _keyed_rows(dists[start : start + per_group], seed, np.arange(n_samples), tol, 0.5)
    ]


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
    n = _checked_int(n, "n", 1)
    r = -abs(_checked_int(r_offset, "r_offset"))
    if r == 0:
        raise ValueError("r_offset must be nonzero")
    omega = EnvironmentSource(dist, seed, stream_id).slice_values(r + 1, n - 1)
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
    trunc_bound: float
    kernel_cap: int
    kernel_tail: float


def _pascal_table(p: float, cap: int) -> np.ndarray:
    """Row m + 1 holds C(m, a) p^(m-a) q^a for a = 0 .. cap, m < 2 cap + 1.

    Pascal's rule builds it from positive terms only.  Column a reads only
    columns a - 1 and a of the row above, so a table built at a larger cap
    holds this one as its leading block, entry for entry.
    """
    g = np.zeros((2 * cap + 2, cap + 1))
    g[1, 0] = 1.0
    for m in range(2, 2 * cap + 2):
        np.multiply(g[m - 1], p, out=g[m])
        g[m, 1:] += (1.0 - p) * g[m - 1, :-1]
    return g


def _site_kernels(p: float, table: np.ndarray, phi: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """M_s[a, b] = C(L-1, a) p^(b+s) q^a phi(L) with L = a + b + s visits,
    for s = 0 and s = 1 (s = 1 when the walk starts at or left of the site).

    a and b count the leftward crossings of the site's left and right edge.
    table is _pascal_table(p, c) at any c >= cap, and phi holds phi(0) ..
    phi(2 cap + 1) at least.  table[L, a] is a walk of fixed stride through
    the table and phi(L) a Hankel view of phi, so no index array is built.
    The entry is 0 when a > 0 = b + s (the last exit goes right) and phi(0)
    when L = 0.
    """
    if table.ndim != 2 or table.shape[0] < 2 * cap + 2 or table.shape[1] < cap + 1:
        raise ValueError(f"a Pascal table for cap {cap} needs shape >= {(2 * cap + 2, cap + 1)}, got {table.shape}")
    if phi.ndim != 1 or phi.size < 2 * cap + 2:
        raise ValueError(f"phi for cap {cap} needs {2 * cap + 2} values, got shape {phi.shape}")
    rows, cols = table.strides
    shape = (cap + 1, cap + 1)
    m0, m1 = np.empty(shape), np.empty(shape)
    for s, m in ((0, m0), (1, m1)):
        np.multiply(p, as_strided(table[s:], shape, (rows + cols, rows)), out=m)
        m *= as_strided(phi[s:], shape, (phi.strides[0],) * 2)
    m0[0, 0] = phi[0]
    return m0, m1


def _log_transfer(p_sites, s_sites, phi: np.ndarray, cap: int, tables: dict | None = None) -> float:
    """ln e_0' M_1 ... M_m e_0 over the given sites, rescaled site by site.

    tables maps p to a Pascal table; a missing table, or one built at a
    cap below this one, is built at cap and stored, so callers that pass one
    dict share the builds, and a larger table serves every smaller cap.
    """
    tables = {} if tables is None else tables
    kernels: dict[float, tuple[np.ndarray, np.ndarray]] = {}
    v = np.zeros(cap + 1)
    v[0] = 1.0
    log_scale = 0.0
    for p, s in zip(p_sites, s_sites):
        if p not in kernels:
            if p not in tables or tables[p].shape[1] <= cap:
                tables[p] = _pascal_table(p, cap)
            kernels[p] = _site_kernels(p, tables[p], phi, cap)
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
    Each cap's value depends on that cap alone.
    """
    if log_ab.size == 0:  # a one-site window has no edge to cross back
        return np.full(caps.shape, -np.inf)
    terms = np.multiply.outer(caps + 1.0, log_ab)
    top = terms.max(axis=1)
    with np.errstate(divide="ignore"):
        log_phi = np.log(dist.laplace(caps + 1))
    return log_phi + top + np.log(np.exp(terms - top[:, None]).sum(axis=1))


def _first_fitting_cap(dist: PotentialDistribution, log_ab: np.ndarray, log_bound: float) -> tuple[int, float] | None:
    """The smallest cap K <= _MAX_CROSSING_CAP whose ln kernel tail is at
    most log_bound, with that tail, or None.  Caps are tried in doubling
    blocks, so the search stops at the first block that holds one."""
    lo, hi = 0, 64
    while lo <= _MAX_CROSSING_CAP:
        caps = np.arange(lo, min(hi, _MAX_CROSSING_CAP + 1))
        tails = _log_kernel_tails(dist, log_ab, caps)
        fits = np.flatnonzero(tails <= log_bound)
        if fits.size:
            return int(caps[fits[0]]), float(tails[fits[0]])
        lo, hi = hi, 2 * hi
    return None


def annealed_transfer(
    dist: PotentialDistribution, n: int, r: int, p=0.5, start: int = 0
) -> AnnealedTransferResult:
    """Exact E[e_r(start, n, omega)] by the crossing-count transfer kernel.

    A path from start to its first hit of n, killed at r, is fixed up to
    prod_y C(L_y - 1, d_{y-1}) orderings by its leftward edge crossings
    d_y (discrete Ray-Knight).  Averaging the potential of each site over
    its L_y visits turns E[e] into a product of site kernels on the
    crossing counts, e_0' M_{r+1} ... M_{n-1} e_0, at cost O((n - r) K^2)
    plus one Pascal table of (2K + 2)(K + 1) floats, built in 2K row
    updates, for each distinct p and 1 - p.  p is the step-right
    probability, a scalar or one value per site r+1 .. n-1.

    The crossing cap K is the smallest whose kernel tail is at most 2^-52
    times a lower bound on f (the kernel at a small cap).  trunc_bound: every
    path counted by f but not by f_r first travels from start to the
    barrier without touching n (the mirrored kernel integrates that
    passage) and must then pay every window site at least once more on its
    way to n (phi(L + 1) at every site).
    """
    return _annealed_transfer(dist, n, r, p, start, {})


def _annealed_transfer(dist, n, r, p, start, tables: dict) -> AnnealedTransferResult:
    """annealed_transfer, whose pilot and main passes take their Pascal
    tables from tables (see _log_transfer) and store what they build there.
    Calls that share one dict, largest window first, build each table once:
    the rows of estimate_beta and the three windows of
    tree.turning_point_decompose do."""
    n, r, start = (_checked_int(v, name) for v, name in ((n, "n"), (r, "r"), (start, "start")))
    if not (r < start < n):
        raise ValueError(f"need r < start < n, got r={r}, start={start}, n={n}")
    sites = np.arange(r + 1, n)
    p_arr = _step_probs(p, sites.size)
    p_list = p_arr.tolist()
    s_fwd = (sites >= start).astype(int).tolist()
    pilot = 16  # f_16 <= f is the lower bound the cap is chosen against
    log_f_lower = _log_transfer(p_list, s_fwd, dist.laplace(np.arange(2 * pilot + 2)), pilot, tables)
    if log_f_lower == -math.inf:
        raise ValueError("the annealed survival weight underflows on this window")
    # B_x = P_x(hit x+1 before r), A_x = P_{x+1}(hit x before n) without potential
    zero = np.zeros(sites.size)
    _, log_b = _forward_sweep(zero, p_arr)
    _, log_a = _forward_sweep(zero, 1.0 - p_arr[::-1])
    log_ab = log_b[:-1] + log_a[::-1][1:]
    fit = _first_fitting_cap(dist, log_ab, log_f_lower - 52.0 * math.log(2.0))
    if fit is None:
        raise ValueError(
            f"the transfer kernel needs more than {_MAX_CROSSING_CAP} crossings per edge "
            f"on the window ({r}, {n}); use a smaller barrier distance"
        )
    cap, log_tail = fit
    phi = dist.laplace(np.arange(2 * cap + 3))
    log_f = _log_transfer(p_list, s_fwd, phi[:-1], cap, tables)
    # mirrored: from start down to r with n as the barrier, one more visit per site
    q_rev = [1.0 - x for x in reversed(p_list)]
    s_rev = (sites[::-1] <= start).astype(int).tolist()
    log_gap = _log_transfer(q_rev, s_rev, phi[1:], cap, tables)
    return AnnealedTransferResult(
        f_value=math.exp(log_f),
        b_value=-log_f,
        trunc_bound=math.log1p(math.exp(log_gap - log_f)),
        kernel_cap=cap,
        kernel_tail=math.exp(log_tail),
    )


def estimate_beta(dist: PotentialDistribution, n_grid, r_ratio: float = 4.0) -> LyapunovEstimate:
    """Annealed decay rate from b_r(0, n) on a grid of distances.

    Every grid row is exact (annealed_transfer) with the barrier at
    r = -ceil(r_ratio * n).  Each b/n is an upper bound on the limit (the
    limit is the infimum over n), so the grid minimum, params
    "min_over_grid", is the certified upper bound.  The point value is an
    affine-fit slope over the top half of the grid.  It is biased upward,
    and no budget shows it: Bernoulli{0,1} at n_grid [2, 4, 8, 12] gives
    0.6954 against beta = 0.6758.
    """
    # b / n is a float: an n no float holds is refused
    ns = [_checked_int(n, f"n_grid[{i}]", 1, sys.float_info.max) for i, n in enumerate(n_grid)] if np.iterable(n_grid) else []
    if not ns or len(set(ns)) < len(ns):
        raise ValueError(f"n_grid must hold distinct positive integers, got {n_grid!r}")
    rows = []
    tables: dict[float, np.ndarray] = {}  # the largest n runs first: its cap's table serves every row
    for n in sorted(ns, reverse=True):
        r = _barrier(n, r_ratio)
        res = _annealed_transfer(dist, n, r, 0.5, 0, tables)
        rows.insert(
            0,
            {
                "n": n, "r": r, "b": res.b_value, "trunc": res.trunc_bound,
                "b_over_n": res.b_value / n, "trunc_over_n": res.trunc_bound / n,
                "kernel_cap": res.kernel_cap, "kernel_tail": res.kernel_tail, "method": "annealed-transfer",
            }
        )
    best = min(rows, key=lambda row: row["b_over_n"])
    top = rows[len(rows) // 2 :]
    if len(top) > 1:  # least-squares line b = slope * n + intercept
        slope = np.polyfit([row["n"] for row in top], [row["b"] for row in top], 1)[0]
    else:
        slope = top[0]["b_over_n"]
    return LyapunovEstimate(
        value=float(slope),
        ci_halfwidth=0.0,
        n_samples=len(rows),
        method="annealed-extrapolated" if len(rows) > 1 else "annealed-transfer",
        params={
            "r_ratio": r_ratio,
            "grid": rows,
            "min_over_grid": best["b_over_n"],
            "min_over_grid_n": best["n"],
        },
    )
