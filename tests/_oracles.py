"""Independent oracles for the test suite.

These deliberately avoid the library's solver routes: survival weights are
recomputed by explicit path enumeration (tiny cases), by time-stepped
summation over all killed paths up to a length cap (with a certified tail
bound), by a banded solve of the boundary-value system and by a per-site
sweep over a batch of environments, annealed survival weights by summation over every potential
configuration of a finite-support law, window entropies by direct
summation over product configurations, branch-forest brackets one
forest at a time, tree walks by stepping one walker at a time with
lazily cached potentials and one keyed_uniform call per (walker, step),
and site potentials by a binary-search inverse CDF.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from scipy.linalg import solve_banded

from killedwalk.env import Environment, PotentialDistribution
from killedwalk.line_solver import UNDERFLOW_FLOOR, SurvivalResult, _result_from_a, forward_step_weights
from killedwalk.lyapunov import _log_kernel_tails, _log_transfer
from killedwalk.rng import keyed_uniform, substream
from killedwalk.tree import (
    _ARRIVED,
    _CUTOFF,
    _EXCURSION_TAG,
    _FOREST_VERTEX_BUDGET,
    _HORIZON,
    _LOG_WEIGHT_CUTOFF,
    _PASSAGE_TAG,
    _STEP_CAP,
    TreeConfig,
    _level_starts,
    _max_walk_level,
    _sum_children,
    zero_potential_return_weight,
)


def ppf(dist: PotentialDistribution, u) -> np.ndarray:
    """Inverse CDF by the textbook formulas and, for a finite law, a binary
    search of the cumulative weights: the reference for the library's
    in-place, comparison-counting PotentialDistribution.ppf."""
    u = np.asarray(u, dtype=np.float64)
    if dist.kind == "exponential":
        return -np.log1p(-u) / dist.rate
    values = np.array([v for v, _ in dist.atoms])
    cum = np.cumsum([w for _, w in dist.atoms])
    return values[np.minimum(np.searchsorted(cum, u, side="right"), len(values) - 1)]


def enumerate_paths_survival(omega_by_site: dict, r: int, x: int, y: int, p: float, max_len: int):
    """Sum of path weights over every walk x -> y of length <= max_len that
    stays strictly between r and y until arrival.  Pure enumeration over
    step sequences; exponential cost, tiny cases only.
    """
    if x == y:
        return 1.0
    total = 0.0
    for length in range(1, max_len + 1):
        for steps in itertools.product((1, -1), repeat=length):
            pos = x
            weight = 1.0
            ok = True
            for i, step in enumerate(steps):
                weight *= math.exp(-omega_by_site[pos]) * (p if step == 1 else 1.0 - p)
                pos += step
                arrived = pos == y
                if pos <= r or (arrived and i < length - 1):
                    ok = False
                    break
            if ok and pos == y:
                total += weight
    return total


def path_sum_survival(omega: np.ndarray, r: int, x: int, y: int, p: float, max_len: int):
    """Survival weight e_r(x, y) summed over killed paths of length <= max_len.

    omega holds the potentials of the interior sites r+1 .. y-1.  Returns
    (value, tail_bound): paths longer than the cap contribute at most the
    total weighted mass still alive, since every future factor is <= 1.
    """
    n_int = y - r - 1
    assert omega.shape == (n_int,)
    if x == y:
        return 1.0, 0.0
    s = np.exp(-omega)
    v = np.zeros(n_int)
    v[x - (r + 1)] = 1.0
    acc = 0.0
    for _ in range(max_len):
        pay = v * s
        acc += p * pay[-1]  # site y-1 stepping right lands on the target
        nxt = np.zeros(n_int)
        nxt[1:] += p * pay[:-1]
        nxt[:-1] += (1.0 - p) * pay[1:]
        v = nxt
    return acc, float(v.sum())


@dataclass(frozen=True)
class WindowModel:
    """A killed-walk boundary-value problem on a finite window.

    The barrier at barrier_r kills; reaching target_y scores.  The step
    probability to the right may be a scalar or one value per site of the
    environment window (site-dependent drifts appear in tree reductions).
    """

    env: Environment
    barrier_r: int
    target_y: int
    start_x: int
    step_right_prob: float | np.ndarray = 0.5

    def __post_init__(self):
        if self.barrier_r >= self.start_x:
            raise ValueError("barrier must lie strictly left of the start")
        if self.target_y <= self.barrier_r:
            raise ValueError("target must lie strictly right of the barrier")
        if self.target_y < self.start_x:
            raise ValueError("ill-posed window: start right of target has no right barrier")
        if not self.env.covers(self.barrier_r, self.target_y):
            raise ValueError("environment window must cover [barrier, target]")
        p = np.asarray(self.step_right_prob, dtype=np.float64)
        if np.any(p <= 0) or np.any(p >= 1):
            raise ValueError("step probability must lie in (0, 1)")


def solve_survival_window(model: WindowModel) -> SurvivalResult:
    """Survival weight e_r(x, y) by a direct banded solve of the
    boundary-value system (independent of the forward-sweep route)."""
    r, x, y = model.barrier_r, model.start_x, model.target_y
    if x == y:
        return SurvivalResult(e_value=1.0, a_value=0.0, r_used=r)
    n = y - r + 1
    omega = model.env.slice_values(r, y)
    p = np.broadcast_to(np.asarray(model.step_right_prob, dtype=np.float64), (n,))
    s = np.exp(-omega)
    ab = np.zeros((3, n))
    ab[1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    interior = np.arange(1, n - 1)
    # row j couples u_j to its neighbours: u_j - s_j(p_j u_{j+1} + q_j u_{j-1}) = 0
    ab[0, interior + 1] = -s[interior] * p[interior]
    ab[2, interior - 1] = -s[interior] * (1.0 - p[interior])
    try:
        u = solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - defensive
        raise ValueError(f"singular survival system: {exc}") from exc
    e = float(u[x - r])
    if e <= UNDERFLOW_FLOOR:
        # recover the exponent in log space rather than reporting -ln 0
        _, log_w = forward_step_weights(model.env.slice_values(r + 1, y - 1), p[1:-1])
        a = float(-np.sum(log_w[x - (r + 1) :]))
        return _result_from_a(a, r_used=r)
    return SurvivalResult(e_value=e, a_value=-math.log(e), r_used=r)


def banded_green_function(env: Environment, x: int, y: int, window: tuple[int, int], p=0.5) -> float:
    """green_function_window by a banded solve of (I - K) v = 1_y on the
    interior sites of the window."""
    r, cap = window
    sites_lo = r + 1
    n = cap - 1 - sites_lo + 1
    omega = env.slice_values(sites_lo, cap - 1)
    p_arr = np.broadcast_to(np.asarray(p, dtype=np.float64), (n,))
    s = np.exp(-omega)
    ab = np.zeros((3, n))
    ab[1, :] = 1.0
    rows = np.arange(n)
    ab[0, rows[:-1] + 1] = -s[:-1] * p_arr[:-1]       # A[j, j+1]
    ab[2, rows[1:] - 1] = -s[1:] * (1.0 - p_arr[1:])  # A[j, j-1]
    rhs = np.zeros(n)
    rhs[y - sites_lo] = 1.0
    resolvent = float(solve_banded((1, 1), ab, rhs)[x - sites_lo])
    if x == y:
        resolvent -= 1.0
    return max(resolvent, 0.0) * math.exp(-env.value_at(y))


def batched_step_weights(omega: np.ndarray, p) -> tuple[np.ndarray, np.ndarray]:
    """forward_step_weights over a leading axis of environments: one numpy
    step per site, all rows together."""
    n_cfg, n_sites = omega.shape
    p_arr = np.broadcast_to(np.asarray(p, dtype=np.float64), (n_sites,))
    s = np.exp(-omega)
    w = np.empty_like(omega)
    log_w = np.empty_like(omega)
    w_prev = np.zeros(n_cfg)
    for j in range(n_sites):
        damp = -np.log1p(-(1.0 - p_arr[j]) * s[:, j] * w_prev)
        log_w[:, j] = math.log(p_arr[j]) - omega[:, j] + damp
        w_prev = p_arr[j] * s[:, j] * np.exp(damp)
        w[:, j] = w_prev
    return w, log_w


def window_entropy(q_atoms: dict, p_atoms: dict, n_sites: int) -> float:
    """H_I(Q|P) over an n_sites window for product measures with finite
    marginals, by direct summation over all configurations."""
    values = list(q_atoms)
    total = 0.0
    for config in itertools.product(values, repeat=n_sites):
        q_mass = math.prod(q_atoms[v] for v in config)
        p_mass = math.prod(p_atoms.get(v, 0.0) for v in config)
        if q_mass == 0.0:
            continue
        if p_mass == 0.0:
            return math.inf
        total += q_mass * math.log(q_mass / p_mass)
    return total


def constant_potential_one_step_a(survival: float) -> float:
    """-ln e(0, 1) for a constant potential with per-visit survival weight s:
    the hitting-time generating function of the symmetric walk gives
    e = (1 - sqrt(1 - s^2)) / s."""
    return -math.log((1.0 - math.sqrt(1.0 - survival**2)) / survival)


def drifted_ruin_probability(r: int, p: float) -> float:
    """P_0(hit 1 before r) for the potential-free walk with right-step
    probability p (classical ruin formula)."""
    if p == 0.5:
        return -r / (1.0 - r)
    rho = (1.0 - p) / p
    return (1.0 - rho ** (-r)) / (1.0 - rho ** (1 - r))


DEFAULT_CONFIG_CAP = 2**22


def iterate_configs(dist: PotentialDistribution, n_sites: int, batch_size: int = 65536):
    """Yield (values, probs) batches covering every potential configuration
    on n_sites sites for a finite-support law.

    values has shape (batch, n_sites); probs are the product weights.
    """
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
        _, log_w = batched_step_weights(values, p)
        a_cfg = -np.sum(log_w[:, -n:], axis=1)
        f_acc += float(probs @ np.exp(-a_cfg))
        a_acc += float(probs @ a_cfg)
        # mirrored sweep: right barrier at n, walking left from 0 to r;
        # the return trip to n then pays every window site once more
        _, log_v = batched_step_weights(values[:, ::-1], 1.0 - p)
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


def site_kernels_gather(p: float, phi: np.ndarray, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """The site kernels M_0, M_1 of the crossing-count transfer, gathered
    from their own Pascal table by index arrays of visit counts.

    M_s[a, b] = C(L-1, a) p^(b+s) q^a phi(L) with L = a + b + s; the entry
    is phi(0) at L = 0.  The library builds the same floats from strided
    views of a shared table, in the same order.
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


def kernel_cap_full_scan(
    dist: PotentialDistribution, n: int, r: int, p=0.5, start: int = 0
) -> tuple[int, float] | None:
    """annealed_transfer's crossing cap and kernel tail by scanning every cap
    0 .. 2048 at once and taking the first whose tail fits 2^-52 f_16, or
    None when no cap fits."""
    sites = np.arange(r + 1, n)
    p_arr = np.broadcast_to(np.asarray(p, dtype=np.float64), sites.shape)
    s_fwd = (sites >= start).astype(int).tolist()
    log_f_lower = _log_transfer(p_arr.tolist(), s_fwd, dist.laplace(np.arange(34)), 16)
    zero = np.zeros(sites.size)
    _, log_b = forward_step_weights(zero, p_arr)
    _, log_a = forward_step_weights(zero, 1.0 - p_arr[::-1])
    log_ab = log_b[:-1] + log_a[::-1][1:]
    tails = _log_kernel_tails(dist, log_ab, np.arange(2049))
    fits = np.flatnonzero(tails <= log_f_lower - 52.0 * math.log(2.0))
    return (int(fits[0]), math.exp(tails[fits[0]])) if fits.size else None


def forest_bracket(
    cfg: TreeConfig,
    dist: PotentialDistribution,
    seed: int,
    stream_id: int,
    n_roots: int,
    depth: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Bottom-up return-weight brackets for every root of one branch forest,
    with the potentials keyed by the counters of _level_starts: the
    one-forest-at-a-time reference for the library's batched kernel."""
    d, p, s_child = cfg.d, cfg.p, cfg.s_child
    gamma = zero_potential_return_weight(cfg)
    if len(dist.atoms) == 1:
        s = math.exp(-dist.atoms[0][0])
        w_lo, w_hi = 0.0, gamma
        for _ in range(depth):
            w_lo = p * s / (1.0 - s * s_child * (d - 1) * w_lo)
            w_hi = p * s / (1.0 - s * s_child * (d - 1) * w_hi)
        return np.full(n_roots, w_lo), np.full(n_roots, w_hi)

    # n_roots (d-1)^(depth-1) vertices on the deepest level alone: compared
    # in logs first, so a huge depth never builds a huge integer
    deepest_log = math.log(n_roots) + (depth - 1) * math.log(d - 1)
    if deepest_log > math.log(_FOREST_VERTEX_BUDGET) or sum(
        n_roots * (d - 1) ** level for level in range(depth)
    ) > _FOREST_VERTEX_BUDGET:
        raise ValueError(f"branch forest of depth {depth} needs more than {_FOREST_VERTEX_BUDGET} vertices")
    starts = _level_starts(d, n_roots, depth)
    w_lo: np.ndarray | float = 0.0
    w_hi: np.ndarray | float = gamma
    for level in range(depth, 0, -1):
        counters = np.arange(starts[level], starts[level + 1], dtype=np.int64)
        omega = ppf(dist, keyed_uniform(seed, stream_id, counters))
        s = np.exp(-omega)
        if level == depth:
            child_lo = s_child * (d - 1) * w_lo
            child_hi = s_child * (d - 1) * w_hi
        else:
            child_lo = s_child * _sum_children(w_lo, d - 1)
            child_hi = s_child * _sum_children(w_hi, d - 1)
        denom_lo = 1.0 - s * child_lo
        denom_hi = 1.0 - s * child_hi
        if np.any(denom_lo <= 0.0) or np.any(denom_hi <= 0.0):
            raise AssertionError("return-weight denominator not positive; bracket logic violated")
        w_lo = p * s / denom_lo
        w_hi = p * s / denom_hi
    return np.atleast_1d(w_lo), np.atleast_1d(w_hi)


def excursion_h(
    cfg: TreeConfig, dist: PotentialDistribution, seed: int, stream_id: int, depth: int
) -> tuple[float, float]:
    """(lower, upper) excursion survival weight h of one geodesic site,
    folded from its own forest_bracket."""
    omega_site = float(ppf(dist, keyed_uniform(seed, stream_id, 0)))
    lo, hi = forest_bracket(cfg, dist, seed, stream_id, n_roots=cfg.d - 2, depth=depth)
    s = math.exp(-omega_site)
    s_geo = cfg.p + cfg.s_child

    def fold(weights: np.ndarray) -> float:
        denom = 1.0 - s * cfg.s_child * float(weights.sum())
        if denom <= 0.0:
            raise AssertionError("excursion denominator not positive; bracket logic violated")
        return s_geo * s / denom

    return fold(lo), fold(hi)


def rho_midpoint(
    cfg: TreeConfig, dist: PotentialDistribution, site: int, seed: int, stream_id: int, depth: int
) -> float:
    """Midpoint of the rho = -ln h bracket of geodesic site site."""
    lower, upper = excursion_h(cfg, dist, seed, substream(stream_id, site), depth)
    return 0.5 * (-math.log(upper) + -math.log(lower))


class _LazyForestPotentials:
    """Per-vertex potentials of one geodesic site's branch forest, sampled
    on demand with the same counters the recursion uses."""

    def __init__(self, cfg: TreeConfig, dist: PotentialDistribution, seed: int, stream_id: int):
        self.cfg = cfg
        self.dist = dist
        self.seed = seed
        self.stream_id = stream_id
        self._cache: dict[int, float] = {}
        self._offsets = [0]

    def _offset(self, level: int) -> int:
        d = self.cfg.d
        while len(self._offsets) < level:
            last = len(self._offsets)
            width = (d - 2) * (d - 1) ** (last - 1)
            self._offsets.append(self._offsets[-1] + width)
        return self._offsets[level - 1]

    def counter(self, level: int, idx: int) -> int:
        return 1 + self._offset(level) + idx

    def value(self, counter: int) -> float:
        cached = self._cache.get(counter)
        if cached is None:
            cached = float(ppf(self.dist, keyed_uniform(self.seed, self.stream_id, counter)))
            self._cache[counter] = cached
        return cached


def simulate_excursions(
    cfg: TreeConfig,
    dist: PotentialDistribution,
    site_index: int = 0,
    n_excursions: int = 100_000,
    seed: int = 0,
    stream_id: int = 0,
    max_steps: int = 100_000,
) -> tuple[float, float, int, np.ndarray, np.ndarray]:
    """Monte Carlo estimate of the excursion survival weight h of one site.

    Walks the actual tree with lazily keyed potentials (identical keys to
    the recursion bracket for the same site) and accumulates the survival
    weight until the walk first steps onto a geodesic neighbour.  Returns
    (mean, standard error, number of lost excursions, each excursion's
    weight, each excursion's stop cause); an excursion is lost, and scored
    zero, if it exceeds max_steps, wanders below the escape level, or
    carries a dead weight.  Each truncation is one-sided;
    depth losses are bounded per level by _depth_truncation_factor, which
    is negligible except at drift 1/2 exactly, where the lost counter is
    the honest measure of what was discarded.
    """
    d, p, s_child = cfg.d, cfg.p, cfg.s_child
    level_cap = _max_walk_level(d)
    site_stream = substream(stream_id, site_index)
    forest = _LazyForestPotentials(cfg, dist, seed, site_stream)
    omega_site = float(ppf(dist, keyed_uniform(seed, site_stream, 0)))
    step_stream = substream(_EXCURSION_TAG, site_stream)
    weights = np.zeros(n_excursions)
    causes = np.empty(n_excursions, dtype=np.int8)
    for walker in range(n_excursions):
        walker_stream = substream(step_stream, walker)
        level, idx = 0, 0  # level 0 encodes the geodesic site itself
        log_weight = 0.0
        # the stop rules run before every step and once more after the last
        for step in range(max_steps + 1):
            if log_weight < _LOG_WEIGHT_CUTOFF:
                causes[walker] = _CUTOFF
                break
            if level > level_cap:
                causes[walker] = _HORIZON
                break
            if step == max_steps:
                causes[walker] = _STEP_CAP
                break
            if level == 0:
                log_weight -= omega_site
                u = float(keyed_uniform(seed, walker_stream, step))
                if u < p + s_child:
                    # numpy's exp: math.exp differs from it in the last bit
                    # on about one argument in twenty
                    weights[walker] = np.exp(log_weight)  # stepped onto the geodesic
                    causes[walker] = _ARRIVED
                    break
                branch = int((u - (p + s_child)) / s_child)
                level, idx = 1, min(branch, d - 3)
            else:
                log_weight -= forest.value(forest.counter(level, idx))
                u = float(keyed_uniform(seed, walker_stream, step))
                if u < p:
                    level, idx = (0, 0) if level == 1 else (level - 1, idx // (d - 1))
                else:
                    child = min(int((u - p) / s_child), d - 2)
                    level, idx = level + 1, idx * (d - 1) + child
    return _walker_summary(weights, causes, int(np.count_nonzero(causes != _ARRIVED)))


def _walker_summary(weights: np.ndarray, causes: np.ndarray, n_lost: int):
    """(mean, standard error, n_lost, weights, causes), the sums taken one
    walker at a time."""
    total = 0.0
    total_sq = 0.0
    for weight in weights.tolist():
        total += weight
        total_sq += weight * weight
    n = weights.size
    mean = total / n
    var = max(total_sq / n - mean**2, 0.0)
    return mean, math.sqrt(var / n), n_lost, weights, causes


def simulate_geodesic_passage(
    cfg: TreeConfig,
    dist: PotentialDistribution,
    target: int = 1,
    n_walks: int = 20_000,
    seed: int = 0,
    stream_id: int = 0,
    escape_horizon: int = 60,
    max_steps: int = 1_000_000,
) -> tuple[float, float, int, np.ndarray, np.ndarray]:
    """Monte Carlo estimate of the survival weight from geodesic site 0 to
    geodesic site target > 0 by walking the full tree.

    The same per-site streams as the reduction are used, so this estimates
    the quantity the effective line model computes.  Walks farther than
    escape_horizon from the target are declared lost: a one-sided
    truncation whose contribution shrinks per level by
    _depth_truncation_factor (for the symmetric walk, (d-1)^(-distance)).
    Before each step and once after the last, the stop rules run in order:
    arrival, the weight cutoff, the horizon, the step cap.  Returns (mean,
    standard error, walks that did not arrive, each walk's weight, each
    walk's stop cause).
    """
    if target <= 0:
        raise ValueError("target must be a positive geodesic index")
    d, p, s_child = cfg.d, cfg.p, cfg.s_child
    escape_horizon = min(escape_horizon, _max_walk_level(d))
    forests: dict[int, _LazyForestPotentials] = {}
    site_omega: dict[int, float] = {}

    def forest_of(i: int) -> _LazyForestPotentials:
        f = forests.get(i)
        if f is None:
            f = _LazyForestPotentials(cfg, dist, seed, substream(stream_id, i))
            forests[i] = f
        return f

    def omega_of(i: int) -> float:
        v = site_omega.get(i)
        if v is None:
            v = float(ppf(dist, keyed_uniform(seed, substream(stream_id, i), 0)))
            site_omega[i] = v
        return v

    step_stream = substream(_PASSAGE_TAG, stream_id)
    weights = np.zeros(n_walks)
    causes = np.empty(n_walks, dtype=np.int8)
    for walker in range(n_walks):
        walker_stream = substream(step_stream, walker)
        geo, level, idx = 0, 0, 0
        log_weight = 0.0
        for step in range(max_steps + 1):
            if level == 0 and geo == target:
                weights[walker] = np.exp(log_weight)  # numpy's exp, as above
                causes[walker] = _ARRIVED
                break
            if log_weight < _LOG_WEIGHT_CUTOFF:
                causes[walker] = _CUTOFF  # contributes below 2e-35 even if it would arrive later
                break
            if level + abs(target - geo) > escape_horizon:
                causes[walker] = _HORIZON  # certified negligible hitting probability
                break
            if step == max_steps:
                causes[walker] = _STEP_CAP
                break
            if level == 0:
                log_weight -= omega_of(geo)
                u = float(keyed_uniform(seed, walker_stream, step))
                if u < p:
                    geo += 1  # uphill, toward the predecessor
                elif u < p + s_child:
                    geo -= 1
                else:
                    branch = int((u - (p + s_child)) / s_child)
                    level, idx = 1, min(branch, d - 3)
            else:
                f = forest_of(geo)
                log_weight -= f.value(f.counter(level, idx))
                u = float(keyed_uniform(seed, walker_stream, step))
                if u < p:
                    level, idx = (0, 0) if level == 1 else (level - 1, idx // (d - 1))
                else:
                    child = min(int((u - p) / s_child), d - 2)
                    level, idx = level + 1, idx * (d - 1) + child
    return _walker_summary(weights, causes, int(np.count_nonzero(causes != _ARRIVED)))
