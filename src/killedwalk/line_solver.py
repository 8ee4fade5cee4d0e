"""Exact survival solves for nearest-neighbour walks killed by site potentials.

The walk starts at x, steps right with probability p, and survives each
visit to site j with weight exp(-omega(j)).  Everything here reduces to the
two-point weight

    e_r(x, y, omega) = E_x[ exp(-sum_{k < tau_y} omega(S_k)) ; tau_y < tau_r ]

for an absorbing barrier at r < x <= y.  Its negative logarithm is additive
along the line, which makes one forward elimination pass over the window
sufficient: with w_j the weight of travelling j -> j+1 before hitting r,

    w_j = p_j e^{-omega_j} / (1 - (1 - p_j) e^{-omega_j} w_{j-1}),   w_r = 0,

and e_r(x, y) = prod_{j=x}^{y-1} w_j.  This is the forward sweep of the
tridiagonal boundary-value system u(r) = 0, u(y) = 1,
u(j) = e^{-omega_j} (p u(j+1) + (1-p) u(j-1)); `solve_survival_window`
keeps the full banded solve as an independent route to the same numbers.

Log-space is the primary representation: a-values stay finite even when
the linear weight underflows (which is flagged, never silently NaN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .env import Environment, EnvironmentSource
from .rng import keyed_uniform

UNDERFLOW_FLOOR = 1e-300
DEFAULT_TOL = 1e-9
DEFAULT_R_MAX = -(2**20)
# rows x window sites swept at once per doubling; 2**18 cells is 2 MB a float64 array
_CELL_BUDGET = 2**18


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


@dataclass(frozen=True)
class SurvivalResult:
    """Survival weight and its negative logarithm for one solve.

    a_value == -ln(e_value) whenever the weight did not underflow; on
    underflow e_value is clamped to 0 and flagged while a_value stays
    finite (log-space computation).
    """

    e_value: float
    a_value: float
    barrier_r: int
    converged: bool = True
    r_used: int | None = None
    trunc_bound: float = 0.0
    underflowed: bool = False
    note: str = ""


def forward_step_weights(omega: np.ndarray, p) -> tuple[np.ndarray, np.ndarray]:
    """Per-site step weights right of an absorbing barrier.

    omega holds potentials for consecutive sites r+1, r+2, ...; the barrier
    sits at the site just left of omega[0].  Returns (w, log_w) of the same
    trailing length: w[j] is the weight of moving from site r+1+j to site
    r+2+j before touching the barrier.  A leading axis of omega vectorizes
    the sweep over many environments at once; a single row runs in plain
    floats, whose exp and log1p may differ from numpy's by one ulp.
    """
    omega = np.asarray(omega, dtype=np.float64)
    if omega.ndim == 1:
        return _step_weights_scalar(omega, p)
    if omega.shape[0] == 1:
        w, log_w = _step_weights_scalar(omega[0], p)
        return w[None, :], log_w[None, :]
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


def _step_weights_scalar(omega: np.ndarray, p) -> tuple[np.ndarray, np.ndarray]:
    """One-environment sweep in plain floats (the hot path of the limit
    solver; numpy per-element overhead would dominate it)."""
    n_sites = omega.shape[0]
    p_list = np.broadcast_to(np.asarray(p, dtype=np.float64), (n_sites,)).tolist()
    om_list = omega.tolist()
    w = np.empty(n_sites)
    log_w = np.empty(n_sites)
    w_prev = 0.0
    exp, log, log1p = math.exp, math.log, math.log1p
    for j in range(n_sites):
        pj = p_list[j]
        om = om_list[j]
        s = exp(-om)
        damp = -log1p(-(1.0 - pj) * s * w_prev)
        log_w[j] = log(pj) - om + damp
        w_prev = pj * s * exp(damp)
        w[j] = w_prev
    return w, log_w


def _window_step_logs(env, r: int, y: int, p) -> np.ndarray:
    """log step weights for sites r+1 .. y-1 under barrier r."""
    omega = env.slice_values(r + 1, y - 1)
    _, log_w = forward_step_weights(omega, p)
    return log_w


def _result_from_a(a: float, barrier_r: int, **kw) -> SurvivalResult:
    e = math.exp(-a) if a < 744.0 else 0.0
    underflowed = e < UNDERFLOW_FLOOR and a > 0.0
    return SurvivalResult(
        e_value=e, a_value=a, barrier_r=barrier_r, underflowed=underflowed, **kw
    )


def solve_survival_window(model: WindowModel) -> SurvivalResult:
    """Survival weight e_r(x, y) by a direct banded solve of the
    boundary-value system (independent of the forward-sweep route)."""
    r, x, y = model.barrier_r, model.start_x, model.target_y
    if x == y:
        return SurvivalResult(e_value=1.0, a_value=0.0, barrier_r=r, r_used=r)
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
        log_w = _window_step_logs(model.env, r, y, model.step_right_prob)
        a = float(-np.sum(log_w[x - (r + 1) :]))
        return _result_from_a(a, r, r_used=r)
    return SurvivalResult(e_value=e, a_value=-math.log(e), barrier_r=r, r_used=r)


def two_point_a(env: Environment, x: int, y: int, r: int, p=0.5) -> float:
    """a_r(x, y) = -ln e_r(x, y) for r < x <= y, by the forward sweep."""
    if x == y:
        return 0.0
    if not (r < x < y):
        raise ValueError("need barrier < start < target (or start == target)")
    log_w = _window_step_logs(env, r, y, p)
    return float(-np.sum(log_w[x - (r + 1) :]))


def two_point_e(env: Environment, x: int, y: int, r: int, p=0.5) -> float:
    """e_r(x, y), the survival weight companion of two_point_a."""
    return math.exp(-two_point_a(env, x, y, r, p))


def F_r(env, r: int, p=0.5) -> SurvivalResult:
    """Negative log survival weight of reaching site 1 before barrier r,
    started from 0 (the truncated one-step functional)."""
    if r >= 0:
        raise ValueError("barrier must be a negative site")
    if not env.covers(r, 1):
        raise ValueError(f"window too small: need [{r}, 1]")
    log_w = _window_step_logs(env, r, 1, p)
    a = float(-log_w[-1])
    return _result_from_a(a, r, r_used=r)


def truncation_tail_bound(omega, a_r, p=0.5):
    """Certified overestimate of F_r - F at barrier r.

    omega holds the potentials on sites r+1 .. 0 and a_r the value of F_r;
    a leading axis of omega (with one a_r per row) bounds many
    environments at once.  Every path counted by F but not by F_r first
    travels from 0 down to r without touching 1; a mirrored elimination
    sweep (right barrier at 1) gives that passage weight exactly, and the
    continuation from r to 1 contributes at most weight 1.
    """
    omega = np.asarray(omega, dtype=np.float64)
    p_rev = np.flip(1.0 - np.asarray(p, dtype=np.float64))
    _, log_v = forward_step_weights(omega[..., ::-1], p_rev)  # sites 0 down to r+1
    return np.logaddexp(0.0, np.sum(log_v, axis=-1) + a_r)[()]  # ln(1 + passage / e_r)


@dataclass(frozen=True)
class LimitBatch:
    """Barrier-free limits of many environments, one entry per row, with
    the meanings of the SurvivalResult fields of the same names."""

    a_value: np.ndarray
    trunc_bound: np.ndarray
    r_used: np.ndarray
    converged: np.ndarray


def _barrier_schedule(r_schedule, r_max: int) -> list[int]:
    if r_schedule is None:
        schedule, r = [], -2
        while r >= r_max:
            schedule.append(r)
            r *= 2
    else:
        schedule = [int(r) for r in r_schedule]
        if any(r >= 0 for r in schedule):
            raise ValueError("r_schedule entries must be negative")
    if not schedule:
        raise ValueError("empty barrier schedule")
    return schedule


def _barrier_doubling(potentials, n_rows: int, schedule, tol: float, p) -> LimitBatch:
    """The barrier-doubling loop behind F_limit and F_limit_batch.

    potentials(rows, r) returns the potentials of the given rows on sites
    r+1 .. 0, one row each.  At every barrier of the schedule the rows
    still running are swept together (in chunks of at most
    _CELL_BUDGET cells); a row stops at its first decrement below tol, or
    unconverged at the last barrier, and takes its tail certificate from
    the mirrored sweep of the same potentials.  Rows never interact, so
    the chunking and the batch composition change no digit, except that a
    row swept alone runs in plain floats (see forward_step_weights).
    """
    a_value = np.zeros(n_rows)
    trunc = np.zeros(n_rows)
    r_used = np.zeros(n_rows, dtype=np.int64)
    converged = np.zeros(n_rows, dtype=bool)
    prev_a = np.full(n_rows, math.inf)
    active = np.arange(n_rows)
    for k, r in enumerate(schedule):
        if active.size == 0:
            break
        last = k == len(schedule) - 1
        chunk = max(1, _CELL_BUDGET // -r)
        running = []
        for start in range(0, active.size, chunk):
            rows = active[start : start + chunk]
            omega = potentials(rows, r)
            a = -forward_step_weights(omega, p)[1][:, -1]
            decrement = prev_a[rows] - a  # +inf at the first barrier
            prev_a[rows] = a
            stop = decrement < tol
            done = stop | last
            if done.any():
                fin = rows[done]
                omega = omega[done]  # drops the rest of the chunk before the mirrored sweep
                slack = np.maximum(decrement[done], 0.0) if k else 0.0
                trunc[fin] = slack + truncation_tail_bound(omega, a[done], p)
                a_value[fin], r_used[fin], converged[fin] = a[done], r, stop[done]
            running.append(rows[~done])
        active = np.concatenate(running)
    return LimitBatch(a_value, trunc, r_used, converged)


def F_limit(
    source,
    tol: float = DEFAULT_TOL,
    r_schedule=None,
    r_max: int = DEFAULT_R_MAX,
    p=0.5,
) -> SurvivalResult:
    """Barrier-free limit F = a(0, 1) by doubling the barrier distance.

    source is an Environment or EnvironmentSource covering (or lazily
    generating) sites left of the origin.  Stops once consecutive barrier
    doublings change the value by less than tol; trunc_bound reports the
    last decrement plus the analytic tail certificate, which bounds the
    remaining overestimate of the true limit.  It runs the loop of
    F_limit_batch on one row, so both give the same digits.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if isinstance(source, EnvironmentSource) and source.dist.is_delta_zero:
        return SurvivalResult(
            e_value=1.0, a_value=0.0, barrier_r=0, converged=True, r_used=None,
            note="delta-zero potential: trivial case, limit is 0 exactly",
        )
    schedule = _barrier_schedule(r_schedule, r_max)
    exhausted_window = False
    if isinstance(source, Environment):
        usable = [r for r in schedule if r >= source.window_lo]
        exhausted_window = len(usable) < len(schedule)
        schedule = usable
        if not schedule:
            raise ValueError("window too small for any barrier in the schedule")
    row = _barrier_doubling(
        lambda rows, r: source.slice_values(r + 1, 0)[None, :], 1, schedule, tol, p
    )
    r, ok = int(row.r_used[0]), bool(row.converged[0])
    reason = "window exhausted" if exhausted_window else "r_max reached"
    return _result_from_a(
        float(row.a_value[0]), r, converged=ok, r_used=r, trunc_bound=float(row.trunc_bound[0]),
        note="" if ok else f"not converged to tol={tol:g} ({reason}); "
        "expect O(1/|r|) convergence only for laws concentrated near 0",
    )


def F_limit_batch(dist, seed: int, n_samples: int, tol: float = DEFAULT_TOL) -> LimitBatch:
    """F_limit of EnvironmentSource(dist, seed, i) for every i < n_samples.

    Row i draws its potentials from stream i, exactly as the one-row call
    would, so each entry equals that call's result (to one ulp) and runs
    that share a seed share environments row by row.  For a delta-zero law
    every row is exactly 0 with r_used 0, where F_limit reports None.
    """
    if tol <= 0:
        raise ValueError("tol must be > 0")
    if dist.is_delta_zero:  # the limit is 0 exactly, as in F_limit
        return LimitBatch(
            np.zeros(n_samples), np.zeros(n_samples),
            np.zeros(n_samples, dtype=np.int64), np.ones(n_samples, dtype=bool),
        )

    def potentials(rows, r):  # a row index is its stream id
        sites = np.arange(r + 1, 1, dtype=np.int64)
        return dist.ppf(keyed_uniform(seed, rows[:, None], sites[None, :]))

    return _barrier_doubling(potentials, n_samples, _barrier_schedule(None, DEFAULT_R_MAX), tol, 0.5)


def green_function_window(env: Environment, x: int, y: int, window: tuple[int, int], p=0.5) -> float:
    """Expected discounted visits to y from x, for paths confined to the
    open window (r, R).

    With the killed kernel K(u, v) = exp(-omega(u)) p(u, v) on the interior
    sites, this is exp(-omega(y)) [(I - K)^{-1} - I](x, y); each visit pays
    the potential of the visited site, including the terminal one.
    """
    r, cap = int(window[0]), int(window[1])
    if not (r < x < cap and r < y < cap):
        raise ValueError("x and y must lie strictly inside the window")
    sites_lo, sites_hi = r + 1, cap - 1
    n = sites_hi - sites_lo + 1
    omega = env.slice_values(sites_lo, sites_hi)
    p_arr = np.broadcast_to(np.asarray(p, dtype=np.float64), (n,))
    s = np.exp(-omega)
    ab = np.zeros((3, n))
    ab[1, :] = 1.0
    rows = np.arange(n)
    ab[0, rows[:-1] + 1] = -s[:-1] * p_arr[:-1]       # A[j, j+1]
    ab[2, rows[1:] - 1] = -s[1:] * (1.0 - p_arr[1:])  # A[j, j-1]
    rhs = np.zeros(n)
    rhs[y - sites_lo] = 1.0
    try:
        v = solve_banded((1, 1), ab, rhs)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"singular resolvent system: {exc}") from exc
    resolvent = float(v[x - sites_lo])
    if x == y:
        resolvent -= 1.0
    return max(resolvent, 0.0) * math.exp(-env.value_at(y))
