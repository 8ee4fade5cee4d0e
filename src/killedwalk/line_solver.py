"""Exact survival solves for nearest-neighbour walks killed by site potentials.

The walk starts at x, steps right with probability p, and survives each
visit to site j with weight exp(-omega(j)).  Everything here reduces to the
two-point weight

    e_r(x, y, omega) = E_x[ exp(-sum_{k < tau_y} omega(S_k)) ; tau_y < tau_r ]

for an absorbing barrier at r < x <= y.  A walk from x to y passes every
site in between, so its negative logarithm is additive along the line and
one forward elimination pass over the window is enough: with w_j the
weight of travelling j -> j+1 before hitting r,

    w_j = p_j e^{-omega_j} / (1 - (1 - p_j) e^{-omega_j} w_{j-1}),   w_r = 0,

and e_r(x, y) = prod_{j=x}^{y-1} w_j.  The same path property lets adjacent
runs of sites compose exactly (Redheffer's star product, _star), so the
barrier-free limit reduces a window pairwise in log2(length) array steps.

Log-space is the primary representation: a-values stay finite even when
the linear weight underflows (which is flagged, never silently NaN).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import Environment, EnvironmentSource, _checked_int, _finite, _window
from .rng import _counter_words, _uniform, mix_counters, stream_key

UNDERFLOW_FLOOR = 1e-300
DEFAULT_TOL = 1e-9
DEFAULT_R_MAX = -(2**20)
# rows x window sites per chunk of a doubling, which reduces the window's newer
# half.  At 2**15 a chunk's arrays are 128 KB each, and with the state of
# one law group of the benchmark's variational grid (6 laws x 300 rows, see
# lyapunov._GROUP_ROWS) the loop peaks within 10% of one tilt alone at 2**18,
# as the grid ran before batching
_CELL_BUDGET = 2**15
# the most codes of a run table level, K**(2**m) for a law of K atoms: 8
# sites a code for K = 2, 4 for K = 3-4, 2 for K = 5-16, no table above.  On
# the benchmark's variational grid (one process, 2-core box) a call took
# 15.0 ms at 256 codes, 16.9 ms at 16, 23.6 ms at 4 and 28-29 ms with no
# table; at 65536 building the table took it to 43 ms and 8.2 MB
_TABLE_CODES = 256
_EXP_FLOOR = -700.0  # _logaddexp's least exponent, where np.exp is still SIMD


@dataclass(frozen=True)
class SurvivalResult:
    """Survival weight and its negative logarithm for one solve.

    a_value == -ln(e_value) whenever the weight did not underflow; on
    underflow e_value is clamped to 0 and flagged while a_value stays
    finite (log-space computation).  r_used is the barrier of the solve,
    0 for a delta-zero limit at p >= 1/2, which needs none.
    """

    e_value: float
    a_value: float
    r_used: int
    converged: bool = True
    trunc_bound: float = 0.0
    underflowed: bool = False
    note: str = ""


def _step_probs(p, n_sites: int | None = None) -> np.ndarray:
    """The step-right probability p as float64, each value in (0, 1): a
    scalar, or with n_sites a scalar or one value per site, returned per site."""
    p_arr = np.asarray(p, dtype=np.float64)
    if p_arr.shape not in ((), (n_sites,)) or not np.all((p_arr > 0.0) & (p_arr < 1.0)):
        per_site = "" if n_sites is None else f" or one value for each of {n_sites} sites"
        raise ValueError(f"p must lie in (0, 1), as a scalar{per_site}")
    return p_arr if n_sites is None else np.broadcast_to(p_arr, (n_sites,))


def forward_step_weights(omega: np.ndarray, p) -> tuple[np.ndarray, np.ndarray]:
    """Per-site step weights right of an absorbing barrier.

    omega holds potentials for consecutive sites r+1, r+2, ...; the barrier
    sits at the site just left of omega[0].  Returns (w, log_w) of the same
    length: w[j] is the weight of moving from site r+1+j to site r+2+j
    before touching the barrier.  p is a scalar or one value per site, each
    in (0, 1).
    """
    return _forward_sweep(omega, _step_probs(p, len(omega)))


def _forward_sweep(omega, p_sites: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """forward_step_weights on a checked p, one value per site; the mirrored
    sweeps pass 1 - p, which is 1.0 for a p below about 1.1e-16.  The sweep
    runs in plain floats, where numpy's per-element overhead would dominate."""
    om_list = np.asarray(omega, dtype=np.float64).tolist()
    n_sites = len(om_list)
    p_list = p_sites.tolist()
    w = np.empty(n_sites)
    log_w = np.empty(n_sites)
    w_prev = 0.0
    exp, log, log1p = math.exp, math.log, math.log1p
    for j, (pj, om) in enumerate(zip(p_list, om_list)):
        s = exp(-om)
        damp = -log1p(-(1.0 - pj) * s * w_prev)
        log_w[j] = log(pj) - om + damp
        w_prev = pj * s * exp(damp)
        w[j] = w_prev
    return w, log_w


def _logaddexp(x, out, scratch) -> np.ndarray:
    """np.logaddexp(x, out) into out by numpy's own formula, max +
    log1p(exp(min - max)), in SIMD ufuncs, which run about five times
    faster than numpy's scalar logaddexp loop.  scratch is a float64
    array of out's shape.

    Where both sides are -inf, min - max is NaN, which fmax raises to
    _EXP_FLOOR, so the sum is -inf with no floating-point warning.  Any
    difference below the floor is raised to it too: np.exp leaves SIMD
    below about -707.7, and a subnormal result costs about 200 ns.
    e^-700 moves the sum only where max is within 1e-288 of 0, and then
    by at most 1e-304."""
    np.minimum(x, out, out=scratch)
    np.maximum(x, out, out=out)
    with np.errstate(invalid="ignore"):  # inf - inf, the one invalid case
        np.subtract(scratch, out, out=scratch)
    np.fmax(scratch, _EXP_FLOOR, out=scratch)
    np.exp(scratch, out=scratch)
    np.log1p(scratch, out=scratch)
    return np.add(out, scratch, out=out)


def _star(left, right) -> np.ndarray:
    """Compose the log weights of two adjacent runs, left run first.

    A run of sites [i..j] has weights a (from j to j+1 before i-1), rho
    (from i to i-1 before j+1), c (from j to i-1 before j+1) and t (from i
    to j+1 before i-1).  A path that crosses the junction returns to it a
    geometric number of times, which d = 1 - a_left rho_right sums.

    left and right hold four arrays each, all of one shape, which may be
    strided views into the caller's run and are only read.  Returns the
    composed (a, rho, c, t) as the first four rows of one block allocated
    here, whose fifth row holds ln d and then serves _logaddexp as
    scratch."""
    a_l, rho_l, c_l, t_l = left
    a_r, rho_r, c_r, t_r = right
    block = np.empty((5,) + a_l.shape)
    a, rho, c, t, log_d = block
    np.add(a_l, rho_r, out=log_d)  # ln d = ln(1 - e^(a_l + rho_r))
    np.expm1(log_d, out=log_d)
    np.negative(log_d, out=log_d)
    np.log(log_d, out=log_d)
    np.add(c_r, t_r, out=a)
    a += a_l
    np.add(t_l, c_l, out=rho)
    rho += rho_r
    np.add(c_l, c_r, out=c)
    np.add(t_l, t_r, out=t)
    block[:4] -= log_d
    _logaddexp(a_r, a, log_d)
    _logaddexp(rho_l, rho, log_d)
    return block[:4]


def _reduce(omega, p) -> tuple[np.ndarray, ...]:
    """Log weights (a, rho, c, t) of the run of all sites along omega's
    last axis; any leading axes are independent rows.  p is a scalar or one
    value per site.  All four stay logs: c and t decay along a run, and a
    and rho stay finite where the linear weight underflows.

    The run holds 2**k sites, which _halve reduces from their one-site
    runs.  Any other length is refused: its halves would not pair up.
    """
    _dyadic(omega.shape[-1], "_reduce", "sites")
    return _halve(_site_runs(omega, np.asarray(p, dtype=np.float64)))


def _dyadic(n: int, who: str, unit: str) -> None:
    """Refuse, naming who, a run of n units that is not 2**k of them."""
    if n < 1 or n & (n - 1):
        raise ValueError(f"{who} needs a run of 2**k {unit}, got {n}")


def _site_runs(omega, p) -> tuple[np.ndarray, ...]:
    """The one-site runs (a, rho, c, t) = (p s, q s, q s, p s) of each
    site, as logs, with s = e^-omega the site's survival factor."""
    right, left = np.log(p) - omega, np.log(1.0 - p) - omega
    return right, left, left, right


def _halve(run) -> tuple[np.ndarray, ...]:
    """Reduce runs of 2**k blocks along the last axis of run's four
    arrays to one block each: each level pairs blocks 0::2 with 1::2 into
    new arrays, so no stacked copy of the window is ever built.  run is
    handed over, so that each level frees the one before it.  Any other
    block count is refused: its halves would not pair up."""
    _dyadic(run[0].shape[-1], "_halve", "blocks")
    while run[0].shape[-1] > 1:
        run = _star([x[..., 0::2] for x in run], [x[..., 1::2] for x in run])
    return tuple(x[..., 0] for x in run)


class _RunTables:
    """Run tables of a finite law at step probability p: level m holds, in
    column code, the (a, rho, c, t) of an aligned run of 2**m sites whose
    atom indices, read in base K with the first site most significant, are
    code.  Level 0 is _site_runs of the atom values, and each level pairs
    the one below by _star, as _halve pairs a run, so a looked-up run has
    a computed one's digits.  Levels are built as a lookup first needs
    them, down to depth, the deepest with at most _TABLE_CODES codes; a law
    of one atom has one code at every level, so any depth."""

    def __init__(self, values: np.ndarray, p):
        self.n_atoms, self.depth, codes = values.size, 0, values.size
        while 1 < codes * codes <= _TABLE_CODES:
            self.depth, codes = self.depth + 1, codes * codes
        if codes == 1:
            self.depth = math.inf
        self.levels = [np.array(_site_runs(values, np.asarray(p, dtype=np.float64)))]

    def lookup(self, codes: np.ndarray) -> np.ndarray:
        """The runs of codes, an int64 array of atom indices along its last
        axis (2**k sites), as (4, ..., 2**(k - m)) blocks of 2**m sites, m =
        min(k, depth), ready for _halve: each level folds the codes of
        blocks 0::2 and 1::2, the pairs _halve would make.  Codes of any
        other run length are refused."""
        _dyadic(codes.shape[-1], "_RunTables.lookup", "sites")
        m, size = min(self.depth, codes.shape[-1].bit_length() - 1), self.n_atoms
        for level in range(m):
            if level + 1 == len(self.levels):
                left, right = divmod(np.arange(size * size), size)
                below = self.levels[level]
                self.levels.append(_star(below[:, left], below[:, right]))
            pairs = codes[..., 0::2] * size
            pairs += codes[..., 1::2]
            codes, size = pairs, size * size
        return np.take(self.levels[m], codes, axis=1)


def _result_from_a(a: float, **kw) -> SurvivalResult:
    e = math.exp(-a) if a < 744.0 else 0.0
    return SurvivalResult(e_value=e, a_value=a, underflowed=e < UNDERFLOW_FLOOR and a > 0.0, **kw)


def _barrier(n: int, r_ratio: float) -> int:
    """The barrier -ceil(r_ratio * n) of a journey 0 -> n; an r_ratio not
    finite and > 0 is refused."""
    if not (math.isfinite(r_ratio) and r_ratio > 0):
        raise ValueError(f"r_ratio must be finite and > 0, got {r_ratio!r}")
    return -math.ceil(r_ratio * n)


def two_point_a(env: Environment, x: int, y: int, r: int, p=0.5) -> float:
    """a_r(x, y) = -ln e_r(x, y) for r < x <= y, by the forward sweep."""
    x, y, r = (_checked_int(v, name) for v, name in ((x, "x"), (y, "y"), (r, "r")))
    if x == y:
        return 0.0
    if not (r < x < y):
        raise ValueError("need barrier < start < target (or start == target)")
    _, log_w = forward_step_weights(env.slice_values(r + 1, y - 1), p)
    return float(-np.sum(log_w[x - (r + 1) :]))


def two_point_e(env: Environment, x: int, y: int, r: int, p=0.5) -> float:
    """e_r(x, y), the survival weight companion of two_point_a."""
    return math.exp(-two_point_a(env, x, y, r, p))


def F_r(env, r: int, p=0.5) -> SurvivalResult:
    """Negative log survival weight of reaching site 1 before barrier r,
    started from 0 (the truncated one-step functional).  The forward sweep
    keeps it exactly nonincreasing in the barrier distance."""
    r = _checked_int(r, "r", most=-1)
    return _result_from_a(two_point_a(env, 0, 1, r, p), r_used=r)


@dataclass(frozen=True)
class LimitBatch:
    """Barrier-free limits of many environments, one entry per row, with
    the meanings of the SurvivalResult fields of the same names."""

    a_value: np.ndarray
    trunc_bound: np.ndarray
    r_used: np.ndarray
    converged: np.ndarray


def _tol(tol) -> float:
    """tol as a float, finite and > 0: the one rule for the tolerance of
    every limit, applied before any row is skipped or run."""
    tol = _finite(tol, "tol")
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol!r}")
    return tol


def _barrier_doubling(reduced, n_rows: int, r_min: int, tol: float) -> LimitBatch:
    """The barrier-doubling loop behind F_limit and F_limit_batch.

    reduced(rows, lo, hi) returns the log weights (a, rho, c, t) of the
    run of sites lo .. hi for each of the given rows, as _reduce does from
    their potentials.  The loop walks the barriers r = -2, -4, -8, ...
    while r >= r_min.  Each row keeps the run of sites r+1 .. 0 reduced so
    far; at barrier r the rows still running reduce only their new sites, a
    run of 2**k (two at r = -2, then -r/2), in chunks of at most
    _CELL_BUDGET cells of the window, and compose them with that run,
    which gives F_r = -ln a.  A row stops at its first decrement below tol
    (checked by _tol), or unconverged at the last barrier.  Its tail
    certificate is ln(1 + c/a): a path counted by F but not by F_r first
    travels from 0 down to r without touching 1 (weight c), then on to 1
    with weight at most 1.  One row runs the same array operations as a
    batch, so neither chunking nor batch composition changes a digit.
    With r_min > -2 no row runs, and every row reads 0, unconverged.
    """
    a_value = np.zeros(n_rows)
    trunc = np.zeros(n_rows)
    r_used = np.zeros(n_rows, dtype=np.int64)
    converged = np.zeros(n_rows, dtype=bool)
    active = np.arange(n_rows)
    run = np.empty((4, n_rows))  # column i is active[i]'s run of sites r_prev+1 .. 0

    def extend(cols, r, r_prev) -> np.ndarray:
        """Join sites r+1 .. r_prev to the runs of active[cols], record the
        rows that stop at r, and return the mask of those that go on.  Its
        temporaries die on return, before the next chunk draws."""
        rows = active[cols]
        joined = reduced(rows, r + 1, r_prev)
        if r_prev:
            joined = _star(joined, run[:, cols])
            decrement = joined[0] - run[0, cols]  # F_{r_prev} - F_r
        else:  # the first barrier's new sites are the whole run
            decrement = np.full(rows.size, math.inf)
        log_a, _, log_c, _ = joined
        for kept, new in zip(run[:, cols], joined):
            kept[...] = new
        stop = decrement < tol
        done = stop | (2 * r < r_min)
        if done.any():
            fin = rows[done]
            slack = decrement[done] if r_prev else 0.0
            trunc[fin] = slack + np.logaddexp(0.0, log_c[done] - log_a[done])
            a_value[fin], r_used[fin], converged[fin] = -log_a[done], r, stop[done]
        return ~done

    r_prev, r = 0, -2
    while active.size and r >= r_min:
        chunk = max(1, _CELL_BUDGET // -r)
        running = np.empty(active.size, dtype=bool)
        for start in range(0, active.size, chunk):
            cols = slice(start, start + chunk)
            running[cols] = extend(cols, r, r_prev)
        active, run = active[running], run[:, running]
        r_prev, r = r, 2 * r
    return LimitBatch(a_value, trunc, r_used, converged)


def F_limit(
    source,
    tol: float = DEFAULT_TOL,
    p=0.5,
) -> SurvivalResult:
    """Barrier-free limit F = a(0, 1) by doubling the barrier distance.

    source is an Environment, whose window bounds the barriers tried (the
    loop walks -2, -4, ... down to max(window_lo, DEFAULT_R_MAX), and a
    window that holds no barrier is refused), or an EnvironmentSource,
    which generates sites left of the origin lazily and runs as one keyed
    row of F_limit_batch's loop (its stream id, at this p), so the two
    give the same digits; anything else is refused.
    Stops once consecutive barrier doublings change the value by less than
    tol; trunc_bound reports the last decrement plus the analytic tail
    certificate, which bounds the remaining overestimate of the true limit.
    p is a scalar in (0, 1): the loop reduces windows of changing length.
    A delta-zero source at p >= 1/2 reaches 1 surely: its limit is 0
    exactly, with r_used 0.  tol is read by _tol.
    """
    p, tol = _step_probs(p), _tol(tol)
    if isinstance(source, EnvironmentSource):
        row = _keyed_rows([source.dist], source.seed, source.stream_id, tol, p)[0]
    elif isinstance(source, Environment):
        r_min = max(source.window_lo, DEFAULT_R_MAX)
        if r_min > -2:
            raise ValueError("window too small for any barrier in the schedule")
        row = _barrier_doubling(
            lambda rows, lo, hi: _reduce(source.slice_values(lo, hi)[None, :], p), 1, r_min, tol
        )
    else:
        raise ValueError(f"source must be an Environment or an EnvironmentSource, got {type(source).__name__}")
    r, ok = int(row.r_used[0]), bool(row.converged[0])
    # unconverged, r is the last barrier walked: the window ended first
    # if the next one, 2r, was still within DEFAULT_R_MAX
    reason = "window exhausted" if 2 * r >= DEFAULT_R_MAX else "deepest barrier reached"
    return _result_from_a(
        float(row.a_value[0]), converged=ok, r_used=r, trunc_bound=float(row.trunc_bound[0]),
        note="delta-zero potential: trivial case, limit is 0 exactly" if r == 0
        else "" if ok else f"not converged to tol={tol:g} ({reason}); "
        "expect O(1/|r|) convergence only for laws concentrated near 0",
    )


def F_limit_batch(dist, seed: int, n_samples: int, tol: float = DEFAULT_TOL) -> LimitBatch:
    """F_limit of EnvironmentSource(dist, seed, i) for every i < n_samples.

    Row i draws its potentials from stream i, exactly as the one-row call
    would, so each entry equals that call's result digit for digit and runs
    that share a seed share environments row by row.  For a delta-zero law
    every row is exactly 0 with r_used 0, as in F_limit, and tol is read
    by _tol all the same.  This is the one-law case of _keyed_rows, which
    runs many laws through one loop.
    """
    seed = _checked_int(seed, "seed")
    n_samples = _checked_int(n_samples, "n_samples", 0)
    return _keyed_rows([dist], seed, np.arange(n_samples), _tol(tol), 0.5)[0]


def _keyed_rows(dists, seed: int, streams, tol: float, p) -> list[LimitBatch]:
    """The limit of EnvironmentSource(dist, seed, s) at step probability p
    for every dist in dists and every stream id s in streams: one
    LimitBatch per law, one row per stream, from one barrier-doubling loop.
    tol has passed _tol.

    streams is an integer or a 1-d integer array, each id taken as the
    64-bit word keyed_uniform takes.  Each stream's key is derived once a
    call, and a chunk hashes its sites' counters with its rows' keys, as
    keyed_uniform would.  The loop's rows are law-major (row firsts[k] + i
    is streams[i] under the k-th law that runs it) and ascend in every chunk,
    so each law's rows form one contiguous block: a chunk hashes its words
    once, and each law reads its own block, as a call on that block alone
    would.  When every law that runs is finite, with one set of at most 16
    atom values (the tilts of one base law share theirs), a chunk takes
    each law's atom indices (atom_index_from_bits, the index ppf reads) and
    looks its runs up in one _RunTables; otherwise each law's ppf writes
    the potentials of its block, which _reduce reduces.  A finite law
    whose words all read its first atom (a one-atom law, say) draws the
    same potentials on every stream, so it runs one row (none when there
    are no streams), on the first stream's key, and its LimitBatch repeats
    that row.  Each row's key is laid out once a call, in row_keys.  At p
    >= 1/2 the walk on a delta-zero law reaches 1 surely, so its rows are 0
    exactly, converged, with r_used 0, and never enter the loop; at p < 1/2
    they run it, which converges geometrically there.
    """
    keys = np.atleast_1d(stream_key(seed, streams))
    n = keys.size
    sure = [bool(p >= 0.5) and dist.is_delta_zero for dist in dists]
    live = [dist for dist, skip in zip(dists, sure) if not skip]
    one_row = [dist.kind == "finite" and dist._cuts.size == 0 for dist in live]
    law_keys = [keys[:1] if one else keys for one in one_row]  # the keys of each law's rows
    firsts = np.cumsum([0] + [k.size for k in law_keys])
    row_keys = np.concatenate([keys[:0], *law_keys])
    atom_values = {tuple(dist._values.tolist()) if dist.kind == "finite" else None for dist in live}
    tables = None
    if len(atom_values) == 1 and None not in atom_values and live[0]._values.size ** 2 <= _TABLE_CODES:
        tables = _RunTables(live[0]._values, p)

    def reduced(rows, lo, hi):
        # the counter words overwrite the sites, and the atom indices the
        # hash's scratch, so that a chunk of one row, the deepest barriers'
        # chunk, allocates one array of its sites beside its cells
        sites = np.arange(lo, hi + 1, dtype=np.int64).view(np.uint64)
        scratch = np.empty((rows.size, sites.size), dtype=np.uint64)
        bits = mix_counters(row_keys[rows][:, None], _counter_words(sites, out=sites), scratch=scratch)
        del sites
        ends = np.searchsorted(rows, firsts).tolist()
        blocks = [(dist, slice(i, j)) for dist, i, j in zip(live, ends, ends[1:]) if i < j]
        if tables is not None:
            codes = scratch.view(np.int64)
            for dist, block in blocks:
                dist.atom_index_from_bits(bits[block], out=codes[block])
            del bits
            return _halve(tables.lookup(codes))
        del scratch
        u = _uniform(bits)
        del bits
        omega = np.empty_like(u)
        for dist, block in blocks:
            dist.ppf(u[block], out=omega[block])
        del u
        return _reduce(omega, p)

    batch = _barrier_doubling(reduced, int(firsts[-1]), DEFAULT_R_MAX, tol)
    out, k = [], 0
    for skip in sure:
        if skip:
            out.append(LimitBatch(np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64), np.ones(n, dtype=bool)))
            continue
        block = slice(firsts[k], firsts[k + 1])
        fields = (batch.a_value[block], batch.trunc_bound[block], batch.r_used[block], batch.converged[block])
        out.append(LimitBatch(*(np.repeat(x, n) for x in fields) if one_row[k] else fields))
        k += 1
    return out


def green_function_window(env: Environment, x: int, y: int, window: tuple[int, int], p=0.5) -> float:
    """Expected discounted visits to y from x, for paths confined to the
    open window (r, R).

    With the killed kernel K(u, v) = exp(-omega(u)) p(u, v) on the interior
    sites, this is exp(-omega(y)) [(I - K)^{-1} - I](x, y); each visit pays
    the potential of the visited site, including the terminal one.  A path
    first reaches y (the forward sweep under barrier r from the left, the
    mirrored sweep under barrier R from the right), then returns to y a
    geometric number of times through y-1 or y+1.  p is a scalar or one
    value per interior site, each in (0, 1).
    """
    r, cap = _window(window)
    x, y = _checked_int(x, "x"), _checked_int(y, "y")
    if not (r < x < cap and r < y < cap):
        raise ValueError("x and y must lie strictly inside the window")
    omega = env.slice_values(r + 1, cap - 1)
    p_arr = _step_probs(p, omega.size)
    k = y - (r + 1)  # y's index among the interior sites
    w, log_w = _forward_sweep(omega[:k], p_arr[:k])  # sites r+1 .. y-1, toward y
    v, log_v = _forward_sweep(omega[:k:-1], 1.0 - p_arr[:k:-1])  # sites R-1 .. y+1, toward y
    s_y = math.exp(-omega[k])
    ret = s_y * (p_arr[k] * (v[-1] if v.size else 0.0) + (1.0 - p_arr[k]) * (w[-1] if k else 0.0))
    first = ret if x == y else math.exp(np.sum(log_w[x - (r + 1) :] if x < y else log_v[cap - 1 - x :]))
    return s_y * first / (1.0 - ret)
