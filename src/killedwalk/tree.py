"""Reduction of killed walks on d-regular trees to killed walks on Z.

Fix a doubly infinite geodesic.  A walk travelling along it repeatedly
leaves into the d-2 side branches hanging off each geodesic vertex; folding
the survival weight of those excursions into the vertex produces an
effective potential rho = -ln h per geodesic site, after which the tree
problem is exactly a line problem for the induced walk on the geodesic.

The excursion weight h folds the return weights of the site's branch
forests.  One routine, _branch_brackets, computes every forest bracket:
a bottom-up recursion one level at a time over a forests axis (a finite
law's table levels chunk by chunk of forests, the float levels above them
batch by batch into a group buffer, the shallow ones once over the group),
truncated at the depth TreeConfig.depth_cap_D with
two-sided frontier bounds: killing the frontier undercounts returns,
granting the frontier the zero-potential return weight overcounts them,
so every reported h (and rho) is a certified bracket; both bounds travel
as one stacked axis through the same arithmetic.  A truncated level-D
bracket depends on the vertex's atom alone, a level-(D-1) one on its atom
and its children's, and so on: a finite law's deepest levels, while their
table of every such combination is no larger than the level, carry an
integer code per vertex in the narrowest unsigned type that holds it, and
the level above them looks its children up, bit for bit.  Trajectory
simulation on the same keyed potentials serves as an independent
cross-check, not as the primary computation: all walkers advance
together in blocks of up to _WALK_BLOCK_STEPS steps, each block one hash
for its step uniforms, a short scan of moves, one keyed ppf and one
accumulate for the log weights and one pass of the stop rule over
(step, walker) arrays in one workspace a call.  Each step uniform is
keyed by (walker, step), so no walker's path depends on the others or on
the blocks.  Both walker studies stop a walker by one rule (arrival
first, then the certified bound on what it can still score, the horizon
and the step cap), count every walker that did not arrive and add that
bound of each to a reported budget.

Orientation convention for drifted walks: the positive geodesic direction
points toward predecessors (uphill), which is the direction the one-step
drift p favours.  The effective line model is always oriented that way;
a turning point behind the start makes the journey a downhill ray, which
turning_point_decompose sweeps with the complementary step probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._parallel import ordered_map
from .env import Environment, PotentialDistribution, _checked_int, _window, make_distribution
from .line_solver import _barrier, forward_step_weights
from .lyapunov import _annealed_transfer
from .rng import _as_u64, _counter_words, _uniform, keyed_uniform_from_key, mix_counters, stream_key, substream

_EXCURSION_TAG = 0x6578
_PASSAGE_TAG = 0x7061
_FOREST_VERTEX_BUDGET = 40_000_000
# sites whose rho midpoints, at weight 1/_LINE_LAW_SITES each, make
# turning_point_decompose's line law, a sampled law with no sampling budget;
# a certified rho law is to replace it
_LINE_LAW_SITES = 240
# vertices on the deepest level of one chunk of forests: one forest at
# d = 3, depth 16.  Two forests a chunk doubled the forest workspace (to
# 3.7 MB) and lifted the tree benchmark's peak RSS by 4.4%; the float
# levels get their batching from batches whose first float level holds
# this many vertices, and the shallow levels from the groups of
# _level_split, through a group buffer of a quarter of this many cells a
# bound
_FOREST_CELL_BUDGET = 2**15
_LOG_BOUND_CUTOFF = -40.0  # a walker stops once it can score < e^-40 ~ 4e-18 (_max_walk_level)


def _max_walk_level(d: int) -> int:
    """Deepest branch level trajectory simulation follows.

    Level-order counters through level L number (d-1)^L - 1, which must
    stay inside int64.  A walker at level L with log weight l must climb
    L levels to score, each at most r = zero_potential_return_weight
    (gambler's ruin; potentials are >= 0), so it can still score at most
    e^l r^L.  _walk stops it once that is below e^_LOG_BOUND_CUTOFF, for
    the symmetric walk at d <= 20 always above this level.
    """
    return int(62 / math.log2(d - 1))


@dataclass(frozen=True)
class TreeConfig:
    """Degree, drift and the branch-recursion truncation depth.

    drift_p is the probability of stepping to the predecessor (uphill);
    None means the symmetric walk, p = 1/d.  Each of the d-1 children
    receives probability (1 - p) / (d - 1).
    """

    d: int
    drift_p: float | None = None
    depth_cap_D: int = 10

    def __post_init__(self):
        _checked_int(self.d, "d", 3)
        _checked_int(self.depth_cap_D, "depth_cap_D", 1)
        p = self.p
        if not 0.0 < p < 1.0:
            raise ValueError("drift must lie in (0, 1)")

    @property
    def p(self) -> float:
        return 1.0 / self.d if self.drift_p is None else float(self.drift_p)

    @property
    def s_child(self) -> float:
        return (1.0 - self.p) / (self.d - 1)


@dataclass(frozen=True)
class BranchSurvival:
    """Two-sided bracket on a return or excursion survival weight."""

    lower: float
    upper: float
    depth_used: int

    @property
    def width(self) -> float:
        return self.upper - self.lower


@dataclass(frozen=True)
class RhoPotential:
    """Effective line potential of one geodesic site, with its bracket.

    rho = -ln h, so the h bracket maps order-reversingly:
    rho_lower = -ln(h upper), rho_upper = -ln(h lower).
    """

    site_index: int
    rho_lower: float
    rho_upper: float
    h_bracket: BranchSurvival

    @property
    def midpoint(self) -> float:
        return 0.5 * (self.rho_lower + self.rho_upper)

    @property
    def halfwidth(self) -> float:
        return 0.5 * (self.rho_upper - self.rho_lower)


def first_passage_gf(d: int, z: float) -> float:
    """Generating function of the first-passage time to a fixed neighbour
    for the symmetric walk on the d-regular tree (smaller root of
    F = z/d + ((d-1)/d) z F**2)."""
    _checked_int(d, "d", 3)
    if not 0.0 <= z <= 1.0:
        raise ValueError("need z in [0, 1]")
    if z == 0.0:
        return 0.0
    disc = d * d - 4.0 * (d - 1.0) * z * z
    return (d - math.sqrt(disc)) / (2.0 * (d - 1.0) * z)


def sigma_finite_prob(d: int) -> float:
    """Probability that the symmetric tree walk ever steps onto one of the
    two geodesic neighbours of its starting vertex.

    The closed form 2(d-1)/((d-1)^2 + 1); the generating-function
    recursion at z = 1 gives the same value (selftest checks it).
    """
    _checked_int(d, "d", 3)
    return 2.0 * (d - 1.0) / ((d - 1.0) ** 2 + 1.0)


def zero_potential_return_weight(cfg: TreeConfig) -> float:
    """Return probability from a child to its parent with no potentials:
    the largest value any branch return weight can take."""
    p = cfg.p
    return min(1.0, p / (1.0 - p))


def _level_starts(d: int, n_roots: int, depth: int) -> np.ndarray:
    """Level-order counters of a branch forest: entry l is the counter of
    the first vertex on level l, for l = 0 .. depth + 1.

    Counter 0 belongs to the geodesic site that owns the forest.  Level
    l >= 1 holds n_roots * (d-1)^(l-1) vertices numbered left to right, so
    vertex idx on level l has counter starts[l] + idx, and the forest down
    to depth has starts[depth + 1] - 1 vertices.  The recursion and the
    walkers key potentials by these counters, so they see the same values.
    """
    starts = [0, 1]
    for level in range(1, depth + 1):
        starts.append(starts[-1] + n_roots * (d - 1) ** (level - 1))
    return np.array(starts, dtype=np.int64)


def _sum_children(w: np.ndarray, k: int, out: np.ndarray | None = None) -> np.ndarray:
    """Sum each run of k >= 2 consecutive entries along the last axis (the
    k children of a vertex), into out if it is given.

    Adds the k strided slices left to right, which for k < 8 is the order
    numpy's reduce along a short last axis uses, at a fraction of its cost.
    """
    total = np.add(w[..., 0::k], w[..., 1::k], out=out)
    for j in range(2, k):
        total += w[..., j::k]
    return total


def deepest_depth_cap(d: int, n_roots: int, dist: PotentialDistribution) -> tuple[int, str]:
    """The deepest branch depth the recursion takes for forests of n_roots
    roots at degree d under dist, and why: a one-atom law runs one scalar
    step a level, up to _FOREST_VERTEX_BUDGET of them; any other law builds
    forests, which must fit in that many vertices."""
    if len(dist.atoms) == 1:
        return _FOREST_VERTEX_BUDGET, " for a one-atom law"
    deepest, n_vertices = 0, n_roots  # n_vertices: the forest one level deeper
    while n_vertices <= _FOREST_VERTEX_BUDGET:
        deepest += 1
        n_vertices += n_roots * (d - 1) ** deepest
    return deepest, f", the depth of the deepest branch forest within {_FOREST_VERTEX_BUDGET} vertices at d = {d}"


class _Workspace:
    """The buffers of _run_levels for levels of up to cells vertices: the
    level counters of one forest with the level starts given, times the
    hash increment (mix_counters' words), the hashed words, the hash
    scratch, the visit survivals s and two buffers w that take turns holding
    a level's children's sum and then, in place, its bracket of return
    weights; tables, _bracket_tables' tables, with types, each table
    level's code type (the narrowest unsigned type that holds a code below
    its table's size); and codes, the last table level's codes of a batch
    of batch forests.  A table level keeps its codes in w[level % 2], viewed
    as its code type, so that the level above reads them without overlap."""

    def __init__(self, starts: list[int], cells: int, tables: dict[int, np.ndarray], batch: int):
        self.counters = np.arange(starts[-1], dtype=np.uint64)
        _counter_words(self.counters, out=self.counters)
        self.bits = np.empty(cells, dtype=np.uint64)
        self.scratch = np.empty(cells, dtype=np.uint64)
        self.s = np.empty(cells)
        self.w = (np.empty(2 * cells), np.empty(2 * cells))
        self.tables = tables
        self.types = {level: np.min_scalar_type(table.shape[1] - 1) for level, table in tables.items()}
        top = min(tables, default=None)  # the last table level
        self.codes = None if top is None else np.empty(batch * (starts[top + 1] - starts[top]), dtype=self.types[top])


def _level_bracket(cfg: TreeConfig, s: np.ndarray, total: np.ndarray | None, out: np.ndarray) -> np.ndarray:
    """A level's bracket into out (2, n) from its survivals s (n,), which
    it overwrites, and total, the sum of each vertex's d - 1 children's
    brackets, held in out (None below the deepest level: the frontier).
    Refuses a denominator not positive."""
    d, p, s_child = cfg.d, cfg.p, cfg.s_child
    if total is None:
        w = np.array([[0.0], [zero_potential_return_weight(cfg)]])
        np.multiply(s, s_child * (d - 1) * w, out=out)
    else:
        np.multiply(s_child, total, out=out)
        np.multiply(s, out, out=out)
    np.subtract(1.0, out, out=out)
    if not out.min() > 0.0:  # NaN included
        raise AssertionError("return-weight denominator not positive; bracket logic violated")
    return np.divide(np.multiply(p, s, out=s), out, out=out)


def _table_children(table: np.ndarray, codes: np.ndarray, k: int, out: np.ndarray, idx: np.ndarray, tmp: np.ndarray):
    """_sum_children of the brackets table (2, M) holds at codes (the k
    children of a vertex consecutive), into out (2, n): the same adds in
    the same order, so the same bits.  idx (n,) intp and tmp (n,) float
    are scratch."""
    for j in range(k):
        np.copyto(idx, codes[j::k])
        for row, total in zip(table, out):
            if j:
                total += np.take(row, idx, out=tmp, mode="clip")
            else:
                np.take(row, idx, out=total, mode="clip")
    return out


def _bracket_tables(cfg: TreeConfig, dist: PotentialDistribution, cells: list[int], split: int) -> dict[int, np.ndarray]:
    """The (2, M_l) bracket tables of the table levels l, by level, for
    cells[l] vertices a forest on level l = 0 .. D and split level m.

    A vertex there carries a code: its atom index on level D, and own
    M^(d-1) + sum_j child_j M^(d-2-j) above, M = M_{l+1}; so M_D = K and
    M_l = K M_{l+1}^(d-1) for a finite law of K atoms.  Levels D, D - 1,
    ... are table levels while M_l <= cells[l] and l > m; an exponential
    law has none.  Each table runs _level_bracket over its codes, so a
    looked-up bracket equals the computed one bit for bit."""
    if dist.kind != "finite":
        return {}
    k, atoms, depth = cfg.d - 1, len(dist.atoms), len(cells) - 1
    tables, size = {}, atoms
    for level in range(depth, split, -1):
        if size > cells[level]:
            break
        out = np.empty((2, size))
        if level == depth:
            own, total = np.arange(atoms), None
        else:
            below = tables[level + 1]
            digits = np.indices((atoms,) + (below.shape[1],) * k).reshape(k + 1, -1)
            own = digits[0]
            total = _sum_children(np.take(below, digits[1:].T.ravel(), axis=1), k, out=out)
        # survival_from_bits' factor of each atom
        tables[level] = _level_bracket(cfg, dist._survival[own], total, out)
        size = atoms * size**k
    return tables


def _run_levels(
    cfg: TreeConfig, dist: PotentialDistribution, keys: np.ndarray, starts: list[int], levels: range, w, ws
) -> np.ndarray:
    """Run levels (deepest first) of the return-weight recursion on a batch
    of branch forests, one per stream key in keys, keyed by the counters of
    starts, from w, what the level below the first left: its bracket (2,
    n), or its codes (n,) if it is a table level (ignored below the deepest
    level: the frontier).  Returns the last level's bracket or codes, a
    view into ws (w if levels is empty).  Each level mixes the keys into its
    counters.  A table level writes each vertex's atom index
    (atom_index_from_bits) straight into its code buffer and composes its
    children's codes there as base-M digits; the float level above the
    tables sums its children's brackets from the table (_table_children);
    every float level reads the survivals straight from the words
    (survival_from_bits).  A level of the batch lays its forests' levels
    end to end in key order and every operation is elementwise, so a
    forest's numbers do not depend on its batch; ws and out= ufuncs leave
    no level-sized array to allocate but a finite law's masks of its second
    and later cuts."""
    tables, k = ws.tables, cfg.d - 1
    for level in levels:
        counters = ws.counters[starts[level] : starts[level + 1]]
        n, shape = keys.size * counters.size, (keys.size, counters.size)
        mix_counters(keys[:, None], counters, out=ws.bits[:n].reshape(shape), scratch=ws.scratch[:n].reshape(shape))
        if level in tables:
            code = dist.atom_index_from_bits(ws.bits[:n], out=ws.w[level % 2].view(ws.types[level])[:n])
            if level + 1 in tables:  # w holds the children's codes
                m = tables[level + 1].shape[1]
                for j in range(k):
                    code *= m
                    code += w[j::k]
            w = code
            continue
        out = ws.w[level % 2][: 2 * n].reshape(2, n)
        if level == len(starts) - 2:
            total = None
        elif w.ndim == 1:  # the children's codes; s is free until the survivals
            total = _table_children(tables[level + 1], w, k, out, ws.scratch[:n].view(np.intp), ws.s[:n])
        else:
            total = _sum_children(w, k, out=out)
        w = _level_bracket(cfg, dist.survival_from_bits(ws.bits[:n], out=ws.s[:n]), total, out)
    return w


def _level_split(cells: list[int], chunk: int) -> tuple[int, int]:
    """Split level m < D and group size G of _branch_brackets, for cells[l]
    vertices a forest on level l = 0 .. D: m is the deepest level of at
    most _FOREST_CELL_BUDGET // 256 (mostly numpy call overhead), G the
    most whole chunks whose level-(m + 1) brackets fit a quarter of the
    budget.  At d = 3: m = 8, G = 32, a 128 KB group buffer."""
    split = max((l for l in range(len(cells) - 1) if cells[l] <= _FOREST_CELL_BUDGET // 256), default=0)
    return split, _FOREST_CELL_BUDGET // 4 // cells[split + 1] // chunk * chunk


def _branch_brackets(cfg: TreeConfig, dist: PotentialDistribution, keys: np.ndarray, n_roots: int) -> np.ndarray:
    """Return-weight brackets of every root of a batch of branch forests
    D = cfg.depth_cap_D deep, one per stream key in keys (rng.stream_key
    of the seed and the forest's stream id): a (2, len(keys), n_roots)
    array, the lower bracket (frontier killed, w = 0) stacked on the upper
    one (frontier granted the zero-potential return weight).  A one-atom
    law runs one scalar recursion on Python floats instead (the same IEEE
    arithmetic), which stops once both bounds repeat.  D past
    deepest_depth_cap is refused before any work.

    A finite law's deepest levels D .. t, the table levels, carry integer
    codes and look their brackets up in tables built once a call
    (_bracket_tables); every other level is a float level.  The forests run
    in three nested phases, split at the level m of _level_split:
    - chunks, whose deepest level holds at most _FOREST_CELL_BUDGET
      vertices (at least one forest), run the table levels, each writing
      its level-t codes into the batch's code buffer;
    - batches, the most whole chunks whose first float level (t - 1, or D
      without tables) fits that budget, at most a group, run the float
      levels down to m + 1, the first one summing its children from the
      level-t table (or, if t = m + 1, looking level t up), each writing
      its level-(m + 1) bracket into the group buffer;
    - groups of G forests (_level_split) run their batches in turn, then
      levels m .. 1 once over the group.
    If one chunk holds a group, m = 0.  At d = 3, depth 16 and two or three
    atoms: one forest a chunk on levels 16 .. 14, 8 a batch on levels
    13 .. 9 and 32 a group on levels 8 .. 1.  All on one workspace; none
    changes a digit.

    The table build checks the denominator of every code, also of codes
    no vertex carries; with a valid frontier every denominator is
    positive, so it refuses nothing the vertex-by-vertex route accepts.
    """
    d, p, s_child, depth = cfg.d, cfg.p, cfg.s_child, cfg.depth_cap_D
    deepest, why = deepest_depth_cap(d, n_roots, dist)
    if depth > deepest:
        raise ValueError(f"branch depth {depth} is deeper than {deepest}{why}; lower the depth cap")
    if len(dist.atoms) == 1:
        s = math.exp(-dist.atoms[0][0])
        num, child = p * s, s * s_child * (d - 1)
        w = (0.0, zero_potential_return_weight(cfg))
        for _ in range(depth):
            nxt = (num / (1.0 - child * w[0]), num / (1.0 - child * w[1]))
            if nxt == w:  # a fixed point: every deeper level repeats it
                break
            w = nxt
        return np.full((2, keys.size, n_roots), np.array(w)[:, None, None])
    starts = _level_starts(d, n_roots, depth).tolist()
    cells = [b - a for a, b in zip(starts, starts[1:])]
    chunk = max(1, _FOREST_CELL_BUDGET // cells[depth])
    split, group = _level_split(cells, chunk)
    if split >= depth or group <= chunk:  # one chunk holds a whole group
        split, group = 0, chunk
    tables = _bracket_tables(cfg, dist, cells, split)
    top = min(tables, default=depth + 1)  # the last table level
    batch = min(group, max(chunk, _FOREST_CELL_BUDGET // cells[top - 1] // chunk * chunk))
    table_levels, floats, shallow = range(depth, top - 1, -1), range(top - 1, split, -1), range(split, 0, -1)
    n_chunk, n_batch, n_group = (min(size, keys.size) for size in (chunk, batch, group))
    width, code_width = cells[split + 1], cells[top] if tables else 0
    cells_ws = max(n_chunk * cells[depth], n_batch * cells[top - 1] if floats else 0, n_group * cells[split])
    ws = _Workspace(starts, cells_ws, tables, n_batch)
    buf = np.empty((2, n_group * width))

    def run(first: int) -> np.ndarray:
        part = keys[first : first + group]
        w = buf[:, : part.size * width]
        for j in range(0, part.size, batch):
            sub, codes = part[j : j + batch], None
            if tables:
                codes = ws.codes[: sub.size * code_width]
                for i in range(0, sub.size, chunk):
                    codes[i * code_width : (i + chunk) * code_width] = _run_levels(
                        cfg, dist, sub[i : i + chunk], starts, table_levels, None, ws
                    )
            sub_w = _run_levels(cfg, dist, sub, starts, floats, codes, ws)
            # no float level above the tables: look level m + 1 up
            w[:, j * width : (j + batch) * width] = sub_w if floats else np.take(tables[top], sub_w, axis=1)
        # a view into ws or buf, which the next group overwrites
        return _run_levels(cfg, dist, part, starts, shallow, w, ws).reshape(2, -1, n_roots).copy()

    return np.concatenate(ordered_map(run, range(0, keys.size, group)), axis=1)


def _site_brackets(cfg: TreeConfig, dist: PotentialDistribution, seed: int, streams: int | np.ndarray) -> np.ndarray:
    """Bracketed excursion survival weights h of geodesic sites, one per
    stream id in streams (an int or an integer array), each folded from
    its site's d - 2 branch forests: a (2, len(streams)) array holding the
    lower and the upper bound of every site, in stream order."""
    keys = stream_key(seed, np.atleast_1d(_as_u64(streams)))
    w = _branch_brackets(cfg, dist, keys, cfg.d - 2)
    # the site's own potential, keyed_uniform(seed, streams, 0)
    omega_site = dist.ppf(keyed_uniform_from_key(keys, 0))
    # math.exp: numpy's vectorized exp may round differently, which
    # would move h by an ulp against data files already written
    s = np.array([math.exp(-x) for x in omega_site.tolist()])
    denom = 1.0 - s * cfg.s_child * w.sum(axis=-1)
    if np.any(denom <= 0.0):
        raise AssertionError("excursion denominator not positive; bracket logic violated")
    return (cfg.p + cfg.s_child) * s / denom


def branch_return_weight(
    cfg: TreeConfig,
    dist: PotentialDistribution,
    seed: int = 0,
    stream_id: int = 0,
) -> BranchSurvival:
    """Bracketed return weight of one branch cfg.depth_cap_D deep: the
    survival weight of starting at the branch root and coming back to its
    parent.

    The lower bound kills the walk at the depth frontier; the upper bound
    grants frontier subtrees the zero-potential return weight, the largest
    value compatible with nonnegative potentials.
    """
    keys = stream_key(_checked_int(seed, "seed"), np.atleast_1d(_as_u64(_checked_int(stream_id, "stream_id"))))
    lo, hi = _branch_brackets(cfg, dist, keys, 1)[:, 0, 0]
    return BranchSurvival(float(lo), float(hi), cfg.depth_cap_D)


def excursion_survival_h(
    cfg: TreeConfig,
    dist: PotentialDistribution,
    seed: int = 0,
    stream_id: int = 0,
) -> BranchSurvival:
    """Bracketed excursion survival weight h of one geodesic site: survive
    the site and its branch excursions until first stepping onto one of
    the two geodesic neighbours."""
    lo, hi = _site_brackets(cfg, dist, _checked_int(seed, "seed"), _checked_int(stream_id, "stream_id"))[:, 0]
    return BranchSurvival(float(lo), float(hi), cfg.depth_cap_D)


def _site_h(
    cfg: TreeConfig, dist: PotentialDistribution, sites: np.ndarray, seed: int, stream_id: int
) -> tuple[list[float], list[float]]:
    """The lower and the upper h bounds of the geodesic sites with the
    given indices, each on its own stream substream(stream_id, site)."""
    seed, stream_id = _checked_int(seed, "seed"), _checked_int(stream_id, "stream_id")
    h_lo, h_hi = _site_brackets(cfg, dist, seed, substream(stream_id, np.asarray(sites, dtype=np.int64)))
    return h_lo.tolist(), h_hi.tolist()


def _site_rhos(
    cfg: TreeConfig,
    dist: PotentialDistribution,
    sites: np.ndarray,
    seed: int,
    stream_id: int,
) -> list[RhoPotential]:
    """rho brackets of the geodesic sites with the given indices (_site_h)."""
    h_lo, h_hi = _site_h(cfg, dist, sites, seed, stream_id)
    return [
        RhoPotential(
            site_index=i,
            rho_lower=-math.log(upper),
            rho_upper=-math.log(lower),
            h_bracket=BranchSurvival(lower, upper, cfg.depth_cap_D),
        )
        for i, lower, upper in zip(np.asarray(sites, dtype=np.int64).tolist(), h_lo, h_hi)
    ]


def rho_for_site(
    cfg: TreeConfig,
    dist: PotentialDistribution,
    site_index: int,
    seed: int = 0,
    stream_id: int = 0,
) -> RhoPotential:
    """Effective potential bracket of one geodesic site.

    Each site owns a derived stream keyed by its index, so the rho values
    are independent across sites and resampling one site never perturbs
    another.
    """
    return _site_rhos(cfg, dist, [_checked_int(site_index, "site_index")], seed, stream_id)[0]


def geodesic_step_prob(cfg: TreeConfig) -> float:
    """Probability that the induced geodesic walk steps uphill (toward the
    predecessor), conditional on stepping at all: p / (p + (1-p)/(d-1))."""
    return cfg.p / (cfg.p + cfg.s_child)


@dataclass(frozen=True)
class EffectiveLineModel:
    """The reduced line problem: rho environments (bracket midpoints plus
    both envelopes) and the induced step probability."""

    env_mid: Environment
    env_lower: Environment
    env_upper: Environment
    step_right_prob: float
    brackets: list[RhoPotential]
    max_halfwidth: float


def rho_environment(
    cfg: TreeConfig,
    dist: PotentialDistribution,
    window: tuple[int, int],
    seed: int = 0,
    stream_id: int = 0,
) -> tuple[list[RhoPotential], Environment, Environment, Environment]:
    """rho brackets on an inclusive window, packaged as three environments
    (midpoint, lower envelope, upper envelope) sharing the window.

    Sites own disjoint streams, so their branch forests are computed in
    batched chunks of sites without changing a digit.
    """
    lo, hi = _window(window)
    brackets = _site_rhos(cfg, dist, np.arange(lo, hi + 1), seed, stream_id)
    def pack(vals):
        return Environment(lo, hi, np.asarray(vals), seed=seed, stream_id=stream_id)
    mids = pack([b.midpoint for b in brackets])
    lows = pack([b.rho_lower for b in brackets])
    highs = pack([b.rho_upper for b in brackets])
    return brackets, mids, lows, highs


def reduce_to_line(
    cfg: TreeConfig,
    dist: PotentialDistribution,
    n: int,
    seed: int = 0,
    stream_id: int = 0,
    r_ratio: float = 4.0,
) -> EffectiveLineModel:
    """Build the effective line model for journeys uphill to geodesic site n.

    The window spans [-ceil(r_ratio * n), n] so downstream line solves can
    place their barrier inside it.  The positive direction points toward
    predecessors, so the line walk steps right with probability
    geodesic_step_prob.
    """
    n = _checked_int(n, "n", 1)
    brackets, mids, lows, highs = rho_environment(cfg, dist, (_barrier(n, r_ratio), n), seed, stream_id)
    return EffectiveLineModel(
        env_mid=mids,
        env_lower=lows,
        env_upper=highs,
        step_right_prob=geodesic_step_prob(cfg),
        brackets=brackets,
        max_halfwidth=max(b.halfwidth for b in brackets),
    )


# ---------------------------------------------------------------------------
# Trajectory simulation: the independent cross-check on the recursion.
# ---------------------------------------------------------------------------


_ARRIVED, _BOUND, _HORIZON, _STEP_CAP = range(4)  # why a walker stopped
# a block of _walk runs min(_WALK_BLOCK_STEPS, _WALK_BLOCK_CELLS // live
# walkers) steps (at least one), so its (step, walker) arrays hold at most
# about this many cells each
_WALK_BLOCK_CELLS = 2**13
_WALK_BLOCK_STEPS = 16


def _walk(
    cfg: TreeConfig,
    dist: PotentialDistribution,
    seed: int,
    stream_id: int,
    step_stream: int,
    n_walkers: int,
    start: int,
    targets: tuple[int, int],
    horizon: int,
    max_steps: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance n_walkers tree walkers from geodesic site start together,
    a block of steps at a time, until each one stops.

    targets = (near, far), near <= far, holds the nearest and the farthest
    target site in the geodesic's order (equal for a single target); a
    walker arrives on either.  A live walker is (geodesic site, branch
    level, index within the level, log weight), one entry of four arrays;
    level 0 is the geodesic itself.  Before each of its max_steps steps,
    and once more after the last, a walker meets the one stop rule, in
    order: arrival on a target site (scored even after its last allowed
    step), the bound l + L ln r < _LOG_BOUND_CUTOFF of _max_walk_level,
    the horizon (branch level plus distance to the nearer target beyond
    horizon) and the step cap.  A walker that meets none pays its
    vertex's potential, keyed by substream(stream_id, site) and the
    level-order counter, and moves on its step-t uniform
    keyed_uniform(seed, substream(step_stream, w), t).  The site keys are
    derived once a call, over the sites the horizon lets a walker pay
    (within horizon of a target), and so are the walker keys.

    A block of T steps (_WALK_BLOCK_CELLS, _WALK_BLOCK_STEPS) takes the
    live walkers as (T + 1, n) arrays, one row a step: one hash draws
    every step uniform, a scan of a few calls a step moves the walkers
    on moves worked out for the whole block at once, one ppf prices
    every position and np.subtract.accumulate along the steps gives the
    log weights, the same subtractions in the same order.  The stop rule
    then runs once over the T new rows; a walker is scored at its first
    stop, and the stopped ones leave the arrays once a block.  Positions
    after a walker's stop are never read, so their keys are taken with
    mode="clip".  Every block's arrays are views into one workspace a
    call, which keeps the heap from growing over repeated calls.

    Returns each walker's score e^(l + L ln r) at its stop (its survival
    weight if it arrived, L = 0 there; else the most it could still score)
    and the cause that stopped it (_ARRIVED, _BOUND, _HORIZON or
    _STEP_CAP).
    """
    d, k, p, s_child = cfg.d, cfg.d - 1, cfg.p, cfg.s_child
    s_geo = p + s_child
    starts = _level_starts(d, d - 2, _max_walk_level(d))
    near, far = targets
    lo = near - horizon  # the horizon stops a walker below lo before it pays
    site_key = stream_key(seed, substream(stream_id, np.arange(lo, far + horizon + 1)))
    ln_r = math.log(zero_potential_return_weight(cfg))
    score = np.zeros(n_walkers)
    cause = np.full(n_walkers, _STEP_CAP, dtype=np.int8)
    walker = np.arange(n_walkers)
    step_key = stream_key(seed, substream(step_stream, walker))

    def stop(geo, level, log_w, capped):
        """Score each walker at the first of the rows of the (R, n)
        states where it stops (on the last row, if capped, every walker
        stops: the step cap) and return the mask of those that stop on
        none."""
        gap = np.abs(geo - near)
        if far != near:
            np.minimum(gap, np.abs(geo - far), out=gap)
        gap += level  # 0 exactly on a target site of the geodesic
        arrived = gap == 0
        bound = level * ln_r
        bound += log_w  # log_w exactly where level is 0
        cut = bound < _LOG_BOUND_CUTOFF
        cut &= ~arrived
        stops = cut | arrived
        lost = gap > horizon
        lost &= ~stops
        stops |= lost
        if capped:
            stops[-1] = True  # the rest keep cause _STEP_CAP
        hit = stops.any(axis=0)
        if hit.any():
            col = np.flatnonzero(hit)
            at = stops.argmax(axis=0)[col] * hit.size + col  # each first stop, flat
            w = walker[col]
            score[w] = np.exp(bound.take(at))
            cause[w[arrived.take(at)]] = _ARRIVED
            cause[w[cut.take(at)]] = _BOUND
            cause[w[lost.take(at)]] = _HORIZON
        return ~hit

    geo = np.full(n_walkers, start, dtype=np.int64)
    level = np.zeros(n_walkers, dtype=np.int64)
    idx = np.zeros(n_walkers, dtype=np.int64)
    log_w = np.zeros(n_walkers)
    live = stop(geo[None], level[None], log_w[None], max_steps == 0)
    # every block's arrays are views into one workspace a call, (T + 1) n
    # <= cells each: seven int64 rows (the positions, then the moves, whose
    # rows the pricing hash reuses), two float rows and two mask rows
    cells = max(_WALK_BLOCK_CELLS, n_walkers) + n_walkers
    ints, floats, masks = np.empty((7, cells), dtype=np.int64), np.empty((2, cells)), np.empty((2, cells), dtype=bool)
    step = 0
    while True:
        # a copy out of the workspace, which the block overwrites
        walker, step_key, geo, level, idx, log_w = (a[live] for a in (walker, step_key, geo, level, idx, log_w))
        n = walker.size
        if n == 0:
            break
        t = max(1, min(_WALK_BLOCK_STEPS, _WALK_BLOCK_CELLS // n, max_steps - step))
        G, L, I = (row[: (t + 1) * n].reshape(t + 1, n) for row in ints[:3])
        geo_step, child_geo, child, level_step = (row[: t * n].reshape(t, n) for row in ints[3:])
        u, lw = floats[0, : t * n].reshape(t, n), floats[1, : (t + 1) * n].reshape(t + 1, n)
        up, down_geo = (row[: t * n].reshape(t, n) for row in masks)
        words, scratch = (a.view(np.uint64) for a in (child_geo, child))
        mix_counters(step_key, _counter_words(np.arange(step, step + t)[:, None]), out=words, scratch=scratch)
        _uniform(words, out=u)
        # a walker goes down a level on u >= base (s_geo on the geodesic,
        # p on a branch), onto child (u - base) / s_child of its d-1 (on
        # the geodesic, d-2); below base a branch walker climbs, to index
        # idx // (d-1), and a geodesic walker steps along the geodesic,
        # uphill on u < p, keeping index 0.  A walker past the level cap
        # has stopped, so a wrapped int64 index there is never used
        np.less(u, p, out=up)
        np.greater_equal(u, s_geo, out=down_geo)
        np.subtract(2 * up, ~down_geo, out=geo_step)  # +1 uphill, -1 along, 0 down
        np.subtract(1, 2 * up, out=level_step)  # a branch walker's: +1 down, -1 up
        np.copyto(child_geo, np.divide(np.subtract(u, s_geo), s_child), casting="unsafe")
        np.minimum(child_geo, d - 3, out=child_geo)
        child_geo *= down_geo  # a geodesic walker's next index
        np.copyto(child, np.divide(np.subtract(u, p, out=u), s_child, out=u), casting="unsafe")
        np.minimum(child, d - 2, out=child)
        G[0], L[0], I[0] = geo, level, idx
        for j in range(t):
            on_geo = L[j] == 0
            np.add(G[j], np.where(on_geo, geo_step[j], 0), out=G[j + 1])
            np.add(L[j], np.where(on_geo, down_geo[j], level_step[j]), out=L[j + 1])
            branch = np.multiply(I[j], k)
            branch += child[j]
            I[j + 1] = np.where(on_geo, child_geo[j], np.where(up[j], I[j] // k, branch))
        # the moves are spent: their rows take the pricing hash
        counters, keys, sites = (a.view(np.uint64) for a in (geo_step, child_geo, child))
        np.take(starts, L[:t], out=geo_step, mode="clip")
        _counter_words(np.add(geo_step, I[:t], out=geo_step).view(np.uint64), out=counters)
        np.take(site_key, np.subtract(G[:t], lo, out=child), out=keys, mode="clip")
        mix_counters(keys, counters, out=counters, scratch=sites)
        lw[0] = log_w
        dist.ppf(_uniform(counters, out=u), out=lw[1:])
        np.subtract.accumulate(lw, axis=0, out=lw)
        step += t
        live = stop(G[1:], L[1:], lw[1:], step == max_steps)
        geo, level, idx, log_w = G[t], L[t], I[t], lw[t]
    return score, cause


class WalkerEstimate(tuple):
    """(mean, standard error, walkers lost) of a walker study.  A walker
    stopped short of arrival (by the bound, the horizon or the step cap)
    scores zero but could still have scored e^(l + L ln r)
    (_max_walk_level); with trunc_budget, the mean of those bounds over
    all walkers, the estimated weight lies in [E[mean], E[mean +
    trunc_budget]].  lost_by_cause counts the lost walkers by cause:
    "bound", "horizon", "step_cap"."""

    trunc_budget = property(lambda self: self._budget)
    lost_by_cause = property(lambda self: dict(self._lost))


def _estimate(score: np.ndarray, cause: np.ndarray) -> WalkerEstimate:
    arrived = cause == _ARRIVED
    weight = np.where(arrived, score, 0.0)
    n = weight.size
    mean = float(weight.sum()) / n
    var = max(float((weight * weight).sum()) / n - mean**2, 0.0)
    counts = np.bincount(cause, minlength=4).tolist()
    out = WalkerEstimate((mean, math.sqrt(var / n), n - counts[_ARRIVED]))
    out._budget = float(score[~arrived].sum()) / n
    out._lost = dict(zip(("bound", "horizon", "step_cap"), counts[_BOUND:]))
    return out


def simulate_excursions(
    cfg: TreeConfig,
    dist: PotentialDistribution,
    site_index: int = 0,
    n_excursions: int = 100_000,
    seed: int = 0,
    stream_id: int = 0,
    max_steps: int = 100_000,
) -> WalkerEstimate:
    """Monte Carlo estimate of the excursion survival weight h of one site.

    Walks the actual tree on the potentials the recursion bracket keys for
    the same site, and accumulates the survival weight until the walk
    first steps onto a geodesic neighbour, under _walk's stop rule.
    Returns a WalkerEstimate: (mean, standard error, number of lost
    excursions), each lost one scored zero, with trunc_budget and
    lost_by_cause.
    """
    n_excursions, max_steps = _checked_int(n_excursions, "n_excursions", 1), _checked_int(max_steps, "max_steps", 0)
    site_index, seed = _checked_int(site_index, "site_index"), _checked_int(seed, "seed")
    stream_id = _checked_int(stream_id, "stream_id")
    score, cause = _walk(
        cfg, dist, seed, stream_id, substream(_EXCURSION_TAG, substream(stream_id, site_index)), n_excursions,
        start=site_index,
        targets=(site_index - 1, site_index + 1),
        horizon=_max_walk_level(cfg.d) + 1,
        max_steps=max_steps,
    )
    return _estimate(score, cause)


def simulate_geodesic_passage(
    cfg: TreeConfig,
    dist: PotentialDistribution,
    target: int = 1,
    n_walks: int = 20_000,
    seed: int = 0,
    stream_id: int = 0,
    escape_horizon: int = 60,
    max_steps: int = 1_000_000,
) -> WalkerEstimate:
    """Monte Carlo estimate of the survival weight from geodesic site 0 to
    geodesic site target > 0 by walking the full tree.

    The same per-site streams as the reduction are used, so this estimates
    the quantity the effective line model computes.  Walks farther than
    escape_horizon (at most the level cap) from the target are declared
    lost.  Walks stop under _walk's stop rule.  Returns a WalkerEstimate:
    (mean, standard error, number of lost walks), each lost one scored
    zero, with trunc_budget and lost_by_cause.
    """
    target, n_walks = _checked_int(target, "target", 1), _checked_int(n_walks, "n_walks", 1)
    seed, stream_id = _checked_int(seed, "seed"), _checked_int(stream_id, "stream_id")
    max_steps = _checked_int(max_steps, "max_steps", 0)
    horizon = min(_checked_int(escape_horizon, "escape_horizon"), _max_walk_level(cfg.d))
    if horizon < target:
        raise ValueError(f"escape_horizon {horizon} (after the level cap) is below target {target}")
    score, cause = _walk(
        cfg, dist, seed, stream_id, substream(_PASSAGE_TAG, stream_id), n_walks,
        start=0,
        targets=(target, target),
        horizon=horizon,
        max_steps=max_steps,
    )
    return _estimate(score, cause)


# ---------------------------------------------------------------------------
# Turning-point geodesics for drifted walks.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GeodesicSpec:
    """The journey 0 -> target_index along a geodesic whose height peaks at
    turning_index_k (a ray downhill when k <= 0); kind is "turning-point"."""

    kind: str
    turning_index_k: int = 0
    target_index: int = 1

    def __post_init__(self):
        if self.kind != "turning-point":
            raise ValueError(f"kind must be 'turning-point', got {self.kind!r}")
        _checked_int(self.turning_index_k, "turning_index_k")
        _checked_int(self.target_index, "target_index", 1)


@dataclass(frozen=True)
class TurningPointReport:
    """Quenched decomposition across the peak and the annealed orderings.

    a_total = a_uphill + a_beyond holds exactly (additivity along the
    geodesic); on the annealed side the longer journey is never less
    costly than its tail, and never costlier than the tail plus the
    negative log mean uphill weight.  annealed_trunc_bounds bounds how far
    the barrier lifts each of b_total, b_beyond and -ln_mean_uphill_weight
    above its barrier-free value.  The annealed fields are None when k <= 0.
    """

    a_total: float
    a_uphill: float
    a_beyond: float
    additivity_residual: float
    b_total: float | None = None
    b_beyond: float | None = None
    ln_mean_uphill_weight: float | None = None
    annealed_trunc_bounds: tuple[float, float, float] | None = None
    slack_longer_journey: float | None = None
    slack_mean_weight: float | None = None
    line_dist: PotentialDistribution | None = None


def turning_point_decompose(
    spec: GeodesicSpec,
    cfg: TreeConfig,
    dist: PotentialDistribution,
    seed: int = 0,
    stream_id: int = 0,
    barrier_r: int = -3,
) -> TurningPointReport:
    """Decompose the journey 0 -> target across the geodesic peak at k.

    For k <= 0 the peak is behind the start: the geodesic is cut there and
    extended by predecessors into a monotone ray, which the walk travels
    downhill, so every site steps right with probability
    1 - geodesic_step_prob and only the quenched cost is reported.  For
    0 < k < target the quenched cost splits exactly at the peak, and the
    annealed orderings are verified by the exact transfer kernel on a line
    law: the sampled law of the rho midpoints of _LINE_LAW_SITES sites off
    the window, each at weight 1/_LINE_LAW_SITES, reported as line_dist.
    One forest batch brackets the sites a path from 0 to target can pay,
    barrier_r + 1 .. target - 1, and then those surrogate sites; both
    cases run one forward sweep over the window's rho midpoints.
    """
    n = spec.target_index
    k = spec.turning_index_k
    if k >= n:
        raise ValueError(f"invalid turning index k={k}: must be < target")
    r = _checked_int(barrier_r, "barrier_r", most=-1)
    q_up = geodesic_step_prob(cfg)
    sites = np.arange(r + 1, n)  # the sites a path from 0 to n can pay
    if k > 0:
        p_sites = np.where(sites < k, q_up, np.where(sites == k, 0.5, 1.0 - q_up))
        surrogates = np.arange(100_000, 100_000 + _LINE_LAW_SITES)
    else:  # the ray behind the peak runs downhill throughout
        p_sites = np.full(sites.size, 1.0 - q_up)
        surrogates = sites[:0]

    # RhoPotential.midpoint of each site, without building the objects
    h_lo, h_hi = _site_h(cfg, dist, np.concatenate([sites, surrogates]), seed, stream_id)
    mids = [0.5 * (-math.log(upper) + -math.log(lower)) for lower, upper in zip(h_lo, h_hi)]
    _, log_w = forward_step_weights(np.array(mids[: sites.size]), p_sites)
    a_of = lambda x, y: float(-np.sum(log_w[x - (r + 1) : y - (r + 1)]))
    a_total = a_of(0, n)
    if k <= 0:
        return TurningPointReport(a_total=a_total, a_uphill=0.0, a_beyond=a_total, additivity_residual=0.0)
    a_uphill = a_of(0, k)
    a_beyond = a_of(k, n)

    line_dist = make_distribution({"kind": "finite", "atoms": [[m, 1 / _LINE_LAW_SITES] for m in mids[sites.size :]]})
    tables: dict[float, np.ndarray] = {}  # the longest window runs first: its caps' tables serve the rest
    total = _annealed_transfer(line_dist, n, r, p_sites, 0, tables)
    beyond = _annealed_transfer(line_dist, n, r, p_sites, k, tables)
    uphill = _annealed_transfer(line_dist, k, r, p_sites[: k - (r + 1)], 0, tables)
    b_total, b_beyond, ln_mean_c = total.b_value, beyond.b_value, -uphill.b_value
    return TurningPointReport(
        a_total=a_total,
        a_uphill=a_uphill,
        a_beyond=a_beyond,
        additivity_residual=a_total - (a_uphill + a_beyond),
        b_total=b_total,
        b_beyond=b_beyond,
        ln_mean_uphill_weight=ln_mean_c,
        annealed_trunc_bounds=(total.trunc_bound, beyond.trunc_bound, uphill.trunc_bound),
        slack_longer_journey=b_total - b_beyond,
        slack_mean_weight=(-ln_mean_c + b_beyond) - b_total,
        line_dist=line_dist,
    )
