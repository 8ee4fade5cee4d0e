import math
import os
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from killedwalk import lyapunov, tree
from killedwalk.env import PotentialDistribution, make_distribution
from killedwalk.line_solver import F_limit, two_point_a, two_point_e
from killedwalk.lyapunov import annealed_transfer
from killedwalk.tree import (
    GeodesicSpec,
    TreeConfig,
    branch_return_weight,
    excursion_survival_h,
    first_passage_gf,
    geodesic_step_prob,
    reduce_to_line,
    rho_environment,
    rho_for_site,
    sigma_finite_prob,
    simulate_excursions,
    simulate_geodesic_passage,
    turning_point_decompose,
    zero_potential_return_weight,
)
from killedwalk.rng import stream_key, substream
from killedwalk.tree import _branch_brackets, _level_starts, _max_walk_level, _site_brackets

BERN = make_distribution({"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]})
DELTA0 = make_distribution({"kind": "point", "value": 0.0})
EXP1 = make_distribution({"kind": "exponential", "rate": 1.0})
THREE_ATOMS = make_distribution({"kind": "finite", "atoms": [[0.0, 0.2], [0.3, 0.5], [2.0, 0.3]]})
POINT = make_distribution({"kind": "point", "value": 0.4})
# too many atoms for any table level above the deepest at d = 3, depth 16
FORTY_ATOMS = make_distribution({"kind": "finite", "atoms": [[0.05 * i, (i + 1) / 820] for i in range(40)]})
# one visit costs more than the bound cutoff: arrival and the bound coincide
HEAVY = make_distribution({"kind": "point", "value": 85.0})
# one visit to the rare atom costs more than the bound cutoff, so drifted
# walkers that miss it can reach the level cap or the step cap alive
RARE = make_distribution({"kind": "finite", "atoms": [[0.0, 0.99], [45.0, 0.01]]})


# ---------------------------------------------------------------------------
# generating-function identities
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("d", range(3, 11))
def test_first_passage_closed_form(d):
    gf = first_passage_gf(d, 1.0)
    assert gf == pytest.approx(1.0 / (d - 1), rel=1e-14)
    # smaller root of the quadratic it must satisfy
    assert gf == pytest.approx(1.0 / d + ((d - 1.0) / d) * gf * gf, rel=1e-12)
    assert first_passage_gf(d, 0.0) == 0.0


@pytest.mark.parametrize("d,value", [(3, 0.8), (4, 0.6)])
def test_sigma_finite_prob_values(d, value):
    assert sigma_finite_prob(d) == pytest.approx(value, rel=1e-14)


@pytest.mark.parametrize("d", range(3, 11))
def test_sigma_recursion_residual(d):
    lhs = sigma_finite_prob(d)
    rhs = 2.0 / d + ((d - 2.0) / d) * first_passage_gf(d, 1.0) * lhs
    assert abs(lhs - rhs) <= 1e-12


def test_zero_potential_return_weight_matches_gf():
    for d in range(3, 8):
        assert zero_potential_return_weight(TreeConfig(d)) == pytest.approx(
            first_passage_gf(d, 1.0), rel=1e-14
        )
    assert zero_potential_return_weight(TreeConfig(3, drift_p=0.7)) == 1.0


# ---------------------------------------------------------------------------
# branch recursion brackets
# ---------------------------------------------------------------------------


def test_branch_weight_zero_potential_converges_to_gf():
    cfg = TreeConfig(3, depth_cap_D=80)
    w = branch_return_weight(replace(cfg, depth_cap_D=70), DELTA0)
    assert w.lower == pytest.approx(0.5, abs=1e-12)
    assert w.upper == pytest.approx(0.5, abs=1e-12)
    shallow = branch_return_weight(replace(cfg, depth_cap_D=3), DELTA0)
    assert shallow.lower < 0.5 <= shallow.upper + 1e-15


def test_branch_weight_huge_potential_vanishes():
    cfg = TreeConfig(3)
    dead = make_distribution({"kind": "point", "value": 50.0})
    w = branch_return_weight(replace(cfg, depth_cap_D=5), dead)
    assert w.upper <= math.exp(-50.0) * 1.01


def test_bracket_nesting_with_sampled_potentials():
    cfg = TreeConfig(3, depth_cap_D=14)
    prev = None
    for depth in range(2, 13):
        h = excursion_survival_h(replace(cfg, depth_cap_D=depth), BERN, seed=5, stream_id=77)
        assert h.lower <= h.upper
        if prev is not None:
            assert prev.lower <= h.lower + 1e-15
            assert h.upper <= prev.upper + 1e-15
        prev = h


def test_h_zero_potential_equals_sigma_prob():
    for d, want in ((3, 0.8), (4, 0.6)):
        cfg = TreeConfig(d, depth_cap_D=70)
        h = excursion_survival_h(replace(cfg, depth_cap_D=64), DELTA0)
        assert h.lower == pytest.approx(want, abs=1e-12)
        assert h.upper == pytest.approx(want, abs=1e-12)
        # the upper frontier is exact for zero potential, at every depth
        for depth in (1, 2, 7):
            hshallow = excursion_survival_h(replace(cfg, depth_cap_D=depth), DELTA0)
            assert hshallow.lower <= want <= hshallow.upper + 1e-15


def test_point_law_recursion_stops_at_its_fixed_point():
    # at d = 3 and value 0.3 both bounds repeat by level 22, so ten million
    # levels cost no more than a thousand and give the same words
    point = make_distribution({"kind": "point", "value": 0.3})
    streams = np.arange(3, dtype=np.uint64)
    t0 = time.perf_counter()
    keys = stream_key(0, streams)
    deep = _branch_brackets(TreeConfig(3, depth_cap_D=10**7), point, keys, 2)
    h_deep = excursion_survival_h(TreeConfig(3, depth_cap_D=10**7), point)
    assert time.perf_counter() - t0 < 1.0
    shallow = _branch_brackets(TreeConfig(3, depth_cap_D=10**3), point, keys, 2)
    assert deep.shape == (2, 3, 2) and deep.tobytes() == shallow.tobytes()
    assert h_deep == replace(excursion_survival_h(TreeConfig(3, depth_cap_D=10**3), point), depth_used=10**7)
    # each level until then runs: the bounds match the oracle's full recursion
    for depth in (1, 5, 21, 40):
        cfg = TreeConfig(3, depth_cap_D=depth)
        want = _oracles.forest_bracket(cfg, point, 0, 0, 2, depth)
        got = _branch_brackets(cfg, point, keys, 2)
        assert np.array_equal(got, np.broadcast_to(np.array(want)[:, None, :], got.shape))


@pytest.mark.parametrize(
    "frontier, depth, laws",
    [
        pytest.param(2.0, 4, (BERN, EXP1, THREE_ATOMS), id="2.0"),
        pytest.param(math.nan, 4, (BERN, EXP1, THREE_ATOMS), id="nan"),
        pytest.param(1.4, 6, (BERN, THREE_ATOMS), id="1.4"),
    ],
)
def test_non_positive_denominator_is_refused(monkeypatch, frontier, depth, laws):
    # d = 3: s_child (d - 1) = 2/3, so a frontier weight above 3/2 drives
    # the denominator of a zero-potential vertex below zero; NaN is refused
    # too.  At 1.4 the deepest level's denominators stay >= 1 - (2/3) 1.4,
    # but the next level's go negative below a zero-potential vertex with
    # zero-potential children, which a finite law draws.  At depth 6
    # Bernoulli looks both levels up in tables, so the guard of the table
    # build must refuse
    monkeypatch.setattr(tree, "zero_potential_return_weight", lambda cfg: frontier)
    for dist in laws:
        with pytest.raises(AssertionError, match="bracket logic violated"):
            _branch_brackets(TreeConfig(3, depth_cap_D=depth), dist, stream_key(0, np.arange(2, dtype=np.uint64)), 1)


def test_forest_budget_guard():
    cfg = TreeConfig(6, depth_cap_D=12)
    with pytest.raises(ValueError, match="vertices"):
        excursion_survival_h(cfg, BERN)
    with pytest.raises(ValueError, match="depth"):
        excursion_survival_h(TreeConfig(6, depth_cap_D=0), BERN)


def test_huge_depth_cap_refuses_at_once_by_depth():
    # counting the vertices of a 10^6-level forest level by level takes
    # quadratic time, and the count has more digits than str() may print
    t0 = time.perf_counter()
    with pytest.raises(ValueError, match="branch depth 1000000 is deeper than 25, .* 40000000 vertices at d = 3"):
        excursion_survival_h(TreeConfig(3, depth_cap_D=10**6), BERN)
    with pytest.raises(ValueError, match="branch depth 1000000 is deeper than 16, .* vertices at d = 4"):
        branch_return_weight(TreeConfig(4, depth_cap_D=10**6), EXP1)
    with pytest.raises(ValueError, match="depth 1000000 needs more than"):
        _oracles.forest_bracket(TreeConfig(3), BERN, 0, 0, 1, 10**6)
    assert time.perf_counter() - t0 < 1.0
    # the deepest forest inside the budget is the bound, one level deeper is refused
    assert tree.deepest_depth_cap(3, 1, BERN)[0] == 25
    with pytest.raises(ValueError, match="branch depth 26 is deeper than 25,"):
        branch_return_weight(TreeConfig(3, depth_cap_D=26), BERN)


def test_library_refuses_a_depth_past_its_bound_at_once():
    # a one-atom law takes at most _FOREST_VERTEX_BUDGET scalar levels; at
    # zero potential and p = 1/2 the bounds never settle, so 10^9 levels
    # once ran for minutes.  A subprocess, so that such a run times out
    code = (
        "from killedwalk.env import make_distribution\n"
        "from killedwalk.tree import TreeConfig, branch_return_weight\n"
        "delta0 = make_distribution({'kind': 'point', 'value': 0.0})\n"
        "try:\n"
        "    branch_return_weight(TreeConfig(3, drift_p=0.5, depth_cap_D=10**9), delta0)\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=30, env=env)
    assert done.returncode == 0, done.stderr
    assert "branch depth 1000000000 is deeper than 40000000 for a one-atom law" in done.stdout, done.stdout


# deepest depth per degree that keeps one forest near 10^3 .. 10^4 vertices
ORACLE_DEPTH = {3: 10, 4: 8, 5: 6, 10: 4}


@settings(deadline=None, derandomize=True)
@given(
    d=st.sampled_from(sorted(ORACLE_DEPTH)),
    drift=st.sampled_from([None, 0.45, 0.6]),
    dist=st.sampled_from([BERN, EXP1, THREE_ATOMS, POINT, FORTY_ATOMS]),
    depth=st.integers(1, 10),
    n_sites=st.integers(1, 24),
    chunk_frac=st.floats(0.0, 1.0),
    split=st.integers(0, 11),
    group_frac=st.floats(0.0, 1.0),
    first_site=st.integers(-50, 50),
    seed=st.integers(0, 2**32),
    stream_id=st.integers(0, 1000),
)
def test_batched_brackets_match_one_forest_oracle(
    d, drift, dist, depth, n_sites, chunk_frac, split, group_frac, first_site, seed, stream_id
):
    # d = 10 folds d - 2 = 8 roots, where numpy's sum goes pairwise
    cfg = TreeConfig(d, drift_p=drift)
    depth = min(depth, ORACLE_DEPTH[d])
    deepest = (d - 2) * (d - 1) ** (depth - 1)
    chunk = 1 + int(chunk_frac * (n_sites - 1))  # chunks of 1 .. n_sites sites
    group = 1 + int(group_frac * (n_sites - 1))  # groups of 1 .. n_sites sites, split anywhere
    streams = substream(stream_id, np.arange(first_site, first_site + n_sites))
    deep_cfg = replace(cfg, depth_cap_D=depth)
    with mock.patch.object(tree, "_FOREST_CELL_BUDGET", chunk * deepest + deepest // 2), mock.patch.object(
        tree, "_level_split", lambda cells, chunk: (split, group)
    ):
        h_lo, h_hi = _site_brackets(deep_cfg, dist, seed, streams)
        w_lo, w_hi = _branch_brackets(deep_cfg, dist, stream_key(seed, streams), d - 2)
        one = branch_return_weight(deep_cfg, dist, seed, stream_id)
    for k, stream in enumerate(streams.tolist()):
        assert (h_lo[k], h_hi[k]) == _oracles.excursion_h(cfg, dist, seed, stream, depth)
        want_lo, want_hi = _oracles.forest_bracket(cfg, dist, seed, stream, d - 2, depth)
        assert np.array_equal(w_lo[k], want_lo) and np.array_equal(w_hi[k], want_hi)
    want_lo, want_hi = _oracles.forest_bracket(cfg, dist, seed, stream_id, 1, depth)
    assert (one.lower, one.upper) == (want_lo[0], want_hi[0])


@settings(deadline=None, derandomize=True)
@given(
    d=st.sampled_from(sorted(ORACLE_DEPTH)),
    drift=st.sampled_from([None, 0.45, 0.6]),
    dist=st.sampled_from([BERN, THREE_ATOMS, FORTY_ATOMS]),
    depth=st.integers(1, 10),
    split=st.sampled_from(["0", "D-1", "D"]),
    seed=st.integers(0, 2**32),
)
def test_table_levels_match_the_vertex_route(d, drift, dist, depth, split, seed):
    # the same bytes with every level computed vertex by vertex; one site
    # a chunk and d sites a group, so a split at D - 1 stands
    cfg = TreeConfig(d, drift_p=drift, depth_cap_D=min(depth, ORACLE_DEPTH[d]))
    depth = cfg.depth_cap_D
    m = {"0": 0, "D-1": depth - 1, "D": depth}[split]
    streams = substream(seed % 1000, np.arange(-3, 4))

    def run():
        with mock.patch.object(tree, "_FOREST_CELL_BUDGET", (d - 2) * (d - 1) ** (depth - 1)), mock.patch.object(
            tree, "_level_split", lambda cells, chunk: (m, d)
        ):
            line = reduce_to_line(cfg, dist, 1, seed, 5, r_ratio=2.0)
            return [
                _branch_brackets(cfg, dist, stream_key(seed, streams), 1).tobytes(),
                _site_brackets(cfg, dist, seed, streams).tobytes(),
                *(env.values.tobytes() for env in (line.env_mid, line.env_lower, line.env_upper)),
            ]

    with_tables = run()
    with mock.patch.object(tree, "_bracket_tables", lambda cfg, dist, cells, split: {}):
        assert run() == with_tables


@pytest.mark.parametrize(
    "dist, split, levels",
    [
        (BERN, None, {16, 15, 14}),
        (THREE_ATOMS, None, {16, 15, 14}),
        (FORTY_ATOMS, None, {16}),
        (EXP1, None, set()),
        (BERN, 15, {16}),  # only the deep phase takes tables
    ],
)
def test_table_levels_are_derived(monkeypatch, dist, split, levels):
    # d = 3, depth 16: a chunk is one site's forest, whose level l holds
    # 2^(l-1) vertices, so each atom-index call names its level
    sizes = []
    atom_index = PotentialDistribution.atom_index_from_bits

    def spy(self, bits, out=None):
        sizes.append(bits.size)
        return atom_index(self, bits, out)

    monkeypatch.setattr(PotentialDistribution, "atom_index_from_bits", spy)
    if split is not None:
        monkeypatch.setattr(tree, "_level_split", lambda cells, chunk: (split, 2))
    _site_brackets(TreeConfig(3, depth_cap_D=16), dist, 1, substream(0, np.arange(3)))
    assert {n.bit_length() for n in sizes} == levels


@pytest.mark.parametrize("d, depth", [(3, 7), (4, 5), (10, 3)])
def test_worker_workspaces_are_invisible(d, depth):
    # 7 sites in chunks of 1, of 3 + 3 + 1 (a short last chunk) and of 7,
    # so every chunk after the first reuses the first one's workspace
    cfg = TreeConfig(d, drift_p=0.45, depth_cap_D=depth)
    streams = substream(3, np.arange(-3, 4))
    deepest = (d - 2) * (d - 1) ** (depth - 1)
    want = np.array([_oracles.excursion_h(cfg, THREE_ATOMS, 5, s, depth) for s in streams.tolist()]).T
    for per_chunk in (1, 3, 7):
        with mock.patch.object(tree, "_FOREST_CELL_BUDGET", per_chunk * deepest):
            got = _site_brackets(cfg, THREE_ATOMS, 5, streams)
        assert np.array_equal(got, want), per_chunk


@pytest.mark.parametrize("d, depth", [(3, 7), (4, 5)])
@pytest.mark.parametrize("split", [0, 1, "D-1", "D", "D+2"])
def test_level_split_matches_one_forest_oracle(d, depth, split):
    # 11 sites in chunks of 2: groups of 4 (a short last group of 3, with
    # a short chunk), of 5 (a short chunk in every group) and of 11 (one
    # group); groups of 1 and 2 fit one chunk and fall back to one pass a
    # chunk, as does a split at the deepest level D or past it
    cfg = TreeConfig(d, drift_p=0.45, depth_cap_D=depth)
    m = {"D-1": depth - 1, "D": depth, "D+2": depth + 2}.get(split, split)
    streams = substream(3, np.arange(-5, 6))
    deepest = (d - 2) * (d - 1) ** (depth - 1)
    want = np.array([_oracles.excursion_h(cfg, THREE_ATOMS, 5, s, depth) for s in streams.tolist()]).T
    for group in (1, 2, 4, 5, 11):
        with mock.patch.object(tree, "_FOREST_CELL_BUDGET", 2 * deepest), mock.patch.object(
            tree, "_level_split", lambda cells, chunk: (m, group)
        ):
            got = _site_brackets(cfg, THREE_ATOMS, 5, streams)
        assert np.array_equal(got, want), group


def _groups(sizes, chunk, split, depth):
    """_run_levels passes of groups of the given sizes: each chunk's deep
    pass over levels depth .. split + 1, then one shallow pass over levels
    split .. 1 for the group."""
    passes = []
    for size in sizes:
        passes += [range(depth, split, -1)] * -(-size // chunk) + [range(split, 0, -1)]
    return passes


def _passes(fn, *args):
    """The levels of every _run_levels call that fn(*args) makes."""
    calls = []
    run_levels = tree._run_levels

    def spy(cfg, dist, keys, starts, levels, w, ws):
        calls.append(levels)
        return run_levels(cfg, dist, keys, starts, levels, w, ws)

    with mock.patch.object(tree, "_run_levels", spy):
        fn(*args)
    return calls


@pytest.mark.parametrize(
    "depth, n_sites, passes",
    [
        # one site a chunk, 32 a group, the last group 1 site
        (16, 161, _groups([32] * 5 + [1], 1, 8, 16)),
        # 16 sites a chunk, 2 chunks a group, the last group 1 short chunk
        (12, 40, _groups([32, 8], 16, 8, 12)),
        # 64 sites a chunk hold a whole group: one deep pass a chunk
        (10, 248, _groups([64] * 3 + [56], 64, 0, 10)),
    ],
)
def test_default_level_split(depth, n_sites, passes):
    cfg = TreeConfig(3, depth_cap_D=depth)
    assert _passes(_site_brackets, cfg, BERN, 2, substream(1, np.arange(n_sites))) == passes


@pytest.mark.parametrize("depth, chunk", [(12, 16), (16, 1)])
def test_one_branch_runs_the_level_split(depth, chunk):
    # one branch at d = 3 is one site's forest: a deep pass down to m = 8,
    # then a shallow one, exactly as the one-forest oracle
    cfg = TreeConfig(3, depth_cap_D=depth)
    assert _passes(branch_return_weight, cfg, BERN, 4, 9) == _groups([1], chunk, 8, depth)
    one = branch_return_weight(cfg, BERN, 4, 9)
    want_lo, want_hi = _oracles.forest_bracket(cfg, BERN, 4, 9, 1, depth)
    assert (one.lower, one.upper) == (want_lo[0], want_hi[0])


def test_site_brackets_memory_stays_at_one_workspace():
    # d = 3, depth 16, 161 sites: the one-pass kernel peaked at 2.52 MB
    # (its workspace for one site's 2^15-vertex deepest level); the group
    # buffer may add at most 256 KB, never a buffer for the whole window.
    # An exponential law's float route once also allocated every level's
    # shifted words, a 256 KB level more than the Bernoulli peak
    cfg = TreeConfig(3, depth_cap_D=16)
    streams = substream(0, np.arange(-128, 33))
    peaks = []
    for dist in (BERN, EXP1):
        tracemalloc.start()
        try:
            _site_brackets(cfg, dist, 1, streams)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[0] <= 2_521_018 + 256 * 1024
    assert peaks[1] <= peaks[0] + 32 * 1024, peaks


@pytest.mark.parametrize("budget", [1, 64])
def test_site_chunking_is_invisible(monkeypatch, budget):
    cfg = TreeConfig(3, drift_p=0.45, depth_cap_D=6)  # 32 vertices on the deepest level
    whole = rho_environment(cfg, BERN, (-20, 20), seed=4, stream_id=6)
    monkeypatch.setattr(tree, "_FOREST_CELL_BUDGET", budget)  # 1 or 2 sites a chunk
    chunked = rho_environment(cfg, BERN, (-20, 20), seed=4, stream_id=6)
    assert whole[0] == chunked[0]
    for a, b in zip(whole[1:], chunked[1:]):
        assert np.array_equal(a.values, b.values)


# ---------------------------------------------------------------------------
# rho sequences
# ---------------------------------------------------------------------------


def test_rho_zero_potential_value_and_bound():
    cfg = TreeConfig(3, depth_cap_D=64)
    rho = rho_for_site(replace(cfg, depth_cap_D=60), DELTA0, site_index=0)
    assert rho.midpoint == pytest.approx(-math.log(0.8), abs=1e-9)
    assert rho.midpoint <= 0.0 + math.log(3.0 / 2.0)
    assert rho.rho_lower >= 0.0


def test_rho_sites_have_independent_streams():
    cfg = TreeConfig(3, depth_cap_D=8)
    seq = rho_environment(cfg, BERN, (0, 5), seed=4, stream_id=2)[0]
    again = [rho_for_site(cfg, BERN, i, seed=4, stream_id=2) for i in range(6)]
    for a, b in zip(seq, again):
        assert (a.rho_lower, a.rho_upper) == (b.rho_lower, b.rho_upper)
    values = {round(b.midpoint, 12) for b in seq}
    assert len(values) > 1  # sites genuinely differ


def test_rho_mean_respects_one_step_bound():
    cfg = TreeConfig(3, depth_cap_D=9)
    seq = rho_environment(cfg, BERN, (0, 299), seed=6)[0]
    uppers = np.array([b.rho_upper for b in seq])
    widths = np.array([b.rho_upper - b.rho_lower for b in seq])
    bound = BERN.mean + math.log(cfg.d / 2.0)
    se = uppers.std(ddof=1) / math.sqrt(uppers.size)
    assert uppers.mean() <= bound + widths.mean() + 4 * se


def test_geodesic_step_prob_cases():
    assert geodesic_step_prob(TreeConfig(3)) == pytest.approx(0.5, rel=1e-14)
    assert geodesic_step_prob(TreeConfig(5)) == pytest.approx(0.5, rel=1e-14)
    assert geodesic_step_prob(TreeConfig(3, drift_p=0.5)) == pytest.approx(2.0 / 3.0, rel=1e-14)
    assert geodesic_step_prob(TreeConfig(3, drift_p=1.0 - 1e-9)) > 0.999999


def test_drifted_config_at_symmetric_point_is_bit_identical():
    sym = rho_for_site(TreeConfig(3, depth_cap_D=8), BERN, 2, seed=9)
    drift = rho_for_site(TreeConfig(3, drift_p=1.0 / 3.0, depth_cap_D=8), BERN, 2, seed=9)
    assert (sym.rho_lower, sym.rho_upper) == (drift.rho_lower, drift.rho_upper)


def test_rho_sequence_default_chunks_are_invisible():
    # at depth 12 the 41 sites run in chunks of 16, 16 and 9 on one
    # workspace; every site computed alone must give the same digits
    assert tree._FOREST_CELL_BUDGET // 2**11 == 16
    for depth, window in ((7, (0, 7)), (12, (0, 40))):
        cfg = TreeConfig(3, depth_cap_D=depth)
        seq = rho_environment(cfg, BERN, window, seed=2)[0]
        alone = [rho_for_site(cfg, BERN, i, seed=2) for i in range(window[0], window[1] + 1)]
        assert [(b.rho_lower, b.rho_upper) for b in seq] == [(b.rho_lower, b.rho_upper) for b in alone]


# ---------------------------------------------------------------------------
# trajectory oracles
# ---------------------------------------------------------------------------


def test_excursion_simulation_falls_inside_bracket():
    cfg = TreeConfig(3, depth_cap_D=12)
    rho = rho_for_site(cfg, BERN, site_index=3, seed=5, stream_id=9)
    mean, se, _ = simulate_excursions(
        cfg, BERN, site_index=3, n_excursions=30_000, seed=5, stream_id=9
    )
    assert rho.h_bracket.lower - 4 * se <= mean <= rho.h_bracket.upper + 4 * se


def test_walkers_reject_bad_counts_and_horizons():
    cfg = TreeConfig(3)
    for n in (0, -5, True, 5.0, "5"):
        with pytest.raises(ValueError, match="n_excursions"):
            simulate_excursions(cfg, BERN, n_excursions=n)
        with pytest.raises(ValueError, match="n_walks"):
            simulate_geodesic_passage(cfg, BERN, n_walks=n)
    for steps in (-1, -7, False, 3.0):
        with pytest.raises(ValueError, match="max_steps"):
            simulate_excursions(cfg, BERN, n_excursions=5, max_steps=steps)
        with pytest.raises(ValueError, match="max_steps"):
            simulate_geodesic_passage(cfg, BERN, n_walks=5, max_steps=steps)
    assert simulate_excursions(cfg, BERN, n_excursions=np.int64(5), max_steps=np.int32(0))[2] == 5
    with pytest.raises(ValueError, match="escape_horizon"):
        simulate_geodesic_passage(cfg, BERN, target=5, n_walks=10, escape_horizon=4)
    with pytest.raises(ValueError, match="escape_horizon"):
        simulate_geodesic_passage(cfg, BERN, target=70, n_walks=10, escape_horizon=100)


WALKER_CASES = dict(
    d=st.sampled_from([3, 4, 5, 17]),
    drift=st.sampled_from([None, 0.45, 0.6]),
    dist=st.sampled_from([BERN, EXP1, DELTA0, HEAVY]),
    seed=st.integers(0, 2**32),
    stream_id=st.integers(0, 1000),
)


@settings(deadline=None, derandomize=True)
@given(
    site=st.integers(-50, 50),
    max_steps=st.one_of(st.integers(1, 12), st.just(100_000)),
    **WALKER_CASES,
)
def test_one_excursion_matches_scalar_walker(d, drift, dist, seed, stream_id, site, max_steps):
    cfg = TreeConfig(d, drift_p=drift)
    args = (cfg, dist, site, 5, seed, stream_id, max_steps)
    mean, _, lost = simulate_excursions(*args)
    want, _, want_lost, *_ = _oracles.simulate_excursions(*args)
    assert mean == pytest.approx(want, rel=1e-15, abs=0.0)
    assert lost == want_lost


@settings(deadline=None, derandomize=True)
@given(
    target=st.integers(1, 3),
    extra_horizon=st.integers(0, 40),
    max_steps=st.one_of(st.integers(1, 12), st.just(1_000_000)),
    **WALKER_CASES,
)
def test_one_passage_matches_scalar_walker(d, drift, dist, seed, stream_id, target, extra_horizon, max_steps):
    cfg = TreeConfig(d, drift_p=drift)
    args = (cfg, dist, target, 5, seed, stream_id, target + extra_horizon, max_steps)
    mean, _, capped = simulate_geodesic_passage(*args)
    want, _, want_capped, *_ = _oracles.simulate_geodesic_passage(*args)
    assert mean == pytest.approx(want, rel=1e-15, abs=0.0)
    assert capped == want_capped


def _walk_arrays(study, args):
    """The (weight, cause) arrays of the one tree._walk call a walker study makes."""
    seen = []
    walk = tree._walk

    def spy(*a, **k):
        seen.append(walk(*a, **k))
        return seen[-1]

    with mock.patch.object(tree, "_walk", spy):
        study(*args)
    (arrays,) = seen
    return arrays


def _assert_walkers_match_scalar(study, args):
    score, cause = _walk_arrays(study, args)
    *_, want_score, want_cause = getattr(_oracles, study.__name__)(*args)
    assert np.array_equal(score, want_score)
    assert np.array_equal(cause, want_cause)
    return cause


@settings(deadline=None, derandomize=True)
@given(
    excursion=st.booleans(),
    site=st.integers(-50, 50),
    target=st.integers(1, 3),
    extra_horizon=st.integers(0, 40),
    max_steps=st.one_of(st.integers(1, 12), st.just(100_000)),
    **WALKER_CASES,
)
def test_every_walker_weight_and_cause_match_scalar_walker(
    excursion, site, target, extra_horizon, max_steps, d, drift, dist, seed, stream_id
):
    cfg = TreeConfig(d, drift_p=drift)
    if excursion:
        _assert_walkers_match_scalar(simulate_excursions, (cfg, dist, site, 8, seed, stream_id, max_steps))
    else:
        args = (cfg, dist, target, 8, seed, stream_id, target + extra_horizon, max_steps)
        _assert_walkers_match_scalar(simulate_geodesic_passage, args)


@pytest.mark.parametrize(
    "study, args",
    [
        # on the symmetric tree the bound fires above the level cap, so drift
        (simulate_excursions, (TreeConfig(4, drift_p=0.4), RARE, 0, 40, 1, 2, 150)),
        (simulate_geodesic_passage, (TreeConfig(3, drift_p=0.45), RARE, 2, 40, 1, 2, 20, 100)),
    ],
)
def test_walkers_match_scalar_walker_through_every_stop_cause(study, args):
    cause = _assert_walkers_match_scalar(study, args)
    assert set(cause.tolist()) == {tree._ARRIVED, tree._BOUND, tree._HORIZON, tree._STEP_CAP}
    result = study(*args)
    counts = np.bincount(cause, minlength=4).tolist()
    assert result.lost_by_cause == dict(zip(("bound", "horizon", "step_cap"), counts[1:]))
    assert result[2] == sum(counts[1:])


def test_passage_counts_every_walk_that_did_not_arrive():
    # a loss to the bound counts as much as one to the horizon or the step cap
    args = (TreeConfig(3), BERN, 2, 1000, 0)
    score, cause = _walk_arrays(simulate_geodesic_passage, args)
    result = simulate_geodesic_passage(*args)
    assert np.bincount(cause, minlength=4).tolist() == [258, 742, 0, 0]  # arrived, bound, horizon, step cap
    assert result[2] == np.count_nonzero(cause != tree._ARRIVED) == 742
    assert result.lost_by_cause == {"bound": 742, "horizon": 0, "step_cap": 0}
    assert result.trunc_budget == pytest.approx(score[cause != tree._ARRIVED].sum() / 1000, rel=1e-12)
    mean, se, lost = result  # still the 3-tuple callers unpack
    assert mean == pytest.approx(score[cause == tree._ARRIVED].sum() / 1000, rel=1e-12)
    assert lost == 742


@pytest.mark.parametrize(
    "study, args",
    [
        (simulate_excursions, (TreeConfig(3), BERN, 0, 200, 3, 1)),
        (simulate_excursions, (TreeConfig(4, drift_p=0.4), RARE, 0, 200, 1, 2, 150)),
        (simulate_geodesic_passage, (TreeConfig(3), EXP1, 2, 200, 4)),
        (simulate_geodesic_passage, (TreeConfig(3, drift_p=0.45), RARE, 2, 200, 1, 2, 20, 100)),
    ],
)
def test_the_bound_stop_is_one_sided_and_budgeted(study, args, monkeypatch):
    # against a run that never stops a walker on the bound, each walker
    # scores no more, the same walkers or fewer arrive, and the budget is
    # the oracle's sum of what the dropped walkers could still score
    score, cause = _walk_arrays(study, args)
    result = study(*args)
    *_, budget, _, _ = getattr(_oracles, study.__name__)(*args)
    assert result.trunc_budget == pytest.approx(budget, rel=1e-12, abs=0.0)
    assert np.all(score[cause == tree._BOUND] < math.exp(tree._LOG_BOUND_CUTOFF))
    monkeypatch.setattr(tree, "_LOG_BOUND_CUTOFF", -math.inf)
    ref_score, ref_cause = _walk_arrays(study, args)
    assert not np.any(ref_cause == tree._BOUND)
    arrived, ref_arrived = cause == tree._ARRIVED, ref_cause == tree._ARRIVED
    assert np.all(ref_arrived[arrived])
    assert np.array_equal(score[arrived], ref_score[arrived])
    assert np.all(np.where(arrived, score, 0.0) <= np.where(ref_arrived, ref_score, 0.0))


def test_trunc_budget_is_zero_when_every_walker_arrives():
    # no potential and a strong uphill drift: every walk reaches the target
    result = simulate_geodesic_passage(TreeConfig(3, drift_p=0.9), DELTA0, 1, 50, 2)
    assert result[2] == 0 and result.trunc_budget == 0.0
    assert result.lost_by_cause == {"bound": 0, "horizon": 0, "step_cap": 0}
    with pytest.raises(AttributeError):
        result.trunc_budget = 1.0


@pytest.mark.parametrize("two_targets", [True, False])
def test_a_walker_does_not_depend_on_how_many_walk(two_targets):
    # each step uniform is keyed by (walker, step): walkers added later, or
    # walkers stopping early, leave the first ones' paths alone, with a
    # target on either side of the start or a single one
    targets = (2, 6) if two_targets else (6, 6)

    def walk(n_walkers):
        cfg = TreeConfig(3, drift_p=0.45)
        return tree._walk(cfg, BERN, 7, 3, 11, n_walkers, 4, targets, 8, 400)

    few, many = walk(6), walk(300)
    assert all(np.array_equal(a, b[:6]) for a, b in zip(few, many))
    assert len(set(many[1].tolist())) > 1  # the walkers stop for different causes


@pytest.mark.parametrize("d", [3, 4, 5, 17, 1000])
def test_level_counters_fit_int64_at_the_level_cap(d):
    cap = _max_walk_level(d)
    starts = _level_starts(d, d - 2, cap)
    first = [0] + [1 + sum((d - 2) * (d - 1) ** j for j in range(level - 1)) for level in range(1, cap + 2)]
    assert starts.dtype == np.int64
    assert starts.tolist() == first
    assert first[cap + 1] - 1 < 2**63  # the last vertex on the level cap


def test_two_model_equivalence_zero_potential():
    # tree truth: P(hit a fixed neighbour) = F(1) = 1/2 for d = 3;
    # the reduced line with rho = -ln 0.8 gives e(0,1) = 1/2 as well
    cfg = TreeConfig(3, depth_cap_D=40)
    model = reduce_to_line(cfg, DELTA0, n=2, seed=11, r_ratio=32.0)
    line = F_limit(model.env_mid, tol=1e-9, p=model.step_right_prob)
    assert line.converged
    assert line.e_value == pytest.approx(0.5, abs=1e-7)
    mc, se, _ = simulate_geodesic_passage(cfg, DELTA0, target=1, n_walks=12_000, seed=11)
    assert abs(mc - line.e_value) <= 4 * se


def test_two_model_equivalence_bernoulli():
    cfg = TreeConfig(3, depth_cap_D=12)
    model = reduce_to_line(cfg, BERN, n=2, seed=23, r_ratio=8.0)
    r = model.env_mid.window_lo
    e_hi = two_point_e(model.env_lower, 0, 1, r, model.step_right_prob)
    e_lo = two_point_e(model.env_upper, 0, 1, r, model.step_right_prob)
    mc, se, _ = simulate_geodesic_passage(cfg, BERN, target=1, n_walks=12_000, seed=23)
    assert e_lo - 4 * se <= mc <= e_hi + 4 * se


def test_bracket_width_shrinks_with_depth_downstream():
    cfg = TreeConfig(3, depth_cap_D=16)
    narrow = reduce_to_line(replace(cfg, depth_cap_D=6), BERN, n=2, seed=3)
    tight = reduce_to_line(replace(cfg, depth_cap_D=12), BERN, n=2, seed=3)
    assert tight.max_halfwidth < narrow.max_halfwidth


def test_reduce_to_line_orientations():
    cfg = TreeConfig(3, drift_p=0.5, depth_cap_D=6)
    up = reduce_to_line(cfg, BERN, n=2, seed=1)
    assert up.step_right_prob == pytest.approx(2.0 / 3.0, rel=1e-14)


# ---------------------------------------------------------------------------
# turning points
# ---------------------------------------------------------------------------


def test_geodesic_spec_validation():
    for kind in ("circular", "monotone"):
        with pytest.raises(ValueError, match="kind must be 'turning-point'"):
            GeodesicSpec(kind=kind, target_index=3)
    with pytest.raises(ValueError, match="target"):
        GeodesicSpec(kind="turning-point", target_index=0)


def test_turning_point_behind_start_reduces_to_monotone_ray():
    n = 3
    for drift in (None, 0.45):
        cfg = TreeConfig(3, drift_p=drift, depth_cap_D=6)
        ray = reduce_to_line(cfg, BERN, n, seed=2, r_ratio=8.0)
        # r = -20 lies below -ceil(4 n), outside the default line window
        for r in (-3, -20):
            # the downhill ray swept on the line model's window, bit for bit
            want = two_point_a(ray.env_mid, 0, n, r, 1 - geodesic_step_prob(cfg))
            for k in (0, -1, -2):
                spec = GeodesicSpec(kind="turning-point", turning_index_k=k, target_index=n)
                report = turning_point_decompose(spec, cfg, BERN, seed=2, barrier_r=r)
                assert report.a_uphill == 0.0  # no uphill segment: C = 1
                assert report.a_total == report.a_beyond == want


def test_turning_point_decomposition_is_exactly_additive():
    spec = GeodesicSpec(kind="turning-point", turning_index_k=2, target_index=5)
    cfg = TreeConfig(3, drift_p=0.5, depth_cap_D=8)
    report = turning_point_decompose(spec, cfg, BERN, seed=3, barrier_r=-3)
    assert abs(report.additivity_residual) <= 1e-12
    assert report.a_uphill > 0.0


def test_turning_point_annealed_orderings():
    spec = GeodesicSpec(kind="turning-point", turning_index_k=2, target_index=6)
    cfg = TreeConfig(4, drift_p=0.4, depth_cap_D=6)
    report = turning_point_decompose(spec, cfg, BERN, seed=1, barrier_r=-2)
    assert report.slack_longer_journey >= -1e-12   # longer journeys cost more
    assert report.slack_mean_weight >= -1e-12      # positive-correlation bound
    assert report.b_total <= -report.ln_mean_uphill_weight + report.b_beyond + 1e-12


def test_turning_point_reports_annealed_barrier_budgets():
    spec = GeodesicSpec(kind="turning-point", turning_index_k=2, target_index=5)
    cfg = TreeConfig(3, drift_p=0.45, depth_cap_D=6)
    near, far = (turning_point_decompose(spec, cfg, BERN, seed=1, barrier_r=r) for r in (-3, -6))
    assert near.line_dist == far.line_dist  # the barrier moves, the line law does not
    terms = lambda rep: (rep.b_total, rep.b_beyond, -rep.ln_mean_uphill_weight)
    for b_r, b_far, trunc in zip(terms(near), terms(far), near.annealed_trunc_bounds):
        assert b_r - trunc - 1e-12 <= b_far <= b_r + 1e-12
    behind = GeodesicSpec(kind="turning-point", turning_index_k=0, target_index=3)
    assert turning_point_decompose(behind, cfg, BERN, seed=2).annealed_trunc_bounds is None


def test_turning_point_shares_its_pascal_tables(monkeypatch):
    # total, beyond, uphill: the longest window runs first, so each step
    # probability builds its cap-16 pilot table and its largest cap's table
    spec = GeodesicSpec(kind="turning-point", turning_index_k=2, target_index=4)
    cfg, r = TreeConfig(3, drift_p=0.45), -3
    builds = []
    pascal = lyapunov._pascal_table

    def spy(p_step, cap):
        builds.append((p_step, cap))
        return pascal(p_step, cap)

    monkeypatch.setattr(lyapunov, "_pascal_table", spy)
    report = turning_point_decompose(spec, cfg, BERN, seed=4, barrier_r=r)
    monkeypatch.undo()
    q_up = geodesic_step_prob(cfg)
    sites = np.arange(r + 1, 4)
    p_sites = np.where(sites < 2, q_up, np.where(sites == 2, 0.5, 1.0 - q_up))
    total = annealed_transfer(report.line_dist, 4, r, p_sites)
    beyond = annealed_transfer(report.line_dist, 4, r, p_sites, start=2)
    uphill = annealed_transfer(report.line_dist, 2, r, p_sites[: 2 - (r + 1)])
    top = max(res.kernel_cap for res in (total, beyond, uphill))
    steps = {q_up, 0.5, 1.0 - q_up}
    assert top > 16 and len(steps) == 3
    assert sorted(builds) == sorted([(p, 16) for p in steps] + [(p, top) for p in steps])
    # each field as its own call, with its own tables, bit for bit
    assert (report.b_total, report.b_beyond, report.ln_mean_uphill_weight) == (
        total.b_value, beyond.b_value, -uphill.b_value
    )
    assert report.annealed_trunc_bounds == (total.trunc_bound, beyond.trunc_bound, uphill.trunc_bound)


@pytest.mark.parametrize("cfg", [TreeConfig(3, drift_p=0.45), TreeConfig(10, drift_p=0.3, depth_cap_D=3)])
def test_turning_point_surrogates_match_one_forest_oracle(cfg):
    spec = GeodesicSpec(kind="turning-point", turning_index_k=2, target_index=4)
    report = turning_point_decompose(spec, cfg, BERN, seed=13, stream_id=5, barrier_r=-3)
    mids = [
        _oracles.rho_midpoint(cfg, BERN, 100_000 + i, 13, 5, cfg.depth_cap_D) for i in range(tree._LINE_LAW_SITES)
    ]
    # the empirical law of the oracle midpoints
    values, counts = np.unique(mids, return_counts=True)
    got = np.array(report.line_dist.atoms)
    assert got[:, 0].tolist() == values.tolist()
    assert got[:, 1] == pytest.approx(counts / tree._LINE_LAW_SITES, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("k", [2, 0, -1])
def test_turning_point_brackets_every_site_in_one_forest_batch(k):
    calls = []
    brackets = tree._branch_brackets

    def spy(cfg, dist, keys, n_roots):
        calls.append(keys.size)
        return brackets(cfg, dist, keys, n_roots)

    spec = GeodesicSpec(kind="turning-point", turning_index_k=k, target_index=4)
    with mock.patch.object(tree, "_branch_brackets", spy):
        turning_point_decompose(spec, TreeConfig(3, drift_p=0.45, depth_cap_D=6), BERN, seed=2, barrier_r=-3)
    # the window's sites -2 .. 3, then the line law's surrogates when k > 0
    assert calls == [6 + (tree._LINE_LAW_SITES if k > 0 else 0)]


def test_turning_point_invalid_k():
    spec = GeodesicSpec(kind="turning-point", turning_index_k=5, target_index=5)
    with pytest.raises(ValueError, match="invalid turning index"):
        turning_point_decompose(spec, TreeConfig(3), BERN)
