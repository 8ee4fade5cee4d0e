import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from killedwalk.entropy import exponential_tilt
from killedwalk.env import (
    Environment,
    EnvironmentSource,
    PotentialDistribution,
    make_distribution,
    sample_environment,
    shift,
)
from killedwalk.line_solver import F_limit_batch
from killedwalk.lyapunov import annealed_transfer
from killedwalk.rng import keyed_bits, stream_key
from killedwalk.tree import TreeConfig, _branch_brackets

BERN = {"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]}


def test_make_distribution_validates():
    d = make_distribution(BERN)
    assert d.kind == "finite" and d.mean == 0.5 and not d.is_delta_zero
    assert abs(sum(w for _, w in d.atoms) - 1.0) <= 1e-12

    with pytest.raises(ValueError, match="atom value"):
        make_distribution({"kind": "finite", "atoms": [[0.0, 0.5], [-1.0, 0.5]]})
    with pytest.raises(ValueError, match="sum to 1"):
        make_distribution({"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.6]]})
    with pytest.raises(ValueError, match="rate"):
        make_distribution({"kind": "exponential", "rate": -2.0})
    for kind in ("cauchy", "finite-support", "exponential-rate", "point-mass"):
        with pytest.raises(ValueError, match="kind"):
            make_distribution({"kind": kind, "atoms": [[0.0, 1.0]], "rate": 1.0, "value": 0.0})


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "spec, entry",
    [
        ({"kind": "finite", "atoms": [[NAN, 0.5], [1.0, 0.5]]}, "atoms[0] value"),
        ({"kind": "finite", "atoms": [[0.0, 0.5], [INF, 0.5]]}, "atoms[1] value"),
        ({"kind": "finite", "atoms": [[0.0, NAN], [1.0, 0.5]]}, "atoms[0] weight"),
        ({"kind": "exponential", "rate": NAN}, "rate"),
        ({"kind": "exponential", "rate": INF}, "rate"),
        ({"kind": "point", "value": NAN}, "value"),
        ({"kind": "point", "value": INF}, "value"),
        # malformed entries are named the same way
        ({"kind": "finite", "atoms": [[0]]}, "atoms[0]"),
        ({"kind": "finite", "atoms": [5]}, "atoms[0]"),
        ({"kind": "finite", "atoms": [[0.0, 0.5], [1.0]]}, "atoms[1]"),
        ({"kind": "finite", "atoms": 5}, "atoms"),
        ({"kind": "exponential", "rate": [1]}, "rate"),
        ({"kind": "point", "value": None}, "value"),
        # a missing value once read as the point mass at zero
        ({"kind": "point"}, "'value'"),
    ],
)
def test_non_finite_parameters_are_rejected(spec, entry):
    with pytest.raises(ValueError, match=re.escape(entry)):
        make_distribution(spec)


def _annealed(law):
    """annealed_transfer(law, 4, -6), or its refusal (at 800 the weight underflows)."""
    try:
        return annealed_transfer(law, 4, -6)
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("v", [0.0, -math.log(0.8), 0.3, 1.0, 800.0])
def test_a_point_law_is_the_one_atom_finite_law(v):
    point = make_distribution({"kind": "point", "value": v})
    one = make_distribution({"kind": "finite", "atoms": [[v, 1]]})
    assert point == one == PotentialDistribution("finite", ((v, 1.0),))
    assert (point.mean, point.variance, point.is_delta_zero) == (v, 0.0, v == 0.0)
    u = np.concatenate([np.linspace(0.0, 1.0, 9), [np.nan]])
    bits = keyed_bits(5, 3, np.arange(2049))
    for law in (point, one):
        assert np.array_equal(law.ppf(u), np.full(u.shape, v))
        assert np.array_equal(law.survival_from_bits(bits), np.full(bits.shape, math.exp(-v)))
        assert law.laplace(3) == math.exp(-3 * v)
        assert np.array_equal(law.laplace(np.arange(2049.0)), np.exp(-np.arange(2049.0) * v))
        for theta in (-1.0, 0.0, 2.5):
            tilt = exponential_tilt(law, theta)
            assert tilt.tilt == point and tilt.kl_per_site() == 0.0
    limits = [F_limit_batch(law, 4, 3, tol=1e-9) for law in (point, one)]
    for name in ("a_value", "trunc_bound", "r_used", "converged"):
        assert np.array_equal(getattr(limits[0], name), getattr(limits[1], name)), name
    assert _annealed(point) == _annealed(one)
    keys = stream_key(1, np.arange(3, dtype=np.uint64))
    for cfg in (TreeConfig(4, drift_p=0.4, depth_cap_D=8), TreeConfig(3, drift_p=0.45, depth_cap_D=16)):
        assert _branch_brackets(cfg, point, keys, 2).tobytes() == _branch_brackets(cfg, one, keys, 2).tobytes()


def test_environment_rejects_nan_potentials():
    with pytest.raises(ValueError, match=re.escape("values[2] (site 0) is NaN")):
        Environment(-2, 1, np.array([0.0, 1.0, NAN, 0.0]))


def test_laplace_accepts_an_array_of_counts():
    for spec in (BERN, {"kind": "exponential", "rate": 0.7}, {"kind": "point", "value": 2.0}):
        d = make_distribution(spec)
        table = d.laplace(np.arange(6))
        assert table.shape == (6,)
        assert table.tolist() == [d.laplace(ell) for ell in range(6)]
    # a finite law's table is the plain expression, bit for bit
    rng = np.random.default_rng(3)
    for _ in range(60):
        k = int(rng.integers(1, 301))
        weights = rng.random(k) + 0.01
        law = make_distribution({"kind": "finite", "atoms": np.c_[rng.exponential(2.0, k), weights / weights.sum()].tolist()})
        ell = rng.random(int(rng.integers(1, 901))) * 200.0
        values, probs = np.array(law.atoms).T
        assert law.laplace(ell).tobytes() == (np.exp(-np.multiply.outer(ell, values)) @ probs).tobytes()


def test_laplace_of_a_finite_law_allocates_one_table():
    atoms = [[0.01 * i, 1 / 240] for i in range(240)]
    law, ell = make_distribution({"kind": "finite", "atoms": atoms}), np.arange(153.0)
    tracemalloc.start()
    try:
        law.laplace(ell)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (153, 240) table once, not its negation and exponential beside it
    assert peak < 1.75 * 153 * 240 * 8


def test_delta_zero_flag():
    assert make_distribution({"kind": "point", "value": 0.0}).is_delta_zero
    assert make_distribution({"kind": "finite", "atoms": [[0.0, 1.0]]}).is_delta_zero
    assert not make_distribution({"kind": "point", "value": 0.3}).is_delta_zero
    # a far tilt leaves the atom at 1 with weight exactly 0
    bern = make_distribution({"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]})
    assert exponential_tilt(bern, 1000.0).tilt.is_delta_zero
    assert not exponential_tilt(bern, 40.0).tilt.is_delta_zero


def test_atoms_are_sorted_and_merged():
    d = make_distribution({"kind": "finite", "atoms": [[2.0, 0.25], [0.0, 0.5], [2.0, 0.25]]})
    assert d.atoms == ((0.0, 0.5), (2.0, 0.5))


def test_laplace_transform_examples():
    assert make_distribution({"kind": "point", "value": 0.0}).laplace(17) == 1.0
    two = make_distribution({"kind": "finite", "atoms": [[0.0, 0.5], [math.log(2.0), 0.5]]})
    assert two.laplace(1) == pytest.approx(0.75, rel=1e-15)
    expo = make_distribution({"kind": "exponential", "rate": 1.0})
    assert expo.laplace(1) == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ValueError):
        two.laplace(-1)


def test_laplace_is_one_at_zero_and_decreasing():
    for spec in (BERN, {"kind": "exponential", "rate": 0.7}, {"kind": "point", "value": 2.0}):
        d = make_distribution(spec)
        phis = [d.laplace(ell) for ell in range(8)]
        assert phis[0] == 1.0
        assert all(b <= a for a, b in zip(phis, phis[1:]))
        if not d.is_delta_zero:
            assert all(b < a for a, b in zip(phis, phis[1:]))


def test_sampler_determinism_and_extension():
    d = make_distribution(BERN)
    small = sample_environment(d, (-5, 5), seed=11, stream_id=2)
    again = sample_environment(d, (-5, 5), seed=11, stream_id=2)
    big = sample_environment(d, (-10, 10), seed=11, stream_id=2)
    assert np.array_equal(small.values, again.values)
    assert np.array_equal(big.slice_values(-5, 5), small.values)
    other = sample_environment(d, (-5, 5), seed=11, stream_id=3)
    assert not np.array_equal(small.values, other.values)


def test_point_mass_environment_is_constant():
    d = make_distribution({"kind": "point", "value": 0.7})
    env = sample_environment(d, (-2, 2), seed=0)
    assert np.all(env.values == 0.7)


def test_shift_definition_and_group_property():
    d = make_distribution(BERN)
    env = sample_environment(d, (0, 2), seed=1)
    moved = shift(env, 1)
    assert (moved.window_lo, moved.window_hi) == (1, 3)
    assert np.array_equal(moved.values, env.values)
    assert moved.value_at(1) == env.value_at(0)
    back = shift(shift(env, 3), -3)
    assert (back.window_lo, back.window_hi) == (env.window_lo, env.window_hi)
    assert np.array_equal(back.values, env.values)
    same = shift(env, 0)
    assert np.array_equal(same.values, env.values) and same.window_lo == env.window_lo


def test_environment_validation():
    with pytest.raises(ValueError, match="length"):
        Environment(0, 2, np.zeros(2))
    with pytest.raises(ValueError, match=">= 0"):
        Environment(0, 1, np.array([0.5, -0.25]))
    with pytest.raises(ValueError, match="window"):
        sample_environment(make_distribution(BERN), (3, 1), seed=0)


def test_empirical_weights_match_atoms_within_4_sigma():
    # one site, a million independent streams
    d = make_distribution({"kind": "finite", "atoms": [[0.0, 0.2], [0.5, 0.3], [2.0, 0.5]]})
    n = 1_000_000
    from killedwalk.rng import keyed_uniform

    values = d.ppf(keyed_uniform(123, np.arange(n), 0))
    for v, w in d.atoms:
        frac = np.mean(values == v)
        sigma = math.sqrt(w * (1 - w) / n)
        assert abs(frac - w) <= 4 * sigma
    mean_sigma = math.sqrt(d.variance / n)
    assert abs(values.mean() - d.mean) <= 4 * mean_sigma


def test_empirical_mean_exponential_within_4_sigma():
    d = make_distribution({"kind": "exponential", "rate": 2.0})
    env = sample_environment(d, (1, 1_000_000), seed=77)
    sigma = math.sqrt(d.variance / env.values.size)
    assert abs(env.values.mean() - d.mean) <= 4 * sigma


def test_environment_source_matches_sampler():
    d = make_distribution(BERN)
    src = EnvironmentSource(d, seed=5, stream_id=9)
    env = sample_environment(d, (-8, 3), seed=5, stream_id=9)
    assert np.array_equal(src.slice_values(-8, 3), env.values)
    assert np.array_equal(src.materialize(-8, 3).values, env.values)


def test_environment_json_roundtrip(tmp_path):
    d = make_distribution(BERN)
    env = sample_environment(d, (-4, 4), seed=3, stream_id=1)
    path = tmp_path / "env.json"
    env.save(path)
    loaded = Environment.load(path)
    assert loaded == env


@pytest.mark.parametrize(
    "d, key",
    [
        ({"window_lo": -1, "window_hi": 1}, "values"),
        ({"window_hi": 1, "values": [0, 0, 0]}, "window_lo"),
        ([0, 0, 0], "object"),
        ({"window_lo": -1.5, "window_hi": 1, "values": [0, 0, 0]}, "window_lo"),
        ({"window_lo": -1, "window_hi": True, "values": [0, 0, 0]}, "window_hi"),
        ({"window_lo": -1, "window_hi": 1, "values": [0, 0, 0], "seed": 0.5}, "seed"),
        ({"window_lo": -1, "window_hi": 1, "values": "abc"}, "values"),
    ],
)
def test_environment_from_dict_refuses_by_key(d, key):
    with pytest.raises(ValueError, match=key):
        Environment.from_dict(d)


@st.composite
def finite_laws(draw):
    values = draw(st.lists(st.floats(0.0, 50.0), min_size=1, max_size=40, unique=True))
    weights = draw(st.lists(st.floats(1e-6, 1.0), min_size=len(values), max_size=len(values)))
    total = math.fsum(weights)
    return make_distribution({"kind": "finite", "atoms": [[v, w / total] for v, w in zip(values, weights)]})


@settings(deadline=None, max_examples=200)
@given(
    dist=st.one_of(
        finite_laws(),
        st.builds(lambda r: make_distribution({"kind": "exponential", "rate": r}), st.floats(0.1, 10.0)),
        st.builds(lambda v: make_distribution({"kind": "point", "value": v}), st.floats(0.0, 10.0)),
    ),
    u=st.lists(st.floats(0.0, 1.0, exclude_max=True), max_size=50),
)
def test_ppf_matches_binary_search_oracle_bit_for_bit(dist, u):
    # every cumulative weight and one ulp either side, plus 1.0 and NaN
    cum = np.cumsum([w for _, w in dist.atoms]) if dist.kind == "finite" else np.array([0.5])
    edges = np.concatenate([cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf)])
    u = np.concatenate([np.asarray(u, dtype=np.float64), edges[edges < 1.0], [1.0, np.nan]])
    out = np.full_like(u, -7.0)
    with np.errstate(divide="ignore"):  # an exponential law maps u = 1 to inf
        want = _oracles.ppf(dist, u)
        assert np.array_equal(dist.ppf(u), want, equal_nan=True)
        assert dist.ppf(u, out=out) is out
        assert np.array_equal(dist.ppf(u.reshape(1, -1)), want.reshape(1, -1), equal_nan=True)
    assert np.array_equal(out, want, equal_nan=True)


def test_a_strided_out_is_refused():
    # numpy 2.4 computes np.negative(x, out=x) wrongly on a strided view: an
    # Exp(1) ppf written in place there gave -0.11 for u = 0.53, not 0.755
    exp1 = make_distribution({"kind": "exponential", "rate": 1.0})
    bern = make_distribution({"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]})
    v = np.linspace(0.05, 0.95, 16).reshape(2, 8)[:, 0]  # u = 0.05 and 0.53
    kept = v.copy()
    bits = keyed_bits(1, 0, np.arange(16)).reshape(2, 8)[:, 0]
    for call in (
        lambda: exp1.ppf(v, out=v),
        lambda: bern.ppf(v, out=np.empty((2, 8))[:, 0]),
        lambda: exp1.survival_from_bits(bits, out=np.empty((2, 8))[:, 0]),
        lambda: bern.atom_index_from_bits(bits, out=np.empty((2, 8), dtype=np.int64)[:, 0]),
    ):
        with pytest.raises(ValueError, match="^out must be a C-contiguous array"):
            call()
    assert np.array_equal(v, kept)  # refused before anything was written
    assert exp1.ppf(v)[1] == pytest.approx(0.755, abs=1e-3)
    assert exp1.ppf(v.copy(), out=np.empty(2))[1] == exp1.ppf(v)[1]


SURVIVAL_LAWS = [
    {"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]},  # cumulative weight on the 2^-53 lattice
    {"kind": "finite", "atoms": [[0.0, 0.1], [1.0, 0.9]]},  # and off it
    {"kind": "finite", "atoms": [[0.0, 1.0], [1.0, 1e-20]]},  # a partial cumulative weight of 1.0
    {"kind": "finite", "atoms": [[0.7, 1.0]]},
    {"kind": "finite", "atoms": [[0.0, 0.1], [0.3, 0.2], [1.0, 0.3], [2.0, 0.25], [5.0, 0.15]]},
    {"kind": "exponential", "rate": 1.0},
    {"kind": "exponential", "rate": 2.5},
    {"kind": "point", "value": 0.3},
    {"kind": "finite", "atoms": [[0.0, 0.2], [0.3, 0.5], [2.0, 0.3]]},
    {"kind": "finite", "atoms": [[0.25 * i, (i + 1) / 820] for i in range(40)]},
    # a trailing atom of zero weight, which no word reaches
    PotentialDistribution(kind="finite", atoms=((0.0, 0.3), (1.0, 0.7), (2.0, 0.0))),
]


@pytest.mark.parametrize("spec", SURVIVAL_LAWS)
def test_survival_from_bits_matches_the_float_route_bit_for_bit(spec):
    dist = make_distribution(spec)
    # the words just below and at each cut, ceil(cum 2^53) << 11, with the
    # 11 bits keyed_uniform drops all clear and all set
    cum = np.cumsum([w for _, w in dist.atoms] or [0.5])
    mantissas = [m for c in cum.tolist() for m in (math.ceil(c * 2**53) - 1, math.ceil(c * 2**53)) if m < 2**53]
    edges = [m << 11 | low for m in mantissas + [0, 2**53 - 1] for low in (0, 2047)]
    bits = np.concatenate([np.array(edges, dtype=np.uint64), keyed_bits(5, 3, np.arange(4000))])
    kept = bits.copy()
    u = (bits >> np.uint64(11)).astype(np.float64) * 2.0**-53
    want = np.exp(-_oracles.ppf(dist, u))
    out = np.full(bits.shape, -7.0)
    assert dist.survival_from_bits(bits, out=out) is out
    assert np.array_equal(out, want)
    assert np.array_equal(dist.survival_from_bits(bits.reshape(2, -1)), want.reshape(2, -1))
    if dist.kind == "finite":
        # the atom index picks the atom ppf reads and the factor survival_from_bits reads
        idx = np.full(bits.shape, -1, dtype=np.int64)
        assert dist.atom_index_from_bits(bits, out=idx) is idx
        assert dist._values[idx].tobytes() == dist.ppf(u).tobytes()
        assert dist._survival[idx].tobytes() == out.tobytes()
        assert np.array_equal(dist.atom_index_from_bits(bits.reshape(2, -1)), idx.reshape(2, -1))
    assert np.array_equal(bits, kept)
