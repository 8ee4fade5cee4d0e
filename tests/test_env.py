import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from killedwalk.env import (
    Environment,
    EnvironmentSource,
    make_distribution,
    sample_environment,
    shift,
)

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
    with pytest.raises(ValueError, match="kind"):
        make_distribution({"kind": "cauchy"})


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
    ],
)
def test_non_finite_parameters_are_rejected(spec, entry):
    with pytest.raises(ValueError, match=re.escape(entry)):
        make_distribution(spec)


def test_environment_rejects_nan_potentials():
    with pytest.raises(ValueError, match=re.escape("values[2] (site 0) is NaN")):
        Environment(-2, 1, np.array([0.0, 1.0, NAN, 0.0]))


def test_laplace_accepts_an_array_of_counts():
    for spec in (BERN, {"kind": "exponential", "rate": 0.7}, {"kind": "point", "value": 2.0}):
        d = make_distribution(spec)
        table = d.laplace(np.arange(6))
        assert table.shape == (6,)
        assert table.tolist() == [d.laplace(ell) for ell in range(6)]


def test_delta_zero_flag():
    assert make_distribution({"kind": "point", "value": 0.0}).is_delta_zero
    assert make_distribution({"kind": "finite", "atoms": [[0.0, 1.0]]}).is_delta_zero
    assert not make_distribution({"kind": "point", "value": 0.3}).is_delta_zero


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
