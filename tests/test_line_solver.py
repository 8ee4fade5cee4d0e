import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from _oracles import (
    WindowModel,
    banded_green_function,
    constant_potential_one_step_a,
    drifted_ruin_probability,
    enumerate_paths_survival,
    path_sum_survival,
    solve_survival_window,
)
from killedwalk import line_solver
from killedwalk.env import (
    Environment,
    EnvironmentSource,
    PotentialDistribution,
    make_distribution,
    sample_environment,
)
from killedwalk.line_solver import (
    F_limit,
    F_limit_batch,
    F_r,
    _reduce,
    forward_step_weights,
    green_function_window,
    two_point_a,
    two_point_e,
)
from killedwalk.lyapunov import annealed_transfer

BERN_SPEC = {"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]}
BERN = make_distribution(BERN_SPEC)
DELTA0 = make_distribution({"kind": "point", "value": 0.0})
# rare killing: its limits reach deep barriers
SPARSE = make_distribution({"kind": "finite", "atoms": [[0.0, 0.99], [1.0, 0.01]]})


def zero_env(r, hi):
    return Environment(r, hi, np.zeros(hi - r + 1))


def bern_env(seed, r, hi, stream=0):
    return sample_environment(BERN, (r, hi), seed=seed, stream_id=stream)


# ---------------------------------------------------------------------------
# the oracle chain: explicit enumeration -> time-stepped path sum -> solver
# ---------------------------------------------------------------------------


def test_path_sum_oracle_matches_explicit_enumeration():
    rng = np.random.default_rng(5)
    for p in (0.5, 0.65):
        for _ in range(4):
            r, y = -2, 2
            omega = rng.exponential(0.7, size=y - r - 1)
            by_site = {site: omega[site - (r + 1)] for site in range(r + 1, y)}
            for x in (0, 1):
                brute = enumerate_paths_survival(by_site, r, x, y, p, max_len=11)
                dp, _ = path_sum_survival(omega, r, x, y, p, max_len=11)
                assert dp == pytest.approx(brute, rel=1e-12)


@pytest.mark.parametrize("p", [0.5, 0.3, 0.7])
def test_solver_matches_path_sum_on_small_windows(p):
    rng = np.random.default_rng(42)
    for trial in range(6):
        r = -int(rng.integers(2, 6))
        y = int(rng.integers(1, 12 + r + 1 if 12 + r >= 1 else 2))
        y = max(y, 1)
        omega = rng.exponential(1.0, size=y - r - 1)
        env = Environment(r, y, np.concatenate([[0.0], omega, [0.0]]))
        for max_len, slack in ((30, 0.0), (3000, 1e-12)):
            oracle, tail = path_sum_survival(omega, r, 0, y, p, max_len=max_len)
            got = solve_survival_window(WindowModel(env, r, y, 0, p)).e_value
            assert oracle <= got + 1e-13
            assert abs(got - oracle) <= tail + slack + 1e-13


def test_forward_sweep_equals_banded_solve():
    for seed in range(8):
        env = bern_env(seed, -6, 9)
        for y in (1, 4, 9):
            banded = solve_survival_window(WindowModel(env, -6, y, 0, 0.5))
            sweep_a = two_point_a(env, 0, y, -6, 0.5)
            assert sweep_a == pytest.approx(banded.a_value, rel=1e-12, abs=1e-13)


@st.composite
def site_runs(draw):
    """Potentials of 1 or 3 rows on 2**k sites, k = 0..6, and a scalar or per-site p."""
    n_sites = 2 ** draw(st.integers(0, 6))
    n_rows = draw(st.sampled_from([1, 3]))
    potential = st.one_of(st.sampled_from([0.0, 1e-12]), st.floats(0.0, 700.0))
    cells = draw(st.lists(potential, min_size=n_rows * n_sites, max_size=n_rows * n_sites))
    prob = st.floats(0.05, 0.95)
    p = draw(st.one_of(prob, st.lists(prob, min_size=n_sites, max_size=n_sites).map(np.array)))
    return np.array(cells).reshape(n_rows, n_sites), p


@settings(deadline=None, derandomize=True, max_examples=100)
@given(site_runs())
def test_reduction_matches_sweep_and_banded_solve(case):
    # F = a(0, 1) under the barrier left of the run, and the tail
    # certificate ln(1 + c/a), with c the weight of 0 -> r before 1
    omega, p = case
    r = -omega.shape[1]
    p_sites = np.broadcast_to(p, omega.shape[1:])
    p_window = np.concatenate([[0.5], p_sites, [0.5]])  # sites r .. 1
    log_a, _, log_c, _ = _reduce(omega, p)
    for row, la, lc in zip(omega, log_a, log_c):
        sweep_f = -forward_step_weights(row, p_sites)[1][-1]
        sweep_log_c = np.sum(forward_step_weights(row[::-1], 1.0 - p_sites[::-1])[1])
        window = np.concatenate([[0.0], row, [0.0]])
        banded_f = solve_survival_window(WindowModel(Environment(r, 1, window), r, 1, 0, p_window)).a_value
        mirrored = WindowModel(Environment(-1, -r, window[::-1]), -1, -r, 0, 1.0 - p_window[::-1])
        banded_log_c = -solve_survival_window(mirrored).a_value
        for f, log_c in ((sweep_f, sweep_log_c), (banded_f, banded_log_c)):
            cert = np.logaddexp(0.0, log_c + f)
            assert abs(-la - f) <= 1e-12 * max(1.0, abs(f))
            assert abs(np.logaddexp(0.0, lc - la) - cert) <= 1e-12 * max(1.0, cert)


# log weights up to -1e-16: within 1e-288 of 0, the helper's e^-700 floor
# may move a sum by up to 1e-304, many ulps of so small a sum
_log_weight = st.floats(-1000.0, -1e-16)


@st.composite
def _logaddexp_pair(draw):
    """A random pair, an equal pair, a gap past -745, or -inf on one side or both."""
    x = draw(_log_weight)
    y = draw(st.one_of(
        _log_weight,
        st.just(x),
        st.floats(745.0, 5000.0).map(lambda gap: x - gap),
        st.just(-math.inf),
    ))
    return draw(st.sampled_from([(x, y), (y, x), (-math.inf, -math.inf)]))


@settings(deadline=None, derandomize=True, max_examples=200)
@given(st.lists(_logaddexp_pair(), min_size=1, max_size=64))
def test_logaddexp_helper_matches_numpy_within_2_ulp(pairs):
    # measured in ulps of the largest of its terms, max and log1p(exp(min
    # - max)), and the sum: a sum near 0 cancels what numpy's scalar exp
    # and log1p round differently from the SIMD ones
    x, y = np.array(pairs).T
    want = np.logaddexp(x, y)
    got = line_solver._logaddexp(x, y.copy(), np.empty_like(y))
    finite = np.isfinite(want)
    assert np.array_equal(got[~finite], want[~finite])
    hi = np.maximum(x, y)[finite]
    scale = np.maximum.reduce([np.abs(want[finite]), np.abs(hi), want[finite] - hi])
    assert np.all(np.abs(got[finite] - want[finite]) <= 2 * np.spacing(scale))


@pytest.mark.filterwarnings("error")
def test_a_site_that_kills_surely_leaves_the_limit_finite():
    # +inf at site -34: no path to 1 that reaches it survives, so F at the
    # barriers past it is the solve under barrier -34.  The star's sums
    # meet -inf on both sides there, which must read -inf, not NaN
    env = Environment(-64, 1, [0.0] * 30 + [math.inf] + [0.0] * 35)
    res = F_limit(env, tol=1e-9)
    assert math.isfinite(res.a_value) and math.isfinite(res.trunc_bound)
    assert abs(res.a_value - two_point_a(env, 0, 1, -34)) <= 1e-12


@pytest.mark.parametrize("n_sites, bound", [(256, 1e-14), (4096, 2e-13)])
def test_reduction_rounding_on_zero_potential_stays_bounded(n_sites, bound):
    # gambler's ruin: 0 reaches 1 before -n_sites with weight n/(n+1).  The
    # pairwise reduction's rounding grows about linearly in the window
    # (7.9e-15 and 1.26e-13 here), where the sweep's does not
    log_a = _reduce(np.zeros(n_sites), 0.5)[0]
    assert abs(-log_a - math.log1p(1.0 / n_sites)) <= bound


@pytest.mark.parametrize("n_sites", [0, 3, 6, 12])
def test_reduction_refuses_a_run_of_other_than_2_to_the_k_sites(n_sites):
    # halving such a run would broadcast a one-site half and read a wrong F
    with pytest.raises(ValueError, match=rf"2\*\*k sites, got {n_sites}$"):
        _reduce(np.zeros((2, n_sites)), 0.5)


def _reduced_lengths(monkeypatch):
    """The site counts of every run the barrier-doubling loop reduces from
    here on, on the float route and the run-table route alike."""
    lengths = []
    loop = line_solver._barrier_doubling

    def spy(reduced, *args):
        def counted(rows, lo, hi):
            lengths.append(hi - lo + 1)
            return reduced(rows, lo, hi)

        return loop(counted, *args)

    monkeypatch.setattr(line_solver, "_barrier_doubling", spy)
    return lengths


@pytest.mark.parametrize("lo", [-2, -3, -5, -64, -100, -4096])
def test_the_loop_reduces_2_to_the_k_sites_on_a_window(monkeypatch, lo):
    # the zero potential never converges, so every barrier down to lo runs
    lengths = _reduced_lengths(monkeypatch)
    res = F_limit(zero_env(lo, 1), tol=1e-9)
    deepest = -(2 ** int(math.log2(-lo)))
    assert res.r_used == deepest and not res.converged and "window exhausted" in res.note
    assert lengths == [2] + [2**k for k in range(1, int(math.log2(-deepest)))]


@pytest.mark.parametrize(
    "r_max, lo, reason",
    [(-64, -100, "deepest barrier reached"), (-100, -90, "deepest barrier reached"), (-200, -100, "window exhausted")],
)
def test_an_unconverged_window_names_what_stopped_it(monkeypatch, r_max, lo, reason):
    # the window ends the walk only if a barrier within r_max lies past it
    monkeypatch.setattr(line_solver, "DEFAULT_R_MAX", r_max)
    res = F_limit(zero_env(lo, 1), tol=1e-9)
    assert res.r_used == -64 and f"({reason})" in res.note


def test_the_loop_reduces_2_to_the_k_sites_on_a_source(monkeypatch):
    lengths = _reduced_lengths(monkeypatch)
    res = F_limit(EnvironmentSource(SPARSE, 4, 7), tol=1e-9)
    assert lengths == [2] + [2**k for k in range(1, int(math.log2(-res.r_used)))]


def test_the_loop_reduces_2_to_the_k_sites_in_chunks(monkeypatch):
    monkeypatch.setattr(line_solver, "_CELL_BUDGET", 64)  # one row a chunk from r = -64
    lengths = _reduced_lengths(monkeypatch)
    batch = F_limit_batch(SPARSE, seed=2, n_samples=40, tol=1e-9)
    assert batch.r_used.min() <= -256 and len(lengths) > 40
    assert all(n & (n - 1) == 0 for n in lengths) and max(lengths) == -batch.r_used.min() // 2


@pytest.mark.parametrize("spec", [BERN_SPEC, {"kind": "exponential", "rate": 1.0}])
def test_batch_composition_is_invisible(spec):
    dist = make_distribution(spec)
    batch = F_limit_batch(dist, seed=5, n_samples=300, tol=1e-7)
    for i in range(300):
        one = F_limit(EnvironmentSource(dist, seed=5, stream_id=i), tol=1e-7)
        assert batch.a_value[i] == one.a_value
        assert batch.trunc_bound[i] == one.trunc_bound
        assert batch.r_used[i] == one.r_used
        assert batch.converged[i] == one.converged


THREE_ATOMS = make_distribution({"kind": "finite", "atoms": [[0.0, 0.2], [1.0, 0.3], [2.0, 0.5]]})
POINT = make_distribution({"kind": "point", "value": -math.log(0.8)})


@pytest.mark.parametrize(
    "law, p",
    [(BERN, 0.3), (BERN, 0.5), (BERN, 0.7), (DELTA0, 0.3), (THREE_ATOMS, 0.5), (THREE_ATOMS, 0.7), (POINT, 0.5)],
)
def test_keyed_and_window_routes_give_the_same_digits(law, p):
    # a delta-zero source once read 0 at any p; below 1/2 its limit is ln(q/p)
    keyed = F_limit(EnvironmentSource(law, 3, 2), p=p)
    assert keyed == F_limit(sample_environment(law, (-4096, 1), 3, 2), p=p)
    assert keyed.converged and keyed.r_used < 0


@st.composite
def finite_laws(draw):
    """A finite law of 1 to 6 atoms, one of them maybe at 0 and one maybe of
    weight 0, which shifts every later atom's index."""
    n_atoms = draw(st.integers(1, 6))
    values = draw(st.lists(st.floats(0.05, 4.0), min_size=n_atoms, max_size=n_atoms, unique=True))
    if draw(st.booleans()):
        values[0] = 0.0
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n_atoms, max_size=n_atoms))
    if n_atoms > 1 and draw(st.booleans()):
        weights[draw(st.integers(0, n_atoms - 1))] = 0.0
    total = sum(weights)
    atoms = sorted((v, w / total) for v, w in zip(values, weights))
    return PotentialDistribution(kind="finite", atoms=tuple(atoms))


@settings(deadline=None, derandomize=True, max_examples=60)
@given(finite_laws(), st.floats(0.05, 0.95), st.integers(0, 2**32))
def test_run_tables_give_the_float_routes_digits(law, p, stream):
    # a keyed finite law looks its runs up in tables; the window runs every
    # site through _reduce.  Both converge well inside the window, but for
    # a delta-zero law at p >= 1/2, whose keyed limit is 0 with no barrier
    assume(not (law.is_delta_zero and p >= 0.5))
    keyed = F_limit(EnvironmentSource(law, 5, stream), p=p)
    assert keyed == F_limit(sample_environment(law, (-(2**16), 1), 5, stream), p=p)
    assert keyed.converged


def test_a_stream_id_is_read_as_a_64_bit_word():
    # keyed_uniform hashes stream 2**64 + 5 as stream 5, and so must the keyed rows
    assert F_limit(EnvironmentSource(BERN, 0, 2**64 + 5)) == F_limit(EnvironmentSource(BERN, 0, 5))


def test_row_chunking_is_invisible(monkeypatch):
    whole = F_limit_batch(BERN, seed=8, n_samples=200, tol=1e-7)
    monkeypatch.setattr(line_solver, "_CELL_BUDGET", 64)  # 2 rows at r = -32, 1 from r = -64
    chunked = F_limit_batch(BERN, seed=8, n_samples=200, tol=1e-7)
    for name in ("a_value", "trunc_bound", "r_used", "converged"):
        assert np.array_equal(getattr(whole, name), getattr(chunked, name))
    assert whole.r_used.min() <= -64  # some rows did run in chunks


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("r", [-1, -4, -9])
def test_gamblers_ruin(r):
    res = F_r(zero_env(r, 1), r)
    assert res.e_value == pytest.approx(-r / (1.0 - r), rel=1e-14)
    assert res.a_value == pytest.approx(-math.log(-r / (1.0 - r)), rel=1e-14)


@pytest.mark.parametrize("p", [0.55, 0.7, 0.35])
@pytest.mark.parametrize("r", [-3, -8])
def test_drifted_gamblers_ruin(p, r):
    res = F_r(zero_env(r, 1), r, p=p)
    assert res.e_value == pytest.approx(drifted_ruin_probability(r, p), rel=1e-12)


def test_target_equals_start_is_empty_sum():
    env = bern_env(3, -4, 4)
    res = solve_survival_window(WindowModel(env, -4, 2, 2, 0.5))
    assert res.e_value == 1.0 and res.a_value == 0.0
    assert two_point_a(env, 2, 2, -4) == 0.0


def test_constant_potential_limit_is_hitting_time_gf():
    for s in (0.8, 0.5, 0.95):
        dist = make_distribution({"kind": "point", "value": -math.log(s)})
        res = F_limit(EnvironmentSource(dist, seed=0), tol=1e-12)
        assert res.converged
        assert res.a_value == pytest.approx(constant_potential_one_step_a(s), abs=1e-10)


def test_delta_zero_limit_flags_slow_mode():
    env = zero_env(-(2**14), 1)
    res = F_limit(env, tol=1e-9)
    assert not res.converged
    assert "not converged" in res.note
    assert 0.0 <= res.a_value <= 1e-3  # ln((1-r)/-r) at the last barrier

    dist_source = EnvironmentSource(DELTA0, seed=0)
    exact = F_limit(dist_source, tol=1e-9)
    assert exact.converged and exact.a_value == 0.0 and exact.r_used == 0 and "trivial" in exact.note

    batch = F_limit_batch(dist_source.dist, seed=0, n_samples=3, tol=1e-9)
    assert batch.a_value.tolist() == [0.0] * 3 and batch.converged.all()
    assert batch.r_used.tolist() == [exact.r_used] * 3
    batch.a_value[0] = 1.0
    assert batch.trunc_bound[0] == 0.0  # separate arrays


def test_drifted_zero_potential_limit_vanishes():
    res = F_limit(zero_env(-64, 1), tol=1e-12, p=0.7)
    assert res.converged
    assert abs(res.a_value) <= 1e-10
    # p -> 1 drives the one-step weight to exp(-omega(0))
    env = bern_env(1, -16, 1)
    res = F_r(env, -16, p=1.0 - 1e-12)
    assert res.a_value == pytest.approx(env.value_at(0), abs=1e-9)


def test_huge_potential_underflows_gracefully():
    big = 1e12
    env = Environment(-4, 1, np.array([0.0, 0.0, 0.0, 0.0, big, 0.0]))
    res = F_r(env, -4)
    assert res.e_value == 0.0
    assert res.underflowed
    assert math.isfinite(res.a_value)
    assert res.a_value == pytest.approx(big + math.log(2.0), rel=1e-12)
    point = EnvironmentSource(make_distribution({"kind": "point", "value": 800.0}), seed=0)
    res = F_limit(point, tol=1e-9)
    assert res.underflowed and res.converged
    assert res.a_value == pytest.approx(800.0 + math.log(2.0), rel=1e-12)


# ---------------------------------------------------------------------------
# structural invariants
# ---------------------------------------------------------------------------


def test_additivity_and_multiplication_with_shared_barrier():
    for seed in range(10):
        env = bern_env(seed, -5, 10)
        for y in range(0, 11):
            for z in range(y, 11):
                lhs_a = two_point_a(env, 0, z, -5)
                rhs_a = two_point_a(env, 0, y, -5) + two_point_a(env, y, z, -5)
                assert lhs_a == pytest.approx(rhs_a, rel=1e-12, abs=1e-13)
                lhs_e = two_point_e(env, 0, z, -5)
                rhs_e = two_point_e(env, 0, y, -5) * two_point_e(env, y, z, -5)
                assert lhs_e == pytest.approx(rhs_e, rel=1e-12)


def test_barrier_monotonicity_and_envelope():
    for seed in range(6):
        env = bern_env(seed, -64, 1)
        results = [F_r(env, r) for r in (-1, -2, -4, -8, -16, -32, -64)]
        e_vals = [res.e_value for res in results]
        assert all(b >= a for a, b in zip(e_vals, e_vals[1:]))  # deeper barrier admits more paths
        bound = env.value_at(0) + math.log(2.0)
        for res in results:
            assert 0.0 <= res.a_value <= bound + 1e-12


def test_limit_certificate_brackets_deeper_barrier():
    for seed in range(5):
        env = bern_env(seed, -(2**12), 1)
        res = F_limit(env, tol=1e-7)
        deep = F_r(env, -(2**12))
        assert res.converged
        assert deep.a_value <= res.a_value + 1e-15
        assert res.a_value - deep.a_value <= res.trunc_bound


def test_nan_tolerance_is_refused():
    # NaN < tol is never true, so a NaN tol would run every row to the last barrier
    with pytest.raises(ValueError, match="tol"):
        F_limit(bern_env(2, -64, 1), tol=math.nan)
    with pytest.raises(ValueError, match="tol"):
        F_limit(bern_env(2, -64, 1), tol=0.0)
    with pytest.raises(ValueError, match="tol"):
        F_limit_batch(BERN, seed=2, n_samples=2, tol=math.nan)
    # a source that is neither an Environment nor an EnvironmentSource
    with pytest.raises(ValueError, match="^source must be"):
        F_limit([0.0] * 5)


def test_every_line_routine_refuses_a_step_probability_outside_the_unit_interval():
    env = bern_env(0, -5, 5)
    routines = {
        "forward_step_weights": lambda p: forward_step_weights(np.zeros(3), p),
        "two_point_a": lambda p: two_point_a(env, 0, 2, -5, p),
        "two_point_e": lambda p: two_point_e(env, 0, 2, -5, p),
        "F_r": lambda p: F_r(env, -5, p),
        "F_limit on a window": lambda p: F_limit(env, p=p),
        "F_limit on a source": lambda p: F_limit(EnvironmentSource(BERN, 0), p=p),
        "F_limit on delta zero": lambda p: F_limit(EnvironmentSource(DELTA0, 0), p=p),
        "green_function_window": lambda p: green_function_window(env, 0, 2, (-5, 5), p),
        "annealed_transfer": lambda p: annealed_transfer(BERN, 2, -5, p),
    }
    for bad in (1.5, 2.0, 1.0, 0.0, -0.2, math.nan, math.inf, [0.5, 1.5]):
        for name, routine in routines.items():
            with pytest.raises(ValueError, match=r"p must lie in \(0, 1\)"):
                routine(bad)
                pytest.fail(f"{name} took p = {bad!r}")
    # a p whose 1 - p rounds to 1.0 is still in (0, 1); the mirrored sweeps take it
    assert math.isfinite(annealed_transfer(BERN, 2, -2, 1e-17).b_value)
    assert math.isfinite(green_function_window(env, 0, 2, (-5, 5), 1e-17))
    # one value per site is fine where the window is fixed, and must fit it
    assert two_point_a(env, 0, 2, -5, np.full(6, 0.5)) == two_point_a(env, 0, 2, -5)
    with pytest.raises(ValueError, match="p must"):
        forward_step_weights(np.zeros(3), [0.5, 0.5])
    with pytest.raises(ValueError, match="p must"):  # the limit reduces windows of changing length
        F_limit(env, p=np.full(6, 0.5))


def test_window_model_validation():
    env = zero_env(-3, 3)
    with pytest.raises(ValueError, match="barrier"):
        WindowModel(env, 2, 3, 0)
    with pytest.raises(ValueError, match="target"):
        WindowModel(env, -3, -3, 0)
    with pytest.raises(ValueError, match="ill-posed"):
        WindowModel(env, -3, 1, 2)
    with pytest.raises(ValueError, match="window too small"):
        F_r(zero_env(-2, 1), -5)
    with pytest.raises(ValueError, match="step probability"):
        WindowModel(env, -3, 3, 0, 1.5)


# ---------------------------------------------------------------------------
# green function
# ---------------------------------------------------------------------------


def test_green_immediate_death():
    env = Environment(-10, 10, np.full(21, 1e12))
    assert green_function_window(env, 0, 3, (-10, 10)) == pytest.approx(0.0, abs=1e-200)


def test_green_widening_window_is_monotone():
    for seed in range(4):
        env = bern_env(seed, -20, 20)
        for x, y in ((0, 4), (0, 0), (-3, 5)):
            narrow = green_function_window(env, x, y, (-10, 10))
            wide = green_function_window(env, x, y, (-20, 20))
            assert wide >= narrow - 1e-15


def test_green_constant_potential_closed_form():
    # with survival s per visit: g(0, n) = s * G(s)^n / sqrt(1 - s^2)
    s = 0.8
    dist = make_distribution({"kind": "point", "value": -math.log(s)})
    env = sample_environment(dist, (-200, 200), seed=0)
    gf = (1.0 - math.sqrt(1.0 - s * s)) / s
    for n in (0, 1, 5, 12):
        want = s * gf**n / math.sqrt(1.0 - s * s)
        if n == 0:
            want -= s  # the resolvent's identity term is excluded
        got = green_function_window(env, 0, n, (-200, 200))
        assert got == pytest.approx(want, rel=1e-10)


@pytest.mark.parametrize("p", [0.3, 0.5, 0.7, "per-site"])
def test_green_matches_banded_solve(p):
    if p == "per-site":
        p = np.random.default_rng(11).uniform(0.1, 0.9, size=23)
    for seed in range(5):
        env = bern_env(seed, -12, 12)
        for x, y in ((0, 4), (4, 0), (2, 2), (-11, 11), (11, -11), (-11, -11), (0, 11)):
            want = banded_green_function(env, x, y, (-12, 12), p)
            assert green_function_window(env, x, y, (-12, 12), p) == pytest.approx(want, rel=1e-12)


def test_green_requires_interior_points():
    env = zero_env(-5, 5)
    with pytest.raises(ValueError, match="strictly inside"):
        green_function_window(env, -5, 0, (-5, 5))
