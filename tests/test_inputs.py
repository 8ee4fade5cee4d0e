"""Every integer argument of a library entry passes one rule: an int or a
numpy integer, never a bool or a float, within the entry's bounds; any
other value is a ValueError whose message starts with the parameter's name."""

import re

import numpy as np
import pytest

from killedwalk.entropy import OptimizerConfig, expected_F_under, exponential_tilt, minimize_variational
from killedwalk.env import Environment, EnvironmentSource, make_distribution, sample_environment
from killedwalk.line_solver import F_limit_batch, F_r, green_function_window, two_point_a
from killedwalk.lyapunov import annealed_transfer, estimate_alpha_ergodic, estimate_alpha_mc, estimate_beta
from killedwalk.tree import (
    GeodesicSpec,
    TreeConfig,
    reduce_to_line,
    rho_environment,
    rho_for_site,
    simulate_excursions,
    simulate_geodesic_passage,
    turning_point_decompose,
)

BERN = make_distribution({"kind": "finite", "atoms": [[0.0, 0.5], [1.0, 0.5]]})
CFG = TreeConfig(3, depth_cap_D=4)
DRIFT = TreeConfig(3, drift_p=0.45, depth_cap_D=4)
ENV = sample_environment(BERN, (-8, 8), seed=1)
SMALL = dict(n_samples=4, tol=1e-6, theta_lo=-0.5, theta_hi=0.5, max_evals=4)

# (entry, parameter): (the call with the parameter set to v, a valid v)
CASES = {
    ("estimate_alpha_mc", "n_samples"): (lambda v: estimate_alpha_mc(BERN, v, tol=1e-6), 2),
    ("estimate_alpha_ergodic", "n"): (lambda v: estimate_alpha_ergodic(BERN, v, r_offset=8), 5),
    ("estimate_alpha_ergodic", "r_offset"): (lambda v: estimate_alpha_ergodic(BERN, 5, r_offset=v), 8),
    ("estimate_beta", "n_grid"): (lambda v: estimate_beta(BERN, [v]), 2),
    ("minimize_variational", "n_grid"): (
        lambda v: minimize_variational(BERN, optimizer_cfg=OptimizerConfig(n_grid=v, **SMALL)), 2
    ),
    ("TreeConfig", "d"): (lambda v: TreeConfig(v), 3),
    ("TreeConfig", "depth_cap_D"): (lambda v: TreeConfig(3, depth_cap_D=v), 2),
    ("reduce_to_line", "n"): (lambda v: reduce_to_line(CFG, BERN, v), 2),
    ("GeodesicSpec", "turning_index_k"): (lambda v: GeodesicSpec("turning-point", turning_index_k=v, target_index=3), 1),
    ("GeodesicSpec", "target_index"): (lambda v: GeodesicSpec("turning-point", target_index=v), 2),
    ("simulate_geodesic_passage", "target"): (lambda v: simulate_geodesic_passage(CFG, BERN, target=v, n_walks=20), 1),
    ("F_r", "r"): (lambda v: F_r(ENV, v), -3),
    ("sample_environment", "window_lo"): (lambda v: sample_environment(BERN, (v, 3), seed=0), 0),
    ("sample_environment", "window_hi"): (lambda v: sample_environment(BERN, (0, v), seed=0), 3),
    ("EnvironmentSource", "seed"): (lambda v: EnvironmentSource(BERN, v).slice_values(0, 3).tolist(), 4),
    ("EnvironmentSource", "stream_id"): (lambda v: EnvironmentSource(BERN, 4, v).slice_values(0, 3).tolist(), 1),
    ("Environment", "window_lo"): (lambda v: Environment(v, 2, np.zeros(3)), 0),
    ("Environment", "window_hi"): (lambda v: Environment(0, v, np.zeros(3)), 2),
    ("rho_for_site", "site_index"): (lambda v: rho_for_site(CFG, BERN, v), 1),
    ("rho_environment", "window_lo"): (lambda v: rho_environment(CFG, BERN, (v, 2))[1], 0),
    ("rho_environment", "window_hi"): (lambda v: rho_environment(CFG, BERN, (0, v))[1], 2),
    ("green_function_window", "window_lo"): (lambda v: green_function_window(ENV, 0, 2, (v, 5)), -5),
    ("green_function_window", "window_hi"): (lambda v: green_function_window(ENV, 0, 2, (-5, v)), 5),
    ("green_function_window", "x"): (lambda v: green_function_window(ENV, v, 2, (-5, 5)), 0),
    ("green_function_window", "y"): (lambda v: green_function_window(ENV, 0, v, (-5, 5)), 2),
    ("turning_point_decompose", "barrier_r"): (
        lambda v: turning_point_decompose(GeodesicSpec("turning-point", 1, 3), DRIFT, BERN, barrier_r=v), -3
    ),
    ("annealed_transfer", "n"): (lambda v: annealed_transfer(BERN, v, -4), 3),
    ("annealed_transfer", "r"): (lambda v: annealed_transfer(BERN, 3, v), -4),
    ("annealed_transfer", "start"): (lambda v: annealed_transfer(BERN, 3, -4, start=v), 0),
    ("two_point_a", "x"): (lambda v: two_point_a(ENV, v, 2, -3), 0),
    ("two_point_a", "y"): (lambda v: two_point_a(ENV, 0, v, -3), 2),
    ("two_point_a", "r"): (lambda v: two_point_a(ENV, 0, 2, v), -3),
    # keyed entries: a bool seed once ran as seed 1, a float one failed in the key hash
    ("estimate_alpha_mc", "seed"): (lambda v: estimate_alpha_mc(BERN, 4, tol=1e-6, seed=v), 3),
    ("F_limit_batch", "seed"): (lambda v: F_limit_batch(BERN, v, 4, tol=1e-6).a_value.tolist(), 3),
    ("expected_F_under", "seed"): (lambda v: expected_F_under(exponential_tilt(BERN, 1.0), 4, 1e-6, v), 3),
    ("minimize_variational", "seed"): (
        lambda v: minimize_variational(BERN, optimizer_cfg=OptimizerConfig(n_grid=3, seed=v, **SMALL)), 3
    ),
    ("rho_for_site", "seed"): (lambda v: rho_for_site(CFG, BERN, 1, seed=v), 2),
    ("rho_for_site", "stream_id"): (lambda v: rho_for_site(CFG, BERN, 1, stream_id=v), 2),
    ("rho_environment", "seed"): (lambda v: rho_environment(CFG, BERN, (0, 2), seed=v)[1], 2),
    ("reduce_to_line", "seed"): (lambda v: reduce_to_line(CFG, BERN, 2, seed=v), 2),
    ("turning_point_decompose", "seed"): (
        lambda v: turning_point_decompose(GeodesicSpec("turning-point", 1, 3), DRIFT, BERN, seed=v), 2
    ),
    **{
        ("simulate_excursions", name): (lambda v, name=name: simulate_excursions(CFG, BERN, n_excursions=20, **{name: v}), 2)
        for name in ("site_index", "seed", "stream_id")
    },
    **{
        ("simulate_geodesic_passage", name): (
            lambda v, name=name: simulate_geodesic_passage(CFG, BERN, target=1, n_walks=20, **{name: v}), 5
        )
        for name in ("escape_horizon", "seed", "stream_id")
    },
}


@pytest.mark.parametrize("entry, param", CASES, ids=[f"{entry}-{param}" for entry, param in CASES])
def test_integer_argument_rule(entry, param):
    call, good = CASES[entry, param]
    for bad in (2.5, True):
        with pytest.raises(ValueError, match=rf"^{re.escape(param)}(\[0\])? must be an integer"):
            call(bad)
    assert call(good) == call(np.int64(good))


def test_environment_files_also_take_integral_floats():
    env = Environment.from_dict({"window_lo": -1.0, "window_hi": 1, "values": [0.0, 1.0, 0.5], "seed": 3.0})
    assert (env.window_lo, env.window_hi, env.seed) == (-1, 1, 3) and type(env.window_lo) is int
