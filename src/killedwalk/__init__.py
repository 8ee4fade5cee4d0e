"""killedwalk: survival exponents of random walks killed by random potentials.

The library computes, on the integers and on d-regular trees:

- exact survival weights of killed nearest-neighbour walks on finite
  windows (line_solver),
- quenched and annealed exponential decay rates with uncertainty
  (lyapunov),
- the relative-entropy variational sandwich connecting the two (entropy),
- the reduction of tree walks to effective line walks (tree),

with bit-reproducible keyed randomness (env, rng) and a batch CLI (cli).
"""

__version__ = "0.1.0"

from .env import (
    Environment,
    EnvironmentSource,
    PotentialDistribution,
    make_distribution,
    sample_environment,
    shift,
)
from .entropy import (
    OptimizerConfig,
    TiltedProductMeasure,
    VariationalReport,
    expected_F_under,
    exponential_tilt,
    kl_divergence,
    minimize_variational,
    simplex_tilt,
)
from .line_solver import (
    F_limit,
    F_limit_batch,
    F_r,
    LimitBatch,
    SurvivalResult,
    forward_step_weights,
    green_function_window,
    two_point_a,
    two_point_e,
)
from .lyapunov import (
    AnnealedTransferResult,
    LyapunovEstimate,
    annealed_transfer,
    estimate_alpha_ergodic,
    estimate_alpha_mc,
    estimate_beta,
)
from .tree import (
    BranchSurvival,
    EffectiveLineModel,
    GeodesicSpec,
    RhoPotential,
    TreeConfig,
    TurningPointReport,
    WalkerEstimate,
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

__all__ = [name for name in dir() if not name.startswith("_")]
