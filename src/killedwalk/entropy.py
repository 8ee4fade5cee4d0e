"""Relative entropy of tilted product laws and the variational sandwich.

The annealed decay rate is the infimum over shift-invariant environment
laws Q of  E^Q[one-step functional] + H(Q | P).  Restricting Q to tilted
product measures keeps the infimum finitely parameterized: the candidate
objective is then (Monte Carlo mean of the functional under the tilted
marginal) + (single-site relative entropy).  The exact minimum over a
tilt family bounds the infimum from above; the reported minimum is the
least of the Monte Carlo values evaluated, so it is biased low, and its
noise is what stat_halfwidth carries.  Together with the quenched and
annealed point estimates this sandwiches the identity numerically:

    beta_hat - err  <=  min objective  <=  alpha_hat + err.

Common random numbers across tilt parameters keep the objective a smooth
function of the tilt, so a 1-d search is reliable near the noise floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .env import PotentialDistribution, _checked_int, _finite
from .lyapunov import LyapunovEstimate, _alpha_mc_laws, estimate_alpha_mc

FAMILIES = ("exponential-tilt", "exp-tilt", "free-simplex")


def kl_divergence(q: PotentialDistribution, p: PotentialDistribution) -> float:
    """Relative entropy of one site, sum q_i ln(q_i / p_i).

    Zero iff the laws coincide; +inf when q charges a value p does not
    (absolute continuity fails).  An atom of q with weight 0 adds 0 (0 ln 0
    = 0), wherever p puts it.  Finite-support laws only.
    """
    if q.kind != "finite" or p.kind != "finite":
        raise ValueError("relative entropy here needs a finite-support law")
    p_atoms = dict(p.atoms)
    total = 0.0
    for value, qw in q.atoms:
        if qw == 0.0:
            continue
        pw = p_atoms.get(value, 0.0)
        if pw == 0.0:
            return math.inf
        total += qw * math.log(qw / pw)
    return max(total, 0.0)


@dataclass(frozen=True)
class TiltedProductMeasure:
    """An i.i.d. environment law whose marginal reweights the base law.

    An exponential tilt weighs each base atom by exp(-theta * value); a
    free-simplex tilt puts arbitrary weights on the base support (theta 0).
    """

    base: PotentialDistribution
    tilt: PotentialDistribution
    theta: float = 0.0

    def kl_per_site(self) -> float:
        if self.tilt.kind == "exponential" and self.base.kind == "exponential":
            ratio = self.tilt.rate / self.base.rate
            return math.log(ratio) + 1.0 / ratio - 1.0
        return kl_divergence(self.tilt, self.base)


def exponential_tilt(base: PotentialDistribution, theta: float) -> TiltedProductMeasure:
    """The Gibbs-type reweighting of the base marginal by exp(-theta * value).

    At theta = 0 the tilt is base itself, not a renormalized copy whose
    weights may differ from base's in the last bit.  theta must be finite.
    """
    theta = _finite(theta, "theta")
    if theta == 0.0:
        return TiltedProductMeasure(base=base, tilt=base, theta=theta)
    if base.kind == "exponential":
        new_rate = base.rate + theta
        if new_rate <= 0:
            raise ValueError(f"tilt parameter {theta} leaves the exponential family")
        tilt = PotentialDistribution(kind="exponential", rate=new_rate)
        return TiltedProductMeasure(base=base, tilt=tilt, theta=theta)
    values = np.array([v for v, _ in base.atoms])
    weights = np.array([w for _, w in base.atoms])
    logits = np.log(weights) - theta * values
    logits -= logits.max()
    new_w = np.exp(logits)
    new_w /= new_w.sum()
    tilt = PotentialDistribution(
        kind="finite", atoms=tuple((float(v), float(w)) for v, w in zip(values, new_w))
    )
    return TiltedProductMeasure(base=base, tilt=tilt, theta=theta)


def simplex_tilt(base: PotentialDistribution, weights) -> TiltedProductMeasure:
    """A free reweighting of the base support (same atoms, new weights),
    each weight finite."""
    if base.kind != "finite":
        raise ValueError("free-simplex tilts need a finite-support base")
    w = np.array([_finite(wi, f"weights[{i}]") for i, wi in enumerate(np.ravel(weights))])
    if w.size != len(base.atoms) or np.any(w < 0):
        raise ValueError("need one nonnegative weight per base atom")
    total = w.sum()
    if total <= 0:
        raise ValueError("weights must not all vanish")
    w = w / total
    keep = [(float(v), float(wi)) for (v, _), wi in zip(base.atoms, w) if wi > 0]
    tilt = PotentialDistribution(kind="finite", atoms=tuple(keep))
    return TiltedProductMeasure(base=base, tilt=tilt)


def expected_F_under(
    q_tilt: TiltedProductMeasure,
    n_samples: int,
    tol: float = 1e-7,
    seed: int = 0,
) -> LyapunovEstimate:
    """Monte Carlo mean of the one-step functional under the tilted marginal:
    estimate_alpha_mc of the tilt.

    Environments are drawn through the inverse CDF of the tilt from the
    keyed uniforms of (seed, sample index, site), so runs at different tilt
    parameters share their randomness; at tilt = base this is the quenched
    estimate bit for bit.
    """
    return estimate_alpha_mc(q_tilt.tilt, n_samples, tol, seed)


def check_family(family: str, base: PotentialDistribution) -> None:
    """Refuse a tilt family minimize_variational does not know, or a free
    simplex on a law it cannot take: it needs a finite law of 2 to 4 atoms."""
    if family not in FAMILIES:
        raise ValueError(f"family must be one of {FAMILIES}, got {family!r}")
    if family == "free-simplex" and (base.kind != "finite" or not 2 <= len(base.atoms) <= 4):
        got = len(base.atoms) if base.kind == "finite" else "an exponential law"
        raise ValueError(f"free-simplex minimization needs 2 to 4 atoms, got {got}")


@dataclass(frozen=True)
class OptimizerConfig:
    n_samples: int = 1000
    tol: float = 1e-7
    seed: int = 0
    theta_lo: float = -1.0
    theta_hi: float = 6.0
    n_grid: int = 25
    param_tol: float = 1e-4
    max_evals: int = 200


@dataclass(frozen=True)
class VariationalReport:
    """The quenched point estimate, the minimized objective and the full
    objective curve (theta, E_Q_F, kl_per_site, objective)."""

    alpha_hat: LyapunovEstimate
    var_min_value: float
    var_min_tilt: TiltedProductMeasure
    objective_curve: list[dict]
    converged: bool
    n_evals: int
    stat_halfwidth: float
    trunc_budget: float


def minimize_variational(
    base: PotentialDistribution,
    family: str = "exponential-tilt",
    optimizer_cfg: OptimizerConfig | None = None,
) -> VariationalReport:
    """Minimize  E^{Q_theta}[F] + KL(Q_theta | base)  over the tilt family.

    The exponential family runs a grid sweep (the reported curve) plus a
    golden-section refinement; the free simplex (a finite law of 2 to 4
    atoms) runs Nelder-Mead over logits.  Common random numbers are held
    fixed across all evaluations.  Every evaluation, grid, golden-section
    and Nelder-Mead steps alike, runs its laws through one batched
    barrier-doubling loop (lyapunov._alpha_mc_laws), each law's rows
    exactly as its own estimate_alpha_mc call would give them: the whole
    grid is one call, each refinement step one more.  alpha_hat, the
    untilted estimate, is the first law of the first call, and every tilt
    equal to base reuses it.  The family's exact minimum bounds beta from
    above, but the reported minimum of Monte Carlo values is biased low,
    with stat_halfwidth noise.
    """
    cfg = optimizer_cfg or OptimizerConfig()
    n_grid = _checked_int(cfg.n_grid, "n_grid", 2)
    check_family(family, base)
    evals: list[dict] = []
    alpha_hat = None

    def evaluate(tpms: list[TiltedProductMeasure]) -> list[dict]:
        """Record the rows of tpms, from one engine call.  A tilt equal to
        base (theta = 0, the Q = P anchor, Nelder-Mead's start) reuses
        alpha_hat: the same samples under the same law, bit for bit."""
        nonlocal alpha_hat
        first = [base] if alpha_hat is None else []
        laws = first + [tpm.tilt for tpm in tpms if tpm.tilt != base]
        estimates = iter(_alpha_mc_laws(laws, cfg.n_samples, cfg.tol, cfg.seed))
        if alpha_hat is None:
            alpha_hat = next(estimates)
        rows = []
        for tpm in tpms:
            est = alpha_hat if tpm.tilt == base else next(estimates)
            kl = tpm.kl_per_site()
            rows.append({
                "theta": tpm.theta,
                "E_Q_F": est.value,
                "kl_per_site": kl,
                "objective": est.value + kl,
                "stat_halfwidth": est.ci_halfwidth,
                "trunc_bias": est.trunc_bias,
                "tilt": tpm,
            })
        evals.extend(rows)
        return rows

    if family in ("exponential-tilt", "exp-tilt"):
        theta_lo = cfg.theta_lo
        if base.kind == "exponential":
            # stay inside the family: the tilted rate must remain positive
            theta_lo = max(theta_lo, -0.999 * base.rate)
        thetas = np.linspace(theta_lo, cfg.theta_hi, n_grid)
        if not np.any(thetas == 0.0) and theta_lo < 0.0 < cfg.theta_hi:
            thetas = np.sort(np.append(thetas, 0.0))
        curve = evaluate([exponential_tilt(base, float(t)) for t in thetas])
        best = min(range(len(curve)), key=lambda i: curve[i]["objective"])
        lo = curve[max(best - 1, 0)]["theta"]
        hi = curve[min(best + 1, len(curve) - 1)]["theta"]
        converged = _golden_section(
            lambda t: evaluate([exponential_tilt(base, t)])[0]["objective"],
            lo,
            hi,
            cfg.param_tol,
            cfg.max_evals - len(evals),
        )
    else:  # check_family admits no other family
        from scipy.optimize import minimize as scipy_minimize

        m = len(base.atoms)
        base_w = np.array([w for _, w in base.atoms])

        def f(z: np.ndarray) -> float:
            if not z.any():  # base itself, which renormalizing may miss by a bit
                return evaluate([TiltedProductMeasure(base, base)])[0]["objective"]
            w = base_w * np.exp(np.concatenate([[0.0], z]))
            return evaluate([simplex_tilt(base, w / w.sum())])[0]["objective"]

        f(np.zeros(m - 1))  # the Q = P anchor, whose call makes alpha_hat
        res = scipy_minimize(
            f,
            np.zeros(m - 1),
            method="Nelder-Mead",
            options={"maxfev": cfg.max_evals - len(evals), "xatol": cfg.param_tol, "fatol": 0.0},
        )
        curve = evals
        converged = bool(res.success)

    best_row = min(evals, key=lambda row: row["objective"])
    curve_rows = [
        {k: row[k] for k in ("theta", "E_Q_F", "kl_per_site", "objective", "stat_halfwidth")}
        for row in curve
    ]
    return VariationalReport(
        alpha_hat=alpha_hat,
        var_min_value=best_row["objective"],
        var_min_tilt=best_row["tilt"],
        objective_curve=curve_rows,
        converged=converged,
        n_evals=len(evals),
        stat_halfwidth=max(row["stat_halfwidth"] for row in evals),
        trunc_budget=max(row["trunc_bias"] for row in evals),
    )


def _golden_section(f, lo: float, hi: float, param_tol: float, budget: int) -> bool:
    """Golden-section minimization; returns True if the bracket shrank
    below param_tol within the evaluation budget."""
    if budget <= 0 or hi - lo <= param_tol:
        return hi - lo <= param_tol
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    budget -= 2
    while budget > 0 and (b - a) > param_tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        budget -= 1
    return (b - a) <= param_tol
