"""Cutting-plane solution of the dualized time-sharing rate balancing
problem and recovery of the primal mixture of power vectors.

The rate-balancing problem with coded time-sharing dualizes into a
minimization over rate weights ``mu`` and power prices ``lambda`` whose
inner maximization is handled by :mod:`tinregions.inner`.  Replacing
the continuum of inner power vectors by a finite set of generated
points ("cuts") turns the outer problem into a small LP whose optimum
is a lower bound; evaluating the dual objective at each generated dual
point yields upper bounds, and the loop stops once they agree to within
``epsilon_cp``.

The loop solves that LP in its primal form, the master of
:func:`master_lp`: maximize R over time-sharing weights tau on the cuts
subject to two rate rows, two power rows and the simplex row (five rows
however many cuts there are).  Its optimum is the relaxation's lower
bound, and the duals of its rate and power rows are the next trial
(mu, lambda) (Dantzig-Wolfe column generation).  A new cut appends one
column, so each iteration resumes the simplex from the previous optimal
basis.  The time-sharing weights are recovered from the same master
over the accumulated cuts; its vertex structure activates at most four
strategies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .inner import DualPoint
from .inner import stationary_solve as bnb_solve  # callers wrap outer.bnb_solve to trace it
from .lp import EQUAL, GREATER, LESS, LinearProgram, lp_solve
from .model import ChannelRealization, PowerBudget, RatePair, RateProfile, rate_pair_proper

_LN2 = math.log(2.0)

DUPLICATE_CUT_TOL = 1e-12
ACTIVE_TAU_TOL = 1e-9
MAX_ACTIVE_STRATEGIES = 4
#: Master duals within this fraction of the largest (or of 1) are set
#: to exactly zero.  The basis solve leaves rounding residue such as
#: lambda2 = 5.8e-17 next to a positive mu2; the inner oracle reads a
#: price that small as a real one, builds a degenerate resultant and
#: raises.
DUAL_SNAP_TOL = 1e-12
#: Iterations after which the loop stops with status "max-cuts".
MAX_CUTS = 200

__all__ = [
    "Cut",
    "TimeSharingSolution",
    "OuterConfig",
    "CuttingPlaneResult",
    "master_lp",
    "achieved_dual_value",
    "cutting_plane",
    "primal_recover",
    "ts_point",
]


@dataclass(frozen=True)
class Cut:
    """A generated power vector with its precomputed proper rates."""

    p: tuple[float, float]
    rates: RatePair
    origin: str  # "initial" | "stationary" | "capped"


@dataclass(frozen=True)
class TimeSharingSolution:
    """Weighted strategies (tau, p, rates) and the balanced rate value."""

    strategies: tuple[tuple[float, tuple[float, float], RatePair], ...]
    R: float

    def average_rates(self) -> RatePair:
        r1 = sum(t * r.r1 for t, _, r in self.strategies)
        r2 = sum(t * r.r2 for t, _, r in self.strategies)
        return RatePair(r1, r2)

    def average_powers(self) -> tuple[float, float]:
        return (
            sum(t * p[0] for t, p, _ in self.strategies),
            sum(t * p[1] for t, p, _ in self.strategies),
        )


@dataclass(frozen=True)
class OuterConfig:
    epsilon_cp: float = 1e-4

    def __post_init__(self):
        if not 0.0 < self.epsilon_cp < math.inf:
            raise ValueError("epsilon_cp must be finite and > 0")


@dataclass(frozen=True)
class CuttingPlaneResult:
    dual: DualPoint
    cuts: tuple[Cut, ...]
    lower: float
    upper: float
    status: str  # "converged" | "stalled" | "max-cuts"
    lower_history: tuple[float, ...] = ()  # relaxation value per iteration
    upper_history: tuple[float, ...] = ()  # running best dual bound

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def master_lp(
    cuts: list[Cut] | tuple[Cut, ...], budget: PowerBudget, profile: RateProfile
) -> LinearProgram:
    """Master LP over the variables (R, tau_1, ..., tau_L): maximize R
    subject to sum_i tau_i r_k,i >= rho_k R (rows 0, 1), sum_i tau_i
    p_k,i <= P_k (rows 2, 3) and sum_i tau_i = 1 (row 4), tau >= 0 and R
    free.  R comes first, so a new cut appends a variable."""
    if not cuts:
        raise ValueError("at least one cut is required")
    rho1, rho2 = profile.rho
    rows: list[tuple[np.ndarray, str, float]] = [
        (np.array([-rho1] + [c.rates.r1 for c in cuts]), GREATER, 0.0),
        (np.array([-rho2] + [c.rates.r2 for c in cuts]), GREATER, 0.0),
        (np.array([0.0] + [c.p[0] for c in cuts]), LESS, budget.p1),
        (np.array([0.0] + [c.p[1] for c in cuts]), LESS, budget.p2),
        (np.array([0.0] + [1.0] * len(cuts)), EQUAL, 1.0),
    ]
    objective = np.zeros(len(cuts) + 1)
    objective[0] = 1.0
    return LinearProgram(
        sense="max",
        objective=objective,
        rows=rows,
        lower=(-np.inf,) + (0.0,) * len(cuts),
    )


def _master_dual(y: np.ndarray) -> DualPoint:
    """(mu, lambda) from the master's row duals: mu_k is minus the dual
    of rate row k and lambda_k the dual of power row k, with rounding
    residue snapped to zero and negatives clamped."""
    v = np.array([-y[0], -y[1], y[2], y[3]])
    v[np.abs(v) <= DUAL_SNAP_TOL * max(1.0, float(np.abs(v).max()))] = 0.0
    return DualPoint(*[max(float(x), 0.0) for x in v])


def achieved_dual_value(
    ch: ChannelRealization, dual: DualPoint, budget: PowerBudget, cut: Cut
) -> float:
    """Dual objective evaluated with the cut's power vector plugged in."""
    return (
        dual.lambda1 * budget.p1
        + dual.lambda2 * budget.p2
        + dual.mu1 * cut.rates.r1
        + dual.mu2 * cut.rates.r2
        - dual.lambda1 * cut.p[0]
        - dual.lambda2 * cut.p[1]
    )


def _single_user_result(
    ch: ChannelRealization, budget: PowerBudget, user: int
) -> CuttingPlaneResult:
    """Closed-form endpoint solution when only one user carries rate weight."""
    g11, g12, g21, g22 = ch.gains
    if user == 1:
        g, n, power = g11, ch.noise1, budget.p1
        p = (power, 0.0)
    else:
        g, n, power = g22, ch.noise2, budget.p2
        p = (0.0, power)
    value = math.log1p(g * power / n) / _LN2
    lam = g / ((n + g * power) * _LN2) if power > 0.0 else g / (n * _LN2)
    dual = DualPoint(
        mu1=1.0 if user == 1 else 0.0,
        mu2=0.0 if user == 1 else 1.0,
        lambda1=lam if user == 1 else 0.0,
        lambda2=0.0 if user == 1 else lam,
    )
    cut = Cut(p=p, rates=rate_pair_proper(ch, p), origin="initial")
    return CuttingPlaneResult(
        dual=dual,
        cuts=(cut,),
        lower=value,
        upper=value,
        status="converged",
        lower_history=(value,),
        upper_history=(value,),
    )


def cutting_plane(
    ch: ChannelRealization,
    budget: PowerBudget,
    profile: RateProfile,
    cfg: OuterConfig = OuterConfig(),
    initial_cuts: tuple[Cut, ...] | list[Cut] | None = None,
) -> CuttingPlaneResult:
    """Iterate LP relaxation and certified inner maximization until the
    achieved dual values meet the relaxation lower bound.

    The cut list starts from the half-budget power vector and gains one
    generated point per iteration.  A generated point that duplicates an
    existing cut before convergence stalls the loop (reported in
    ``status`` rather than looping).  Profiles 0 and 1 short-circuit to
    the closed-form single-user solution, which avoids running the
    machinery on a degenerate weight normalization.

    ``initial_cuts`` seeds the relaxation with previously generated
    power vectors (cuts are valid for every profile); boundary sweeps
    use this to warm-start neighbouring profiles.
    """
    rho1, rho2 = profile.rho
    if rho2 == 0.0:
        return _single_user_result(ch, budget, user=1)
    if rho1 == 0.0:
        return _single_user_result(ch, budget, user=2)
    if (budget.p1 <= 0.0 and rho1 > 0.0) or (budget.p2 <= 0.0 and rho2 > 0.0):
        raise ValueError("budget must be positive for every user with positive weight")

    power_cap = 1e3 * max(budget.p1, budget.p2)
    p_init = (0.5 * budget.p1, 0.5 * budget.p2)
    cuts: list[Cut] = [Cut(p_init, rate_pair_proper(ch, p_init), "initial")]
    for cut in initial_cuts or ():
        if all(
            abs(cut.p[0] - c.p[0]) > DUPLICATE_CUT_TOL
            or abs(cut.p[1] - c.p[1]) > DUPLICATE_CUT_TOL
            for c in cuts
        ):
            cuts.append(cut)
    evaluated: list[tuple[float, DualPoint]] = []
    lower_history: list[float] = []
    upper_history: list[float] = []
    lower = -math.inf
    status = "max-cuts"
    basis = None
    for _ in range(MAX_CUTS):
        # the previous basis stays feasible: a new cut only appends a column
        sol = lp_solve(master_lp(cuts, budget, profile), start=basis)
        if sol.status != "optimal":
            raise RuntimeError(f"master LP reported {sol.status}")
        basis = sol.basis
        lower = float(sol.objective)
        dual = _master_dual(sol.dual)
        res = bnb_solve(ch, dual, power_cap)
        if not res.converged:
            raise RuntimeError(
                f"inner solver did not converge (gap {res.gap:.3e})"
            )
        p_new = res.p
        new_cut = Cut(p_new, rate_pair_proper(ch, p_new), "capped" if res.capped else "stationary")
        # the achieved value plus the oracle's gap bounds the dual function
        # from above, so ``upper`` stays a certificate
        evaluated.append((achieved_dual_value(ch, dual, budget, new_cut) + res.gap, dual))
        upper = min(v for v, _ in evaluated)
        lower_history.append(lower)
        upper_history.append(upper)
        duplicate = any(
            abs(p_new[0] - c.p[0]) <= DUPLICATE_CUT_TOL
            and abs(p_new[1] - c.p[1]) <= DUPLICATE_CUT_TOL
            for c in cuts
        )
        if upper - lower <= cfg.epsilon_cp:
            if not duplicate:
                cuts.append(new_cut)
            status = "converged"
            break
        if duplicate:
            status = "stalled"
            break
        cuts.append(new_cut)

    upper = min(v for v, _ in evaluated)
    dual_star = min(evaluated, key=lambda item: item[0])[1]
    return CuttingPlaneResult(
        dual=dual_star,
        cuts=tuple(cuts),
        lower=lower,
        upper=upper,
        status=status,
        lower_history=tuple(lower_history),
        upper_history=tuple(upper_history),
    )


def primal_recover(
    ch: ChannelRealization,
    cuts: tuple[Cut, ...] | list[Cut],
    budget: PowerBudget,
    profile: RateProfile,
) -> TimeSharingSolution:
    """Optimal time-sharing weights over the generated power vectors.

    Solves the master LP (:func:`master_lp`): max R subject to average
    rates at least rho_k * R, average powers within budget and weights
    on the simplex.  The LP has five rows, so its vertex solution
    activates at most four strategies; weights below 1e-9 are pruned.
    """
    cuts = list(cuts)
    if not cuts:
        raise ValueError("cannot recover a solution from an empty cut list")
    rho1, rho2 = profile.rho
    sol = lp_solve(master_lp(cuts, budget, profile))
    if sol.status != "optimal":
        raise RuntimeError(f"primal recovery LP reported {sol.status}")
    taus = sol.primal[1:]
    active = [(float(t), cut) for t, cut in zip(taus, cuts) if t > ACTIVE_TAU_TOL]
    if len(active) > MAX_ACTIVE_STRATEGIES:
        raise RuntimeError(
            f"{len(active)} active strategies exceed the guaranteed maximum of 4"
        )
    strategies = tuple((t, ct.p, ct.rates) for t, ct in active)
    rbar1 = sum(t * ct.rates.r1 for t, ct in active)
    rbar2 = sum(t * ct.rates.r2 for t, ct in active)
    values = []
    if rho1 > 0.0:
        values.append(rbar1 / rho1)
    if rho2 > 0.0:
        values.append(rbar2 / rho2)
    return TimeSharingSolution(strategies=strategies, R=min(values))


def ts_point(
    ch: ChannelRealization,
    budget: PowerBudget,
    profile: RateProfile,
    cfg: OuterConfig = OuterConfig(),
    initial_cuts: tuple[Cut, ...] | list[Cut] | None = None,
) -> tuple[TimeSharingSolution, CuttingPlaneResult]:
    """One point of the time-sharing boundary: run the cutting-plane loop
    and recover the primal mixture from its cuts."""
    cp = cutting_plane(ch, budget, profile, cfg, initial_cuts=initial_cuts)
    solution = primal_recover(ch, cp.cuts, budget, profile)
    if cp.converged and abs(cp.upper - solution.R) > 2.0 * cfg.epsilon_cp:
        raise RuntimeError(
            f"duality gap violation: recovered {solution.R}, dual bound {cp.upper}"
        )
    return solution, cp
