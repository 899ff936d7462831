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
over the accumulated cuts, again from the loop's last solution, whose
basis inverse carries over; its vertex structure activates at most four
strategies.

Before the loop, :func:`ts_point` tries one mixture in closed form.
Coded time-sharing averages powers as well as rates, so "TDMA", where
each user transmits alone for a share t_k of the time at power
P_k / t_k, is a feasible mixture; on many channels it is the optimum.
Its time share solves rho2 t C1(P1/t) = rho1 (1 - t) C2(P2/(1 - t))
with C_k(p) = log2(1 + g_kk p / n_k), and its KKT dual prices each
user's power at its marginal rate, lambda_k = mu_k C_k'(p_k), with mu
proportional to (a2, a1), a_k = C_k(p_k) - p_k C_k'(p_k), and
mu . rho = 1.  One oracle call at that dual bounds the optimum from
above; when the bound is not capped and lies within ``epsilon_cp`` of
the TDMA value, the mixture is returned without running the loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .inner import DualPoint
from .inner import stationary_solve as bnb_solve  # callers wrap outer.bnb_solve to trace it
from .lp import LpSolution, MasterLP, lp_solve
from .model import ChannelRealization, PowerBudget, RatePair, RateProfile, rate_pair_proper

_LN2 = math.log(2.0)

DUPLICATE_CUT_TOL = 1e-12
MAX_ACTIVE_STRATEGIES = 4
#: Master duals within this fraction of the largest (or of 1) are set
#: to exactly zero.  The basis solve leaves rounding residue such as
#: lambda2 = 5.8e-17 next to a positive mu2; the inner oracle reads a
#: price that small as a real one, builds a degenerate resultant and
#: raises.
DUAL_SNAP_TOL = 1e-12
#: Iterations after which the loop stops with status "max-cuts".
MAX_CUTS = 200
#: Smallest accepted ``epsilon_cp``.  The bounds are sums of rates of a
#: few bits, so a tolerance below their rounding cannot be met: at 1e-20
#: a sec6 profile ended in a duality-gap error, its recovered value and
#: dual bound 8.9e-16 apart.
EPSILON_CP_MIN = 1e-12

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
    origin: str  # "initial" | "stationary" | "capped" | "tdma"


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
        if not EPSILON_CP_MIN <= self.epsilon_cp < math.inf:
            raise ValueError(f"epsilon_cp must be finite and >= {EPSILON_CP_MIN:g}")


@dataclass(frozen=True)
class CuttingPlaneResult:
    dual: DualPoint
    cuts: tuple[Cut, ...]
    lower: float
    upper: float
    status: str  # "converged" | "stalled" | "max-cuts"
    lower_history: tuple[float, ...] = ()  # relaxation value per iteration
    upper_history: tuple[float, ...] = ()  # running best dual bound
    #: the last master solution, a warm start for the recovery over
    #: ``cuts`` (None for the closed-form endpoints and TDMA points)
    solution: LpSolution | None = field(default=None, compare=False, repr=False)

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    @property
    def gap(self) -> float:
        return self.upper - self.lower


def master_lp(
    cuts: list[Cut] | tuple[Cut, ...], budget: PowerBudget, profile: RateProfile
) -> MasterLP:
    """The master LP (:class:`~tinregions.lp.MasterLP`) over the cuts'
    proper rates and power vectors.  R comes first, so a new cut appends
    a column."""
    return MasterLP(
        [[c.rates.r1 for c in cuts], [c.rates.r2 for c in cuts]],
        [[c.p[0] for c in cuts], [c.p[1] for c in cuts]],
        (budget.p1, budget.p2),
        profile.rho,
    )


def _master_dual(y: np.ndarray) -> DualPoint:
    """(mu, lambda) from the master's row duals: mu_k is minus the dual
    of rate row k and lambda_k the dual of power row k, with rounding
    residue snapped to zero and negatives clamped."""
    v = [-float(y[0]), -float(y[1]), float(y[2]), float(y[3])]
    snap = DUAL_SNAP_TOL * max(1.0, *map(abs, v))
    return DualPoint(*[x if x > snap else 0.0 for x in v])


def achieved_dual_value(dual: DualPoint, budget: PowerBudget, cut: Cut) -> float:
    """Dual objective evaluated with the cut's power vector plugged in."""
    return (
        dual.lambda1 * budget.p1
        + dual.lambda2 * budget.p2
        + dual.mu1 * cut.rates.r1
        + dual.mu2 * cut.rates.r2
        - dual.lambda1 * cut.p[0]
        - dual.lambda2 * cut.p[1]
    )


def _duplicate(p: tuple[float, float], cuts: list[Cut]) -> bool:
    """Whether a cut lies within ``DUPLICATE_CUT_TOL`` of ``p`` in both
    powers."""
    x, y = p
    for cut in cuts:
        cx, cy = cut.p
        if abs(x - cx) <= DUPLICATE_CUT_TOL and abs(y - cy) <= DUPLICATE_CUT_TOL:
            return True
    return False


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


def _power_cap(budget: PowerBudget) -> float:
    """The oracle's power cap: the side of the box it searches when a
    price is zero, and the largest slot power a TDMA point may use."""
    return 1e3 * max(budget.p1, budget.p2)


def cutting_plane(
    ch: ChannelRealization,
    budget: PowerBudget,
    profile: RateProfile,
    cfg: OuterConfig = OuterConfig(),
    initial_cuts: tuple[Cut, ...] | list[Cut] | None = None,
) -> CuttingPlaneResult:
    """Iterate LP relaxation and certified inner maximization until the
    achieved dual values meet the relaxation lower bound.

    The cut list starts from the half-budget power vector, which lies
    within the budget and so gives every master its starting vertex,
    and gains one generated point per iteration.  A generated point
    that duplicates an existing cut before convergence stalls the loop
    (reported in ``status`` rather than looping).  Profiles 0 and 1
    short-circuit to the closed-form single-user solution, which avoids
    running the machinery on a degenerate weight normalization.

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

    power_cap = _power_cap(budget)
    p_init = (0.5 * budget.p1, 0.5 * budget.p2)
    cuts: list[Cut] = [Cut(p_init, rate_pair_proper(ch, p_init), "initial")]
    for cut in initial_cuts or ():
        if not _duplicate(cut.p, cuts):
            cuts.append(cut)
    evaluated: list[tuple[float, DualPoint]] = []
    lower_history: list[float] = []
    upper_history: list[float] = []
    lower = -math.inf
    status = "max-cuts"
    master = master_lp(cuts, budget, profile)
    sol = None
    for _ in range(MAX_CUTS):
        # the previous basis stays feasible, and its inverse stays valid:
        # a new cut only appends a column
        sol = lp_solve(master, start=sol)
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
        evaluated.append((achieved_dual_value(dual, budget, new_cut) + res.gap, dual))
        upper = min(v for v, _ in evaluated)
        lower_history.append(lower)
        upper_history.append(upper)
        duplicate = _duplicate(p_new, cuts)
        if upper - lower <= cfg.epsilon_cp:
            if not duplicate:
                cuts.append(new_cut)
            status = "converged"
            break
        if duplicate:
            status = "stalled"
            break
        cuts.append(new_cut)
        master = master.appended(new_cut.rates.r1, new_cut.rates.r2, *p_new)

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
        solution=sol,
    )


def primal_recover(
    ch: ChannelRealization,
    cuts: tuple[Cut, ...] | list[Cut],
    budget: PowerBudget,
    profile: RateProfile,
    start: LpSolution | None = None,
) -> TimeSharingSolution:
    """Optimal time-sharing weights over the generated power vectors.

    Solves the master LP (:func:`master_lp`): max R subject to average
    rates at least rho_k * R, average powers within budget and weights
    on the simplex.  The LP has five rows, so its vertex solution
    activates at most four strategies; every positive weight is kept,
    however small, since near an axis a tiny weight can carry all of
    one user's rate.  ``start`` is a solution of the master over a
    prefix of ``cuts``, such as ``CuttingPlaneResult.solution``; the
    simplex resumes from it and its basis inverse when it is still
    feasible (see :func:`~tinregions.lp.lp_solve`).
    """
    cuts = list(cuts)
    if not cuts:
        raise ValueError("cannot recover a solution from an empty cut list")
    rho1, rho2 = profile.rho
    sol = lp_solve(master_lp(cuts, budget, profile), start=start)
    taus = sol.primal[1:]
    active = [(float(t), cut) for t, cut in zip(taus, cuts) if t > 0.0]
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


def _tdma_share(ch: ChannelRealization, budget: PowerBudget, profile: RateProfile, power_cap):
    """Time share t of user 1 in the balanced TDMA mixture, or None when
    a slot power P1 / t or P2 / (1 - t) would exceed ``power_cap``.

    rho2 t C1(P1/t) - rho1 (1 - t) C2(P2/(1 - t)) rises with t (the
    perspective t C(P/t) of a concave C with C(0) = 0 rises), so its
    sign change is bisected down to adjacent floats inside the shares
    whose slot powers stay within the cap.
    """
    g11, _, _, g22 = ch.gains
    (rho1, rho2), (P1, P2) = profile.rho, (budget.p1, budget.p2)

    def excess(t):
        s = 1.0 - t
        return rho2 * t * math.log1p(g11 * P1 / (t * ch.noise1)) - rho1 * s * math.log1p(
            g22 * P2 / (s * ch.noise2)
        )

    lo, hi = P1 / power_cap, 1.0 - P2 / power_cap
    if not (lo < hi and excess(lo) < 0.0 < excess(hi)):
        return None
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid


def _slot_power(budget_k: float, share: float) -> float:
    """P_k / share, lowered by ulps until share times it stays within P_k."""
    p = budget_k / share
    while share * p > budget_k:
        p = math.nextafter(p, 0.0)
    return p


def _tdma_point(
    ch: ChannelRealization, budget: PowerBudget, profile: RateProfile, cfg: OuterConfig
) -> tuple[TimeSharingSolution, CuttingPlaneResult] | None:
    """The balanced TDMA mixture with its dual certificate, or None when
    it is not certified optimal to within ``epsilon_cp``.

    No certificate is tried at an endpoint profile, with a zero direct
    gain or budget, or when a slot power would exceed the loop's power
    cap.  Otherwise the oracle is called once at the TDMA point's KKT
    dual; its value plus the power bill and its gap is a dual bound, and
    the certificate is refused when the oracle raises, does not
    converge, is capped, or leaves that bound more than ``epsilon_cp``
    above the TDMA value.
    """
    g11, _, _, g22 = ch.gains
    (rho1, rho2), (P1, P2) = profile.rho, (budget.p1, budget.p2)
    if min(rho1, rho2, g11, g22, P1, P2) <= 0.0:
        return None
    power_cap = _power_cap(budget)
    t = _tdma_share(ch, budget, profile, power_cap)
    if t is None:
        return None
    s = 1.0 - t
    p1, p2 = _slot_power(P1, t), _slot_power(P2, s)
    cuts = (
        Cut((p1, 0.0), rate_pair_proper(ch, (p1, 0.0)), "tdma"),
        Cut((0.0, p2), rate_pair_proper(ch, (0.0, p2)), "tdma"),
    )
    solution = TimeSharingSolution(
        strategies=((t, cuts[0].p, cuts[0].rates), (s, cuts[1].p, cuts[1].rates)),
        R=min(t * cuts[0].rates.r1 / rho1, s * cuts[1].rates.r2 / rho2),
    )

    # the slope C_k'(p_k) and the tangent's intercept a_k of each slot
    d1 = g11 / ((ch.noise1 + g11 * p1) * _LN2)
    d2 = g22 / ((ch.noise2 + g22 * p2) * _LN2)
    a1 = cuts[0].rates.r1 - p1 * d1
    a2 = cuts[1].rates.r2 - p2 * d2
    scale = rho1 * a2 + rho2 * a1
    mu1, mu2 = a2 / scale, a1 / scale
    dual = DualPoint(mu1, mu2, mu1 * d1, mu2 * d2)
    try:
        res = bnb_solve(ch, dual, power_cap)
    except RuntimeError:
        return None
    if res.capped or not res.converged:
        return None
    best = Cut(res.p, rate_pair_proper(ch, res.p), "stationary")
    upper = achieved_dual_value(dual, budget, best) + res.gap
    if not upper - solution.R <= cfg.epsilon_cp:
        return None
    cp = CuttingPlaneResult(
        dual=dual,
        cuts=cuts,
        lower=solution.R,
        upper=upper,
        status="converged",
        lower_history=(solution.R,),
        upper_history=(upper,),
    )
    return solution, cp


def ts_point(
    ch: ChannelRealization,
    budget: PowerBudget,
    profile: RateProfile,
    cfg: OuterConfig = OuterConfig(),
    initial_cuts: tuple[Cut, ...] | list[Cut] | None = None,
) -> tuple[TimeSharingSolution, CuttingPlaneResult]:
    """One point of the time-sharing boundary.

    The balanced TDMA mixture is tried first (:func:`_tdma_point`): when
    one oracle call at its KKT dual certifies it to within
    ``epsilon_cp``, its two strategies (cut origin ``"tdma"``) are
    returned with that bound as ``upper``, and no LP is solved.  When
    the certificate is refused or not tried (endpoint profiles, a zero
    direct gain or budget, a slot power above the loop's cap), the
    cutting-plane loop runs from ``initial_cuts`` exactly as without it,
    and the primal mixture is recovered from its cuts."""
    found = _tdma_point(ch, budget, profile, cfg)
    if found is None:
        cp = cutting_plane(ch, budget, profile, cfg, initial_cuts=initial_cuts)
        solution = primal_recover(ch, cp.cuts, budget, profile, start=cp.solution)
    else:
        solution, cp = found
    if cp.converged and abs(cp.upper - solution.R) > 2.0 * cfg.epsilon_cp:
        raise RuntimeError(
            f"duality gap violation: recovered {solution.R}, dual bound {cp.upper}"
        )
    return solution, cp
