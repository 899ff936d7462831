"""Rate-region boundary constructions and verification harnesses.

Boundaries are traced by rate balancing: for a profile (beta, 1 - beta)
the boundary point maximizes the common scale R of the per-user rate
targets.  Four constructions are supported:

* ``pure-proper``     one proper strategy, balanced on a full-power edge;
* ``hull-proper``     convex hull of the pure-proper boundary;
* ``ts-proper``       coded time-sharing via the cutting-plane solver;
* ``hull-improper``   convex hull of sampled improper strategies.

Raising both powers by one factor raises both SINRs, so a Pareto-optimal
single strategy has some user at full power (Charafeddine, Sezgin &
Paulraj, Allerton 2007): the pure-proper search runs along the two
full-power edges only.

Proper signals suffice once time-sharing is coded.  With
s_k = c_k + kappa_k and d_k = c_k - kappa_k, the phase-free upper bound
on an improper strategy's rates is a two-slot proper mixture,

    upper_bound_rates(c, kappa) = 1/2 r(d1, s2) + 1/2 r(s1, d2),

with r the proper rates, and the two slots average to the powers c.  So
every improper time-sharing pair is dominated by a proper one at the
same average powers.  The harnesses at the bottom check, by seeded
random sampling, the facts this rests on: the phase-free rate upper
bound (tight on the magnitude-only channel with aligned pseudovariance
phases), and that no improper time-sharing mixture escapes the proper
time-sharing region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .lp import MasterLP, lp_solve
from .model import (
    TWO_PI,
    ChannelRealization,
    PowerBudget,
    RatePair,
    RateProfile,
    _improper_finish,
    _phase_weights,
    _user_terms,
    alignment_phases,
    enhance,
    improper_rates,
    proper_rates,
    rate_pair_proper,
    upper_bound_rates,
)
from .outer import CuttingPlaneResult, OuterConfig, TimeSharingSolution, ts_point

THEOREM1_TOL = 5e-3
LEMMA1_BOUND_TOL = 1e-12
LEMMA1_EQUALITY_TOL = 1e-9

SWEEP_METHODS = ("pure-proper", "hull-proper", "ts-proper", "hull-improper")

__all__ = [
    "SamplingConfig",
    "RegionConfig",
    "BoundaryEntry",
    "RegionBoundary",
    "ContainmentReport",
    "BoundCheckReport",
    "pure_proper_point",
    "pure_improper_samples",
    "pareto_staircase",
    "upper_right_hull",
    "sweep_boundary",
    "ts_sweep",
    "theorem1_check",
    "lemma1_check",
    "SWEEP_METHODS",
    "THEOREM1_TOL",
]


@dataclass(frozen=True)
class SamplingConfig:
    """Grid/random sampling sizes for improper-strategy exploration;
    the grid is evaluated at each of its ``phase_grid`` phase
    differences that no other one dominates, with the hull and
    staircase of the full grid (:func:`pure_improper_samples`)."""

    seed: int = 0
    power_grid: int = 41
    fraction_grid: int = 17
    phase_grid: int = 24
    random_count: int = 100_000

    def __post_init__(self):
        if min(self.power_grid, self.fraction_grid, self.phase_grid) < 2:
            raise ValueError("grid sizes must be >= 2")
        if self.random_count < 0:
            raise ValueError("random_count must be >= 0")


@dataclass(frozen=True)
class RegionConfig:
    outer: OuterConfig = field(default_factory=OuterConfig)
    sampling: SamplingConfig = field(default_factory=SamplingConfig)


@dataclass(frozen=True)
class BoundaryEntry:
    beta: float
    rates: RatePair
    R: float
    method: str
    status: str = "ok"
    dual_bound: float = math.nan  # ts method only


@dataclass(frozen=True)
class RegionBoundary:
    entries: tuple[BoundaryEntry, ...]
    method: str

    def rate_points(self) -> np.ndarray:
        return np.array([[e.rates.r1, e.rates.r2] for e in self.entries])


@dataclass(frozen=True)
class ContainmentReport:
    trials: int
    max_violation: float
    tolerance: float
    failures: int

    @property
    def passed(self) -> bool:
        return self.failures == 0


@dataclass(frozen=True)
class BoundCheckReport:
    trials: int
    max_bound_violation: float
    max_alignment_gap: float
    max_enhanced_mismatch: float

    @property
    def passed(self) -> bool:
        return (
            self.max_bound_violation <= LEMMA1_BOUND_TOL
            and self.max_alignment_gap <= LEMMA1_EQUALITY_TOL
            and self.max_enhanced_mismatch <= LEMMA1_BOUND_TOL
        )


def pure_proper_point(
    ch: ChannelRealization, budget: PowerBudget, profile: RateProfile
) -> tuple[float, tuple[float, float]]:
    """Best single proper strategy for a rate profile.

    Returns the balanced value R = min(r1/rho1, r2/rho2) and the power
    vector attaining it.  Some user is at full power in every
    Pareto-optimal single strategy (module docstring), so the search
    runs along the two full-power edges.  On the edge p_k = P_k,
    user k's rate falls and user j's rises with p_j, so
    rho_j r_k - rho_k r_j falls monotonically; the balanced value peaks
    at its sign change, bisected down to adjacent floats, or at the far
    end of the edge.  The better edge wins (the first on a tie).  A
    profile with a zero weight gets the other user's single-user
    intercept.
    """
    rho = profile.rho
    caps = (budget.p1, budget.p2)

    def on_edge(k: int, t: float) -> tuple[float, float]:
        return (caps[0], t) if k == 0 else (t, caps[1])

    def rates(p: tuple[float, float]) -> tuple[float, float]:
        r1, r2 = proper_rates(ch, *p)
        return float(r1), float(r2)

    if rho[1] == 0.0:
        p = on_edge(0, 0.0)
        return rates(p)[0], p
    if rho[0] == 0.0:
        p = on_edge(1, 0.0)
        return rates(p)[1], p
    best = (-math.inf, on_edge(0, 0.0))
    for k, j in ((0, 1), (1, 0)):

        def falls(t: float) -> float:
            r = rates(on_edge(k, t))
            return rho[j] * r[k] - rho[k] * r[j]

        lo, hi = 0.0, caps[j]  # falls(0) >= 0: user j is silent there
        if falls(hi) >= 0.0:
            lo = hi
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            if falls(mid) >= 0.0:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
        for t in (lo, hi):
            r = rates(on_edge(k, t))
            R = min(r[0] / rho[0], r[1] / rho[1])
            if R > best[0]:
                best = (R, on_edge(k, t))
    return best


#: Rows per block of the passes over the improper samples: the sampler
#: walks user 1's powers in chunks of as many as fit in a block (one at
#: least), and the hull prefilter and the staircase read the cloud block
#: by block, so that a block and its temporaries stay in cache.
_BLOCK = 1 << 13


def _blocks(n: int):
    """Consecutive slices covering ``range(n)``, each of ``_BLOCK`` rows
    but the last.  A lone trailing row joins the block before it,
    because ``np.dot`` takes another kernel, with other rounding, for a
    single row."""
    start = 0
    while start < n:
        stop = start + _BLOCK
        if stop + 1 >= n:
            stop = n
        yield slice(start, stop)
        start = stop


def pure_improper_samples(
    ch: ChannelRealization, budget: PowerBudget, sampling: SamplingConfig = SamplingConfig()
) -> np.ndarray:
    """Rate pairs of gridded plus randomly sampled single strategies.

    The grid spans powers up to the per-user caps, impropriety fractions
    kappa/c in [0, 1] and the pseudovariance phase difference (rates
    depend on the phases only through the difference).  User k's rate
    1/2 log2(P_k w_k + K_k), P_k >= 0, rises with its phase weight w_k
    (or ignores it, where P_k = 0 as a gain is zero), so a phase whose
    weights another one matches or beats adds only points that phase's
    weakly dominate.  The grid is evaluated at the other phases (the
    first of equal pairs), and the upper-right hull and the Pareto
    staircase are the full grid's, bit for bit.  Returns every evaluated
    pair as an (N, 2) array, deterministic for a fixed seed: the grid at
    each kept phase difference in turn, then the random strategies.  The
    grid is walked in chunks of as many of user 1's powers as fit in
    ``_BLOCK`` points, one at least.  Both users' (K, P) are computed on
    the grid axes broadcast in row order (c1, c2, f1, f2), each
    intermediate at the shape of the axes it depends on, and finished at
    every kept phase straight into the result, the only grid-length array.
    """
    c1 = np.linspace(0.0, budget.p1, sampling.power_grid)
    c2 = np.linspace(0.0, budget.p2, sampling.power_grid)
    frac = np.linspace(0.0, 1.0, sampling.fraction_grid)
    psis = np.linspace(0.0, TWO_PI, sampling.phase_grid, endpoint=False)
    # user 1 transmits at the phase difference, user 2 at phase 0
    weights = [_phase_weights(ch, psi, 0.0) for psi in psis]
    # a user with a zero gain has P = 0, so its rate ignores the weight
    g11, g12, g21, g22 = ch.gains
    keys = [(w1 if min(g11, g12) else 0.0, w2 if min(g22, g21) else 0.0) for w1, w2 in weights]
    # rates rise with the weights: keep the phases no other one matches
    # or beats in both weights, and the first of equal pairs
    weights = [w for i, (w, a) in enumerate(zip(weights, keys)) if not any(
        b[0] >= a[0] and b[1] >= a[1] and (b != a or j < i) for j, b in enumerate(keys))]
    per_c1 = len(c2) * len(frac) ** 2  # grid rows per power of user 1
    step = max(1, _BLOCK // per_c1)
    n = len(c1) * per_c1
    out = np.empty((n * len(weights) + sampling.random_count, 2))
    grid = out[: n * len(weights)].reshape(len(weights), n, 2)
    # a full-shape weight array keeps the product's loop long
    tiles = [np.tile(w, (step * per_c1, 1)) for w in weights]
    C2 = c2[:, None, None]
    for s in range(0, len(c1), step):
        C1 = c1[s : s + step, None, None, None]
        terms = zip(*_user_terms(ch, C1, C2, frac[:, None] * C1, frac * C2))
        K, P = (np.column_stack((t1.ravel(), t2.ravel())) for t1, t2 in terms)
        for rows, w in zip(grid[:, s * per_c1 : s * per_c1 + len(K)], tiles):
            _improper_finish(K, P, w[: len(K)], out=rows)
    if sampling.random_count > 0:
        rng = np.random.default_rng(sampling.seed)
        m = sampling.random_count
        rc1 = rng.uniform(0.0, budget.p1, m)
        rc2 = rng.uniform(0.0, budget.p2, m)
        rk1 = rng.uniform(0.0, 1.0, m) * rc1
        rk2 = rng.uniform(0.0, 1.0, m) * rc2
        rpsi = rng.uniform(0.0, TWO_PI, m)
        out[-m:, 0], out[-m:, 1] = improper_rates(ch, rc1, rc2, rk1, rk2, rpsi, 0.0)
    return out


#: Weights w of the directions w*r1 + (1 - w)*r2 whose maximizers span
#: the support polyline of the hull prefilter.
HULL_SUPPORT_WEIGHTS = tuple(float(w) for w in np.linspace(0.0, 1.0, 9))


def _drop_interior(pts: np.ndarray) -> np.ndarray:
    """The points of a cloud that are not strictly below its support
    polyline; ``ValueError`` unless every value is finite and >= 0.

    The support points maximize w*r1 + (1 - w)*r2 over the cloud (the
    first such point on ties), and the polyline joins them in r1 order,
    extended left at the height of the r2 maximizer.  Every chord joins
    two points of the cloud (or a point and its axis projection), so a
    point strictly below the polyline lies strictly inside the hull or
    is dominated by an intercept, and is never a vertex of the Pareto
    face.  Points on a chord, to within ``tol``, are kept, and so are
    the support points, among them a largest r1 and a largest r2 of the
    cloud.  This is the throw-away heuristic of Akl & Toussaint (Inf.
    Process. Lett. 1978).

    Two passes walk the cloud in blocks of ``_BLOCK`` rows.  The first
    checks the values and finds the support points, with the values of
    all nine directions as one (9, 2) x (2, m) product per block.  The
    second keeps the points on or above the polyline, as ``np.interp``
    evaluates it, less ``tol``.  Before that test, one dot product per
    block measures each point against the chord from (0, ys[0]) to
    (xs[-1], ys[-1]): only the points above it or less than ``2 tol``
    below it are gathered for ``np.interp``, and a block without any is
    skipped.  The kept set is that of the interpolation test alone:

    * every point has r1 in [0, xs[-1]], since xs[-1] is the largest r1;
    * polyline minus chord is piecewise linear there, with its breaks at
      0 (where it is 0) and at the support points, so it is least at
      one of them, ``g`` <= 0 (and 0 when the polyline is concave, as
      it is up to rounding);
    * so a point more than ``2 tol - g`` below the chord is more than
      ``2 tol`` below the polyline.  Each test rounds by a few ulps of
      ``max(xs[-1], ys.max(), 1)``, and ``tol`` is 64 of them, so
      ``np.interp`` too finds the point more than ``tol`` below and
      drops it.

    Without a chord (the largest r1 is 0, or the slope overflows) every
    point goes to ``np.interp``.  Apart from the result, only
    block-sized arrays are allocated.
    """
    dirs = np.array([(w, 1.0 - w) for w in HULL_SUPPORT_WEIGHTS])
    best = np.full(len(dirs), -math.inf)
    where = np.zeros(len(dirs), dtype=np.intp)
    buf = np.empty(len(dirs) * (_BLOCK + 1))
    for s in _blocks(len(pts)):
        block = pts[s]
        if not (block.min() >= 0.0 and block.max() < math.inf):  # false on NaN
            raise ValueError("points must be finite and >= 0")
        v = np.matmul(dirs, block.T, out=buf[: len(dirs) * len(block)].reshape(len(dirs), -1))
        i = v.argmax(axis=1)  # the first maximizer in the block
        peak = v[np.arange(len(dirs)), i]
        better = peak > best  # strict: an earlier block wins a tie
        best[better] = peak[better]
        where[better] = s.start + i[better]
    top: dict[float, float] = {}
    for i in where.tolist():
        x, y = float(pts[i, 0]), float(pts[i, 1])
        top[x] = max(y, top.get(x, y))  # equal support points collapse
    xs = np.array(sorted(top))
    ys = np.array([top[x] for x in xs])
    tol = 64.0 * np.finfo(float).eps * max(xs[-1], max(top.values()), 1.0)
    # r2 + slope * r1 = y0 on the chord from (0, y0) to (X, ys[-1])
    X, y0 = float(xs[-1]), float(ys[0])
    slope = (y0 - float(ys[-1])) / X if X > 0.0 else math.inf
    if math.isfinite(slope):
        g = min(0.0, *(y + slope * x - y0 for x, y in top.items()))
        cut = y0 + g - 2.0 * tol
    else:  # no chord: every point goes to the interpolation test
        slope, cut = 0.0, -math.inf
    normal = np.array((slope, 1.0))
    kept = []
    for s in _blocks(len(pts)):
        block = pts[s]
        near = np.dot(block, normal, out=buf[: len(block)]) >= cut
        if not near.any():
            continue
        # np.compress gathers rows several times faster than a boolean index
        block = np.compress(near, block, axis=0)
        chain = np.interp(block[:, 0], xs, ys)
        chain -= tol
        kept.append(np.compress(block[:, 1] >= chain, block, axis=0))
    return np.concatenate(kept)


def _sorted_staircase(points: np.ndarray) -> np.ndarray:
    """:func:`pareto_staircase` by one sort of the whole cloud."""
    order = np.lexsort((-points[:, 1], -points[:, 0]))
    s = points[order]
    running = np.maximum.accumulate(s[:, 1])
    keep = np.empty(len(s), dtype=bool)
    keep[0] = True
    keep[1:] = s[1:, 1] > running[:-1]
    return s[keep]


def pareto_staircase(points: np.ndarray) -> np.ndarray:
    """The points of an (n, 2) cloud that no other point dominates, by
    r1 descending; of equal-r1 points only the highest is kept.

    The cloud is read in blocks of ``_BLOCK`` rows against the running
    staircase: a point no higher than the step at or right of it (the
    staircase point of least r1 >= its own) is dominated or a duplicate,
    and one ``searchsorted`` per block finds every point's step.  The
    survivors wait until they outnumber the staircase, which is then
    rebuilt by one sort of both, so a cloud that is all staircase costs
    O(n log n) and not a sort per block.  Dominance is transitive, so
    every dropped point is dominated by, or equal to, a point of the
    final staircase, which is thus the staircase of the whole cloud,
    bitwise as one sort of it gives.  Apart from the result, only block-
    and staircase-sized arrays are allocated.
    """
    stair = points[:0]  # r1 descending, r2 ascending
    steps_x = np.empty(0)  # r1 ascending
    steps_y = np.array((-math.inf,))  # r2 descending, then past the last step
    waiting: list[np.ndarray] = []
    count = 0
    for s in _blocks(len(points)):
        block = points[s]
        step = steps_y[np.searchsorted(steps_x, block[:, 0])]
        new = block[block[:, 1] > step]
        waiting.append(new)
        count += len(new)
        if count > len(stair):
            stair = _sorted_staircase(np.concatenate([stair, *waiting]))
            steps_x = stair[::-1, 0].copy()
            steps_y = np.append(stair[::-1, 1], -math.inf)
            waiting, count = [], 0
    if count:
        stair = _sorted_staircase(np.concatenate([stair, *waiting]))
    return stair


def upper_right_hull(points) -> np.ndarray:
    """Vertices of the Pareto face of the convex hull of a point cloud.

    The cloud is augmented with its axis projections (max_r1, 0) and
    (0, max_r2) so the face spans both intercepts; output vertices are
    sorted by r1 descending and every input point lies on or below the
    piecewise-linear boundary they define.  Points strictly below a
    polyline of support points are dropped first (:func:`_drop_interior`,
    two passes over the cloud), which leaves the output unchanged and
    the staircase small.  ``ValueError`` on an empty cloud or on a value
    that is not finite and >= 0.
    """
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    if pts.size == 0:
        raise ValueError("empty point set")
    pts = _drop_interior(pts)  # keeps a largest r1 and a largest r2
    r1max = float(pts[:, 0].max())
    r2max = float(pts[:, 1].max())
    aug = np.vstack([pts, [[r1max, 0.0], [0.0, r2max]]])
    cand = pareto_staircase(aug)[::-1]  # r1 ascending, r2 descending
    stack: list[tuple[float, float]] = []
    for qx, qy in cand:
        while len(stack) >= 2:
            ax, ay = stack[-2]
            bx, by = stack[-1]
            if (bx - ax) * (qy - by) - (by - ay) * (qx - bx) >= 0.0:
                stack.pop()
            else:
                break
        stack.append((float(qx), float(qy)))
    return np.array(stack[::-1])


def _profile_value(hull_desc: np.ndarray, rho: tuple[float, float]) -> float:
    """Balanced-rate value of a hull region along a profile ray.

    ``hull_desc`` is an :func:`upper_right_hull` polyline, padded here
    with its axis projections.  Each edge from a to b (r1 descending) has
    outward normal n = (b2 - a2, a1 - b1) >= 0, and the ray
    R*rho leaves the region at the least (n . a) / (n . rho) over the
    edges with n . rho > 0.  A one-sided profile gets the intercept
    itself; a hull of the origin alone gives 0.
    """
    rho1, rho2 = rho
    if rho1 == 0.0:
        return float(hull_desc[-1, 1])
    if rho2 == 0.0:
        return float(hull_desc[0, 0])
    v = np.vstack([[hull_desc[0, 0], 0.0], hull_desc, [0.0, hull_desc[-1, 1]]])
    a, b = v[:-1], v[1:]
    n = np.column_stack((b[:, 1] - a[:, 1], a[:, 0] - b[:, 0]))
    along = n @ np.array((rho1, rho2))
    out = along > 0.0
    if not out.any():
        return 0.0
    return float(np.min(np.sum(n[out] * a[out], axis=1) / along[out]))


def boundary_violation(point, boundary_points: np.ndarray):
    """Signed amount by which a rate pair escapes a boundary polyline.

    Positive values mean the point lies outside (above/right of) the
    piecewise-linear boundary; values <= 0 mean containment.  ``point``
    is one rate pair or an (n, 2) array of them, giving n amounts.
    """
    pts = np.asarray(boundary_points, dtype=float)[::-1]
    order = np.argsort(pts[:, 0], kind="stable")
    xs, ys = pts[order, 0], pts[order, 1]
    q = np.asarray(point, dtype=float)
    x, y = q[..., 0], q[..., 1]
    r1max = xs[-1]
    return np.maximum(x - r1max, y - np.interp(np.minimum(x, r1max), xs, ys))


def ts_sweep(
    ch: ChannelRealization,
    budget: PowerBudget,
    betas,
    cfg: RegionConfig = RegionConfig(),
) -> list[tuple[float, TimeSharingSolution, CuttingPlaneResult]]:
    """Time-sharing solutions across profiles, warm-starting each profile
    with cuts from its neighbours (generated power vectors are valid
    cuts for every profile).  The pool keeps the active strategies plus
    the freshest cuts, capped so the master LP keeps few columns over a
    long sweep.  A profile certified at its TDMA point runs no loop, so
    its two strategies go in front of the pool it was handed."""
    out = []
    pool: tuple = ()
    for beta in betas:
        beta = float(beta)
        solution, cp = ts_point(ch, budget, RateProfile(beta), cfg.outer, initial_cuts=pool)
        if 0.0 < beta < 1.0:
            active_p = {p for _, p, _ in solution.strategies}
            active = tuple(c for c in cp.cuts if c.p in active_p)
            fresh = pool if cp.cuts[0].origin == "tdma" else cp.cuts[-28:]
            recent = tuple(c for c in fresh if c.p not in active_p)
            pool = (active + recent)[:32]
        out.append((beta, solution, cp))
    return out


def sweep_boundary(
    method: str,
    ch: ChannelRealization,
    budget: PowerBudget,
    betas,
    cfg: RegionConfig = RegionConfig(),
) -> RegionBoundary:
    """Trace one construction's boundary over a grid of profiles."""
    betas = [float(b) for b in betas]
    if not betas:
        raise ValueError("betas must be nonempty")
    if any(not 0.0 <= b <= 1.0 for b in betas):
        raise ValueError("betas must lie in [0, 1]")
    entries: list[BoundaryEntry] = []
    if method == "pure-proper":
        for beta in betas:
            R, p = pure_proper_point(ch, budget, RateProfile(beta))
            entries.append(BoundaryEntry(beta, rate_pair_proper(ch, p), R, method))
    elif method == "ts-proper":
        for beta, solution, cp in ts_sweep(ch, budget, betas, cfg):
            entries.append(
                BoundaryEntry(
                    beta,
                    solution.average_rates(),
                    solution.R,
                    method,
                    status="ok" if cp.converged else cp.status,
                    dual_bound=cp.upper,
                )
            )
    elif method in ("hull-proper", "hull-improper"):
        if method == "hull-proper":
            points = sweep_boundary("pure-proper", ch, budget, betas, cfg).rate_points()
        else:
            points = pure_improper_samples(ch, budget, cfg.sampling)
        hull = upper_right_hull(points)
        for beta in betas:
            rho = RateProfile(beta).rho
            R = _profile_value(hull, rho)
            entries.append(BoundaryEntry(beta, RatePair(R * rho[0], R * rho[1]), R, method))
    else:
        raise ValueError(f"unknown sweep method {method!r}; expected one of {SWEEP_METHODS}")
    return RegionBoundary(tuple(entries), method)


def theorem1_check(
    ch: ChannelRealization,
    budget: PowerBudget,
    cfg: RegionConfig = RegionConfig(),
    trials: int = 1000,
    *,
    boundary: RegionBoundary | None = None,
    beta_grid: int = 101,
    impropriety: tuple[float, float] = (0.0, 1.0),
) -> ContainmentReport:
    """Attempt to escape the proper time-sharing region with random
    improper time-sharing candidates.

    Each trial draws up to four improper strategies (per-slot powers may
    exceed the budget; the first slot stays within it, so it is the
    master's starting vertex) and a random profile.  The check runs in
    three passes.  It first draws every trial's candidate, one trial
    after another, with two generator calls: ``integers(1, 5)`` for the
    strategy count L, then one block of 6 L + 1 uniform draws u in
    [0, 1), laid out as c1[0], c2[0], c1[1:], c2[1:], the L impropriety
    fractions of user 1 and the L of user 2, the L phases of user 1 and
    the L of user 2, and the profile's beta.  After the loop each draw
    becomes low + (high - low) u over the whole batch, which is the
    arithmetic of ``Generator.uniform``: powers on [0, P_k] for slot 0
    and on [0, 2 P_k] for the others, fractions on [lo, hi] (then
    kappa_k = fraction c_k), phases on [0, 2 pi) and beta on [0, 1).
    So every value is bitwise what drawing each quantity in that order
    with ``uniform`` gives.  It then evaluates all the strategies with one
    :func:`~tinregions.model.improper_rates` call (it is elementwise, so
    each rate is bitwise what a call per trial gives), and finally
    optimizes each trial's time-sharing weights for its profile with
    the master LP of the cutting-plane loop
    (:class:`~tinregions.lp.MasterLP`), one master per trial with two or
    more strategies.  A trial with one strategy spends all its time on
    it (the master could only return tau = 1), so its rates are its
    average and it builds no master.
    :func:`boundary_violation` then measures, for all trials at once,
    how far each averaged rate pair lands outside the interpolated
    proper time-sharing boundary.  Any violation beyond the tolerance
    would disprove the propriety claim; the report counts them.
    ``ValueError`` if ``trials < 1``, if ``beta_grid < 2`` (a single
    profile cannot describe a boundary), or unless the impropriety
    fractions (lo, hi) satisfy 0 <= lo <= hi <= 1, so that every drawn
    strategy has 0 <= kappa_k <= c_k.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if beta_grid < 2:
        raise ValueError("beta_grid must be >= 2")
    lo_f, hi_f = impropriety
    if not 0.0 <= lo_f <= hi_f <= 1.0:  # false on NaN
        raise ValueError("impropriety must satisfy 0 <= lo <= hi <= 1")
    if boundary is None:
        boundary = sweep_boundary(
            "ts-proper", ch, budget, np.linspace(0.0, 1.0, beta_grid), cfg
        )
    rng = np.random.default_rng(cfg.sampling.seed)
    sizes = []
    blocks = []
    for _ in range(trials):
        L = int(rng.integers(1, 5))
        sizes.append(L)
        blocks.append(rng.random(6 * L + 1))
    u = np.concatenate(blocks)
    n = np.array(sizes)
    first = np.cumsum(n) - n  # each trial's first strategy
    block = 6 * first + np.arange(trials)  # and its first draw
    trial = np.repeat(np.arange(trials), n)
    size = n[trial]  # each strategy's L
    j = np.arange(trial.size) - first[trial]  # and its slot
    at = block[trial] + j
    head = j == 0
    reach = np.where(head, 1.0, 2.0)  # slot 0 within the budget, the others twice it
    c1 = _uniform(u[np.where(head, at, at + 1)], 0.0, reach * budget.p1)
    c2 = _uniform(u[np.where(head, at + 1, at + size)], 0.0, reach * budget.p2)
    k1 = _uniform(u[at + 2 * size], lo_f, hi_f) * c1
    k2 = _uniform(u[at + 3 * size], lo_f, hi_f) * c2
    ph1 = _uniform(u[at + 4 * size], 0.0, TWO_PI)
    ph2 = _uniform(u[at + 5 * size], 0.0, TWO_PI)
    betas = _uniform(u[block + 6 * n], 0.0, 1.0)
    r1, r2 = improper_rates(ch, c1, c2, k1, k2, ph1, ph2)
    averages = np.empty((trials, 2))
    for t, (L, start, beta) in enumerate(zip(sizes, first.tolist(), betas.tolist())):
        if L == 1:  # all time on the one strategy: no master
            averages[t] = r1[start], r2[start]
            continue
        s = slice(start, start + L)
        master = MasterLP(
            (r1[s], r2[s]), (c1[s], c2[s]), (budget.p1, budget.p2), (beta, 1.0 - beta)
        )
        taus = lp_solve(master).primal[1:]
        averages[t] = taus @ r1[s], taus @ r2[s]
    v = boundary_violation(averages, boundary.rate_points())
    return ContainmentReport(
        trials=trials,
        max_violation=float(v.max()),
        tolerance=THEOREM1_TOL,
        failures=int(np.count_nonzero(v > THEOREM1_TOL)),
    )


def _uniform(u, low, high):
    """``Generator.uniform``'s arithmetic on ``Generator.random`` draws u."""
    return low + (high - low) * u


def lemma1_check(
    ch: ChannelRealization, cfg: RegionConfig = RegionConfig(), trials: int = 100_000
) -> BoundCheckReport:
    """Randomized check of the phase-free rate upper bound.

    Verifies on seeded random strategies that (i) the bound dominates
    the achievable rates on the original channel, (ii) it is met with
    equality for both users on the magnitude-only channel once the
    pseudovariance phase difference is aligned, and (iii) the bound is
    identical on the original and magnitude-only channels.  Powers span
    four decades and the impropriety fraction pins the proper and
    maximally improper endpoints with positive probability.
    ``ValueError`` if ``trials < 1``.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(cfg.sampling.seed)
    c1 = 10.0 ** rng.uniform(-2.0, 2.0, trials)
    c2 = 10.0 ** rng.uniform(-2.0, 2.0, trials)

    def fractions(n):
        f = rng.uniform(0.0, 1.0, n)
        pin = rng.integers(0, 10, n)
        f[pin == 0] = 0.0
        f[pin == 9] = 1.0
        return f

    k1 = fractions(trials) * c1
    k2 = fractions(trials) * c2
    ph1 = rng.uniform(0.0, TWO_PI, trials)
    ph2 = rng.uniform(0.0, TWO_PI, trials)

    r1, r2 = improper_rates(ch, c1, c2, k1, k2, ph1, ph2)
    u1, u2 = upper_bound_rates(ch, c1, c2, k1, k2)
    max_bound_violation = float(max(np.max(r1 - u1), np.max(r2 - u2)))

    ench = enhance(ch)
    offsets = alignment_phases(ench)
    ph2e = rng.uniform(0.0, TWO_PI, trials)
    ph1e = ph2e + offsets.psi1
    re1, re2 = improper_rates(ench, c1, c2, k1, k2, ph1e, ph2e)
    ue1, ue2 = upper_bound_rates(ench, c1, c2, k1, k2)
    max_alignment_gap = float(max(np.max(np.abs(re1 - ue1)), np.max(np.abs(re2 - ue2))))
    max_enhanced_mismatch = float(max(np.max(np.abs(u1 - ue1)), np.max(np.abs(u2 - ue2))))

    return BoundCheckReport(
        trials=trials,
        max_bound_violation=max_bound_violation,
        max_alignment_gap=max_alignment_gap,
        max_enhanced_mismatch=max_enhanced_mismatch,
    )
