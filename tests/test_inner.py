import dataclasses
import heapq
import math
import struct

import mpmath
import numpy as np
import pytest

from perfbench.workloads import family
from tinregions import (
    ChannelRealization,
    DualPoint,
    InnerResult,
    OuterConfig,
    PowerBudget,
    RateProfile,
    inner_objective,
    proper_rates,
    stationary_solve,
    ts_point,
)
from tinregions import inner, outer, regions
from tinregions.inner import LAMBDA_FLOOR, _f, _params, _single_user_max

LN2 = math.log(2.0)


# ---------------------------------------------- branch-and-bound reference
#
# Certified monotonic branch and bound: the reference the stationary-point
# oracle is gated against.  The objective splits into a part that is
# nondecreasing in the own-signal powers and a part that is nonincreasing
# in the interference and price powers, so axis-aligned boxes admit cheap
# upper and lower bounds, and refining the box with the best upper bound
# certifies a value within ``epsilon`` of the global maximum.  The initial
# box comes from the interference-free envelope of the objective, which is
# concave per user and eventually negative when both prices are positive.


def _term_max(g, n_eff, mu, lam, lo, hi):
    """Max of mu*log2(1 + g*q/n_eff) - lam*q over q in [lo, hi] (concave)."""
    if mu == 0.0:
        return -lam * lo
    if lam == 0.0:
        q = hi
    else:
        q = mu / (lam * LN2) - n_eff / g
        q = lo if q < lo else (hi if q > hi else q)
    return mu * math.log1p(g * q / n_eff) / LN2 - lam * q


def _tight_upper(par, a1, a2, b1, b2):
    """Per-user concave maxima with interference frozen at the box bottom.

    Valid upper bound on the objective over the box (interference at the
    bottom only enlarges each user's term), never looser than the plain
    utopia bound, and exact in the own-power coordinates.
    """
    g11, g12, g21, g22, n1, n2, mu1, mu2, l1, l2 = par
    return _term_max(g11, n1 + g12 * a2, mu1, l1, a1, b1) + _term_max(
        g22, n2 + g21 * a1, mu2, l2, a2, b2
    )


def _descending_root(fun, lo, hi, rel_tol=1e-9):
    """Root of a function that is >= 0 at ``lo`` and decreasing beyond it."""
    for _ in range(400):
        if fun(hi) <= 0.0:
            break
        lo = hi
        hi *= 2.0
    else:
        raise RuntimeError("no sign change found while bracketing the root")
    while hi - lo > rel_tol * max(1.0, hi):
        mid = 0.5 * (lo + hi)
        if fun(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def init_box(ch, dual, power_cap=1e4):
    """Upper corner of a box [0, corner] certified to contain the
    maximizer of the inner objective, and whether it is capped.

    Per user the interference-free envelope ``fhat_k`` is concave with a
    closed-form peak; beyond the root of ``fhat_k(p) + max fhat_j = 0``
    the whole objective is nonpositive, so the maximizer lies in
    ``[0, p0]``.  When some user has ``mu_k > 0`` but an effectively
    zero power price the objective is unbounded above; the corner is
    then ``(power_cap, power_cap)`` and the second element is True.
    """
    g11, g12, g21, g22 = ch.gains
    users = (
        (g11, ch.noise1, dual.mu1, dual.lambda1),
        (g22, ch.noise2, dual.mu2, dual.lambda2),
    )
    for _, _, mu, lam in users:
        if mu > 0.0 and lam <= LAMBDA_FLOOR:
            return (power_cap, power_cap), True

    peaks = [_single_user_max(g, n, mu, lam) for g, n, mu, lam in users]
    p0 = []
    for k in range(2):
        g, n, mu, lam = users[k]
        fmax_other = peaks[1 - k][1]
        if mu > 0.0:
            p_hat = peaks[k][0]

            def decay(p, g=g, n=n, mu=mu, lam=lam, off=fmax_other):
                return mu * math.log1p(g * p / n) / LN2 - lam * p + off

            p0.append(_descending_root(decay, p_hat, 2.0 * p_hat + 1.0))
        elif lam > 0.0:
            p0.append(fmax_other / lam)
        else:
            # no rate weight and no price: raising p_k only adds interference
            p0.append(0.0)
    return (p0[0], p0[1]), False


def bnb_solve(ch, dual, power_cap=1e4, epsilon=1e-6, max_iterations=200_000):
    """Maximize the inner objective to within ``epsilon``, certified.

    Keeps a max-priority set of live boxes ordered by upper bound (ties
    broken by insertion order), splitting the top box until the spread
    between the best upper bound and the best achieved value is at most
    ``epsilon``.  The internal upper bound sharpens the plain utopia
    bound by maximizing each user's concave own-power term in closed
    form, which cuts the box count by orders of magnitude while
    certifying the same guarantee.  If the iteration budget runs out
    first, the incumbent is returned with its larger certified gap and
    ``converged=False``.
    """
    (b1, b2), capped = init_box(ch, dual, power_cap)
    par = _params(ch, dual)
    a1, a2 = 0.0, 0.0
    best_val = _f(par, a1, a2)
    best_p = (a1, a2)
    heap = [(-_tight_upper(par, a1, a2, b1, b2), 0, a1, a2, b1, b2)]
    counter = 1
    iterations = 0
    gap = -heap[0][0] - best_val
    converged = gap <= epsilon
    while not converged and iterations < max_iterations:
        iterations += 1
        _, _, a1, a2, b1, b2 = heapq.heappop(heap)
        w1, w2 = b1 - a1, b2 - a2
        if w1 >= w2:
            m = 0.5 * (a1 + b1)
            children = ((a1, a2, m, b2), (m, a2, b1, b2)) if a1 < m < b1 else ()
        else:
            m = 0.5 * (a2 + b2)
            children = ((a1, a2, b1, m), (a1, m, b1, b2)) if a2 < m < b2 else ()
        # an unsplittable box is at float resolution: its bound is tight,
        # so dropping it cannot hide a better point
        for ca1, ca2, cb1, cb2 in children:
            val = _f(par, ca1, ca2)
            if val > best_val:
                best_val = val
                best_p = (ca1, ca2)
            heapq.heappush(
                heap,
                (-_tight_upper(par, ca1, ca2, cb1, cb2), counter, ca1, ca2, cb1, cb2),
            )
            counter += 1
        if not heap:
            gap = 0.0
            converged = True
            break
        gap = -heap[0][0] - best_val
        converged = gap <= epsilon
    return InnerResult(
        p=best_p,
        value=best_val,
        gap=max(gap, 0.0),
        iterations=iterations,
        converged=converged,
        capped=capped,
    )


def box_bounds(ch, dual, a, b):
    """The reference's upper bound and achieved value on the box [a, b]."""
    par = _params(ch, dual)
    return _tight_upper(par, a[0], a[1], b[0], b[1]), _f(par, a[0], a[1])


# ----------------------------------------------- gradient numerator reference
#
# The gradient numerators built by multiplying out their factors: the
# reference for the closed-form coefficients of inner._gradient_numerators.


def _affine(c0, c1, c2):
    """Bivariate polynomial c0 + c1*x + c2*y as a coefficient grid."""
    return np.array([[c0, c2], [c1, 0.0]])


def _mul(*polys):
    """Product of bivariate polynomials (grids indexed [x power, y power])."""
    out = polys[0]
    for b in polys[1:]:
        res = np.zeros((out.shape[0] + b.shape[0] - 1, out.shape[1] + b.shape[1] - 1))
        for i, j in zip(*np.nonzero(b)):
            res[i : i + out.shape[0], j : j + out.shape[1]] += b[i, j] * out
        out = res
    return out


def _add(*polys):
    shape = tuple(max(p.shape[k] for p in polys) for k in range(2))
    out = np.zeros(shape)
    for p in polys:
        out[: p.shape[0], : p.shape[1]] += p
    return out


def grid4(poly):
    """A grid of at most 4 x 4 coefficients as the oracle's kernel takes
    it: 4 x 4 nested lists of Python floats."""
    return _add(np.zeros((4, 4)), poly).tolist()


def reference_numerators(c, a1, a2, l1, l2, sizes=False):
    """(N1, N2) as sums of products of their affine factors, padded to
    4 x 4.  With ``sizes`` every term is added with a + sign (all
    arguments >= 0), which gives each coefficient's size."""
    c11, c12, c21, c22 = c
    s1, i1 = _affine(1.0, c11, c12), _affine(1.0, 0.0, c12)
    s2, i2 = _affine(1.0, c21, c22), _affine(1.0, c21, 0.0)
    x, y = _affine(0.0, 1.0, 0.0), _affine(0.0, 0.0, 1.0)
    sign = 1.0 if sizes else -1.0
    n1 = _add(
        a1 * c11 * _mul(s2, i2), sign * a2 * c21 * c22 * _mul(y, s1), sign * l1 * _mul(s1, s2, i2)
    )
    n2 = _add(
        sign * a1 * c12 * c11 * _mul(x, s2), a2 * c22 * _mul(s1, i1), sign * l2 * _mul(s1, i1, s2)
    )
    return tuple(_add(np.zeros((4, 4)), n) for n in (n1, n2))


# -------------------------------------------------------------------------


def single_user_oracle(ch, lam):
    """Closed-form stationary point of mu=1 single-user pricing."""
    g = abs(ch.h11) ** 2
    p = 1.0 / (lam * LN2) - ch.noise1 / g
    f = math.log2(1.0 + g * p) - lam * p
    return p, f


def grid_max(ch, dual, corner, step):
    p1 = np.arange(0.0, corner[0] + step, step)
    p2 = np.arange(0.0, corner[1] + step, step)
    r1, r2 = proper_rates(ch, p1[:, None], p2[None, :])
    f = (
        dual.mu1 * r1
        + dual.mu2 * r2
        - dual.lambda1 * p1[:, None]
        - dual.lambda2 * p2[None, :]
    )
    return float(f.max())


class TestInnerObjective:
    def test_zero_at_origin(self, sec6):
        assert inner_objective(sec6, DualPoint(1.0, 2.0, 0.3, 0.4), (0.0, 0.0)) == 0.0

    def test_stationary_point_value(self, sec6):
        dual = DualPoint(1.0, 0.0, 0.1, 0.1)
        p_star, f_star = single_user_oracle(sec6, 0.1)
        assert p_star == pytest.approx(14.1845, abs=1e-4)
        assert f_star == pytest.approx(4.4766, abs=1e-4)
        assert inner_objective(sec6, dual, (p_star, 0.0)) == pytest.approx(
            f_star, abs=1e-12
        )

    def test_zero_weights_give_pure_power_bill(self, sec6):
        dual = DualPoint(0.0, 0.0, 0.5, 0.25)
        for p in ((1.0, 2.0), (3.0, 0.0), (10.0, 10.0)):
            assert inner_objective(sec6, dual, p) == pytest.approx(
                -0.5 * p[0] - 0.25 * p[1], abs=1e-12
            )

    def test_consistent_with_rate_functions(self, sec6):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dual = DualPoint(*rng.uniform(0.01, 2.0, 4))
            p = rng.uniform(0.0, 30.0, 2)
            r1, r2 = proper_rates(sec6, p[0], p[1])
            want = dual.mu1 * r1 + dual.mu2 * r2 - dual.lambda1 * p[0] - dual.lambda2 * p[1]
            assert inner_objective(sec6, dual, p) == pytest.approx(float(want), abs=1e-12)


class TestBoxBounds:
    """The reference's box bounds: an upper bound on the objective over
    the box and the achieved value at its bottom corner."""

    def test_singleton_is_tight(self, sec6):
        dual = DualPoint(1.0, 1.0, 0.1, 0.2)
        for p in ((0.0, 0.0), (3.0, 7.0), (20.0, 1.0)):
            u, a = box_bounds(sec6, dual, p, p)
            f = inner_objective(sec6, dual, p)
            assert u == pytest.approx(f, abs=1e-12)
            assert a == pytest.approx(f, abs=1e-12)

    def test_bounds_sandwich_random_points(self, sec6):
        rng = np.random.default_rng(2)
        for _ in range(10):
            dual = DualPoint(*rng.uniform(0.0, 1.5, 4))
            u, a = box_bounds(sec6, dual, (0.0, 0.0), (10.0, 10.0))
            assert a <= u + 1e-12
            for _ in range(100):
                p = rng.uniform(0.0, 10.0, 2)
                assert inner_objective(sec6, dual, p) <= u + 1e-12

    def test_gap_shrinks_with_box_diameter(self, sec6):
        dual = DualPoint(1.0, 0.7, 0.1, 0.1)
        center = np.array([4.0, 6.0])
        gaps = []
        for k in range(12):
            h = 2.0 ** (-k)
            u, a = box_bounds(sec6, dual, tuple(center - h), tuple(center + h))
            gaps.append(u - a)
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3


class TestInitBox:
    def test_zero_weights_collapse_to_origin(self, sec6):
        corner, capped = init_box(sec6, DualPoint(0.0, 0.0, 1.0, 1.0))
        assert not capped
        assert corner == (0.0, 0.0)

    def test_root_condition_holds(self, sec6):
        dual = DualPoint(1.0, 0.0, 0.1, 0.1)
        corner, capped = init_box(sec6, dual)
        assert not capped
        g = abs(sec6.h11) ** 2
        p01 = corner[0]
        fhat = math.log2(1.0 + g * p01 / sec6.noise1) - 0.1 * p01
        # other user's envelope peaks at zero, so the root equation is
        # fhat_1(p01) = 0
        assert fhat == pytest.approx(0.0, abs=1e-6)

    def test_missing_price_engages_cap(self, sec6):
        corner, capped = init_box(sec6, DualPoint(1.0, 0.0, 0.0, 0.1), power_cap=123.0)
        assert capped
        assert corner == (123.0, 123.0)

    def test_grid_maximizer_inside_box(self, sec6):
        rng = np.random.default_rng(12)
        for _ in range(100):
            dual = DualPoint(
                rng.uniform(0.0, 2.0),
                rng.uniform(0.0, 2.0),
                rng.uniform(0.05, 1.0),
                rng.uniform(0.05, 1.0),
            )
            corner, capped = init_box(sec6, dual)
            assert not capped
            hi = (corner[0] * 1.5 + 1.0, corner[1] * 1.5 + 1.0)
            p1 = np.linspace(0.0, hi[0], 160)
            p2 = np.linspace(0.0, hi[1], 160)
            r1, r2 = proper_rates(sec6, p1[:, None], p2[None, :])
            f = (
                dual.mu1 * r1
                + dual.mu2 * r2
                - dual.lambda1 * p1[:, None]
                - dual.lambda2 * p2[None, :]
            )
            i, j = np.unravel_index(np.argmax(f), f.shape)
            step = (hi[0] / 159, hi[1] / 159)
            assert p1[i] <= corner[0] + step[0] + 1e-9
            assert p2[j] <= corner[1] + step[1] + 1e-9


class TestBnbSolve:
    def test_single_user_oracle(self, sec6):
        dual = DualPoint(1.0, 0.0, 0.1, 0.1)
        p_star, f_star = single_user_oracle(sec6, 0.1)
        res = bnb_solve(sec6, dual)
        assert res.converged and not res.capped
        assert res.gap <= 1e-6
        assert 0.0 <= f_star - res.value <= 1e-6 + 1e-9
        assert res.p[0] == pytest.approx(p_star, abs=0.05)
        assert res.p[1] <= 1e-9

    def test_zero_weights(self, sec6):
        res = bnb_solve(sec6, DualPoint(0.0, 0.0, 0.7, 0.7))
        assert res.p == (0.0, 0.0)
        assert res.value == 0.0
        assert res.converged

    def test_capped_dual_maxes_out_power(self, sec6):
        res = bnb_solve(sec6, DualPoint(1.0, 0.0, 0.0, 0.1), power_cap=1000.0)
        assert res.capped
        assert res.p[0] == pytest.approx(1000.0, rel=1e-4)

    def test_matches_grid_oracle(self, sec6):
        rng = np.random.default_rng(13)
        eps = 1e-6
        for _ in range(10):
            dual = DualPoint(
                rng.uniform(0.0, 2.0),
                rng.uniform(0.0, 2.0),
                rng.uniform(0.05, 1.0),
                rng.uniform(0.05, 1.0),
            )
            corner, _ = init_box(sec6, dual)
            step = 0.05
            best_grid = grid_max(sec6, dual, corner, step)
            res = bnb_solve(sec6, dual)
            assert res.converged and res.gap <= eps
            g11, g12, g21, g22 = sec6.gains
            lip = (
                dual.mu1 * g11 / (sec6.noise1 * LN2)
                + dual.mu2 * g22 / (sec6.noise2 * LN2)
                + dual.lambda1
                + dual.lambda2
            )
            assert abs(res.value - best_grid) <= eps + lip * step

    def test_budget_exhaustion_flagged(self, sec6):
        res = bnb_solve(sec6, DualPoint(1.0, 1.0, 0.1, 0.1), epsilon=1e-12, max_iterations=5)
        assert not res.converged
        assert res.iterations == 5
        assert res.gap > 1e-12

    def test_deterministic(self, sec6):
        dual = DualPoint(0.9, 1.1, 0.09, 0.14)
        a = bnb_solve(sec6, dual)
        b = bnb_solve(sec6, dual)
        assert a == b


class TestBoundFamilyInvariants:
    def test_children_bounds_nest_inside_parent(self, sec6):
        rng = np.random.default_rng(14)
        for _ in range(50):
            dual = DualPoint(*rng.uniform(0.0, 2.0, 4))
            a = rng.uniform(0.0, 5.0, 2)
            b = a + rng.uniform(0.1, 10.0, 2)
            u, low = box_bounds(sec6, dual, a, b)
            # the reference's split: the longest edge at its midpoint
            k = 0 if b[0] - a[0] >= b[1] - a[1] else 1
            mid_hi, mid_lo = b.copy(), a.copy()
            mid_hi[k] = mid_lo[k] = 0.5 * (a[k] + b[k])
            children = ((a, mid_hi), (mid_lo, b))
            for lo, hi in children:
                cu, ca = box_bounds(sec6, dual, lo, hi)
                assert cu <= u + 1e-12
                assert ca <= cu + 1e-12
            # the lower child keeps the parent's bottom corner, so the
            # best achieved value over children never drops
            ca1 = box_bounds(sec6, dual, *children[0])[1]
            assert ca1 == pytest.approx(low, abs=1e-12)

    def test_objective_below_interference_free_envelope(self, sec6):
        rng = np.random.default_rng(15)
        g11, g12, g21, g22 = sec6.gains
        for _ in range(20):
            dual = DualPoint(*rng.uniform(0.0, 2.0, 4))
            for _ in range(50):
                p = rng.uniform(0.0, 40.0, 2)
                envelope = (
                    dual.mu1 * math.log1p(g11 * p[0] / sec6.noise1) / LN2
                    - dual.lambda1 * p[0]
                    + dual.mu2 * math.log1p(g22 * p[1] / sec6.noise2) / LN2
                    - dual.lambda2 * p[1]
                )
                assert inner_objective(sec6, dual, p) <= envelope + 1e-12


def criterion7_duals():
    """The 50 duals of acceptance criterion 7, in the same order."""
    rng = np.random.default_rng(2024)
    return [
        DualPoint(
            rng.uniform(0.0, 2.0),
            rng.uniform(0.0, 2.0),
            rng.uniform(0.05, 1.0),
            rng.uniform(0.05, 1.0),
        )
        for _ in range(50)
    ]


def lipschitz(ch, dual):
    """Criterion 7's bound on |df/dp1| + |df/dp2|."""
    g11, g12, g21, g22 = ch.gains
    return (
        dual.mu1 * (g11 + g12) / (ch.noise1 * LN2)
        + dual.mu2 * (g21 + g22) / (ch.noise2 * LN2)
        + dual.lambda1
        + dual.lambda2
    )


def recorded(module, name, run):
    """Run ``run()`` with ``module.name`` wrapped to record the
    positional arguments of every call; returns the result and the
    calls."""
    calls = []
    original = getattr(module, name)

    def record(*args):
        calls.append(args)
        return original(*args)

    setattr(module, name, record)
    try:
        return run(), calls
    finally:
        setattr(module, name, original)


def loop_sweep(ch, budget, betas):
    """The cutting-plane loop at every profile, each warm-started from
    the previous profile's last 32 cuts.  The ts-proper sweep certifies
    most sec6 profiles at their TDMA point without the loop, so the
    oracle's loop workload is collected here."""
    pool = ()
    for beta in betas:
        pool = outer.cutting_plane(ch, budget, RateProfile(float(beta)), initial_cuts=pool).cuts[-32:]


def sweep_duals(ch, budget, count, seed):
    """A seeded subset of the duals (with power caps) that the
    cutting-plane loop hands to the inner oracle over 101 profiles."""
    betas = np.linspace(0.0, 1.0, 101)
    _, calls = recorded(outer, "bnb_solve", lambda: loop_sweep(ch, budget, betas))
    rng = np.random.default_rng(seed)
    return [calls[i][1:] for i in sorted(rng.choice(len(calls), count, replace=False))]


def assert_matches_bnb(ch, dual, power_cap=1e4, ref=None):
    ref = bnb_solve(ch, dual, power_cap) if ref is None else ref
    assert ref.converged
    res = stationary_solve(ch, dual, power_cap)
    assert res.capped == ref.capped
    # never below the incumbent by more than its own gap, never above the
    # certified bound (both up to rounding)
    assert ref.value - res.gap - 1e-12 <= res.value <= ref.value + ref.gap + 1e-12, (dual, res, ref)
    return res


def assert_matches_reference(ch, dual, power_cap=1e4, max_iterations=10_000):
    """:func:`assert_matches_bnb` where branch and bound converges within
    ``max_iterations`` boxes, else :func:`assert_matches_grid`."""
    ref = bnb_solve(ch, dual, power_cap, max_iterations=max_iterations)
    if ref.converged:
        assert_matches_bnb(ch, dual, power_cap, ref)
    else:
        assert_matches_grid(ch, dual)


def assert_matches_grid(ch, dual, points=400):
    """The oracle beats every point of a dense grid over the box that
    holds all candidates, and the grid comes within its Lipschitz
    bound of the oracle."""
    res = stationary_solve(ch, dual)
    assert res.converged and not res.capped
    g11, g12, g21, g22 = ch.gains
    hi1 = max(dual.mu1 / (dual.lambda1 * LN2) - ch.noise1 / g11, 0.0)
    hi2 = max(dual.mu2 / (dual.lambda2 * LN2) - ch.noise2 / g22, 0.0)
    p1 = np.linspace(0.0, hi1, points)
    p2 = np.linspace(0.0, hi2, points)
    r1, r2 = proper_rates(ch, p1[:, None], p2[None, :])
    f = dual.mu1 * r1 + dual.mu2 * r2 - dual.lambda1 * p1[:, None] - dual.lambda2 * p2[None, :]
    step = max(hi1, hi2) / (points - 1)
    best = float(f.max())
    assert best <= res.value + 1e-12, (dual, best, res)
    assert res.value - best <= lipschitz(ch, dual) * step + 1e-12, (dual, best, res)


class TestStationarySolve:
    def test_single_user_oracle(self, sec6):
        p_star, f_star = single_user_oracle(sec6, 0.1)
        res = stationary_solve(sec6, DualPoint(1.0, 0.0, 0.1, 0.1))
        assert res.converged and not res.capped and res.gap == 0.0
        assert res.p[0] == pytest.approx(p_star, rel=1e-12)
        assert res.p[1] == 0.0
        assert res.value == pytest.approx(f_star, abs=1e-12)

    def test_zero_weights(self, sec6):
        res = stationary_solve(sec6, DualPoint(0.0, 0.0, 0.7, 0.7))
        assert res.p == (0.0, 0.0)
        assert res.value == 0.0

    def test_result_fields(self, sec6):
        res = stationary_solve(sec6, DualPoint(1.0, 1.3, 0.08, 0.2))
        assert res.converged and not res.capped
        assert res.gap == 0.0
        assert res.iterations >= 3  # origin, two axis peaks, interior points
        assert res.value == inner_objective(sec6, DualPoint(1.0, 1.3, 0.08, 0.2), res.p)

    def test_interior_point_is_stationary(self):
        ch = ChannelRealization(1.0, 0.1, 0.1, 1.2, 1.0, 1.0)
        dual = DualPoint(1.0, 1.0, 0.3, 0.3)
        res = stationary_solve(ch, dual)
        assert res.p[0] > 0.0 and res.p[1] > 0.0
        for k in range(2):
            e = np.zeros(2)
            e[k] = 1e-6
            p = np.array(res.p)
            slope = (inner_objective(ch, dual, p + e) - inner_objective(ch, dual, p - e)) / 2e-6
            assert abs(slope) <= 1e-6

    def test_capped_dual_maxes_out_power(self, sec6):
        res = stationary_solve(sec6, DualPoint(1.0, 0.0, 0.0, 0.1), 1000.0)
        assert res.capped
        assert res.p == (1000.0, 0.0)

    def test_deterministic(self, sec6):
        dual = DualPoint(0.9, 1.1, 0.09, 0.14)
        assert stationary_solve(sec6, dual) == stationary_solve(sec6, dual)

    def test_negligible_weight_is_bounded_by_gap(self, sec6):
        # a weight of 1e-15 cannot move the objective by more than its
        # rate range, which the result reports as its gap
        dual = DualPoint(1.4, 1.6e-15, 0.54, 0.0)
        res = stationary_solve(sec6, dual, 1e4)
        assert res.capped and 0.0 < res.gap <= 1e-13
        assert_matches_bnb(sec6, dual, 1e4)

    @pytest.mark.parametrize("prices", [(5e-10, 1e-9), (0.0, 1e-9), (1e-9, 1e-9)])
    def test_floor_prices_are_bounded_by_gap(self, sec6, prices):
        # capped prices up to LAMBDA_FLOOR are treated as zero; their bill
        # at the power cap is the gap, which covers the certified value
        cap = 1e4
        res = assert_matches_bnb(sec6, DualPoint(1.0, 1.0, *prices), cap)
        assert res.capped
        assert res.gap == sum(prices) * cap > 0.0


class TestEliminant:
    def test_roots_of_a_linear_system(self):
        # y - x = 0 and x + y - 1 = 0 meet at x = 0.5
        f = grid4(_affine(0.0, -1.0, 1.0))
        g = grid4(_affine(-1.0, 1.0, 1.0))
        assert inner._eliminant_roots(f, g) == pytest.approx([0.5], abs=1e-12)

    def test_common_factor_raises(self):
        common = _affine(1.0, 2.0, 3.0)
        f = grid4(_mul(common, _affine(0.5, -1.0, 1.0)))
        g = grid4(_mul(common, _affine(2.0, 1.0, -1.0), _affine(1.0, 0.0, 1.0)))
        with pytest.raises(RuntimeError, match="vanishes identically"):
            inner._eliminant_roots(f, g)

    def test_vanishing_resultant_never_returns_a_value(self, sec6, monkeypatch):
        common = _affine(1.0, 2.0, 3.0)

        def shared_factor(c, a1, a2, l1, l2):
            return (
                grid4(_mul(common, _affine(0.5, -1.0, 1.0))),
                grid4(_mul(common, _affine(2.0, 1.0, -1.0))),
            )

        monkeypatch.setattr(inner, "_gradient_numerators", shared_factor)
        with pytest.raises(RuntimeError):
            stationary_solve(sec6, DualPoint(1.0, 1.3, 0.08, 0.2))

    def test_resultant_has_degree_at_most_seven(self, sec6, budget10):
        # the cubic parts of both numerators carry the factor
        # (c11 x + c12 y)(c21 x + c22 y), so the two curves share two
        # points at infinity and meet in at most 7 finite points
        def run():
            betas = np.linspace(0.0, 1.0, 101)
            regions.ts_sweep(sec6, budget10, betas)
            loop_sweep(sec6, budget10, betas)
            for m in family(1):
                try:
                    ts_point(m.ch, PowerBudget(*m.P), RateProfile(m.beta))
                except RuntimeError:
                    pass

        degrees = [len(args[0]) - 1 for args in recorded(inner, "_colleague_roots", run)[1]]
        assert max(degrees) == 7 and len(degrees) > 500


class TestOracleGate:
    """The stationary-point oracle against certified branch and bound:
    never below it, never above its certified gap."""

    def test_criterion7_duals(self, sec6):
        for dual in criterion7_duals():
            assert_matches_bnb(sec6, dual)

    def test_capped_dual(self, sec6):
        assert_matches_bnb(sec6, DualPoint(1.0, 0.0, 0.0, 0.1), 1e4)

    def test_unpriced_capped_dual_at_high_snr(self):
        # nearly scale-free: the two gradient numerators are almost
        # dependent, so the oracle must not eliminate between them
        ch = ChannelRealization(*np.sqrt([98.46, 100.04, 99.12, 98.75]), 1.0, 1.0)
        assert_matches_bnb(ch, DualPoint(1.916, 0.09997, 0.0, 0.0), 1e4)

    def test_sweep_duals(self, sec6, budget10):
        for dual, power_cap in sweep_duals(sec6, budget10, 60, seed=5):
            assert_matches_bnb(sec6, dual, power_cap)

    @pytest.mark.parametrize(
        "channel",
        [
            (1.0, 0.5, 0.5, math.sqrt(2.0)),
            (1, 0.0, 10.0),
            (2, 10.0, 10.0),
            (3, -10.0, 20.0),
            (1.0, 0.0, 0.0, 1.2),
        ],
        ids=["weak-real", "snr0", "snr10", "snr-10", "no-cross"],
    )
    def test_weak_interference_against_grid(self, channel, weak_channel):
        # branch and bound exhausts its budget on these channels; a
        # four-tuple is real coefficients with unit noise, a three-tuple
        # (seed, SNR dB, INR dB below SNR) a seeded complex channel
        if len(channel) == 4:
            ch = ChannelRealization(*channel, 1.0, 1.0)
        else:
            seed, snr_db, below_db = channel
            ch = weak_channel(seed, snr_db, below_db)
        for dual in criterion7_duals()[:12]:
            assert_matches_grid(ch, dual)


class TestGradientNumerators:
    def test_closed_form_matches_products(self):
        # every coefficient within 1e-14 of the sum of its terms' sizes
        rng = np.random.default_rng(31)
        for _ in range(300):
            c = 10.0 ** rng.uniform(-3.0, 4.0, 4)
            a1, a2, l1, l2 = 10.0 ** rng.uniform(-3.0, 4.0, 4)
            got = inner._gradient_numerators(tuple(c), a1, a2, l1, l2)
            want = reference_numerators(c, a1, a2, l1, l2)
            size = reference_numerators(c, a1, a2, l1, l2, sizes=True)
            for g, w, sz in zip(got, want, size):
                g = np.array(g)
                assert g.shape == (4, 4)
                assert np.all(np.abs(g - w) <= 1e-14 * sz), (c, a1, a2, l1, l2)


def np_candidates(coef):
    """What the oracle took from ``np.roots`` for a polynomial given
    lowest degree first."""
    return inner._in_unit_interval(np.roots(np.asarray(coef, dtype=float)[::-1]))


def assert_partners(want, got, tol):
    """Every root in ``want`` has one in ``got`` within ``tol``."""
    for r in want:
        assert min((abs(r - q) for q in got), default=math.inf) <= tol, (want, got)


@pytest.fixture(scope="module")
def oracle_polynomials(sec6, budget10):
    """Every polynomial that the cutting-plane loop hands to
    ``_real_roots`` over a sec6 101-profile sweep and one round of the
    benchmark's channel family (seed 1)."""

    def run():
        loop_sweep(sec6, budget10, np.linspace(0.0, 1.0, 101))
        for m in family(1):
            outer.cutting_plane(m.ch, PowerBudget(*m.P), RateProfile(m.beta))

    return [list(args[0]) for args in recorded(inner, "_real_roots", run)[1]]


def cubic(*roots):
    """Coefficients, lowest degree first, of the monic polynomial with
    these roots."""
    return list(np.polynomial.polynomial.polyfromroots(roots))


def with_pair(real, re, im):
    """(x - real) * ((x - re)^2 + im^2), lowest degree first."""
    pair = [re * re + im * im, -2.0 * re, 1.0]
    return list(np.polynomial.polynomial.polymul([-real, 1.0], pair))


class TestRealRoots:
    """The float root routine reports what ``np.roots`` followed by
    ``_in_unit_interval`` reported."""

    def test_oracle_polynomials(self, oracle_polynomials):
        assert len(oracle_polynomials) > 2000
        for coef in oracle_polynomials:
            want, got = np_candidates(coef), inner._real_roots(coef)
            assert_partners(want, got, 1e-9)
            assert_partners(got, want, 1e-9)

    @pytest.mark.parametrize(
        "coef",
        [
            cubic(0.2, 0.7, 3.0),
            cubic(0.75, 0.75),  # double root: np.roots finds a pair at 0.75 +- 9e-9 i
            with_pair(2.0, 0.3, 0.99e-5),
            with_pair(-1.0, 0.6, 0.99e-5),
            [0.25 + 0.99e-10, -1.0, 1.0],
            [0.5, -1.5, 1.0, 1e-30],
            [0.5, -1.5, 1.0, 0.0],
            [0.0, -1.5, 1.0, 2.0],
            [0.0, 0.0, 1.0, -1.0],
            cubic(0.0, 1.0, 0.4),
            cubic(1.0, -2.0, 5.0),
            cubic(-inner._DOMAIN_TOL, 0.5, 2.0),
            cubic(inner._DOMAIN_TOL, 0.5, 2.0),
            cubic(1.0 + inner._DOMAIN_TOL, -0.5, 2.0),
            [inner._DOMAIN_TOL, 1.0],
            [-inner._DOMAIN_TOL, 1.0],
            [-1.0 - inner._DOMAIN_TOL, 1.0],
            cubic(-3.0 * inner._DOMAIN_TOL, 1.0 + 3.0 * inner._DOMAIN_TOL, 4.0),
        ],
    )
    def test_adversarial(self, coef):
        # a root on an end of the range may be kept by one and dropped by
        # the other, as rounding puts it on either side; a kept root
        # only costs the oracle one candidate
        assert_partners(np_candidates(coef), inner._real_roots(coef), 1e-9)

    @pytest.mark.parametrize("coef", [with_pair(2.0, 0.3, 1.01e-5), [0.25 + 1.01e-10, -1.0, 1.0]])
    def test_pair_above_imaginary_tolerance(self, coef):
        assert np_candidates(coef) == []
        assert inner._real_roots(coef) == []

    def test_double_root_of_a_cubic(self):
        # np.roots splits the double root at 0.5 into two real roots
        # 1.3e-8 apart, which is its accuracy there (the square root of
        # the rounding unit); the routine reports the turning point
        coef = cubic(0.5, 0.5, 2.0)
        assert inner._real_roots(coef) == [0.5]
        assert_partners(np_candidates(coef), [0.5], 2e-8)

    def test_tiny_leading_coefficient(self):
        # at 1e-300 the companion matrix's norm is 1e300 and np.roots
        # loses the two roots in range; the routine keeps them
        coef = [0.5, -1.5, 1.0, 1e-300]
        assert inner._real_roots(coef) == pytest.approx([0.5, 1.0], abs=1e-15)
        assert inner._real_roots(coef) == inner._real_roots(coef[:3])


def exact_resultant(f, g):
    """The resultant in y of ``f`` and ``g``, each scaled by its largest
    coefficient, at the oracle's nodes, in 60-digit arithmetic."""
    f, g = np.array(f), np.array(g)
    n = max(np.flatnonzero(f.any(axis=0))[-1], np.flatnonzero(g.any(axis=0))[-1])
    out = []
    with mpmath.workdps(60):
        scale = (mpmath.mpf(np.abs(f).max()) * mpmath.mpf(np.abs(g).max())) ** n
        for x in inner._NODES:
            x = mpmath.mpf(x)

            def in_y(h):
                return [
                    mpmath.fsum(mpmath.mpf(h[i, j]) * x**i for i in range(h.shape[0]))
                    for j in range(n + 1)
                ]

            fy, gy = in_y(f), in_y(g)
            bez = mpmath.matrix(n, n)
            for i in range(n):
                for j in range(n):
                    for k in range(min(i, n - 1 - j) + 1):
                        bez[i, j] += fy[i - k] * gy[j + k + 1] - fy[j + k + 1] * gy[i - k]
            out.append(mpmath.det(bez) / scale)
    return out


def assert_bound_holds(calls):
    for f, g in calls:
        value, err = inner._resultant_at_nodes(f, g)
        for v, e, exact in zip(value, err, exact_resultant(f, g)):
            assert abs(mpmath.mpf(v) - exact) <= e, (f, g)


# Members of the benchmark's seeded channel family on which the oracle
# raised "resultant of the gradient numerators vanishes identically"
# under a Hadamard rounding bound: (channel, beta, the dual it raised
# at).  P = (10, 10), power cap 1e4.
SEED19_MODERATE = (
    ChannelRealization(
        complex(-0.25827582397953663, 0.18520496453316573),
        complex(0.2319060528713153, -0.2146445361809663),
        complex(0.20837825168526403, 0.23751937128623554),
        complex(0.08984227219902503, -0.30085134591410384),
        1.0,
        1.0,
    ),
    0.30100937783454274,
    DualPoint(0.9991748661476394, 1.0003553309867874, 0.0009379653843750796, 0.04605718730698037),
)
SEED15_REAL = (
    ChannelRealization(
        9.888924120376545, -9.829986361392262, -10.140746419658711, 10.088186835252593, 1.0, 1.0
    ),
    0.4992942082073994,
    DualPoint(0.1128001725083799, 1.8846986446936402, 4.527882001769055e-05, 0.03789975838393902),
)
NEAR_SINGULAR = pytest.mark.parametrize(
    "case",
    [SEED19_MODERATE, SEED15_REAL],
    ids=["seed19-snr0-moderate", "seed15-snr30-moderate-real"],
)


class TestNearSingularChannels:
    """g11*g22 close to g12*g21: the Bezout entries cancel far below
    their sizes, and the resultant with them."""

    @NEAR_SINGULAR
    def test_oracle_matches_bnb_where_it_raised(self, case):
        ch, _, dual = case
        assert_matches_bnb(ch, dual, 1e4)

    @NEAR_SINGULAR
    def test_ts_point_converges(self, case):
        ch, beta, _ = case
        solution, cp = ts_point(ch, PowerBudget(10.0, 10.0), RateProfile(beta))
        assert cp.status == "converged"
        assert abs(solution.R - cp.upper) <= 2.0 * OuterConfig().epsilon_cp


class TestResultantRoundingBound:
    """Every float64 resultant value at a node lies within its bound of
    a 60-digit evaluation of the same scaled polynomials."""

    @NEAR_SINGULAR
    def test_failing_duals(self, case):
        ch, beta, dual = case

        def run():
            stationary_solve(ch, dual, 1e4)
            outer.cutting_plane(ch, PowerBudget(10.0, 10.0), RateProfile(beta))

        calls = recorded(inner, "_eliminant_roots", run)[1]
        assert len(calls) > 10
        assert_bound_holds(calls)

    def test_seeded_near_singular_channels(self):
        rng = np.random.default_rng(41)
        calls = []
        for _ in range(12):
            g11, g12, g22 = 10.0 ** rng.uniform(-2.0, 3.0, 3)
            # |g11*g22 - g12*g21| / (g11*g22) from 1e-8 to 1e-2
            g21 = g11 * g22 * (1.0 - 10.0 ** rng.uniform(-8.0, -2.0)) / g12
            h = np.sqrt([g11, g12, g21, g22]) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 4))
            ch = ChannelRealization(*(complex(x) for x in h), 1.0, 1.0)
            for _ in range(3):
                dual = DualPoint(*rng.uniform(0.05, 2.0, 2), *(10.0 ** rng.uniform(-4.0, 0.0, 2)))
                calls += recorded(inner, "_eliminant_roots", lambda: stationary_solve(ch, dual))[1]
        assert len(calls) > 20
        assert_bound_holds(calls)


# ------------------------------------------------ reference kernel
#
# The oracle's kernel as it was before its eliminant got the colleague
# templates and its candidate stage was trimmed: numpy coefficient grids,
# np.polynomial.chebyshev.chebroots, and the Python-float helpers as
# they were.  The kernel must return the same bits.


def reference_resultant_at_nodes(f, g):
    h = np.zeros((4, 4, 5))
    h[: f.shape[0], 0, : f.shape[1]] = f
    h[: g.shape[0], 1, : g.shape[1]] = g
    cols = np.flatnonzero(h[:, :2].any(axis=(0, 1)))
    n = cols[-1] if cols.size else 0
    if n == 0:
        raise RuntimeError("gradient numerators do not depend on the second power")
    h[:, :2] /= np.abs(h[:, :2]).max(axis=(0, 2))[:, None]
    h[:, 2:] = np.abs(h[:, :2])
    v = (inner._POWERS * h).sum(axis=1)
    terms = v[:, 0::2, :, None] * v[:, 1::2, None, :]
    terms += inner._TERM_SIGN * terms.swapaxes(2, 3)
    at, pad = inner._BEZOUT[n]
    entries = terms.reshape(-1, 2, 25)[..., at].sum(axis=3)
    entries[:, 0] += pad
    x = entries[..., inner._COFACTOR_AT].reshape(-1, 2, 4, 9)
    one, two = x[:, :, 0] * x[:, :, 1], x[:, :, 2] * x[:, :, 3]
    cof = one[:, 0] - two[:, 0]
    value = (entries[:, 0, :3] * cof[:, :3]).sum(axis=1)
    bounds = np.stack(
        (np.abs(cof), np.abs(one[:, 0]) + np.abs(two[:, 0]), one[:, 1] + two[:, 1]), axis=1
    )
    err = (inner._ERR_WEIGHTS * np.abs(entries)[:, :, None] * bounds[:, None]).sum(axis=(1, 2, 3))
    return value, err


def reference_eliminant_roots(f, g):
    value, err = reference_resultant_at_nodes(np.array(f), np.array(g))
    coef = inner._CHEB_FIT @ value
    coef[np.abs(coef) <= inner._CHEB_FIT_ABS @ err] = 0.0
    kept = np.flatnonzero(coef)
    if kept.size == 0:
        raise RuntimeError("resultant of the gradient numerators vanishes identically")
    if kept[-1] == 0:
        return []
    roots = np.polynomial.chebyshev.chebroots(coef[: kept[-1] + 1])
    return inner._in_unit_interval(0.5 * (roots + 1.0))


def reference_real_roots(coef):
    coef = list(coef)
    while coef and coef[-1] == 0.0:
        coef.pop()
    if not coef:
        return []
    zeros = 0
    while coef[zeros] == 0.0:
        zeros += 1
    degree = len(coef) - 1 - zeros
    c = coef[zeros:] + [0.0] * (3 - degree)
    c0, c1, c2, c3 = c
    roots = []
    if degree == 1:
        roots.append(-c0 / c1)
    elif degree > 1:
        if degree == 2:
            turning = [-c1 / (2.0 * c2)]
        else:
            disc = c2 * c2 - 3.0 * c1 * c3
            turning = []
            if disc >= 0.0:
                q = -(c2 + math.copysign(math.sqrt(disc), c2))
                turning = sorted((q / (3.0 * c3), c1 / q)) if q else [0.0]
        lo, hi = -2.0 * inner._DOMAIN_TOL, 1.0 + 2.0 * inner._DOMAIN_TOL
        ends = [lo] + [t for t in turning if lo < t < hi] + [hi]
        vals = [((c3 * t + c2) * t + c1) * t + c0 for t in ends]
        for k, (t, v) in enumerate(zip(ends, vals)):
            if k and min(v, vals[k - 1]) < 0.0 < max(v, vals[k - 1]):
                roots.append(reference_bracketed_root(c, ends[k - 1], t, vals[k - 1], v))
            if v == 0.0 or (
                0 < k < len(ends) - 1
                and 2.0 * abs(v) <= abs(6.0 * c3 * t + 2.0 * c2) * inner._IMAG_TOL**2
            ):
                roots.append(t)
    keep = [r for r in roots if -inner._DOMAIN_TOL <= r <= 1.0 + inner._DOMAIN_TOL]
    return [min(max(r, 0.0), 1.0) for r in keep] + [0.0] * zeros


def reference_bracketed_root(c, lo, hi, p_lo, p_hi):
    c0, c1, c2, c3 = c
    negative_at_lo = p_lo < 0.0
    x = lo - p_lo * (hi - lo) / (p_hi - p_lo)
    for _ in range(inner._ROOT_STEPS):
        px = ((c3 * x + c2) * x + c1) * x + c0
        if px == 0.0:
            return x
        if (px < 0.0) == negative_at_lo:
            lo = x
        else:
            hi = x
        dpx = (3.0 * c3 * x + 2.0 * c2) * x + c1
        step = px / dpx if dpx != 0.0 else math.inf
        if abs(step) <= inner._ROOT_XTOL:
            return x - step
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    return x


def reference_in_x(grid, x):
    out = grid[-1]
    for row in grid[-2::-1]:
        out = [o * x + r for o, r in zip(out, row)]
    return out


def reference_newton_polish(par, p1, p2, hi, free):
    g11, g12, g21, g22, n1, n2, mu1, mu2, l1, l2 = par
    a1, a2 = mu1 / LN2, mu2 / LN2
    for _ in range(inner._NEWTON_STEPS):
        s1 = n1 + g11 * p1 + g12 * p2
        i1 = n1 + g12 * p2
        s2 = n2 + g21 * p1 + g22 * p2
        i2 = n2 + g21 * p1
        gr1 = a1 * g11 / s1 + a2 * g21 / s2 - a2 * g21 / i2 - l1
        gr2 = a1 * g12 / s1 - a1 * g12 / i1 + a2 * g22 / s2 - l2
        u1, v1 = a1 / (s1 * s1), a1 / (i1 * i1)
        u2, v2 = a2 / (s2 * s2), a2 / (i2 * i2)
        h11 = (v2 - u2) * g21 * g21 - u1 * g11 * g11
        h12 = -u1 * g11 * g12 - u2 * g21 * g22
        h22 = (v1 - u1) * g12 * g12 - u2 * g22 * g22
        if free[0] and free[1]:
            det = h11 * h22 - h12 * h12
            if det == 0.0:
                return None
            d1 = (h22 * gr1 - h12 * gr2) / det
            d2 = (h11 * gr2 - h12 * gr1) / det
        elif free[0]:
            if h11 == 0.0:
                return None
            d1, d2 = gr1 / h11, 0.0
        else:
            if h22 == 0.0:
                return None
            d1, d2 = 0.0, gr2 / h22
        p1 -= d1
        p2 -= d2
        if not (0.0 <= p1 <= hi[0] and 0.0 <= p2 <= hi[1]):
            return None
        if abs(d1) <= 1e-15 * (1.0 + p1) and abs(d2) <= 1e-15 * (1.0 + p2):
            break
    return p1, p2


REFERENCE_KERNEL = {
    "_eliminant_roots": reference_eliminant_roots,
    "_real_roots": reference_real_roots,
    "_in_x": reference_in_x,
    "_newton_polish": reference_newton_polish,
}


def float_bits(x):
    """``x`` with every float replaced by its IEEE bytes, so that -0.0
    and 0.0 differ and equal values compare equal bit for bit."""
    if isinstance(x, float):
        return struct.pack("<d", x).hex()
    if isinstance(x, (tuple, list)):
        return type(x)(float_bits(y) for y in x)
    return x


def oracle_outcome(ch, dual, power_cap):
    """Every field of the oracle's result as bits, or the message of the
    RuntimeError it raises."""
    try:
        return float_bits(dataclasses.astuple(stationary_solve(ch, dual, power_cap)))
    except RuntimeError as exc:
        return ("RuntimeError", str(exc))


@pytest.fixture(scope="module")
def pin_duals(sec6, budget10, weak_channel):
    """(channel, dual, power cap) triples: every oracle call of the sec6
    101-profile ts-proper sweep and of ``ts_point`` over the benchmark's
    channel family (seeds 1 to 3), the near-singular cases with the
    cutting-plane loop's calls there, and seeded capped and random
    duals."""
    cases = recorded(
        outer, "bnb_solve", lambda: regions.ts_sweep(sec6, budget10, np.linspace(0.0, 1.0, 101))
    )[1]

    def family_points():
        for seed in (1, 2, 3):
            for m in family(seed):
                try:
                    ts_point(m.ch, PowerBudget(*m.P), RateProfile(m.beta))
                except RuntimeError:
                    pass

    cases += recorded(outer, "bnb_solve", family_points)[1]
    for ch, beta, dual in (SEED19_MODERATE, SEED15_REAL):
        cases.append((ch, dual, 1e4))
        cases += recorded(
            outer,
            "bnb_solve",
            lambda: outer.cutting_plane(ch, PowerBudget(10.0, 10.0), RateProfile(beta)),
        )[1]
    rng = np.random.default_rng(2027)
    channels = [sec6, weak_channel(1, 0.0), weak_channel(2, 20.0), *(m.ch for m in family(4)[::3])]
    for ch in channels:
        for _ in range(30):
            mu = rng.uniform(0.0, 2.0, 2)
            lam = 10.0 ** rng.uniform(-5.0, 0.5, 2)
            cases.append((ch, DualPoint(*map(float, (*mu, *lam))), 1e4))
        for prices in ((0.0, 0.3), (0.2, 0.0), (0.0, 0.0), (LAMBDA_FLOOR, 0.1), (5e-10, 1e-9)):
            mu = rng.uniform(0.05, 2.0, 2)
            cases.append((ch, DualPoint(*map(float, mu), *prices), float(rng.choice([1e2, 1e4]))))
    return cases


class TestKernelPin:
    """The oracle returns the reference kernel's bits."""

    def test_every_field_equals_the_reference_kernels(self, pin_duals, monkeypatch):
        got = [oracle_outcome(*case) for case in pin_duals]
        for name, reference in REFERENCE_KERNEL.items():
            monkeypatch.setattr(inner, name, reference)
        want = [oracle_outcome(*case) for case in pin_duals]
        assert len(pin_duals) > 500
        assert sum(w[5] for w in want if w[0] != "RuntimeError") > 20  # capped
        for case, g, w in zip(pin_duals, got, want):
            assert g == w, case

    def test_colleague_roots_equal_chebroots(self):
        rng = np.random.default_rng(11)
        series = []
        for length in range(2, 11):
            for _ in range(40):
                series.append(rng.standard_normal(length) * 10.0 ** rng.uniform(-3.0, 3.0, length))
            for lead in (1e-12, 1e-300, 1e-320, -1e-300):
                c = rng.standard_normal(length)
                c[-1] = lead
                series.append(c)
            if length > 2:
                for _ in range(10):
                    c = rng.standard_normal(length)
                    c[1:-1][rng.random(length - 2) < 0.5] = 0.0
                    series.append(c)
                series.append(np.r_[1.0, np.zeros(length - 2), 1.0])
        for c in series:
            try:
                # chebroots warns where a tiny leading coefficient overflows
                with np.errstate(all="ignore"):
                    want = np.polynomial.chebyshev.chebroots(c)
            except np.linalg.LinAlgError as exc:
                with pytest.raises(type(exc)):
                    inner._colleague_roots(c.tolist())
                continue
            got = inner._colleague_roots(c.tolist())
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), c
