"""Global solvers for the dualized power-allocation subproblem.

For rate weights ``mu`` and power prices ``lambda`` the objective

    f(p) = sum_k mu_k * r_k(p) - lambda_k * p_k

is maximized over all nonnegative power vectors.  ``f`` is nonconcave
but has only two variables, so its maximum is attained at the origin,
at one of the two closed-form single-user peaks on the axes, or at an
interior stationary point.  Clearing the positive denominators of the
two partial derivatives leaves two bivariate cubics; their resultant is
a univariate polynomial of degree at most 9 whose real roots give every
interior stationary point.  ``stationary_solve`` enumerates these
candidates, polishes them by Newton steps and returns the best; the
cutting-plane loop calls it.

``bnb_solve`` is the reference oracle it is tested against: ``f`` splits
into a part that is nondecreasing in the own-signal powers and a part
that is nonincreasing in the interference/price powers, so axis-aligned
boxes admit cheap upper and lower bounds, and branch and bound over
such boxes returns a value certified to lie within ``epsilon`` of the
global optimum.  Because the original power constraints are dualized
there is no a priori bound on the powers; its initial box is derived
from the interference-free envelope of ``f``, which is concave per user
and eventually negative whenever the power prices are strictly
positive.

When a user with positive rate weight has a zero power price the
objective is unbounded above; both solvers then search the box
``[0, power_cap]^2`` and flag the result ``capped``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .model import ChannelRealization

_LN2 = math.log(2.0)

#: Below this price a user with positive rate weight makes the
#: objective unbounded above, and the capped fallback box is used.
LAMBDA_FLOOR = 1e-9

__all__ = [
    "DualPoint",
    "Box",
    "BnbConfig",
    "BnbResult",
    "inner_objective",
    "box_bounds",
    "branch",
    "init_box",
    "bnb_solve",
    "stationary_solve",
    "LAMBDA_FLOOR",
]


@dataclass(frozen=True)
class DualPoint:
    """Lagrange multipliers: rate weights ``mu`` and power prices ``lambda``."""

    mu1: float
    mu2: float
    lambda1: float
    lambda2: float

    def __post_init__(self):
        if min(self.mu1, self.mu2, self.lambda1, self.lambda2) < 0.0:
            raise ValueError("dual variables must be >= 0")


@dataclass(frozen=True)
class Box:
    """Axis-aligned rectangle [a, b] in power space."""

    a: tuple[float, float]
    b: tuple[float, float]

    def __post_init__(self):
        if not (0.0 <= self.a[0] <= self.b[0] and 0.0 <= self.a[1] <= self.b[1]):
            raise ValueError("box must satisfy 0 <= a <= b componentwise")


@dataclass(frozen=True)
class BnbConfig:
    epsilon: float = 1e-6
    max_iterations: int = 200_000
    power_cap: float = 1e4

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("epsilon must be > 0")
        if self.max_iterations <= 0 or self.power_cap <= 0.0:
            raise ValueError("max_iterations and power_cap must be > 0")


@dataclass(frozen=True)
class BnbResult:
    p: tuple[float, float]
    value: float
    gap: float
    iterations: int
    converged: bool
    capped: bool


def _params(ch: ChannelRealization, dual: DualPoint):
    g11, g12, g21, g22 = ch.gains
    return (
        g11,
        g12,
        g21,
        g22,
        ch.noise1,
        ch.noise2,
        dual.mu1,
        dual.mu2,
        dual.lambda1,
        dual.lambda2,
    )


def _f(par, p1, p2):
    g11, g12, g21, g22, n1, n2, mu1, mu2, l1, l2 = par
    val = -l1 * p1 - l2 * p2
    if mu1 > 0.0:
        val += mu1 * math.log1p(g11 * p1 / (n1 + g12 * p2)) / _LN2
    if mu2 > 0.0:
        val += mu2 * math.log1p(g22 * p2 / (n2 + g21 * p1)) / _LN2
    return val


def _utopia(par, a1, a2, b1, b2):
    # own-signal powers at the box top, interference and prices at the bottom
    g11, g12, g21, g22, n1, n2, mu1, mu2, l1, l2 = par
    val = -l1 * a1 - l2 * a2
    if mu1 > 0.0:
        val += mu1 * math.log1p(g11 * b1 / (n1 + g12 * a2)) / _LN2
    if mu2 > 0.0:
        val += mu2 * math.log1p(g22 * b2 / (n2 + g21 * a1)) / _LN2
    return val


def _term_max(g, n_eff, mu, lam, lo, hi):
    """Max of mu*log2(1 + g*q/n_eff) - lam*q over q in [lo, hi] (concave)."""
    if mu == 0.0:
        return -lam * lo
    if lam == 0.0:
        q = hi
    else:
        q = mu / (lam * _LN2) - n_eff / g
        q = lo if q < lo else (hi if q > hi else q)
    return mu * math.log1p(g * q / n_eff) / _LN2 - lam * q


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


def inner_objective(ch: ChannelRealization, dual: DualPoint, p) -> float:
    """Weighted proper-signaling rates minus the power bill at ``p``."""
    p1, p2 = float(p[0]), float(p[1])
    if p1 < 0.0 or p2 < 0.0:
        raise ValueError("powers must be >= 0")
    return _f(_params(ch, dual), p1, p2)


def box_bounds(ch: ChannelRealization, dual: DualPoint, box: Box) -> tuple[float, float]:
    """Upper and achievable lower bound (U, A) of the objective on a box.

    ``U`` evaluates the nondecreasing arguments at the box top and the
    nonincreasing ones at the bottom; ``A`` is the value at the bottom
    corner.  ``U >= max f >= A`` on the box, with both tight for
    singleton boxes.
    """
    par = _params(ch, dual)
    a1, a2 = box.a
    b1, b2 = box.b
    return _utopia(par, a1, a2, b1, b2), _f(par, a1, a2)


def branch(box: Box) -> tuple[Box, Box]:
    """Split a box at the midpoint of its longest edge (ties: first edge)."""
    a1, a2 = box.a
    b1, b2 = box.b
    w1, w2 = b1 - a1, b2 - a2
    if w1 <= 0.0 and w2 <= 0.0:
        raise ValueError("cannot branch a degenerate box")
    if w1 >= w2:
        m = 0.5 * (a1 + b1)
        return Box((a1, a2), (m, b2)), Box((m, a2), (b1, b2))
    m = 0.5 * (a2 + b2)
    return Box((a1, a2), (b1, m)), Box((a1, m), (b1, b2))


def _single_user_max(g, n, mu, lam):
    """Peak location and value of mu*log2(1 + g*p/n) - lam*p over p >= 0."""
    if mu <= 0.0:
        return 0.0, 0.0
    p_hat = max(0.0, mu / (lam * _LN2) - n / g)
    val = mu * math.log1p(g * p_hat / n) / _LN2 - lam * p_hat
    return p_hat, val


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


def init_box(
    ch: ChannelRealization, dual: DualPoint, cfg: BnbConfig = BnbConfig()
) -> tuple[Box, bool]:
    """Box certified to contain the maximizer of the inner objective.

    Per user the interference-free envelope ``fhat_k`` is concave with a
    closed-form peak; beyond the root of ``fhat_k(p) + max fhat_j = 0``
    the whole objective is nonpositive, so the maximizer lies in
    ``[0, p0]``.  When some user has ``mu_k > 0`` but an effectively
    zero power price the objective is unbounded above; the returned box
    is then ``[0, power_cap]^2`` and the second element is True.
    """
    g11, g12, g21, g22 = ch.gains
    users = (
        (g11, ch.noise1, dual.mu1, dual.lambda1),
        (g22, ch.noise2, dual.mu2, dual.lambda2),
    )
    for _, _, mu, lam in users:
        if mu > 0.0 and lam <= LAMBDA_FLOOR:
            cap = cfg.power_cap
            return Box((0.0, 0.0), (cap, cap)), True

    peaks = [_single_user_max(g, n, mu, lam) for g, n, mu, lam in users]
    p0 = []
    for k in range(2):
        g, n, mu, lam = users[k]
        fmax_other = peaks[1 - k][1]
        if mu > 0.0:
            p_hat = peaks[k][0]

            def decay(p, g=g, n=n, mu=mu, lam=lam, off=fmax_other):
                return mu * math.log1p(g * p / n) / _LN2 - lam * p + off

            p0.append(_descending_root(decay, p_hat, 2.0 * p_hat + 1.0))
        elif lam > 0.0:
            p0.append(fmax_other / lam)
        else:
            # no rate weight and no price: raising p_k only adds interference
            p0.append(0.0)
    return Box((0.0, 0.0), (p0[0], p0[1])), False


def bnb_solve(
    ch: ChannelRealization, dual: DualPoint, cfg: BnbConfig = BnbConfig()
) -> BnbResult:
    """Maximize the inner objective to within ``cfg.epsilon``, certified.

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
    box0, capped = init_box(ch, dual, cfg)
    par = _params(ch, dual)
    a1, a2 = box0.a
    b1, b2 = box0.b
    best_val = _f(par, a1, a2)
    best_p = (a1, a2)
    heap = [(-_tight_upper(par, a1, a2, b1, b2), 0, a1, a2, b1, b2)]
    counter = 1
    iterations = 0
    gap = -heap[0][0] - best_val
    converged = gap <= cfg.epsilon
    while not converged and iterations < cfg.max_iterations:
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
        converged = gap <= cfg.epsilon
    return BnbResult(
        p=best_p,
        value=best_val,
        gap=max(gap, 0.0),
        iterations=iterations,
        converged=converged,
        capped=capped,
    )


# ------------------------------------------------- stationary-point oracle

#: A polynomial root is a candidate if its imaginary part is at most
#: _IMAG_TOL and its real part within _DOMAIN_TOL of [0, 1], the range of
#: the scaled coordinates; a spurious candidate only costs one evaluation.
_IMAG_TOL = 1e-5
_DOMAIN_TOL = 1e-6
_NEWTON_STEPS = 30
#: Share of the total weighted-rate span below which the stationary-point
#: oracle treats a user's rate weight as zero.
_WEIGHT_TOL = 1e-9


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


def _gradient_numerators(c, a1, a2, l1, l2):
    """Numerators (N1, N2) of the scaled objective's two partial
    derivatives, each multiplied by its positive denominators.

    ``c`` holds the gains over noise in scaled coordinates, ``(c11, c12,
    c21, c22)``, so that the receivers see S1 = 1 + c11*x + c12*y and
    S2 = 1 + c21*x + c22*y with interference parts I1 = 1 + c12*y and
    I2 = 1 + c21*x.  Both numerators are cubics.
    """
    c11, c12, c21, c22 = c
    s1, i1 = _affine(1.0, c11, c12), _affine(1.0, 0.0, c12)
    s2, i2 = _affine(1.0, c21, c22), _affine(1.0, c21, 0.0)
    x, y = _affine(0.0, 1.0, 0.0), _affine(0.0, 0.0, 1.0)
    n1 = _add(
        a1 * c11 * _mul(s2, i2), -a2 * c21 * c22 * _mul(y, s1), -l1 * _mul(s1, s2, i2)
    )
    n2 = _add(
        -a1 * c12 * c11 * _mul(x, s2), a2 * c22 * _mul(s1, i1), -l2 * _mul(s1, i1, s2)
    )
    return n1, n2


#: Chebyshev points of the first kind on [0, 1], and the map from values
#: there to Chebyshev coefficients (discrete orthogonality, no solve):
#: a polynomial of degree at most 9 is recovered exactly from 10 values.
_NODES_T = np.cos(np.pi * (np.arange(10) + 0.5) / 10)
_NODES = 0.5 * (_NODES_T + 1.0)
_CHEB_FIT = 0.2 * np.cos(np.outer(np.arange(10), np.arccos(_NODES_T)))
_CHEB_FIT[0] *= 0.5


def _eliminant_roots(f, g):
    """Real roots in [0, 1] of the resultant in y of two bivariate cubics.

    The resultant is the determinant of the Bezout matrix of ``f`` and
    ``g`` as polynomials in y, whose size is their larger y-degree (at
    most 3), so it has degree at most 9 in x.  It is evaluated at ten
    Chebyshev points, turned into a Chebyshev series on [0, 1] and
    solved with the colleague matrix.  Coefficients below the rounding
    error of the evaluation are dropped; if none is left the two
    polynomials share a factor, their common zeros form a curve rather
    than points, and ``RuntimeError`` is raised.
    """
    n = max(np.flatnonzero(f.any(axis=0))[-1], np.flatnonzero(g.any(axis=0))[-1])
    if n == 0:
        raise RuntimeError("gradient numerators do not depend on the second power")

    def at_nodes(h):
        vals = np.zeros((_NODES.size, n + 1))
        cols = min(h.shape[1], n + 1)
        vals[:, :cols] = _in_x(h[:, :cols] / np.abs(h).max(), _NODES[:, None])
        return vals

    fv, gv = at_nodes(f), at_nodes(g)
    bez = np.zeros((n, n, _NODES.size))
    bound = np.zeros((n, n, _NODES.size))
    for i in range(n):
        for j in range(n):
            for k in range(min(i, n - 1 - j) + 1):
                one = fv[:, i - k] * gv[:, j + k + 1]
                two = fv[:, j + k + 1] * gv[:, i - k]
                bez[i, j] += one - two
                bound[i, j] += np.abs(one) + np.abs(two)
    value = np.linalg.det(bez.transpose(2, 0, 1))
    # Hadamard's bound on the determinant of the entries' sizes
    scale = np.prod(np.linalg.norm(bound, axis=1), axis=0)
    coef = _CHEB_FIT @ value
    coef[np.abs(coef) <= 256.0 * np.finfo(float).eps * scale.max()] = 0.0
    coef = np.trim_zeros(coef, "b")
    if coef.size == 0:
        raise RuntimeError("resultant of the gradient numerators vanishes identically")
    if coef.size < 2:
        return []
    roots = 0.5 * (np.polynomial.chebyshev.chebroots(coef) + 1.0)
    return _in_unit_interval(roots)


def _in_unit_interval(roots):
    keep = (
        (np.abs(roots.imag) <= _IMAG_TOL)
        & (roots.real >= -_DOMAIN_TOL)
        & (roots.real <= 1.0 + _DOMAIN_TOL)
    )
    return [min(max(float(r), 0.0), 1.0) for r in roots.real[keep]]


def _real_roots(coef):
    """Real roots in [0, 1] of a polynomial given lowest degree first."""
    return _in_unit_interval(np.roots(coef[::-1]))


def _in_x(grid, x):
    """Coefficients in y of a bivariate polynomial with x fixed."""
    return np.polyval(grid[::-1], x)


def _newton_polish(par, p1, p2, hi, free):
    """Newton steps on the gradient of the objective from (p1, p2).

    Only the ``free`` coordinates move (one of them along an edge).
    Returns the polished point, or None if a step leaves [0, hi]^2 or
    the Hessian is singular.
    """
    g11, g12, g21, g22, n1, n2, mu1, mu2, l1, l2 = par
    a1, a2 = mu1 / _LN2, mu2 / _LN2
    for _ in range(_NEWTON_STEPS):
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


def stationary_solve(
    ch: ChannelRealization, dual: DualPoint, cfg: BnbConfig = BnbConfig()
) -> BnbResult:
    """Global maximum of the inner objective by enumerating its candidates.

    The maximum over p >= 0 is attained at the origin, at one of the two
    closed-form axis peaks p_hat_k = mu_k / (lambda_k ln 2) - n_k / g_kk,
    or at an interior stationary point.  The own-signal term of user k
    falls below its price beyond p_hat_k, so every interior stationary
    point has p_k < p_hat_k, and none exists unless both peaks are
    positive.  In the coordinates q_k = p_k / p_hat_k the two gradient
    numerators are cubics, their resultant in q2 has degree at most 9,
    and its real roots in [0, 1] give q1; q2 follows from the roots of
    either numerator at that q1, and 2-D Newton on the gradient polishes
    each pair.  A resultant that vanishes identically raises
    ``RuntimeError``.

    When some user has ``mu_k > 0`` but a price of at most
    ``LAMBDA_FLOOR`` the objective is unbounded above; the search is
    then over ``[0, power_cap]^2``, with the four corners and the
    stationary points on each edge as further candidates, and the result
    is flagged ``capped``.  If neither power has a price above
    ``LAMBDA_FLOOR`` only the edges and corners are searched: without
    prices the objective rises along every ray from the origin.

    ``iterations`` counts the candidates evaluated and ``converged`` is
    always True.  The value is exact up to rounding, so ``gap`` is 0,
    with two exceptions where the interior is skipped because its
    stationary points cannot be told apart numerically, and ``gap``
    bounds the value lost: a user whose weighted rate spans less than
    1e-9 of the total is treated as weightless (``gap`` is that span),
    and capped prices up to ``LAMBDA_FLOOR`` are treated as zero
    (``gap`` is their bill at ``power_cap`` on both powers).  Of ``cfg``
    only ``power_cap`` is read.
    """
    par = _params(ch, dual)
    g11, g12, g21, g22, n1, n2, mu1, mu2, l1, l2 = par
    a = (mu1 / _LN2, mu2 / _LN2)
    capped = (mu1 > 0.0 and l1 <= LAMBDA_FLOOR) or (mu2 > 0.0 and l2 <= LAMBDA_FLOOR)
    cands: list[tuple[float, float]] = [(0.0, 0.0)]
    if capped:
        cap = cfg.power_cap
        scale = hi = (cap, cap)
        cands += [(cap, 0.0), (0.0, cap), (cap, cap)]
        # without prices the objective rises along every ray from the
        # origin (its derivative there is a1*g11*p1/(S1*I1) +
        # a2*g22*p2/(S2*I2) > 0), so an interior point is beaten by the
        # ray's exit from the box; prices up to LAMBDA_FLOOR cost at most
        # lambda . p on the way out, which the gap reports
        inside = l1 > LAMBDA_FLOOR or l2 > LAMBDA_FLOOR
        price_gap = 0.0 if inside else (l1 + l2) * cap
    else:
        hi = (math.inf, math.inf)
        peaks = (_single_user_max(g11, n1, mu1, l1)[0], _single_user_max(g22, n2, mu2, l2)[0])
        cands += [(peaks[0], 0.0), (0.0, peaks[1])]
        scale = tuple(pk if pk > 0.0 else 1.0 for pk in peaks)
        inside = peaks[0] > 0.0 and peaks[1] > 0.0
        price_gap = 0.0

    # a user whose weighted rate spans less than _WEIGHT_TOL of the total
    # is treated as weightless: the objective then peaks on an axis or an
    # edge, and that span bounds the value lost
    span = [a[k] * math.log1p(g * scale[k] / n) for k, (g, n) in enumerate(((g11, n1), (g22, n2)))]
    weightless = min(span) <= _WEIGHT_TOL * sum(span)
    interior = inside and not weightless
    c = (g11 * scale[0] / n1, g12 * scale[1] / n1, g21 * scale[0] / n2, g22 * scale[1] / n2)
    if capped or interior:
        num1, num2 = _gradient_numerators(c, a[0], a[1], l1 * scale[0], l2 * scale[1])

    def add(q1, q2, free):
        p1, p2 = q1 * scale[0], q2 * scale[1]
        cands.append((p1, p2))
        polished = _newton_polish(par, p1, p2, hi, free)
        if polished is not None:
            cands.append(polished)

    if capped:
        for edge in (0.0, 1.0):
            for q1 in _real_roots(_in_x(num1.T, edge)):
                add(q1, edge, (True, False))
            for q2 in _real_roots(_in_x(num2, edge)):
                add(edge, q2, (False, True))
    if interior:
        for q1 in _eliminant_roots(num1, num2):
            ys = _real_roots(_in_x(num1, q1)) + _real_roots(_in_x(num2, q1))
            for q2 in dict.fromkeys(ys):
                add(q1, q2, (True, True))

    best_p, best_val = cands[0], _f(par, *cands[0])
    for p in cands[1:]:
        val = _f(par, *p)
        if val > best_val:
            best_p, best_val = p, val
    return BnbResult(
        p=best_p,
        value=best_val,
        gap=min(span) if inside and weightless else price_gap,
        iterations=len(cands),
        converged=True,
        capped=capped,
    )
