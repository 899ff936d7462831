"""Global maximizer of the dualized power-allocation subproblem.

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

The kernel works on Python floats and small fixed-shape arrays: the
eighteen coefficients of the two cubics are written out in closed form
as nested lists; the resultant is the determinant of a Bezout matrix of
size at most 3, built at ten Chebyshev nodes from one scaled stack of
both cubics and their sizes, the nodes' powers and fixed index arrays,
and expanded by cofactors; its Chebyshev series is solved by the
colleague matrix, filled into a template built at import for each
degree and handed to ``np.linalg.eigvals``, so ``numpy.polynomial`` is
never loaded; and the cubics and quadratics in one variable are solved
by sign changes between their turning points.
Rounding is bounded to first order by the cofactors, so the resultant
is declared to vanish only when it does so within that bound, which
stays tight on the nearly singular channels where the interference
gains almost match the direct ones.

When a user with positive rate weight has a zero power price the
objective is unbounded above; the search is then over the box
``[0, power_cap]^2`` and the result is flagged ``capped``.
"""

from __future__ import annotations

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
    "InnerResult",
    "inner_objective",
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
class InnerResult:
    """Maximizer and value found by :func:`stationary_solve`."""

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


def inner_objective(ch: ChannelRealization, dual: DualPoint, p) -> float:
    """Weighted proper-signaling rates minus the power bill at ``p``."""
    p1, p2 = float(p[0]), float(p[1])
    if p1 < 0.0 or p2 < 0.0:
        raise ValueError("powers must be >= 0")
    return _f(_params(ch, dual), p1, p2)


def _single_user_peak(g, n, mu, lam):
    """Peak location of mu*log2(1 + g*p/n) - lam*p over p >= 0."""
    if mu <= 0.0:
        return 0.0
    return max(0.0, mu / (lam * _LN2) - n / g)


def _single_user_max(g, n, mu, lam):
    """Peak location and value of mu*log2(1 + g*p/n) - lam*p over p >= 0."""
    if mu <= 0.0:
        return 0.0, 0.0
    p_hat = _single_user_peak(g, n, mu, lam)
    val = mu * math.log1p(g * p_hat / n) / _LN2 - lam * p_hat
    return p_hat, val


# ------------------------------------------------- stationary-point oracle

#: A polynomial root is a candidate if its imaginary part is at most
#: _IMAG_TOL and its real part within _DOMAIN_TOL of [0, 1], the range of
#: the scaled coordinates; a spurious candidate only costs one evaluation.
_IMAG_TOL = 1e-5
_DOMAIN_TOL = 1e-6
_NEWTON_STEPS = 30
#: Step cap and step tolerance of the bracketed one-dimensional root search.
_ROOT_STEPS = 100
_ROOT_XTOL = 1e-12
#: Share of the total weighted-rate span below which the stationary-point
#: oracle treats a user's rate weight as zero.
_WEIGHT_TOL = 1e-9


def _numerator_grid(c11, c12, c21, c22, a1, a2, l1):
    """Coefficients of N1 (see :func:`_gradient_numerators`) as nested
    lists indexed [power of x][power of y], expanded in closed form."""
    d = a1 * c11
    return [
        [d - l1, c22 * (d - a2 * c21) - l1 * (c12 + c22), -c12 * c22 * (l1 + a2 * c21), 0.0],
        [
            2.0 * d * c21 - l1 * (c11 + 2.0 * c21),
            c11 * c21 * c22 * (a1 - a2) - l1 * (c11 * c22 + 2.0 * c12 * c21 + c21 * c22),
            -l1 * c12 * c21 * c22,
            0.0,
        ],
        [
            c21 * (d * c21 - l1 * (2.0 * c11 + c21)),
            -l1 * c21 * (c11 * c22 + c12 * c21),
            0.0,
            0.0,
        ],
        [-l1 * c11 * c21 * c21, 0.0, 0.0, 0.0],
    ]


def _gradient_numerators(c, a1, a2, l1, l2):
    """Numerators (N1, N2) of the scaled objective's two partial
    derivatives, each multiplied by its positive denominators, as 4 x 4
    coefficient grids (nested lists of Python floats) indexed [power of
    x][power of y].

    ``c`` holds the gains over noise in scaled coordinates, ``(c11, c12,
    c21, c22)``, so that the receivers see S1 = 1 + c11*x + c12*y and
    S2 = 1 + c21*x + c22*y with interference parts I1 = 1 + c12*y and
    I2 = 1 + c21*x.  The numerators are the cubics

        N1 = a1*c11*S2*I2 - a2*c21*c22*y*S1 - l1*S1*S2*I2,
        N2 = a2*c22*S1*I1 - a1*c11*c12*x*S2 - l2*S1*I1*S2,

    nine coefficients each.  N2 is N1 with the users' roles swapped
    (x with y, c11 with c22, c12 with c21, a1 with a2).
    """
    c11, c12, c21, c22 = c
    swapped = _numerator_grid(c22, c21, c12, c11, a2, a1, l2)
    return _numerator_grid(c11, c12, c21, c22, a1, a2, l1), [list(col) for col in zip(*swapped)]


#: Chebyshev points of the first kind on [0, 1], and the map from values
#: there to Chebyshev coefficients (discrete orthogonality, no solve):
#: a polynomial of degree at most 9 is recovered exactly from 10 values.
_NODES_T = np.cos(np.pi * (np.arange(10) + 0.5) / 10)
_NODES = 0.5 * (_NODES_T + 1.0)
_CHEB_FIT = 0.2 * np.cos(np.outer(np.arange(10), np.arccos(_NODES_T)))
_CHEB_FIT[0] *= 0.5
_CHEB_FIT_ABS = np.abs(_CHEB_FIT)
#: Powers 0..3 of the nodes, shaped to scale coefficient grids indexed
#: [power of x, grid, power of y]: summing over the powers of x gives the
#: grids' coefficients in y at every node.
_POWERS = np.vander(_NODES, 4, increasing=True)[:, :, None, None]


def _bezout_terms(n):
    """Where the n x n Bezout matrix of two polynomials f, g in y gets
    its terms w_ab = f_a*g_b - f_b*g_a: flat indices 5a + b, three slots
    per entry of the 3 x 3 matrix (row-major), entry ij summing w_ab over
    a = i - k, b = j + k + 1 for k <= min(i, n - 1 - j), with unused
    slots at w_44 = 0; and the identity that pads a smaller matrix."""
    at = np.full((9, 3), 24)
    for i in range(n):
        for j in range(n):
            for k in range(min(i, n - 1 - j) + 1):
                at[3 * i + j, k] = 5 * (i - k) + j + k + 1
    pad = np.zeros(9)
    pad[[4 * i for i in range(n, 3)]] = 1.0
    return at, pad


_BEZOUT = {n: _bezout_terms(n) for n in (1, 2, 3)}
#: Turns the products f_a*g_b and |f_a|*|g_b| into the Bezout terms and
#: their sizes |f_a|*|g_b| + |f_b|*|g_a|.
_TERM_SIGN = np.array([-1.0, 1.0])[:, None, None]
#: Cofactor (i, j) of a 3 x 3 matrix m, row-major, is
#: m[K0]*m[K1] - m[K2]*m[K3] at the four flat positions K stacked here
#: (rows i+1, i+2 and columns j+1, j+2, modulo 3).
_COFACTOR_AT = np.array(
    [
        [3 * ((i + p) % 3) + (j + q) % 3 for i in range(3) for j in range(3)]
        for p, q in ((1, 1), (2, 2), (1, 2), (2, 1))
    ]
).ravel()
#: Relative rounding error e of a Bezout entry against its size, with
#: room for every later rounding (derived in _eliminant_roots), and the
#: weights of the error bound: |B| and b (rows) against |C|, P(|B|) and
#: P(b) (columns).
_ENTRY_ERR = 32 * (np.finfo(float).eps / 2)
_ERR_WEIGHTS = np.array(
    [
        [0.0, _ENTRY_ERR / 3.0, _ENTRY_ERR**2],
        [_ENTRY_ERR, _ENTRY_ERR**2, _ENTRY_ERR**3 / 3.0],
    ]
)[:, :, None]


def _colleague_template(n):
    """The parts of the rotated colleague matrix of a degree-n Chebyshev
    series that do not depend on its coefficients, built as
    ``np.polynomial.chebyshev.chebcompanion`` builds them: the matrix,
    C-contiguous, with the coefficient column (column 0 after the
    rotation) left as it is before the coefficients are subtracted; that
    column in the unrotated order; and the column's scale ratios."""
    mat = np.zeros((n, n))
    scl = np.array([1.0] + [np.sqrt(0.5)] * (n - 1))
    top = mat.reshape(-1)[1 :: n + 1]
    bot = mat.reshape(-1)[n :: n + 1]
    top[0] = np.sqrt(0.5)
    top[1:] = 1 / 2
    bot[...] = top
    return mat[::-1, ::-1].copy(), mat[:, -1].tolist(), (scl / scl[-1]).tolist()


_COLLEAGUE = {n: _colleague_template(n) for n in range(2, 10)}


def _colleague_roots(c):
    """The roots of the Chebyshev series with coefficients ``c`` (a list
    of Python floats, lowest degree first, of length at least 2 and with
    a nonzero last entry), sorted: what ``np.polynomial.chebyshev.
    chebroots`` returns for it, from the same rotated colleague matrix,
    the same ``np.linalg.eigvals`` call and the same sort, with the
    coefficient-free part of the matrix taken from a template built at
    import."""
    n = len(c) - 1
    if n == 1:
        return np.array([-c[0] / c[1]])
    template, column, ratio = _COLLEAGUE[n]
    mat = template.copy()
    last = c[n]
    mat[::-1, 0] = [t - ck / last * r * 0.5 for t, ck, r in zip(column, c, ratio)]
    roots = np.linalg.eigvals(mat)
    roots.sort()
    return roots


def _resultant_at_nodes(f, g):
    """The resultant in y of ``f`` and ``g``, each scaled by its largest
    coefficient, at the Chebyshev nodes, and a bound on the rounding
    error of each value (see :func:`_eliminant_roots`).  ``f`` and ``g``
    are 4 x 4 coefficient grids, nested lists indexed [power of x][power
    of y]; their y-degree is read from the lists."""
    n = 3
    while n and not any([f[0][n], f[1][n], f[2][n], f[3][n], g[0][n], g[1][n], g[2][n], g[3][n]]):
        n -= 1
    if n == 0:
        raise RuntimeError("gradient numerators do not depend on the second power")
    fg = np.array((f, g))
    # [power of x, (f, g, |f|, |g|), power of y]; power 4 stays zero
    h = np.zeros((4, 4, 5))
    np.divide(fg.transpose(1, 0, 2), np.abs(fg).max(axis=(1, 2))[:, None], out=h[:, :2, :4])
    np.abs(h[:, :2], out=h[:, 2:])
    v = (_POWERS * h).sum(axis=1)  # f, g, |f|, |g| in y at every node
    terms = v[:, 0::2, :, None] * v[:, 1::2, None, :]
    terms += _TERM_SIGN * terms.swapaxes(2, 3)
    at, pad = _BEZOUT[n]
    # the Bezout entries B and their sizes b, flat, at every node
    entries = terms.reshape(-1, 2, 25)[..., at].sum(axis=3)
    entries[:, 0] += pad
    # the cofactor products m[K0]*m[K1] and m[K2]*m[K3] of B and of b
    x = entries[..., _COFACTOR_AT].reshape(-1, 2, 4, 9)
    prod = x[:, :, 0::2] * x[:, :, 1::2]
    cof = prod[:, 0, 0] - prod[:, 0, 1]
    value = (entries[:, 0, :3] * cof[:, :3]).sum(axis=1)
    # |C|, P(|B|) and P(b), weighed against |B| and b
    bounds = np.empty((len(value), 3, 9))
    np.abs(cof, out=bounds[:, 0])
    size = np.abs(prod[:, 0])
    np.add(size[:, 0], size[:, 1], out=bounds[:, 1])
    np.add(prod[:, 1, 0], prod[:, 1, 1], out=bounds[:, 2])
    err = (_ERR_WEIGHTS * np.abs(entries)[:, :, None] * bounds[:, None]).sum(axis=(1, 2, 3))
    return value, err


def _eliminant_roots(f, g):
    """Real roots in [0, 1] of the resultant in y of two bivariate cubics.

    ``f`` and ``g`` are coefficient grids as :func:`_gradient_numerators`
    returns them.  The resultant is the determinant of the Bezout matrix
    of ``f`` and ``g`` as polynomials in y, whose size n is their larger
    y-degree (at most 3), so it has degree at most 9 in x.  It is
    evaluated at ten Chebyshev points, turned into a Chebyshev series on
    [0, 1] and solved with the colleague matrix.  The nodes' powers 0..3
    (a fixed Vandermonde matrix) give, at every node, the coefficients in
    y of both polynomials (each scaled by its largest coefficient) and
    their sizes (the same sums over the coefficients' absolute values).
    Their pairwise products give the Bezout terms f_a*g_b - f_b*g_a and
    the terms' sizes, and fixed index arrays sum them into the entries
    B_ij and the entries' sizes b_ij.  No matrix-matrix product is taken:
    the first one would map the BLAS work buffer into a process that
    otherwise never needs it.  A Bezout matrix smaller than 3 x 3 is
    padded with the identity, and the determinant is expanded by the
    cofactors C_ij.

    Coefficients below the rounding error of the evaluation are dropped.
    With u the unit roundoff, each value in y is off by at most 7u of
    its size (the scaling, the nodes' powers, the four-term sum), so each
    computed entry is off by at most e*b_ij with e = 18u (two such
    errors per product, the product, the difference and the sum of up to
    three terms).  The determinant is multilinear, so with P the cofactors
    with every sign taken as +,

        |det B - det B_exact| <= e * sum |C_ij| b_ij
                                 + e^2 * sum (|B_ij| P(b)_ij + P(|B|)_ij b_ij)
                                 + e^3 * perm(b)
                                 + 15u * perm(|B|),

    where P(|B|) b also covers the rounding of the cofactors, and the
    last term that of the expansion (5u) and of the Chebyshev fit (10u,
    as |det B| <= perm(|B|)); a permanent is a third of sum m_ij P(m)_ij.
    The first-order cofactor term rules, and it costs nothing extra: the
    expansion computes the cofactors anyway.  When g11*g22 is close to
    g12*g21 the entries cancel far below their sizes, and the cofactors
    with them, while a bound from the sizes alone (Hadamard's) can exceed
    the whole determinant.  The code takes e = 32u throughout, which
    leaves room for the rounding of the bound itself and of the fit
    matrix, and drops a Chebyshev coefficient when its size is at most
    the |fit matrix| row times the nodes' bounds.  If none is left the two
    polynomials share a factor, their common zeros form a curve rather
    than points, and ``RuntimeError`` is raised.

    The series left is solved by :func:`_colleague_roots`, which fills a
    per-degree template of the colleague matrix built at import, so the
    kernel loads no ``numpy.polynomial`` module.
    """
    value, err = _resultant_at_nodes(f, g)
    floor = (_CHEB_FIT_ABS @ err).tolist()
    coef = [0.0 if abs(c) <= e else c for c, e in zip((_CHEB_FIT @ value).tolist(), floor)]
    while coef and not coef[-1]:
        coef.pop()
    if not coef:
        raise RuntimeError("resultant of the gradient numerators vanishes identically")
    if len(coef) == 1:
        return []
    return _in_unit_interval(0.5 * (_colleague_roots(coef) + 1.0))


def _in_unit_interval(roots):
    """The real parts, clamped to [0, 1], of the roots within _IMAG_TOL
    of the real axis and _DOMAIN_TOL of [0, 1]."""
    return [
        min(max(r.real, 0.0), 1.0)
        for r in roots.tolist()
        if abs(r.imag) <= _IMAG_TOL and -_DOMAIN_TOL <= r.real <= 1.0 + _DOMAIN_TOL
    ]


def _bracketed_root(c, lo, hi, p_lo, p_hi):
    """The root of the cubic with coefficients ``c`` (lowest degree
    first) that changes sign once on [lo, hi], from the secant point:
    Newton steps inside a shrinking bracket, bisecting whenever a step
    would leave it."""
    c0, c1, c2, c3 = c
    d2, d3 = 2.0 * c2, 3.0 * c3
    negative_at_lo = p_lo < 0.0
    x = lo - p_lo * (hi - lo) / (p_hi - p_lo)
    for _ in range(_ROOT_STEPS):
        px = ((c3 * x + c2) * x + c1) * x + c0
        if px == 0.0:
            return x
        if (px < 0.0) == negative_at_lo:
            lo = x
        else:
            hi = x
        dpx = (d3 * x + d2) * x + c1
        step = px / dpx if dpx != 0.0 else math.inf
        if abs(step) <= _ROOT_XTOL:
            return x - step
        x -= step
        if not lo < x < hi:
            x = 0.5 * (lo + hi)
    return x


#: The range [-2 _DOMAIN_TOL, 1 + 2 _DOMAIN_TOL] searched by _real_roots,
#: its kept range [-_DOMAIN_TOL, 1 + _DOMAIN_TOL], and the squared
#: _IMAG_TOL of its near-double-root test.
_SEARCH_LO, _SEARCH_HI = -2.0 * _DOMAIN_TOL, 1.0 + 2.0 * _DOMAIN_TOL
_KEEP_HI = 1.0 + _DOMAIN_TOL
_IMAG_TOL_SQ = _IMAG_TOL**2


def _real_roots(coef):
    """Real roots in [0, 1] of a polynomial of degree at most 3 given
    lowest degree first: what ``np.roots`` followed by
    :func:`_in_unit_interval` reports, on Python floats.

    As in ``np.roots``, zero coefficients of the highest degrees are
    dropped and each zero coefficient of the lowest degrees is a root
    at 0.  The turning points cut [-2 _DOMAIN_TOL, 1 + 2 _DOMAIN_TOL]
    into monotone pieces, and each sign change on a piece is refined by
    safeguarded Newton.  A turning point t where the two roots next to
    it, a complex pair or a close real pair, lie within _IMAG_TOL of it
    (|2 p(t) / p''(t)| <= _IMAG_TOL^2, exact for a quadratic) is a root
    too: there ``np.roots`` may find a pair with real part t.  The roots
    within _DOMAIN_TOL of [0, 1] are kept and clamped to it; searching
    the wider range finds a root at an end by a sign change.
    """
    top = len(coef)
    while top and coef[top - 1] == 0.0:
        top -= 1
    if not top:
        return []
    zeros = 0
    while coef[zeros] == 0.0:
        zeros += 1
    degree = top - 1 - zeros
    if degree == 0:
        return [0.0] * zeros
    c = [*coef[zeros:top], 0.0, 0.0][:4]
    c0, c1, c2, c3 = c
    if degree == 1:
        roots = [-c0 / c1]
    else:
        if degree == 2:
            turning = [-c1 / (2.0 * c2)]
        else:
            disc = c2 * c2 - 3.0 * c1 * c3
            turning = []
            if disc >= 0.0:
                q = -(c2 + math.copysign(math.sqrt(disc), c2))
                turning = sorted((q / (3.0 * c3), c1 / q)) if q else [0.0]
        roots = []
        t0 = _SEARCH_LO
        v0 = ((c3 * t0 + c2) * t0 + c1) * t0 + c0
        if v0 == 0.0:
            roots.append(t0)
        for t in turning:
            if not _SEARCH_LO < t < _SEARCH_HI:
                continue
            v = ((c3 * t + c2) * t + c1) * t + c0
            if v < 0.0 < v0 or v0 < 0.0 < v:
                roots.append(_bracketed_root(c, t0, t, v0, v))
            if v == 0.0 or 2.0 * abs(v) <= abs(6.0 * c3 * t + 2.0 * c2) * _IMAG_TOL_SQ:
                roots.append(t)
            t0, v0 = t, v
        t = _SEARCH_HI
        v = ((c3 * t + c2) * t + c1) * t + c0
        if v < 0.0 < v0 or v0 < 0.0 < v:
            roots.append(_bracketed_root(c, t0, t, v0, v))
        if v == 0.0:
            roots.append(t)
    return [min(max(r, 0.0), 1.0) for r in roots if -_DOMAIN_TOL <= r <= _KEEP_HI] + [0.0] * zeros


def _in_x(grid, x):
    """Coefficients in y of a bivariate polynomial with x fixed, by
    Horner's rule on Python floats (``grid`` as four nested lists, rows
    indexed by the power of x)."""
    r0, r1, r2, r3 = grid
    return [((a * x + b) * x + c) * x + d for a, b, c, d in zip(r3, r2, r1, r0)]


def _newton_polish(par, p1, p2, hi, free):
    """Newton steps on the gradient of the objective from (p1, p2).

    Only the ``free`` coordinates move (one of them along an edge).
    Returns the polished point, or None if a step leaves [0, hi]^2 or
    the Hessian is singular.
    """
    g11, g12, g21, g22, n1, n2, mu1, mu2, l1, l2 = par
    a1, a2 = mu1 / _LN2, mu2 / _LN2
    k11, k12, k21, k22 = a1 * g11, a1 * g12, a2 * g21, a2 * g22
    hi1, hi2 = hi
    free1, free2 = free
    for _ in range(_NEWTON_STEPS):
        w = g12 * p2
        s1 = n1 + g11 * p1 + w
        i1 = n1 + w
        i2 = n2 + g21 * p1
        s2 = i2 + g22 * p2
        gr1 = k11 / s1 + k21 / s2 - k21 / i2 - l1
        gr2 = k12 / s1 - k12 / i1 + k22 / s2 - l2
        u1, v1 = a1 / (s1 * s1), a1 / (i1 * i1)
        u2, v2 = a2 / (s2 * s2), a2 / (i2 * i2)
        h11 = (v2 - u2) * g21 * g21 - u1 * g11 * g11
        h22 = (v1 - u1) * g12 * g12 - u2 * g22 * g22
        if free1 and free2:
            h12 = -u1 * g11 * g12 - u2 * g21 * g22
            det = h11 * h22 - h12 * h12
            if det == 0.0:
                return None
            d1 = (h22 * gr1 - h12 * gr2) / det
            d2 = (h11 * gr2 - h12 * gr1) / det
        elif free1:
            if h11 == 0.0:
                return None
            d1, d2 = gr1 / h11, 0.0
        else:
            if h22 == 0.0:
                return None
            d1, d2 = 0.0, gr2 / h22
        p1 -= d1
        p2 -= d2
        if not (0.0 <= p1 <= hi1 and 0.0 <= p2 <= hi2):
            return None
        if abs(d1) <= 1e-15 * (1.0 + p1) and abs(d2) <= 1e-15 * (1.0 + p2):
            break
    return p1, p2


def stationary_solve(
    ch: ChannelRealization, dual: DualPoint, power_cap: float = 1e4
) -> InnerResult:
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
    (``gap`` is their bill at ``power_cap`` on both powers).
    """
    if not power_cap > 0.0:
        raise ValueError("power_cap must be > 0")
    par = _params(ch, dual)
    g11, g12, g21, g22, n1, n2, mu1, mu2, l1, l2 = par
    a1, a2 = mu1 / _LN2, mu2 / _LN2
    capped = (mu1 > 0.0 and l1 <= LAMBDA_FLOOR) or (mu2 > 0.0 and l2 <= LAMBDA_FLOOR)
    if capped:
        cap = power_cap
        s1 = s2 = cap
        hi = (cap, cap)
        cands = [(0.0, 0.0), (cap, 0.0), (0.0, cap), (cap, cap)]
        # without prices the objective rises along every ray from the
        # origin (its derivative there is a1*g11*p1/(S1*I1) +
        # a2*g22*p2/(S2*I2) > 0), so an interior point is beaten by the
        # ray's exit from the box; prices up to LAMBDA_FLOOR cost at most
        # lambda . p on the way out, which the gap reports
        inside = l1 > LAMBDA_FLOOR or l2 > LAMBDA_FLOOR
        price_gap = 0.0 if inside else (l1 + l2) * cap
    else:
        hi = (math.inf, math.inf)
        peak1, peak2 = _single_user_peak(g11, n1, mu1, l1), _single_user_peak(g22, n2, mu2, l2)
        cands = [(0.0, 0.0), (peak1, 0.0), (0.0, peak2)]
        s1 = peak1 if peak1 > 0.0 else 1.0
        s2 = peak2 if peak2 > 0.0 else 1.0
        inside = peak1 > 0.0 and peak2 > 0.0
        price_gap = 0.0

    # a user whose weighted rate spans less than _WEIGHT_TOL of the total
    # is treated as weightless: the objective then peaks on an axis or an
    # edge, and that span bounds the value lost
    span1, span2 = a1 * math.log1p(g11 * s1 / n1), a2 * math.log1p(g22 * s2 / n2)
    weightless = min(span1, span2) <= _WEIGHT_TOL * (span1 + span2)
    interior = inside and not weightless
    if capped or interior:
        num1, num2 = _gradient_numerators(
            (g11 * s1 / n1, g12 * s2 / n1, g21 * s1 / n2, g22 * s2 / n2), a1, a2, l1 * s1, l2 * s2
        )

    def add(q1, q2, free):
        p1, p2 = q1 * s1, q2 * s2
        cands.append((p1, p2))
        polished = _newton_polish(par, p1, p2, hi, free)
        if polished is not None:
            cands.append(polished)

    if capped:
        cols1 = [list(col) for col in zip(*num1)]
        for edge in (0.0, 1.0):
            for q1 in _real_roots(_in_x(cols1, edge)):
                add(q1, edge, (True, False))
            for q2 in _real_roots(_in_x(num2, edge)):
                add(edge, q2, (False, True))
    if interior:
        for q1 in _eliminant_roots(num1, num2):
            ys = _real_roots(_in_x(num1, q1)) + _real_roots(_in_x(num2, q1))
            for q2 in dict.fromkeys(ys):
                add(q1, q2, (True, True))

    best_p, best_val = cands[0], _f(par, 0.0, 0.0)
    for p in cands[1:]:
        val = _f(par, p[0], p[1])
        if val > best_val:
            best_p, best_val = p, val
    return InnerResult(
        p=best_p,
        value=best_val,
        gap=min(span1, span2) if inside and weightless else price_gap,
        iterations=len(cands),
        converged=True,
        capped=capped,
    )
