"""Revised simplex for the five-row master LP on Python floats, returning
primal and dual solutions.

Every LP the package solves is the master of coded time-sharing
(:class:`MasterLP`): time-sharing weights tau over L strategies with
known rates and powers, chosen to maximize the common rate scale R.
The solver keeps an explicit inverse of the 5 x 5 basis and updates it
by one eta (rank-one) step per pivot, the product form of the revised
simplex (Dantzig & Orchard-Hays, 1954).  The basic solution and the
entering column are then products with that inverse, and the duals are
its row at R's position, since R is the only column with a cost.  One
routine factorizes: a batched LAPACK solve on the original
(row-equilibrated) columns, run on the final basis only.  A cold solve
starts from the crash basis's inverse in closed form; only when R's
coefficient in the crash basis's tight rate row is below
``_CLOSED_FORM_FLOOR`` is that basis factorized by LAPACK instead.  The
updates round, so before a solution is
reported its basis is factorized afresh: the returned primal, duals and
objective carry no update error and depend only on the final basis,
which must also pass the pricing with the fresh duals (a reduced cost
near the tolerance can change sign under the update error).  The fresh
inverse travels with the solution, so a warm start from it costs no
factorization.  Pivoting uses Bland's rule throughout, which rules
out cycling and makes the solver deterministic: identical inputs
produce bitwise-identical outputs.  Returned solutions are basic
(vertex) solutions, so at most five weights are positive.

Dual values follow the shadow-price convention: ``dual[i]`` is the
sensitivity of the optimal R to the right-hand side of row i.

Every master has a strategy within both budgets, so the simplex starts
at a feasible vertex that is known in advance (a crash basis): all time
on that strategy, R as large as its rates allow, the surplus of the
other rate row and both power slacks basic.  R is a free column that is
basic from the start and never leaves the basis.  The solver's columns
are R, tau_1 ... tau_L, the surplus columns of the rate rows and the
slack columns of the power rows.  A solve can resume from an earlier
:class:`LpSolution` (``start``): structural columns are numbered from
the front and the last four from the end, so a basis stays valid when
tau columns are appended to a master with unchanged rows, and the old
basis is then still primal feasible (the new weights start nonbasic at
zero).  Its inverse is reused when its basic columns are this master's;
any other start, or one whose basis is no longer primal feasible, falls
back to the crash basis.  Only the factorization calls numpy; the
pivots run on Python floats, whose arithmetic on a 5 x 5 basis costs
less than numpy's per-call overhead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = ["MasterLP", "LpSolution", "lp_solve"]

FEAS_TOL = 1e-9
COST_TOL = 1e-10
#: Relative width within which two ratio-test ratios count as a tie for
#: Bland's rule.  An absolute width let a row whose ratio was 5 % above
#: the minimum (1.349e-8 against 1.284e-8) leave the basis, which drove
#: the minimum row's basic value to -0.0139.
RATIO_TIE_TOL = 1e-12
_TIE_LOW = 1.0 - RATIO_TIE_TOL
_TIE_HIGH = 1.0 + RATIO_TIE_TOL
_MAX_PIVOTS = 50_000
#: Smallest |a_k|, R's coefficient in the crash basis's tight rate row,
#: for which a cold solve starts from the closed-form inverse (see
#: :func:`_crash_basis`); below it the crash basis is factorized.
_CLOSED_FORM_FLOOR = 1e-3
#: Surplus (rate rows) and slack (power rows) columns, the last four
#: columns of every master, in the equilibrated rows.
_EXTRA = (
    (-1.0, 0.0, 0.0, 0.0, 0.0),
    (0.0, -1.0, 0.0, 0.0, 0.0),
    (0.0, 0.0, 1.0, 0.0, 0.0),
    (0.0, 0.0, 0.0, 1.0, 0.0),
)
_N_EXTRA = 4
#: Right-hand sides of the factorization: the five unit vectors, then two
#: filled in per solve (the right-hand side b and the unit vector of
#: R's position), each as a 5 x 1 column.
_SOLVE_RHS = np.zeros((7, 5, 1))
_SOLVE_RHS[range(5), range(5), 0] = 1.0


class MasterLP:
    """The master over the variables (R, tau_1, ..., tau_L): maximize R
    subject to sum_i tau_i r_k,i >= rho_k R (rows 0, 1), sum_i tau_i
    p_k,i <= P_k (rows 2, 3) and sum_i tau_i = 1 (row 4), tau >= 0 and
    R free.

    ``rates`` and ``powers`` are 2 x L (row k for user k + 1),
    ``budget`` is (P1, P2) and ``rho`` the rate profile.  ``columns``
    holds the 1 + L columns as tuples of five Python floats, R first;
    ``rows`` is the same 5 x (1 + L) constraint matrix as an array.
    ``scale`` holds each row's equilibration scale (its largest
    magnitude, right-hand side included).  ``within`` is the index of the first strategy whose
    powers lie within both budgets; the simplex starts there.
    ``ValueError`` unless every value is finite, the budgets are >= 0,
    the rates are >= 0, rho has a positive entry and some strategy lies
    within both budgets.  Rates and powers are converted to Python
    floats once and checked there: a master has a few strategies, and
    numpy's fixed cost per reduction would outweigh the work.
    """

    __slots__ = ("columns", "budget", "within", "scale", "_peak")

    def __init__(self, rates, powers, budget, rho):
        r1, r2 = _two_rows(rates, "rates must be 2 x L with at least one strategy")
        p1, p2 = _two_rows(powers, "powers must match the shape of rates")
        if len(p1) != len(r1):
            raise ValueError("powers must match the shape of rates")
        rho1, rho2 = (float(v) for v in rho)
        P1, P2 = (float(v) for v in budget)
        if not all(map(math.isfinite, (*r1, *r2, *p1, *p2, rho1, rho2, P1, P2))):
            raise ValueError("master coefficients must be finite")
        if not min(P1, P2) >= 0.0:
            raise ValueError("budgets must be >= 0")
        if not min(*r1, *r2) >= 0.0:
            raise ValueError("rates must be >= 0")
        if not max(rho1, rho2) > 0.0:
            raise ValueError("rho must have a positive entry")
        within = next((j for j, (a, b) in enumerate(zip(p1, p2)) if a <= P1 and b <= P2), None)
        if within is None:
            raise ValueError("no strategy lies within both budgets")
        self.columns = ((-rho1, -rho2, 0.0, 0.0, 0.0), *zip(r1, r2, p1, p2, [1.0] * len(r1)))
        self.budget = (P1, P2)
        self.within = within
        self._set_peak(
            max(abs(rho1), *r1),
            max(abs(rho2), *r2),
            max(P1, *map(abs, p1)),
            max(P2, *map(abs, p2)),
        )

    def _set_peak(self, *peak: float) -> None:
        """Record the largest magnitudes of rows 0-3 and the row scales
        they give; row 4 (the weights' sum) has scale 1."""
        self._peak = peak
        self.scale = (*[s if s > 0.0 else 1.0 for s in peak], 1.0)

    def appended(self, r1: float, r2: float, p1: float, p2: float) -> MasterLP:
        """This master with one more strategy as its last column, checked
        as the constructor checks its strategies."""
        r1, r2, p1, p2 = float(r1), float(r2), float(p1), float(p2)
        if not all(map(math.isfinite, (r1, r2, p1, p2))):
            raise ValueError("master coefficients must be finite")
        if not min(r1, r2) >= 0.0:
            raise ValueError("rates must be >= 0")
        new = object.__new__(MasterLP)
        new.columns = (*self.columns, (r1, r2, p1, p2, 1.0))
        new.budget = self.budget
        new.within = self.within
        a, b, c, d = self._peak
        new._set_peak(max(a, r1), max(b, r2), max(c, abs(p1)), max(d, abs(p2)))
        return new

    @property
    def rows(self) -> np.ndarray:
        return np.array(self.columns).T


class _Inverse(NamedTuple):
    """The inverse of an optimal basis, for a warm start: ``rows`` is the
    inverse of the equilibrated basis matrix, row i for basis position
    i; ``columns`` are the basic columns it was built from (a structural
    column as in :attr:`MasterLP.columns`, a surplus or slack as
    ``None``) and ``scale`` the row scales of that master."""

    rows: tuple[list[float], ...]  # never written to
    columns: tuple[tuple[float, ...] | None, ...]
    scale: tuple[float, ...]


@dataclass(frozen=True)
class LpSolution:
    primal: np.ndarray  # (R, tau_1, ..., tau_L)
    dual: np.ndarray
    objective: float
    #: optimal basic columns, one per row, for ``lp_solve(..., start=...)``:
    #: structural columns by index, the last four counted from the end
    basis: tuple[int, ...]
    #: the inverse of that basis, which a warm start from this solution
    #: reuses instead of factorizing the basis again
    inverse: _Inverse = field(repr=False, compare=False)


def _two_rows(a, message: str) -> list[list[float]]:
    """The two rows of a 2 x L array (L >= 1) as lists of Python floats;
    ``ValueError(message)`` for any other shape, ragged rows included."""
    try:
        a = np.asarray(a, dtype=float)
    except ValueError:  # rows of unequal length
        raise ValueError(message) from None
    if a.ndim != 2 or a.shape[0] != 2 or a.shape[1] < 1:
        raise ValueError(message)
    return a.tolist()


def _times(rows, v) -> list[float]:
    """The product of a 5 x 5 matrix, given by its rows, with a vector."""
    v0, v1, v2, v3, v4 = v
    return [a * v0 + b * v1 + c * v2 + d * v3 + e * v4 for a, b, c, d, e in rows]


def _eta(binv: list, d: list[float], r: int) -> None:
    """Update the basis inverse ``binv`` when the column whose product
    with it is ``d`` replaces the basic column of row r: row r is
    divided by the pivot d[r], the other rows are cleared of d."""
    pivot = d[r]
    row = binv[r] = [v / pivot for v in binv[r]]
    for i, di in enumerate(d):
        if i != r and di != 0.0:
            binv[i] = [u - di * v for u, v in zip(binv[i], row)]


def _equilibrated(master: MasterLP) -> tuple[list, tuple[float, ...]]:
    """The solver's columns, surplus and slack columns last, and the
    right-hand side, with each row divided by its scale; the right-hand
    side is nonnegative."""
    s0, s1, s2, s3, s4 = master.scale
    cols = [(a / s0, b / s1, c / s2, d / s3, e / s4) for a, b, c, d, e in master.columns]
    P1, P2 = master.budget
    return cols + list(_EXTRA), (0.0, 0.0, P1 / s2, P2 / s3, 1.0 / s4)


def _crash_basis(master: MasterLP, cols) -> tuple[list[int], list | None]:
    """The feasible starting basis, listed by row: all time on strategy
    ``within`` (row 4), R on the rate row k whose ratio r_k / rho_k is
    smaller, the other rate row's surplus and both power slacks; and its
    inverse as a list of rows, or ``None`` when it is left to LAPACK.

    With a = R's equilibrated column and t = the strategy's (t_4 = 1),
    the basis matrix B solves in closed form: B x = v gives x_4 = v_4,
    x_k = (v_k - t_k v_4) / a_k, x_k' = a_k' x_k + t_k' v_4 - v_k' for
    the other rate row k', and x_i = v_i - t_i v_4 for the power rows.
    Every entry of the inverse is a coefficient of v there, and it
    agrees with LAPACK's to about an ulp.  The start must also lead
    where a factorized one leads, since the final basis (and so the
    result) depends on the pivots taken.  Entries of the inverse reach
    1 / |a_k|, and a pivot cancels them down to order 1, so the ulp
    between the two starts grows to an absolute difference of up to
    about 2.2e-16 / |a_k| in the next basis's duals.  Below
    ``_CLOSED_FORM_FLOOR`` = 1e-3 that difference would pass 2.2e-13,
    within a factor five of the smallest tolerance the pivots test
    against (``RATIO_TIE_TOL``), so the start is factorized.  The floor is
    conservative: over 240 000 seeded masters whose smaller profile
    entry was log-uniform down to 1e-20, a closed-form start changed
    the result of 213, all with |a_k| <= 2e-15.  Real masters stay above
    the floor: the smallest |a_k| was 0.007 over 3 766 Theorem-1
    masters on sec6 and 0.028 over the cold solves of two refused
    101-profile sweeps."""
    j = 1 + master.within
    ratio = [
        master.columns[j][k] / -master.columns[0][k] if master.columns[0][k] < 0.0 else math.inf
        for k in (0, 1)
    ]
    tight = 0 if ratio[0] <= ratio[1] else 1
    N = len(cols)
    basis = [*range(N - _N_EXTRA, N), j]
    basis[tight] = 0
    a, t = cols[0], cols[j]
    a_k = a[tight]
    if not abs(a_k) >= _CLOSED_FORM_FLOOR:
        return basis, None
    other = 1 - tight
    inv_k, shift_k = 1.0 / a_k, -t[tight] / a_k  # x_k = inv_k v_k + shift_k v_4
    binv = [
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0, -t[2]],
        [0.0, 0.0, 0.0, 1.0, -t[3]],
        [0.0, 0.0, 0.0, 0.0, 1.0],
    ]
    binv[tight][tight] = inv_k
    binv[tight][4] = shift_k
    binv[other][tight] = a[other] * inv_k
    binv[other][other] = -1.0
    binv[other][4] = a[other] * shift_k + t[other]
    return basis, binv


def _warm_basis(start: LpSolution, master: MasterLP, cols, b) -> tuple[list[int], list] | None:
    """The basis of ``start`` in this LP with the inverse it carries, if
    the basic columns that inverse was built from equal this master's
    and its basic solution is primal feasible, else ``None``.  Rows
    whose scale has grown since are rescaled."""
    N = len(cols)
    n = N - _N_EXTRA
    basis = [k if k >= 0 else N + k for k in start.basis]
    carried = start.inverse
    # a structural label beyond this master maps to None and cannot match
    if carried.columns != tuple([master.columns[j] if j < n else None for j in basis]):
        return None
    if carried.scale == master.scale:
        binv = list(carried.rows)
    else:
        # With D = diag(old scale / new scale), the basis matrix is now
        # D B E, where E undoes D on the unit surplus and slack columns;
        # so its inverse is E^-1 B^-1 D^-1.
        grow = [new / old for new, old in zip(master.scale, carried.scale)]
        binv = [
            [v * g / (grow[j - n] if j >= n else 1.0) for v, g in zip(row, grow)]
            for j, row in zip(basis, carried.rows)
        ]
    x_B = _times(binv, b)
    if not min([x for j, x in zip(basis, x_B) if j != 0]) >= -FEAS_TOL:
        return None
    return basis, binv


def _pivot(cols, b, basis: list[int], binv: list) -> int:
    """Revised simplex maximizing x_0 over sum_j cols[j] x_j = b, x >= 0
    except for x_0, which is free and basic at the start: the ratio test
    skips its row, so it never leaves.  ``cols`` holds 5-vectors, and
    ``binv`` is the inverse of the starting basis as a list of rows.
    Returns the number of pivots.

    Mutates ``basis``, and ``binv`` by one eta step per pivot so that it
    stays the basis inverse.  The duals y are binv's row at x_0's
    position, so the reduced cost of column j > 0 is -y . cols[j].
    Entering variable: lowest eligible index with reduced cost above
    tolerance; leaving variable: minimum-ratio row, ties (ratios equal
    to within ``RATIO_TIE_TOL``, relatively) broken by lowest
    basic-variable index (Bland's rule).

    A column whose computed direction is numerically zero while its
    reduced cost sits at the noise floor is retired rather than declared
    a recession ray: with equilibrated rows a genuine ray carries a
    clearly positive reduced cost.
    """
    free = basis.index(0)
    bounded = [i for i in range(5) if i != free]
    in_basis = set(basis)
    retired = set()
    pivots = 0
    for _ in range(_MAX_PIVOTS):
        x_B = _times(binv, b)
        if min([x_B[i] for i in bounded]) <= -1e-6:
            raise RuntimeError("simplex basis lost primal feasibility")
        y0, y1, y2, y3, y4 = binv[free]
        enter = -1
        for j, (a0, a1, a2, a3, a4) in enumerate(cols):
            if (
                y0 * a0 + y1 * a1 + y2 * a2 + y3 * a3 + y4 * a4 < -COST_TOL
                and j not in in_basis
                and j not in retired
            ):
                enter = j
                break
        if enter < 0:
            return pivots
        d = _times(binv, cols[enter])
        leave = -1
        best_ratio = math.inf
        for i in bounded:
            if d[i] > FEAS_TOL:
                ratio = max(x_B[i], 0.0) / d[i]
                if leave < 0 or ratio < best_ratio * _TIE_LOW:
                    best_ratio = ratio
                    leave = i
                elif ratio <= best_ratio * _TIE_HIGH and basis[i] < basis[leave]:
                    best_ratio = min(ratio, best_ratio)
                    leave = i
        if leave < 0:
            # d[free] = y . cols[enter], minus the reduced cost
            if -d[free] <= 1e-7 and max(d) <= 1e-9:
                retired.add(enter)
                continue
            raise RuntimeError("simplex reported an unbounded master LP")
        _eta(binv, d, leave)
        pivots += 1
        in_basis.discard(basis[leave])
        in_basis.add(enter)
        basis[leave] = enter
    raise RuntimeError("simplex pivot limit exceeded")


def _simplex(
    cols, b, basis: list[int], binv: list | None = None
) -> tuple[np.ndarray, np.ndarray, list]:
    """Revised simplex from a feasible basis holding column 0, as in
    :func:`_pivot`, returning the optimal basic solution x_B, the duals
    y and the basis inverse, all from a fresh factorization of the final
    basis: they carry no update error and depend on that basis alone.
    Reduced costs near the tolerance can change sign under the update
    error, so the basis must also pass the pricing with these duals;
    else the pivoting resumes.  With ``binv``, the inverse of the
    starting basis (carried by a warm start, or the crash basis's closed
    form), only the final basis is factorized; without it the solve
    begins with a factorization of the starting basis."""
    free = basis.index(0)
    if binv is not None:
        _pivot(cols, b, basis, binv)
    for _ in range(_MAX_PIVOTS):
        # One batched LAPACK call with one right-hand side per system:
        # the basis matrix against the unit vectors gives the columns of
        # its inverse and against b the basic solution, and its transpose
        # against e_free gives the duals.  (np.linalg.inv, which solves
        # against a matrix right-hand side, raised peak RSS by 0.17 MB
        # on its first call.)
        B_T = np.array([cols[j] for j in basis])
        systems = np.empty((7, 5, 5))
        systems[:6] = B_T.T
        systems[6] = B_T
        rhs = _SOLVE_RHS.copy()
        rhs[5, :, 0] = b
        rhs[6, free, 0] = 1.0
        solved = np.linalg.solve(systems, rhs)[..., 0]
        x_B, y = solved[5], solved[6]
        binv = solved[:5].T.tolist()
        binv[free] = y.tolist()
        if not _pivot(cols, b, basis, binv):
            return x_B, y, binv
    raise RuntimeError("simplex pivot limit exceeded")


def lp_solve(master: MasterLP, start: LpSolution | None = None) -> LpSolution:
    """Solve a master LP, reporting primal, duals and the optimal R.

    ``start`` resumes the simplex from an earlier solution of a master
    with the same rows and possibly more strategies: its basis inverse
    is reused without a factorization as long as the basic columns are
    unchanged.  Any other start, or one that is no longer a feasible
    basis, begins at the crash basis instead.  ``TypeError`` unless
    ``start`` is an :class:`LpSolution` or ``None``."""
    if start is not None and not isinstance(start, LpSolution):
        raise TypeError(f"start must be an LpSolution or None, not {type(start).__name__}")
    n = len(master.columns)
    N = n + _N_EXTRA
    scale = master.scale
    P1, P2 = master.budget
    cols, b = _equilibrated(master)
    warm = None if start is None else _warm_basis(start, master, cols, b)
    basis, binv = _crash_basis(master, cols) if warm is None else warm
    x_B, y, binv = _simplex(cols, b, basis, binv)
    primal = np.zeros(n)
    # residual of the unscaled rows, to which only basic columns add
    q0, q1, q2, q3, q4 = 0.0, 0.0, -P1, -P2, -1.0
    for j, x in zip(basis, x_B.tolist()):
        if j < n:
            x = max(x, 0.0)  # R >= 0: the rates are >= 0
            primal[j] = x
            a0, a1, a2, a3, a4 = master.columns[j]
            q0, q1, q2, q3, q4 = q0 + a0 * x, q1 + a1 * x, q2 + a2 * x, q3 + a3 * x, q4 + a4 * x
    for k, v in enumerate((-q0, -q1, q2, q3, abs(q4))):
        if v > 1e-6 * max(1.0, scale[k]):
            raise RuntimeError(f"simplex returned an infeasible point (row {k})")

    return LpSolution(
        primal=primal,
        dual=y / np.array(scale),  # undo the row scaling of y = c_B B^-1
        objective=float(primal[0]),
        basis=tuple([k if k < n else k - N for k in basis]),
        inverse=_Inverse(
            tuple(binv),
            tuple([master.columns[j] if j < n else None for j in basis]),
            scale,
        ),
    )
