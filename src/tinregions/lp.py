"""Dense revised simplex for the five-row master LP, returning primal
and dual solutions.

Every LP the package solves is the master of coded time-sharing
(:class:`MasterLP`): time-sharing weights tau over L strategies with
known rates and powers, chosen to maximize the common rate scale R.
Every iteration recomputes the basic solution, duals and pivot column
directly from the original (row-equilibrated) data, so no update error
can accumulate; pivoting uses Bland's rule throughout, which rules out
cycling and makes the solver deterministic: identical inputs produce
bitwise-identical outputs.  Returned solutions are basic (vertex)
solutions, so at most five weights are positive.

Dual values follow the shadow-price convention: ``dual[i]`` is the
sensitivity of the optimal R to the right-hand side of row i.

Every master has a strategy within both budgets, so the simplex starts
at a feasible vertex that is known in advance (a crash basis): all time
on that strategy, R as large as its rates allow, the surplus of the
other rate row and both power slacks basic.  R is a free column that is
basic from the start and never leaves the basis.  The solver's columns
are R, tau_1 ... tau_L, the surplus columns of the rate rows and the
slack columns of the power rows.  A solve can resume from an earlier
optimal basis (``start``, taken from ``LpSolution.basis``): structural
columns are numbered from the front and the last four from the end, so
a basis stays valid when tau columns are appended to a master with
unchanged rows.  The old basis is then still primal feasible (the new
weights start nonbasic at zero).  A start that does not map onto a
nonsingular, primal feasible basis holding R falls back to the crash
basis.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

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
#: Largest condition number accepted for a warm-start basis.
_WARM_COND_MAX = 1e12
_MAX_PIVOTS = 50_000
#: Surplus (rate rows) and slack (power rows) columns, the last four
#: columns of every master.
_EXTRA = np.vstack([np.diag([-1.0, -1.0, 1.0, 1.0]), np.zeros(4)])
_M = 5
_N_EXTRA = 4


class MasterLP:
    """The master over the variables (R, tau_1, ..., tau_L): maximize R
    subject to sum_i tau_i r_k,i >= rho_k R (rows 0, 1), sum_i tau_i
    p_k,i <= P_k (rows 2, 3) and sum_i tau_i = 1 (row 4), tau >= 0 and
    R free.

    ``rates`` and ``powers`` are 2 x L (row k for user k + 1),
    ``budget`` is (P1, P2) and ``rho`` the rate profile.  ``rows`` is
    the 5 x (1 + L) constraint matrix and ``rhs`` is (0, 0, P1, P2, 1).
    ``within`` is the index of the first strategy whose powers lie
    within both budgets; the simplex starts there.  ``ValueError``
    unless every value is finite, the budgets are >= 0, the rates are
    >= 0, rho has a positive entry and some strategy lies within both
    budgets.
    """

    __slots__ = ("rows", "rhs", "within")

    def __init__(self, rates, powers, budget, rho):
        rates = np.asarray(rates, dtype=float)
        powers = np.asarray(powers, dtype=float)
        if rates.ndim != 2 or rates.shape[0] != 2 or rates.shape[1] < 1:
            raise ValueError("rates must be 2 x L with at least one strategy")
        if powers.shape != rates.shape:
            raise ValueError("powers must match the shape of rates")
        rows = np.zeros((_M, 1 + rates.shape[1]))
        rows[:2, 0] = -np.asarray(rho, dtype=float)
        rows[:2, 1:] = rates
        rows[2:4, 1:] = powers
        rows[4, 1:] = 1.0
        rhs = np.array([0.0, 0.0, *budget, 1.0], dtype=float)
        if not (np.all(np.isfinite(rows)) and np.all(np.isfinite(rhs))):
            raise ValueError("master coefficients must be finite")
        if not rhs[2:4].min() >= 0.0:
            raise ValueError("budgets must be >= 0")
        if not rates.min() >= 0.0:
            raise ValueError("rates must be >= 0")
        if not rows[:2, 0].min() < 0.0:
            raise ValueError("rho must have a positive entry")
        within = np.flatnonzero(np.all(powers <= rhs[2:4, None], axis=0))
        if not within.size:
            raise ValueError("no strategy lies within both budgets")
        self.rows = rows
        self.rhs = rhs
        self.within = int(within[0])


@dataclass(frozen=True)
class LpSolution:
    primal: np.ndarray  # (R, tau_1, ..., tau_L)
    dual: np.ndarray
    objective: float
    #: optimal basic columns, one per row, for ``lp_solve(..., start=...)``:
    #: structural columns by index, the last four counted from the end
    basis: tuple[int, ...]


def _crash_basis(master: MasterLP, N: int) -> list[int]:
    """The feasible starting basis, listed by row: all time on strategy
    ``within`` (row 4), R on the rate row whose ratio r_k / rho_k is
    smaller, the other rate row's surplus and both power slacks."""
    j = 1 + master.within
    rho = -master.rows[:2, 0]
    ratio = [master.rows[k, j] / rho[k] if rho[k] > 0.0 else np.inf for k in (0, 1)]
    tight = 0 if ratio[0] <= ratio[1] else 1
    basis = [*range(N - _N_EXTRA, N), j]
    basis[tight] = 0
    return basis


def _warm_basis(start: Sequence[int], A_ext: np.ndarray, b: np.ndarray) -> list[int] | None:
    """Columns of ``start`` in this LP if they form a nonsingular basis
    holding R whose basic solution is primal feasible, else ``None``."""
    N = A_ext.shape[1]
    n_struct = N - _N_EXTRA
    # -1 marks a column this LP lacks
    cols = [
        k if 0 <= k < n_struct else N + k if -_N_EXTRA <= k < 0 else -1 for k in map(int, start)
    ]
    if len(cols) != _M or min(cols, default=0) < 0 or len(set(cols)) != _M or 0 not in cols:
        return None
    B = A_ext[:, cols]
    if not np.linalg.cond(B) <= _WARM_COND_MAX:
        return None
    x_B = np.linalg.solve(B, b)
    x_B[cols.index(0)] = 0.0  # R is free
    if not float(np.min(x_B)) >= -FEAS_TOL:
        return None
    return cols


def _simplex(
    A_ext: np.ndarray, b: np.ndarray, costs: np.ndarray, basis: list[int]
) -> tuple[np.ndarray, np.ndarray]:
    """Revised simplex maximizing ``costs`` over A_ext x = b, x >= 0
    except for column 0, which is free once basic: the ratio test skips
    its row, so it never leaves.  Returns the optimal basic solution
    x_B and the duals y.

    Mutates ``basis``.  Entering variable: lowest eligible index with
    reduced cost above tolerance; leaving variable: minimum-ratio row,
    ties (ratios equal to within ``RATIO_TIE_TOL``, relatively) broken
    by lowest basic-variable index (Bland's rule).

    A column whose computed direction is numerically zero while its
    reduced cost sits at the noise floor is retired rather than declared
    a recession ray: with equilibrated rows a genuine ray carries a
    clearly positive reduced cost.
    """
    m, N = A_ext.shape
    in_basis = np.zeros(N, dtype=bool)
    in_basis[basis] = True
    live = np.ones(N, dtype=bool)
    for _ in range(_MAX_PIVOTS):
        B = A_ext[:, basis]
        x_B = np.linalg.solve(B, b)
        bounded = [i for i in range(m) if basis[i] != 0]
        if float(np.min(x_B[bounded], initial=0.0)) <= -1e-6:
            raise RuntimeError("simplex basis lost primal feasibility")
        y = np.linalg.solve(B.T, costs[basis])
        reduced = costs - y @ A_ext
        enter = -1
        for j in range(N):
            if live[j] and not in_basis[j] and reduced[j] > COST_TOL:
                enter = j
                break
        if enter < 0:
            return x_B, y
        d = np.linalg.solve(B, A_ext[:, enter])
        leave = -1
        best_ratio = np.inf
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
            if reduced[enter] <= 1e-7 and float(np.max(d)) <= 1e-9:
                live[enter] = False
                continue
            raise RuntimeError("simplex reported an unbounded master LP")
        in_basis[basis[leave]] = False
        in_basis[enter] = True
        basis[leave] = enter
    raise RuntimeError("simplex pivot limit exceeded")


def lp_solve(master: MasterLP, start: Sequence[int] | None = None) -> LpSolution:
    """Solve a master LP, reporting primal, duals and the optimal R.

    ``start`` is the ``basis`` of an earlier solution of a master with
    the same rows and possibly more strategies; when it is still a
    feasible basis, the simplex resumes there instead of at the crash
    basis."""
    A = master.rows
    rhs0 = master.rhs
    n = A.shape[1]

    # Equilibrate row scales; the right-hand side is nonnegative.
    scale = np.maximum(np.abs(A).max(axis=1, initial=0.0), rhs0)
    scale[scale <= 0.0] = 1.0
    A_norm = A / scale[:, None]
    rhs = rhs0 / scale

    A_ext = np.hstack([A_norm, _EXTRA])
    N = A_ext.shape[1]
    c_ext = np.zeros(N)
    c_ext[0] = 1.0

    basis = None if start is None else _warm_basis(start, A_ext, rhs)
    if basis is None:
        basis = _crash_basis(master, N)
    x_B, y = _simplex(A_ext, rhs, c_ext, basis)

    x_ext = np.zeros(N)
    x_ext[basis] = np.maximum(x_B, 0.0)  # R >= 0: the rates are >= 0
    primal = x_ext[:n]
    # Undo the row scaling of the duals y = c_B B^{-1}.
    y = y / scale

    residual = A @ primal - rhs0
    violation = np.concatenate([-residual[:2], residual[2:4], np.abs(residual[4:])])
    bad = np.flatnonzero(violation > 1e-6 * np.maximum(1.0, scale))
    if bad.size:
        raise RuntimeError(f"simplex returned an infeasible point (row {bad[0]})")

    return LpSolution(
        primal=primal,
        dual=y,
        objective=float(primal[0]),
        basis=tuple([k if k < n else k - N for k in basis]),
    )
