"""Dense revised-simplex solver returning primal and dual solutions.

Sized for the small linear programs that arise in the cutting-plane
loop and in primal recovery (a handful of structural variables, at most
a few hundred rows).  Every iteration recomputes the basic solution,
duals and pivot column directly from the original (row-equilibrated)
data, so no update error can accumulate; pivoting uses Bland's rule
throughout, which rules out cycling and makes the solver deterministic:
identical inputs produce bitwise-identical outputs.  Returned solutions
are basic (vertex) solutions.

Dual values follow the shadow-price convention: ``dual[i]`` is the
sensitivity of the optimal objective (in the problem's own sense) to
the right-hand side of row i.

A solve can resume from an earlier optimal basis (``start``, taken from
``LpSolution.basis``).  Basic columns are labelled by what they are,
not where they sit: ``("x+", j)`` and ``("x-", j)`` for the two parts of
variable j (the second exists only for a free variable) and
``("slack", i)`` for the slack or surplus of row i.  The labels survive
appending variables to an LP with unchanged rows, which keeps the old
basis primal feasible (the new variables start nonbasic at zero), so
phase 1 is skipped and phase 2 continues from there.  A start that does
not map onto a nonsingular, primal feasible basis of the new LP falls
back to the cold two-phase solve.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

__all__ = ["LESS", "GREATER", "EQUAL", "LinearProgram", "LpSolution", "lp_solve"]

LESS = "<="
GREATER = ">="
EQUAL = "="

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


@dataclass
class LinearProgram:
    """``sense`` is ``"max"`` or ``"min"``; each row is a
    ``(coefficients, relation, rhs)`` triple; ``lower`` gives the lower
    bound of each variable, either ``0.0`` or ``-inf`` (default all 0)."""

    sense: str
    objective: np.ndarray
    rows: list[tuple[np.ndarray, str, float]]
    lower: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.sense not in ("max", "min"):
            raise ValueError(f"sense must be 'max' or 'min', got {self.sense!r}")
        self.objective = np.asarray(self.objective, dtype=float)
        if self.objective.ndim != 1:
            raise ValueError("objective must be a vector")
        n = self.objective.size
        if not np.all(np.isfinite(self.objective)):
            raise ValueError("objective coefficients must be finite")
        norm_rows = []
        for coeffs, rel, rhs in self.rows:
            coeffs = np.asarray(coeffs, dtype=float)
            if coeffs.shape != (n,):
                raise ValueError(
                    f"row dimension {coeffs.shape} does not match objective size {n}"
                )
            if rel not in (LESS, GREATER, EQUAL):
                raise ValueError(f"unknown relation {rel!r}")
            rhs = float(rhs)
            if not (np.all(np.isfinite(coeffs)) and np.isfinite(rhs)):
                raise ValueError("row coefficients must be finite")
            norm_rows.append((coeffs, rel, rhs))
        self.rows = norm_rows
        if self.lower is None:
            self.lower = (0.0,) * n
        else:
            # a list, not a generator: tuple() resizes a generator's result
            # as it grows, and over thousands of LPs of growing width the
            # resized blocks stranded 1.7 MB of small-object arenas
            self.lower = tuple([float(b) for b in self.lower])
            if len(self.lower) != n:
                raise ValueError("lower bounds must match the number of variables")
            for b in self.lower:
                if b != 0.0 and not b == -np.inf:
                    raise ValueError("variable lower bounds must be 0 or -inf")

    @property
    def n_vars(self) -> int:
        return self.objective.size


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    primal: np.ndarray | None = None
    dual: np.ndarray | None = None
    objective: float | None = None
    # optimal basic columns and the column layout that names them; the
    # labels are built only when ``basis`` is read
    _basic: tuple | None = field(default=None, repr=False, compare=False)

    @property
    def basis(self) -> tuple[tuple[str, int], ...] | None:
        """Labels of the optimal basic columns, one per row, for
        ``lp_solve(..., start=...)``; ``None`` unless optimal."""
        if self._basic is None:
            return None
        cols, layout = self._basic
        return tuple([_label(k, *layout) for k in cols])


def _label(
    k: int, col_of_var: list[tuple[int, int]], n_struct: int, extra_rows: list[int], n_slack: int
) -> tuple[str, int]:
    """Label of extended column k: the structural parts come first, then
    the slack or surplus columns, then the artificials, each with its
    row."""
    if k >= n_struct:
        k -= n_struct
        return ("slack" if k < n_slack else "artificial", extra_rows[k])
    j = next(j for j, pair in enumerate(col_of_var) if k in pair)
    return ("x+" if k == col_of_var[j][0] else "x-", j)


def _column(
    label: tuple[str, int],
    col_of_var: list[tuple[int, int]],
    n_struct: int,
    extra_rows: list[int],
    n_slack: int,
) -> int:
    """Extended column carrying a non-artificial label, or -1."""
    kind, i = label
    if kind in ("x+", "x-") and 0 <= i < len(col_of_var):
        return col_of_var[i][kind == "x-"]  # -1 for the x- of a bounded variable
    if kind == "slack" and i in extra_rows[:n_slack]:
        return n_struct + extra_rows.index(i)
    return -1


def _warm_basis(
    start: Sequence[tuple[str, int]], layout: tuple, A_ext: np.ndarray, b: np.ndarray
) -> list[int] | None:
    """Columns of ``start`` in this LP if they form a nonsingular basis
    whose basic solution is primal feasible, else ``None``."""
    cols = [_column(label, *layout) for label in start]
    m = A_ext.shape[0]
    if len(cols) != m or min(cols, default=0) < 0 or len(set(cols)) != m:
        return None
    B = A_ext[:, cols]
    if not np.linalg.cond(B) <= _WARM_COND_MAX:
        return None
    x_B = np.linalg.solve(B, b)
    if not float(np.min(x_B, initial=0.0)) >= -FEAS_TOL:
        return None
    return cols


def _simplex(A_ext: np.ndarray, b: np.ndarray, costs: np.ndarray, basis: list[int], allowed: np.ndarray) -> str:
    """Revised simplex maximizing ``costs`` over A_ext x = b, x >= 0.

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
    live = allowed.copy()
    for _ in range(_MAX_PIVOTS):
        B = A_ext[:, basis]
        x_B = np.linalg.solve(B, b)
        if float(np.min(x_B, initial=0.0)) <= -1e-6:
            raise RuntimeError("simplex basis lost primal feasibility")
        y = np.linalg.solve(B.T, costs[basis])
        reduced = costs - y @ A_ext
        enter = -1
        for j in range(N):
            if live[j] and not in_basis[j] and reduced[j] > COST_TOL:
                enter = j
                break
        if enter < 0:
            return "optimal"
        d = np.linalg.solve(B, A_ext[:, enter])
        leave = -1
        best_ratio = np.inf
        for i in range(m):
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
            return "unbounded"
        in_basis[basis[leave]] = False
        in_basis[enter] = True
        basis[leave] = enter
    raise RuntimeError("simplex pivot limit exceeded")


def lp_solve(lp: LinearProgram, start: Sequence[tuple[str, int]] | None = None) -> LpSolution:
    """Solve a small dense LP, reporting primal, duals and the objective.

    ``start`` is the ``basis`` of an earlier solution of an LP with the
    same rows and possibly more variables; when it is still a feasible
    basis, phase 1 is skipped."""
    n = lp.n_vars
    m = len(lp.rows)
    maximize = lp.sense == "max"

    A = np.array([coeffs for coeffs, _, _ in lp.rows], dtype=float).reshape(m, n)
    rhs0 = np.array([r for _, _, r in lp.rows], dtype=float)
    rels0 = [rel for _, rel, _ in lp.rows]

    # Normalize: flip rows to nonnegative rhs, then equilibrate row scales.
    flip = np.ones(m)
    rels = list(rels0)
    rhs = rhs0.copy()
    for i in range(m):
        if rhs[i] < 0.0:
            rhs[i] = -rhs[i]
            flip[i] = -1.0
            rels[i] = {LESS: GREATER, GREATER: LESS, EQUAL: EQUAL}[rels[i]]
    A_norm = A * flip[:, None]
    scale = np.maximum(np.abs(A_norm).max(axis=1, initial=0.0), rhs)
    scale[scale <= 0.0] = 1.0
    A_norm = A_norm / scale[:, None]
    rhs = rhs / scale

    # Split variables with a free lower bound into x+ - x-.
    obj = lp.objective if maximize else -lp.objective
    col_of_var: list[tuple[int, int]] = []
    cols: list[np.ndarray] = []
    c_ext: list[float] = []
    for j in range(n):
        cols.append(A_norm[:, j])
        c_ext.append(obj[j])
        if lp.lower[j] == 0.0:
            col_of_var.append((len(cols) - 1, -1))
        else:
            cols.append(-A_norm[:, j])
            c_ext.append(-obj[j])
            col_of_var.append((len(cols) - 2, len(cols) - 1))
    n_struct = len(cols)

    # Slack / surplus columns, then artificials.  A >= row with zero rhs
    # starts feasibly on its own surplus variable, so artificials are
    # needed only for equalities and >= rows with positive rhs; this
    # keeps phase 1 to a handful of pivots in the cut LPs, whose
    # generated rows all pass through the origin.
    basis = [-1] * m
    artificial: list[int] = []
    extra: list[np.ndarray] = []
    extra_rows: list[int] = []
    for i, rel in enumerate(rels):
        if rel == LESS:
            col = np.zeros(m)
            col[i] = 1.0
            extra.append(col)
            extra_rows.append(i)
            c_ext.append(0.0)
            basis[i] = n_struct + len(extra) - 1
        elif rel == GREATER:
            col = np.zeros(m)
            col[i] = -1.0
            extra.append(col)
            extra_rows.append(i)
            c_ext.append(0.0)
            if rhs[i] == 0.0:
                basis[i] = n_struct + len(extra) - 1
    n_slack = len(extra)
    for i, rel in enumerate(rels):
        if basis[i] < 0:
            col = np.zeros(m)
            col[i] = 1.0
            extra.append(col)
            extra_rows.append(i)
            c_ext.append(0.0)
            basis[i] = n_struct + len(extra) - 1
            artificial.append(basis[i])

    N = n_struct + len(extra)
    A_ext = np.zeros((m, N))
    for k, col in enumerate(cols):
        A_ext[:, k] = col
    for k, col in enumerate(extra):
        A_ext[:, n_struct + k] = col
    layout = (col_of_var, n_struct, extra_rows, n_slack)

    is_artificial = np.zeros(N, dtype=bool)
    is_artificial[artificial] = True

    warm = None
    if start is not None:
        warm = _warm_basis(start, layout, A_ext, rhs)
    if warm is not None:
        basis = warm
    # Phase 1: drive the artificials to zero.
    elif artificial:
        costs1 = np.zeros(N)
        costs1[artificial] = -1.0
        status = _simplex(A_ext, rhs, costs1, basis, np.ones(N, dtype=bool))
        if status != "optimal":  # phase-1 objective is bounded above by 0
            raise RuntimeError(f"phase 1 of the simplex reported {status}")
        B = A_ext[:, basis]
        x_B = np.linalg.solve(B, rhs)
        infeas = float(np.sum(x_B[is_artificial[basis]]))
        if infeas > 1e-7:
            return LpSolution(status="infeasible")
        # Pivot any artificial still basic (at zero) out on a real column.
        for i in range(m):
            if is_artificial[basis[i]]:
                B = A_ext[:, basis]
                w = np.linalg.solve(B.T, np.eye(m)[i])
                row = w @ A_ext
                for j in range(N):
                    if not is_artificial[j] and j not in basis and abs(row[j]) > 1e-7:
                        basis[i] = j
                        break
                # A row with no eligible column is redundant; the
                # artificial stays basic at zero and never re-enters.

    # Phase 2 over the original objective; artificials may not re-enter.
    costs2 = np.array(c_ext)
    costs2[is_artificial] = 0.0
    status = _simplex(A_ext, rhs, costs2, basis, ~is_artificial)
    if status == "unbounded":
        return LpSolution(status="unbounded")

    B = A_ext[:, basis]
    x_B = np.linalg.solve(B, rhs)
    x_ext = np.zeros(N)
    x_ext[basis] = np.maximum(x_B, 0.0)
    primal = np.empty(n)
    for j, (jp, jm) in enumerate(col_of_var):
        primal[j] = x_ext[jp] - (x_ext[jm] if jm >= 0 else 0.0)
    value_max = float(costs2 @ x_ext)

    # Duals y = c_B B^{-1}, then undo the scaling, flips and sense change.
    y = np.linalg.solve(B.T, costs2[basis])
    y = y / scale * flip
    if not maximize:
        y = -y
    value = value_max if maximize else -value_max

    residual = A @ primal - rhs0
    for i, rel in enumerate(rels0):
        tol = 1e-6 * max(1.0, scale[i])
        bad = (
            (rel == EQUAL and abs(residual[i]) > tol)
            or (rel == LESS and residual[i] > tol)
            or (rel == GREATER and residual[i] < -tol)
        )
        if bad:
            raise RuntimeError(f"simplex returned an infeasible point (row {i})")

    return LpSolution(
        status="optimal",
        primal=primal,
        dual=y,
        objective=value,
        _basic=(basis, layout),
    )
