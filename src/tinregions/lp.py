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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["LESS", "GREATER", "EQUAL", "LinearProgram", "LpSolution", "lp_solve"]

LESS = "<="
GREATER = ">="
EQUAL = "="

FEAS_TOL = 1e-9
COST_TOL = 1e-10
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
            self.lower = tuple(float(b) for b in self.lower)
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


def _simplex(A_ext: np.ndarray, b: np.ndarray, costs: np.ndarray, basis: list[int], allowed: np.ndarray) -> str:
    """Revised simplex maximizing ``costs`` over A_ext x = b, x >= 0.

    Mutates ``basis``.  Entering variable: lowest eligible index with
    reduced cost above tolerance; leaving variable: minimum-ratio row,
    ties broken by lowest basic-variable index (Bland's rule).

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
                if ratio < best_ratio - FEAS_TOL or (
                    ratio < best_ratio + FEAS_TOL
                    and (leave < 0 or basis[i] < basis[leave])
                ):
                    best_ratio = ratio
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


def lp_solve(lp: LinearProgram) -> LpSolution:
    """Solve a small dense LP, reporting primal, duals and the objective."""
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
    for i, rel in enumerate(rels):
        if rel == LESS:
            col = np.zeros(m)
            col[i] = 1.0
            extra.append(col)
            c_ext.append(0.0)
            basis[i] = n_struct + len(extra) - 1
        elif rel == GREATER:
            col = np.zeros(m)
            col[i] = -1.0
            extra.append(col)
            c_ext.append(0.0)
            if rhs[i] == 0.0:
                basis[i] = n_struct + len(extra) - 1
    for i, rel in enumerate(rels):
        if basis[i] < 0:
            col = np.zeros(m)
            col[i] = 1.0
            extra.append(col)
            c_ext.append(0.0)
            basis[i] = n_struct + len(extra) - 1
            artificial.append(basis[i])

    N = n_struct + len(extra)
    A_ext = np.zeros((m, N))
    for k, col in enumerate(cols):
        A_ext[:, k] = col
    for k, col in enumerate(extra):
        A_ext[:, n_struct + k] = col

    is_artificial = np.zeros(N, dtype=bool)
    is_artificial[artificial] = True

    # Phase 1: drive the artificials to zero.
    if artificial:
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

    return LpSolution(status="optimal", primal=primal, dual=y, objective=value)
