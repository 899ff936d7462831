import itertools

import numpy as np
import pytest

from tinregions import lp as lp_module
from tinregions.lp import EQUAL, GREATER, LESS, LinearProgram, lp_solve


def brute_force_optimum(lp: LinearProgram):
    """Enumerate basic solutions: pick n linearly independent active
    constraints among rows and x_j = 0 bounds, solve, keep the feasible
    best.  Independent of the simplex path."""
    n = lp.n_vars
    candidates = []
    for coeffs, _, rhs in lp.rows:
        candidates.append((np.array(coeffs, float), float(rhs)))
    for j in range(n):
        if lp.lower[j] == 0.0:
            e = np.zeros(n)
            e[j] = 1.0
            candidates.append((e, 0.0))
    must = [k for k, (_, rel, _) in enumerate(lp.rows) if rel == EQUAL]
    best = None
    for combo in itertools.combinations(range(len(candidates)), n):
        if any(k not in combo for k in must):
            continue
        A = np.array([candidates[k][0] for k in combo])
        b = np.array([candidates[k][1] for k in combo])
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        x = np.linalg.solve(A, b)
        ok = all(
            x[j] >= -1e-9 for j in range(n) if lp.lower[j] == 0.0
        )
        for coeffs, rel, rhs in lp.rows:
            v = float(np.dot(coeffs, x))
            if rel == LESS and v > rhs + 1e-9:
                ok = False
            elif rel == GREATER and v < rhs - 1e-9:
                ok = False
            elif rel == EQUAL and abs(v - rhs) > 1e-9:
                ok = False
        if not ok:
            continue
        val = float(np.dot(lp.objective, x))
        if best is None:
            best = val
        elif lp.sense == "max":
            best = max(best, val)
        else:
            best = min(best, val)
    return best


def test_box_lp():
    lp = LinearProgram(
        "max",
        np.array([1.0, 1.0]),
        [(np.array([1.0, 0.0]), LESS, 1.0), (np.array([0.0, 1.0]), LESS, 1.0)],
    )
    sol = lp_solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(2.0, abs=1e-12)
    assert sol.primal == pytest.approx([1.0, 1.0], abs=1e-12)
    assert sol.dual == pytest.approx([1.0, 1.0], abs=1e-12)


def test_free_variable_minimization():
    lp = LinearProgram(
        "min",
        np.array([1.0]),
        [(np.array([1.0]), GREATER, 3.0)],
        lower=(-np.inf,),
    )
    sol = lp_solve(lp)
    assert sol.status == "optimal"
    assert sol.objective == pytest.approx(3.0, abs=1e-12)
    assert sol.dual == pytest.approx([1.0], abs=1e-12)


def test_rate_balancing_toy():
    lp = LinearProgram(
        "max",
        np.array([0.0, 0.0, 1.0]),
        [
            (np.array([1.0, 1.0, 0.0]), EQUAL, 1.0),
            (np.array([2.0, 0.0, -1.0]), GREATER, 0.0),
            (np.array([0.0, 2.0, -1.0]), GREATER, 0.0),
        ],
        lower=(0.0, 0.0, -np.inf),
    )
    sol = lp_solve(lp)
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.primal[:2] == pytest.approx([0.5, 0.5], abs=1e-9)
    assert sol.objective == pytest.approx(brute_force_optimum(lp), abs=1e-9)


def test_infeasible_detected():
    lp = LinearProgram("max", np.array([1.0]), [(np.array([1.0]), LESS, -1.0)])
    assert lp_solve(lp).status == "infeasible"


def test_infeasible_start_basis_raises():
    # a real error, not an assert, so it also fires under python -O
    with pytest.raises(RuntimeError, match="feasibility"):
        lp_module._simplex(np.eye(1), np.array([-1.0]), np.zeros(1), [0], np.ones(1, bool))


def test_phase1_failure_raises(monkeypatch):
    monkeypatch.setattr(lp_module, "_simplex", lambda *args: "unbounded")
    lp = LinearProgram("max", np.array([1.0]), [(np.array([1.0]), GREATER, 1.0)])
    with pytest.raises(RuntimeError, match="phase 1"):
        lp_solve(lp)


def test_unbounded_detected():
    lp = LinearProgram("max", np.array([1.0]), [(np.array([1.0]), GREATER, 1.0)])
    assert lp_solve(lp).status == "unbounded"


def test_malformed_dimensions_rejected():
    with pytest.raises(ValueError):
        LinearProgram("max", np.array([1.0, 2.0]), [(np.array([1.0]), LESS, 1.0)])
    with pytest.raises(ValueError):
        LinearProgram("best", np.array([1.0]), [])


def test_deterministic_bitwise():
    rng = np.random.default_rng(0)
    c = rng.normal(size=4)
    rows = [(rng.normal(size=4), LESS, float(rng.uniform(1, 3))) for _ in range(5)]
    lp = LinearProgram("max", c, rows)
    a = lp_solve(lp)
    b = lp_solve(LinearProgram("max", c, rows))
    assert a.primal.tobytes() == b.primal.tobytes()
    assert a.dual.tobytes() == b.dual.tobytes()
    assert a.objective == b.objective


def _random_bounded_lp(rng):
    n = int(rng.integers(2, 5))
    m = int(rng.integers(1, 5))
    c = rng.normal(size=n)
    rows = [(rng.normal(size=n), LESS, float(rng.uniform(0.5, 3.0))) for _ in range(m)]
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, LESS, float(rng.uniform(1.0, 5.0))))
    return LinearProgram("max", c, rows)


def test_random_lps_match_enumeration_oracle():
    rng = np.random.default_rng(42)
    for _ in range(60):
        lp = _random_bounded_lp(rng)
        sol = lp_solve(lp)
        assert sol.status == "optimal"
        want = brute_force_optimum(lp)
        assert sol.objective == pytest.approx(want, abs=1e-7)
        for coeffs, rel, rhs in lp.rows:
            residual = float(coeffs @ sol.primal) - rhs
            assert residual <= 1e-9 if rel == LESS else abs(residual) <= 1e-9
        assert np.all(sol.primal >= -1e-9)


def test_strong_duality_and_complementary_slackness():
    rng = np.random.default_rng(43)
    for _ in range(40):
        lp = _random_bounded_lp(rng)
        sol = lp_solve(lp)
        rhs = np.array([r for _, _, r in lp.rows])
        # strong duality: primal objective equals the dual bound y^T b
        assert sol.objective == pytest.approx(float(sol.dual @ rhs), abs=1e-7)
        # complementary slackness: positive price only on an active row
        for (coeffs, _, r), y in zip(lp.rows, sol.dual):
            slack = r - float(coeffs @ sol.primal)
            assert abs(y * slack) <= 1e-7


def test_vertex_solutions():
    rng = np.random.default_rng(44)
    for _ in range(40):
        lp = _random_bounded_lp(rng)
        sol = lp_solve(lp)
        support = int(np.sum(np.abs(sol.primal) > 1e-9))
        assert support <= len(lp.rows)


def test_redundant_duplicate_row_changes_nothing():
    rng = np.random.default_rng(45)
    lp = _random_bounded_lp(rng)
    sol = lp_solve(lp)
    dup = LinearProgram("max", lp.objective, lp.rows + [lp.rows[0]])
    sol2 = lp_solve(dup)
    assert sol2.objective == pytest.approx(sol.objective, abs=1e-9)
