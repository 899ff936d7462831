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


def test_ratio_ties_are_relative():
    # ratios 1.349e-8 (row 0) and 1.284e-8 (row 1) differ by 5 %; the
    # minimum must leave, or row 1's basic value falls to -0.0137
    A_ext = np.array([[1.0, 1.0, 0.0], [2.1e7, 0.0, 1.0]])
    b = np.array([1.349e-8, 2.1e7 * 1.284e-8])
    basis = [1, 2]
    status = lp_module._simplex(A_ext, b, np.array([1.0, 0.0, 0.0]), basis, np.ones(3, bool))
    assert status == "optimal"
    assert basis == [1, 0]


def _master_like_lp(rng, n_cols):
    """max R over (R, tau) with rate rows tau.r_k >= rho_k R, power rows
    tau.p_k <= P_k and sum(tau) = 1; column 0 is within budget, so every
    column set is feasible."""
    r = rng.uniform(0.0, 5.0, (2, n_cols))
    p = rng.uniform(0.0, 20.0, (2, n_cols))
    p[:, 0] = 5.0
    rho = rng.uniform(0.1, 0.9)
    rows = [
        (np.append(-rho, r[0]), GREATER, 0.0),
        (np.append(-(1.0 - rho), r[1]), GREATER, 0.0),
        (np.append(0.0, p[0]), LESS, 10.0),
        (np.append(0.0, p[1]), LESS, 10.0),
        (np.append(0.0, np.ones(n_cols)), EQUAL, 1.0),
    ]
    objective = np.zeros(n_cols + 1)
    objective[0] = 1.0
    return LinearProgram("max", objective, rows, lower=(-np.inf,) + (0.0,) * n_cols)


def _first_columns(lp, n_cols):
    rows = [(coeffs[: n_cols + 1], rel, rhs) for coeffs, rel, rhs in lp.rows]
    return LinearProgram(lp.sense, lp.objective[: n_cols + 1], rows, lower=lp.lower[: n_cols + 1])


def _counting_simplex(monkeypatch):
    calls = []
    original = lp_module._simplex

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(lp_module, "_simplex", counting)
    return calls


def test_basis_labels_name_columns_by_role():
    lp = LinearProgram(
        "max",
        np.array([1.0, 0.0, -1.0]),
        [
            (np.array([1.0, 0.0, 0.0]), LESS, 1.0),
            (np.array([0.0, 1.0, 0.0]), LESS, 1.0),
            (np.array([1.0, 0.0, -1.0]), LESS, 3.0),
        ],
        lower=(0.0, 0.0, -np.inf),
    )
    sol = lp_solve(lp)
    assert sol.objective == pytest.approx(3.0, abs=1e-12)
    assert sorted(sol.basis) == [("slack", 1), ("x+", 0), ("x-", 2)]
    unbounded = LinearProgram("max", np.array([1.0]), [(np.array([1.0]), GREATER, 1.0)])
    assert lp_solve(unbounded).basis is None


def test_warm_start_after_appending_columns_matches_cold(monkeypatch):
    rng = np.random.default_rng(46)
    calls = _counting_simplex(monkeypatch)
    for _ in range(30):
        n_old = int(rng.integers(1, 8))
        full = _master_like_lp(rng, n_old + int(rng.integers(1, 4)))
        old = lp_solve(_first_columns(full, n_old))
        cold = lp_solve(full)
        del calls[:]
        warm = lp_solve(full, start=old.basis)
        assert len(calls) == 1  # phase 2 only
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
        assert warm.primal[0] == pytest.approx(cold.primal[0], abs=1e-12)
        assert lp_solve(full, start=old.basis).primal.tobytes() == warm.primal.tobytes()


def test_unusable_start_falls_back_to_cold():
    lp = LinearProgram(
        "max",
        np.array([1.0, 1.0]),
        [
            (np.array([1.0, 0.0]), LESS, 1.0),
            (np.array([0.0, 1.0]), LESS, 1.0),
            (np.array([1.0, 1.0]), LESS, 1.5),
        ],
    )
    cold = lp_solve(lp)
    starts = [
        [("x+", 0), ("x+", 1), ("slack", 2)],  # infeasible: slack 2 at -0.5
        [("x+", 0), ("x+", 0), ("slack", 2)],  # repeated column, singular
        [("x+", 0), ("slack", 0), ("slack", 2)],  # singular
        [("x+", 0), ("x+", 1)],  # one label short
        [("x+", 0), ("x+", 9), ("slack", 2)],  # no such variable
        [("x-", 0), ("x+", 1), ("slack", 2)],  # x0 is not free
        [("artificial", 0), ("x+", 1), ("slack", 2)],
    ]
    for start in starts:
        sol = lp_solve(lp, start=start)
        assert sol.primal.tobytes() == cold.primal.tobytes()
        assert sol.dual.tobytes() == cold.dual.tobytes()
        assert sol.basis == cold.basis


def test_cold_start_runs_phase_1(monkeypatch):
    lp = _master_like_lp(np.random.default_rng(47), 4)
    calls = _counting_simplex(monkeypatch)
    sol = lp_solve(lp, start=[("x+", 0)] * 5)
    assert len(calls) == 2
    assert sol.objective == lp_solve(lp).objective
