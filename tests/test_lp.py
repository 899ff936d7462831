import itertools
import math
import warnings

import numpy as np
import pytest

from tinregions import lp as lp_module
from tinregions.lp import MasterLP, lp_solve

LESS = "<="
GREATER = ">="
EQUAL = "="
#: relation of each master row: two rate rows, two power rows, the simplex row
RELATIONS = (GREATER, GREATER, LESS, LESS, EQUAL)


def _rhs(master: MasterLP) -> np.ndarray:
    """The master's right-hand side (0, 0, P1, P2, 1)."""
    return np.array([0.0, 0.0, *master.budget, 1.0])


def brute_force_optimum(master: MasterLP):
    """Enumerate basic solutions over (R, tau): pick n linearly
    independent active constraints among the rows and the tau_j = 0
    bounds (R is free), solve, keep the feasible best.  Independent of
    the simplex path."""
    rows = master.rows
    rhs_all = _rhs(master)
    n = rows.shape[1]
    candidates = [(rows[i], float(rhs_all[i])) for i in range(len(rows))]
    for j in range(1, n):
        e = np.zeros(n)
        e[j] = 1.0
        candidates.append((e, 0.0))
    best = None
    for combo in itertools.combinations(range(len(candidates)), n):
        if 4 not in combo:  # the simplex row is an equality
            continue
        A = np.array([candidates[k][0] for k in combo])
        b = np.array([candidates[k][1] for k in combo])
        if abs(np.linalg.det(A)) < 1e-9:
            continue
        x = np.linalg.solve(A, b)
        ok = bool(np.all(x[1:] >= -1e-9))
        for coeffs, rel, rhs in zip(rows, RELATIONS, rhs_all):
            v = float(np.dot(coeffs, x))
            if rel == LESS and v > rhs + 1e-9:
                ok = False
            elif rel == GREATER and v < rhs - 1e-9:
                ok = False
            elif rel == EQUAL and abs(v - rhs) > 1e-9:
                ok = False
        if ok and (best is None or x[0] > best):
            best = x[0]
    return best


def _box_master():
    """Silence and a strategy whose user-1 power breaches the budget:
    the optimum mixes them half and half on the user-1 budget, with the
    user-1 rate row binding."""
    return MasterLP([[0.0, 4.0], [0.0, 6.0]], [[0.0, 20.0], [0.0, 10.0]], (10.0, 10.0), (0.5, 0.5))


def test_box_lp():
    sol = lp_solve(_box_master())
    assert sol.objective == pytest.approx(4.0, abs=1e-12)
    assert sol.primal == pytest.approx([4.0, 0.5, 0.5], abs=1e-12)
    assert sol.dual == pytest.approx([-2.0, 0.0, 0.4, 0.0, 0.0], abs=1e-12)


def test_rate_balancing_toy():
    master = MasterLP([[2.0, 0.0], [0.0, 2.0]], [[0.0, 0.0], [0.0, 0.0]], (1.0, 1.0), (0.5, 0.5))
    sol = lp_solve(master)
    assert sol.objective == pytest.approx(2.0, abs=1e-9)
    assert sol.primal[1:] == pytest.approx([0.5, 0.5], abs=1e-9)
    assert sol.objective == pytest.approx(brute_force_optimum(master), abs=1e-9)


def test_infeasible_detected():
    # every strategy breaches user 2's budget, so no mixture meets it
    # and the master has no starting vertex
    with pytest.raises(ValueError, match="within both budgets"):
        MasterLP([[1.0, 2.0], [1.0, 2.0]], [[1.0, 1.0], [11.0, 12.0]], (10.0, 10.0), (0.5, 0.5))


def test_master_needs_nonnegative_rates_and_a_positive_rho():
    with pytest.raises(ValueError, match="rates"):
        MasterLP([[1.0, -1e-300], [1.0, 2.0]], [[1.0, 1.0], [1.0, 1.0]], (10.0, 10.0), (0.5, 0.5))
    with pytest.raises(ValueError, match="rho"):
        MasterLP([[1.0, 2.0], [1.0, 2.0]], [[1.0, 1.0], [1.0, 1.0]], (10.0, 10.0), (0.0, 0.0))


def _unit_columns():
    return [tuple(row) for row in np.eye(5)]


def test_infeasible_start_basis_raises():
    # a real error, not an assert, so it also fires under python -O
    cols = _unit_columns()
    with pytest.raises(RuntimeError, match="feasibility"):
        lp_module._simplex(cols, (1.0, -1.0, 1.0, 1.0, 1.0), [0, 1, 2, 3, 4], _unit_columns())


def test_unbounded_phase_2_raises():
    # x_0 - x_5 = 1: x_5 raises the objective without bound, and only
    # x_0's row, which the ratio test skips, changes with it
    cols = _unit_columns() + [(-1.0, 0.0, 0.0, 0.0, 0.0)]
    with pytest.raises(RuntimeError, match="unbounded"):
        lp_module._simplex(cols, (1.0, 1.0, 1.0, 1.0, 1.0), [0, 1, 2, 3, 4], _unit_columns())
    # x_0 = x_5 and x_1 - x_5 = 1: x_5 also raises the bounded x_1
    cols = _unit_columns() + [(-1.0, -1.0, 0.0, 0.0, 0.0)]
    with pytest.raises(RuntimeError, match="unbounded"):
        lp_module._simplex(cols, (0.0, 1.0, 1.0, 1.0, 1.0), [0, 1, 2, 3, 4], _unit_columns())


def test_malformed_dimensions_rejected():
    good = dict(rates=[[1.0], [1.0]], powers=[[1.0], [1.0]], budget=(1.0, 1.0), rho=(0.5, 0.5))
    MasterLP(**good)
    shape, match = "rates must be 2 x L", "powers must match"
    finite = "must be finite"
    bad = [
        (dict(good, rates=[[], []], powers=[[], []]), shape),  # no strategy
        (dict(good, rates=[[1.0, 2.0], [1.0, 2.0]]), match),
        (dict(good, rates=[1.0, 1.0], powers=[1.0, 1.0]), shape),  # not 2 x L
        (dict(good, rates=[[1.0], [1.0], [1.0]], powers=[[1.0], [1.0], [1.0]]), shape),
        (dict(good, rates=[[1.0, 2.0], [1.0]], powers=[[1.0, 1.0], [1.0]]), shape),  # ragged
        (dict(good, powers=[[1.0, 1.0], [1.0]]), match),  # ragged powers
        (dict(good, rates=[[np.nan], [1.0]]), finite),
        (dict(good, powers=[[1.0], [np.nan]]), finite),
        (dict(good, rho=(0.5, np.inf)), finite),
        (dict(good, rho=(-np.inf, 0.5)), finite),
        (dict(good, budget=(1.0, np.inf)), finite),
        (dict(good, budget=(-1.0, 1.0)), "budgets must be >= 0"),
        (dict(good, rates=[[1.0], [-1e-300]]), "rates must be >= 0"),
        (dict(good, rho=(0.0, -0.5)), "rho must have a positive entry"),
        (dict(good, powers=[[1.5], [1.0]]), "no strategy lies within both budgets"),
    ]
    for kwargs, message in bad:
        with pytest.raises(ValueError, match=message):
            MasterLP(**kwargs)


def test_list_and_array_input_agree():
    rng = np.random.default_rng(3)
    for n_cols in (1, 2, 7):
        r, p, budget, rho = _random_master_args(rng, n_cols)
        p[:, -1] = -p[:, -1]  # a negative power's magnitude enters the row scale
        a = MasterLP(r, p, budget, rho)
        b = MasterLP(r.tolist(), p.tolist(), list(budget), list(rho))
        c = MasterLP(tuple(r), tuple(p), np.array(budget), np.array(rho))
        for other in (b, c):
            assert other.columns == a.columns
            assert other.scale == a.scale
            assert other.within == a.within


def test_deterministic_bitwise():
    rng = np.random.default_rng(0)
    args = _random_master_args(rng, 6)
    a = lp_solve(MasterLP(*args))
    b = lp_solve(MasterLP(*args))
    assert a.primal.tobytes() == b.primal.tobytes()
    assert a.dual.tobytes() == b.dual.tobytes()
    assert a.objective == b.objective
    assert a.basis == b.basis


def _random_master_args(rng, n_cols):
    """Rates, powers, budget and profile of a random master; column 0 is
    within budget, so every column set is feasible."""
    r = rng.uniform(0.0, 5.0, (2, n_cols))
    p = rng.uniform(0.0, 20.0, (2, n_cols))
    p[:, 0] = 5.0
    rho = float(rng.uniform(0.1, 0.9))
    return r, p, (10.0, 10.0), (rho, 1.0 - rho)


def _random_master(rng, n_cols=None):
    return MasterLP(*_random_master_args(rng, n_cols or int(rng.integers(1, 7))))


def test_random_lps_match_enumeration_oracle():
    rng = np.random.default_rng(42)
    for _ in range(60):
        master = _random_master(rng)
        sol = lp_solve(master)
        want = brute_force_optimum(master)
        assert sol.objective == pytest.approx(want, abs=1e-7)
        residual = master.rows @ sol.primal - _rhs(master)
        assert np.all(residual[:2] >= -1e-9)
        assert np.all(residual[2:4] <= 1e-9)
        assert abs(residual[4]) <= 1e-9
        assert np.all(sol.primal[1:] >= -1e-9)


def test_r_is_in_every_basis():
    # R starts basic and, being free, never leaves: also when user 1
    # has no rate, so that the optimal R is 0.  Every label names R, a
    # weight or one of the four extra columns.
    rng = np.random.default_rng(42)
    for _ in range(60):
        r, p, budget, rho = _random_master_args(rng, int(rng.integers(1, 7)))
        columns = set(range(r.shape[1] + 1)) | {-4, -3, -2, -1}
        sol = lp_solve(MasterLP(r, p, budget, rho))
        assert 0 in sol.basis and set(sol.basis) <= columns
        r[0] = 0.0
        sol = lp_solve(MasterLP(r, p, budget, rho))
        assert sol.objective == 0.0
        assert 0 in sol.basis and set(sol.basis) <= columns


def test_strong_duality_and_complementary_slackness():
    rng = np.random.default_rng(43)
    for _ in range(40):
        master = _random_master(rng)
        sol = lp_solve(master)
        y = sol.dual
        # strong duality: the optimum equals the dual bound y^T b
        assert sol.objective == pytest.approx(float(y @ _rhs(master)), abs=1e-7)
        # dual feasibility: prices of the right signs, R priced exactly,
        # no tau column with positive reduced cost
        assert np.all(y[:2] <= 1e-9) and np.all(y[2:4] >= -1e-9)
        assert float(y @ master.rows[:, 0]) == pytest.approx(1.0, abs=1e-9)
        assert np.all(y @ master.rows[:, 1:] >= -1e-9)
        # complementary slackness: a nonzero price only on an active row
        slack = master.rows @ sol.primal - _rhs(master)
        assert np.all(np.abs(y * slack) <= 1e-7)


def test_vertex_solutions():
    rng = np.random.default_rng(44)
    for _ in range(40):
        sol = lp_solve(_random_master(rng, int(rng.integers(5, 12))))
        assert int(np.sum(np.abs(sol.primal) > 1e-9)) <= 5


def test_ratio_ties_are_relative():
    # x_0 = x_1 enters the ratio test of rows 1 and 2 (rows 3 and 4 are
    # slack) with ratios 1.349e-8 and 1.284e-8, 5 % apart; the minimum
    # row must leave, or row 2's basic value falls to -0.0137
    cols = [
        (1.0, 0.0, 0.0, 0.0, 0.0),
        (-1.0, 1.0, 2.1e7, 0.0, 0.0),
        *_unit_columns()[1:],
    ]
    b = (0.0, 1.349e-8, 2.1e7 * 1.284e-8, 1.0, 1.0)
    basis = [0, 2, 3, 4, 5]
    lp_module._simplex(cols, b, basis, _unit_columns())
    assert basis == [0, 2, 1, 4, 5]


def _counting(monkeypatch, name):
    """The calls made to ``lp_module.<name>`` from now on, one entry each."""
    calls = []
    original = getattr(lp_module, name)

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(lp_module, name, counting)
    return calls


def test_basis_counts_extra_columns_from_the_end():
    # R (column 0) and tau_1 (column 1) are basic; so are the surplus
    # of user 2's rate row and both power slacks, the last four columns
    # but the first counting from the end
    master = MasterLP([[1.0], [2.0]], [[5.0], [5.0]], (10.0, 10.0), (0.5, 0.5))
    sol = lp_solve(master)
    assert sol.objective == pytest.approx(2.0, abs=1e-12)
    assert sorted(sol.basis) == [-3, -2, -1, 0, 1]
    assert all(type(k) is int for k in sol.basis)


def test_warm_start_after_appending_columns_matches_cold(monkeypatch):
    rng = np.random.default_rng(46)
    calls = _counting(monkeypatch, "_simplex")
    for _ in range(30):
        n_old = int(rng.integers(1, 8))
        r, p, budget, rho = _random_master_args(rng, n_old + int(rng.integers(1, 4)))
        full = MasterLP(r, p, budget, rho)
        old = lp_solve(MasterLP(r[:, :n_old], p[:, :n_old], budget, rho))
        cold = lp_solve(full)
        del calls[:]
        warm = lp_solve(full, start=old)
        assert len(calls) == 1
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
        assert warm.primal[0] == pytest.approx(cold.primal[0], abs=1e-12)
        assert lp_solve(full, start=old).primal.tobytes() == warm.primal.tobytes()


def _assert_same_solution(a, b):
    assert a.primal.tobytes() == b.primal.tobytes()
    assert a.dual.tobytes() == b.dual.tobytes()
    assert a.basis == b.basis


def test_unusable_start_falls_back_to_cold(monkeypatch):
    # the optimal basis of the box master, (0, 1, 2, -3, -1), holds
    # tau = (0.5, 0.5); against user 2's budget of 4 the same columns
    # and row scales give user 2's power slack a basic value of -1
    master = _box_master()
    start = lp_solve(master)
    assert sorted(start.basis) == [-3, -1, 0, 1, 2]
    tight = MasterLP([[0.0, 4.0], [0.0, 6.0]], [[0.0, 20.0], [0.0, 10.0]], (10.0, 4.0), (0.5, 0.5))
    assert tight.columns == master.columns and tight.scale == master.scale
    cols, b = lp_module._equilibrated(tight)
    assert lp_module._warm_basis(start, tight, cols, b) is None
    crashed = _counting(monkeypatch, "_crash_basis")
    cold = lp_solve(tight)
    _assert_same_solution(lp_solve(tight, start=start), cold)
    assert len(crashed) == 2


def test_start_must_be_a_solution():
    master = _box_master()
    for start in ((0, 1, 2, -3, -1), [0, 1, 2, -3, -1], lp_solve(master).inverse):
        with pytest.raises(TypeError, match="LpSolution"):
            lp_solve(master, start=start)


def test_cold_start_runs_one_simplex_pass(monkeypatch):
    rng = np.random.default_rng(47)
    master = _random_master(rng, 4)
    other = lp_solve(_random_master(rng, 4))
    calls = _counting(monkeypatch, "_simplex")
    sol = lp_solve(master, start=other)
    assert len(calls) == 1
    assert sol.objective == lp_solve(master).objective
    assert len(calls) == 2


def test_crash_basis_finds_a_later_strategy():
    # the breaching strategy comes first, so the crash basis puts all
    # time on column 2; the optimum still mixes both half and half
    master = MasterLP([[4.0, 0.0], [6.0, 0.0]], [[20.0, 0.0], [10.0, 0.0]], (10.0, 10.0), (0.5, 0.5))
    assert master.within == 1
    sol = lp_solve(master)
    assert sol.objective == pytest.approx(brute_force_optimum(master), abs=1e-12)
    assert sol.objective == pytest.approx(4.0, abs=1e-12)
    assert sol.primal == pytest.approx([4.0, 0.5, 0.5], abs=1e-12)


def _chain_masters(links=70):
    """A master over three interleaved chains of strategies, and the
    master over the chains' last strategies alone.  Along a chain the
    powers stay and every rate grows, so each strategy dominates the
    ones before it: both masters have the same optimum, and Bland's
    rule climbs the chains one pivot at a time."""
    steps = np.arange(links) / links
    chains = [  # (rates at the chain's start, rate growth along it, powers)
        ((0.5, 0.5), (1.0, 1.0), (5.0, 5.0)),
        ((2.0, 0.3), (1.5, 0.2), (14.0, 3.0)),
        ((0.4, 2.5), (0.2, 1.5), (2.0, 16.0)),
    ]
    r = np.array([[r0[k] + g[k] * s for s in steps for r0, g, _ in chains] for k in (0, 1)])
    p = np.array([[pw[k] for _ in steps for _, _, pw in chains] for k in (0, 1)])
    return (
        MasterLP(r, p, (10.0, 10.0), (0.4, 0.6)),
        MasterLP(r[:, -3:], p[:, -3:], (10.0, 10.0), (0.4, 0.6)),
    )


def _fresh_inverse(cols, basis):
    return np.linalg.inv(np.array([cols[j] for j in basis]).T)


def test_eta_updates_do_not_drift_over_many_pivots():
    master, reduced = _chain_masters()
    assert len(master.columns) - 1 >= 200
    sol = lp_solve(master)
    assert sol.objective == pytest.approx(brute_force_optimum(reduced), abs=1e-12)
    # the pivot loop's own inverse, updated by every pivot from the
    # crash basis on, against fresh factorizations of the final basis
    cols, b = lp_module._equilibrated(master)
    basis, binv = lp_module._crash_basis(master, cols)
    assert binv is not None
    assert lp_module._pivot(cols, b, basis, binv) >= 200
    assert tuple(k if k < len(cols) - 4 else k - len(cols) for k in basis) == sol.basis
    fresh = _fresh_inverse(cols, basis)
    assert np.abs(np.array(binv) - fresh).max() <= 1e-12
    assert np.abs(np.array(sol.inverse.rows) - fresh).max() <= 1e-12


def test_warm_start_rescales_the_carried_inverse(monkeypatch):
    # the new strategy's rates and user-1 power exceed every earlier
    # one, so three row scales grow; the carried inverse is rescaled,
    # the solve does not fall back to the crash basis, and it matches
    # the cold one
    rng = np.random.default_rng(48)
    crashed = _counting(monkeypatch, "_crash_basis")
    for _ in range(20):
        old = _random_master(rng, int(rng.integers(2, 8)))
        new = old.appended(7.0, 6.0, 25.0, 3.0)
        assert all(a < b for a, b in zip(old.scale[:3], new.scale[:3]))
        start = lp_solve(old)
        cold = lp_solve(new)
        cols, b = lp_module._equilibrated(new)
        del crashed[:]
        basis, binv = lp_module._warm_basis(start, new, cols, b)
        warm = lp_solve(new, start=start)
        assert not crashed
        assert np.abs(np.array(binv) - _fresh_inverse(cols, basis)).max() <= 1e-12
        assert warm.objective == pytest.approx(cold.objective, abs=1e-12)
        assert warm.primal == pytest.approx(cold.primal, abs=1e-12)
        assert warm.dual == pytest.approx(cold.dual, abs=1e-12)


def test_inverse_from_another_master_is_not_reused(monkeypatch):
    # a basic column with other rates, another profile (R's column), or
    # a master without the last basic weight: the start falls back to
    # the crash basis, and from there the solve is the cold one bit for
    # bit
    rng = np.random.default_rng(49)
    crashed = _counting(monkeypatch, "_crash_basis")
    for _ in range(20):
        r, p, budget, rho = _random_master_args(rng, int(rng.integers(2, 8)))
        start = lp_solve(MasterLP(r, p, budget, rho))
        j = max(start.basis)  # a basic weight: the crash basis holds one
        moved = r.copy()
        moved[:, j - 1] *= 1.01
        others = [MasterLP(moved, p, budget, rho), MasterLP(r, p, budget, (0.5, 0.5))]
        if j > 1:
            others.append(MasterLP(r[:, : j - 1], p[:, : j - 1], budget, rho))
        for master in others:
            del crashed[:]
            _assert_same_solution(lp_solve(master, start=start), lp_solve(master))
            assert len(crashed) == 2


def test_warm_starts_are_bitwise_repeatable():
    rng = np.random.default_rng(50)
    for _ in range(10):
        old = _random_master(rng, int(rng.integers(2, 8)))
        new = old.appended(*rng.uniform(0.0, 8.0, 2), *rng.uniform(0.0, 25.0, 2))
        start = lp_solve(old)
        a = lp_solve(new, start=start)
        b = lp_solve(new, start=start)
        assert a.primal.tobytes() == b.primal.tobytes()
        assert a.dual.tobytes() == b.dual.tobytes()
        assert a.basis == b.basis and a.inverse == b.inverse


def test_fresh_duals_recheck_the_final_basis():
    # x_0 - 1.5e-10 x_5 = 1 and x_1 + x_5 = 1: x_5 prices at 1.5e-10,
    # just above COST_TOL.  An inverse whose dual row is off by 1e-10
    # prices it at 0.5e-10 and stops; the duals of the fresh
    # factorization must bring x_5 in all the same.
    cols = _unit_columns() + [(-1.5e-10, 1.0, 0.0, 0.0, 0.0)]
    b = (1.0, 1.0, 1.0, 1.0, 1.0)
    binv = _unit_columns()
    binv[0] = (1.0, 1e-10, 0.0, 0.0, 0.0)
    basis = [0, 1, 2, 3, 4]
    assert lp_module._pivot(cols, b, list(basis), list(binv)) == 0
    x_B, y, _ = lp_module._simplex(cols, b, basis, binv)
    assert basis == [0, 5, 2, 3, 4]
    assert x_B[0] == 1.0 + 1.5e-10
    assert y.tolist() == [1.0, 1.5e-10, 0.0, 0.0, 0.0]


_crash_basis = lp_module._crash_basis


def _factorized_crash_basis(master, cols):
    """The crash basis without its closed-form inverse, so that the solve
    begins with a LAPACK factorization of it: the cold start before the
    closed form, and the reference it is held to."""
    return _crash_basis(master, cols)[0], None


#: Profiles (rho_1, rho_2) of the parity set beyond random interior ones:
#: one-sided profiles, profiles within 1e-12 of an axis and profiles with
#: a tiny or subnormal entry, where R's coefficient in a rate row falls
#: near or below the closed form's floor.
_EDGE_PROFILES = (
    (1.0, 0.0),
    (0.0, 1.0),
    *(
        pair
        for beta in (1e-12, 1.0 - 1e-16, 1e-300, 5e-324, 1e-320)
        for pair in ((beta, 1.0 - beta), (1.0 - beta, beta))
    ),
    (5e-324, 1.0),
    (1e-320, 1e-320),
)


def _parity_masters(rng, count):
    """Seeded random masters for the closed-form start: edge profiles,
    uniform ones, and ones whose smaller entry is log-uniform down to
    1e-20; sometimes a zero or tiny rate on a rate row of the strategy
    the simplex starts at (which can make that row tight), and
    sometimes strategies before it that breach a budget (``within`` >
    0)."""
    for _ in range(count):
        r, p, budget, _ = _random_master_args(rng, int(rng.integers(1, 7)))
        u = rng.uniform()
        if u < 0.4:
            rho = _EDGE_PROFILES[int(rng.integers(len(_EDGE_PROFILES)))]
        else:
            beta = float(rng.uniform() if u < 0.7 else 10.0 ** rng.uniform(-20.0, 0.0))
            rho = (beta, 1.0 - beta) if rng.uniform() < 0.5 else (1.0 - beta, beta)
        within = int(rng.integers(r.shape[1])) if rng.uniform() < 0.4 else 0
        p[:, :within] = 15.0
        p[:, within] = 5.0
        u = rng.uniform()
        k = int(rng.integers(2))
        if u < 0.3:
            r[k, within] = 0.0
        elif u < 0.45:
            r[k, within] = rho[k] * rng.uniform(0.0, 2.0)
        yield MasterLP(r, p, budget, rho)


def _solve_or_exception(master):
    try:
        return lp_solve(master)
    except Exception as e:  # the reference must raise the same type
        return type(e)


def test_closed_form_start_solves_as_the_factorized_one(monkeypatch):
    # primal, duals and basis bitwise as from a LAPACK factorization of
    # the crash basis, or the same exception, over the seeded set; both
    # rate rows are tight somewhere, and both starts occur
    masters = list(_parity_masters(np.random.default_rng(11), 3000))
    # |a_k| = 2.5e-17: a closed-form start here reaches the same vertex
    # with its basis listed in another order and a dual of -0.0
    masters.append(
        MasterLP(
            [
                [0.0, 4.379288057066483, 1.3434456970490471, 0.8444429588989127],
                [1.552001608528637, 3.446212441806317, 3.169050395159594, 0.6788299254429481],
            ],
            [
                [5.0, 1.5504118362365693, 15.137305173755776, 6.514983930817351],
                [5.0, 13.693446156458402, 13.499327997797295, 1.4181498466155307],
            ],
            (10.0, 10.0),
            (1.1102230246251565e-16, 0.9999999999999999),
        )
    )
    tight, closed, near_floor = set(), set(), 0
    for master in masters:
        cols, _ = lp_module._equilibrated(master)
        basis, binv = _crash_basis(master, cols)
        tight.add(basis.index(0))
        closed.add(binv is not None)
        near_floor += binv is not None and abs(cols[0][basis.index(0)]) < 1e-2
    assert tight == {0, 1} and closed == {True, False} and near_floor >= 10
    got = [_solve_or_exception(m) for m in masters]
    monkeypatch.setattr(lp_module, "_crash_basis", _factorized_crash_basis)
    want = [_solve_or_exception(m) for m in masters]
    assert sum(isinstance(w, type) for w in want) < len(want) // 10
    for a, b in zip(got, want):
        if isinstance(b, type):
            assert a is b
        else:
            _assert_same_solution(a, b)


def test_closed_form_inverse_is_the_crash_basis_inverse():
    # against np.linalg.inv to 4 ulps of each row's largest entry
    checked = 0
    for master in _parity_masters(np.random.default_rng(12), 500):
        cols, _ = lp_module._equilibrated(master)
        basis, binv = _crash_basis(master, cols)
        if binv is None:
            assert abs(cols[0][basis.index(0)]) < lp_module._CLOSED_FORM_FLOOR
            continue
        fresh = _fresh_inverse(cols, basis)
        peak = np.abs(fresh).max(axis=1)
        assert np.all(np.abs(np.array(binv) - fresh).max(axis=1) <= 4 * np.spacing(peak))
        checked += 1
    assert checked >= 400


def test_subnormal_row_peak_solves_without_a_warning():
    # rho_1 = 5e-324 alone sets row 0's peak; the row binds at R = 0, and
    # its exact dual -1/rho_1 = -2^1074 lies beyond the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sol = lp_solve(MasterLP([[0.0], [1.0]], [[5.0], [5.0]], (10.0, 10.0), (5e-324, 1.0)))
        assert sol.objective == 0.0 and sol.dual[0] == -math.inf
        assert np.all(np.isfinite(sol.dual[1:]))
        # a subnormal rho_1 whose dual lies within the range
        near = lp_solve(MasterLP([[0.0], [1.0]], [[5.0], [5.0]], (10.0, 10.0), (1e-308, 1.0)))
        assert near.dual[0] == pytest.approx(-1e308, rel=1e-15)


def test_a_cold_solve_factorizes_once(monkeypatch):
    # once the crash basis is already optimal and once after pivots;
    # a factorized crash basis took a second factorization there
    solves = []
    original = np.linalg.solve

    def counting(*args):
        solves.append(1)
        return original(*args)

    monkeypatch.setattr(np.linalg, "solve", counting)
    one = MasterLP([[1.0], [2.0]], [[5.0], [5.0]], (10.0, 10.0), (0.5, 0.5))
    for master, pivots in ((one, 0), (_box_master(), 1)):
        cols, b = lp_module._equilibrated(master)
        basis, binv = _crash_basis(master, cols)
        assert lp_module._pivot(cols, b, basis, binv) == pivots
        del solves[:]
        lp_solve(master)
        assert len(solves) == 1
