import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from tinregions import (
    ChannelRealization,
    Cut,
    DualPoint,
    OuterConfig,
    PowerBudget,
    RateProfile,
    achieved_dual_value,
    cutting_plane,
    lp_solve,
    master_lp,
    primal_recover,
    rate_pair_proper,
    stationary_solve,
    ts_point,
)
from tinregions import lp as lp_module
from tinregions import outer, regions
from perfbench.workloads import family
from test_inner import assert_matches_bnb, assert_matches_reference, float_bits, recorded

GREATER = ">="
EQUAL = "="


def make_cut(ch, p):
    return Cut(tuple(p), rate_pair_proper(ch, p), "bnb")


def relaxed_dual_lp(cuts, budget, profile):
    """The cut LP over (mu1, mu2, lambda1, lambda2, z): minimize z subject
    to rho.mu = 1 and z >= mu.r_i + lambda.(P - p_i) for every cut."""
    rows = [(np.array([*profile.rho, 0.0, 0.0, 0.0]), EQUAL, 1.0)]
    for cut in cuts:
        row = [-cut.rates.r1, -cut.rates.r2, -(budget.p1 - cut.p[0]), -(budget.p2 - cut.p[1]), 1.0]
        rows.append((np.array(row), GREATER, 0.0))
    return rows


def assert_dual_certificate(sol, cuts, budget, profile, tol=1e-9):
    """The master duals solve the cut LP at the master's objective."""
    mu = -sol.dual[:2]
    lam = sol.dual[2:4]
    assert float(np.dot(profile.rho, mu)) == pytest.approx(1.0, abs=tol)
    assert np.all(lam >= -tol)
    for cut in cuts:
        bound = (
            mu[0] * cut.rates.r1 + mu[1] * cut.rates.r2
            + lam[0] * (budget.p1 - cut.p[0]) + lam[1] * (budget.p2 - cut.p[1])
        )
        assert sol.objective >= bound - tol


class TestRelaxedDualLp:
    """The master LP is the dual of the cut LP: its optimum is the cut
    LP's and its row duals are an optimal (mu, lambda)."""

    def test_single_origin_cut_solves_to_zero(self, sec6, budget10):
        cuts = [make_cut(sec6, (0.0, 0.0))]
        sol = lp_solve(master_lp(cuts, budget10, RateProfile(0.4)))
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert sol.dual[2] == pytest.approx(0.0, abs=1e-9)  # lambda1
        assert sol.dual[3] == pytest.approx(0.0, abs=1e-9)  # lambda2
        assert_dual_certificate(sol, cuts, budget10, RateProfile(0.4))

    def test_profile_one_forces_mu1(self, sec6, budget10):
        cuts = [make_cut(sec6, (5.0, 5.0)), make_cut(sec6, (10.0, 0.0))]
        sol = lp_solve(master_lp(cuts, budget10, RateProfile(1.0)))
        assert -sol.dual[0] == pytest.approx(1.0, abs=1e-9)

    def test_two_cut_lp_matches_vertex_enumeration(self, sec6, budget10):
        cuts = [make_cut(sec6, (5.0, 5.0)), make_cut(sec6, (10.0, 2.0))]
        profile = RateProfile(0.5)
        sol = lp_solve(master_lp(cuts, budget10, profile))

        # enumerate the cut LP's bases by activating 5 of its constraints
        # (z is free, the others bounded below by 0)
        rows = relaxed_dual_lp(cuts, budget10, profile)
        cands = [(c, r) for c, _, r in rows]
        for j in range(4):
            e = np.zeros(5)
            e[j] = 1.0
            cands.append((e, 0.0))
        best = None
        for combo in itertools.combinations(range(len(cands)), 5):
            if 0 not in combo:  # equality row always active
                continue
            A = np.array([cands[k][0] for k in combo])
            b = np.array([cands[k][1] for k in combo])
            if abs(np.linalg.det(A)) < 1e-9:
                continue
            x = np.linalg.solve(A, b)
            if np.any(x[:4] < -1e-9):
                continue
            ok = all(
                float(np.dot(c, x)) >= r - 1e-9
                for c, rel, r in rows
                if rel == GREATER
            ) and all(
                abs(float(np.dot(c, x)) - r) <= 1e-9
                for c, rel, r in rows
                if rel == EQUAL
            )
            if ok and (best is None or x[4] < best):
                best = x[4]
        assert best is not None
        assert sol.objective == pytest.approx(best, abs=1e-9)
        assert_dual_certificate(sol, cuts, budget10, profile)

    def test_empty_cut_list_rejected(self, budget10):
        with pytest.raises(ValueError):
            master_lp([], budget10, RateProfile(0.5))

    def test_dual_residue_snaps_to_zero(self):
        # rounding residue next to a positive mu2 would reach the oracle
        # as a price; a small real price and the positive duals survive
        dual = outer._master_dual(np.array([-0.7, -1.2, 1e-9, 5.8e-17, 2.0]))
        assert (dual.mu1, dual.mu2, dual.lambda1, dual.lambda2) == (0.7, 1.2, 1e-9, 0.0)
        dual = outer._master_dual(np.array([3e-17, -1.2, -0.2, -5.8e-17, 2.0]))
        assert (dual.mu1, dual.lambda1, dual.lambda2) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "y, row",
        [
            ((-math.inf, -1.0, 0.1, 0.2, 0.0), "rate row 1"),
            ((-1.0, math.nan, 0.1, 0.2, 0.0), "rate row 2"),
            ((-1.0, -1.0, math.nan, 0.2, 0.0), "power row 1"),
            ((-1.0, -1.0, 0.1, math.inf, 0.0), "power row 2"),
        ],
    )
    def test_non_finite_dual_raises(self, y, row):
        # an infinite dual made the snap threshold infinite and zeroed
        # all four entries; a NaN passed as a price
        with pytest.raises(RuntimeError, match=row):
            outer._master_dual(np.array(y))

    def test_cutting_plane_duals_certify_every_master(self, sec6, budget10, monkeypatch):
        profile = RateProfile(0.3)
        seen = []

        def recording(lp, start=None):
            sol = lp_solve(lp, start=start)
            seen.append((lp, sol))
            return sol

        monkeypatch.setattr(outer, "lp_solve", recording)
        cp = cutting_plane(sec6, budget10, profile)
        assert cp.converged and len(seen) == len(cp.lower_history) >= 2
        for k, (lp, sol) in enumerate(seen):
            assert len(lp.rows) == 5
            assert sol.objective == cp.lower_history[k]
            assert_dual_certificate(sol, cp.cuts[: lp.rows.shape[1] - 1], budget10, profile)


class TestAchievedDualValue:
    def test_zero_dual_gives_zero(self, sec6, budget10):
        cut = make_cut(sec6, (4.0, 9.0))
        dual = DualPoint(0.0, 0.0, 0.0, 0.0)
        assert achieved_dual_value(dual, budget10, cut) == 0.0

    def test_formula(self, sec6, budget10):
        dual = DualPoint(0.7, 1.3, 0.2, 0.1)
        cut = make_cut(sec6, (3.0, 6.0))
        want = (
            0.2 * 10 + 0.1 * 10
            + 0.7 * cut.rates.r1 + 1.3 * cut.rates.r2
            - 0.2 * 3.0 - 0.1 * 6.0
        )
        assert achieved_dual_value(dual, budget10, cut) == pytest.approx(want)

    def test_running_min_is_nonincreasing(self, sec6, budget10):
        rng = np.random.default_rng(21)
        values = [
            achieved_dual_value(
                DualPoint(*rng.uniform(0.0, 2.0, 4)),
                budget10,
                make_cut(sec6, rng.uniform(0.0, 12.0, 2)),
            )
            for _ in range(30)
        ]
        mins = list(itertools.accumulate(values, min))
        assert all(b <= a for a, b in zip(mins, mins[1:]))


class TestCuttingPlane:
    def test_profile_one_intercept(self, sec6, budget10):
        cp = cutting_plane(sec6, budget10, RateProfile(1.0))
        assert cp.converged
        assert cp.lower == pytest.approx(5.40086611903573, abs=1e-9)
        assert cp.upper == pytest.approx(cp.lower, abs=1e-12)
        assert len(cp.cuts) == 1 and cp.cuts[0].p == (10.0, 0.0)

    def test_profile_zero_intercept(self, sec6, budget10):
        cp = cutting_plane(sec6, budget10, RateProfile(0.0))
        assert cp.converged
        assert cp.lower == pytest.approx(3.44236388446505, abs=1e-3)

    def test_symmetric_profile_matches_published_point(self, sec6, budget10):
        cp = cutting_plane(sec6, budget10, RateProfile(0.5))
        assert cp.converged
        assert cp.upper - cp.lower <= 1e-4 + 1e-12
        # balanced per-user rate is half the profile value
        assert 0.5 * cp.upper == pytest.approx(2.54494936027933, abs=5e-3)
        assert cp.cuts[0].origin == "initial"
        assert cp.cuts[0].p == (5.0, 5.0)

    def test_bounds_order(self, sec6, budget10):
        cp = cutting_plane(sec6, budget10, RateProfile(0.3))
        assert cp.lower <= cp.upper + 1e-12
        assert cp.gap <= 1e-4 + 1e-12

    @pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
    def test_config_rejects_unusable_epsilon(self, eps):
        with pytest.raises(ValueError, match="epsilon_cp"):
            OuterConfig(epsilon_cp=eps)

    def test_config_rejects_epsilon_below_float_resolution(self):
        for eps in (1e-20, 0.999e-12):
            with pytest.raises(ValueError, match="epsilon_cp"):
                OuterConfig(epsilon_cp=eps)
        assert OuterConfig(epsilon_cp=outer.EPSILON_CP_MIN).epsilon_cp == 1e-12

    def test_zero_budget_rejected(self, sec6):
        with pytest.raises(ValueError):
            cutting_plane(sec6, PowerBudget(0.0, 10.0), RateProfile(0.5))

    def test_each_iteration_resumes_from_the_previous_basis(self, sec6, budget10, monkeypatch):
        calls = []
        warm = []
        crashed = []

        def recording(lp, start=None):
            sol = lp_solve(lp, start=start)
            calls.append((start, sol))
            return sol

        original = lp_module._warm_basis
        crash_basis = lp_module._crash_basis

        def warm_basis(*args):
            cols = original(*args)
            warm.append(cols is not None)
            return cols

        def counting_crash(*args):
            crashed.append(1)
            return crash_basis(*args)

        monkeypatch.setattr(outer, "lp_solve", recording)
        monkeypatch.setattr(lp_module, "_warm_basis", warm_basis)
        monkeypatch.setattr(lp_module, "_crash_basis", counting_crash)
        cp = cutting_plane(sec6, budget10, RateProfile(0.5))
        assert len(calls) == len(cp.lower_history) >= 3
        assert calls[0][0] is None
        # each start is the previous solution, whose basis inverse is
        # reused: only the first master starts at the crash basis
        assert all(start is prev for (start, _), (_, prev) in zip(calls[1:], calls))
        assert warm == [True] * (len(calls) - 1)
        assert len(crashed) == 1
        assert cp.solution is calls[-1][1]

    def test_warm_start_reaches_same_value(self, sec6, budget10):
        cold = cutting_plane(sec6, budget10, RateProfile(0.5))
        warm = cutting_plane(
            sec6, budget10, RateProfile(0.55), initial_cuts=cold.cuts
        )
        reference = cutting_plane(sec6, budget10, RateProfile(0.55))
        assert warm.converged and reference.converged
        assert warm.upper == pytest.approx(reference.upper, abs=3e-4)
        assert len(warm.cuts) >= len(cold.cuts)


class TestPrimalRecover:
    def test_single_cut_puts_all_weight_on_it(self, sec6, budget10):
        cut = make_cut(sec6, (6.0, 6.0))
        sol = primal_recover(sec6, [cut], budget10, RateProfile(0.5))
        assert len(sol.strategies) == 1
        tau, p, rates = sol.strategies[0]
        assert tau == pytest.approx(1.0, abs=1e-9)
        assert sol.R == pytest.approx(min(rates.r1, rates.r2) / 0.5, abs=1e-9)

    def test_recovered_solution_is_feasible(self, sec6, budget10):
        profile = RateProfile(0.5)
        cp = cutting_plane(sec6, budget10, profile)
        sol = primal_recover(sec6, cp.cuts, budget10, profile)
        taus = [t for t, _, _ in sol.strategies]
        assert sum(taus) == pytest.approx(1.0, abs=1e-9)
        avg_p = sol.average_powers()
        assert avg_p[0] <= budget10.p1 + 1e-7
        assert avg_p[1] <= budget10.p2 + 1e-7
        avg_r = sol.average_rates()
        assert avg_r.r1 >= 0.5 * sol.R - 1e-7
        assert avg_r.r2 >= 0.5 * sol.R - 1e-7
        assert len(sol.strategies) <= 4

    def test_warm_start_from_the_loop_basis(self, sec6, budget10, monkeypatch):
        # the final cut only appends a column, so the loop's last master
        # solution is still feasible and its inverse is reused; the
        # recovered mixture is the cold one, bit for bit
        starts = []
        warm_basis = lp_module._warm_basis

        def record(*args):
            starts.append(warm_basis(*args))
            return starts[-1]

        monkeypatch.setattr(lp_module, "_warm_basis", record)
        for beta in (0.2, 0.5, 0.85):
            profile = RateProfile(beta)
            cp = cutting_plane(sec6, budget10, profile)
            starts.clear()
            warm = primal_recover(sec6, cp.cuts, budget10, profile, start=cp.solution)
            assert len(starts) == 1 and starts[0] is not None
            assert warm == primal_recover(sec6, cp.cuts, budget10, profile)
        assert cutting_plane(sec6, budget10, RateProfile(1.0)).solution is None

    def test_rates_consistent_with_power_vectors(self, sec6, budget10):
        cp = cutting_plane(sec6, budget10, RateProfile(0.35))
        sol = primal_recover(sec6, cp.cuts, budget10, RateProfile(0.35))
        for _, p, rates in sol.strategies:
            fresh = rate_pair_proper(sec6, p)
            assert rates.r1 == pytest.approx(fresh.r1, abs=1e-12)
            assert rates.r2 == pytest.approx(fresh.r2, abs=1e-12)


class TestTsPoint:
    def test_duality_gap_within_twice_epsilon(self, sec6, budget10):
        for beta in (0.25, 0.5, 0.8):
            sol, cp = ts_point(sec6, budget10, RateProfile(beta))
            assert cp.converged
            assert abs(cp.upper - sol.R) <= 2e-4

    def test_deterministic(self, sec6, budget10):
        a = ts_point(sec6, budget10, RateProfile(0.5))
        b = ts_point(sec6, budget10, RateProfile(0.5))
        assert a == b

    def test_endpoint_profiles_solve_no_lp(self, sec6, budget10, monkeypatch):
        # the closed-form endpoint's one cut takes all the time; the
        # recovery LP over that cut gives the same mixture
        expected = {}
        for beta in (0.0, 1.0):
            profile = RateProfile(beta)
            cp = cutting_plane(sec6, budget10, profile)
            expected[beta] = primal_recover(sec6, cp.cuts, budget10, profile), cp

        def no_lp(*args, **kwargs):
            raise AssertionError("an endpoint profile solved an LP")

        monkeypatch.setattr(outer, "lp_solve", no_lp)
        for beta, user, p in ((0.0, 2, (0.0, 10.0)), (1.0, 1, (10.0, 0.0))):
            sol, cp = ts_point(sec6, budget10, RateProfile(beta))
            assert (sol, cp) == expected[beta]
            ((t, q, rates),) = sol.strategies
            assert t == 1.0 and q == p and sol.R == (rates.r1, rates.r2)[user - 1]

    @pytest.mark.parametrize("beta", [1e-12, 1e-10, 1e-9, 1.0 - 1e-10, 1.0 - 1e-12])
    def test_near_axis_profile_keeps_its_tiny_weight(self, sec6, budget10, beta):
        # within about 1e-9 of an axis, a weight of that order is all the
        # rate the light user gets; dropping it recovered R = 0
        sol, cp = ts_point(sec6, budget10, RateProfile(beta))
        assert cp.converged and len(sol.strategies) == 3
        assert min(t for t, _, _ in sol.strategies) < 1e-9
        assert abs(sol.R - cp.upper) <= 1.3e-5

    @pytest.mark.xfail(strict=True, raises=RuntimeError, reason="duality gap violation: recovered 0.0")
    @pytest.mark.parametrize("beta", [1.0 - 1e-16, 1e-300, 5e-324])
    def test_profile_next_to_an_axis_recovers_its_bound(self, sec6, budget10, beta):
        # the optimal vertex holds only strategies that give the light
        # user no rate, so R = 0 against an upper bound of 5.40 or 3.44
        sol, cp = ts_point(sec6, budget10, RateProfile(beta))
        assert cp.converged
        assert abs(sol.R - cp.upper) <= 1.3e-5

    def test_duplicate_cut_keeps_lp_optimum(self, sec6, budget10):
        profile = RateProfile(0.5)
        cp = cutting_plane(sec6, budget10, profile)
        sol = lp_solve(master_lp(cp.cuts, budget10, profile))
        dup = lp_solve(master_lp(list(cp.cuts) + [cp.cuts[-1]], budget10, profile))
        assert dup.objective == pytest.approx(sol.objective, abs=1e-9)

    @pytest.mark.parametrize(
        "h, p2",
        [
            ((0.31622776601683794, 0.11762745730488533, 0.1, 0.3719706804576487), 7.227408158356148),
            ((1.0, 0.35280968709178867, 0.31622776601683794, 1.1156821917813595), 8.033762671348438),
        ],
    )
    def test_near_tied_ratios_keep_recovery_feasible(self, h, p2):
        # the recovery LP met ratios 1.284e-8 and 1.349e-8 in one ratio
        # test; an absolute tie width let Bland's rule pick the larger
        # and the basis lost primal feasibility
        cfg = OuterConfig()
        ch = ChannelRealization(*h, 1.0, 1.0)
        sol, cp = ts_point(ch, PowerBudget(10.0, p2), RateProfile(0.5), cfg)
        assert cp.converged
        assert abs(sol.R - cp.upper) <= 2.0 * cfg.epsilon_cp


class TestTdmaCertificate:
    """Each user alone for a share of the time, at its budget over that
    share, certified by one oracle call at the mixture's KKT dual."""

    @staticmethod
    def tdma_value(ch, budget, beta, t):
        """Balanced value of the TDMA mixture with user 1's share ``t``."""
        g11, _, _, g22 = ch.gains
        r1 = t * np.log2(1.0 + g11 * budget.p1 / (t * ch.noise1))
        r2 = (1.0 - t) * np.log2(1.0 + g22 * budget.p2 / ((1.0 - t) * ch.noise2))
        return np.minimum(r1 / beta, r2 / (1.0 - beta))

    @staticmethod
    def loop_point(ch, budget, profile):
        cp = cutting_plane(ch, budget, profile)
        return primal_recover(ch, cp.cuts, budget, profile, start=cp.solution), cp

    def test_value_matches_a_dense_search_over_the_share(self, sec6, budget10):
        sol, cp = ts_point(sec6, budget10, RateProfile(0.5))
        assert [ct.origin for ct in cp.cuts] == ["tdma", "tdma"]
        lo, hi = 1e-6, 1.0 - 1e-6
        for _ in range(6):
            t = np.linspace(lo, hi, 2001)
            best = int(np.argmax(self.tdma_value(sec6, budget10, 0.5, t)))
            lo, hi = t[max(best - 1, 0)], t[min(best + 1, 2000)]
        dense = float(self.tdma_value(sec6, budget10, 0.5, t[best]))
        assert sol.R == pytest.approx(dense, abs=1e-9)
        (t1, p1, _), (t2, p2, _) = sol.strategies
        assert t1 == pytest.approx(t[best], abs=1e-6) and t1 + t2 == pytest.approx(1.0, abs=1e-15)
        assert p1[1] == p2[0] == 0.0

    def test_average_powers_stay_within_budget(self, sec6, budget10):
        # t * (P / t) rounds one ulp above P at beta = 0.03 and 0.84, so
        # the slot power there is the next float below P / t
        budget = (budget10.p1, budget10.p2)
        for beta in [0.5, *np.linspace(0.0, 1.0, 101)[1:-1]]:
            sol, cp = ts_point(sec6, budget10, RateProfile(float(beta)))
            assert cp.cuts[0].origin == "tdma"
            p_avg = sol.average_powers()
            assert p_avg[0] <= budget[0] and p_avg[1] <= budget[1]
            for k, (t, p, _) in enumerate(sol.strategies):
                exact = budget[k] / t
                assert p[k] == exact or (p[k] < exact and t * math.nextafter(p[k], math.inf) > budget[k])

    def test_certificate_is_tight_and_one_oracle_call(self, sec6, budget10):
        for beta in np.linspace(0.05, 0.95, 19):
            profile = RateProfile(float(beta))
            (sol, cp), calls = recorded(outer, "bnb_solve", lambda: ts_point(sec6, budget10, profile))
            assert len(calls) == 1 and cp.cuts[0].origin == "tdma" and cp.converged
            assert abs(cp.upper - sol.R) <= 1e-12
            assert cp.lower == sol.R and cp.solution is None
            dual = cp.dual
            assert dual == calls[0][1]
            assert float(np.dot(profile.rho, (dual.mu1, dual.mu2))) == pytest.approx(1.0, abs=1e-15)
            # never below what the loop recovers, which stops within epsilon_cp
            loop_sol, loop_cp = self.loop_point(sec6, budget10, profile)
            assert loop_sol.R <= sol.R + 1e-12 and sol.R <= loop_cp.upper + 1e-12

    def test_oracle_matches_the_reference_at_tdma_duals(self, sec6, budget10):
        _, calls = recorded(
            outer, "bnb_solve",
            lambda: [ts_point(sec6, budget10, RateProfile(b)) for b in (0.02, 0.3, 0.5, 0.7, 0.98)],
        )
        assert len(calls) == 5
        for _, dual, power_cap in calls:
            assert_matches_bnb(sec6, dual, power_cap)

    @pytest.mark.parametrize(
        "defect",
        [
            dict(capped=True),
            dict(converged=False),
            dict(gap=1e-3),  # the oracle's gap puts the bound above R + epsilon_cp
            "raises",
        ],
    )
    def test_refused_certificate_runs_the_loop(self, sec6, budget10, monkeypatch, defect):
        profile = RateProfile(0.5)
        reference = self.loop_point(sec6, budget10, profile)
        original = outer.bnb_solve
        calls = []

        def defective(ch, dual, power_cap):
            calls.append(dual)
            if len(calls) > 1:
                return original(ch, dual, power_cap)
            if defect == "raises":
                raise RuntimeError("resultant of the gradient numerators vanishes identically")
            return replace(original(ch, dual, power_cap), **defect)

        monkeypatch.setattr(outer, "bnb_solve", defective)
        sol, cp = ts_point(sec6, budget10, profile)
        assert cp.cuts[0].origin == "initial"
        assert (sol, cp) == reference and len(calls) == 1 + len(cp.upper_history)

    def test_refused_without_cross_gains(self, sec6, budget10):
        # both users at full power at once beat taking turns, and the
        # dual value at that point refuses the certificate before any
        # oracle call: every call is the loop's
        ch = replace(sec6, h12=0.0, h21=0.0)
        for beta in (0.2, 0.5, 0.8):
            profile = RateProfile(beta)
            (sol, cp), calls = recorded(outer, "bnb_solve", lambda: ts_point(ch, budget10, profile))
            loop_sol, loop_cp = self.loop_point(ch, budget10, profile)
            assert cp.cuts[0].origin == "initial"
            assert sol == loop_sol and cp == loop_cp and len(calls) == len(cp.upper_history)

    def test_zero_cross_sweep_spares_the_refused_oracle_calls(self, sec6, budget10, monkeypatch):
        # no profile is certified without cross gains, so the sweep's
        # rows are those of the loop alone; only the loop calls the oracle
        ch = replace(sec6, h12=0.0, h21=0.0)
        betas = np.linspace(0.0, 1.0, 101)
        rows, calls = recorded(outer, "bnb_solve", lambda: regions.ts_sweep(ch, budget10, betas))
        assert len(calls) == 142
        monkeypatch.setattr(outer, "_tdma_point", lambda *args: None)
        assert rows == regions.ts_sweep(ch, budget10, betas)

    @pytest.mark.parametrize(
        "gains, beta",
        [({}, 1e-9), ({}, 1.0 - 1e-10), ({}, 0.0), ({}, 1.0), ({"h22": 0.0}, 0.5)],
        ids=["near-axis-1", "near-axis-2", "endpoint-2", "endpoint-1", "no-direct-gain"],
    )
    def test_not_tried(self, sec6, budget10, gains, beta):
        # near an axis a TDMA slot power would exceed the loop's cap
        # 1e3 * max P; an endpoint or a zero direct gain has no TDMA point
        ch = replace(sec6, **gains)
        profile = RateProfile(beta)
        (sol, cp), calls = recorded(outer, "bnb_solve", lambda: ts_point(ch, budget10, profile))
        assert (sol, cp) == self.loop_point(ch, budget10, profile)
        assert len(calls) == (len(cp.upper_history) if 0.0 < beta < 1.0 else 0)


class TestBoundTrajectories:
    def test_lower_nondecreasing_upper_nonincreasing(self, sec6, budget10):
        cp = cutting_plane(sec6, budget10, RateProfile(0.5))
        lows = cp.lower_history
        ups = cp.upper_history
        assert len(lows) == len(ups) >= 2
        assert all(b >= a - 1e-9 for a, b in zip(lows, lows[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(ups, ups[1:]))
        assert all(u >= l - 1e-9 for l, u in zip(lows, ups))

    def test_inner_budget_exhaustion_propagates(self, sec6, budget10, monkeypatch):
        from tinregions import InnerResult, outer

        def unconverged(ch, dual, power_cap):
            return InnerResult((1.0, 1.0), 0.0, 0.5, 2, converged=False, capped=False)

        monkeypatch.setattr(outer, "bnb_solve", unconverged)
        with pytest.raises(RuntimeError, match="did not converge"):
            cutting_plane(sec6, budget10, RateProfile(0.5))


    def test_upper_adds_the_inner_gap(self, sec6, budget10, monkeypatch):
        # an oracle that reports a gap only bounds the dual function from
        # above once the gap is added to its achieved value
        from dataclasses import replace

        from tinregions import outer

        bounds = []

        def with_gap(ch, dual, power_cap):
            res = replace(stationary_solve(ch, dual, power_cap), gap=0.25)
            cut = Cut(res.p, rate_pair_proper(ch, res.p), "stationary")
            bounds.append(achieved_dual_value(dual, budget10, cut) + res.gap)
            return res

        monkeypatch.setattr(outer, "bnb_solve", with_gap)
        monkeypatch.setattr(outer, "MAX_CUTS", 5)
        cp = cutting_plane(sec6, budget10, RateProfile(0.5))
        assert cp.upper == min(bounds)
        assert cp.upper_history == tuple(np.minimum.accumulate(bounds))
        assert not cp.converged


class TestWeakInterference:
    """Channels where branch and bound ran out of boxes (INR below SNR)."""

    @staticmethod
    def assert_certified(ch, beta):
        cfg = OuterConfig()
        solution, cp = ts_point(ch, PowerBudget(10.0, 10.0), RateProfile(beta), cfg)
        assert cp.converged
        assert abs(solution.R - cp.upper) <= 2.0 * cfg.epsilon_cp

    def test_real_weak_channel(self):
        self.assert_certified(ChannelRealization(1.0, 0.5, 0.5, math.sqrt(2.0), 1.0, 1.0), 0.5)

    @pytest.mark.parametrize("snr_db", [0.0, 10.0])
    @pytest.mark.parametrize("seed", [1, 2])
    def test_seeded_weak_channels(self, weak_channel, seed, snr_db):
        self.assert_certified(weak_channel(seed, snr_db, 10.0), 0.5)


class TestOracleDefects:
    """Channels on which the stationary-point oracle failed (unit noise).
    A rounding bound from Hadamard's inequality zeroed the resultant's
    Chebyshev coefficients: all of them on the weak channel ("vanishes
    identically"), and some of them at the missed interior maximum,
    which moved the roots.  The cofactor bound mends both; the
    symmetric channel's numerators share an exact factor."""

    @staticmethod
    def solve(h, P, beta):
        return ts_point(ChannelRealization(*h, 1.0, 1.0), PowerBudget(*P), RateProfile(beta))

    @staticmethod
    def assert_certified(h, P, beta):
        """``ts_point`` converges within 2 epsilon_cp of its dual bound,
        and every dual the oracle sees matches the references."""
        ch = ChannelRealization(*h, 1.0, 1.0)
        (solution, cp), calls = recorded(
            outer, "bnb_solve", lambda: TestOracleDefects.solve(h, P, beta)
        )
        assert cp.status == "converged"
        assert abs(solution.R - cp.upper) <= 2.0 * OuterConfig().epsilon_cp
        for _, dual, power_cap in calls:
            assert_matches_reference(ch, dual, power_cap)

    @pytest.mark.xfail(strict=True, raises=RuntimeError, reason="exact common factor")
    def test_symmetric_channel(self):
        # both receivers see the same total power
        self.solve((1.0, 1.0, 1.0, 1.0), (10.0, 10.0), 0.5)

    def test_missed_interior_maximum(self):
        # at mu = (0.2283, 1.0857), lambda = (6.05e-5, 0.2387) the oracle
        # returned the axis point (0, 6.036) (value 2.51126, gap 0) while a
        # grid finds 2.51219 near p = (0.21, 5.95): "duality gap violation"
        self.assert_certified(
            (1.0, 0.4358719194895653, 0.31622776601683794, 1.3783480336965628),
            (10.0, 5.263591997033746),
            0.1,
        )

    def test_weak_channel_at_minus_10_db(self):
        # the resultant "vanished identically"
        self.assert_certified(
            (0.1, 0.05062704968667979, 0.03162277660168379, 0.16009678822442205),
            (10.0, 3.901528297335133),
            0.1,
        )


def reference_tdma_share(ch, budget, profile, power_cap):
    """The plain bisection of the TDMA share: every midpoint evaluated."""
    g11, _, _, g22 = ch.gains
    (rho1, rho2), (P1, P2) = profile.rho, (budget.p1, budget.p2)

    def excess(t):
        s = 1.0 - t
        return rho2 * t * math.log1p(g11 * P1 / (t * ch.noise1)) - rho1 * s * math.log1p(
            g22 * P2 / (s * ch.noise2)
        )

    lo, hi = P1 / power_cap, 1.0 - P2 / power_cap
    if not (lo < hi and excess(lo) < 0.0 < excess(hi)):
        return None
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return lo
        if excess(mid) < 0.0:
            lo = mid
        else:
            hi = mid


class TestTdmaSharePin:
    """The share search evaluates the excess only near its root and
    returns the plain bisection's float."""

    BETAS = (1e-6, 1e-3, *np.linspace(0.0, 1.0, 41)[1:-1], 1.0 - 1e-3, 1.0 - 1e-6)

    def channels(self, sec6, weak_channel):
        return [
            sec6,
            replace(sec6, h12=0.0, h21=0.0),
            ChannelRealization(1.0, 0.5, 0.5, math.sqrt(2.0), 1.0, 1.0),
            ChannelRealization(9.888924120376545, -9.829986361392262, 0.3, 0.01, 2.0, 0.5),
            weak_channel(1, 0.0),
            weak_channel(2, 20.0),
            *(m.ch for m in family(1)),
        ]

    def assert_same(self, ch, budget, caps):
        """Both searches agree at every profile; returns how many of
        them found a share."""
        found = 0
        for power_cap in caps:
            for beta in self.BETAS:
                profile = RateProfile(float(beta))
                want = reference_tdma_share(ch, budget, profile, power_cap)
                got = outer._tdma_share(ch, budget, profile, power_cap)
                assert float_bits(got) == float_bits(want), (ch, budget, beta, power_cap)
                found += want is not None
        return found

    def test_same_share_as_the_plain_bisection(self, sec6, weak_channel):
        found = 0
        for ch in self.channels(sec6, weak_channel):
            for P in ((10.0, 10.0), (1.0, 30.0), (0.01, 5.0)):
                budget = PowerBudget(*P)
                found += self.assert_same(ch, budget, (outer._power_cap(budget),))
        assert found > 1000

    def test_same_share_where_the_power_cap_binds(self, sec6, weak_channel):
        # caps just above P1 + P2 confine the share to a narrow bracket,
        # so that the slot power caps most profiles' shares or refuses them
        budget = PowerBudget(10.0, 4.0)
        found = 0
        for ch in self.channels(sec6, weak_channel)[:6]:
            found += self.assert_same(ch, budget, (14.0, 14.5, 15.0, 16.0, 20.0))
        assert 0 < found < 6 * 5 * len(self.BETAS) // 2

    def test_the_search_spares_most_evaluations(self, sec6, budget10):
        calls = []
        real = outer.math.log1p

        def counting(x):
            calls.append(x)
            return real(x)

        for beta in np.linspace(0.05, 0.95, 19):
            profile = RateProfile(float(beta))
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(outer.math, "log1p", counting)
                outer._tdma_share(sec6, budget10, profile, outer._power_cap(budget10))
        # two logs per evaluation; the plain bisection makes about 56
        assert len(calls) / 2 / 19 < 25
