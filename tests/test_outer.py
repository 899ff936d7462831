import itertools
import math

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
    primal_recover,
    rate_pair_proper,
    relaxed_dual_lp,
    stationary_solve,
    ts_point,
)
from tinregions.lp import EQUAL, GREATER


def make_cut(ch, p):
    return Cut(tuple(p), rate_pair_proper(ch, p), "bnb")


class TestRelaxedDualLp:
    def test_single_origin_cut_solves_to_zero(self, sec6, budget10):
        lp = relaxed_dual_lp([make_cut(sec6, (0.0, 0.0))], budget10, RateProfile(0.4))
        sol = lp_solve(lp)
        assert sol.status == "optimal"
        assert sol.objective == pytest.approx(0.0, abs=1e-9)
        assert sol.primal[2] == pytest.approx(0.0, abs=1e-9)  # lambda1
        assert sol.primal[3] == pytest.approx(0.0, abs=1e-9)  # lambda2

    def test_profile_one_forces_mu1(self, sec6, budget10):
        cuts = [make_cut(sec6, (5.0, 5.0)), make_cut(sec6, (10.0, 0.0))]
        sol = lp_solve(relaxed_dual_lp(cuts, budget10, RateProfile(1.0)))
        assert sol.primal[0] == pytest.approx(1.0, abs=1e-9)

    def test_two_cut_lp_matches_vertex_enumeration(self, sec6, budget10):
        cuts = [make_cut(sec6, (5.0, 5.0)), make_cut(sec6, (10.0, 2.0))]
        profile = RateProfile(0.5)
        lp = relaxed_dual_lp(cuts, budget10, profile)
        sol = lp_solve(lp)

        # enumerate bases by activating 5 of the constraints (z is free,
        # the others bounded below by 0)
        rows = [(np.array(c, float), rel, float(r)) for c, rel, r in lp.rows]
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

    def test_empty_cut_list_rejected(self, budget10):
        with pytest.raises(ValueError):
            relaxed_dual_lp([], budget10, RateProfile(0.5))


class TestAchievedDualValue:
    def test_zero_dual_gives_zero(self, sec6, budget10):
        cut = make_cut(sec6, (4.0, 9.0))
        dual = DualPoint(0.0, 0.0, 0.0, 0.0)
        assert achieved_dual_value(sec6, dual, budget10, cut) == 0.0

    def test_formula(self, sec6, budget10):
        dual = DualPoint(0.7, 1.3, 0.2, 0.1)
        cut = make_cut(sec6, (3.0, 6.0))
        want = (
            0.2 * 10 + 0.1 * 10
            + 0.7 * cut.rates.r1 + 1.3 * cut.rates.r2
            - 0.2 * 3.0 - 0.1 * 6.0
        )
        assert achieved_dual_value(sec6, dual, budget10, cut) == pytest.approx(want)

    def test_running_min_is_nonincreasing(self, sec6, budget10):
        rng = np.random.default_rng(21)
        values = [
            achieved_dual_value(
                sec6,
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

    def test_zero_budget_rejected(self, sec6):
        with pytest.raises(ValueError):
            cutting_plane(sec6, PowerBudget(0.0, 10.0), RateProfile(0.5))

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

    def test_duplicate_cut_keeps_lp_optimum(self, sec6, budget10):
        profile = RateProfile(0.5)
        cp = cutting_plane(sec6, budget10, profile)
        sol = lp_solve(relaxed_dual_lp(cp.cuts, budget10, profile))
        dup = lp_solve(
            relaxed_dual_lp(list(cp.cuts) + [cp.cuts[-1]], budget10, profile)
        )
        assert dup.objective == pytest.approx(sol.objective, abs=1e-9)


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
        from tinregions import BnbResult, outer

        def unconverged(ch, dual, cfg):
            return BnbResult((1.0, 1.0), 0.0, 0.5, 2, converged=False, capped=False)

        monkeypatch.setattr(outer, "bnb_solve", unconverged)
        with pytest.raises(RuntimeError, match="did not converge"):
            cutting_plane(sec6, budget10, RateProfile(0.5))


    def test_upper_adds_the_inner_gap(self, sec6, budget10, monkeypatch):
        # an oracle that reports a gap only bounds the dual function from
        # above once the gap is added to its achieved value
        from dataclasses import replace

        from tinregions import outer

        bounds = []

        def with_gap(ch, dual, cfg):
            res = replace(stationary_solve(ch, dual, cfg), gap=0.25)
            cut = Cut(res.p, rate_pair_proper(ch, res.p), "stationary")
            bounds.append(achieved_dual_value(ch, dual, budget10, cut) + res.gap)
            return res

        monkeypatch.setattr(outer, "bnb_solve", with_gap)
        cp = cutting_plane(sec6, budget10, RateProfile(0.5), OuterConfig(max_cuts=5))
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
