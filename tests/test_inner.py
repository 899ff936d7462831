import math

import numpy as np
import pytest

from tinregions import (
    BnbConfig,
    Box,
    ChannelRealization,
    DualPoint,
    bnb_solve,
    box_bounds,
    branch,
    init_box,
    inner_objective,
    proper_rates,
    stationary_solve,
    ts_sweep,
)
from tinregions import inner, outer

LN2 = math.log(2.0)


def single_user_oracle(ch, lam):
    """Closed-form stationary point of mu=1 single-user pricing."""
    g = abs(ch.h11) ** 2
    p = 1.0 / (lam * LN2) - ch.noise1 / g
    f = math.log2(1.0 + g * p) - lam * p
    return p, f


def grid_max(ch, dual, box, step):
    p1 = np.arange(0.0, box.b[0] + step, step)
    p2 = np.arange(0.0, box.b[1] + step, step)
    r1, r2 = proper_rates(ch, p1[:, None], p2[None, :])
    f = (
        dual.mu1 * r1
        + dual.mu2 * r2
        - dual.lambda1 * p1[:, None]
        - dual.lambda2 * p2[None, :]
    )
    return float(f.max())


class TestInnerObjective:
    def test_zero_at_origin(self, sec6):
        assert inner_objective(sec6, DualPoint(1.0, 2.0, 0.3, 0.4), (0.0, 0.0)) == 0.0

    def test_stationary_point_value(self, sec6):
        dual = DualPoint(1.0, 0.0, 0.1, 0.1)
        p_star, f_star = single_user_oracle(sec6, 0.1)
        assert p_star == pytest.approx(14.1845, abs=1e-4)
        assert f_star == pytest.approx(4.4766, abs=1e-4)
        assert inner_objective(sec6, dual, (p_star, 0.0)) == pytest.approx(
            f_star, abs=1e-12
        )

    def test_zero_weights_give_pure_power_bill(self, sec6):
        dual = DualPoint(0.0, 0.0, 0.5, 0.25)
        for p in ((1.0, 2.0), (3.0, 0.0), (10.0, 10.0)):
            assert inner_objective(sec6, dual, p) == pytest.approx(
                -0.5 * p[0] - 0.25 * p[1], abs=1e-12
            )

    def test_consistent_with_rate_functions(self, sec6):
        rng = np.random.default_rng(1)
        for _ in range(50):
            dual = DualPoint(*rng.uniform(0.01, 2.0, 4))
            p = rng.uniform(0.0, 30.0, 2)
            r1, r2 = proper_rates(sec6, p[0], p[1])
            want = dual.mu1 * r1 + dual.mu2 * r2 - dual.lambda1 * p[0] - dual.lambda2 * p[1]
            assert inner_objective(sec6, dual, p) == pytest.approx(float(want), abs=1e-12)


class TestBoxBounds:
    def test_singleton_is_tight(self, sec6):
        dual = DualPoint(1.0, 1.0, 0.1, 0.2)
        for p in ((0.0, 0.0), (3.0, 7.0), (20.0, 1.0)):
            u, a = box_bounds(sec6, dual, Box(p, p))
            f = inner_objective(sec6, dual, p)
            assert u == pytest.approx(f, abs=1e-12)
            assert a == pytest.approx(f, abs=1e-12)

    def test_bounds_sandwich_random_points(self, sec6):
        rng = np.random.default_rng(2)
        box = Box((0.0, 0.0), (10.0, 10.0))
        for _ in range(10):
            dual = DualPoint(*rng.uniform(0.0, 1.5, 4))
            u, a = box_bounds(sec6, dual, box)
            assert a <= u + 1e-12
            for _ in range(100):
                p = rng.uniform(0.0, 10.0, 2)
                assert inner_objective(sec6, dual, p) <= u + 1e-12

    def test_gap_shrinks_with_box_diameter(self, sec6):
        dual = DualPoint(1.0, 0.7, 0.1, 0.1)
        center = np.array([4.0, 6.0])
        gaps = []
        for k in range(12):
            h = 2.0 ** (-k)
            box = Box(tuple(center - h), tuple(center + h))
            u, a = box_bounds(sec6, dual, box)
            gaps.append(u - a)
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3


class TestBranch:
    def test_splits_longest_edge(self):
        b1, b2 = branch(Box((0.0, 0.0), (4.0, 2.0)))
        assert b1 == Box((0.0, 0.0), (2.0, 2.0))
        assert b2 == Box((2.0, 0.0), (4.0, 2.0))

    def test_tie_breaks_on_first_dimension(self):
        b1, b2 = branch(Box((0.0, 0.0), (2.0, 2.0)))
        assert b1 == Box((0.0, 0.0), (1.0, 2.0))
        assert b2 == Box((1.0, 0.0), (2.0, 2.0))

    def test_degenerate_first_dimension(self):
        b1, b2 = branch(Box((1.0, 1.0), (1.0, 3.0)))
        assert b1 == Box((1.0, 1.0), (1.0, 2.0))
        assert b2 == Box((1.0, 2.0), (1.0, 3.0))

    def test_point_box_rejected(self):
        with pytest.raises(ValueError):
            branch(Box((1.0, 2.0), (1.0, 2.0)))


class TestInitBox:
    def test_zero_weights_collapse_to_origin(self, sec6):
        box, capped = init_box(sec6, DualPoint(0.0, 0.0, 1.0, 1.0))
        assert not capped
        assert box.b == (0.0, 0.0)

    def test_root_condition_holds(self, sec6):
        dual = DualPoint(1.0, 0.0, 0.1, 0.1)
        box, capped = init_box(sec6, dual)
        assert not capped
        g = abs(sec6.h11) ** 2
        p01 = box.b[0]
        fhat = math.log2(1.0 + g * p01 / sec6.noise1) - 0.1 * p01
        # other user's envelope peaks at zero, so the root equation is
        # fhat_1(p01) = 0
        assert fhat == pytest.approx(0.0, abs=1e-6)

    def test_missing_price_engages_cap(self, sec6):
        cfg = BnbConfig(power_cap=123.0)
        box, capped = init_box(sec6, DualPoint(1.0, 0.0, 0.0, 0.1), cfg)
        assert capped
        assert box.b == (123.0, 123.0)

    def test_grid_maximizer_inside_box(self, sec6):
        rng = np.random.default_rng(12)
        for _ in range(100):
            dual = DualPoint(
                rng.uniform(0.0, 2.0),
                rng.uniform(0.0, 2.0),
                rng.uniform(0.05, 1.0),
                rng.uniform(0.05, 1.0),
            )
            box, capped = init_box(sec6, dual)
            assert not capped
            hi = (box.b[0] * 1.5 + 1.0, box.b[1] * 1.5 + 1.0)
            p1 = np.linspace(0.0, hi[0], 160)
            p2 = np.linspace(0.0, hi[1], 160)
            r1, r2 = proper_rates(sec6, p1[:, None], p2[None, :])
            f = (
                dual.mu1 * r1
                + dual.mu2 * r2
                - dual.lambda1 * p1[:, None]
                - dual.lambda2 * p2[None, :]
            )
            i, j = np.unravel_index(np.argmax(f), f.shape)
            step = (hi[0] / 159, hi[1] / 159)
            assert p1[i] <= box.b[0] + step[0] + 1e-9
            assert p2[j] <= box.b[1] + step[1] + 1e-9


class TestBnbSolve:
    def test_single_user_oracle(self, sec6):
        dual = DualPoint(1.0, 0.0, 0.1, 0.1)
        p_star, f_star = single_user_oracle(sec6, 0.1)
        res = bnb_solve(sec6, dual)
        assert res.converged and not res.capped
        assert res.gap <= 1e-6
        assert 0.0 <= f_star - res.value <= 1e-6 + 1e-9
        assert res.p[0] == pytest.approx(p_star, abs=0.05)
        assert res.p[1] <= 1e-9

    def test_zero_weights(self, sec6):
        res = bnb_solve(sec6, DualPoint(0.0, 0.0, 0.7, 0.7))
        assert res.p == (0.0, 0.0)
        assert res.value == 0.0
        assert res.converged

    def test_capped_dual_maxes_out_power(self, sec6):
        cfg = BnbConfig(power_cap=1000.0)
        res = bnb_solve(sec6, DualPoint(1.0, 0.0, 0.0, 0.1), cfg)
        assert res.capped
        assert res.p[0] == pytest.approx(1000.0, rel=1e-4)

    def test_matches_grid_oracle(self, sec6):
        rng = np.random.default_rng(13)
        eps = 1e-6
        for _ in range(10):
            dual = DualPoint(
                rng.uniform(0.0, 2.0),
                rng.uniform(0.0, 2.0),
                rng.uniform(0.05, 1.0),
                rng.uniform(0.05, 1.0),
            )
            box, _ = init_box(sec6, dual)
            step = 0.05
            best_grid = grid_max(sec6, dual, box, step)
            res = bnb_solve(sec6, dual)
            assert res.converged and res.gap <= eps
            g11, g12, g21, g22 = sec6.gains
            lip = (
                dual.mu1 * g11 / (sec6.noise1 * LN2)
                + dual.mu2 * g22 / (sec6.noise2 * LN2)
                + dual.lambda1
                + dual.lambda2
            )
            assert abs(res.value - best_grid) <= eps + lip * step

    def test_budget_exhaustion_flagged(self, sec6):
        cfg = BnbConfig(epsilon=1e-12, max_iterations=5)
        res = bnb_solve(sec6, DualPoint(1.0, 1.0, 0.1, 0.1), cfg)
        assert not res.converged
        assert res.iterations == 5
        assert res.gap > 1e-12

    def test_deterministic(self, sec6):
        dual = DualPoint(0.9, 1.1, 0.09, 0.14)
        a = bnb_solve(sec6, dual)
        b = bnb_solve(sec6, dual)
        assert a == b


class TestBoundFamilyInvariants:
    def test_children_bounds_nest_inside_parent(self, sec6):
        rng = np.random.default_rng(14)
        for _ in range(50):
            dual = DualPoint(*rng.uniform(0.0, 2.0, 4))
            a = rng.uniform(0.0, 5.0, 2)
            b = a + rng.uniform(0.1, 10.0, 2)
            parent = Box(tuple(a), tuple(b))
            u, low = box_bounds(sec6, dual, parent)
            for child in branch(parent):
                cu, ca = box_bounds(sec6, dual, child)
                assert cu <= u + 1e-12
                assert ca <= cu + 1e-12
            # the lower child keeps the parent's bottom corner, so the
            # best achieved value over children never drops
            ca1 = box_bounds(sec6, dual, branch(parent)[0])[1]
            assert ca1 == pytest.approx(low, abs=1e-12)

    def test_objective_below_interference_free_envelope(self, sec6):
        rng = np.random.default_rng(15)
        g11, g12, g21, g22 = sec6.gains
        for _ in range(20):
            dual = DualPoint(*rng.uniform(0.0, 2.0, 4))
            for _ in range(50):
                p = rng.uniform(0.0, 40.0, 2)
                envelope = (
                    dual.mu1 * math.log1p(g11 * p[0] / sec6.noise1) / LN2
                    - dual.lambda1 * p[0]
                    + dual.mu2 * math.log1p(g22 * p[1] / sec6.noise2) / LN2
                    - dual.lambda2 * p[1]
                )
                assert inner_objective(sec6, dual, p) <= envelope + 1e-12


def criterion7_duals():
    """The 50 duals of acceptance criterion 7, in the same order."""
    rng = np.random.default_rng(2024)
    return [
        DualPoint(
            rng.uniform(0.0, 2.0),
            rng.uniform(0.0, 2.0),
            rng.uniform(0.05, 1.0),
            rng.uniform(0.05, 1.0),
        )
        for _ in range(50)
    ]


def lipschitz(ch, dual):
    """Criterion 7's bound on |df/dp1| + |df/dp2|."""
    g11, g12, g21, g22 = ch.gains
    return (
        dual.mu1 * (g11 + g12) / (ch.noise1 * LN2)
        + dual.mu2 * (g21 + g22) / (ch.noise2 * LN2)
        + dual.lambda1
        + dual.lambda2
    )


def sweep_duals(ch, budget, count, seed):
    """A seeded subset of the duals (with inner configs) that the
    101-profile ts-proper sweep hands to the inner oracle."""
    seen = []

    def record(ch, dual, cfg):
        seen.append((dual, cfg))
        return stationary_solve(ch, dual, cfg)

    original = outer.bnb_solve
    outer.bnb_solve = record
    try:
        ts_sweep(ch, budget, np.linspace(0.0, 1.0, 101))
    finally:
        outer.bnb_solve = original
    rng = np.random.default_rng(seed)
    return [seen[i] for i in sorted(rng.choice(len(seen), count, replace=False))]


def assert_matches_bnb(ch, dual, cfg=BnbConfig()):
    ref = bnb_solve(ch, dual, cfg)
    assert ref.converged
    res = stationary_solve(ch, dual, cfg)
    assert res.capped == ref.capped
    # never below the incumbent by more than its own gap, never above the
    # certified bound (both up to rounding)
    assert ref.value - res.gap - 1e-12 <= res.value <= ref.value + ref.gap + 1e-12, (dual, res, ref)
    return res


def assert_matches_grid(ch, dual, points=400):
    """The oracle beats every point of a dense grid over the box that
    holds all candidates, and the grid comes within its Lipschitz
    bound of the oracle."""
    res = stationary_solve(ch, dual)
    assert res.converged and not res.capped
    g11, g12, g21, g22 = ch.gains
    hi1 = max(dual.mu1 / (dual.lambda1 * LN2) - ch.noise1 / g11, 0.0)
    hi2 = max(dual.mu2 / (dual.lambda2 * LN2) - ch.noise2 / g22, 0.0)
    p1 = np.linspace(0.0, hi1, points)
    p2 = np.linspace(0.0, hi2, points)
    r1, r2 = proper_rates(ch, p1[:, None], p2[None, :])
    f = dual.mu1 * r1 + dual.mu2 * r2 - dual.lambda1 * p1[:, None] - dual.lambda2 * p2[None, :]
    step = max(hi1, hi2) / (points - 1)
    best = float(f.max())
    assert best <= res.value + 1e-12, (dual, best, res)
    assert res.value - best <= lipschitz(ch, dual) * step + 1e-12, (dual, best, res)


class TestStationarySolve:
    def test_single_user_oracle(self, sec6):
        p_star, f_star = single_user_oracle(sec6, 0.1)
        res = stationary_solve(sec6, DualPoint(1.0, 0.0, 0.1, 0.1))
        assert res.converged and not res.capped and res.gap == 0.0
        assert res.p[0] == pytest.approx(p_star, rel=1e-12)
        assert res.p[1] == 0.0
        assert res.value == pytest.approx(f_star, abs=1e-12)

    def test_zero_weights(self, sec6):
        res = stationary_solve(sec6, DualPoint(0.0, 0.0, 0.7, 0.7))
        assert res.p == (0.0, 0.0)
        assert res.value == 0.0

    def test_result_fields(self, sec6):
        res = stationary_solve(sec6, DualPoint(1.0, 1.3, 0.08, 0.2))
        assert res.converged and not res.capped
        assert res.gap == 0.0
        assert res.iterations >= 3  # origin, two axis peaks, interior points
        assert res.value == inner_objective(sec6, DualPoint(1.0, 1.3, 0.08, 0.2), res.p)

    def test_interior_point_is_stationary(self):
        ch = ChannelRealization(1.0, 0.1, 0.1, 1.2, 1.0, 1.0)
        dual = DualPoint(1.0, 1.0, 0.3, 0.3)
        res = stationary_solve(ch, dual)
        assert res.p[0] > 0.0 and res.p[1] > 0.0
        for k in range(2):
            e = np.zeros(2)
            e[k] = 1e-6
            p = np.array(res.p)
            slope = (inner_objective(ch, dual, p + e) - inner_objective(ch, dual, p - e)) / 2e-6
            assert abs(slope) <= 1e-6

    def test_capped_dual_maxes_out_power(self, sec6):
        cfg = BnbConfig(power_cap=1000.0)
        res = stationary_solve(sec6, DualPoint(1.0, 0.0, 0.0, 0.1), cfg)
        assert res.capped
        assert res.p == (1000.0, 0.0)

    def test_deterministic(self, sec6):
        dual = DualPoint(0.9, 1.1, 0.09, 0.14)
        assert stationary_solve(sec6, dual) == stationary_solve(sec6, dual)

    def test_negligible_weight_is_bounded_by_gap(self, sec6):
        # a weight of 1e-15 cannot move the objective by more than its
        # rate range, which the result reports as its gap
        dual = DualPoint(1.4, 1.6e-15, 0.54, 0.0)
        cfg = BnbConfig(power_cap=1e4)
        res = stationary_solve(sec6, dual, cfg)
        assert res.capped and 0.0 < res.gap <= 1e-13
        assert_matches_bnb(sec6, dual, cfg)

    @pytest.mark.parametrize("prices", [(5e-10, 1e-9), (0.0, 1e-9), (1e-9, 1e-9)])
    def test_floor_prices_are_bounded_by_gap(self, sec6, prices):
        # capped prices up to LAMBDA_FLOOR are treated as zero; their bill
        # at the power cap is the gap, which covers the certified value
        cap = 1e4
        res = assert_matches_bnb(sec6, DualPoint(1.0, 1.0, *prices), BnbConfig(power_cap=cap))
        assert res.capped
        assert res.gap == sum(prices) * cap > 0.0


class TestEliminant:
    def test_roots_of_a_linear_system(self):
        # y - x = 0 and x + y - 1 = 0 meet at x = 0.5
        f = inner._affine(0.0, -1.0, 1.0)
        g = inner._affine(-1.0, 1.0, 1.0)
        assert inner._eliminant_roots(f, g) == pytest.approx([0.5], abs=1e-12)

    def test_common_factor_raises(self):
        common = inner._affine(1.0, 2.0, 3.0)
        f = inner._mul(common, inner._affine(0.5, -1.0, 1.0))
        g = inner._mul(common, inner._affine(2.0, 1.0, -1.0), inner._affine(1.0, 0.0, 1.0))
        with pytest.raises(RuntimeError, match="vanishes identically"):
            inner._eliminant_roots(f, g)

    def test_vanishing_resultant_never_returns_a_value(self, sec6, monkeypatch):
        common = inner._affine(1.0, 2.0, 3.0)

        def shared_factor(c, a1, a2, l1, l2):
            return (
                inner._mul(common, inner._affine(0.5, -1.0, 1.0)),
                inner._mul(common, inner._affine(2.0, 1.0, -1.0)),
            )

        monkeypatch.setattr(inner, "_gradient_numerators", shared_factor)
        with pytest.raises(RuntimeError):
            stationary_solve(sec6, DualPoint(1.0, 1.3, 0.08, 0.2))


class TestOracleGate:
    """The stationary-point oracle against certified branch and bound:
    never below it, never above its certified gap."""

    def test_criterion7_duals(self, sec6):
        for dual in criterion7_duals():
            assert_matches_bnb(sec6, dual)

    def test_capped_dual(self, sec6):
        assert_matches_bnb(sec6, DualPoint(1.0, 0.0, 0.0, 0.1), BnbConfig(power_cap=1e4))

    def test_unpriced_capped_dual_at_high_snr(self):
        # nearly scale-free: the two gradient numerators are almost
        # dependent, so the oracle must not eliminate between them
        ch = ChannelRealization(*np.sqrt([98.46, 100.04, 99.12, 98.75]), 1.0, 1.0)
        assert_matches_bnb(ch, DualPoint(1.916, 0.09997, 0.0, 0.0), BnbConfig(power_cap=1e4))

    def test_sweep_duals(self, sec6, budget10):
        for dual, cfg in sweep_duals(sec6, budget10, 60, seed=5):
            assert_matches_bnb(sec6, dual, cfg)

    @pytest.mark.parametrize(
        "channel",
        [
            (1.0, 0.5, 0.5, math.sqrt(2.0)),
            (1, 0.0, 10.0),
            (2, 10.0, 10.0),
            (3, -10.0, 20.0),
            (1.0, 0.0, 0.0, 1.2),
        ],
        ids=["weak-real", "snr0", "snr10", "snr-10", "no-cross"],
    )
    def test_weak_interference_against_grid(self, channel, weak_channel):
        # branch and bound exhausts its budget on these channels; a
        # four-tuple is real coefficients with unit noise, a three-tuple
        # (seed, SNR dB, INR dB below SNR) a seeded complex channel
        if len(channel) == 4:
            ch = ChannelRealization(*channel, 1.0, 1.0)
        else:
            seed, snr_db, below_db = channel
            ch = weak_channel(seed, snr_db, below_db)
        for dual in criterion7_duals()[:12]:
            assert_matches_grid(ch, dual)
