import numpy as np
import pytest

from tinregions import (
    PowerBudget,
    RateProfile,
    RegionConfig,
    SamplingConfig,
    enhance,
    lemma1_check,
    proper_rates,
    pure_improper_samples,
    pure_proper_point,
    sweep_boundary,
    theorem1_check,
    upper_right_hull,
)
from tinregions import regions
from tinregions.regions import _profile_value, boundary_violation


@pytest.fixture(scope="module")
def small_cfg():
    return RegionConfig(sampling=SamplingConfig(power_grid=9, fraction_grid=5, phase_grid=8, random_count=2000))


class TestPureProperPoint:
    def test_profile_one_hits_analytic_intercept(self, sec6, budget10):
        R, p = pure_proper_point(sec6, budget10, RateProfile(1.0))
        assert R == pytest.approx(5.40086611903573, abs=1e-6)
        assert p[0] == pytest.approx(10.0, abs=1e-6)

    def test_symmetric_profile_matches_published_point(self, sec6, budget10):
        R, p = pure_proper_point(sec6, budget10, RateProfile(0.5))
        assert 0.5 * R == pytest.approx(1.41831003656675, abs=2e-5)

    def test_zero_budget(self, sec6):
        R, p = pure_proper_point(sec6, PowerBudget(0.0, 0.0), RateProfile(0.5))
        assert R == 0.0

    def test_never_below_plain_grid(self, sec6, budget10):
        for beta in (0.2, 0.5, 0.9):
            profile = RateProfile(beta)
            R, _ = pure_proper_point(sec6, budget10, profile, grid=41)
            p1 = np.linspace(0, 10, 41)
            r1, r2 = proper_rates(sec6, p1[:, None], p1[None, :])
            rho1, rho2 = profile.rho
            grid_best = float(np.minimum(r1 / rho1, r2 / rho2).max())
            assert R >= grid_best - 1e-12


class TestPureImproperSamples:
    def test_contains_proper_power_grid(self, sec6, budget10):
        cfg = SamplingConfig(power_grid=6, fraction_grid=2, phase_grid=2, random_count=0)
        samples = pure_improper_samples(sec6, budget10, cfg)
        p = np.linspace(0.0, 10.0, 6)
        r1, r2 = proper_rates(sec6, p[:, None], p[None, :])
        want = np.column_stack((r1.ravel(), r2.ravel()))
        for row in want:
            dist = np.abs(samples - row).max(axis=1).min()
            assert dist <= 1e-12

    def test_deterministic_for_fixed_seed(self, sec6, budget10):
        cfg = SamplingConfig(power_grid=4, fraction_grid=3, phase_grid=4, random_count=500)
        a = pure_improper_samples(sec6, budget10, cfg)
        b = pure_improper_samples(sec6, budget10, cfg)
        assert a.tobytes() == b.tobytes()

    def test_all_rates_finite_nonnegative(self, sec6, budget10, small_cfg):
        samples = pure_improper_samples(sec6, budget10, small_cfg.sampling)
        assert np.all(np.isfinite(samples))
        assert np.all(samples >= 0.0)


class TestUpperRightHull:
    def test_interior_point_dropped(self):
        hull = upper_right_hull([(1.0, 0.0), (0.0, 1.0), (0.4, 0.4)])
        assert hull == pytest.approx(np.array([[1.0, 0.0], [0.0, 1.0]]))

    def test_exterior_point_kept(self):
        hull = upper_right_hull([(1.0, 0.0), (0.0, 1.0), (0.6, 0.6)])
        assert hull == pytest.approx(
            np.array([[1.0, 0.0], [0.6, 0.6], [0.0, 1.0]])
        )

    def test_proper_region_hull_is_single_chord(self, sec6, budget10):
        betas = np.linspace(0.0, 1.0, 21)
        boundary = sweep_boundary("pure-proper", sec6, budget10, betas)
        hull = upper_right_hull(boundary.rate_points())
        assert len(hull) == 2
        assert hull[0] == pytest.approx([5.400866119035728, 0.0], abs=1e-6)
        assert hull[1][1] == pytest.approx(3.4423361094760603, abs=1e-6)

    def test_slopes_strictly_decreasing_and_dominating(self):
        rng = np.random.default_rng(31)
        pts = rng.uniform(0.0, 5.0, size=(400, 2))
        hull = upper_right_hull(pts)
        ascending = hull[::-1]
        slopes = np.diff(ascending[:, 1]) / np.diff(ascending[:, 0])
        assert np.all(np.diff(slopes) < 0) or len(hull) <= 2
        for q in pts:
            assert boundary_violation(q, hull) <= 1e-9

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            upper_right_hull(np.empty((0, 2)))

    def test_prefilter_leaves_hull_unchanged(self, sec6, budget10, small_cfg, monkeypatch):
        rng = np.random.default_rng(32)
        grid = np.stack(np.meshgrid(np.arange(12.0), np.arange(12.0)), -1).reshape(-1, 2)
        angles = rng.uniform(0.0, 0.5 * np.pi, 500)
        clouds = [
            rng.uniform(0.0, 5.0, size=(400, 2)),
            grid[grid.sum(axis=1) <= 11.0],  # lattice: points on every chord
            np.column_stack((np.cos(angles), np.sin(angles))) * rng.uniform(0.98, 1.0, (500, 1)),
            np.vstack([rng.integers(0, 4, size=(300, 2)), [[0.0, 0.0], [7.0, 0.0], [0.0, 7.0]]]),
            pure_improper_samples(sec6, budget10, small_cfg.sampling),
        ]
        filtered = [upper_right_hull(c) for c in clouds]
        monkeypatch.setattr(regions, "_drop_interior", lambda pts: pts)
        for cloud, hull in zip(clouds, filtered):
            assert np.array_equal(hull, upper_right_hull(cloud))

    def test_prefilter_keeps_points_on_chords(self):
        pts = np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 2.0], [1.5, 0.5], [0.5, 1.5], [0.5, 0.5]])
        kept = regions._drop_interior(pts)
        assert {tuple(p) for p in kept} == {tuple(p) for p in pts[:5]}


class TestSweepBoundary:
    def test_ts_three_point_sweep(self, sec6, budget10):
        boundary = sweep_boundary("ts-proper", sec6, budget10, [0.0, 0.5, 1.0])
        assert [e.status for e in boundary.entries] == ["ok"] * 3
        assert boundary.entries[2].R == pytest.approx(5.40086611903573, abs=1e-3)
        assert boundary.entries[0].R == pytest.approx(3.44236388446505, abs=1e-3)
        mid = boundary.entries[1]
        assert mid.rates.r1 == pytest.approx(2.54494936027933, abs=5e-3)
        assert mid.rates.r2 == pytest.approx(2.54494936027933, abs=5e-3)

    def test_hull_dominates_pure_and_ts_dominates_hull(self, sec6, budget10):
        betas = np.linspace(0.0, 1.0, 9)
        pure = sweep_boundary("pure-proper", sec6, budget10, betas)
        hull = sweep_boundary("hull-proper", sec6, budget10, betas)
        ts = sweep_boundary("ts-proper", sec6, budget10, betas)
        for p, h, t in zip(pure.entries, hull.entries, ts.entries):
            assert h.R >= p.R - 1e-6
            assert t.R >= h.R - 1e-6

    def test_pure_boundary_rate_monotone_in_beta(self, sec6, budget10):
        betas = np.linspace(0.0, 1.0, 21)
        boundary = sweep_boundary("pure-proper", sec6, budget10, betas)
        r1 = [e.rates.r1 for e in boundary.entries]
        r2 = [e.rates.r2 for e in boundary.entries]
        assert all(b >= a - 1e-9 for a, b in zip(r1, r1[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(r2, r2[1:]))

    def test_unknown_method_rejected(self, sec6, budget10):
        with pytest.raises(ValueError):
            sweep_boundary("nope", sec6, budget10, [0.5])
        with pytest.raises(ValueError):
            sweep_boundary("ts-proper", sec6, budget10, [])


@pytest.fixture(scope="module")
def ts_boundary(sec6, budget10):
    return sweep_boundary("ts-proper", sec6, budget10, np.linspace(0.0, 1.0, 41))


class TestTheorem1Check:
    def test_proper_candidates_contained_by_construction(
        self, sec6, budget10, ts_boundary
    ):
        report = theorem1_check(
            sec6, budget10, trials=60, boundary=ts_boundary, impropriety=(0.0, 0.0)
        )
        assert report.passed
        assert report.max_violation <= report.tolerance

    def test_improper_candidates_stay_inside(self, sec6, budget10, ts_boundary):
        report = theorem1_check(sec6, budget10, trials=150, boundary=ts_boundary)
        assert report.passed
        assert report.failures == 0

    def test_scaled_channel_rerun(self, sec6, budget10):
        from tinregions import ChannelRealization

        scaled = ChannelRealization(
            2 * sec6.h11, 2 * sec6.h12, 2 * sec6.h21, 2 * sec6.h22,
            sec6.noise1, sec6.noise2,
        )
        boundary = sweep_boundary(
            "ts-proper", scaled, budget10, np.linspace(0.0, 1.0, 41)
        )
        report = theorem1_check(scaled, budget10, trials=100, boundary=boundary)
        assert report.passed


class TestLemma1Check:
    def test_sec6_report_passes(self, sec6, small_cfg):
        report = lemma1_check(sec6, small_cfg, trials=20_000)
        assert report.passed
        assert report.max_bound_violation <= 1e-12
        assert report.max_alignment_gap <= 1e-9
        assert report.max_enhanced_mismatch <= 1e-12

    def test_enhanced_channel_also_passes(self, sec6, small_cfg):
        report = lemma1_check(enhance(sec6), small_cfg, trials=5000)
        assert report.passed


def test_profile_value_interpolates_hull():
    hull = np.array([[4.0, 0.0], [2.0, 2.0], [0.0, 3.0]])
    assert _profile_value(hull, (1.0, 0.0)) == pytest.approx(4.0)
    assert _profile_value(hull, (0.0, 1.0)) == pytest.approx(3.0)
    # the diagonal ray exits the region exactly at the vertex (2, 2)
    v = _profile_value(hull, (0.5, 0.5))
    assert 0.5 * v == pytest.approx(2.0, abs=1e-9)
    # a shallower ray crosses the right-hand segment r2 = 4 - r1 instead
    v = _profile_value(hull, (0.75, 0.25))
    assert 0.75 * v == pytest.approx(3.0, abs=1e-9)


class TestHeadlineMargin:
    def test_ts_diagonal_beats_improper_hull_by_margin(self, sec6, budget10, ts_boundary):
        mid = [e for e in ts_boundary.entries if abs(e.beta - 0.5) < 1e-9][0]
        samples = pure_improper_samples(
            sec6, budget10, SamplingConfig(power_grid=31, fraction_grid=13, phase_grid=16, random_count=50_000)
        )
        hull = upper_right_hull(samples)
        improper_diag = 0.5 * _profile_value(hull, (0.5, 0.5))
        assert 0.5 * mid.R - improper_diag >= 0.05


class TestBoundaryMonotonicity:
    def test_ts_rates_monotone_in_beta(self, sec6, budget10, ts_boundary):
        r1 = [e.rates.r1 for e in ts_boundary.entries]
        r2 = [e.rates.r2 for e in ts_boundary.entries]
        assert all(b >= a - 5e-4 for a, b in zip(r1, r1[1:]))
        assert all(b <= a + 5e-4 for a, b in zip(r2, r2[1:]))

    def test_hull_rates_monotone_in_beta(self, sec6, budget10):
        betas = np.linspace(0.0, 1.0, 21)
        hull = sweep_boundary("hull-proper", sec6, budget10, betas)
        r1 = [e.rates.r1 for e in hull.entries]
        r2 = [e.rates.r2 for e in hull.entries]
        assert all(b >= a - 1e-9 for a, b in zip(r1, r1[1:]))
        assert all(b <= a + 1e-9 for a, b in zip(r2, r2[1:]))
