import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tinregions import (
    ChannelRealization,
    ContainmentReport,
    PowerBudget,
    RateProfile,
    RegionConfig,
    SamplingConfig,
    enhance,
    improper_rates,
    lemma1_check,
    proper_rates,
    pure_improper_samples,
    pure_proper_point,
    sweep_boundary,
    theorem1_check,
    upper_right_hull,
)
from tinregions import lp as lp_module
from tinregions import outer, regions
from tinregions.model import TWO_PI, _phase_weights
from tinregions.regions import _profile_value, boundary_violation, pareto_staircase


@pytest.fixture(scope="module")
def small_cfg():
    return RegionConfig(sampling=SamplingConfig(power_grid=9, fraction_grid=5, phase_grid=8, random_count=2000))


def per_phase_samples(ch, budget, sampling, phases=None):
    """The sampler written as one `improper_rates` call per phase
    difference, stacked and concatenated: by default at every phase of
    the grid, the all-phase reference whose hull and staircase the
    sampler must reproduce bit for bit; at the indices ``phases``, the
    reference for its samples themselves."""
    c1 = np.linspace(0.0, budget.p1, sampling.power_grid)
    c2 = np.linspace(0.0, budget.p2, sampling.power_grid)
    frac = np.linspace(0.0, 1.0, sampling.fraction_grid)
    psis = np.linspace(0.0, TWO_PI, sampling.phase_grid, endpoint=False)
    if phases is not None:
        psis = psis[phases]
    C1, C2, F1, F2 = (a.ravel() for a in np.meshgrid(c1, c2, frac, frac, indexing="ij"))
    K1 = F1 * C1
    K2 = F2 * C2
    chunks = []
    for psi in psis:
        r1, r2 = improper_rates(ch, C1, C2, K1, K2, psi, 0.0)
        chunks.append(np.column_stack((r1, r2)))
    if sampling.random_count > 0:
        rng = np.random.default_rng(sampling.seed)
        n = sampling.random_count
        rc1 = rng.uniform(0.0, budget.p1, n)
        rc2 = rng.uniform(0.0, budget.p2, n)
        rk1 = rng.uniform(0.0, 1.0, n) * rc1
        rk2 = rng.uniform(0.0, 1.0, n) * rc2
        rpsi = rng.uniform(0.0, TWO_PI, n)
        r1, r2 = improper_rates(ch, rc1, rc2, rk1, rk2, rpsi, 0.0)
        chunks.append(np.column_stack((r1, r2)))
    return np.concatenate(chunks, axis=0)


def undominated_phases(ch, phase_grid):
    """Indices of the grid phases whose weight pair (zero for a user
    with a zero gain, whose rate ignores it) no other phase matches or
    beats in both entries, the first of equal pairs."""
    psis = np.linspace(0.0, TWO_PI, phase_grid, endpoint=False)
    w = np.array([_phase_weights(ch, psi, 0.0) for psi in psis])
    g11, g12, g21, g22 = ch.gains
    w[:, [min(g11, g12) == 0.0, min(g22, g21) == 0.0]] = 0.0
    ge = np.all(w[None, :] >= w[:, None], axis=2)  # ge[i, j]: j matches or beats i
    eq = np.all(w[None, :] == w[:, None], axis=2)
    earlier = np.arange(phase_grid)[None, :] < np.arange(phase_grid)[:, None]
    beaten = np.any(ge & (~eq | earlier), axis=1)
    return np.flatnonzero(~beaten)


SAMPLER_CHANNELS = {
    "real": ChannelRealization(1.0, -0.6, 0.8, 1.3, 1.0, 1.0),
    "zero-cross": ChannelRealization(1.0 + 1.0j, 0.0, 0.0, 0.5 - 1.0j, 1.0, 1.0),
    "unequal-noise": ChannelRealization(0.9 - 0.3j, 0.7j, -0.4 + 0.5j, 1.1, 0.3, 2.5),
}


def edge_scan_best(ch, budget, profile, n=20_001):
    """Best balanced value on a uniform scan of both full-power edges."""
    rho1, rho2 = profile.rho
    t1 = np.linspace(0.0, budget.p1, n)
    t2 = np.linspace(0.0, budget.p2, n)
    best = -np.inf
    for p1, p2 in ((np.full(n, budget.p1), t2), (t1, np.full(n, budget.p2))):
        r1, r2 = proper_rates(ch, p1, p2)
        best = max(best, float(np.minimum(r1 / rho1, r2 / rho2).max()))
    return best


def grid_best(ch, budget, profile, n):
    """Best balanced value on an n x n grid over the power rectangle."""
    rho1, rho2 = profile.rho
    p1 = np.linspace(0.0, budget.p1, n)
    p2 = np.linspace(0.0, budget.p2, n)
    r1, r2 = proper_rates(ch, p1[:, None], p2[None, :])
    return float(np.minimum(r1 / rho1, r2 / rho2).max())


def family_channel(seed, snr_db, inr_db, real):
    """Seeded channel with direct links at ``snr_db`` and cross links at
    ``inr_db`` (each moved by up to 1 dB), unequal noise and budget; real
    coefficients carry random signs."""
    rng = np.random.default_rng(seed)
    noise = rng.uniform(0.5, 2.0, 2)
    budget = PowerBudget(10.0, float(rng.uniform(2.0, 10.0)))
    snr = snr_db + rng.uniform(-1.0, 1.0, 2)
    inr = inr_db + rng.uniform(-1.0, 1.0, 2)
    levels = (snr[0], inr[0], inr[1], snr[1])
    powers = (budget.p1, budget.p2, budget.p1, budget.p2)
    rx_noise = (noise[0], noise[0], noise[1], noise[1])
    mags = [np.sqrt(10.0 ** (d / 10.0) * n / p) for d, p, n in zip(levels, powers, rx_noise)]
    if real:
        h = [float(m * rng.choice((-1.0, 1.0))) for m in mags]
    else:
        h = [complex(m * np.exp(1j * rng.uniform(0.0, TWO_PI))) for m in mags]
    return ChannelRealization(*h, float(noise[0]), float(noise[1])), budget


FAMILY = [
    (seed, snr, snr + offset, real)
    for seed, (snr, offset, real) in enumerate(
        itertools.product((-10.0, 0.0, 10.0, 20.0, 30.0), (-15.0, -5.0, 0.0, 5.0), (False, True))
    )
]


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
            R, _ = pure_proper_point(sec6, budget10, profile)
            assert R >= grid_best(sec6, budget10, profile, 41) - 1e-12

    @pytest.mark.parametrize("beta", [0.05, 0.10, 0.40, 0.95])
    def test_sec6_reaches_full_power_edge(self, sec6, budget10, beta):
        profile = RateProfile(beta)
        R, p = pure_proper_point(sec6, budget10, profile)
        assert R >= edge_scan_best(sec6, budget10, profile) - 1e-12
        assert p[0] == 10.0 or p[1] == 10.0
        r1, r2 = proper_rates(sec6, *p)
        assert R == min(r1 / profile.rho[0], r2 / profile.rho[1])

    def test_sec6_beta_tenth_value(self, sec6, budget10):
        # the optimum sits on the edge p2 = 10, where a 3001 x 3001 grid
        # reaches only 3.076534
        R, p = pure_proper_point(sec6, budget10, RateProfile(0.1))
        assert R >= 3.0770532
        assert p[1] == 10.0

    @pytest.mark.parametrize("beta", [0.0, 0.3, 0.5, 0.8, 1.0])
    def test_some_user_at_full_power(self, sec6, beta):
        budget = PowerBudget(7.5, 3.25)
        _, p = pure_proper_point(sec6, budget, RateProfile(beta))
        assert p[0] == budget.p1 or p[1] == budget.p2
        assert 0.0 <= p[0] <= budget.p1 and 0.0 <= p[1] <= budget.p2

    @pytest.mark.parametrize("seed,snr_db,inr_db,real", FAMILY)
    def test_family_beats_edge_scan_and_grid(self, seed, snr_db, inr_db, real):
        ch, budget = family_channel(seed, snr_db, inr_db, real)
        for beta in (0.15, 0.5, 0.85):
            profile = RateProfile(beta)
            R, p = pure_proper_point(ch, budget, profile)
            assert p[0] == budget.p1 or p[1] == budget.p2
            assert R >= edge_scan_best(ch, budget, profile) - 1e-12
            assert R >= grid_best(ch, budget, profile, 401) - 1e-12


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

    @pytest.mark.parametrize("random_count", [0, 333])
    @pytest.mark.parametrize("channel", ["sec6", *SAMPLER_CHANNELS])
    def test_bitwise_equal_to_per_phase_loop(self, sec6, channel, random_count):
        ch = sec6 if channel == "sec6" else SAMPLER_CHANNELS[channel]
        budget = PowerBudget(10.0, 6.5)
        cfg = SamplingConfig(seed=3, power_grid=7, fraction_grid=4, phase_grid=5,
                             random_count=random_count)
        samples = pure_improper_samples(ch, budget, cfg)
        kept = undominated_phases(ch, cfg.phase_grid)
        assert samples.shape == (7 * 7 * 4 * 4 * len(kept) + random_count, 2)
        assert samples.tobytes() == per_phase_samples(ch, budget, cfg, kept).tobytes()

    # A chunk holds as many powers of user 1 as fit in _BLOCK rows, one
    # at least.  7 * 4 * 4 = 112 rows per power: blocks of 3 and 5 hold
    # less than one power's rows, and 784 is the whole grid in one chunk.
    # 31 * 2 * 2 = 124 rows per power: blocks of 500 take 4 powers each
    # and leave a last chunk of 3.  9 * 5 * 5 = 225 rows per power: blocks
    # of 500 take 2 powers each and leave a last chunk of one.
    @pytest.mark.parametrize("grid,block", [
        ((7, 4), 3), ((7, 4), 5), ((7, 4), 784), ((31, 2), 500), ((9, 5), 500),
    ], ids=["3", "5", "784", "31x2-500", "9x5-500"])
    def test_grid_blocks_leave_samples_unchanged(self, sec6, weak_channel, grid, block,
                                                 monkeypatch):
        cfg = SamplingConfig(seed=4, power_grid=grid[0], fraction_grid=grid[1], phase_grid=3,
                             random_count=50)
        monkeypatch.setattr(regions, "_BLOCK", block)
        channels = [sec6, *SAMPLER_CHANNELS.values(), weak_channel(1, 0.0)]
        for ch, budget in itertools.product(
                channels, [PowerBudget(3.0, 10.0), PowerBudget(10.0, 4.732604454191316)]):
            samples = pure_improper_samples(ch, budget, cfg)
            want = per_phase_samples(ch, budget, cfg, undominated_phases(ch, cfg.phase_grid))
            assert samples.tobytes() == want.tobytes()

    @pytest.mark.parametrize("channel", ["sec6", *SAMPLER_CHANNELS])
    def test_silent_user_gets_rate_exactly_zero(self, sec6, channel):
        ch = sec6 if channel == "sec6" else SAMPLER_CHANNELS[channel]
        rng = np.random.default_rng(9)
        c = rng.uniform(0.0, 10.0, 2000)
        kap = rng.uniform(0.0, 1.0, 2000) * c
        for psi in [*np.linspace(0.0, TWO_PI, 24, endpoint=False), rng.uniform(0.0, TWO_PI, 2000)]:
            r1, _ = improper_rates(ch, 0.0, c, 0.0, kap, psi, 0.0)
            _, r2 = improper_rates(ch, c, 0.0, kap, 0.0, psi, 0.0)
            assert np.all(r1 == 0.0) and np.all(r2 == 0.0)
        cfg = SamplingConfig(power_grid=7, fraction_grid=4, phase_grid=24, random_count=0)
        budget = PowerBudget(10.0, 6.5)
        samples = pure_improper_samples(ch, budget, cfg).reshape(-1, 7, 7, 4, 4, 2)
        # the first power on each axis of the grid is 0
        assert np.all(samples[:, 0, :, :, :, 0] == 0.0)
        assert np.all(samples[:, :, 0, :, :, 1] == 0.0)

    @pytest.mark.parametrize("channel", ["sec6", *SAMPLER_CHANNELS, "weak-1", "weak-2"])
    def test_hull_and_staircase_equal_the_full_grids(self, sec6, weak_channel, channel):
        if channel.startswith("weak"):
            ch = weak_channel(int(channel[-1]), 0.0)
        else:
            ch = sec6 if channel == "sec6" else SAMPLER_CHANNELS[channel]
        budget = PowerBudget(10.0, 6.5)
        cfg = SamplingConfig(seed=2, power_grid=9, fraction_grid=5, phase_grid=24,
                             random_count=500)
        samples = pure_improper_samples(ch, budget, cfg)
        full = per_phase_samples(ch, budget, cfg)
        assert len(samples) < len(full)
        assert upper_right_hull(samples).tobytes() == upper_right_hull(full).tobytes()
        assert pareto_staircase(samples).tobytes() == pareto_staircase(full).tobytes()

    @pytest.mark.parametrize("channel,kept", [("real", 1), ("zero-cross", 1), ("sec6", 4)])
    def test_kept_phase_counts(self, sec6, channel, kept):
        # a real channel's weights both peak at the phase difference pi;
        # on zero-cross neither rate depends on the phase
        ch = sec6 if channel == "sec6" else SAMPLER_CHANNELS[channel]
        cfg = SamplingConfig(power_grid=3, fraction_grid=2, phase_grid=24, random_count=7)
        samples = pure_improper_samples(ch, PowerBudget(10.0, 10.0), cfg)
        assert len(samples) == 3 * 3 * 2 * 2 * kept + 7
        assert len(undominated_phases(ch, 24)) == kept

    def test_dropping_an_undominated_phase_changes_sec6s_outputs(self, sec6, budget10):
        # the equality checks above have teeth: a filter that also drops
        # any one of sec6's kept phases moves the staircase, and one that
        # drops phase 15, where the hull's inner vertex lies, the hull
        cfg = SamplingConfig(power_grid=9, fraction_grid=5, phase_grid=24, random_count=0)
        samples = pure_improper_samples(sec6, budget10, cfg)
        kept = list(undominated_phases(sec6, 24))
        assert kept == [13, 14, 15, 16]
        for k in kept:
            fewer = per_phase_samples(sec6, budget10, cfg, [i for i in kept if i != k])
            assert pareto_staircase(fewer).tobytes() != pareto_staircase(samples).tobytes()
            if k == 15:
                assert upper_right_hull(fewer).tobytes() != upper_right_hull(samples).tobytes()

    def test_peak_memory_is_the_result_and_a_few_blocks(self, sec6, budget10):
        # 31 * 31 * 11 * 11 = 116 281 grid points; chunks of two powers (3 751
        # rows each), the last of one
        cfg = SamplingConfig(power_grid=31, fraction_grid=11, phase_grid=2, random_count=1000)
        tracemalloc.start()
        try:
            samples = pure_improper_samples(sec6, budget10, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        block = (regions._BLOCK + 1) * 2 * samples.itemsize
        # the chunk loop holds about eight blocks' worth; the grid's four
        # coordinates would add 28 more, and its K and P of both users 28
        assert peak <= samples.nbytes + 16 * block


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

    def test_boundary_violation_of_many_points_matches_one_at_a_time(self, ts_boundary):
        bnd = ts_boundary.rate_points()
        rng = np.random.default_rng(33)
        pts = rng.uniform(0.0, 1.1, (500, 2)) * bnd.max(axis=0)
        pts[:3] = bnd[[0, 5, -1]]  # the boundary's own vertices
        one = [boundary_violation((float(x), float(y)), bnd) for x, y in pts]
        assert boundary_violation(pts, bnd).tobytes() == np.array(one).tobytes()

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            upper_right_hull(np.empty((0, 2)))

    def test_prefilter_leaves_hull_unchanged(self, sec6, budget10, small_cfg, monkeypatch):
        clouds = prefilter_clouds(sec6, budget10, small_cfg)
        filtered = [upper_right_hull(c) for c in clouds]
        monkeypatch.setattr(regions, "_drop_interior", lambda pts: pts)
        for cloud, hull in zip(clouds, filtered):
            assert np.array_equal(hull, upper_right_hull(cloud))

    @pytest.mark.parametrize("block", [4, 16, regions._BLOCK])
    def test_prefilter_keeps_what_the_reference_keeps(
        self, sec6, budget10, small_cfg, block, monkeypatch
    ):
        monkeypatch.setattr(regions, "_BLOCK", block)
        for cloud in prefilter_clouds(sec6, budget10, small_cfg):
            kept = regions._drop_interior(cloud)
            assert kept.tobytes() == reference_drop_interior(cloud).tobytes()

    def test_prefilter_keeps_what_the_reference_keeps_on_a_sec6_cloud(self, sec6, budget10):
        # the full grid, 11 * 11 * 7 * 7 * 12 + 5000 samples in 10 blocks:
        # the grid's 9 with a few or many points near the chord, and a
        # last one of random strategies with none
        cfg = SamplingConfig(seed=5, power_grid=11, fraction_grid=7, phase_grid=12,
                             random_count=5000)
        cloud = per_phase_samples(sec6, budget10, cfg)
        assert len(list(regions._blocks(len(cloud)))) == 10
        kept = regions._drop_interior(cloud)
        assert kept.tobytes() == reference_drop_interior(cloud).tobytes()
        assert len(kept) < len(cloud) // 100

    def test_prefilter_keeps_points_on_chords(self):
        pts = np.array([[2.0, 0.0], [1.0, 1.0], [0.0, 2.0], [1.5, 0.5], [0.5, 1.5], [0.5, 0.5]])
        kept = regions._drop_interior(pts)
        assert {tuple(p) for p in kept} == {tuple(p) for p in pts[:5]}


def prefilter_clouds(sec6, budget, cfg):
    rng = np.random.default_rng(32)
    grid = np.stack(np.meshgrid(np.arange(12.0), np.arange(12.0)), -1).reshape(-1, 2)
    angles = rng.uniform(0.0, 0.5 * np.pi, 500)
    return [
        rng.uniform(0.0, 5.0, size=(400, 2)),
        grid[grid.sum(axis=1) <= 11.0],  # lattice: points on every chord
        np.column_stack((np.cos(angles), np.sin(angles))) * rng.uniform(0.98, 1.0, (500, 1)),
        np.vstack([rng.integers(0, 4, size=(300, 2)), [[0.0, 0.0], [7.0, 0.0], [0.0, 7.0]]]),
        per_phase_samples(sec6, budget, cfg.sampling),  # the full grid
    ]


def reference_drop_interior(pts):
    """The prefilter with one ``np.dot`` per direction and block for the
    support points, and ``np.interp`` over every point: the reference
    whose kept set the one-product support pass and the chord test must
    reproduce byte for byte."""
    dirs = [np.array((w, 1.0 - w)) for w in regions.HULL_SUPPORT_WEIGHTS]
    best = [-np.inf] * len(dirs)
    where = [0] * len(dirs)
    for s in regions._blocks(len(pts)):
        block = pts[s]
        assert block.min() >= 0.0 and block.max() < np.inf
        for k, d in enumerate(dirs):
            v = np.dot(block, d)
            i = int(np.argmax(v))
            if v[i] > best[k]:
                best[k], where[k] = v[i], s.start + i
    top = {}
    for i in where:
        x, y = float(pts[i, 0]), float(pts[i, 1])
        top[x] = max(y, top.get(x, y))
    xs = np.array(sorted(top))
    ys = np.array([top[x] for x in xs])
    tol = 64.0 * np.finfo(float).eps * max(xs[-1], max(top.values()), 1.0)
    kept = []
    for s in regions._blocks(len(pts)):
        block = pts[s]
        chain = np.interp(block[:, 0], xs, ys)
        chain -= tol
        kept.append(block[block[:, 1] >= chain])
    return np.concatenate(kept)


class TestChordTest:
    """Edge cases of the chord that spares most points the interpolation
    test, in blocks of 4 rows, of 16 and of the default size."""

    TOL4 = 64.0 * np.finfo(float).eps * 4.0  # the prefilter's tol at scale 4

    @pytest.fixture(autouse=True, params=[4, 16, regions._BLOCK])
    def block(self, request, monkeypatch):
        monkeypatch.setattr(regions, "_BLOCK", request.param)

    def kept(self, cloud):
        kept = regions._drop_interior(cloud)
        assert kept.tobytes() == reference_drop_interior(cloud).tobytes()
        return {tuple(p) for p in kept}

    def test_collinear_support_points(self):
        # the polyline is the chord x + y = 4; points 1/4 to 4 tol below it
        line = [[x, 4.0 - x] for x in (0.0, 1.0, 2.0, 3.0, 4.0)]
        below = [[1.5, 2.5 - k * self.TOL4] for k in (0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)]
        inside = np.random.default_rng(51).uniform(0.0, 1.7, (40, 2))
        cloud = np.vstack([inside[:20], line[:2], below, inside[20:], line[2:]])
        assert self.kept(cloud) == {tuple(p) for p in line + below[:3]}

    def test_no_point_above_the_chord(self):
        inside = np.random.default_rng(52).uniform(0.0, 0.45, (60, 2))
        cloud = np.vstack([inside[:30], [[0.0, 1.0]], inside[30:], [[1.0, 0.0]]])
        assert self.kept(cloud) == {(0.0, 1.0), (1.0, 0.0)}

    def test_every_point_above_the_chord(self):
        angles = np.random.default_rng(53).uniform(0.05, 0.5 * np.pi - 0.05, 70)
        arc = np.column_stack((np.cos(angles), np.sin(angles)))
        cloud = np.vstack([[[0.0, 1.0]], arc, [[1.0, 0.0]]])
        assert {tuple(p) for p in arc} <= self.kept(cloud)

    def test_points_within_a_tol_of_a_chord_under_the_polyline(self):
        # the arc's polyline is far above the chord x + y = 1, so points
        # near the chord reach the interpolation test and fail it
        tol = 64.0 * np.finfo(float).eps
        angles = np.random.default_rng(54).uniform(0.0, 0.5 * np.pi, 50)
        arc = np.column_stack((np.cos(angles), np.sin(angles)))
        near = [[x, 1.0 - x + k * tol] for x in (0.25, 0.5) for k in (-3, -2, -1, 0, 1, 2)]
        cloud = np.vstack([[[0.0, 1.0], [1.0, 0.0]], near, arc])
        kept = self.kept(cloud)
        assert not kept & {tuple(p) for p in near}

    def test_largest_r1_zero(self):
        ys = np.random.default_rng(55).uniform(0.0, 2.0, 30)
        ys[[7, 19]] = 2.5
        cloud = np.column_stack((np.zeros(30), ys))
        assert self.kept(cloud) == {(0.0, 2.5)}

    def test_largest_r2_zero(self):
        xs = np.random.default_rng(56).uniform(0.0, 2.0, 30)
        cloud = np.column_stack((xs, np.zeros(30)))
        assert self.kept(cloud) == {tuple(p) for p in cloud}


def reference_staircase(points):
    """The staircase by one lexsort of the whole cloud: the reference the
    blocked reduction must reproduce byte for byte."""
    order = np.lexsort((-points[:, 1], -points[:, 0]))
    s = points[order]
    running = np.maximum.accumulate(s[:, 1])
    keep = np.empty(len(s), dtype=bool)
    keep[0] = True
    keep[1:] = s[1:, 1] > running[:-1]
    return s[keep]


class TestParetoStaircase:
    def assert_matches_reference(self, cloud):
        stair = pareto_staircase(cloud)
        assert stair.tobytes() == reference_staircase(cloud).tobytes()
        return stair

    @pytest.mark.parametrize("n", [1, 2, 5, 9, 22, 23, 400, 401])
    @pytest.mark.parametrize("shape", ["uniform", "ties", "duplicates", "anti-diagonal",
                                       "anti-diagonal-reversed", "arc"])
    def test_blocks_of_four_match_one_sort(self, n, shape, monkeypatch):
        monkeypatch.setattr(regions, "_BLOCK", 4)
        rng = np.random.default_rng(n)
        if shape == "uniform":
            cloud = rng.uniform(0.0, 1.0, (n, 2))
        elif shape == "ties":  # many equal r1 and equal r2 values
            cloud = rng.integers(0, 5, (n, 2)).astype(float)
        elif shape == "duplicates":
            cloud = rng.uniform(0.0, 1.0, (n, 2))[rng.integers(0, max(n // 3, 1), n)]
        elif shape == "anti-diagonal":  # every point on the staircase
            cloud = np.column_stack((np.arange(n, dtype=float), np.arange(n, 0, -1.0)))
            cloud = cloud[rng.permutation(n)]
        elif shape == "anti-diagonal-reversed":  # r1 ascending: each block adds steps
            cloud = np.column_stack((np.arange(n, dtype=float), np.arange(n, 0, -1.0)))
        else:
            angles = rng.uniform(0.0, 0.5 * np.pi, n)
            cloud = np.column_stack((np.cos(angles), np.sin(angles)))
        stair = self.assert_matches_reference(cloud)
        if shape.startswith("anti-diagonal"):
            assert len(stair) == n

    def test_sec6_samples_match_one_sort(self, sec6, budget10, small_cfg):
        self.assert_matches_reference(per_phase_samples(sec6, budget10, small_cfg.sampling))


def unfiltered_hull(cloud, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(regions, "_drop_interior", lambda pts: pts)
        return upper_right_hull(cloud)


def one_block_kept(cloud, monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(regions, "_BLOCK", len(cloud) + 1)
        return regions._drop_interior(cloud)


class TestBlockedHull:
    """The prefilter's passes over blocks of 4 rows against a single
    block and against the unfiltered hull."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(regions, "_BLOCK", 4)

    def assert_blocks_change_nothing(self, cloud, monkeypatch):
        kept = regions._drop_interior(cloud)
        assert np.array_equal(kept, one_block_kept(cloud, monkeypatch))
        assert np.array_equal(upper_right_hull(cloud), unfiltered_hull(cloud, monkeypatch))
        return kept

    def test_support_points_in_the_last_block(self, monkeypatch):
        rng = np.random.default_rng(41)
        cloud = np.vstack([rng.uniform(0.0, 1.0, (37, 2)), [[3.0, 0.1], [2.0, 2.0], [0.1, 3.0]]])
        kept = self.assert_blocks_change_nothing(cloud, monkeypatch)
        assert {tuple(p) for p in cloud[-3:]} <= {tuple(p) for p in kept}

    @pytest.mark.parametrize("q_first", [False, True])
    def test_tied_support_points_in_different_blocks(self, q_first, monkeypatch):
        # p and q tie at w = 1/2 (value 2 exactly); the earlier one joins the
        # polyline, and z lies above the chord through q but below the one through p
        p, q, z = [1.0, 3.0], [3.0, 1.0], [1.5, 2.47]
        first, second = (q, p) if q_first else (p, q)
        rng = np.random.default_rng(42)
        filler = rng.uniform(0.0, 1.0, (14, 2))
        cloud = np.vstack([filler[:1], [first], filler[1:7], [z, [0.0, 3.9]],
                           filler[7:], [second, [3.9, 0.0]]])
        kept = self.assert_blocks_change_nothing(cloud, monkeypatch)
        assert (tuple(z) in {tuple(r) for r in kept}) == q_first

    @pytest.mark.parametrize("n", [1, 2, 5, 21, 22, 23, 400, 401])
    def test_partial_last_block(self, n, monkeypatch):
        rng = np.random.default_rng(n)
        angles = rng.uniform(0.0, 0.5 * np.pi, n)
        radii = rng.uniform(0.9, 1.0, (n, 1))
        cloud = np.column_stack((np.cos(angles), np.sin(angles))) * radii
        self.assert_blocks_change_nothing(cloud, monkeypatch)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
    @pytest.mark.parametrize("where", [(-1, 0), (-2, 1), (9, 0)])
    def test_bad_value_in_a_late_block_raises(self, bad, where):
        cloud = np.random.default_rng(43).uniform(0.0, 1.0, (11, 2))
        cloud[where] = bad
        with pytest.raises(ValueError, match="finite and >= 0"):
            upper_right_hull(cloud)


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

    def test_ts_sweep_starts_cold_once_per_profile(self, sec6, budget10, monkeypatch):
        # a profile certified at its TDMA point solves no LP, nor does an
        # endpoint profile; every other profile starts one master at the
        # crash basis (its loop's first), and every warm start, the
        # loop's and the recovery's, keeps its carried inverse.  Without
        # cross gains no profile is certified.
        events = []
        warm_basis, crash_basis = lp_module._warm_basis, lp_module._crash_basis
        lp_solve, ts_point = lp_module.lp_solve, regions.ts_point

        def warm(*args):
            found = warm_basis(*args)
            events.append("warm" if found is not None else "fallback")
            return found

        def crash(*args):
            events.append("crash")
            return crash_basis(*args)

        def solve(*args, **kwargs):
            events.append("lp")
            return lp_solve(*args, **kwargs)

        def point(*args, **kwargs):
            events.append("profile")
            solution, cp = ts_point(*args, **kwargs)
            events.append(cp.cuts[0].origin)
            return solution, cp

        monkeypatch.setattr(lp_module, "_warm_basis", warm)
        monkeypatch.setattr(lp_module, "_crash_basis", crash)
        monkeypatch.setattr(outer, "lp_solve", solve)
        monkeypatch.setattr(regions, "ts_point", point)
        for ch, certified_count in ((sec6, 99), (replace(sec6, h12=0.0, h21=0.0), 0)):
            events.clear()
            rows = regions.ts_sweep(ch, budget10, np.linspace(0.0, 1.0, 101))
            assert len(rows) == 101
            assert "fallback" not in events
            per_profile = [p.split() for p in " ".join(events).split("profile")[1:]]
            assert len(per_profile) == 101
            certified = [p for p in per_profile if p[-1] == "tdma"]
            assert len(certified) == certified_count
            assert all(p == ["tdma"] for p in certified)
            assert per_profile[0] == per_profile[-1] == ["initial"]
            interior = per_profile[1:-1]
            assert all("lp" in p and p.count("crash") == 1 for p in interior if p[-1] != "tdma")


@pytest.fixture(scope="module")
def ts_boundary(sec6, budget10):
    return sweep_boundary("ts-proper", sec6, budget10, np.linspace(0.0, 1.0, 41))


def reference_theorem1_averages(ch, budget, seed, trials, impropriety):
    """Theorem 1's averaged rate pairs computed one trial at a time: the
    trial's draws, its own :func:`improper_rates` call and its master.
    The reference the batched :func:`theorem1_check` is gated against."""
    rng = np.random.default_rng(seed)
    lo_f, hi_f = impropriety
    averages = np.empty((trials, 2))
    for t in range(trials):
        L = int(rng.integers(1, 5))
        c1 = np.empty(L)
        c2 = np.empty(L)
        c1[0] = rng.uniform(0.0, budget.p1)
        c2[0] = rng.uniform(0.0, budget.p2)
        if L > 1:
            c1[1:] = rng.uniform(0.0, 2.0 * budget.p1, L - 1)
            c2[1:] = rng.uniform(0.0, 2.0 * budget.p2, L - 1)
        k1 = rng.uniform(lo_f, hi_f, L) * c1
        k2 = rng.uniform(lo_f, hi_f, L) * c2
        ph1 = rng.uniform(0.0, TWO_PI, L)
        ph2 = rng.uniform(0.0, TWO_PI, L)
        r1, r2 = improper_rates(ch, c1, c2, k1, k2, ph1, ph2)
        beta = float(rng.uniform())
        master = lp_module.MasterLP(
            (r1, r2), (c1, c2), (budget.p1, budget.p2), (beta, 1.0 - beta)
        )
        taus = lp_module.lp_solve(master).primal[1:]
        averages[t] = taus @ r1, taus @ r2
    return averages


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

    @pytest.mark.parametrize("trials", [0, -5])
    def test_rejects_fewer_than_one_trial(self, sec6, budget10, ts_boundary, trials):
        with pytest.raises(ValueError, match="trials"):
            theorem1_check(sec6, budget10, trials=trials, boundary=ts_boundary)

    # (0, 2) drew kappa > c and failed in the first master; (-0.5, 0) drew
    # kappa < 0 and passed
    @pytest.mark.parametrize(
        "impropriety", [(0.0, 2.0), (-0.5, 0.0), (0.8, 0.2), (0.0, float("nan"))]
    )
    def test_rejects_fractions_outside_zero_to_one(self, sec6, budget10, ts_boundary, impropriety):
        with pytest.raises(ValueError, match="impropriety"):
            theorem1_check(sec6, budget10, trials=5, boundary=ts_boundary, impropriety=impropriety)

    @pytest.mark.parametrize("beta_grid", [1, 0])
    def test_rejects_a_single_profile_grid(self, sec6, budget10, beta_grid):
        # one profile gives a boundary of one point, which every
        # candidate escapes
        with pytest.raises(ValueError, match="beta_grid"):
            theorem1_check(sec6, budget10, trials=50, beta_grid=beta_grid)

    @pytest.mark.parametrize("case", ["sec6", "doubled", "unequal-budget"])
    @pytest.mark.parametrize("impropriety", [(0.0, 1.0), (0.0, 0.0), (0.25, 0.75), (1.0, 1.0)])
    @pytest.mark.parametrize("trials", [1, 7, 200])
    def test_batch_equals_one_trial_at_a_time(
        self, sec6, budget10, ts_boundary, case, impropriety, trials, monkeypatch
    ):
        # the batch's draws, its one improper_rates call and its masters
        # give each trial's rates, weights and averages bitwise as the
        # per-trial uniform calls, rates and masters do; the unequal
        # budget tells P1 from P2, and lo > 0 tells a fraction drawn on
        # [lo, hi] from one drawn on [0, hi - lo]
        gains = ("h11", "h12", "h21", "h22")
        ch = replace(sec6, **{k: 2 * getattr(sec6, k) for k in gains}) if case == "doubled" else sec6
        budget = PowerBudget(10.0, 4.732604454191316) if case == "unequal-budget" else budget10
        seen = []

        def violation(points, rate_points):
            seen.append(points.copy())
            return boundary_violation(points, rate_points)

        monkeypatch.setattr(regions, "boundary_violation", violation)
        for seed in (0, 5, 2024):
            cfg = RegionConfig(sampling=SamplingConfig(seed=seed))
            report = theorem1_check(
                ch, budget, cfg, trials, boundary=ts_boundary, impropriety=impropriety
            )
            want = reference_theorem1_averages(ch, budget, seed, trials, impropriety)
            v = boundary_violation(want, ts_boundary.rate_points())
            assert seen.pop().tobytes() == want.tobytes()
            assert report == ContainmentReport(
                trials=trials,
                max_violation=float(v.max()),
                tolerance=regions.THEOREM1_TOL,
                failures=int(np.count_nonzero(v > regions.THEOREM1_TOL)),
            )

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="the chord cuts the corner off")
    def test_zero_cross_channel_has_no_false_escapes(self, sec6, budget10):
        # without cross gains the ts-proper region is a rectangle, and
        # boundary_violation interpolates linearly between the 11 swept
        # profiles, so the chord across the corner counts mixtures near
        # it as escapes: 7 of 300, by up to 0.678 bits
        zero_cross = replace(sec6, h12=0j, h21=0j)
        cfg = RegionConfig(sampling=SamplingConfig(seed=7))
        report = theorem1_check(zero_cross, budget10, cfg, trials=300, beta_grid=11)
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

    @pytest.mark.parametrize("trials", [0, -1])
    def test_rejects_fewer_than_one_trial(self, sec6, small_cfg, trials):
        with pytest.raises(ValueError, match="trials"):
            lemma1_check(sec6, small_cfg, trials=trials)

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
    # a ray of slope 7/3 crosses r2 = 3 - r1/2 mid-segment, at R = 60/17
    v = _profile_value(hull, (0.3, 0.7))
    assert v == pytest.approx(60.0 / 17.0, rel=2e-15, abs=0.0)
    # a hull of the origin alone has no edge to leave through
    assert _profile_value(np.array([[0.0, 0.0]]), (0.5, 0.5)) == 0.0


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
