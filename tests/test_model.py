import cmath
import math

import mpmath
import numpy as np
import pytest
from test_regions import SAMPLER_CHANNELS

from tinregions import (
    ChannelRealization,
    PowerBudget,
    TransmitStrategy,
    alignment_phases,
    enhance,
    improper_rates,
    lemma1_check,
    rate_pair_improper,
    rate_pair_proper,
    rate_upper_bound,
    upper_bound_rates,
)


def scalar_rate(hkk, hkj, noise, ck, ptk, cj, ptj):
    """Independent scalar evaluation used as the oracle: variance and
    pseudovariance recursions written out longhand with cmath."""
    cs = abs(hkj) ** 2 * cj + noise
    cy = abs(hkk) ** 2 * ck + cs
    pts = hkj**2 * ptj
    pty = hkk**2 * ptk + pts
    return math.log2(cy / cs) + 0.5 * math.log2(
        (1.0 - abs(pty) ** 2 / cy**2) / (1.0 - abs(pts) ** 2 / cs**2)
    )


def oracle_rates(ch, strategy):
    pt1 = strategy.kappa1 * cmath.exp(1j * strategy.phi1)
    pt2 = strategy.kappa2 * cmath.exp(1j * strategy.phi2)
    r1 = scalar_rate(ch.h11, ch.h12, ch.noise1, strategy.c1, pt1, strategy.c2, pt2)
    r2 = scalar_rate(ch.h22, ch.h21, ch.noise2, strategy.c2, pt2, strategy.c1, pt1)
    return r1, r2


def random_strategies(rng, n):
    c1 = 10.0 ** rng.uniform(-1, 1.5, n)
    c2 = 10.0 ** rng.uniform(-1, 1.5, n)
    k1 = rng.uniform(0, 1, n) * c1
    k2 = rng.uniform(0, 1, n) * c2
    ph1 = rng.uniform(0, 2 * math.pi, n)
    ph2 = rng.uniform(0, 2 * math.pi, n)
    return c1, c2, k1, k2, ph1, ph2


class TestRatePairImproper:
    def test_full_power_proper_matches_oracle(self, sec6):
        x = TransmitStrategy(10.0, 10.0)
        got = rate_pair_improper(sec6, x)
        want = oracle_rates(sec6, x)
        assert got.r1 == pytest.approx(want[0], abs=1e-12)
        assert got.r2 == pytest.approx(want[1], abs=1e-12)
        # printed channel magnitudes give approximately these figures
        assert got.r1 == pytest.approx(1.4900, abs=5e-4)
        assert got.r2 == pytest.approx(1.3601, abs=5e-4)

    def test_zero_power_gives_zero_rates(self, sec6):
        got = rate_pair_improper(sec6, TransmitStrategy(0.0, 0.0))
        assert got.r1 == 0.0 and got.r2 == 0.0

    def test_matches_oracle_on_random_strategies(self, sec6):
        rng = np.random.default_rng(3)
        for c1, c2, k1, k2, p1, p2 in zip(*random_strategies(rng, 50)):
            x = TransmitStrategy(c1, c2, k1, k2, p1, p2)
            got = rate_pair_improper(sec6, x)
            want = oracle_rates(sec6, x)
            assert got.r1 == pytest.approx(want[0], abs=1e-12)
            assert got.r2 == pytest.approx(want[1], abs=1e-12)

    def test_common_phase_shift_invariance(self, sec6):
        rng = np.random.default_rng(4)
        for c1, c2, k1, k2, p1, p2 in zip(*random_strategies(rng, 25)):
            delta = rng.uniform(0, 2 * math.pi)
            a = rate_pair_improper(sec6, TransmitStrategy(c1, c2, k1, k2, p1, p2))
            b = rate_pair_improper(
                sec6, TransmitStrategy(c1, c2, k1, k2, p1 + delta, p2 + delta)
            )
            assert a.r1 == pytest.approx(b.r1, abs=1e-12)
            assert a.r2 == pytest.approx(b.r2, abs=1e-12)

    def test_invalid_strategy_rejected(self):
        with pytest.raises(ValueError):
            TransmitStrategy(1.0, 1.0, kappa1=1.5)
        with pytest.raises(ValueError):
            TransmitStrategy(-1.0, 1.0)


class TestRatePairProper:
    def test_intercepts_match_published_values(self, sec6):
        # also equals log2(1 + |hkk|^2 * 10) with the printed magnitudes
        assert rate_pair_proper(sec6, (10.0, 0.0)).r1 == pytest.approx(
            5.40086611903573, abs=1e-9
        )
        assert rate_pair_proper(sec6, (0.0, 10.0)).r2 == pytest.approx(
            3.44236388446505, abs=1e-4
        )

    def test_zero_power(self, sec6):
        got = rate_pair_proper(sec6, (0.0, 0.0))
        assert got.r1 == 0.0 and got.r2 == 0.0

    def test_equals_improper_with_zero_pseudovariance(self, sec6):
        rng = np.random.default_rng(5)
        for _ in range(25):
            p = rng.uniform(0, 20, 2)
            a = rate_pair_proper(sec6, p)
            b = rate_pair_improper(sec6, TransmitStrategy(p[0], p[1]))
            assert a.r1 == pytest.approx(b.r1, abs=1e-12)
            assert a.r2 == pytest.approx(b.r2, abs=1e-12)

    def test_monotonicity_in_powers(self, sec6):
        grid = np.linspace(0.0, 15.0, 10)
        for p2 in grid:
            r1_line = [rate_pair_proper(sec6, (p1, p2)).r1 for p1 in grid]
            assert all(b > a for a, b in zip(r1_line, r1_line[1:]))
        for p1 in grid:
            r1_line = [rate_pair_proper(sec6, (p1, p2)).r1 for p2 in grid]
            assert all(b <= a for a, b in zip(r1_line, r1_line[1:]))

    def test_negative_power_rejected(self, sec6):
        with pytest.raises(ValueError):
            rate_pair_proper(sec6, (-1.0, 0.0))


class TestRateUpperBound:
    def test_proper_strategy_meets_bound_exactly(self, sec6):
        x = TransmitStrategy(7.0, 3.0)
        r = rate_pair_improper(sec6, x)
        u = rate_upper_bound(sec6, x)
        assert u.r1 == pytest.approx(r.r1, abs=1e-12)
        assert u.r2 == pytest.approx(r.r2, abs=1e-12)

    def test_dominates_rates_on_random_sample(self, sec6):
        rng = np.random.default_rng(6)
        c1, c2, k1, k2, p1, p2 = random_strategies(rng, 10_000)
        r1, r2 = improper_rates(sec6, c1, c2, k1, k2, p1, p2)
        u1, u2 = upper_bound_rates(sec6, c1, c2, k1, k2)
        assert float(np.max(r1 - u1)) <= 1e-12
        assert float(np.max(r2 - u2)) <= 1e-12

    def test_tight_on_enhanced_channel_with_aligned_phases(self, sec6):
        ench = enhance(sec6)
        psi1, _, simultaneous = alignment_phases(ench)
        assert simultaneous
        rng = np.random.default_rng(7)
        for c1, c2, k1, k2, _, base in zip(*random_strategies(rng, 50)):
            x = TransmitStrategy(c1, c2, k1, k2, base + psi1, base)
            r = rate_pair_improper(ench, x)
            u = rate_upper_bound(ench, x)
            assert r.r1 == pytest.approx(u.r1, abs=1e-9)
            assert r.r2 == pytest.approx(u.r2, abs=1e-9)

    def test_independent_of_channel_phases(self, sec6):
        ench = enhance(sec6)
        rng = np.random.default_rng(8)
        c1, c2, k1, k2, _, _ = random_strategies(rng, 1000)
        u = upper_bound_rates(sec6, c1, c2, k1, k2)
        ue = upper_bound_rates(ench, c1, c2, k1, k2)
        # bitwise: the bound is built from the gains alone
        assert u[0].tobytes() == ue[0].tobytes()
        assert u[1].tobytes() == ue[1].tobytes()


class TestEnhance:
    def test_sec6_moduli(self, sec6):
        ench = enhance(sec6)
        assert ench.h11 == pytest.approx(2.0310)
        assert ench.h12 == pytest.approx(1.4766)
        assert ench.h21 == pytest.approx(0.7280)
        assert ench.h22 == pytest.approx(0.9935)
        assert complex(ench.h11).imag == 0.0

    def test_real_channel_unchanged(self):
        ch = ChannelRealization(2.0, 1.5, 0.7, 1.0, 1.0, 1.0)
        assert enhance(ch) == ch

    def test_idempotent(self, sec6):
        once = enhance(sec6)
        assert enhance(once) == once

    def test_proper_rates_unchanged_by_enhancement(self, sec6):
        rng = np.random.default_rng(9)
        for _ in range(25):
            p = rng.uniform(0, 20, 2)
            a = rate_pair_proper(sec6, p)
            b = rate_pair_proper(enhance(sec6), p)
            assert a.r1 == pytest.approx(b.r1, abs=1e-14)
            assert a.r2 == pytest.approx(b.r2, abs=1e-14)


class TestAlignmentPhases:
    def test_enhanced_channel_is_simultaneous_at_pi(self, sec6):
        psi1, psi2, simultaneous = alignment_phases(enhance(sec6))
        assert psi1 == pytest.approx(math.pi, abs=1e-12)
        assert psi2 == pytest.approx(math.pi, abs=1e-12)
        assert simultaneous

    def test_sec6_channel_not_simultaneous(self, sec6):
        # the direct-to-cross phase offsets differ: angle(h12/h11) ~ 3.3310
        # while -angle(h21/h22) ~ -2.6402 (mod 2 pi)
        assert cmath.phase(sec6.h12 / sec6.h11) % (2 * math.pi) == pytest.approx(3.3310)
        assert cmath.phase(sec6.h21 / sec6.h22) == pytest.approx(2.6402)
        assert not alignment_phases(sec6).simultaneous

    def test_one_sided_real_channel(self):
        ch = ChannelRealization(1.2, 0.8, 0.5 * cmath.exp(1j * 0.9), 1.1, 1.0, 1.0)
        psi1 = alignment_phases(ch).psi1
        assert psi1 == pytest.approx(math.pi, abs=1e-12)

    @pytest.mark.parametrize(
        "h12, h21",
        [(0.0, 0.7 * cmath.exp(1j * 0.9)), (0.8j, 0.0), (0.0, 0.0)],
        ids=["h12=0", "h21=0", "both"],
    )
    def test_lemma1_holds_without_interference(self, h12, h21):
        # a user without a cross (or direct) gain does not see the phase
        # difference, so the other user's offset is the common one
        ch = ChannelRealization(1.2 * cmath.exp(1j * 0.3), h12, h21, 1.1, 1.0, 2.0)
        psi1, psi2, simultaneous = alignment_phases(ch)
        assert simultaneous
        if h12 == 0.0 and h21 == 0.0:
            assert psi1 == psi2 == math.pi
        assert lemma1_check(ch, trials=5000).passed


class TestInvariants:
    def test_noise_must_be_positive(self):
        with pytest.raises(ValueError):
            ChannelRealization(1.0, 1.0, 1.0, 1.0, 0.0, 1.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_budget_must_be_finite_and_nonnegative(self, bad):
        for p in ((bad, 10.0), (10.0, bad)):
            with pytest.raises(ValueError, match="finite"):
                PowerBudget(*p)

    def test_log_arguments_stay_in_unit_interval(self, sec6):
        rng = np.random.default_rng(10)
        c1, c2, k1, k2, p1, p2 = random_strategies(rng, 2000)
        g11, g12, g21, g22 = sec6.gains
        for hkk, hkj, noise, ck, kk, cj, kj, phk, phj in (
            (sec6.h11, sec6.h12, sec6.noise1, c1, k1, c2, k2, p1, p2),
            (sec6.h22, sec6.h21, sec6.noise2, c2, k2, c1, k1, p2, p1),
        ):
            cs = abs(hkj) ** 2 * cj + noise
            cy = abs(hkk) ** 2 * ck + cs
            pty = hkk**2 * kk * np.exp(1j * phk) + hkj**2 * kj * np.exp(1j * phj)
            num = 1.0 - np.abs(pty) ** 2 / cy**2
            den = 1.0 - (abs(hkj) ** 2 * kj) ** 2 / cs**2
            assert np.all(num > 0) and np.all(num <= 1.0)
            assert np.all(den > 0) and np.all(den <= 1.0)

    def test_rates_invariant_under_compensated_channel_phase(self, sec6):
        # rotating transmitter 2's column (h12, h22) by a unit phasor is
        # absorbed by shifting phi2 by minus twice that phase
        rng = np.random.default_rng(11)
        theta = 0.77
        rotated = ChannelRealization(
            sec6.h11,
            sec6.h12 * cmath.exp(1j * theta),
            sec6.h21,
            sec6.h22 * cmath.exp(1j * theta),
            sec6.noise1,
            sec6.noise2,
        )
        for c1, c2, k1, k2, p1, p2 in zip(*random_strategies(rng, 20)):
            a = rate_pair_improper(sec6, TransmitStrategy(c1, c2, k1, k2, p1, p2))
            b = rate_pair_improper(
                rotated, TransmitStrategy(c1, c2, k1, k2, p1, p2 - 2 * theta)
            )
            assert a.r1 == pytest.approx(b.r1, abs=1e-12)
            assert a.r2 == pytest.approx(b.r2, abs=1e-12)

    @pytest.mark.parametrize("channel", ["sec6", *SAMPLER_CHANNELS])
    def test_rates_track_the_complex_form_and_40_digit_values(self, sec6, channel):
        # user k's rate as one complex expression, the form the rates had
        # before they were written over real phase-free terms
        def one(hkk, hkj, noise, ck, kapk, phik, cj, kapj, phij):
            gkk, gkj = abs(hkk) ** 2, abs(hkj) ** 2
            cs = gkj * cj + noise
            cy = gkk * ck + cs
            pty = (hkk * hkk) * kapk * np.exp(1j * np.asarray(phik)) + (
                hkj * hkj
            ) * kapj * np.exp(1j * np.asarray(phij))
            num = 1.0 - np.abs(pty) ** 2 / cy**2
            den = 1.0 - (gkj * kapj) ** 2 / cs**2
            return np.maximum(np.log1p(gkk * ck / cs) / LN2 + 0.5 * np.log2(num / den), 0.0)

        def exact(hkk, hkj, noise, ck, kapk, phik, cj, kapj, phij):
            # 1/2 log2(det R_y / det R_s) at 40 digits
            with mpmath.workdps(40):
                hkk, hkj = mpmath.mpc(hkk), mpmath.mpc(hkj)
                ck, kapk, phik, cj, kapj, phij = (
                    mpmath.mpf(float(x)) for x in (ck, kapk, phik, cj, kapj, phij)
                )
                cs = abs(hkj) ** 2 * cj + noise
                cy = abs(hkk) ** 2 * ck + cs
                ts = hkj**2 * kapj * mpmath.expj(phij)
                ty = hkk**2 * kapk * mpmath.expj(phik) + ts
                return float(mpmath.log((cy**2 - abs(ty) ** 2) / (cs**2 - abs(ts) ** 2), 2) / 2)

        LN2 = math.log(2.0)
        ch = sec6 if channel == "sec6" else SAMPLER_CHANNELS[channel]
        h11, h12, h21, h22 = (complex(h) for h in (ch.h11, ch.h12, ch.h21, ch.h22))
        c1, c2, k1, k2, p1, p2 = random_strategies(np.random.default_rng(12), 300)
        for args in (
            (c1, c2, k1, k2, p1, p2),
            (c1, c2, k1, k2, 0.3, 0.0),  # scalar phases broadcast
            (c1, 4.0, k1, 0.0, p1, 1.0),  # scalar power and impropriety
            (2.0, 3.0, 1.5, 0.5, 0.7, 5.9),  # all scalar
        ):
            q1, q2, kk1, kk2, f1, f2 = args
            r1, r2 = improper_rates(ch, *args)
            w1 = one(h11, h12, ch.noise1, q1, kk1, f1, q2, kk2, f2)
            w2 = one(h22, h21, ch.noise2, q2, kk2, f2, q1, kk1, f1)
            assert np.shape(r1) == np.shape(w1) and np.shape(r2) == np.shape(w2)
            assert float(np.max(np.abs(r1 - w1))) <= 2e-14
            assert float(np.max(np.abs(r2 - w2))) <= 2e-14
        r1, r2 = improper_rates(ch, c1, c2, k1, k2, p1, p2)
        for r, user in (
            (r1, (h11, h12, ch.noise1, c1, k1, p1, c2, k2, p2)),
            (r2, (h22, h21, ch.noise2, c2, k2, p2, c1, k1, p1)),
        ):
            hkk, hkj, noise = user[:3]
            want = np.array([exact(hkk, hkj, noise, *x) for x in zip(*user[3:])])
            # no farther from the 40-digit values than the complex form
            assert np.max(np.abs(r - want)) <= np.max(np.abs(one(*user) - want))
