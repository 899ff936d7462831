"""Channel model and closed-form rate expressions for the two-user
Gaussian interference channel when each receiver treats the other
user's signal as additional Gaussian noise.

Rates are Shannon rates in bits per channel use.  Each transmit signal
is zero-mean complex Gaussian with variance ``c`` and a pseudovariance
kept in polar form ``kappa * exp(1j * phi)``; ``kappa = 0`` is a proper
(circularly symmetric) signal, ``kappa = c`` is maximally improper.

All functions here are pure and safe to call concurrently.  The array
variants (`proper_rates`, `improper_rates`, `upper_bound_rates`)
broadcast over numpy inputs and back the grid searches in
:mod:`tinregions.regions`.

User k's improper rate is 1/2 log2(det R_y / det R_s), the ratio of
the determinants of the augmented covariances of its received signal
and of its interference plus noise.  The pseudovariance phases enter
only det R_y, through one phase weight w in [0, 1] per user, so the
ratio is ``P w + K`` with real phase-free terms ``(K, P)`` built from
magnitudes.  `_improper_terms` computes the terms, `_phase_weights` the
weights and `_improper_finish` the log, all in real arithmetic.
`improper_rates`, `upper_bound_rates` (at weight 1, the aligned
phases) and the improper sampler in :mod:`tinregions.regions`
(which computes the terms of its grid once and finishes them at every
phase difference) share that finish.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

_LN2 = math.log(2.0)
TWO_PI = 2.0 * math.pi

__all__ = [
    "ChannelRealization",
    "TransmitStrategy",
    "PowerBudget",
    "RatePair",
    "RateProfile",
    "AlignmentPhases",
    "enhance",
    "alignment_phases",
    "rate_pair_proper",
    "rate_pair_improper",
    "rate_upper_bound",
    "proper_rates",
    "improper_rates",
    "upper_bound_rates",
]


@dataclass(frozen=True)
class ChannelRealization:
    """Two-user interference channel: gains ``h_kj`` from transmitter j
    to receiver k, plus the complex noise variance at each receiver."""

    h11: complex
    h12: complex
    h21: complex
    h22: complex
    noise1: float
    noise2: float

    def __post_init__(self):
        if not (self.noise1 > 0.0 and self.noise2 > 0.0):
            raise ValueError("noise variances must be positive")
        for h in (self.h11, self.h12, self.h21, self.h22):
            z = complex(h)
            if not (math.isfinite(z.real) and math.isfinite(z.imag)):
                raise ValueError("channel coefficients must be finite")

    @property
    def gains(self) -> tuple[float, float, float, float]:
        """Squared magnitudes (|h11|^2, |h12|^2, |h21|^2, |h22|^2)."""
        return (
            abs(self.h11) ** 2,
            abs(self.h12) ** 2,
            abs(self.h21) ** 2,
            abs(self.h22) ** 2,
        )


@dataclass(frozen=True)
class TransmitStrategy:
    """Per-user transmit variance and pseudovariance in polar form.

    Valid second-order statistics require ``0 <= kappa_k <= c_k``.
    """

    c1: float
    c2: float
    kappa1: float = 0.0
    kappa2: float = 0.0
    phi1: float = 0.0
    phi2: float = 0.0

    def __post_init__(self):
        for c, kap in ((self.c1, self.kappa1), (self.c2, self.kappa2)):
            if c < 0.0 or kap < 0.0:
                raise ValueError("variances and impropriety magnitudes must be >= 0")
            if kap > c:
                raise ValueError(
                    f"invalid strategy: impropriety magnitude {kap} exceeds variance {c}"
                )


@dataclass(frozen=True)
class PowerBudget:
    """Average transmit power limits for the two users."""

    p1: float
    p2: float

    def __post_init__(self):
        if not (0.0 <= self.p1 < math.inf and 0.0 <= self.p2 < math.inf):
            raise ValueError("power budgets must be finite and >= 0")


@dataclass(frozen=True)
class RatePair:
    r1: float
    r2: float


@dataclass(frozen=True)
class RateProfile:
    """Relative rate targets (beta, 1 - beta) for rate balancing."""

    beta: float

    def __post_init__(self):
        if not 0.0 <= self.beta <= 1.0:
            raise ValueError("beta must lie in [0, 1]")

    @property
    def rho(self) -> tuple[float, float]:
        return (self.beta, 1.0 - self.beta)


class AlignmentPhases(NamedTuple):
    psi1: float
    psi2: float
    simultaneous: bool


def enhance(ch: ChannelRealization) -> ChannelRealization:
    """Channel with every coefficient replaced by its modulus.

    Magnitudes (and hence all proper rates) are preserved exactly; only
    the coefficient phases are removed.  Idempotent.
    """
    return ChannelRealization(
        abs(ch.h11), abs(ch.h12), abs(ch.h21), abs(ch.h22), ch.noise1, ch.noise2
    )


def alignment_phases(ch: ChannelRealization) -> AlignmentPhases:
    """Pseudovariance phase offsets that make the rate upper bound tight.

    ``psi_k`` is the offset ``phi_k - phi_j`` (mod 2*pi) at which user
    k's bound from :func:`rate_upper_bound` holds with equality.
    ``simultaneous`` reports whether one phase pair can satisfy both
    offsets at once, i.e. whether ``psi1 = -psi2`` (mod 2*pi) within
    1e-12.  Channels with real nonzero coefficients always qualify, with
    ``psi1 = psi2 = pi``.  User k's rate does not depend on the phase
    difference when h_kk or h_kj is zero; its offset is then set to
    ``-psi_j`` (mod 2*pi), or to pi when both users are such, and the
    pair is simultaneous.
    """
    h11, h12, h21, h22 = (complex(ch.h11), complex(ch.h12), complex(ch.h21), complex(ch.h22))
    free1 = h11 == 0.0 or h12 == 0.0
    free2 = h21 == 0.0 or h22 == 0.0
    psi1 = math.pi if free1 else (math.pi + cmath.phase((h12 * h12) / (h11 * h11))) % TWO_PI
    psi2 = math.pi if free2 else (math.pi + cmath.phase((h21 * h21) / (h22 * h22))) % TWO_PI
    if free1 and not free2:
        psi1 = -psi2 % TWO_PI
    elif free2 and not free1:
        psi2 = -psi1 % TWO_PI
    mismatch = (psi1 + psi2) % TWO_PI
    simultaneous = min(mismatch, TWO_PI - mismatch) <= 1e-12
    return AlignmentPhases(psi1, psi2, simultaneous)


def proper_rates(ch: ChannelRealization, p1, p2):
    """Rates of both users for proper signaling at powers (p1, p2).

    Broadcasts over array inputs; powers must be >= 0.
    """
    g11, g12, g21, g22 = ch.gains
    r1 = np.log1p(g11 * p1 / (ch.noise1 + g12 * p2)) / _LN2
    r2 = np.log1p(g22 * p2 / (ch.noise2 + g21 * p1)) / _LN2
    return r1, r2


def rate_pair_proper(ch: ChannelRealization, p) -> RatePair:
    """Scalar wrapper around :func:`proper_rates` with validation."""
    p1, p2 = float(p[0]), float(p[1])
    if p1 < 0.0 or p2 < 0.0:
        raise ValueError("powers must be >= 0")
    r1, r2 = proper_rates(ch, p1, p2)
    return RatePair(float(r1), float(r2))


def _improper_terms(gkk, gkj, noise, ck, kapk, cj, kapj):
    """Phase-free terms ``(K, P)`` of user k's improper rate, for user j
    interfering.

    With |a| = g_kk kappa_k and |b| = g_kj kappa_j the pseudovariance
    magnitudes, c_s = g_kj c_j + n_k and c_y = g_kk c_k + c_s, they are
    K = (c_y - |a| - |b|)(c_y + |a| + |b|) / V and P = 4 |a| |b| / V,
    where V = (c_s - |b|)(c_s + |b|) = det R_s.  The differences are
    sums of the nonnegative terms g (c - kappa) and n_k, so K and P are
    free of cancellation.  V divides (it is not inverted once) so that a
    silent user's K is exactly 1.
    """
    ds = gkj * (cj - kapj) + noise
    ss = gkj * (cj + kapj) + noise
    dy = gkk * (ck - kapk) + ds
    sy = gkk * (ck + kapk) + ss
    v = ds * ss
    return dy * sy / v, 4.0 * (gkk * kapk) * (gkj * kapj) / v


def _improper_finish(K, P, w, out=None):
    """User k's rate 1/2 log2(P w + K) from the terms of
    :func:`_improper_terms` and the phase weight ``w`` of
    :func:`_phase_weights`; writes into ``out`` if given.

    No clamp is needed: for 0 <= kappa <= c each factor of K's numerator
    rounds to at least its counterpart in V, so K >= 1 and P w >= 0 in
    floating point as well, and the rate is >= 0.
    """
    x = np.multiply(P, w, out=out)
    x = np.add(x, K, out=out)
    x = np.log2(x, out=out)
    return np.multiply(x, 0.5, out=out)


def _phase_weights(ch: ChannelRealization, phi1, phi2):
    """Phase weights ``w_k = sin^2((delta_k + theta_k) / 2)`` of both
    users, where delta_k = phi_k - phi_j and theta_k = 2 (arg h_kk -
    arg h_kj) is the phase of a conj(b), so that det R_y / det R_s =
    P w_k + K.  The weight is 0 where the two received pseudovariance
    terms add in phase and 1 where they are in opposite phase (the
    alignment at which :func:`upper_bound_rates` is tight)."""
    half = 0.5 * np.subtract(phi1, phi2)
    t1 = cmath.phase(complex(ch.h11)) - cmath.phase(complex(ch.h12))
    t2 = cmath.phase(complex(ch.h22)) - cmath.phase(complex(ch.h21))
    # user 2's delta is -(phi1 - phi2), and sin^2 is even
    return np.sin(half + t1) ** 2, np.sin(half - t2) ** 2


def _user_terms(ch: ChannelRealization, c1, c2, kappa1, kappa2):
    """:func:`_improper_terms` of user 1 and of user 2."""
    g11, g12, g21, g22 = ch.gains
    return (
        _improper_terms(g11, g12, ch.noise1, c1, kappa1, c2, kappa2),
        _improper_terms(g22, g21, ch.noise2, c2, kappa2, c1, kappa1),
    )


def improper_rates(ch: ChannelRealization, c1, c2, kappa1, kappa2, phi1, phi2):
    """Rates of both users for a general (possibly improper) strategy.

    Broadcasts over array inputs.  Inputs must satisfy
    ``0 <= kappa_k <= c_k``; the rates are then >= 0, and a silent user
    (``c_k = 0``) gets rate exactly 0.
    """
    terms1, terms2 = _user_terms(ch, c1, c2, kappa1, kappa2)
    w1, w2 = _phase_weights(ch, phi1, phi2)
    return _improper_finish(*terms1, w1), _improper_finish(*terms2, w2)


def rate_pair_improper(ch: ChannelRealization, strategy: TransmitStrategy) -> RatePair:
    """Achievable rate pair of a single transmit strategy."""
    r1, r2 = improper_rates(
        ch,
        strategy.c1,
        strategy.c2,
        strategy.kappa1,
        strategy.kappa2,
        strategy.phi1,
        strategy.phi2,
    )
    return RatePair(float(r1), float(r2))


def upper_bound_rates(ch: ChannelRealization, c1, c2, kappa1, kappa2):
    """Phase-free upper bound on the rates of both users.

    Depends only on the coefficient magnitudes and on (c, kappa), never
    on the pseudovariance or channel phases; componentwise at least as
    large as :func:`improper_rates` for any phases.
    """
    terms1, terms2 = _user_terms(ch, c1, c2, kappa1, kappa2)
    # the bound aligns the two pseudovariance terms: phase weight 1
    return _improper_finish(*terms1, 1.0), _improper_finish(*terms2, 1.0)


def rate_upper_bound(ch: ChannelRealization, strategy: TransmitStrategy) -> RatePair:
    """Scalar wrapper around :func:`upper_bound_rates`."""
    r1, r2 = upper_bound_rates(
        ch, strategy.c1, strategy.c2, strategy.kappa1, strategy.kappa2
    )
    return RatePair(float(r1), float(r2))
