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

The improper rate is computed in two parts: `_improper_terms` holds
everything that does not depend on the pseudovariance phases, and
`_improper_finish` adds the phased terms, takes the log and clamps.
`improper_rates` calls both; the improper sampler in
:mod:`tinregions.regions` computes the phase-free part of its grid once
and finishes it at every phase difference.
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


def _improper_terms(hkk, hkj, noise, ck, kapk, cj, kapj):
    """Phase-free part of user k's improper rate, for user j interfering.

    Returns ``(a, b, cy2, den, base)``: the pseudovariance factors
    ``a = h_kk^2 kappa_k`` and ``b = h_kj^2 kappa_j`` (the channel phase
    enters twice), the squared received variance ``cy2``, the
    interference-pseudovariance term ``den`` and the proper base rate
    ``base = log2(1 + g_kk c_k / c_s)``.
    """
    gkk = abs(hkk) ** 2
    gkj = abs(hkj) ** 2
    cs = gkj * cj + noise
    cy = gkk * ck + cs
    den = 1.0 - (gkj * kapj) ** 2 / cs**2
    return (hkk * hkk) * kapk, (hkj * hkj) * kapj, cy**2, den, np.log1p(gkk * ck / cs) / _LN2


def _improper_finish(pa, pb, cy2, den, base, out=None):
    """User k's rate from the phased pseudovariance terms
    ``pa = a e^{i phi_k}`` and ``pb = b e^{i phi_j}`` and the other
    terms of :func:`_improper_terms`; writes into ``out`` if given."""
    num = 1.0 - np.abs(pa + pb) ** 2 / cy2
    # nonnegative in exact arithmetic; clamp the rounding residue
    return np.maximum(base + 0.5 * np.log2(num / den), 0.0, out=out)


def improper_rates(ch: ChannelRealization, c1, c2, kappa1, kappa2, phi1, phi2):
    """Rates of both users for a general (possibly improper) strategy.

    Broadcasts over array inputs.  Inputs must satisfy
    ``0 <= kappa_k <= c_k``; the log arguments are then strictly
    positive because the noise variances are.
    """
    h11, h12, h21, h22 = (complex(ch.h11), complex(ch.h12), complex(ch.h21), complex(ch.h22))
    a1, b1, cy1, den1, base1 = _improper_terms(h11, h12, ch.noise1, c1, kappa1, c2, kappa2)
    a2, b2, cy2, den2, base2 = _improper_terms(h22, h21, ch.noise2, c2, kappa2, c1, kappa1)
    e1 = np.exp(1j * np.asarray(phi1))
    e2 = np.exp(1j * np.asarray(phi2))
    r1 = _improper_finish(a1 * e1, b1 * e2, cy1, den1, base1)
    r2 = _improper_finish(a2 * e2, b2 * e1, cy2, den2, base2)
    return r1, r2


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
    g11, g12, g21, g22 = ch.gains
    # magnitudes suffice, and keep the unused factors a and b real
    h11, h12, h21, h22 = (abs(ch.h11), abs(ch.h12), abs(ch.h21), abs(ch.h22))
    _, _, cy1, den1, base1 = _improper_terms(h11, h12, ch.noise1, c1, kappa1, c2, kappa2)
    _, _, cy2, den2, base2 = _improper_terms(h22, h21, ch.noise2, c2, kappa2, c1, kappa1)
    # the bound aligns the two pseudovariance terms in opposite phase
    r1 = _improper_finish(g11 * kappa1, -(g12 * kappa2), cy1, den1, base1)
    r2 = _improper_finish(g22 * kappa2, -(g21 * kappa1), cy2, den2, base2)
    return r1, r2


def rate_upper_bound(ch: ChannelRealization, strategy: TransmitStrategy) -> RatePair:
    """Scalar wrapper around :func:`upper_bound_rates`."""
    r1, r2 = upper_bound_rates(
        ch, strategy.c1, strategy.c2, strategy.kappa1, strategy.kappa2
    )
    return RatePair(float(r1), float(r2))
