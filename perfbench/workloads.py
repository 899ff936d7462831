"""The four benchmark workloads.

Each workload builds its inputs from a seed (``setup``), runs one round
of operations through the ``op`` callable the runner hands it
(``run_round``), and checks a round's outputs with the independent
computations in :mod:`perfbench.checks` (``check``).  ``probe`` names
the reference probe that matches its work (see :mod:`perfbench.probe`).  Every round of a
run repeats the same operations.  The program is called through the
module attributes it is imported under, so the tracer can wrap them.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tinregions import fileio, outer, regions
from tinregions.model import ChannelRealization, PowerBudget, RatePair, RateProfile
from tinregions.regions import BoundaryEntry, RegionBoundary, RegionConfig, SamplingConfig

from . import checks

BOUNDARY_FILE = Path(__file__).resolve().parent / "data" / "theorem1_boundary.csv"
SEC6_BUDGET = (10.0, 10.0)
EPS_CP = outer.OuterConfig().epsilon_cp


class OpFailed(Exception):
    """An operation raised ``RuntimeError``; the runner counted it failed."""


def plain(ch: ChannelRealization):
    """Gains and noise of a channel as plain values for the checks."""
    return (ch.h11, ch.h12, ch.h21, ch.h22), (ch.noise1, ch.noise2)


def load_sec6() -> ChannelRealization:
    return fileio.load_channel(fileio.example_channel_path())


def _ts_problems(ch, P, beta, solution, cp, powers):
    h, noise = plain(ch)
    return checks.check_ts_point(
        h,
        noise,
        P,
        beta,
        solution.R,
        cp.upper,
        [(t, p) for t, p, _ in solution.strategies],
        EPS_CP,
        checks.best_single_proper(h, noise, powers, beta),
    )


# --------------------------------------------------------------- ts-sweep


@dataclass(frozen=True)
class SweepInputs:
    ch: ChannelRealization
    betas: np.ndarray
    powers: np.ndarray  # check grid for the best pure strategy


class TsSweep:
    """The 101-profile warm-started ts-proper sweep on sec6, P = (10, 10).
    Each ``ts_point`` call the sweep makes is one operation.  The channel
    is fixed; the seed draws the random part of the check grid."""

    probe = "python"

    def setup(self, seed: int) -> SweepInputs:
        return SweepInputs(
            ch=load_sec6(),
            betas=np.linspace(0.0, 1.0, 101),
            powers=checks.power_grid(SEC6_BUDGET, seed),
        )

    def run_round(self, inp: SweepInputs, op):
        original = regions.ts_point

        def timed(ch, budget, profile, *args, **kwargs):
            return op(f"beta={profile.beta:.2f}", original, ch, budget, profile, *args, **kwargs)

        regions.ts_point = timed
        try:
            return regions.ts_sweep(inp.ch, PowerBudget(*SEC6_BUDGET), inp.betas)
        finally:
            regions.ts_point = original

    def check(self, inp: SweepInputs, out) -> list[str]:
        if out is None:
            return ["the sweep stopped at a failed operation"]
        problems = []
        for beta, solution, cp in out:
            problems += _ts_problems(inp.ch, SEC6_BUDGET, beta, solution, cp, inp.powers)
        h, noise = plain(inp.ch)
        problems += checks.check_intercepts(
            h, noise, SEC6_BUDGET, out[-1][1].R, out[0][1].R
        )
        mid = out[50][1]
        problems += checks.check_ts_mid(
            *checks.mixture_rates(h, noise, [(t, p) for t, p, _ in mid.strategies])
        )
        return problems


# -------------------------------------------------------------- ts-family

#: Fails every time: bnb_solve exhausts its 200 000-box budget on this
#: weak-interference real channel and ts_point raises RuntimeError.
FAULT_NAME = "fault-weak-real"

#: (name, SNR dB, INR dB relative to SNR, P2 / P1, real coefficients,
#: profiles).  INR_k = SNR_k + relative dB.  Weak interference (INR
#: below SNR) is left to the fixed failing point: seeded weak channels
#: exhaust the inner budget on some seeds and not others.  The strong
#: regimes cost a few LP solves each; the moderate ones, where the
#: inner oracle works hardest, carry three profiles and hold the middle
#: of the per-operation distribution.
ONE_PROFILE = (0.5,)
THREE_PROFILES = (0.3, 0.5, 0.7)
REGIMES = (
    ("snr-10-strong", -10.0, 5.0, 1.0, False, ONE_PROFILE),
    ("snr-10-very-strong-real", -10.0, 10.0, 1.0, True, ONE_PROFILE),
    ("snr0-very-strong-unequal", 0.0, 10.0, 0.3, False, ONE_PROFILE),
    ("snr10-very-strong-real", 10.0, 10.0, 1.0, True, ONE_PROFILE),
    ("snr20-very-strong", 20.0, 10.0, 1.0, False, ONE_PROFILE),
    ("snr30-very-strong", 30.0, 10.0, 1.0, False, ONE_PROFILE),
    ("snr0-moderate", 0.0, 0.0, 1.0, False, THREE_PROFILES),
    ("snr10-moderate", 10.0, 0.0, 1.0, False, THREE_PROFILES),
    ("snr20-moderate-unequal", 20.0, 0.0, 0.5, False, THREE_PROFILES),
    ("snr30-moderate-real", 30.0, 0.0, 1.0, True, THREE_PROFILES),
)
FAMILY_P1 = 10.0
GAIN_JITTER_DB = 0.1
BETA_JITTER = 0.005


@dataclass(frozen=True)
class Member:
    name: str
    ch: ChannelRealization
    P: tuple[float, float]
    beta: float


def family(seed: int) -> list[Member]:
    """Per regime one seeded channel at its seeded profiles, then the
    fixed failing point.  The seed draws the phases (signs for real
    channels) and moves SNR and INR by up to 0.1 dB and each beta by up
    to 0.005: the inner oracle's work swings with the gains, and at this
    jitter the family's total inner work stays within about 2 % from
    seed to seed."""
    rng = np.random.default_rng([seed, 0x7A11])
    members = []
    for name, snr_db, rel_db, ratio, real, betas in REGIMES:
        P = (FAMILY_P1, FAMILY_P1 * ratio)
        snr = snr_db + rng.uniform(-GAIN_JITTER_DB, GAIN_JITTER_DB, 2)
        inr = snr + rel_db + rng.uniform(-GAIN_JITTER_DB, GAIN_JITTER_DB, 2)
        g11, g22 = 10.0 ** (snr / 10.0) / P
        g12 = 10.0 ** (inr[0] / 10.0) / P[1]
        g21 = 10.0 ** (inr[1] / 10.0) / P[0]
        if real:
            h = np.sqrt([g11, g12, g21, g22]) * rng.choice([1.0, -1.0], 4)
            coeffs = [float(x) for x in h]
        else:
            h = np.sqrt([g11, g12, g21, g22]) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 4))
            coeffs = [complex(x) for x in h]
        ch = ChannelRealization(*coeffs, 1.0, 1.0)
        for beta in betas:
            jittered = beta + float(rng.uniform(-BETA_JITTER, BETA_JITTER))
            members.append(Member(f"{name}@{beta}", ch, P, jittered))
    fault = ChannelRealization(1.0, 0.5, 0.5, math.sqrt(2.0), 1.0, 1.0)
    members.append(Member(FAULT_NAME, fault, (10.0, 10.0), 0.5))
    return members


class TsFamily:
    """Cold ts_point calls, one operation per (channel, beta), over a
    seeded channel family from -10 to 30 dB SNR."""

    probe = "python"

    def setup(self, seed: int) -> list[Member]:
        return family(seed)

    def run_round(self, members: list[Member], op):
        out = []
        for m in members:
            try:
                solution, cp = op(
                    m.name, outer.ts_point, m.ch, PowerBudget(*m.P), RateProfile(m.beta)
                )
            except OpFailed:
                out.append((m, None, None))
            else:
                out.append((m, solution, cp))
        return out

    def check(self, members: list[Member], out) -> list[str]:
        problems = []
        for i, (m, solution, cp) in enumerate(out):
            if solution is None:
                if m.name != FAULT_NAME:
                    problems.append(f"{m.name}: unexpected failure")
                continue
            powers = checks.power_grid(m.P, i)
            problems += [
                f"{m.name}: {p}"
                for p in _ts_problems(m.ch, m.P, m.beta, solution, cp, powers)
            ]
        return problems


# ---------------------------------------------------------- improper-hull


class ImproperHull:
    """The hull-improper boundary of sec6 at the paper's sampling size:
    a 41x41x17x17 grid at 24 phase differences plus 100 000 random
    strategies, one operation per sampling seed, two seeds per round.

    Two, so that every run times a first operation, which also pays for
    first-touching some 400 MB, and a second one; with one per round a
    fast host fitted two rounds in a run and a slow one a single round.
    Each operation's samples are checked and dropped before the next,
    so only one set is held at a time."""

    probe = "array"

    def setup(self, seed: int):
        return load_sec6(), (SamplingConfig(seed=2 * seed), SamplingConfig(seed=2 * seed + 1))

    def run_round(self, inp, op):
        ch, samplings = inp
        problems = []
        for sampling in samplings:
            samples, hull = op(
                f"seed={sampling.seed}", self._samples_and_hull, ch, sampling
            )
            problems += checks.check_improper_hull(samples, hull)
            del samples
        return problems

    @staticmethod
    def _samples_and_hull(ch, sampling):
        samples = regions.pure_improper_samples(ch, PowerBudget(*SEC6_BUDGET), sampling)
        return samples, regions.upper_right_hull(samples)

    def check(self, inp, out) -> list[str]:
        return ["the round stopped at a failed operation"] if out is None else out


# --------------------------------------------------------------- theorem1

THEOREM1_BATCHES = 5
THEOREM1_TRIALS = 200


def read_boundary() -> RegionBoundary:
    """The committed boundary CSV, as written by ``tinregions region``."""
    with open(BOUNDARY_FILE, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    entries = tuple(
        BoundaryEntry(
            float(r["beta"]),
            RatePair(float(r["r1"]), float(r["r2"])),
            float(r["R"]),
            r["method"],
            r["status"],
        )
        for r in rows
    )
    return RegionBoundary(entries, entries[0].method)


@dataclass(frozen=True)
class Theorem1Inputs:
    ch: ChannelRealization
    boundary: RegionBoundary
    seeds: tuple[int, ...]


class Theorem1:
    """Theorem-1 containment batches against the committed proper
    time-sharing boundary; one operation per seeded batch of trials."""

    probe = "python"

    def setup(self, seed: int) -> Theorem1Inputs:
        rng = np.random.default_rng([seed, 0x7E01])
        seeds = tuple(int(s) for s in rng.integers(0, 2**31, THEOREM1_BATCHES))
        return Theorem1Inputs(load_sec6(), read_boundary(), seeds)

    def run_round(self, inp: Theorem1Inputs, op):
        return [
            op(
                f"seed={s}",
                regions.theorem1_check,
                inp.ch,
                PowerBudget(*SEC6_BUDGET),
                RegionConfig(sampling=SamplingConfig(seed=s)),
                trials=THEOREM1_TRIALS,
                boundary=inp.boundary,
            )
            for s in inp.seeds
        ]

    def check(self, inp: Theorem1Inputs, out) -> list[str]:
        h, noise = plain(inp.ch)
        rows = [
            (e.beta, e.rates.r1, e.rates.r2, e.R, e.status) for e in inp.boundary.entries
        ]
        problems = checks.check_boundary_rows(h, noise, SEC6_BUDGET, rows)
        for rep in out:
            problems += checks.check_containment(rep.failures, rep.max_violation)
        return problems


WORKLOADS = {
    "ts-sweep": TsSweep(),
    "ts-family": TsFamily(),
    "improper-hull": ImproperHull(),
    "theorem1": Theorem1(),
}
