"""The 120-channel survey: cold ``ts_point`` calls over seeded channels
from low to high SNR and from weak to strong interference, five profiles
each.  It takes several seconds, so it is marked ``slow`` and left out
of the default run; run it with

    PYTHONPATH=src python -m pytest -q -m slow tests/test_survey.py

Rows that raise ``RuntimeError`` (duality-gap violations at capped
duals, the oracle defects of the ROADMAP) are counted, and the count
may not rise above ``KNOWN_ERRORS``; every other row must be a valid
certified mixture."""

import math

import numpy as np
import pytest

from tinregions import ChannelRealization, OuterConfig, PowerBudget, RateProfile, ts_point

SEEDS = range(1000, 1120)
BETAS = (0.1, 0.3, 0.5, 0.7, 0.9)
#: Rows that raise on this survey; lower it when a fix removes some.
KNOWN_ERRORS = 20


def survey_channel(seed):
    """Unit-noise channel with P1 = 10 and P2 / P1 uniform in 0.3...1.
    Each user's SNR is uniform in -10...30 dB and its INR lies uniformly
    -20...10 dB from it; the coefficients are real with random signs on
    even seeds and complex with random phases on odd ones."""
    rng = np.random.default_rng(seed)
    snr = rng.uniform(-10.0, 30.0, 2)
    inr = snr + rng.uniform(-20.0, 10.0, 2)
    P = (10.0, 10.0 * rng.uniform(0.3, 1.0))
    gains = np.array(
        [
            10.0 ** (snr[0] / 10.0) / P[0],
            10.0 ** (inr[0] / 10.0) / P[1],
            10.0 ** (inr[1] / 10.0) / P[0],
            10.0 ** (snr[1] / 10.0) / P[1],
        ]
    )
    if seed % 2 == 0:
        h = [float(x) for x in np.sqrt(gains) * rng.choice([-1.0, 1.0], 4)]
    else:
        h = [complex(x) for x in np.sqrt(gains) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, 4))]
    return ChannelRealization(*h, 1.0, 1.0), PowerBudget(*P)


@pytest.mark.slow
def test_survey():
    eps = OuterConfig().epsilon_cp
    errors, problems = [], []
    for seed in SEEDS:
        ch, budget = survey_channel(seed)
        for beta in BETAS:
            try:
                sol, cp = ts_point(ch, budget, RateProfile(beta))
            except RuntimeError as exc:
                errors.append((seed, beta, str(exc)))
                continue
            p_avg = sol.average_powers()
            if not 1 <= len(sol.strategies) <= 4:
                problems.append((seed, beta, f"{len(sol.strategies)} strategies"))
            if p_avg[0] > budget.p1 * (1.0 + 1e-12) or p_avg[1] > budget.p2 * (1.0 + 1e-12):
                problems.append((seed, beta, f"average powers {p_avg} above {budget}"))
            if cp.converged and not abs(cp.upper - sol.R) <= 2.0 * eps:
                problems.append((seed, beta, f"|upper - R| = {abs(cp.upper - sol.R):.3e}"))
    assert not problems
    assert len(errors) <= KNOWN_ERRORS, errors
