import numpy as np
import pytest

from tinregions import ChannelRealization, PowerBudget, example_channel


@pytest.fixture(scope="session")
def sec6():
    return example_channel()


@pytest.fixture(scope="session")
def budget10():
    return PowerBudget(10.0, 10.0)


def _weak_channel(seed, snr_db, inr_below_db=10.0, P=(10.0, 10.0)):
    """Seeded complex channel with unit noise: each direct link has SNR
    ``snr_db`` and each cross link INR ``snr_db - inr_below_db`` at full
    power, each moved by up to 1 dB."""
    rng = np.random.default_rng(seed)
    snr = snr_db + rng.uniform(-1.0, 1.0, 2)
    inr = snr - inr_below_db + rng.uniform(-1.0, 1.0, 2)
    gains = [
        10.0 ** (snr[0] / 10.0) / P[0],
        10.0 ** (inr[0] / 10.0) / P[1],
        10.0 ** (inr[1] / 10.0) / P[0],
        10.0 ** (snr[1] / 10.0) / P[1],
    ]
    h = np.sqrt(gains) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 4))
    return ChannelRealization(*(complex(x) for x in h), 1.0, 1.0)


@pytest.fixture(scope="session")
def weak_channel():
    return _weak_channel
