"""The library runs on numpy alone: importing scipy would multiply its
start-up time, and scipy is not a declared dependency.  Nor does it
load ``numpy.polynomial``, which numpy imports lazily at a few
milliseconds per process: the oracle solves its eliminant with its own
colleague-matrix templates."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import tinregions

PIPELINE = """
import sys

from tinregions import (
    PowerBudget, RateProfile, SamplingConfig, example_channel, pure_improper_samples, ts_point,
)

ch = example_channel()
budget = PowerBudget(10.0, 10.0)
ts_point(ch, budget, RateProfile(0.5))
pure_improper_samples(
    ch, budget, SamplingConfig(power_grid=5, fraction_grid=3, phase_grid=4, random_count=100)
)
print(",".join(sorted(sys.modules)))
"""


@pytest.fixture(scope="module")
def pipeline_modules():
    """The modules loaded by a fresh interpreter that runs one TDMA
    certificate (and so one oracle call) and a small improper sampling."""
    src = str(Path(tinregions.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-c", PIPELINE],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    return run.stdout.strip().split(",")


def test_pipeline_imports_no_scipy(pipeline_modules):
    scipy = [m for m in pipeline_modules if m.split(".")[0] == "scipy"]
    assert scipy == [], f"scipy modules loaded: {','.join(scipy)[:200]}"


def test_pipeline_loads_no_numpy_polynomial(pipeline_modules):
    assert "tinregions.inner" in pipeline_modules
    polynomial = [m for m in pipeline_modules if m.startswith("numpy.polynomial")]
    assert polynomial == [], f"numpy.polynomial modules loaded: {','.join(polynomial)[:200]}"
