"""The library runs on numpy alone: importing scipy would multiply its
start-up time, and scipy is not a declared dependency."""

import os
import subprocess
import sys
from pathlib import Path

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
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_pipeline_imports_no_scipy():
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
    assert run.stdout.strip() == "", f"scipy modules loaded: {run.stdout.strip()[:200]}"
