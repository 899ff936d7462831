"""The benchmark's tracer wraps the program at the module attributes it
calls through (``outer.lp_solve``, ``regions.lp_solve``,
``outer.bnb_solve``, ...).  A rename at one of those sites would leave
its layer silently empty in ``perfbench/run.py --trace 1``; this test
records one traced solve and one traced Theorem-1 batch and checks that
every layer still shows up.  The solve is on sec6 with its cross gains
zeroed, where the TDMA point is not optimal, so the cutting-plane loop
and the recovery run."""

from dataclasses import replace

import numpy as np

from perfbench.spans import Tracer
from tinregions import RateProfile, outer, regions
from tinregions.model import RatePair
from tinregions.regions import BoundaryEntry, RegionBoundary


def _mixing_trials(seed, trials):
    """How many of ``theorem1_check``'s first ``trials`` trials draw two
    or more strategies, replaying its draws (default impropriety)."""
    rng = np.random.default_rng(seed)
    mixing = 0
    for _ in range(trials):
        L = int(rng.integers(1, 5))
        mixing += L > 1
        rng.uniform(size=2 + 2 * (L - 1) + 4 * L + 1)  # powers, kappas, phases, beta
    return mixing


def test_traced_layers_reach_the_program(sec6, budget10):
    boundary = RegionBoundary(
        tuple(
            BoundaryEntry(beta, RatePair(r1, r2), 0.0, "ts-proper")
            for beta, r1, r2 in ((0.0, 0.0, 3.44), (0.5, 2.54, 2.54), (1.0, 5.4, 0.0))
        ),
        "ts-proper",
    )
    tracer = Tracer()
    tracer.install()
    try:
        _, cp = outer.ts_point(replace(sec6, h12=0.0, h21=0.0), budget10, RateProfile(0.5))
        report = regions.theorem1_check(sec6, budget10, trials=5, boundary=boundary)
    finally:
        tracer.uninstall()
    assert report.trials == 5
    assert cp.cuts[0].origin == "initial"
    spans = tracer.spans
    lp_parents = {
        spans[parent][0] if parent >= 0 else None for name, _, _, parent, *_ in spans if name == "lp"
    }
    assert lp_parents == {"outer", "recover", "theorem1"}
    # the batch evaluates every trial's rates in one call, then solves
    # one master per trial with two or more strategies (four of the
    # five here; the fifth has one strategy and needs no master)
    theorem1 = {i for i, (name, *_) in enumerate(spans) if name == "theorem1"}
    under = [name for name, _, _, parent, *_ in spans if parent in theorem1]
    assert under.count("model.improper") == 1
    mixing = _mixing_trials(regions.RegionConfig().sampling.seed, report.trials)
    assert under.count("lp") == mixing == 4
    assert {attrs["rows"] for name, *_, attrs in spans if name == "lp"} == {5}
    assert any(name == "inner" for name, *_ in spans)
    assert outer.lp_solve.__module__ == "tinregions.lp"  # uninstalled
