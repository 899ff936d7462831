"""Smoke test for the demo scripts that run in a few seconds."""

import runpy
from pathlib import Path

DEMOS = Path(__file__).resolve().parents[1] / "demos"


def test_certified_inner_solver_runs(capsys):
    runpy.run_path(str(DEMOS / "certified_inner_solver.py"), run_name="demo")["main"]()
    out = capsys.readouterr().out
    assert "stationary oracle" in out and "Lipschitz bound" in out


def test_propriety_check_passes(capsys):
    # the one demo that runs theorem1_check (1000 trials)
    runpy.run_path(str(DEMOS / "propriety_check.py"), run_name="demo")["main"]()
    out = capsys.readouterr().out
    assert out.count("-> PASS") == 2 and "FAIL" not in out
