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


def test_rate_regions_writes_four_curves(tmp_path, capsys):
    # the one demo that runs the improper sampler; it writes its CSVs
    # next to itself, so point it at tmp_path
    before = sorted(DEMOS.iterdir())
    main = runpy.run_path(str(DEMOS / "rate_regions.py"), run_name="demo")["main"]
    main.__globals__["HERE"] = tmp_path
    main()
    out = capsys.readouterr().out
    methods = ("pure-proper", "hull-proper", "ts-proper", "hull-improper")
    for method in methods:
        assert f"{method:13s}: 41 profiles in" in out
    assert {f"{m}.csv" for m in methods} <= {p.name for p in tmp_path.iterdir()}
    assert sorted(DEMOS.iterdir()) == before
    balanced = {line.split()[0]: float(line.split()[-2]) for line in out.splitlines()
                if "r1 = r2 ~" in line}
    assert balanced["ts-proper"] > balanced["hull-improper"]
