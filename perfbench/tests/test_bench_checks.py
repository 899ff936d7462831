"""Controls for the benchmark's result checks and its bookkeeping.

Every check must pass on a correct result and fail on a perturbed one
(a positive control), so a check that can never fire shows up here.
Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for _p in (ROOT / "src", ROOT):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from perfbench import checks, run, spans, workloads  # noqa: E402
from perfbench.probe import ArrayProbe, probe  # noqa: E402
from perfbench.run import central_mean, tail  # noqa: E402
from tinregions import PowerBudget, RateProfile, ts_point  # noqa: E402
from tinregions.model import RatePair  # noqa: E402
from tinregions.regions import (  # noqa: E402
    BoundaryEntry,
    RegionBoundary,
    RegionConfig,
    SamplingConfig,
    theorem1_check,
    upper_right_hull,
)

P = workloads.SEC6_BUDGET
EPS = workloads.EPS_CP


@pytest.fixture(scope="module")
def sec6():
    return workloads.load_sec6()


@pytest.fixture(scope="module")
def mid_point(sec6):
    solution, cp = ts_point(sec6, PowerBudget(*P), RateProfile(0.5))
    h, noise = workloads.plain(sec6)
    strategies = [(t, p) for t, p, _ in solution.strategies]
    pure = checks.best_single_proper(h, noise, checks.power_grid(P, 0), 0.5)
    return h, noise, solution.R, cp.upper, strategies, pure


def _ts(mid_point, **change):
    h, noise, R, upper, strategies, pure = mid_point
    args = dict(R=R, dual_bound=upper, strategies=strategies, pure_best=pure)
    args.update(change)
    return checks.check_ts_point(h, noise, P, 0.5, eps_cp=EPS, **args)


def test_ts_point_passes_on_the_program_result(mid_point):
    assert _ts(mid_point) == []


def test_ts_point_controls(mid_point):
    _, _, R, upper, strategies, pure = mid_point
    assert any("averages" in p for p in _ts(mid_point, R=1.01 * R))
    assert any("dual bound" in p for p in _ts(mid_point, dual_bound=upper + 3 * EPS))
    louder = [(t, (1.5 * p[0], 1.5 * p[1])) for t, p in strategies]
    assert any("exceeds" in p for p in _ts(mid_point, strategies=louder))
    assert any("pure strategy" in p for p in _ts(mid_point, pure_best=R + 0.01))
    off_simplex = [(0.9 * t, p) for t, p in strategies]
    assert any("simplex" in p for p in _ts(mid_point, strategies=off_simplex))
    assert any("strategies" in p for p in _ts(mid_point, strategies=strategies * 5))
    assert any("single-user" in p for p in _ts(mid_point, R=20.0, dual_bound=20.0))


def test_mid_point_matches_the_paper_and_its_control(mid_point):
    h, noise, _, _, strategies, _ = mid_point
    r1, r2 = checks.mixture_rates(h, noise, strategies)
    assert checks.check_ts_mid(r1, r2) == []
    assert checks.check_ts_mid(r1 * 1.01, r2) != []


def test_intercepts_and_controls(sec6):
    h, noise = workloads.plain(sec6)
    r1, r2 = checks.single_user_rates(h, noise, P)
    assert checks.check_intercepts(h, noise, P, r1, r2) == []
    assert checks.check_intercepts(h, noise, P, r1 * (1 + 1e-8), r2) != []
    assert checks.check_intercepts(h, noise, (10.0, 5.0), r1, r2) != []


def _paper_like_hull():
    """Three samples whose hull passes through the published improper
    point and crosses the diagonal at the published 2.460."""
    x0, y0 = checks.PAPER_IMPROPER_POINT
    m = checks.IMPROPER_HULL_MID
    slope = (m - y0) / (m - x0)
    return np.array([[4.5, 0.0], [x0, y0], [0.0, m - slope * m]])


def test_hull_checks_pass_on_a_program_hull():
    samples = _paper_like_hull()
    inner = np.array([[1.0, 1.0], [3.0, 1.5], [0.2, 3.0]])
    samples = np.vstack([samples, inner])
    hull = upper_right_hull(samples)
    assert checks.check_improper_hull(samples, hull) == []


def test_hull_controls():
    samples = _paper_like_hull()
    hull = upper_right_hull(samples)
    assert any("above the hull" in p for p in checks.check_hull(samples, 0.99 * hull))
    assert any("not a sample" in p for p in checks.check_hull(samples[:2], hull))
    bad = samples.copy()
    bad[0, 0] = np.nan
    assert any("non-finite" in p for p in checks.check_hull(bad, hull))
    dented = np.array([[4.5, 0.0], [2.0, 1.0], [0.0, 3.6]])
    assert any("concave" in p for p in checks.check_hull(dented, dented))
    scaled = checks.check_improper_hull(1.01 * samples, upper_right_hull(1.01 * samples))
    assert any("hull value" in p for p in scaled)
    far = samples + [0.0, 0.1]
    moved = checks.check_improper_hull(far, upper_right_hull(far))
    assert any("published point" in p for p in moved)


def test_hull_ray_value_on_a_known_face():
    hull = np.array([[4.0, 0.0], [0.0, 4.0]])
    assert checks.hull_ray_value(hull, 0.5) == pytest.approx(4.0, abs=1e-12)
    assert checks.hull_ray_value(hull, 1.0) == pytest.approx(4.0, abs=1e-12)


def test_committed_boundary_passes_its_checks(sec6):
    h, noise = workloads.plain(sec6)
    boundary = workloads.read_boundary()
    rows = [(e.beta, e.rates.r1, e.rates.r2, e.R, e.status) for e in boundary.entries]
    assert checks.check_boundary_rows(h, noise, P, rows) == []
    shrunk = [(b, 0.9 * r1, 0.9 * r2, 0.9 * R, s) for b, r1, r2, R, s in rows]
    assert checks.check_boundary_rows(h, noise, P, shrunk) != []


def test_theorem1_control_fails_on_a_shrunk_boundary(sec6):
    boundary = workloads.read_boundary()
    rep = theorem1_check(
        sec6, PowerBudget(*P), RegionConfig(sampling=SamplingConfig(seed=5)),
        trials=300, boundary=boundary,
    )
    assert checks.check_containment(rep.failures, rep.max_violation) == []
    shrunk = RegionBoundary(
        tuple(
            BoundaryEntry(e.beta, RatePair(0.9 * e.rates.r1, 0.9 * e.rates.r2), 0.9 * e.R, e.method)
            for e in boundary.entries
        ),
        boundary.method,
    )
    rep = theorem1_check(
        sec6, PowerBudget(*P), RegionConfig(sampling=SamplingConfig(seed=5)),
        trials=2000, boundary=shrunk,
    )
    assert checks.check_containment(rep.failures, rep.max_violation) != []


def test_family_is_seeded_and_ends_with_the_fault():
    a, b, c = workloads.family(1), workloads.family(1), workloads.family(2)
    assert a == b
    assert [m.ch for m in a] != [m.ch for m in c]
    names = [f"{r[0]}@{b}" for r in workloads.REGIMES for b in r[5]]
    assert [m.name for m in a] == names + [workloads.FAULT_NAME]
    fault = a[-1]
    assert (fault.ch.h11, fault.ch.h12, fault.ch.h21, fault.ch.h22) == (1, 0.5, 0.5, math.sqrt(2))
    assert fault.P == (10.0, 10.0) and fault.beta == 0.5
    assert all(0.25 <= m.beta <= 0.75 for m in a[:-1])


def test_self_time_subtracts_direct_children():
    tree = [
        ["outer", 0.0, 10.0, -1, 0, {}],
        ["lp", 1.0, 3.0, 0, 0, {"rows": 4}],
        ["inner", 3.0, 7.0, 0, 0, {"boxes": 9, "capped": False, "converged": True}],
        ["recover", 8.0, 9.5, -1, 0, {"active": 2}],
        ["lp", 8.5, 9.0, 3, 0, {"rows": 6}],
    ]
    assert spans.self_times(tree) == [4.0, 2.0, 4.0, 1.0, 0.5]
    m = spans.layer_metrics(tree, rounds=2)
    assert m["lp.calls"] == 1.0 and m["lp.cut.self_s"] == 1.0 and m["lp.recover.self_s"] == 0.25
    assert m["lp.rows_max"] == 6 and m["lp.rows_mean"] == 5.0
    assert m["inner.boxes"] == 4.5 and m["outer.active_per_cut"] == 2.0


def test_tail_needs_forty_operations():
    assert tail(list(range(39))) is None
    q, value = tail([float(i) for i in range(100)])
    assert q == pytest.approx(0.9) and value == 89.0


def test_central_mean_averages_the_middle_fifth():
    assert central_mean([1.0, 2.0, 3.0]) == 2.0
    values = [100.0, -50.0] + [float(i) for i in range(1, 9)]
    assert central_mean(values) == 4.5  # the 5th and 6th of ten


def test_probes_time_something():
    assert 0.0 < probe() < 1.0
    assert 0.0 < ArrayProbe()() < 1.0


def test_declared_workloads_and_metrics_match_what_runs_report():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    layer = set(spans.layer_metrics([], rounds=1)) | {"fileio.load_s", "trace.overhead_s"}
    assert layer == {m["name"] for m in spec["per_layer"]}
    gated = [m["name"] for m in spec["end_to_end"]]
    assert gated == ["setup_s", "wall_rel", "op_rel_mid", "peak_rss_mb"]
