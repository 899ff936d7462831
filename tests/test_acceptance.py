"""End-to-end acceptance checks on the bundled example channel.

Each test prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the documented tolerance.  The heavyweight
time-sharing sweep is computed once and shared.
"""

import math

import numpy as np
import pytest

from tinregions import (
    ChannelRealization,
    DualPoint,
    SamplingConfig,
    lemma1_check,
    proper_rates,
    pure_improper_samples,
    stationary_solve,
    sweep_boundary,
    theorem1_check,
    ts_sweep,
    upper_right_hull,
)
from tinregions.regions import (
    BoundaryEntry,
    RegionBoundary,
    _profile_value,
)

LN2 = math.log(2.0)
BETAS = np.linspace(0.0, 1.0, 101)


def report(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def ts_solutions(sec6, budget10):
    """(beta, solution, cutting-plane result) across the 101-point grid."""
    return ts_sweep(sec6, budget10, BETAS)


@pytest.fixture(scope="module")
def ts_boundary(ts_solutions):
    entries = tuple(
        BoundaryEntry(
            beta,
            sol.average_rates(),
            sol.R,
            "ts-proper",
            status="ok" if cp.converged else cp.status,
            dual_bound=cp.upper,
        )
        for beta, sol, cp in ts_solutions
    )
    return RegionBoundary(entries, "ts-proper")


@pytest.fixture(scope="module")
def pure_boundary(sec6, budget10):
    return sweep_boundary("pure-proper", sec6, budget10, BETAS)


@pytest.fixture(scope="module")
def improper_samples(sec6, budget10):
    return pure_improper_samples(sec6, budget10, SamplingConfig())


def test_criterion_1_intercepts(ts_boundary, sec6):
    r1_end = ts_boundary.entries[-1].R  # beta = 1
    r2_end = ts_boundary.entries[0].R  # beta = 0
    closed_form = (
        math.log2(1.0 + abs(sec6.h11) ** 2 * 10.0),
        math.log2(1.0 + abs(sec6.h22) ** 2 * 10.0),
    )
    ok = (
        abs(r1_end - 5.40086) <= 1e-3
        and abs(r2_end - 3.44236) <= 1e-3
        and abs(r1_end - closed_form[0]) <= 1e-9
        and abs(r2_end - closed_form[1]) <= 1e-9
    )
    report(1, "intercepts", ok, f"ts(beta=1)={r1_end:.6f}, ts(beta=0)={r2_end:.6f}")


def test_criterion_2_symmetric_point(ts_boundary):
    mid = ts_boundary.entries[50]
    assert mid.beta == pytest.approx(0.5)
    ok = (
        abs(mid.rates.r1 - 2.54495) <= 5e-3
        and abs(mid.rates.r2 - 2.54495) <= 5e-3
    )
    report(2, "symmetric time-sharing point", ok,
           f"r1={mid.rates.r1:.6f}, r2={mid.rates.r2:.6f} (target 2.54495 +- 5e-3)")


def test_criterion_3_strict_superiority(ts_boundary, pure_boundary, improper_samples):
    ts_diag = 0.5 * ts_boundary.entries[50].R
    proper_hull = upper_right_hull(pure_boundary.rate_points())
    proper_diag = 0.5 * _profile_value(proper_hull, (0.5, 0.5))
    improper_hull = upper_right_hull(improper_samples)
    improper_diag = 0.5 * _profile_value(improper_hull, (0.5, 0.5))
    ok = (
        ts_diag >= 2.51
        and abs(proper_diag - 2.1024) <= 1e-2
        and abs(improper_diag - 2.460) <= 1e-2
        and ts_diag > proper_diag
        and ts_diag > improper_diag
    )
    report(3, "strict superiority", ok,
           f"ts={ts_diag:.5f} > improper-hull={improper_diag:.5f} > proper-hull={proper_diag:.5f}")


def test_criterion_4_nesting(sec6, budget10, pure_boundary, ts_boundary):
    hull_boundary = sweep_boundary("hull-proper", sec6, budget10, BETAS)
    slack_hp = min(
        h.R - p.R for h, p in zip(hull_boundary.entries, pure_boundary.entries)
    )
    slack_th = min(
        t.R - h.R for t, h in zip(ts_boundary.entries, hull_boundary.entries)
    )
    ok = slack_hp >= -1e-6 and slack_th >= -1e-6
    report(4, "nesting sweep", ok,
           f"min(hull-pure)={slack_hp:.3e}, min(ts-hull)={slack_th:.3e} over {len(BETAS)} profiles")


def test_criterion_5_containment_harness(sec6, budget10, ts_boundary):
    rep = theorem1_check(sec6, budget10, trials=1000, boundary=ts_boundary)
    ok = rep.failures == 0 and rep.max_violation <= 5e-3
    report(5, "improper time-sharing containment", ok,
           f"max violation {rep.max_violation:.3e} over {rep.trials} trials (tol 5e-3)")


def test_criterion_6_bound_property_suite(sec6):
    rep = lemma1_check(sec6, trials=100_000)
    ok = rep.max_bound_violation <= 1e-12 and rep.max_alignment_gap <= 1e-9
    report(6, "rate bound properties", ok,
           f"bound violation {rep.max_bound_violation:.2e} (tol 1e-12), "
           f"aligned-equality gap {rep.max_alignment_gap:.2e} (tol 1e-9)")


def test_criterion_7_inner_solver_oracle(sec6):
    rng = np.random.default_rng(2024)
    eps = 1e-6
    step = 0.01
    duals = [
        DualPoint(
            rng.uniform(0.0, 2.0),
            rng.uniform(0.0, 2.0),
            rng.uniform(0.05, 1.0),
            rng.uniform(0.05, 1.0),
        )
        for _ in range(50)
    ]
    # on sec6 every one of these maxima lies on an axis; the weak real
    # channel puts some of them inside, so the interior candidates count
    weak = ChannelRealization(1.0, 0.5, 0.5, math.sqrt(2.0), 1.0, 1.0)
    worst_dev = 0.0
    worst_gap = 0.0
    interior = 0
    for ch in (sec6, weak):
        g11, g12, g21, g22 = ch.gains
        for dual in duals:
            res = stationary_solve(ch, dual)
            assert not res.capped
            worst_gap = max(worst_gap, res.gap)
            interior += ch is weak and min(res.p) > 0.0
            # beyond the axis peak p_hat_k the own-signal term falls below
            # its price, so df/dp_k < 0 there and the maximizer lies in
            # [0, p_hat]
            p_hat1 = max(dual.mu1 / (dual.lambda1 * LN2) - ch.noise1 / g11, 0.0)
            p_hat2 = max(dual.mu2 / (dual.lambda2 * LN2) - ch.noise2 / g22, 0.0)
            p1 = np.arange(0.0, p_hat1 + step, step)
            p2 = np.arange(0.0, p_hat2 + step, step)
            best = -math.inf
            for i in range(0, len(p1), 512):
                blk = p1[i : i + 512][:, None]
                r1, r2 = proper_rates(ch, blk, p2[None, :])
                f = (
                    dual.mu1 * r1
                    + dual.mu2 * r2
                    - dual.lambda1 * blk
                    - dual.lambda2 * p2[None, :]
                )
                best = max(best, float(f.max()))
            lip = (
                dual.mu1 * g11 / (ch.noise1 * LN2)
                + dual.mu2 * g21 / (ch.noise2 * LN2)
                + dual.lambda1
                + dual.mu2 * g22 / (ch.noise2 * LN2)
                + dual.mu1 * g12 / (ch.noise1 * LN2)
                + dual.lambda2
            )
            dev = abs(res.value - best)
            assert res.converged
            assert dev <= eps + lip * step, (ch, dual, dev, lip)
            # every grid point is feasible, so none may beat the maximum
            assert best <= res.value + eps, (ch, dual, best, res.value)
            worst_dev = max(worst_dev, dev)
    ok = worst_gap <= eps and interior > 0
    report(7, "inner solver vs grid oracle", ok,
           f"50 duals on sec6 and on a weak real channel ({interior} interior maxima), "
           f"worst |stationary - grid| {worst_dev:.2e}, worst gap {worst_gap:.2e}")


def test_criterion_8_strong_duality(ts_boundary):
    gaps = [abs(e.R - e.dual_bound) for e in ts_boundary.entries]
    statuses = {e.status for e in ts_boundary.entries}
    ok = max(gaps) <= 2e-4 and statuses == {"ok"}
    report(8, "strong duality across profiles", ok,
           f"max |recovered R - dual bound| = {max(gaps):.3e} (tol 2e-4)")


def test_criterion_9_caratheodory(ts_solutions):
    counts = [len(sol.strategies) for _, sol, _ in ts_solutions]
    taus_ok = all(
        all(t > 1e-9 for t, _, _ in sol.strategies) for _, sol, _ in ts_solutions
    )
    ok = max(counts) <= 4 and taus_ok
    report(9, "at most four active strategies", ok,
           f"max active strategies {max(counts)} across {len(counts)} solutions")


def test_criterion_10_improper_sample_regression(improper_samples):
    target = np.array([3.19111715359059, 2.11192285885371])
    dist = float(np.abs(improper_samples - target).max(axis=1).min())
    ok = dist <= 0.05
    report(10, "improper sampling regression", ok,
           f"closest sampled point within L-inf {dist:.4f} of published point (tol 0.05)")
