"""Result checks computed apart from the program.

Every rate here comes from the TIN rate formula written out again on
plain floats and numpy arrays; nothing is imported from ``tinregions``.
A channel is given as its four complex gains ``h = (h11, h12, h21,
h22)`` and noise variances ``noise = (n1, n2)``; a budget as ``P =
(P1, P2)``.  Each check returns a list of problems, empty when it
passes.
"""

from __future__ import annotations

import numpy as np

# Reference figures of the bundled sec6 channel at P = (10, 10).
PAPER_R1_INTERCEPT = 5.40086
PAPER_R2_INTERCEPT = 3.44236
PAPER_TS_MID = 2.54495
PAPER_IMPROPER_POINT = (3.19112, 2.11192)
IMPROPER_HULL_MID = 2.460

INTERCEPT_TOL = 1e-9
PAPER_TOL = 1e-3
TS_MID_TOL = 5e-3
IMPROPER_POINT_TOL = 0.05
IMPROPER_MID_TOL = 1e-2
THEOREM1_MAX_VIOLATION = 5e-3
RATE_TOL = 1e-9
MAX_STRATEGIES = 4
GRID_SIDE = 101
GRID_RANDOM = 2000
_CHUNK = 1 << 20


def gains(h) -> np.ndarray:
    return np.array([abs(complex(x)) ** 2 for x in h])


def proper_rates(h, noise, p1, p2):
    """Both users' rates for proper Gaussian inputs at powers (p1, p2)."""
    g11, g12, g21, g22 = gains(h)
    r1 = np.log2(1.0 + g11 * np.asarray(p1) / (noise[0] + g12 * np.asarray(p2)))
    r2 = np.log2(1.0 + g22 * np.asarray(p2) / (noise[1] + g21 * np.asarray(p1)))
    return r1, r2


def single_user_rates(h, noise, P) -> tuple[float, float]:
    """Interference-free rates log2(1 + |h_kk|^2 P_k / N_k)."""
    g = gains(h)
    return (
        float(np.log2(1.0 + g[0] * P[0] / noise[0])),
        float(np.log2(1.0 + g[3] * P[1] / noise[1])),
    )


def power_grid(P, seed: int) -> np.ndarray:
    """Power vectors for the pure-strategy check: a regular grid over
    the budget rectangle plus seeded uniform points."""
    a = np.linspace(0.0, P[0], GRID_SIDE)
    b = np.linspace(0.0, P[1], GRID_SIDE)
    regular = np.stack(np.meshgrid(a, b, indexing="ij"), axis=-1).reshape(-1, 2)
    rng = np.random.default_rng(seed)
    rand = rng.uniform(0.0, 1.0, (GRID_RANDOM, 2)) * np.asarray(P, dtype=float)
    return np.vstack([regular, rand])


def best_single_proper(h, noise, powers: np.ndarray, beta: float) -> float:
    """Largest balanced value min_k r_k / rho_k over the given powers."""
    r1, r2 = proper_rates(h, noise, powers[:, 0], powers[:, 1])
    if beta == 1.0:
        return float(r1.max())
    if beta == 0.0:
        return float(r2.max())
    return float(np.max(np.minimum(r1 / beta, r2 / (1.0 - beta))))


def mixture_rates(h, noise, strategies) -> tuple[float, float]:
    """Average rates of a mixture of ``(tau, (p1, p2))`` strategies."""
    taus = np.array([float(t) for t, _ in strategies])
    powers = np.array([[float(p[0]), float(p[1])] for _, p in strategies])
    r1, r2 = proper_rates(h, noise, powers[:, 0], powers[:, 1])
    return float(taus @ r1), float(taus @ r2)


def check_ts_point(
    h,
    noise,
    P,
    beta: float,
    R: float,
    dual_bound: float,
    strategies,
    eps_cp: float,
    pure_best: float,
) -> list[str]:
    """A time-sharing boundary point: the mixture is feasible and attains
    rho_k * R, R meets its dual bound, R beats every pure strategy, and
    rho_k * R stays below the interference-free rate of user k.

    ``strategies`` is a sequence of ``(tau, (p1, p2))``; the rates are
    recomputed here.
    """
    where = f"beta={beta:.4f}"
    problems = []
    rho = (beta, 1.0 - beta)
    if not strategies or len(strategies) > MAX_STRATEGIES:
        problems.append(f"{where}: {len(strategies)} strategies, expected 1..{MAX_STRATEGIES}")
        return problems
    taus = np.array([float(t) for t, _ in strategies])
    powers = np.array([[float(p[0]), float(p[1])] for _, p in strategies])
    if np.any(taus < 0.0) or abs(taus.sum() - 1.0) > RATE_TOL:
        problems.append(f"{where}: weights {taus.tolist()} are not on the simplex")
    if np.any(powers < 0.0):
        problems.append(f"{where}: negative power in {powers.tolist()}")
    avg_p = taus @ powers
    for k in range(2):
        if avg_p[k] > P[k] * (1.0 + RATE_TOL) + RATE_TOL:
            problems.append(f"{where}: average power {avg_p[k]} of user {k + 1} exceeds {P[k]}")
    avg_r = mixture_rates(h, noise, strategies)
    for k in range(2):
        if rho[k] * R > avg_r[k] + RATE_TOL:
            problems.append(
                f"{where}: user {k + 1} averages {avg_r[k]:.12g} < rho*R = {rho[k] * R:.12g}"
            )
    if not abs(R - dual_bound) <= 2.0 * eps_cp:
        problems.append(f"{where}: |R - dual bound| = {abs(R - dual_bound):.3e} > 2 eps_cp")
    if not R >= pure_best - 2.0 * eps_cp:
        problems.append(f"{where}: R = {R:.9g} below the best pure strategy {pure_best:.9g}")
    caps = single_user_rates(h, noise, P)
    for k in range(2):
        if rho[k] * R > caps[k] + RATE_TOL:
            problems.append(
                f"{where}: rho*R = {rho[k] * R:.9g} exceeds the single-user rate {caps[k]:.9g}"
            )
    return problems


def check_intercepts(h, noise, P, r1_end: float, r2_end: float) -> list[str]:
    """Profiles beta = 1 and beta = 0 give the single-user rates and the
    published sec6 intercepts."""
    problems = []
    exact = single_user_rates(h, noise, P)
    for label, got, want in (("r1", r1_end, exact[0]), ("r2", r2_end, exact[1])):
        if not abs(got - want) <= INTERCEPT_TOL:
            problems.append(f"{label} intercept {got!r} differs from log2(1+gP/N) = {want!r}")
    paper = (("r1", r1_end, PAPER_R1_INTERCEPT), ("r2", r2_end, PAPER_R2_INTERCEPT))
    for label, got, want in paper:
        if not abs(got - want) <= PAPER_TOL:
            problems.append(f"{label} intercept {got!r} differs from the paper's {want}")
    return problems


def check_ts_mid(r1: float, r2: float) -> list[str]:
    """Both users' rates at beta = 0.5 sit at the published 2.54495."""
    if not (abs(r1 - PAPER_TS_MID) <= TS_MID_TOL and abs(r2 - PAPER_TS_MID) <= TS_MID_TOL):
        return [f"beta=0.5 rates ({r1!r}, {r2!r}) are not {PAPER_TS_MID} +- {TS_MID_TOL}"]
    return []


def _height(hull: np.ndarray):
    """Piecewise-linear r2 = f(r1) through hull vertices, and max r1."""
    order = np.argsort(hull[:, 0], kind="stable")
    xs, ys = hull[order, 0], hull[order, 1]
    return (lambda x: np.interp(x, xs, ys)), float(xs[-1])


def check_hull(samples: np.ndarray, hull: np.ndarray) -> list[str]:
    """Samples are finite and non-negative and lie on or below the hull;
    the hull is a concave staircase whose vertices are samples or the
    axis projections of the extreme samples."""
    problems = []
    hull = np.asarray(hull, dtype=float)
    if hull.ndim != 2 or hull.shape[1] != 2 or len(hull) < 2:
        return [f"hull has shape {hull.shape}"]
    if np.any(np.diff(hull[:, 0]) >= 0.0) or np.any(np.diff(hull[:, 1]) <= 0.0):
        problems.append("hull vertices are not ordered r1 descending, r2 ascending")
    slopes = np.diff(hull[:, 1]) / np.diff(hull[:, 0])
    # r1 falls along the list, so a concave face has rising slopes
    if np.any(np.diff(slopes) < -1e-12 * (1.0 + np.abs(slopes[1:]))):
        problems.append("hull is not concave")
    height, xmax = _height(hull)
    tol = 1e-9
    r1max = r2max = -np.inf
    bad = 0
    for i in range(0, len(samples), _CHUNK):
        s = samples[i : i + _CHUNK]
        if not np.all(np.isfinite(s)) or np.any(s < 0.0):
            problems.append(f"samples {i}..{i + len(s)} hold a negative or non-finite rate")
            return problems
        r1max = max(r1max, float(s[:, 0].max()))
        r2max = max(r2max, float(s[:, 1].max()))
        above = (s[:, 0] > xmax + tol) | (s[:, 1] > height(np.minimum(s[:, 0], xmax)) + tol)
        bad += int(np.count_nonzero(above))
    if bad:
        problems.append(f"{bad} samples lie above the hull")
    for v in hull:
        on_axis = (v[1] == 0.0 and v[0] == r1max) or (v[0] == 0.0 and v[1] == r2max)
        if not on_axis and nearest_linf(samples, v) > 0.0:
            problems.append(f"hull vertex {v.tolist()} is not a sample")
    return problems


def nearest_linf(samples: np.ndarray, point) -> float:
    """Smallest L-infinity distance from ``point`` to a sample."""
    best = np.inf
    p = np.asarray(point, dtype=float)
    for i in range(0, len(samples), _CHUNK):
        d = np.abs(samples[i : i + _CHUNK] - p).max(axis=1)
        best = min(best, float(d.min()))
    return best


def hull_ray_value(hull: np.ndarray, beta: float) -> float:
    """Largest R with (beta R, (1 - beta) R) inside the hull region."""
    height, xmax = _height(np.asarray(hull, dtype=float))
    lo, hi = 0.0, float(np.max(hull)) * 2.0 + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        x, y = beta * mid, (1.0 - beta) * mid
        if x <= xmax and y <= float(height(x)):
            lo = mid
        else:
            hi = mid
    return lo


def check_improper_hull(samples: np.ndarray, hull: np.ndarray) -> list[str]:
    """The sec6 improper-hull figures: the published strategy is among the
    samples, and the balanced point sits at 2.460, below time sharing."""
    problems = check_hull(samples, hull)
    d = nearest_linf(samples, PAPER_IMPROPER_POINT)
    if not d <= IMPROPER_POINT_TOL:
        problems.append(f"published point {PAPER_IMPROPER_POINT} is {d:.4f} from every sample")
    mid = 0.5 * hull_ray_value(hull, 0.5)
    if not abs(mid - IMPROPER_HULL_MID) <= IMPROPER_MID_TOL:
        problems.append(
            f"beta=0.5 hull value {mid:.6f} is not {IMPROPER_HULL_MID} +- {IMPROPER_MID_TOL}"
        )
    if not mid < PAPER_TS_MID:
        problems.append(f"beta=0.5 hull value {mid:.6f} is not below time sharing {PAPER_TS_MID}")
    return problems


def check_containment(failures: int, max_violation: float) -> list[str]:
    problems = []
    if failures != 0:
        problems.append(f"{failures} improper mixtures escaped the proper region")
    if not max_violation <= THEOREM1_MAX_VIOLATION:
        problems.append(f"max violation {max_violation:.3e} > {THEOREM1_MAX_VIOLATION}")
    return problems


def check_boundary_rows(h, noise, P, rows) -> list[str]:
    """The committed ts-proper boundary: rows sorted by beta from 0 to 1,
    all ok, with the closed-form intercepts, the published balanced
    point, and a frontier that trades r2 for r1 as beta grows.

    ``rows`` holds ``(beta, r1, r2, R, status)`` tuples.
    """
    problems = []
    betas = [r[0] for r in rows]
    if not rows or betas[0] != 0.0 or betas[-1] != 1.0 or betas != sorted(betas):
        return [f"boundary betas {betas} do not run from 0 to 1"]
    bad = [r[0] for r in rows if r[4] != "ok"]
    if bad:
        problems.append(f"boundary rows at beta {bad} are not ok")
    problems += check_intercepts(h, noise, P, rows[-1][3], rows[0][3])
    mid = [r for r in rows if r[0] == 0.5]
    problems += check_ts_mid(mid[0][1], mid[0][2]) if mid else ["boundary has no beta=0.5 row"]
    r1 = np.array([r[1] for r in rows])
    r2 = np.array([r[2] for r in rows])
    if np.any(np.diff(r1) < -RATE_TOL) or np.any(np.diff(r2) > RATE_TOL):
        problems.append("boundary rates are not monotone in beta")
    return problems
