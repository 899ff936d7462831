"""Walk through the inner oracle on two dual points.

The cutting-plane outer loop repeatedly needs the global maximum of

    f(p) = mu1*r1(p) + mu2*r2(p) - lambda1*p1 - lambda2*p2

over all nonnegative powers.  f is nonconcave (each user's rate is
degraded by the other's power), and because the power constraints are
dualized there is no box to search a priori.  The stationary-point
oracle the loop uses compares every candidate for the maximum: the
origin, the two closed-form axis peaks p_hat_k, and the interior
stationary points from a resultant of degree at most 7.  Beyond p_hat_k
user k's own-signal term falls below its price, so the maximizer lies in
[0, p_hat_1] x [0, p_hat_2].  This script grids that box and checks the
oracle against the grid within the grid's Lipschitz bound, once on the
bundled channel (maximum on an axis) and once on a weak-interference
channel (interior maximum).
"""

import math
import time

import numpy as np

from tinregions import (
    ChannelRealization,
    DualPoint,
    example_channel,
    inner_objective,
    proper_rates,
    stationary_solve,
)

LN2 = math.log(2.0)


def check(name, ch, dual, step=0.01):
    print(f"\n{name}: mu = ({dual.mu1}, {dual.mu2}), lambda = ({dual.lambda1}, {dual.lambda2})")
    g11, g12, g21, g22 = ch.gains
    p_hat = (
        max(dual.mu1 / (dual.lambda1 * LN2) - ch.noise1 / g11, 0.0),
        max(dual.mu2 / (dual.lambda2 * LN2) - ch.noise2 / g22, 0.0),
    )
    print(f"  axis peaks: f({p_hat[0]:.4f}, 0) = {inner_objective(ch, dual, (p_hat[0], 0.0)):.6f}, "
          f"f(0, {p_hat[1]:.4f}) = {inner_objective(ch, dual, (0.0, p_hat[1])):.6f}")

    t0 = time.perf_counter()
    res = stationary_solve(ch, dual)
    dt = time.perf_counter() - t0
    print(f"  stationary oracle: p* = ({res.p[0]:.6f}, {res.p[1]:.6f}), value {res.value:.9f}, "
          f"gap {res.gap:.1e}, {res.iterations} candidates in {dt * 1e3:.2f} ms")

    # brute-force cross-check on a fine grid over the box [0, p_hat]
    p1 = np.arange(0.0, p_hat[0] + step, step)
    p2 = np.arange(0.0, p_hat[1] + step, step)
    r1, r2 = proper_rates(ch, p1[:, None], p2[None, :])
    f = dual.mu1 * r1 + dual.mu2 * r2 - dual.lambda1 * p1[:, None] - dual.lambda2 * p2[None, :]
    i, j = np.unravel_index(np.argmax(f), f.shape)
    best = float(f[i, j])
    lip = (
        dual.mu1 * (g11 + g12) / (ch.noise1 * LN2)
        + dual.mu2 * (g21 + g22) / (ch.noise2 * LN2)
        + dual.lambda1
        + dual.lambda2
    )
    print(f"  grid search (step {step}): best {best:.9f} at ({p1[i]:.2f}, {p2[j]:.2f})")
    print(f"  oracle - grid = {res.value - best:.2e}, Lipschitz bound L*h = {lip * step:.2e}")
    assert best <= res.value + 1e-12 and res.value - best <= lip * step


def main():
    check("bundled channel", example_channel(), DualPoint(1.0, 1.3, 0.08, 0.2))
    check(
        "weak interference",
        ChannelRealization(1.0, 0.1, 0.1, 1.2, 1.0, 1.0),
        DualPoint(1.0, 1.0, 0.3, 0.3),
    )


if __name__ == "__main__":
    main()
