"""Walk through the inner solvers on one dual point.

The cutting-plane outer loop repeatedly needs the global maximum of

    f(p) = mu1*r1(p) + mu2*r2(p) - lambda1*p1 - lambda2*p2

over all nonnegative powers.  f is nonconcave (each user's rate is
degraded by the other's power), and because the power constraints are
dualized there is no box to search a priori.  This script shows the
stationary-point oracle the loop uses (origin, axis peaks and the
interior stationary points from a degree-9 resultant) next to the
reference branch and bound: its certified initial box from the
interference-free envelope, the monotonic box bounds, and the box
refinement, both cross-checked against a brute-force grid.
"""

import time

import numpy as np

from tinregions import (
    Box,
    DualPoint,
    bnb_solve,
    box_bounds,
    example_channel,
    init_box,
    inner_objective,
    proper_rates,
    stationary_solve,
)


def main():
    ch = example_channel()
    dual = DualPoint(mu1=1.0, mu2=1.3, lambda1=0.08, lambda2=0.2)
    print(f"dual point: mu = ({dual.mu1}, {dual.mu2}), lambda = ({dual.lambda1}, {dual.lambda2})")

    box, capped = init_box(ch, dual)
    print(f"\ninitial box certified to contain the maximizer: [0, {box.b[0]:.3f}] x [0, {box.b[1]:.3f}]")
    assert not capped

    u, a = box_bounds(ch, dual, box)
    print(f"utopia bound U = {u:.4f}, achieved value at the bottom corner A = {a:.4f}")

    t0 = time.perf_counter()
    res = bnb_solve(ch, dual)
    dt = time.perf_counter() - t0
    print(f"\nbranch and bound: p* = ({res.p[0]:.6f}, {res.p[1]:.6f})")
    print(f"  value {res.value:.9f}, certified gap {res.gap:.2e}, "
          f"{res.iterations} boxes in {dt * 1e3:.1f} ms")

    t0 = time.perf_counter()
    sta = stationary_solve(ch, dual)
    dt = time.perf_counter() - t0
    print(f"stationary points: p* = ({sta.p[0]:.6f}, {sta.p[1]:.6f})")
    print(f"  value {sta.value:.9f}, {sta.iterations} candidates in {dt * 1e3:.1f} ms, "
          f"{sta.value - res.value:+.2e} against branch and bound")

    # brute-force cross-check on a fine grid over the certified box
    step = 0.01
    p1 = np.arange(0.0, box.b[0] + step, step)
    p2 = np.arange(0.0, box.b[1] + step, step)
    best = -np.inf
    arg = (0.0, 0.0)
    for i in range(0, len(p1), 512):
        blk = p1[i : i + 512][:, None]
        r1, r2 = proper_rates(ch, blk, p2[None, :])
        f = dual.mu1 * r1 + dual.mu2 * r2 - dual.lambda1 * blk - dual.lambda2 * p2[None, :]
        j = np.unravel_index(np.argmax(f), f.shape)
        if f[j] > best:
            best = float(f[j])
            arg = (float(blk[j[0], 0]), float(p2[j[1]]))
    print(f"\ngrid search (step {step}): best {best:.9f} at ({arg[0]:.2f}, {arg[1]:.2f})")
    print(f"difference vs certified value: {abs(best - res.value):.2e}, "
          f"vs stationary value: {abs(best - sta.value):.2e}")

    # the bounds really do sandwich f everywhere
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(1000):
        p = rng.uniform(0.0, box.b[0]), rng.uniform(0.0, box.b[1])
        sub = Box((0.0, 0.0), p)
        u_sub, a_sub = box_bounds(ch, dual, sub)
        f_p = inner_objective(ch, dual, p)
        worst = max(worst, a_sub - u_sub, f_p - u_sub)
    print(f"\nbound sandwich check over 1000 random sub-boxes: max violation {worst:.2e}")


if __name__ == "__main__":
    main()
