"""Compute and plot the achievable-rate-region boundaries of the bundled
two-user interference channel.

Traces four boundaries at SNR 10 dB (P1 = P2 = 10, unit noise):

* pure proper strategies (one user at full power, balanced on that edge),
* the convex hull of the pure proper boundary,
* coded time-sharing with proper signals (cutting-plane solver),
* the convex hull of sampled improper strategies.

Writes one CSV per boundary next to this script and, when matplotlib is
importable, an overview plot ``rate_regions.png``.  The time-sharing
curve dominating the improper hull is the headline effect: averaging
powers and rates across at most four proper strategies beats every
sampled improper strategy mixture that respects per-slot power caps.
"""

import pathlib
import time

import numpy as np

from tinregions import (
    PowerBudget,
    RegionConfig,
    SamplingConfig,
    example_channel,
    sweep_boundary,
)

HERE = pathlib.Path(__file__).parent
BETAS = np.linspace(0.0, 1.0, 41)


def write_csv(path, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("beta,r1,r2,R\n")
        for beta, r1, r2, R in rows:
            fh.write(f"{beta:.6f},{r1:.12g},{r2:.12g},{R:.12g}\n")


def main():
    ch = example_channel()
    budget = PowerBudget(10.0, 10.0)
    curves = {}
    cfg = RegionConfig(
        sampling=SamplingConfig(power_grid=31, fraction_grid=13, phase_grid=16, random_count=50_000)
    )

    for method in ("pure-proper", "hull-proper", "ts-proper", "hull-improper"):
        t0 = time.perf_counter()
        boundary = sweep_boundary(method, ch, budget, BETAS, cfg)
        rows = [(e.beta, e.rates.r1, e.rates.r2, e.R) for e in boundary.entries]
        curves[method] = np.array([[r[1], r[2]] for r in rows])
        write_csv(HERE / f"{method}.csv", rows)
        print(f"{method:13s}: {len(rows)} profiles in {time.perf_counter() - t0:.1f}s")

    mid = len(BETAS) // 2
    print("\nbalanced rates at the symmetric profile:")
    for method, pts in curves.items():
        print(f"  {method:13s} r1 = r2 ~ {pts[mid].mean():.4f} bits")

    try:
        import matplotlib

        matplotlib.use("Agg")
        import matplotlib.pyplot as plt
    except ImportError:
        print("matplotlib not available; skipping the plot")
        return

    fig, ax = plt.subplots(figsize=(6.4, 5.2))
    styles = {
        "pure-proper": ("solid", "black"),
        "hull-proper": ("dashed", "black"),
        "ts-proper": ("dashdot", "tab:blue"),
        "hull-improper": ("dotted", "tab:red"),
    }
    for method, pts in curves.items():
        ls, color = styles[method]
        ax.plot(pts[:, 0], pts[:, 1], linestyle=ls, color=color, label=method)
    ax.set_xlabel("rate of user 1 (bits per channel use)")
    ax.set_ylabel("rate of user 2 (bits per channel use)")
    ax.set_title("TIN rate regions, P1 = P2 = 10, unit noise")
    ax.grid(True, alpha=0.4)
    ax.legend()
    fig.tight_layout()
    fig.savefig(HERE / "rate_regions.png", dpi=150)
    print(f"\nwrote {HERE / 'rate_regions.png'}")


if __name__ == "__main__":
    main()
