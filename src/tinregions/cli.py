"""Command-line interface.

Three subcommands over a JSON channel file:

* ``region``  sweep one boundary construction over rate profiles and
  write a CSV (columns ``method,beta,r1,r2,R,status``);
* ``solve``   one time-sharing boundary point with the recovered
  strategy mixture, as a JSON document;
* ``verify``  run the verification suites and report pass/fail.

Exit codes: 0 success, 2 unusable input (including budgets, ``--beta``
and ``--eps-cp`` values the library rejects, ``--trials`` or ``--betas``
below 1, and ``--betas`` below 2 for the theorem1 suite), 3 solver
non-convergence (partial output is still written, flagged in the
status column).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from .fileio import ChannelFileError, format_float, load_channel
from .model import PowerBudget, RateProfile
from .outer import OuterConfig, ts_point
from .regions import (
    LEMMA1_BOUND_TOL,
    LEMMA1_EQUALITY_TOL,
    RegionConfig,
    SamplingConfig,
    SWEEP_METHODS,
    lemma1_check,
    pareto_staircase,
    pure_improper_samples,
    sweep_boundary,
    theorem1_check,
)

REGION_METHODS = SWEEP_METHODS + ("pure-improper-samples",)
VERIFY_SUITES = ("lemma1", "theorem1", "duality", "nesting", "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tinregions",
        description="Rate regions of the two-user Gaussian interference channel "
        "with interference treated as noise.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--channel", required=True, help="JSON channel file")
        p.add_argument("--p1", type=float, default=10.0, help="power budget of user 1")
        p.add_argument("--p2", type=float, default=10.0, help="power budget of user 2")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--eps-cp", type=float, default=1e-4, dest="eps_cp")

    p_region = sub.add_parser("region", help="sweep a rate-region boundary")
    common(p_region)
    p_region.add_argument("--method", required=True, choices=REGION_METHODS)
    p_region.add_argument("--betas", type=int, default=101, help="profile grid size")
    p_region.add_argument("--beta", type=float, default=None, help="single profile value")
    p_region.add_argument("--out", required=True, help="output CSV path")

    p_solve = sub.add_parser("solve", help="one time-sharing boundary point")
    common(p_solve)
    p_solve.add_argument("--beta", type=float, required=True)
    p_solve.add_argument("--out", default=None, help="output JSON path (default stdout)")

    p_verify = sub.add_parser("verify", help="run verification suites")
    common(p_verify)
    p_verify.add_argument("--suite", required=True, choices=VERIFY_SUITES)
    p_verify.add_argument("--trials", type=int, default=1000)
    p_verify.add_argument("--betas", type=int, default=101, help="profile grid size")
    return parser


def _inputs(args) -> tuple[PowerBudget, RegionConfig]:
    """The budget and configuration the flags describe; ``ValueError``
    names a flag value the library rejects, or a count below 1 (below 2
    for the theorem1 boundary)."""
    for flag in ("trials", "betas"):
        if getattr(args, flag, 1) < 1:
            raise ValueError(f"--{flag} must be >= 1")
    if getattr(args, "suite", None) in ("theorem1", "all") and args.betas < 2:
        raise ValueError("--betas must be >= 2 for the theorem1 suite")
    if getattr(args, "beta", None) is not None:
        RateProfile(args.beta)  # ValueError outside [0, 1], NaN included
    budget = PowerBudget(args.p1, args.p2)
    cfg = RegionConfig(
        outer=OuterConfig(epsilon_cp=args.eps_cp),
        sampling=SamplingConfig(seed=args.seed),
    )
    return budget, cfg


def _write_rows(path: str, rows: list[tuple]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("method,beta,r1,r2,R,status\n")
        for method, beta, r1, r2, R, status in rows:
            beta_s = format_float(beta) if beta is not None else ""
            R_s = format_float(R) if R is not None else ""
            fh.write(
                f"{method},{beta_s},{format_float(r1)},{format_float(r2)},{R_s},{status}\n"
            )


def cmd_region(args, budget: PowerBudget, cfg: RegionConfig) -> int:
    ch = load_channel(args.channel)
    rows: list[tuple] = []
    exit_code = 0
    if args.method == "pure-improper-samples":
        samples = pure_improper_samples(ch, budget, cfg.sampling)
        for r1, r2 in pareto_staircase(samples):
            rows.append((args.method, None, r1, r2, None, "ok"))
    else:
        if args.beta is not None:
            betas = [args.beta]
        else:
            betas = np.linspace(0.0, 1.0, args.betas) if args.betas > 1 else [0.0]
        boundary = sweep_boundary(args.method, ch, budget, betas, cfg)
        for e in boundary.entries:
            rows.append((args.method, e.beta, e.rates.r1, e.rates.r2, e.R, e.status))
            if e.status != "ok":
                exit_code = 3
    _write_rows(args.out, rows)
    return exit_code


def cmd_solve(args, budget: PowerBudget, cfg: RegionConfig) -> int:
    ch = load_channel(args.channel)
    solution, cp = ts_point(ch, budget, RateProfile(args.beta), cfg.outer)
    doc = {
        "R": solution.R,
        "beta": args.beta,
        "mu": [cp.dual.mu1, cp.dual.mu2],
        "lambda": [cp.dual.lambda1, cp.dual.lambda2],
        "cuts": len(cp.cuts),
        "status": cp.status,
        "strategies": [
            {"tau": t, "p1": p[0], "p2": p[1], "r1": r.r1, "r2": r.r2}
            for t, p, r in solution.strategies
        ],
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0 if cp.converged else 3


def _run_verify_suite(suite: str, args, ch, budget, cfg) -> tuple[bool, str]:
    start = time.perf_counter()
    if suite == "lemma1":
        report = lemma1_check(ch, cfg, trials=args.trials)
        ok = report.passed
        detail = (
            f"bound violation {report.max_bound_violation:.3e} (tol {LEMMA1_BOUND_TOL:.0e}), "
            f"alignment gap {report.max_alignment_gap:.3e} (tol {LEMMA1_EQUALITY_TOL:.0e}), "
            f"channel mismatch {report.max_enhanced_mismatch:.3e}"
        )
    elif suite == "theorem1":
        report = theorem1_check(ch, budget, cfg, trials=args.trials, beta_grid=args.betas)
        ok = report.passed
        detail = (
            f"max containment violation {report.max_violation:.3e} "
            f"(tol {report.tolerance:.0e}), {report.failures} failures"
        )
    elif suite == "duality":
        betas = np.linspace(0.0, 1.0, args.betas)
        boundary = sweep_boundary("ts-proper", ch, budget, betas, cfg)
        gaps = [abs(e.R - e.dual_bound) for e in boundary.entries]
        tol = 2.0 * cfg.outer.epsilon_cp
        bad = [e for e, g in zip(boundary.entries, gaps) if g > tol or e.status != "ok"]
        ok = not bad
        detail = f"max |R - dual bound| {max(gaps):.3e} over {len(gaps)} profiles (tol {tol:.0e})"
    elif suite == "nesting":
        betas = np.linspace(0.0, 1.0, args.betas)
        pure = sweep_boundary("pure-proper", ch, budget, betas, cfg)
        hull = sweep_boundary("hull-proper", ch, budget, betas, cfg)
        ts = sweep_boundary("ts-proper", ch, budget, betas, cfg)
        slack1 = min(h.R - p.R for h, p in zip(hull.entries, pure.entries))
        slack2 = min(t.R - h.R for t, h in zip(ts.entries, hull.entries))
        ok = slack1 >= -1e-6 and slack2 >= -1e-6
        detail = f"min hull-pure slack {slack1:.3e}, min ts-hull slack {slack2:.3e} (>= -1e-6)"
    else:
        raise ValueError(suite)
    elapsed = time.perf_counter() - start
    line = f"{'PASS' if ok else 'FAIL'} {suite}: {detail} [{elapsed:.1f}s]"
    return ok, line


def cmd_verify(args, budget: PowerBudget, cfg: RegionConfig) -> int:
    ch = load_channel(args.channel)
    suites = ["lemma1", "theorem1", "duality", "nesting"] if args.suite == "all" else [args.suite]
    all_ok = True
    for suite in suites:
        ok, line = _run_verify_suite(suite, args, ch, budget, cfg)
        print(line)
        all_ok = all_ok and ok
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        budget, cfg = _inputs(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    commands = {"region": cmd_region, "solve": cmd_solve, "verify": cmd_verify}
    try:
        return commands[args.command](args, budget, cfg)
    except ChannelFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
