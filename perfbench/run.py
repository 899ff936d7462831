"""Benchmark of the tinregions pipeline: one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

With ``--trace 0`` the run sets up, repeats whole rounds of the
workload's operations until ``--seconds`` have passed, checks every
round and prints the end-to-end metrics.  With ``--trace 1`` it makes
the same untraced pass, then repeats as many rounds with every wrapped
program function recorded as a span, and prints the per-layer metrics.
The last line of standard output is the JSON result; raw per-operation
records and spans go to ``perfbench/out/``.  Run it from the root of a
checkout; the program is imported from ``src/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("ts-sweep", "ts-family", "improper-hull", "theorem1")
SETUP_REPEATS = 7
SAMPLE_EVERY_S = 1.0  # probe period inside a running operation
TAIL_BEYOND = 10  # operations beyond the reported tail percentile
TAIL_MIN_OPS = 40


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def setup_in_child(workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import the program, load the
    channel and build the workload's inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--setup-only"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


class Ops:
    """Times each operation, with the reference probe run around it.

    Calling the object runs one operation; a ``RuntimeError`` from the
    program counts the operation failed and is raised again as
    ``OpFailed``.  Failed operations keep their time.  Each record gets
    ``probe_s``: the mean of the probe just before the operation, the
    probes a timer signal takes while it runs (one per ``SAMPLE_EVERY_S``,
    their time left out of the operation's), and the probe just after.
    The host's speed drifts within seconds, so a long operation needs the
    probes from inside it.  ``sample=False`` leaves the timer off.
    """

    def __init__(self, probe, op_failed, tracer=None, sample=True):
        self.records: list[dict] = []
        self._probe = probe
        self._probes: list[float] = []
        self._op_failed = op_failed
        self._tracer = tracer
        self._sample = sample
        self._inside: list[float] | None = None  # samples of the running operation
        self._inside_s = 0.0
        self._round = 0
        self._first = 0
        if sample:
            signal.signal(signal.SIGALRM, self._on_timer)

    def begin_round(self, index: int) -> None:
        self._round, self._first = index, len(self.records)

    def close_round(self) -> None:
        self._probes.append(self._take_probe()[0])
        for rec in self.records[self._first:]:
            i = rec.pop("probe_index")
            around = [self._probes[i], *rec.pop("inside"), self._probes[i + 1]]
            rec["probe_s"] = statistics.fmean(around)

    def _take_probe(self) -> tuple[float, float]:
        t0 = time.perf_counter()
        value = self._probe()
        return value, time.perf_counter() - t0

    def _on_timer(self, signum, frame) -> None:
        if self._inside is not None:
            value, spent = self._take_probe()
            self._inside.append(value)
            self._inside_s += spent

    def __call__(self, key, fn, *args, **kwargs):
        self._probes.append(self._take_probe()[0])
        if self._tracer is not None:
            self._tracer.op = len(self.records)
        rec = {"round": self._round, "op": key, "probe_index": len(self._probes) - 1,
               "error": None}
        self.records.append(rec)
        self._inside, self._inside_s = [], 0.0
        if self._sample:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except RuntimeError as exc:
            rec["error"] = str(exc)
            raise self._op_failed(str(exc)) from exc
        finally:
            if self._sample:
                signal.setitimer(signal.ITIMER_REAL, 0.0)
            rec["seconds"] = time.perf_counter() - start - self._inside_s
            rec["inside"], self._inside = self._inside, None


def timed_phase(wl, inputs, ops: Ops, seconds: float, rounds: int | None):
    """Whole rounds until ``seconds`` have passed (or exactly ``rounds``).
    Returns the number of rounds and the check problems."""
    from perfbench.workloads import OpFailed

    done, problems = 0, []
    start = time.perf_counter()
    while True:
        ops.begin_round(done)
        try:
            out = wl.run_round(inputs, ops)
        except OpFailed:
            out = None
        ops.close_round()
        problems += wl.check(inputs, out)
        del out
        done += 1
        if rounds is not None:
            if done >= rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return done, problems


def central_mean(values):
    """Mean of the values between the 40th and 60th percentile.

    A median that does not jump: operation costs come in clusters with
    gaps between them (cut and box counts are whole numbers), and a plain
    median lands now on one side of a gap, now on the other."""
    v = sorted(values)
    k = int(0.4 * len(v))
    return statistics.fmean(v[k:len(v) - k])


def round_totals(records, rel: bool) -> list[float]:
    """Each round's operation times summed, in seconds or in probes.
    Probes, checks and the glue between operations are left out."""
    totals: dict[int, float] = {}
    for r in records:
        t = r["seconds"] / r["probe_s"] if rel else r["seconds"]
        totals[r["round"]] = totals.get(r["round"], 0.0) + t
    return list(totals.values())


def tail(values):
    """Highest percentile with TAIL_BEYOND values beyond it, or None."""
    n = len(values)
    if n < TAIL_MIN_OPS:
        return None
    q = 1.0 - TAIL_BEYOND / n
    return q, sorted(values)[math.ceil(q * n) - 1]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tinregions" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    # single-threaded BLAS/OpenMP, set before numpy is first imported
    os.environ.update({var: "1" for var in THREAD_VARS})
    sys.path[:0] = [str(SRC), str(ROOT)]

    if args.setup_only:
        t0 = time.perf_counter()
        from perfbench.workloads import WORKLOADS as table

        table[args.workload].setup(args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0

    setup_s = statistics.median(
        setup_in_child(args.workload, args.seed) for _ in range(SETUP_REPEATS)
    )

    from perfbench import spans
    from perfbench.probe import ArrayProbe, probe as python_probe
    from perfbench.workloads import WORKLOADS as table, OpFailed

    wl = table[args.workload]
    probe = ArrayProbe() if wl.probe == "array" else python_probe
    tracer = spans.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    inputs = wl.setup(args.seed)
    load_s = 0.0
    if tracer:
        tracer.uninstall()
        load_s = sum(e - s for n, s, e, *_ in tracer.spans if n == "fileio.load")
        tracer.spans.clear()

    ops = Ops(probe, OpFailed)
    rounds, problems = timed_phase(wl, inputs, ops, args.seconds, None)
    records = ops.records
    if tracer:
        traced = Ops(probe, OpFailed, tracer, sample=False)
        tracer.install()
        try:
            _, more = timed_phase(wl, inputs, traced, 0.0, rounds)
        finally:
            tracer.uninstall()
        problems += more
        records = records + traced.records

    op_s = [r["seconds"] for r in ops.records]
    op_rel = [r["seconds"] / r["probe_s"] for r in ops.records]
    probe_s = statistics.median(r["probe_s"] for r in ops.records)
    failed = [r for r in records if r["error"] is not None]
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    with open(OUT / f"{stem}-ops.json", "w", encoding="utf-8") as fh:
        json.dump({"ops": records}, fh)

    wall_s = statistics.median(round_totals(ops.records, rel=False))
    if tracer:
        tracer.write(OUT / f"{stem}-spans.jsonl")
        values = spans.layer_metrics(tracer.spans, rounds)
        values["fileio.load_s"] = load_s
        # in probes, then back to seconds: the raw difference of two passes
        # is mostly the host's drift between them
        extra = (statistics.median(round_totals(traced.records, rel=True))
                 - statistics.median(round_totals(ops.records, rel=True)))
        values["trace.overhead_s"] = extra * probe_s
    else:
        values = {
            "setup_s": setup_s,
            "wall_rel": statistics.median(round_totals(ops.records, rel=True)),
            "op_rel_mid": central_mean(op_rel),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    units = {m["name"]: m["unit"] for m in _declared_metrics(args.trace)}
    if set(units) != set(values):
        raise RuntimeError(f"metrics {sorted(values)} differ from BENCHMARK.json {sorted(units)}")

    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{len(op_s)} operations, {len(failed)} failed of {len(records)} attempted")
    for name in sorted({r["op"] for r in failed}):
        print(f"  failed: {name}: {next(r['error'] for r in failed if r['op'] == name)}")
    print(f"reference probe median {probe_s * 1e3:.4f} ms")
    print(f"wall_s = {wall_s:.6g} s, op_s_p50 = {statistics.median(op_s):.6g} s, "
          f"op_rel_p50 = {statistics.median(op_rel):.6g} probe (not gated)")
    t = tail(op_s)
    if t is not None:
        print(f"op_s_tail p{100 * t[0]:.1f} = {t[1]:.6g} s over {len(op_s)} operations")
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)
    for name, value in values.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


def _declared_metrics(trace: int):
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


if __name__ == "__main__":
    sys.exit(main())
