#!/usr/bin/env python3
"""Solve benchmark for ``delta-ilp solve``.

Run from the repository root:

    python3 perfbench/run.py --workload desk-mix --seed 1 --seconds 12 --trace 0

Each run generates one round of instances from ``--seed``, writes them as
instance files, and solves whole rounds in-process through
``deltailp.cli.main(["solve", FILE, ...])``: at least ``MIN_ROUNDS``, and
until ``--seconds`` have passed.  Each instance is timed by its best round.
Every answer is checked against ``checks.reference``.  The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``,
the end-to-end metrics with ``--trace 0`` and the per-module metrics of
``layers`` with ``--trace 1``.  See README.md for the workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
MIN_ROUNDS = 3
# Timing metrics are scaled to the speed at which the speed-probe kernel
# takes KERNEL_REF_S; the kernel runs between solves, at most every
# KERNEL_EVERY_S.  On a shared 2-vCPU VM the speed drifted by up to 2x
# within minutes, and the ratio of solve time to kernel time stayed steady
# while it did.
KERNEL_REF_S = 0.001
KERNEL_EVERY_S = 0.05

import checks  # noqa: E402
import families  # noqa: E402
from layers import Tracer  # noqa: E402

WORKLOADS = {
    "desk-mix": lambda seed: families.desk_mix(seed, 500),
    "knapsack-dp": lambda seed: families.embed_knapsacks(
        families.knapsacks(seed, "knapsack-dp", count=24, n=10, wmax=20, umax=1), ()
    ),
    "lp-wide": lambda seed: families.embed_knapsacks(
        families.knapsacks(seed, "lp-wide", count=24, n=35, wmax=5, umax=50),
        ("--variant", "queue"),
    ),
    "unbounded": families.unbounded_round,
}


def kernel() -> float:
    """Seconds for a fixed piece of solver-like work, measured as a speed
    probe: tuple-keyed dict updates with pair comparisons, and a Fraction
    sum."""
    t0 = time.perf_counter()
    layer: dict = {}
    for i in range(1000):
        key = (i % 97, (i * 7) % 13, i & 3)
        cand = (i % 11, i % 5)
        if key not in layer or cand < layer[key]:
            layer[key] = cand
    total = Fraction(0)
    for i in range(1, 70):
        total += Fraction(i, i + 1)
    return time.perf_counter() - t0


def set_up(workload: str, seed: int, work: Path) -> tuple[float, list, list[str]]:
    """Import the package in a fresh interpreter, generate one round of
    cases and write their instance files into ``work``; returns (seconds,
    cases, paths)."""
    t0 = time.perf_counter()
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, "-c", "import deltailp.cli"], env=env, check=True)
    cases = WORKLOADS[workload](seed)
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    paths = []
    for i, case in enumerate(cases):
        path = work / f"{i:05d}.json"
        path.write_text(json.dumps(case.data) + "\n", encoding="utf-8")
        paths.append(str(path))
    return time.perf_counter() - t0, cases, paths


def solve_rounds(jobs: list[list[str]], stop, rounds: int | None = None, min_rounds: int = 1):
    """Solve whole rounds of ``jobs``; stop once at least ``min_rounds`` are
    done and ``stop(elapsed)`` holds, or after ``rounds`` rounds.  Returns
    (results, wall seconds, scales), one result (job index, seconds, exit
    code, stdout) per solve, in job order round after round, and per round
    the factor KERNEL_REF_S / mean kernel time that scales its solve times
    to the reference speed."""
    import deltailp.cli as cli

    results = []
    scales = []
    start = time.perf_counter()
    while True:
        probes = [kernel()]
        last = time.perf_counter()
        for i, argv in enumerate(jobs):
            buf = io.StringIO()
            t0 = time.perf_counter()
            try:
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
            except (Exception, SystemExit) as exc:  # a solve that raises is a failed operation
                code = f"raised {type(exc).__name__}: {exc}"
            results.append((i, time.perf_counter() - t0, code, buf.getvalue()))
            if time.perf_counter() - last >= KERNEL_EVERY_S:
                probes.append(kernel())
                last = time.perf_counter()
        scales.append(KERNEL_REF_S * len(probes) / sum(probes))
        done = len(scales)
        elapsed = time.perf_counter() - start
        if done >= rounds if rounds is not None else done >= min_rounds and stop(elapsed):
            return results, elapsed, scales


def judge(cases, refs, results) -> tuple[int, int]:
    """(errors, wrong): solves that raised or exited with a code other than
    0, 2 or 3, and solves whose answer the check rejects.  Prints each."""
    errors = wrong = 0
    for i, _dt, code, text in results:
        if code not in (0, 2, 3):
            errors += 1
            reason = code if isinstance(code, str) else f"exit code {code}"
        else:
            reason = checks.check(cases[i], refs[i], code, text)
            wrong += reason is not None
        if reason is not None:
            print(f"case {i} ({cases[i].kind}): {reason}", file=sys.stderr)
    return errors, wrong


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "deltailp").is_dir():
        print(f"no deltailp package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import deltailp.cli  # noqa: F401  (once here, so set-up times only the fresh interpreter's import)

    work = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    try:
        setups, probes = [], []
        for _ in range(SETUP_REPEATS):
            secs, cases, paths = set_up(args.workload, args.seed, work)
            setups.append(secs)
            probes += [kernel() for _ in range(20)]
        setup_scale = KERNEL_REF_S * len(probes) / sum(probes)
        refs = [checks.reference(c) for c in cases]
        jobs = [["solve", path, *case.flags] for path, case in zip(paths, cases)]
        gc.collect()
        gc.freeze()  # the collector need not rescan the benchmark's own objects

        if args.trace:
            results, plain_s, plain_scales = solve_rounds(jobs, lambda t: t >= args.seconds / 2)
            rounds = len(plain_scales)
            tracer = Tracer()
            tracer.install()
            try:
                traced, traced_s, traced_scales = solve_rounds(jobs, None, rounds)
            finally:
                tracer.remove()
            results += traced
            metrics = tracer.metrics(rounds)
            overhead = traced_s * statistics.mean(traced_scales) - plain_s * statistics.mean(plain_scales)
            metrics["trace.overhead_s"] = (overhead / rounds, "s")
            metrics["trace.round_s"] = (plain_s / rounds, "s")
        else:
            results, _wall, scales = solve_rounds(
                jobs, lambda t: t >= args.seconds, min_rounds=MIN_ROUNDS
            )
            n = len(jobs)
            raw = [min(r[1] for r in results[j::n]) for j in range(n)]
            best = [
                min(results[j + n * r][1] * scale for r, scale in enumerate(scales))
                for j in range(n)
            ]
            print(
                f"unscaled: solves_per_s {n / sum(raw):.4g}, solve_p50_ms "
                f"{1000 * statistics.median(raw):.4g}, setup_s {statistics.median(setups):.4g}; "
                f"speed scale {statistics.median(scales):.3f}",
                file=sys.stderr,
            )
            metrics = {
                "solves_per_s": (n / sum(best), "1/s"),
                "solve_p50_ms": (1000 * statistics.median(best), "ms"),
                "solve_p90_ms": (1000 * statistics.quantiles(best, n=10)[8], "ms"),
                "setup_s": (statistics.median(setups) * setup_scale, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            }
        errors, wrong = judge(cases, refs, results)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(results),
        "failed": errors + wrong,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
