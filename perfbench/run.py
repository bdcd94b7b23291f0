#!/usr/bin/env python3
"""Benchmark for afd: end-to-end metrics, or per-layer metrics when traced.

Usage:
    python3 perfbench/run.py [--workload bundled|poly_sweep|ks_extension|all]
                             [--seed N] [--seconds S] [--trace 0|1]

With ``--trace 0`` a run repeats "set up, then one pass over every op" for
``--seconds`` and reports the end-to-end metrics of BENCHMARK.json.  With
``--trace 1`` it runs untraced passes for half the time and traced passes for
the other half, and reports the per-layer metrics, per pass, plus the
tracing overhead.

``wall_s`` and ``setup_s`` are medians over the run's passes and setups
(three setups before each pass), each timing scaled to a host of fixed
speed.  On a shared 2-vCPU machine, load from other tenants slows the CPU
by up to 70 % for minutes, longer than a run, and moves every timing of a
run together: over ten 40 s runs, the quartile distance over median of the
unscaled median pass reached 23-28 % on every workload, and 2-12 % scaled.
So the run times a fixed pure-Python kernel, which runs no afd code, before
the first pass and after each pass, for a tenth of the pass's time, and
scales the pass and the setups before it by ``REFERENCE_S`` over the mean
of the kernel's median times just before and after the pass.  The
quartiles of the unscaled pass and setup times and of the kernel times are
printed beside the result, ungated.

Every op is verified; failures are counted, not raised.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--workload all`` runs every workload in its own process.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from statistics import median, quantiles
from time import perf_counter

from workloads import ROOT, SRC, WORKLOADS, PassOutcome, engine_sources_present


def timed(action):
    gc.collect()
    start = perf_counter()
    result = action()
    return perf_counter() - start, result


# Timed setups before each pass.  Passes of poly_sweep and ks_extension
# take 4-6 s, so one setup per pass would leave under ten setup samples in
# a 40 s run.
SETUPS_PER_PASS = 3

# Median time of ``reference_kernel`` on an idle host (Xeon, 2 vCPU,
# CPython 3.11.7), so scaled timings read close to seconds on that host.
REFERENCE_S = 0.0070
REFERENCE_SHARE = 0.1   # kernel time after each pass, as a share of the pass
REFERENCE_MIN_SAMPLES = 3


def reference_kernel():
    """Product of two sparse polynomials held as dicts of exponent tuples
    with Fraction coefficients: the interpreter, dict and Fraction work of
    afd's polynomial arithmetic, without afd code, so that afd changes do not
    move it."""
    terms = {(i, j, k): Fraction(3 * i - j + 1, 2 * k + j + 1)
             for i in range(4) for j in range(4) for k in range(3)}
    product = {}
    for (a, b, c), x in terms.items():
        for (d, e, f), y in terms.items():
            key = (a + d, b + e, c + f)
            product[key] = product.get(key, 0) + x * y
    return product


def reference_time(budget):
    """Median kernel time over ``budget`` seconds of runs, and at least
    ``REFERENCE_MIN_SAMPLES`` of them."""
    times = []
    end = perf_counter() + budget
    while len(times) < REFERENCE_MIN_SAMPLES or perf_counter() < end:
        start = perf_counter()
        reference_kernel()
        times.append(perf_counter() - start)
    return median(times)


@dataclass
class Round:
    setup_times: list
    pass_time: float
    kernel_time: float   # mean of the kernel medians just before and after

    @property
    def scale(self):
        return REFERENCE_S / self.kernel_time


def measure(setup, run_pass, seconds, outcome):
    """Alternate timed setups, a timed pass and a kernel timing until the
    next round would end after ``seconds``; at least one round.  Setting up
    afresh before each pass samples setup across the same stretch of time as
    the passes, and no object survives from one pass into the next."""
    rounds = []
    deadline = perf_counter() + seconds
    before = reference_time(0)
    while True:
        setup_times = [timed(setup)[0] for _ in range(SETUPS_PER_PASS)]
        elapsed, result = timed(run_pass)
        outcome.add(result)
        after = reference_time(REFERENCE_SHARE * elapsed)
        rounds.append(Round(setup_times, elapsed, (before + after) / 2))
        before = after
        upcoming = (SETUPS_PER_PASS * median(setup_times)
                    + (1 + REFERENCE_SHARE) * median(r.pass_time
                                                     for r in rounds))
        if perf_counter() + upcoming > deadline:
            return rounds


def quartiles(samples):
    """Sample count, then minimum, quartiles and maximum."""
    inner = quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return [len(samples), *(round(x, 6) for x in (
        min(samples), *inner, max(samples)))]


def end_to_end(workload, seconds, outcome):
    rounds = measure(workload.setup, workload.run_pass, seconds, outcome)
    setup_times = [t for r in rounds for t in r.setup_times]
    pass_times = [r.pass_time for r in rounds]
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (median(t * r.scale for r in rounds
                           for t in r.setup_times), "s"),
        "wall_s": (median(r.pass_time * r.scale for r in rounds), "s"),
        "peak_rss_mb": (peak_kib / 1024, "MB"),
        "ok_ratio": (1 - outcome.failed / outcome.attempted, "ratio"),
    }, {"pass_s": quartiles(pass_times), "setup_s": quartiles(setup_times),
        "kernel_s": quartiles([r.kernel_time for r in rounds])}


def per_layer(workload, seconds, outcome):
    from tracing import Tracer

    tracer = Tracer()

    def traced_pass():
        # Setup re-imports afd, so the wrappers go in after it, each pass.
        tracer.install()
        try:
            return workload.run_pass()
        finally:
            tracer.uninstall()

    untraced = [r.pass_time for r in measure(
        workload.setup, workload.run_pass, seconds / 2, outcome)]
    traced_outcome = PassOutcome()
    traced = [r.pass_time for r in measure(
        workload.setup, traced_pass, seconds / 2, traced_outcome)]
    outcome.add(traced_outcome)
    metrics = tracer.summary(len(traced))
    metrics["report.check_errors"] = (traced_outcome.errors / len(traced),
                                      "count")
    metrics["trace.overhead_s"] = (median(traced) - median(untraced), "s")
    metrics["trace.spans"] = (len(tracer.log) / len(traced), "count")
    return metrics, {"untraced_pass_s": quartiles(untraced),
                     "traced_pass_s": quartiles(traced)}


def afd_line_count():
    return sum(len(path.read_text(encoding="utf-8").splitlines())
               for path in sorted((SRC / "afd").glob("*.py")))


def run_one(args):
    workload = WORKLOADS[args.workload](args.seed)
    outcome = PassOutcome()
    measured = per_layer if args.trace else end_to_end
    metrics, samples = measured(workload, args.seconds, outcome)
    context = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "afd_lines": afd_line_count(),
        **samples,
    }
    print("context " + json.dumps(context, sort_keys=True))
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name} = {value:.6g} {unit}")
    return {
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }


def run_all(args):
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.splitlines()
        if child.returncode != 0 or not lines:
            print(f"workload {name} exited with {child.returncode}",
                  file=sys.stderr)
            return None
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, entry in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"),
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not __debug__:
        print("perfbench: the sweep verifies with assert; run without -O",
              file=sys.stderr)
        return 2
    if not engine_sources_present():
        print(f"perfbench: no afd sources under {ROOT}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_one(args)
    if result is None:
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
