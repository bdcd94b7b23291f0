#!/usr/bin/env python3
"""Before/after benchmark numbers from alternating runs of two checkouts.

Usage:
    python scripts/bench_pairs.py BEFORE AFTER --out BENCH_<n>.json
        [--workload NAME ...] [--pairs N] [--seconds S] [--seed K]

BEFORE and AFTER are checkout directories, for example a clone of the
parent commit and the working tree.  For each workload the script runs
``perfbench/run.py`` of each checkout ``--pairs`` times, one pair after
another, and alternates which side runs first.  Both runs of pair ``i`` use
seed ``K + i``.  Workloads, metric directions and the default run length
come from AFTER's ``BENCHMARK.json``.

The JSON written to ``--out`` holds every run's metrics, each side's median
and quartiles per metric, and for every end-to-end metric the pairs the
AFTER side won, lost and tied, the relative change of the medians and the
BEFORE side's quartile distance.  Each side is identified by the line count
and a SHA-256 of its ``src/afd`` sources.  The exit status is 1 when a run
crashed or failed its verification, after the file is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

SIDES = ("before", "after")


def identify(checkout):
    """Line count and SHA-256 of a checkout's ``src/afd`` sources."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((checkout / "src" / "afd").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += len(data.decode("utf-8").splitlines())
    return {"afd_lines": lines, "afd_sha256": digest.hexdigest()}


def run_once(checkout, workload, seconds, seed):
    """One perfbench run; its result object plus the context line."""
    child = subprocess.run(
        [sys.executable, str(checkout / "perfbench" / "run.py"),
         "--workload", workload, "--seconds", str(seconds),
         "--seed", str(seed)],
        stdout=subprocess.PIPE, text=True, check=False)
    lines = child.stdout.splitlines()
    context = next((json.loads(line[len("context "):]) for line in lines
                    if line.startswith("context ")), None)
    if child.returncode != 0 or not lines:
        return None, context
    try:
        return json.loads(lines[-1]), context
    except json.JSONDecodeError:
        return None, context


def spread(values):
    """Median and quartiles of a sample."""
    q1, _, q3 = quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def summarize(runs, end_to_end):
    by_side = {side: [r for r in runs if r["side"] == side] for side in SIDES}
    names = sorted({name for r in runs for name in r["metrics"]})
    out = {}
    for name in names:
        values = {side: [r["metrics"][name] for r in by_side[side]
                         if name in r["metrics"]] for side in SIDES}
        if not all(values.values()):
            continue
        entry = {side: spread(values[side]) for side in SIDES}
        spec = end_to_end.get(name)
        if spec is not None:
            sign = -1 if spec["better"] == "lower" else 1
            wins = losses = ties = 0
            for pair in sorted({r["pair"] for r in runs}):
                got = {r["side"]: r["metrics"].get(name) for r in runs
                       if r["pair"] == pair}
                if None in (got.get("before"), got.get("after")):
                    continue
                delta = sign * (got["after"] - got["before"])
                wins += delta > 0
                losses += delta < 0
                ties += delta == 0
            before, after = entry["before"]["median"], entry["after"]["median"]
            entry.update({
                "unit": spec["unit"], "better": spec["better"],
                "bound": spec["bound"], "wins": wins, "losses": losses,
                "ties": ties,
                "median_change": (after - before) / before if before else None,
                "before_iqr": entry["before"]["q3"] - entry["before"]["q1"],
            })
        out[name] = entry
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("before", type=Path)
    parser.add_argument("after", type=Path)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workload", action="append")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    checkouts = {"before": args.before.resolve(),
                 "after": args.after.resolve()}
    for side, checkout in checkouts.items():
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{side}: no perfbench/run.py under {checkout}")
    spec = json.loads((checkouts["after"] / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    end_to_end = {m["name"]: m for m in spec["end_to_end"]}

    ok = True
    result = {
        "pairs": args.pairs, "seconds": seconds, "seed": args.seed,
        "sides": {side: identify(path) for side, path in checkouts.items()},
        "workloads": {},
    }
    for workload in workloads:
        runs = []
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                outcome, context = run_once(checkouts[side], workload,
                                            seconds, args.seed + pair)
                run = {"pair": pair, "side": side, "position": position,
                       "context": context, "metrics": {}}
                if outcome is None:
                    ok = False
                    run["crashed"] = True
                else:
                    ok = ok and outcome["correct"]
                    run.update(
                        correct=outcome["correct"],
                        attempted=outcome["attempted"],
                        failed=outcome["failed"],
                        metrics={name: m["value"] for name, m
                                 in outcome["metrics"].items()})
                runs.append(run)
                print(f"{workload} pair {pair} {side}: "
                      + json.dumps(run["metrics"], sort_keys=True),
                      file=sys.stderr)
        result["workloads"][workload] = {
            "runs": runs, "metrics": summarize(runs, end_to_end)}
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
