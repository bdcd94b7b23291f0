#!/usr/bin/env python3
"""Deterministic work counts of one benchmark pass.

Usage:
    python scripts/opcount.py WORKLOAD

WORKLOAD is a workload of ``perfbench/workloads.py`` (``bundled``,
``poly_sweep`` or ``ks_extension``), built with seed 0.  The script runs the
workload's setup and one warm pass untraced, so that lazy imports are in
place.  It then runs the setup again, as ``perfbench/run.py`` does before
every pass: the setup re-imports afd, so the traced pass starts with afd's
caches (the ``poly_gcd`` memo among them) as empty as a timed pass does.
That pass runs under two tracers: ``sys.setprofile`` counts the Python
function calls and ``sys.settrace`` with ``f_trace_opcodes`` counts the
bytecodes executed.  It prints one JSON line: ``workload``, ``calls``,
``bytecodes`` and ``correct``, which is true when the traced pass verified
every op.  The exit status is 1 when it did not, and 2 when the interpreter
reports no opcode events (CPython 3.12.1 sends none to a ``sys.settrace``
function).

Unlike a timing, the counts do not move with the load of the host, so two
checkouts can be compared from one run each.  They do depend on the Python
version, and a bytecode-traced pass runs some thirty times slower than an
untraced one.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def traced_pass(workload):
    """Run one pass under both tracers; (outcome, calls, bytecodes)."""
    counts = {"call": 0, "opcode": 0}

    def profile(frame, event, arg):
        if event == "call":
            counts["call"] += 1

    def trace(frame, event, arg):
        # f_trace first: CPython 3.13 misses the opcodes of a frame whose
        # f_trace_opcodes is set before its local trace function
        frame.f_trace = step
        frame.f_trace_opcodes = True
        return step

    def step(frame, event, arg):
        if event == "opcode":
            counts["opcode"] += 1
        return step

    sys.setprofile(profile)
    sys.settrace(trace)
    try:
        outcome = workload.run_pass()
    finally:
        sys.settrace(None)
        sys.setprofile(None)
    return outcome, counts["call"], counts["opcode"]


def main(argv=None):
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(PERFBENCH))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload](0)
    workload.setup()
    workload.run_pass()
    workload.setup()  # a cold pass, as every timed pass is
    outcome, calls, bytecodes = traced_pass(workload)
    if not bytecodes:
        # CPython 3.12.1 sends no opcode events to a sys.settrace function
        print(f"opcount: Python {sys.version.split()[0]} reported no"
              " opcode events; run it under another version", file=sys.stderr)
        return 2
    correct = outcome.attempted > 0 and outcome.failed == 0
    print(json.dumps({"workload": args.workload, "calls": calls,
                      "bytecodes": bytecodes, "correct": correct}))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
