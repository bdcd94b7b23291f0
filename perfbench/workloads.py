"""The benchmark's workloads: inputs, one timed pass, and its verification.

Every workload runs in one process with one closed-loop client: ops run one
after another, with no threads.  ``setup`` imports afd afresh and loads and
validates every input once; ``run_pass`` runs every op once, from inputs
that share no object with setup or an earlier pass, and returns a
``PassOutcome``.  The seed only orders or generates inputs.
"""

from __future__ import annotations

import importlib
import json
import random
import sys
import traceback
import typing
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRIPTS = ROOT / "scripts"
MANIFESTS = ROOT / "manifests"

# Modules dropped from ``sys.modules`` before each setup so that every setup
# pays for the import again; ``identity_sweep`` pulls in ``helpers``.
_FRESH = ("identity_sweep", "helpers")


def engine_sources_present():
    """Whether the checkout holds what the workloads import and read."""
    return all(path.exists() for path in (
        SRC / "afd" / "__init__.py", SCRIPTS / "identity_sweep.py",
        ROOT / "tests" / "helpers.py", MANIFESTS / "golden"))


def fresh_import(name):
    for loaded in list(sys.modules):
        if loaded == "afd" or loaded.startswith("afd.") or loaded in _FRESH:
            del sys.modules[loaded]
    # typing caches ``Union[...]`` of the afd classes, which would keep every
    # earlier copy of the modules alive and make RSS grow with each setup.
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    for path in (SCRIPTS, SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    return importlib.import_module(name)


@dataclass
class PassOutcome:
    attempted: int = 0
    failed: int = 0
    errors: int = 0    # ops that raised or returned an error result

    def add(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors


def _report_traceback(what):
    print(f"{what}:\n{traceback.format_exc()}", file=sys.stderr)


class ManifestWorkload:
    """``afd check`` over manifests, each report compared byte for byte with
    its reference.  An op is one manifest check."""

    def __init__(self, cases):
        self.cases = cases      # [(manifest path, reference report path)]

    def setup(self):
        self.manifest = fresh_import("afd.manifest")
        self.report = importlib.import_module("afd.report")
        self.inputs = []
        for path, reference_path in self.cases:
            self.manifest.load_manifest(path)
            reference = reference_path.read_text(encoding="utf-8")
            expected = json.loads(reference)["results"]
            if any(r["status"] in ("fail", "error") for r in expected):
                raise ValueError(f"{reference_path.name} records a failing"
                                 " check, so it cannot serve as a reference")
            self.inputs.append((path, reference, expected))

    def run_pass(self):
        outcome = PassOutcome()
        for path, reference, expected in self.inputs:
            outcome.attempted += len(expected)
            try:
                report = self.report.run_command(
                    self.manifest.load_manifest(path), "check")
                text = self.report.emit_report(report)
            except Exception:
                _report_traceback(f"{path.name}: check run raised")
                outcome.failed += len(expected)
                outcome.errors += len(expected)
                continue
            outcome.errors += report.summary["error"]
            if text != reference:
                outcome.failed += _failed_checks(json.loads(text)["results"],
                                                 expected)
        return outcome


def _failed_checks(results, expected):
    """Checks that differ from the reference or did not hold.  A report that
    differs only outside its results still fails every check."""
    failed = sum(
        1 for i, ref in enumerate(expected)
        if i >= len(results) or results[i] != ref
        or results[i]["status"] in ("fail", "error"))
    return failed or len(expected)


class PolySweepWorkload:
    """The identity battery of ``scripts/identity_sweep.py`` on random
    invertible 3D polynomial metrics.  An op is one sweep trial."""

    POOL = 40           # trials per pass: sweep seeds 0 .. POOL-1
    DIM = 3

    def __init__(self, seed):
        # Trial cost is heavy-tailed (0.01 s to 1.1 s), so a pool drawn
        # per seed would make wall_s follow the seed rather than the code.
        # The pool is fixed and the seed orders it.
        self.order = list(range(self.POOL))
        random.Random(seed).shuffle(self.order)

    def setup(self):
        self.sweep = fresh_import("identity_sweep")

    def run_pass(self):
        outcome = PassOutcome(attempted=len(self.order))
        for trial in self.order:
            try:
                self.sweep.run_trial(random.Random(trial), self.DIM)
            except Exception as exc:
                _report_traceback(f"sweep trial {trial} failed")
                outcome.failed += 1
                outcome.errors += not isinstance(exc, AssertionError)
        return outcome


def bundled(seed):
    cases = [(path, MANIFESTS / "golden" / f"{path.stem}.check.json")
             for path in sorted(MANIFESTS.glob("*.json"))]
    random.Random(seed).shuffle(cases)
    return ManifestWorkload(cases)


def poly_sweep(seed):
    return PolySweepWorkload(seed)


def ks_extension(seed):
    # One manifest whose checks must run in declaration order to match the
    # reference byte for byte, so the seed has nothing to order here.
    return ManifestWorkload([(HERE / "ks_extension.json",
                              HERE / "ks_extension.check.json")])


WORKLOADS = {"bundled": bundled, "poly_sweep": poly_sweep,
             "ks_extension": ks_extension}
