#!/usr/bin/env python3
"""Run every bundled manifest and compare against its golden report.

Usage:
    python scripts/run_manifests.py            # verify byte-identical goldens
    python scripts/run_manifests.py --update   # regenerate golden files

A manifest that fails to load prints ``LOAD ERROR`` and the rest still run;
the exit status is 1 if any manifest failed to load, mismatched its golden
or reported a failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from afd.errors import AfdError  # noqa: E402
from afd.manifest import load_manifest  # noqa: E402
from afd.report import emit_report, run_command  # noqa: E402

MANIFEST_DIR = ROOT / "manifests"
GOLDEN_DIR = MANIFEST_DIR / "golden"


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden reports")
    args = parser.parse_args()

    GOLDEN_DIR.mkdir(exist_ok=True)
    failures = 0
    for path in sorted(MANIFEST_DIR.glob("*.json")):
        try:
            manifest = load_manifest(path)
        except AfdError as exc:
            print(f"LOAD ERROR {path.name}: [{exc.code}] {exc}")
            failures += 1
            continue
        report = run_command(manifest, "check")
        text = emit_report(report, "json")
        golden = GOLDEN_DIR / f"{path.stem}.check.json"
        status = f"exit={report.exit_code}"
        if args.update:
            golden.write_text(text, encoding="utf-8")
            print(f"wrote {golden.relative_to(ROOT)} ({status})")
        elif not golden.exists():
            print(f"MISSING golden for {path.name}")
            failures += 1
        elif golden.read_text(encoding="utf-8") != text:
            print(f"MISMATCH {path.name} vs {golden.relative_to(ROOT)}")
            failures += 1
        else:
            print(f"ok {path.name} ({status})")
        if report.exit_code != 0:
            print(f"  NOTE: {path.name} reports failures")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
