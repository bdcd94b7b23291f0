#!/usr/bin/env python3
"""Run every bundled manifest and compare against its golden report.

The bundled manifests are ``manifests/*.json`` and the charts
``manifests/charts/*.json``; each directory keeps its goldens in its own
``golden/`` subdirectory.

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
DIRECTORIES = (MANIFEST_DIR, MANIFEST_DIR / "charts")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--update", action="store_true",
                        help="rewrite the golden reports")
    args = parser.parse_args()

    failures = 0
    for path in [p for d in DIRECTORIES for p in sorted(d.glob("*.json"))]:
        name = path.relative_to(MANIFEST_DIR)
        try:
            manifest = load_manifest(path)
        except AfdError as exc:
            print(f"LOAD ERROR {name}: [{exc.code}] {exc}")
            failures += 1
            continue
        report = run_command(manifest, "check")
        text = emit_report(report, "json")
        golden = path.parent / "golden" / f"{path.stem}.check.json"
        status = f"exit={report.exit_code}"
        if args.update:
            golden.parent.mkdir(exist_ok=True)
            golden.write_text(text, encoding="utf-8")
            print(f"wrote {golden.relative_to(ROOT)} ({status})")
        elif not golden.exists():
            print(f"MISSING golden for {name}")
            failures += 1
        elif golden.read_text(encoding="utf-8") != text:
            print(f"MISMATCH {name} vs {golden.relative_to(ROOT)}")
            failures += 1
        else:
            print(f"ok {name} ({status})")
        if report.exit_code != 0:
            print(f"  NOTE: {name} reports failures")
            failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
