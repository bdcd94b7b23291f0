"""Command line front end: evaluate manifests and emit verification reports.

Usage::

    afd <command> <manifest> [--format json|text] [--check NAME ...] [--out PATH]

Exit codes: 0 success, 1 usage or input error, 2 mathematical failure
(degenerate metric, relation not preserved, nonzero residual where a pass
was asserted).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import AfdError
from .manifest import COMMANDS, load_manifest
from .report import emit_report, run_command


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="afd",
        description="Exact symbolic differential geometry over polynomial"
                    " rings and function fields.",
    )
    parser.add_argument("command", choices=COMMANDS,
                        help="which computation to run")
    parser.add_argument("manifest", help="path to a UTF-8 JSON manifest")
    parser.add_argument("--format", choices=("json", "text"), default="json",
                        help="report serialization (default: json)")
    parser.add_argument("--check", action="append", default=None,
                        metavar="NAME", help="run only the named check(s)")
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="write the report to a file instead of stdout")
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code else 0
    try:
        manifest = load_manifest(args.manifest)
        report = run_command(manifest, args.command, only=args.check)
        text = emit_report(report, args.format)
    except FileNotFoundError:
        print(f"afd: manifest not found: {args.manifest}", file=sys.stderr)
        return 1
    except AfdError as exc:
        print(f"afd: [{exc.code}] {exc}", file=sys.stderr)
        return exc.exit_code
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"afd: cannot write {args.out}: {exc.strerror}",
                  file=sys.stderr)
            return 1
    else:
        sys.stdout.write(text)
    return report.exit_code


if __name__ == "__main__":
    raise SystemExit(main())
