#!/usr/bin/env python3
"""Line counts of the afd sources, the figure the ROADMAP tracks.

Usage:
    python scripts/loc.py [ROOT]

For every module under ``ROOT/src/afd`` (default: the checkout holding this
script) prints its physical line count, as ``wc -l`` gives it, and its code
lines: lines that hold a token other than a comment, a docstring or a line
break.  A docstring is a string literal that forms a statement by itself.
The last row is the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# tokens that never make a line count as code, besides comments and the
# line breaks inside a statement, which are dropped first
LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}
STATEMENT_START = LAYOUT - {tokenize.ENDMARKER}


def code_lines(path):
    """The number of lines of ``path`` that carry code."""
    with path.open("rb") as handle:
        tokens = [t for t in tokenize.tokenize(handle.readline)
                  if t.type not in (tokenize.COMMENT, tokenize.NL)]
    lines = set()
    for i, tok in enumerate(tokens):
        if tok.type in LAYOUT:
            continue
        if (tok.type == tokenize.STRING
                and tokens[i - 1].type in STATEMENT_START
                and tokens[i + 1].type == tokenize.NEWLINE):
            continue  # a docstring
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv):
    here = Path(__file__).resolve().parents[1]
    root = Path(argv[1]) if len(argv) > 1 else here
    rows = []
    for path in sorted((root / "src" / "afd").glob("*.py")):
        with path.open("rb") as handle:
            physical = sum(1 for _ in handle)
        rows.append((path.name, physical, code_lines(path)))
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    width = max(len(r[0]) for r in rows)
    print(f"{'module':<{width}}  {'lines':>6}  {'code':>6}")
    for name, physical, code in rows:
        print(f"{name:<{width}}  {physical:>6}  {code:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
