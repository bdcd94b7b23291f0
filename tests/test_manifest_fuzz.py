"""Whole manifests with mutated leaves, run through the command line.

Each draw takes one of the bundled manifests or the ks_extension benchmark
manifest and mutates one of its top-level sections: a string leaf is
replaced by another leaf of the same manifest or has one character inserted,
deleted or replaced, and a list entry is dropped or duplicated.  Every draw
runs as ``afd check`` in both report formats and must end with exit code 0,
1 or 2, the exceptions all turned into ``AfdError`` reports.  With a fixed
seed per manifest, the draws are the same on every run.
"""

import json
import random
from pathlib import Path

import pytest

from afd.cli import main

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "manifests").glob("*.json")) + [
    ROOT / "perfbench" / "ks_extension.json"]
DRAWS = 24
# characters of the expression grammar, digits and names an edit inserts
ALPHABET = "0123456789txyzrmabq+-*/^() ."


def leaves(value):
    """Every string leaf of a JSON value."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, list):
        for item in value:
            yield from leaves(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from leaves(item)


def edit(text, rng):
    """Insert, delete or replace one character."""
    i = rng.randint(0, len(text))
    c = rng.choice(ALPHABET)
    op = rng.randrange(3)
    if op == 0:
        return text[:i] + c + text[i:]
    if op == 1:
        return text[:i] + text[i + 1:]
    return text[:i] + c + text[i + 1:]


def mutate(value, rng, rate, pool):
    """A copy of ``value`` with each string leaf changed, and each list
    entry dropped or duplicated, with probability about ``rate``."""
    if isinstance(value, str):
        if rng.random() >= rate:
            return value
        return rng.choice(pool) if rng.random() < 0.5 else edit(value, rng)
    if isinstance(value, list):
        out = []
        for item in value:
            r = rng.random()
            if r < rate / 4:
                continue
            item = mutate(item, rng, rate, pool)
            out.append(item)
            if r > 1 - rate / 4:
                out.append(item)
        return out
    if isinstance(value, dict):
        return {k: mutate(v, rng, rate, pool) for k, v in value.items()}
    return value


@pytest.mark.parametrize("index, source", enumerate(SOURCES),
                         ids=[p.name for p in SOURCES])
def test_mutated_manifest_exits_with_a_code(index, source, tmp_path, capsys):
    raw = json.loads(source.read_text(encoding="utf-8"))
    pool = sorted(set(leaves(raw)))
    rng = random.Random(2500 + index)
    path = tmp_path / "draw.json"
    codes = set()
    for _ in range(DRAWS):
        draw = dict(raw)
        key = rng.choice(sorted(draw))
        draw[key] = mutate(draw[key], rng, rng.uniform(0.04, 0.35), pool)
        path.write_text(json.dumps(draw), encoding="utf-8")
        for fmt in ("json", "text"):
            code = main(["check", str(path), "--format", fmt])
            assert code in (0, 1, 2), (fmt, draw)
            codes.add(code)
        capsys.readouterr()
    # the draws reach both the refusals at load and the checks
    assert 1 in codes and codes & {0, 2}
