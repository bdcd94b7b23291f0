"""Manifest loading and validation: the batch front door of the engine.

A manifest is a UTF-8 JSON document declaring the coordinate algebra, an
optional metric and stress-energy tensor, coupling constants, named curves
and a list of checks to run.  Loading parses and context-validates every
expression eagerly, the expected dimension of a ``dim`` check included;
mathematical computations (metric inversion, curve validation) happen when
a check runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .algebraifold import Algebraifold
from .errors import ManifestParseError, ManifestValidationError
from .expr import parse_relation, parse_scalar
from .maps import AlgebraifoldHom, FormalLine
from .scalars import FIELD, POLYNOMIAL, ScalarContext
from .tensors import Tensor

COMMANDS = ("check", "dim", "christoffel", "curvature", "efe", "geodesic",
            "lie", "bracket", "pullback")

_EXPECTABLE = {"zero", "nonzero"}


@dataclass(frozen=True)
class AlgebraSpec:
    kind: str
    generators: tuple
    relations: tuple
    transcendence_basis: tuple


@dataclass(frozen=True)
class CheckSpec:
    name: str
    command: str
    options: dict = field(default_factory=dict)


@dataclass
class Manifest:
    """Parsed and context-validated manifest contents."""

    base_constants: tuple
    algebra: AlgebraSpec
    metric_exprs: tuple          # tuple of row tuples of strings, or ()
    lambda_text: str
    kappa_text: str
    stress_energy_exprs: tuple   # tuple of row tuples of strings, or ()
    curves: dict                 # name -> {generator: expression string}
    checks: tuple                # CheckSpecs in declaration order
    raw: dict                    # parsed JSON, echoed into reports
    algebraifold: Algebraifold
    line: FormalLine

    @property
    def n(self):
        return self.algebraifold.n

    def metric_tensor(self):
        if not self.metric_exprs:
            raise ManifestValidationError("manifest declares no metric")
        return _tensor_from_rows(self.algebraifold, self.metric_exprs)

    def stress_tensor(self):
        if not self.stress_energy_exprs:
            return None
        return _tensor_from_rows(self.algebraifold, self.stress_energy_exprs)

    def curve_hom(self, name):
        """Build the validated homomorphism for a named curve."""
        images = {gen: parse_scalar(text, self.line.algebraifold.ctx)
                  for gen, text in self.curves[name].items()}
        return AlgebraifoldHom.build(self.algebraifold, self.line.algebraifold,
                                     images)


def _tensor_from_rows(algebraifold, rows):
    entries = {}
    for i, row in enumerate(rows, start=1):
        for j, text in enumerate(row, start=1):
            entries[(i, j)] = parse_scalar(text, algebraifold.ctx)
    return Tensor.make(algebraifold, 0, 2, entries)


def _require(condition, message):
    if not condition:
        raise ManifestValidationError(message)


def _string_list(value, what):
    _require(isinstance(value, list) and all(isinstance(x, str) for x in value),
             f"{what} must be a list of strings")
    return tuple(value)


def load_manifest(path):
    """Load, parse and context-validate a manifest file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except IsADirectoryError:
        raise ManifestParseError(f"{path.name}: is a directory") from None
    except UnicodeDecodeError as exc:
        raise ManifestParseError(
            f"{path.name}: not valid UTF-8 at byte {exc.start}") from None
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestParseError(
            f"{path.name}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except RecursionError:
        raise ManifestParseError(f"{path.name}: JSON nested too deeply") from None
    return build_manifest(raw)


def build_manifest(raw):
    """Validate a parsed JSON object and bind it to engine objects."""
    _require(isinstance(raw, dict), "manifest must be a JSON object")
    constants = _string_list(raw.get("base_constants", []), "base_constants")

    algebra_raw = raw.get("algebra")
    _require(isinstance(algebra_raw, dict), "manifest must declare an algebra")
    kind = algebra_raw.get("kind")
    _require(kind in ("polynomial", "field"),
             "algebra.kind must be 'polynomial' or 'field'")
    generators = _string_list(algebra_raw.get("generators", []),
                              "algebra.generators")
    relations = _string_list(algebra_raw.get("relations", []),
                             "algebra.relations")
    basis = _string_list(
        algebra_raw.get("transcendence_basis", list(generators)),
        "algebra.transcendence_basis")
    _require(len(generators) >= 1, "algebra must declare generators")
    _require(all(b in generators for b in basis),
             "transcendence_basis must be a subset of generators")
    ext_gens = tuple(g for g in generators if g not in basis)
    _require(len(relations) == len(ext_gens),
             "one relation is required per algebraic generator")
    algebra = AlgebraSpec(kind, generators, relations, basis)

    extensions = tuple(
        (gen, parse_relation(constants, basis, gen, rel_text))
        for gen, rel_text in zip(ext_gens, relations)
    )
    ctx = ScalarContext(POLYNOMIAL if kind == "polynomial" else FIELD,
                        basis, constants, extensions)
    algebraifold = Algebraifold.build(ctx)
    n = algebraifold.n

    metric_exprs = _expr_matrix(raw.get("metric"), n, "metric", ctx)
    stress_exprs = _expr_matrix(raw.get("stress_energy"), n, "stress_energy",
                                ctx)

    lambda_text = raw.get("lambda", "0")
    kappa_text = raw.get("kappa", "1")
    for label, text in (("lambda", lambda_text), ("kappa", kappa_text)):
        _require(isinstance(text, str), f"{label} must be an expression string")
        parse_scalar(text, ctx)

    line = (FormalLine.polynomial(constants) if kind == "polynomial"
            else FormalLine.rational(constants))

    curves_raw = raw.get("curves", {})
    _require(isinstance(curves_raw, dict), "curves must be an object")
    curves = {}
    for name, table in sorted(curves_raw.items()):
        _require(isinstance(table, dict)
                 and all(isinstance(v, str) for v in table.values()),
                 f"curve '{name}' must map generators to expression strings")
        for gen in ctx.generators:
            _require(gen in table,
                     f"curve '{name}' misses an image for generator '{gen}'")
        for gen in sorted(table):
            _require(gen in ctx.generators,
                     f"curve '{name}' maps '{gen}', which is no generator")
        for text in table.values():
            parse_scalar(text, line.algebraifold.ctx)
        curves[name] = dict(table)

    checks = _validate_checks(raw.get("checks", []), ctx, n, curves,
                              bool(metric_exprs))

    return Manifest(
        base_constants=constants,
        algebra=algebra,
        metric_exprs=metric_exprs,
        lambda_text=lambda_text,
        kappa_text=kappa_text,
        stress_energy_exprs=stress_exprs,
        curves=curves,
        checks=checks,
        raw=raw,
        algebraifold=algebraifold,
        line=line,
    )


def _expr_matrix(value, n, what, ctx):
    if value is None:
        return ()
    _require(isinstance(value, list) and len(value) == n,
             f"{what} must be a {n}x{n} array of expression strings")
    rows = []
    for row in value:
        _require(isinstance(row, list) and len(row) == n,
                 f"{what} must be a {n}x{n} array of expression strings")
        _require(all(isinstance(x, str) for x in row),
                 f"{what} entries must be expression strings")
        for text in row:
            parse_scalar(text, ctx)
        rows.append(tuple(row))
    return tuple(rows)


def _validate_checks(value, ctx, n, curves, has_metric):
    _require(isinstance(value, list), "checks must be a list")
    checks = []
    seen = set()
    for item in value:
        _require(isinstance(item, dict), "each check must be an object")
        name = item.get("name")
        command = item.get("command")
        _require(isinstance(name, str) and name, "each check needs a name")
        _require(name not in seen, f"duplicate check name '{name}'")
        seen.add(name)
        _require(command in COMMANDS and command != "check",
                 f"check '{name}': unknown command {command!r}")
        options = {k: v for k, v in item.items()
                   if k not in ("name", "command")}
        expect = options.get("expect")
        if command in ("efe", "geodesic", "lie", "bracket"):
            _require(expect is None
                     or (isinstance(expect, str) and expect in _EXPECTABLE),
                     f"check '{name}': expect must be 'zero' or 'nonzero'")
        elif command == "dim" and expect is not None:
            _require(isinstance(expect, str),
                     f"check '{name}': expect must be an expression string")
            parse_scalar(expect, ctx)
        if command in ("christoffel", "curvature", "efe", "geodesic", "lie"):
            _require(has_metric, f"check '{name}': manifest declares no metric")
        if command in ("geodesic", "pullback"):
            curve = options.get("curve")
            _require(isinstance(curve, str) and curve in curves,
                     f"check '{name}': unknown curve {curve!r}")
        if command == "lie":
            _vector_option(options, "vector", name, n, ctx)
        if command == "bracket":
            _vector_option(options, "u", name, n, ctx)
            _vector_option(options, "v", name, n, ctx)
        if command == "pullback":
            _vector_option(options, "one_form", name, n, ctx)
        checks.append(CheckSpec(name, command, options))
    return tuple(checks)


def _vector_option(options, key, name, n, ctx):
    value = options.get(key)
    _require(isinstance(value, list) and len(value) == n
             and all(isinstance(x, str) for x in value),
             f"check '{name}': {key} must be a list of {n} expression strings")
    for text in value:
        parse_scalar(text, ctx)
