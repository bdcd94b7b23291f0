"""Manifest loading and validation: the batch front door of the engine.

A manifest is a UTF-8 JSON document declaring the coordinate algebra, an
optional metric and stress-energy tensor, coupling constants, named curves
and a list of checks to run.  Loading refuses unknown keys, parses every
expression once, the options of each check included, and keeps the parsed
values; mathematical computations (metric inversion, curve validation)
happen when a check runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .algebraifold import Algebraifold
from .errors import ManifestParseError, ManifestValidationError
from .expr import is_identifier, parse_relation, parse_scalar
from .maps import AlgebraifoldHom, FormalLine
from .scalars import FIELD, POLYNOMIAL, ScalarContext
from .tensors import Tensor

# every check command with the kind of value each of its options takes:
# "expr" an expression, "verdict" 'zero' or 'nonzero', "curve" the name of a
# declared curve, "derivation" and "one_form" one expression per coordinate;
# an "expr" or "verdict" option may be left out, every other one is required
OPTIONS = {"dim": {"expect": "expr"}, "christoffel": {}, "curvature": {},
           "efe": {"expect": "verdict"},
           "geodesic": {"curve": "curve", "expect": "verdict"},
           "lie": {"vector": "derivation", "expect": "verdict"},
           "bracket": {"u": "derivation", "v": "derivation",
                       "expect": "verdict"},
           "pullback": {"curve": "curve", "one_form": "one_form"}}
OPTIONAL = ("expr", "verdict")
NEEDS_METRIC = ("christoffel", "curvature", "efe", "geodesic", "lie")
COMMANDS = ("check", *OPTIONS)

_KEYS = ("base_constants", "algebra", "metric", "lambda", "kappa",
         "stress_energy", "curves", "checks")
_ALGEBRA_KEYS = ("kind", "generators", "relations", "transcendence_basis")


@dataclass(frozen=True)
class CheckSpec:
    name: str
    command: str
    options: dict = field(default_factory=dict)  # raw JSON, echoed in reports
    args: dict = field(default_factory=dict)     # option key -> parsed value


@dataclass
class Manifest:
    """Parsed and context-validated manifest contents."""

    metric: object               # rank-(0, 2) Tensor, or None
    lam: object                  # Scalar
    kappa: object                # Scalar
    stress_energy: object        # rank-(0, 2) Tensor, or None
    curves: dict                 # name -> {generator: Scalar of the line}
    checks: tuple                # CheckSpecs in declaration order
    raw: dict                    # parsed JSON, echoed into reports
    algebraifold: Algebraifold
    line: FormalLine

    def curve_hom(self, name):
        """Build the validated homomorphism for a named curve."""
        return AlgebraifoldHom.build(self.algebraifold, self.line.algebraifold,
                                     self.curves[name])


def _require(condition, message):
    if not condition:
        raise ManifestValidationError(message)


def _known_keys(table, allowed, what):
    for key in table:
        _require(key in allowed, f"{what} {key!r}")


def _string_list(value, what):
    _require(isinstance(value, list) and all(isinstance(x, str) for x in value),
             f"{what} must be a list of strings")
    return tuple(value)


def _expr(value, what, ctx):
    _require(isinstance(value, str), f"{what} must be an expression string")
    return parse_scalar(value, ctx)


def _exprs(value, what, A):
    _require(isinstance(value, list) and len(value) == A.n
             and all(isinstance(x, str) for x in value),
             f"{what} must be a list of {A.n} expression strings")
    return [parse_scalar(text, A.ctx) for text in value]


def load_manifest(path):
    """Load, parse and context-validate a manifest file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise
    except OSError as exc:  # a directory, no read permission, ...
        raise ManifestParseError(f"{path.name}: {exc.strerror}") from None
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
    """Validate a parsed JSON object and bind it to engine objects, parsing
    each expression once."""
    _require(isinstance(raw, dict), "manifest must be a JSON object")
    _known_keys(raw, _KEYS, "manifest has an unknown key")
    constants = _string_list(raw.get("base_constants", []), "base_constants")

    algebra_raw = raw.get("algebra")
    _require(isinstance(algebra_raw, dict), "manifest must declare an algebra")
    _known_keys(algebra_raw, _ALGEBRA_KEYS, "algebra has an unknown key")
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
    for name in (*constants, *generators):
        _require(is_identifier(name),
                 f"{name!r} is no identifier of the expression grammar"
                 " (a letter, then letters, digits or '_')")
    _require(len({*constants, *generators}) == len(constants) + len(generators)
             and len(set(basis)) == len(basis),
             "base constants and generators need pairwise distinct names")
    _require("t" not in constants,
             "base constant 't' clashes with the parameter t of curves")
    _require(all(b in generators for b in basis),
             "transcendence_basis must be a subset of generators")
    ext_gens = tuple(g for g in generators if g not in basis)
    _require(len(relations) == len(ext_gens),
             "one relation is required per algebraic generator")

    extensions = tuple(
        (gen, parse_relation(constants, basis, gen, rel_text))
        for gen, rel_text in zip(ext_gens, relations)
    )
    for gen, rel in extensions:
        _require(rel.involves(gen), f"relation for '{gen}' must involve it")
    ctx = ScalarContext(POLYNOMIAL if kind == "polynomial" else FIELD,
                        basis, constants, extensions)
    algebraifold = Algebraifold.build(ctx)

    metric = _tensor(raw.get("metric"), "metric", algebraifold)
    stress_energy = _tensor(raw.get("stress_energy"), "stress_energy",
                            algebraifold)
    lam = _expr(raw.get("lambda", "0"), "lambda", ctx)
    kappa = _expr(raw.get("kappa", "1"), "kappa", ctx)

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
        curves[name] = {gen: parse_scalar(text, line.algebraifold.ctx)
                        for gen, text in table.items()}

    checks = _validate_checks(raw.get("checks", []), algebraifold, curves,
                              metric is not None)

    return Manifest(
        metric=metric,
        lam=lam,
        kappa=kappa,
        stress_energy=stress_energy,
        curves=curves,
        checks=checks,
        raw=raw,
        algebraifold=algebraifold,
        line=line,
    )


def _tensor(value, what, A):
    """A rank-(0, 2) tensor from an n x n array of expressions, or None."""
    if value is None:
        return None
    _require(isinstance(value, list) and len(value) == A.n,
             f"{what} must be a list of {A.n} rows")
    rows = [_exprs(row, f"{what} row {i}", A)
            for i, row in enumerate(value, start=1)]
    return Tensor.make(A, 0, 2, {(i, j): entry
                                 for i, row in enumerate(rows, start=1)
                                 for j, entry in enumerate(row, start=1)})


def _option(kind, value, what, A, curves):
    """The parsed value of one check option of the given kind."""
    if kind == "expr":
        return _expr(value, what, A.ctx)
    if kind == "verdict":
        _require(value in ("zero", "nonzero"),
                 f"{what} must be 'zero' or 'nonzero'")
        return value
    if kind == "curve":
        _require(isinstance(value, str) and value in curves,
                 f"{what} {value!r} is no declared curve")
        return value
    if kind == "derivation":
        return A.derivation(*_exprs(value, what, A))
    return A.one_form(*_exprs(value, what, A))


def _validate_checks(value, A, curves, has_metric):
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
        _require(isinstance(command, str) and command in OPTIONS,
                 f"check '{name}': unknown command {command!r}")
        kinds = OPTIONS[command]
        options = {k: v for k, v in item.items()
                   if k not in ("name", "command")}
        _known_keys(options, kinds,
                    f"check '{name}': {command} takes no option")
        _require(has_metric or command not in NEEDS_METRIC,
                 f"check '{name}': manifest declares no metric")
        args = {key: _option(kind, options.get(key), f"check '{name}': {key}",
                             A, curves)
                for key, kind in kinds.items()
                if options.get(key) is not None or kind not in OPTIONAL}
        checks.append(CheckSpec(name, command, options, args))
    return tuple(checks)
