"""Command dispatch and deterministic report emission.

Running a command over a manifest produces a :class:`ReportDocument`; the
same manifest and command always serialize to byte-identical output (sorted
JSON keys, declaration-ordered results, no timestamps).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from . import __version__
from .curvature import Geometry, levi_civita  # noqa: F401  callers import it here
from .errors import AfdError, ManifestValidationError
from .expr import Renderer
from .manifest import COMMANDS, NEEDS_METRIC, OPTIONAL, OPTIONS, CheckSpec
from .maps import geodesic_residual
from .tensors import lie_derivative


@dataclass
class ReportDocument:
    """Inputs echo plus per-check results, ready for serialization."""

    command: str
    manifest_echo: dict
    results: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def summary(self):
        counts = {"pass": 0, "fail": 0, "info": 0, "error": 0}
        for result in self.results:
            counts[result["status"]] += 1
        return counts

    @property
    def exit_code(self):
        summary = self.summary
        return 2 if summary["fail"] or summary["error"] else 0

    def to_payload(self):
        return {
            "engine": {"name": "afd", "version": __version__},
            "command": self.command,
            "manifest": self.manifest_echo,
            "results": self.results,
            "summary": self.summary,
            "warnings": sorted(self.warnings),
        }


def emit_report(report, fmt="json"):
    """Serialize a report canonically; JSON keys sorted, stable ordering."""
    if fmt == "json":
        return json.dumps(report.to_payload(), sort_keys=True, indent=2) + "\n"
    if fmt == "text":
        return _to_text(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _to_text(report):
    lines = [f"afd {__version__} command={report.command}"]
    for warning in sorted(report.warnings):
        lines.append(f"warning: {warning}")
    for result in report.results:
        status = result["status"]
        lines.append(f"[{status}] {result['name']} ({result['command']})")
        for key in sorted(result):
            if key in ("name", "command", "status"):
                continue
            lines.append(f"  {key}: {_text_value(result[key])}")
    summary = report.summary
    lines.append("summary: " + ", ".join(
        f"{summary[k]} {k}" for k in ("pass", "fail", "info", "error")))
    return "\n".join(lines) + "\n"


def _text_value(value):
    if isinstance(value, dict) and "components" in value:
        rank = value["rank"]
        comps = value["components"]
        if not comps:
            return f"rank ({rank[0]},{rank[1]}): 0"
        body = "; ".join(
            f"[{','.join(str(i) for i in c['index'])}] = {c['value']}"
            for c in comps)
        return f"rank ({rank[0]},{rank[1]}): {body}"
    if isinstance(value, list):
        return "(" + ", ".join(str(v) for v in value) + ")"
    return str(value)


def tensor_payload(tensor, render):
    """Sparse canonical serialization: sorted index -> ``render`` of the
    value."""
    return {
        "rank": [tensor.r, tensor.s],
        "components": [
            {"index": list(idx), "value": render(value)}
            for idx, value in tensor.sorted_components()
        ],
    }


# ---------------------------------------------------------------------------
# Command execution
# ---------------------------------------------------------------------------

class _Runtime:
    """Caches expensive objects across the checks of one run; a build that
    raises caches nothing, so each check that needs it records the error.

    Every value the run reports goes through one ``render``, so each
    distinct value up to sign is rendered once per run.
    """

    def __init__(self, manifest):
        self.manifest = manifest
        self._homs = {}
        self.render = Renderer()

    @property
    def algebraifold(self):
        return self.manifest.algebraifold

    @cached_property
    def geometry(self):
        return Geometry(self.algebraifold, self.manifest.metric)

    def hom(self, curve_name):
        if curve_name not in self._homs:
            self._homs[curve_name] = self.manifest.curve_hom(curve_name)
        return self._homs[curve_name]


def _expect_status(expect, is_zero):
    if expect is None:
        return "info"
    if expect == "zero":
        return "pass" if is_zero else "fail"
    return "pass" if not is_zero else "fail"


def _run_check(runtime, spec):
    """Run one check on the values its manifest parsed; ``spec.options``
    only echoes the user's own strings."""
    manifest = runtime.manifest
    A = runtime.algebraifold
    render = runtime.render
    result = {"name": spec.name, "command": spec.command}
    options, args = spec.options, spec.args

    if spec.command == "dim":
        value = render(A.dimension())
        result["dimension"] = value
        if "expect" not in args:
            result["status"] = "info"
        else:
            expected = render(args["expect"])
            result["expected"] = expected
            result["status"] = "pass" if value == expected else "fail"

    elif spec.command == "christoffel":
        result["christoffel"] = tensor_payload(
            runtime.geometry.connection.gamma, render)
        result["status"] = "info"

    elif spec.command == "curvature":
        geometry = runtime.geometry
        result["riemann"] = tensor_payload(geometry.riemann, render)
        result["ricci"] = tensor_payload(geometry.ricci, render)
        result["ricci_scalar"] = render(geometry.scalar)
        result["einstein"] = tensor_payload(geometry.einstein, render)
        result["status"] = "info"

    elif spec.command == "efe":
        residual = runtime.geometry.efe_residual(
            manifest.lam, manifest.kappa, manifest.stress_energy)
        result["lambda"] = render(manifest.lam)
        result["kappa"] = render(manifest.kappa)
        result["residual"] = tensor_payload(residual, render)
        result["status"] = _expect_status(args.get("expect", "zero"),
                                          residual.is_zero)

    elif spec.command == "geodesic":
        curve = args["curve"]
        hom = runtime.hom(curve)
        residual = geodesic_residual(manifest.line, hom,
                                     runtime.geometry.connection)
        result["curve"] = curve
        result["residual"] = [render(c) for c in residual.coeffs]
        result["status"] = _expect_status(args.get("expect"),
                                          residual.is_zero)

    elif spec.command == "lie":
        # through the inverse, so a degenerate metric errors here as well
        derivative = lie_derivative(A, args["vector"],
                                    runtime.geometry.metric.g)
        result["vector"] = list(options["vector"])
        result["metric_derivative"] = tensor_payload(derivative, render)
        result["status"] = _expect_status(args.get("expect"),
                                          derivative.is_zero)

    elif spec.command == "bracket":
        w = A.bracket(args["u"], args["v"])
        result["u"] = list(options["u"])
        result["v"] = list(options["v"])
        result["bracket"] = [render(c) for c in w.coeffs]
        result["status"] = _expect_status(args.get("expect"), w.is_zero)

    elif spec.command == "pullback":
        curve = args["curve"]
        pulled = runtime.hom(curve).pullback(args["one_form"])
        result["curve"] = curve
        result["one_form"] = list(options["one_form"])
        result["pulled"] = [render(c) for c in pulled.coeffs]
        result["status"] = "info"

    else:  # pragma: no cover - guarded by manifest validation
        raise ManifestValidationError(f"unknown command {spec.command!r}")
    return result


def _default_checks(manifest, command):
    """The checks a command runs when the manifest declares none: one per
    curve for ``geodesic``, else one named after the command if every
    option of the command may be left out."""
    if command == "geodesic":
        if manifest.metric is None or not manifest.curves:
            raise ManifestValidationError(
                "geodesic checks need a metric and at least one curve")
        return [CheckSpec(f"geodesic:{name}", "geodesic", args={"curve": name})
                for name in sorted(manifest.curves)]
    if any(kind not in OPTIONAL for kind in OPTIONS[command].values()):
        raise ManifestValidationError(
            f"manifest declares no '{command}' checks")
    if command in NEEDS_METRIC and manifest.metric is None:
        raise ManifestValidationError("manifest declares no metric")
    return [CheckSpec(command, command)]


def run_command(manifest, command, only=None):
    """Execute a command over a manifest and assemble the report.

    ``only`` optionally restricts execution to checks with the given names.
    Errors raised by individual checks are recorded as error results rather
    than skipped silently.
    """
    if command not in COMMANDS:
        raise ManifestValidationError(f"unknown command {command!r}")
    if command == "check":
        pool = list(manifest.checks)
    else:
        pool = [c for c in manifest.checks if c.command == command]
        if not pool:
            pool = _default_checks(manifest, command)
    if only:
        wanted = set(only)
        unknown = wanted - {c.name for c in pool}
        if unknown:
            raise ManifestValidationError(
                f"unknown check name(s): {', '.join(sorted(unknown))}")
        pool = [c for c in pool if c.name in wanted]

    report = ReportDocument(command=command, manifest_echo=manifest.raw)
    if not manifest.algebraifold.ctx.irreducibility_verified:
        report.warnings.append(
            "minimal relation of degree > 3 accepted without irreducibility"
            " verification")
    runtime = _Runtime(manifest)
    for spec in pool:
        try:
            result = _run_check(runtime, spec)
        except AfdError as exc:
            result = {
                "name": spec.name,
                "command": spec.command,
                "status": "error",
                "code": exc.code,
                "message": str(exc),
            }
        report.results.append(result)
    return report
