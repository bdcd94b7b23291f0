"""Manifest loading, command dispatch, report emission, CLI behaviour."""

import json
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

from afd.algebraifold import Derivation, OneForm
from afd.cli import main
from afd.errors import (
    AfdError,
    ExprSyntaxError,
    ManifestParseError,
    ManifestValidationError,
    UnknownIdentifier,
)
from afd.expr import render_scalar
from afd.manifest import COMMANDS, OPTIONS, build_manifest, load_manifest
from afd.report import emit_report, run_command, tensor_payload
from afd.tensors import Tensor

from helpers import poly_ring

MINIMAL = {
    "algebra": {
        "kind": "polynomial",
        "generators": ["x", "y"],
        "relations": [],
        "transcendence_basis": ["x", "y"],
    },
    "metric": [["1", "0"], ["0", "1"]],
}


def manifest_with(**overrides):
    raw = json.loads(json.dumps(MINIMAL))
    raw.update(overrides)
    return raw


class TestLoadManifest:
    def test_bundled_poly_metric(self, repo_root):
        manifest = load_manifest(repo_root / "manifests" / "poly_metric.json")
        assert manifest.n == 2
        assert render_scalar(manifest.metric.get((1, 2))) == "x"

    def test_bundled_friedmann(self, repo_root):
        manifest = load_manifest(repo_root / "manifests" / "friedmann.json")
        assert manifest.n == 4
        assert manifest.algebra.kind == "field"

    def test_non_square_metric_rejected(self):
        raw = manifest_with(metric=[["1", "0", "0"], ["0", "1", "0"]])
        with pytest.raises(ManifestValidationError):
            build_manifest(raw)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_manifest(tmp_path / "nope.json")

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(ManifestParseError) as err:
            load_manifest(bad)
        assert "line 1" in str(err.value)

    def test_bad_expression_rejected_at_load(self):
        raw = manifest_with(metric=[["1", "0"], ["0", "q + 1"]])
        with pytest.raises(Exception) as err:
            build_manifest(raw)
        assert err.value.__class__.__name__ == "UnknownIdentifier"

    def test_unknown_check_command(self):
        raw = manifest_with(checks=[{"name": "x", "command": "frobnicate"}])
        with pytest.raises(ManifestValidationError):
            build_manifest(raw)

    @pytest.mark.parametrize("bad", [[], {}, ["zero"]])
    @pytest.mark.parametrize("command, key", [
        ("efe", "expect"), ("geodesic", "expect"), ("lie", "expect"),
        ("bracket", "expect"), ("geodesic", "curve"), ("pullback", "curve"),
    ])
    def test_unhashable_option_is_a_validation_error(self, command, key, bad):
        check = {"name": "c", "command": command, "curve": "line",
                 "vector": ["1", "0"], "u": ["1", "0"], "v": ["0", "1"],
                 "one_form": ["1", "0"], key: bad}
        # only the options the command takes, so the bad value is reached
        check = {k: v for k, v in check.items()
                 if k in ("name", "command", *OPTIONS[command])}
        raw = manifest_with(curves={"line": {"x": "t", "y": "0"}},
                            checks=[check])
        with pytest.raises(ManifestValidationError) as err:
            build_manifest(raw)
        assert "check 'c': " in str(err.value)

    @pytest.mark.parametrize("expect, error", [
        ("3 +", ExprSyntaxError), ("q", UnknownIdentifier)])
    def test_dim_expectation_is_parsed_at_load(self, expect, error):
        raw = manifest_with(
            checks=[{"name": "d", "command": "dim", "expect": expect}])
        with pytest.raises(error):
            build_manifest(raw)

    # a legal value for every kind of check option
    LEGAL = {"expr": "2", "verdict": "zero", "curve": "line",
             "derivation": ["1", "x"], "one_form": ["x", "0"]}

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_misspelt_option_is_refused(self, command):
        check = {"name": "c", "command": command,
                 **{k: self.LEGAL[kind] for k, kind in OPTIONS[command].items()}}
        curves = {"line": {"x": "t", "y": "0"}}
        manifest = build_manifest(manifest_with(curves=curves, checks=[check]))
        assert manifest.checks[0].options == {
            k: v for k, v in check.items() if k not in ("name", "command")}
        with pytest.raises(ManifestValidationError) as err:
            build_manifest(manifest_with(
                curves=curves, checks=[dict(check, expct="zero")]))
        assert str(err.value) == f"check 'c': {command} takes no option 'expct'"

    @pytest.mark.parametrize("overrides, key", [
        ({"lamda": "1"}, "lamda"),
        ({"algebra": dict(MINIMAL["algebra"], relation=[])}, "relation"),
    ])
    def test_unknown_key_is_refused(self, overrides, key):
        with pytest.raises(ManifestValidationError) as err:
            build_manifest(manifest_with(**overrides))
        assert f"unknown key '{key}'" in str(err.value)

    @pytest.mark.parametrize("overrides", [
        {"base_constants": ["x"]},
        {"base_constants": ["t"]},
        {"algebra": {"kind": "polynomial", "generators": ["x", "x"]}},
        {"algebra": {"kind": "field", "generators": ["x", "y"],
                     "relations": ["y^2 - x"],
                     "transcendence_basis": ["x", "x"]}},
    ], ids=["constant-is-generator", "constant-t", "same-generators",
            "same-basis"])
    def test_clashing_names_are_refused(self, overrides):
        # the scalar context refuses them with a bare ValueError
        with pytest.raises(ManifestValidationError):
            build_manifest(manifest_with(**overrides))

    @pytest.mark.parametrize("name", ["", "2x", "x y", "x-1"])
    @pytest.mark.parametrize("where", ["generator", "base_constant"])
    def test_unspellable_name_is_refused(self, where, name):
        if where == "generator":
            overrides = {"algebra": dict(MINIMAL["algebra"],
                                         generators=[name, "y"],
                                         transcendence_basis=[name, "y"])}
        else:
            overrides = {"base_constants": [name]}
        with pytest.raises(ManifestValidationError) as err:
            build_manifest(manifest_with(**overrides))
        assert f"{name!r} is no identifier" in str(err.value)

    def test_values_are_parsed_at_load(self):
        raw = manifest_with(
            **{"lambda": "2/3", "kappa": "8"},
            stress_energy=[["x", "0"], ["0", "y"]],
            curves={"line": {"x": "t", "y": "t^2"}},
            checks=[{"name": "d", "command": "dim", "expect": "1 + 1"},
                    {"name": "b", "command": "bracket", "u": ["x", "0"],
                     "v": ["0", "y"]},
                    {"name": "p", "command": "pullback", "curve": "line",
                     "one_form": ["1", "x"]}])
        manifest = build_manifest(raw)
        assert render_scalar(manifest.lam) == "2/3"
        assert render_scalar(manifest.kappa) == "8"
        assert manifest.metric.rank == manifest.stress_energy.rank == (0, 2)
        assert [render_scalar(manifest.stress_energy.get(idx))
                for idx in ((1, 1), (1, 2), (2, 2))] == ["x", "0", "y"]
        assert {g: render_scalar(v) for g, v in
                manifest.curves["line"].items()} == {"x": "t", "y": "t^2"}
        dim, bracket, pullback = (c.args for c in manifest.checks)
        assert render_scalar(dim["expect"]) == "2"
        assert isinstance(bracket["u"], Derivation)
        assert [render_scalar(c) for c in bracket["v"].coeffs] == ["0", "y"]
        assert isinstance(pullback["one_form"], OneForm)
        assert pullback["curve"] == "line"

    def test_curve_must_cover_generators(self):
        raw = manifest_with(curves={"c": {"x": "t"}})
        with pytest.raises(ManifestValidationError):
            build_manifest(raw)

    def test_curve_maps_only_generators(self):
        raw = manifest_with(curves={"c": {"x": "t", "y": "t", "w": "t^2"}})
        with pytest.raises(ManifestValidationError, match="'w'"):
            build_manifest(raw)

    def test_degenerate_relation_is_a_math_error(self):
        from afd.errors import NotSeparable

        raw = manifest_with(
            algebra={
                "kind": "field",
                "generators": ["x", "y"],
                "relations": ["y^2"],
                "transcendence_basis": ["x"],
            },
            metric=[["1"]],
        )
        with pytest.raises(NotSeparable) as err:
            build_manifest(raw)
        assert err.value.exit_code == 2

    def test_transcendence_basis_defaults_to_the_generators(self):
        algebra = {"kind": "polynomial", "generators": ["x", "y"]}
        manifest = build_manifest(manifest_with(algebra=algebra))
        assert manifest.algebra.transcendence_basis == ("x", "y")
        # with every generator transcendental, a relation has no generator
        with pytest.raises(ManifestValidationError) as err:
            build_manifest(manifest_with(
                algebra=dict(algebra, relations=["y^2 - x"])))
        assert "one relation is required per algebraic generator" \
            in str(err.value)

    def test_extension_tower_is_a_usage_error(self):
        from afd.errors import UnsupportedTower

        raw = manifest_with(
            algebra={
                "kind": "field",
                "generators": ["x", "u", "w"],
                "relations": ["u^2 - x", "w^2 - x - 1"],
                "transcendence_basis": ["x"],
            },
            metric=[["1"]],
        )
        with pytest.raises(UnsupportedTower) as err:
            build_manifest(raw)
        assert err.value.exit_code == 1


# JSON values for the options of a check: scalars, expression-like strings
# and command names, nested in lists and objects
_WORDS = st.sampled_from(
    ("zero", "nonzero", "line", "x", "1", "x + y", "3 +", "q", "")
    + COMMANDS)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=6) | _WORDS,
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=6)
_CHECK_KEYS = ("name", "command", "expect", "curve", "vector", "u", "v",
               "one_form", "expct")


class TestCheckFuzz:
    """Whatever JSON a check object holds, loading it and running what loads
    raise only AfdError."""

    @given(st.fixed_dictionaries({}, optional={k: _JSON for k in _CHECK_KEYS}))
    @example({"name": "d", "command": []})
    @example({"name": "d", "command": "dim", "expect": "2"})
    @example({"name": "d", "command": "christoffel"})
    @example({"name": "d", "command": "curvature"})
    @example({"name": "d", "command": "efe", "expect": "nonzero"})
    @example({"name": "d", "command": "geodesic", "curve": "line",
              "expect": "zero"})
    @example({"name": "d", "command": "lie", "vector": ["x", "1"]})
    @example({"name": "d", "command": "bracket", "u": ["x", "0"],
              "v": ["0", "x + y"], "expect": "zero"})
    @example({"name": "d", "command": "pullback", "curve": "line",
              "one_form": ["1", "x"]})
    @example({"name": "d", "command": "efe", "expect": ["zero"]})
    @example({"name": "d", "command": "lie", "expect": {}})
    @example({"name": "d", "command": "geodesic", "curve": []})
    @example({"name": "d", "command": "pullback", "curve": {"line": 1}})
    @example({"name": "d", "command": "bracket", "u": ["\u00b2", "0"]})
    @example({"name": "d", "command": "dim", "expect": "\u00b2"})
    def test_only_afd_errors_escape(self, check):
        raw = manifest_with(curves={"line": {"x": "t", "y": "0"}},
                            checks=[check])
        try:
            manifest = build_manifest(raw)
        except AfdError:
            return
        assert [c.name for c in manifest.checks] == [check["name"]]
        try:
            report = run_command(manifest, "check")
            for fmt in ("json", "text"):
                emit_report(report, fmt)
        except AfdError:
            pass


class TestRunCommand:
    def test_dim_default(self, repo_root):
        manifest = load_manifest(repo_root / "manifests" / "friedmann.json")
        report = run_command(manifest, "dim")
        assert report.results[0]["dimension"] == "4"
        assert report.exit_code == 0

    def test_efe_pass(self, repo_root):
        manifest = load_manifest(repo_root / "manifests" / "minkowski.json")
        report = run_command(manifest, "efe")
        (result,) = report.results
        assert result["status"] == "pass"
        assert result["residual"]["components"] == []

    def test_geodesic_selected_check(self, repo_root):
        manifest = load_manifest(repo_root / "manifests" / "euclidean.json")
        report = run_command(manifest, "geodesic", only=["straight-line"])
        (result,) = report.results
        assert result["residual"] == ["0", "0"]
        assert result["status"] == "pass"

    def test_failing_expectation_sets_exit_code(self):
        raw = manifest_with(
            checks=[{"name": "wrong-dim", "command": "dim", "expect": "3"}])
        report = run_command(build_manifest(raw), "check")
        assert report.results[0]["status"] == "fail"
        assert report.exit_code == 2

    def test_huge_constant_relation_is_decided(self):
        # the irreducibility test of the relation takes time polynomial in
        # the bit size of its 31-digit constant term
        raw = manifest_with(
            algebra={"kind": "field", "generators": ["x", "y"],
                     "relations": ["y^2 - x - 1" + "0" * 30],
                     "transcendence_basis": ["x"]},
            metric=[["1"]],
            checks=[{"name": "dimension", "command": "dim", "expect": "1"}])
        report = run_command(build_manifest(raw), "check")
        assert report.results[0]["status"] == "pass"
        assert report.exit_code == 0

    def test_schwarzschild_kerr_schild_in_4d_is_vacuum(self, repo_root):
        # g = eta + (2m/r) k k with k = (1, x/r, y/r, z/r) over
        # Q(m)(t,x,y,z)[r]/(r^2 - x^2 - y^2 - z^2): Ric = 0 exactly
        manifest = load_manifest(
            repo_root / "tests" / "fixtures" / "schwarzschild_ks.json")
        report = run_command(manifest, "check")
        dim, efe = report.results
        assert dim["status"] == "pass" and dim["dimension"] == "4"
        assert efe["status"] == "pass" and efe["residual"]["components"] == []
        assert report.exit_code == 0

    def test_degenerate_metric_reported_as_error(self):
        raw = manifest_with(metric=[["1", "1"], ["1", "1"]],
                            checks=[{"name": "c", "command": "curvature"}])
        report = run_command(build_manifest(raw), "check")
        (result,) = report.results
        assert result["status"] == "error"
        assert result["code"] == "degenerate-metric"
        assert report.exit_code == 2

    def test_unknown_check_name(self, repo_root):
        manifest = load_manifest(repo_root / "manifests" / "euclidean.json")
        with pytest.raises(ManifestValidationError):
            run_command(manifest, "check", only=["no-such-check"])

    def test_no_declared_checks_for_command(self, repo_root):
        manifest = load_manifest(repo_root / "manifests" / "minkowski.json")
        with pytest.raises(ManifestValidationError):
            run_command(manifest, "bracket")

    @pytest.mark.parametrize("command, key, status", [
        ("christoffel", "christoffel", "info"),
        ("curvature", "riemann", "info"),
        ("efe", "residual", "pass"),  # the default efe check expects zero
    ])
    def test_default_check_per_metric_command(self, command, key, status):
        # a manifest with no check of the command gets one of that name
        report = run_command(build_manifest(manifest_with()), command)
        (result,) = report.results
        assert (result["name"], result["command"]) == (command, command)
        assert key in result and result["status"] == status

    def test_default_geodesic_check_per_curve_in_sorted_order(self):
        raw = manifest_with(curves={"b": {"x": "t", "y": "t"},
                                    "a": {"x": "t^2", "y": "0"}})
        report = run_command(build_manifest(raw), "geodesic")
        assert [(r["name"], r["curve"], r["status"])
                for r in report.results] == [
            ("geodesic:a", "a", "info"), ("geodesic:b", "b", "info")]
        assert [r["residual"] for r in report.results] == [
            ["2", "0"], ["0", "0"]]

    @pytest.mark.parametrize("command", ["christoffel", "curvature", "efe"])
    def test_default_metric_check_needs_a_metric(self, command):
        manifest = build_manifest(manifest_with(metric=None))
        with pytest.raises(ManifestValidationError) as err:
            run_command(manifest, command)
        assert "manifest declares no metric" in str(err.value)

    @pytest.mark.parametrize("overrides", [
        {"metric": None, "curves": {"a": {"x": "t", "y": "t"}}}, {}])
    def test_default_geodesic_check_needs_a_metric_and_a_curve(self,
                                                               overrides):
        manifest = build_manifest(manifest_with(**overrides))
        with pytest.raises(ManifestValidationError) as err:
            run_command(manifest, "geodesic")
        assert "need a metric and at least one curve" in str(err.value)

    def test_quartic_extension_warning_propagates(self):
        raw = manifest_with(
            algebra={
                "kind": "field",
                "generators": ["x", "w"],
                "relations": ["w^4 - x^3 - x - 1"],
                "transcendence_basis": ["x"],
            },
            metric=[["1"]],
        )
        report = run_command(build_manifest(raw), "dim")
        assert any("irreducibility" in w for w in report.warnings)


GEOMETRY_CHECKS = [
    {"name": "symbols", "command": "christoffel"},
    {"name": "curvature", "command": "curvature"},
    {"name": "vacuum", "command": "efe", "expect": "zero"},
    {"name": "line", "command": "geodesic", "curve": "line"},
    {"name": "symbols-again", "command": "christoffel"},
]


class TestSharedGeometry:
    """One run builds the metric inverse, the connection and the curvature
    once for all checks."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from afd import curvature

        counts = {"metric_inverse": 0, "levi_civita": 0,
                  "curvature_tensor": 0}

        def counting(name):
            original = getattr(curvature, name)

            def counted(*args):
                counts[name] += 1
                return original(*args)
            return counted

        for name in counts:
            monkeypatch.setattr(curvature, name, counting(name))
        return counts

    def run(self, metric, only=None, **overrides):
        raw = manifest_with(metric=metric, checks=GEOMETRY_CHECKS,
                            curves={"line": {"x": "t", "y": "2*t"}},
                            **overrides)
        return run_command(build_manifest(raw), "check", only).results

    def test_each_stage_runs_once(self, calls):
        results = self.run([["1", "x"], ["x", "1 + x^2"]])
        assert [r["status"] for r in results] == [
            "info", "info", "pass", "info", "info"]
        assert calls == {"metric_inverse": 1, "levi_civita": 1,
                         "curvature_tensor": 1}

    def test_degenerate_metric_errors_every_dependent_check(self, calls):
        results = self.run([["1", "1"], ["1", "1"]])
        assert [(r["status"], r["code"]) for r in results] == [
            ("error", "degenerate-metric")] * len(GEOMETRY_CHECKS)
        # a raising stage keeps nothing: each dependent check inverts again
        assert calls == {"metric_inverse": len(GEOMETRY_CHECKS),
                         "levi_civita": 0, "curvature_tensor": 0}

    def test_lie_check_errors_on_a_degenerate_metric(self, calls):
        # the Lie derivative needs no connection, but it reads the metric
        # through the inverse stage
        raw = manifest_with(metric=[["1", "1"], ["1", "1"]], checks=[
            {"name": "killing", "command": "lie", "vector": ["0", "1"]}])
        (result,) = run_command(build_manifest(raw), "check").results
        assert (result["status"], result["code"]) == (
            "error", "degenerate-metric")
        assert calls == {"metric_inverse": 1, "levi_civita": 0,
                         "curvature_tensor": 0}

    def test_failing_stage_is_not_cached(self, monkeypatch, calls):
        from afd import curvature
        from afd.errors import DivisionByZero

        def failing(*args):
            calls["levi_civita"] += 1
            raise DivisionByZero("stage failed")

        monkeypatch.setattr(curvature, "levi_civita", failing)
        results = self.run([["1", "x"], ["x", "1 + x^2"]])
        assert [(r["status"], r["code"]) for r in results] == [
            ("error", "division-by-zero")] * len(GEOMETRY_CHECKS)
        assert calls == {"metric_inverse": 1,
                         "levi_civita": len(GEOMETRY_CHECKS),
                         "curvature_tensor": 0}

    def test_efe_checks_couplings_before_curvature(self, calls):
        (result,) = self.run([["1", "x"], ["x", "1 + x^2"]], only=["vacuum"],
                             **{"lambda": "x"})
        assert (result["status"], result["code"]) == (
            "error", "non-constant-coupling")
        assert calls == {"metric_inverse": 0, "levi_civita": 0,
                         "curvature_tensor": 0}


class TestEmitReport:
    def test_zero_tensor_payload(self):
        A = poly_ring("x", "y")
        payload = tensor_payload(Tensor.zero(A, 1, 2), render_scalar)
        assert payload == {"rank": [1, 2], "components": []}

    def test_dimension_payload(self):
        report = run_command(build_manifest(manifest_with()), "dim")
        assert report.results[0]["dimension"] == "2"

    def test_efe_failure_lists_nonzero_components(self):
        raw = manifest_with(
            **{"lambda": "1"},
            checks=[{"name": "bad-efe", "command": "efe", "expect": "zero"}])
        report = run_command(build_manifest(raw), "check")
        (result,) = report.results
        assert result["status"] == "fail"
        indices = [c["index"] for c in result["residual"]["components"]]
        assert indices == [[1, 1], [2, 2]]

    def test_json_keys_sorted(self):
        report = run_command(build_manifest(manifest_with()), "dim")
        text = emit_report(report, "json")
        payload = json.loads(text)
        assert list(payload) == sorted(payload)

    def test_determinism(self, repo_root):
        path = repo_root / "manifests" / "friedmann.json"
        first = emit_report(run_command(load_manifest(path), "check"), "json")
        second = emit_report(run_command(load_manifest(path), "check"), "json")
        assert first == second

    def test_text_format(self):
        report = run_command(build_manifest(manifest_with()), "dim")
        text = emit_report(report, "text")
        assert "dimension: 2" in text
        assert text.startswith("afd ")

    def test_text_format_of_tensors_and_lists(self):
        # det g = 1; along x = y = t the residual is Gamma^k_ij v^i v^j
        raw = manifest_with(
            metric=[["1", "x"], ["x", "1 + x^2"]],
            curves={"a": {"x": "t", "y": "t"}},
            checks=[{"name": "gamma", "command": "christoffel"},
                    {"name": "path", "command": "geodesic", "curve": "a"}])
        text = emit_report(run_command(build_manifest(raw), "check"), "text")
        lines = text.splitlines()
        assert ("  christoffel: rank (1,2): [1,1,1] = -1 * x; "
                "[1,1,2] = -1 * x^2; [1,2,1] = -1 * x^2; "
                "[1,2,2] = -1 * x^3 - x; [2,1,1] = 1; [2,1,2] = x; "
                "[2,2,1] = x; [2,2,2] = x^2") in lines
        assert ("  residual: (-1 * t^3 - 2 * t^2 - 2 * t, "
                "t^2 + 2 * t + 1)") in lines


class TestGoldenReports:
    def test_all_bundled_manifests_match_goldens(self, repo_root):
        manifest_dir = repo_root / "manifests"
        goldens = sorted((manifest_dir / "golden").glob("*.check.json"))
        assert len(goldens) == 6
        for golden in goldens:
            stem = golden.name.replace(".check.json", "")
            manifest = load_manifest(manifest_dir / f"{stem}.json")
            report = run_command(manifest, "check")
            assert report.exit_code == 0, stem
            assert emit_report(report, "json") == golden.read_text(
                encoding="utf-8"), stem


    def test_extension_workload_matches_its_reference(self, repo_root):
        # Schwarzschild-like Kerr-Schild metric over Q(m)(t,x,y)[r]/(r^2-x^2-y^2)
        bench = repo_root / "perfbench"
        report = run_command(load_manifest(bench / "ks_extension.json"),
                             "check")
        assert emit_report(report, "json") == (
            bench / "ks_extension.check.json").read_text(encoding="utf-8")


class TestParseOnce:
    def test_checks_run_without_the_parser(self, repo_root, monkeypatch):
        # every expression is parsed at load; a check only reads the values
        from afd import expr

        pairs = [(repo_root / "manifests" / path.name.replace(".check", ""),
                  path)
                 for path in sorted(
                     (repo_root / "manifests" / "golden").glob("*.json"))]
        pairs.append((repo_root / "perfbench" / "ks_extension.json",
                      repo_root / "perfbench" / "ks_extension.check.json"))
        assert len(pairs) == 7
        loaded = [(load_manifest(m), ref) for m, ref in pairs]

        def refuse(*args):
            raise AssertionError("an expression was parsed after load")

        monkeypatch.setattr(expr, "_Parser", refuse)
        for manifest, ref in loaded:
            report = run_command(manifest, "check")
            assert emit_report(report, "json") == ref.read_text(
                encoding="utf-8"), ref.name


class TestReadme:
    def test_manifest_example_loads_and_passes(self, repo_root):
        readme = (repo_root / "README.md").read_text(encoding="utf-8")
        section = readme.split("## Manifests", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        manifest = build_manifest(json.loads(block))
        assert len(manifest.checks) == len(OPTIONS)
        report = run_command(manifest, "check")
        assert report.summary["error"] == report.summary["fail"] == 0


class TestConcurrency:
    def test_shared_objects_across_threads(self, repo_root):
        # descriptors, metrics and tensors are immutable; independent checks
        # may run in parallel and must agree with the serial result
        from concurrent.futures import ThreadPoolExecutor

        manifest = load_manifest(repo_root / "manifests" / "poly_metric.json")
        serial = emit_report(run_command(manifest, "check"), "json")
        with ThreadPoolExecutor(max_workers=4) as pool:
            reports = list(pool.map(
                lambda _: emit_report(run_command(manifest, "check"), "json"),
                range(8)))
        assert all(r == serial for r in reports)


class TestCli:
    def run_cli(self, *args, timeout=None):
        return subprocess.run(
            [sys.executable, "-m", "afd.cli", *args],
            capture_output=True, text=True, timeout=timeout)

    def test_check_exit_zero(self, repo_root):
        proc = self.run_cli("check",
                            str(repo_root / "manifests" / "euclidean.json"))
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["summary"]["fail"] == 0

    def test_missing_manifest_exit_one(self):
        proc = self.run_cli("check", "does-not-exist.json")
        assert proc.returncode == 1
        assert "not found" in proc.stderr

    def test_usage_error_exit_one(self):
        proc = self.run_cli("frobnicate", "x.json")
        assert proc.returncode == 1

    def test_math_failure_exit_two(self, tmp_path):
        raw = manifest_with(metric=[["1", "1"], ["1", "1"]],
                            checks=[{"name": "c", "command": "curvature"}])
        path = tmp_path / "degenerate.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        proc = self.run_cli("check", str(path))
        assert proc.returncode == 2

    def test_out_file_and_format(self, repo_root, tmp_path):
        out = tmp_path / "report.txt"
        proc = self.run_cli("dim",
                            str(repo_root / "manifests" / "friedmann.json"),
                            "--format", "text", "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert "dimension: 4" in out.read_text(encoding="utf-8")

    @pytest.mark.parametrize("content, code", [
        (None, "manifest-parse-error"),
        (json.dumps(MINIMAL).encode("utf-16"), "manifest-parse-error"),
        (b"[" * 100000, "manifest-parse-error"),
        (json.dumps(manifest_with(metric=[
            ["(" * 3000 + "1" + ")" * 3000, "0"], ["0", "1"]])).encode(),
         "syntax-error"),
    ], ids=["directory", "utf-16", "nested-json", "nested-expression"])
    def test_unreadable_input_is_an_input_error(self, tmp_path, capsys,
                                                content, code):
        path = tmp_path
        if content is not None:
            path = tmp_path / "manifest.json"
            path.write_bytes(content)
        assert main(["check", str(path)]) == 1
        assert capsys.readouterr().err.startswith(f"afd: [{code}]")

    def test_exponent_past_the_limit_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest_with(
            metric=[["x^40000", "0"], ["0", "1"]])), encoding="utf-8")
        assert main(["check", str(path)]) in (1, 2)
        assert capsys.readouterr().err.startswith("afd: [exponent-overflow]")

    def test_power_past_the_limit_exits_one_at_once(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest_with(
            metric=[["(x+y+1)^40000", "0"], ["0", "1"]])), encoding="utf-8")
        proc = self.run_cli("check", str(path), timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("afd: [exponent-overflow]")

    def test_extension_power_past_the_norm_bound_exits_one(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest_with(
            algebra={"kind": "field", "generators": ["x", "y", "w"],
                     "relations": ["w^2 - x"],
                     "transcendence_basis": ["x", "y"]},
            checks=[{"name": "big", "command": "dim",
                     "expect": "(w + x + y + 1)^40000"}])), encoding="utf-8")
        proc = self.run_cli("check", str(path), timeout=60)
        assert proc.returncode == 1
        assert proc.stderr.startswith("afd: [exponent-overflow]")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("check, code", [
        ({"name": "d", "command": "efe", "expect": ["zero"]},
         "manifest-validation-error"),
        ({"name": "d", "command": "geodesic", "curve": {}},
         "manifest-validation-error"),
        ({"name": "d", "command": "dim", "expect": "3 +"}, "syntax-error"),
        ({"name": "d", "command": "dim", "expect": "q"},
         "unknown-identifier"),
    ], ids=["list-expect", "object-curve", "dim-syntax", "dim-identifier"])
    def test_bad_check_option_exits_one(self, tmp_path, check, code):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest_with(checks=[check])),
                        encoding="utf-8")
        proc = self.run_cli("check", str(path))
        assert proc.returncode == 1
        assert proc.stderr.startswith(f"afd: [{code}]")
        assert "Traceback" not in proc.stderr

    def test_unspellable_generator_exits_one(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(manifest_with(algebra=dict(
            MINIMAL["algebra"], generators=["", "y"],
            transcendence_basis=["", "y"]))), encoding="utf-8")
        proc = self.run_cli("check", str(path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("afd: [manifest-validation-error]")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("expect", ["2^100000", "2^10000 * 2^10000"])
    def test_number_too_long_to_render_is_an_error_result(
            self, repo_root, tmp_path, expect):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not 0 < limit < len(str(2**10000)) * 2:
            pytest.skip("this interpreter prints 2^20000 in full")
        raw = json.loads((repo_root / "manifests" / "euclidean.json")
                         .read_text(encoding="utf-8"))
        raw["checks"] = [{"name": "big", "command": "dim", "expect": expect}]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        proc = self.run_cli("check", str(path))
        assert proc.returncode in (1, 2)
        assert "Traceback" not in proc.stderr
        (result,) = json.loads(proc.stdout)["results"]
        assert (result["status"], result["code"]) == (
            "error", "number-too-long")

    @pytest.mark.parametrize("expect", ["3^4000000", "2 + (1/7)^1000000"])
    def test_constant_power_past_the_bit_bound_exits_one(
            self, repo_root, tmp_path, expect):
        raw = json.loads((repo_root / "manifests" / "euclidean.json")
                         .read_text(encoding="utf-8"))
        raw["checks"] = [{"name": "big", "command": "dim", "expect": expect}]
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        proc = self.run_cli("check", str(path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("afd: [exponent-overflow]")
        assert proc.stderr.count("\n") == 1

    def test_curve_image_for_a_misspelt_generator_exits_one(
            self, repo_root, tmp_path):
        raw = json.loads((repo_root / "manifests" / "euclidean.json")
                         .read_text(encoding="utf-8"))
        raw["curves"]["line"]["zz_typo"] = "t"
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        proc = self.run_cli("check", str(path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("afd: [manifest-validation-error]")
        assert "zz_typo" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("edit, key", [
        (lambda raw: raw["checks"].append(
            {"name": "bent", "command": "geodesic", "curve": "parabola",
             "expct": "zero"}), "expct"),
        (lambda raw: raw["checks"].append(
            {"name": "flat", "command": "curvature", "expect": "nonzero"}),
         "expect"),
        (lambda raw: raw.update(lamda="1"), "lamda"),
        (lambda raw: raw["algebra"].update(generator=["x"]), "generator"),
    ], ids=["misspelt-option", "unsupported-option", "top-level", "algebra"])
    def test_unknown_key_exits_one(self, repo_root, tmp_path, capsys, edit,
                                   key):
        raw = json.loads((repo_root / "manifests" / "euclidean.json")
                         .read_text(encoding="utf-8"))
        edit(raw)
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["check", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("afd: [manifest-validation-error]")
        assert f"'{key}'" in err and err.count("\n") == 1

    def test_unwritable_out_exits_one(self, repo_root, tmp_path, capsys):
        out = tmp_path / "missing" / "report.json"
        manifest = repo_root / "manifests" / "minkowski.json"
        assert main(["check", str(manifest), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"afd: cannot write {out}")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_check_filter(self, repo_root):
        proc = self.run_cli(
            "check", str(repo_root / "manifests" / "euclidean.json"),
            "--check", "straight-line", "--check", "dimension")
        payload = json.loads(proc.stdout)
        names = [r["name"] for r in payload["results"]]
        assert names == ["dimension", "straight-line"]
