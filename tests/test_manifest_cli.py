"""Manifest loading, command dispatch, report emission, CLI behaviour."""

import json
import subprocess
import sys

import pytest

from afd.cli import main
from afd.errors import ManifestParseError, ManifestValidationError
from afd.manifest import build_manifest, load_manifest
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
        assert manifest.metric_exprs[0][1] == "x"

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

    def test_curve_must_cover_generators(self):
        raw = manifest_with(curves={"c": {"x": "t"}})
        with pytest.raises(ManifestValidationError):
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
    """One run builds the connection and the curvature once for all checks."""

    @pytest.fixture
    def calls(self, monkeypatch):
        from afd import curvature

        counts = {"levi_civita": 0, "curvature_tensor": 0}

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
        assert calls == {"levi_civita": 1, "curvature_tensor": 1}

    def test_degenerate_metric_errors_every_dependent_check(self, calls):
        results = self.run([["1", "1"], ["1", "1"]])
        assert [(r["status"], r["code"]) for r in results] == [
            ("error", "degenerate-metric")] * len(GEOMETRY_CHECKS)
        assert calls == {"levi_civita": 0, "curvature_tensor": 0}

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
        assert calls == {"levi_civita": len(GEOMETRY_CHECKS),
                         "curvature_tensor": 0}

    def test_efe_checks_couplings_before_curvature(self, calls):
        (result,) = self.run([["1", "x"], ["x", "1 + x^2"]], only=["vacuum"],
                             **{"lambda": "x"})
        assert (result["status"], result["code"]) == (
            "error", "non-constant-coupling")
        assert calls == {"levi_civita": 0, "curvature_tensor": 0}


class TestEmitReport:
    def test_zero_tensor_payload(self):
        A = poly_ring("x", "y")
        payload = tensor_payload(Tensor.zero(A, 1, 2))
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

    def test_check_filter(self, repo_root):
        proc = self.run_cli(
            "check", str(repo_root / "manifests" / "euclidean.json"),
            "--check", "straight-line", "--check", "dimension")
        payload = json.loads(proc.stdout)
        names = [r["name"] for r in payload["results"]]
        assert names == ["dimension", "straight-line"]
