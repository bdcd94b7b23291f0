"""Tests of the benchmark's tracing and verification.

Run with: python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import workloads  # noqa: E402
from tracing import SpanLog, Tracer  # noqa: E402

GCD, MUL, MAKE = 0, 1, 2


@pytest.fixture(autouse=True)
def _restore_modules():
    """Workload setup re-imports afd; give later tests their modules back."""
    saved = dict(sys.modules)
    yield
    for name in set(sys.modules) - set(saved):
        del sys.modules[name]
    sys.modules.update(saved)


def test_self_time_on_recursive_span_tree():
    log = SpanLog()
    make = log.add(MAKE, -1, 0.0, 20.0)
    outer = log.add(GCD, make, 1.0, 11.0)
    inner = log.add(GCD, outer, 2.0, 6.0)
    innermost = log.add(GCD, inner, 3.0, 4.0)
    log.add(MUL, inner, 4.5, 5.0)
    log.add(MUL, outer, 7.0, 9.0)
    second = log.add(GCD, make, 12.0, 13.0)

    own = log.self_times()
    assert own[make] == pytest.approx(20.0 - 10.0 - 1.0)
    assert own[outer] == pytest.approx(10.0 - 4.0 - 2.0)
    assert own[inner] == pytest.approx(4.0 - 1.0 - 0.5)
    assert own[innermost] == pytest.approx(1.0)
    # Summed over every gcd span, each instant inside gcd code counts once:
    # the outermost gcd spans cover 11 s, of which 2.5 s is in mul.
    gcd_self = sum(t for span, t in enumerate(own) if log.target[span] == GCD)
    assert gcd_self == pytest.approx(11.0 - 2.5)
    assert sum(own) == pytest.approx(20.0)
    assert log.outermost(GCD) == [outer, second]


def test_failed_checks_counts_each_differing_check():
    expected = [{"name": "a", "status": "pass"},
                {"name": "b", "status": "info"}]
    assert workloads._failed_checks(
        [{"name": "a", "status": "pass"}, {"name": "b", "status": "fail"}],
        expected) == 1
    assert workloads._failed_checks(expected[:1], expected) == 1
    # Identical results but different report bytes: every check fails.
    assert workloads._failed_checks(list(expected), expected) == 2


def _reports(workload):
    return [workload.report.emit_report(workload.report.run_command(
        workload.manifest.load_manifest(path), "check"))
        for path, _, _ in workload.inputs]


def test_traced_reports_are_byte_identical_to_untraced():
    workload = workloads.bundled(seed=0)
    workload.setup()
    untraced = _reports(workload)
    original = workload.report.levi_civita

    tracer = Tracer()
    tracer.install()
    try:
        assert workload.report.levi_civita is not original
        traced = _reports(workload)
        assert workload.run_pass().failed == 0
    finally:
        tracer.uninstall()

    assert traced == untraced
    assert workload.report.levi_civita is original
    summary = tracer.summary(passes=2)
    assert summary["curvature.levi_civita.calls"][0] > 0
    assert summary["scalars.poly_gcd.top_calls"][0] > 0
