"""Acceptance suite: one test per criterion, exact equality throughout.

Every test prints a single PASS line (visible with ``pytest -s`` or in the
captured output) and enforces its runtime budget.  Randomized inputs are
seeded, so the suite is fully reproducible.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from afd import ScalarContext, field_with_extension, parse_scalar, render_scalar
from afd.algebraifold import Algebraifold
from afd.curvature import (
    Geometry,
    covariant_derivative,
    koszul_rhs,
    levi_civita,
    torsion,
)
from afd.manifest import load_manifest
from afd.maps import AlgebraifoldHom, FormalLine, geodesic_residual
from afd.report import emit_report, run_command
from afd.scalars import FIELD, POLYNOMIAL
from afd.tensors import Tensor, kronecker, lie_derivative, metric_inverse

from helpers import (
    elliptic_field,
    poly_ring,
    random_derivation,
    random_invertible_metric,
    random_poly_scalar,
    random_scalar,
)


def _pass(num, label, started, budget):
    elapsed = time.monotonic() - started
    assert elapsed < budget, f"criterion {num} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {num:02d} {label}: PASS ({elapsed:.2f}s)")


@pytest.fixture(scope="module")
def metric_pool():
    """The geometries of 25 randomized invertible polynomial metrics,
    degree <= 2 entries; each stage is built once and shared by the
    criteria that read it."""
    rng = random.Random(2024)
    pool = []
    for trial in range(25):
        A = poly_ring("x", "y") if trial % 2 == 0 else poly_ring("x", "y", "z")
        pool.append((A, Geometry(random_invertible_metric(rng, A))))
    return pool


def test_criterion_01_paper_exact_metric_inverse():
    started = time.monotonic()
    A = poly_ring("x", "y")
    x = A.ctx.var("x")
    m = metric_inverse(Tensor.make(A, 0, 2, {
        (1, 1): "1", (1, 2): "x", (2, 1): "x", (2, 2): "1 + x^2"}))
    assert m.inv_entry(1, 1) == 1 + x**2
    assert m.inv_entry(1, 2) == -x
    assert m.inv_entry(2, 1) == -x
    assert m.inv_entry(2, 2) == A.one
    _pass(1, "metric inverse exact", started, 1.0)


def test_criterion_02_paper_exact_derivation_values():
    started = time.monotonic()
    E = elliptic_field()
    x, y = E.ctx.var("x"), E.ctx.var("y")
    d_dx = E.basis_derivation(1)
    assert d_dx(y) == (3 * x**2) / (2 * y)
    d_dy = ((2 * y) / (3 * x**2)) * d_dx
    assert d_dy(y) == E.one
    _pass(2, "derivation values exact", started, 1.0)


def test_criterion_03_dimension_values():
    started = time.monotonic()
    for n in (1, 2, 3, 4):
        A = poly_ring(*[f"x{i}" for i in range(1, n + 1)])
        assert A.dimension() == A.ctx.const(n)
    assert elliptic_field().dimension() == elliptic_field().one
    param = Algebraifold.build(ScalarContext(
        FIELD, ("s", "x", "y", "z"), constants=("m", "j")))
    assert param.dimension() == param.ctx.const(4)
    _pass(3, "dimension values", started, 1.0)


def test_criterion_04_levi_civita_dual_construction(metric_pool):
    started = time.monotonic()
    for A, geometry in metric_pool:
        metric, connection = geometry.metric, geometry.connection
        basis = [A.basis_derivation(i) for i in range(1, A.n + 1)]
        for u in basis:
            for v in basis:
                for w in basis:
                    assert metric.pair(connection.apply(u, v), w) \
                        == koszul_rhs(metric, u, v, w)
        assert torsion(connection).is_zero
        for u in basis:
            assert covariant_derivative(connection, u, metric.g).is_zero
    _pass(4, "Koszul equivalence, torsion-free, metric-compatible",
          started, 60.0)


def test_criterion_05_curvature_identities(metric_pool):
    started = time.monotonic()
    for A, geometry in metric_pool:
        n = A.n
        R = geometry.riemann
        for l in range(1, n + 1):
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    for k in range(1, n + 1):
                        assert R.get((l, i, j, k)) == -R.get((l, j, i, k))
                        first_bianchi = R.get((l, i, j, k)) \
                            + R.get((l, j, k, i)) + R.get((l, k, i, j))
                        assert first_bianchi.is_zero
        ric = geometry.ricci
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert ric.get((i, j)) == ric.get((j, i))
        if n == 2:
            assert geometry.einstein.is_zero
    _pass(5, "curvature identities", started, 60.0)


def test_criterion_06_friedmann_einstein_algebra():
    started = time.monotonic()
    A = Algebraifold.build(ScalarContext(FIELD, ("s", "x", "y", "z")))
    s = A.ctx.var("s")
    geometry = Geometry(Tensor.make(A, 0, 2, {
        (1, 1): 9 * s**4,
        (2, 2): -(s**4), (3, 3): -(s**4), (4, 4): -(s**4)}))
    G = geometry.einstein
    # all spatial and mixed components vanish; only G_ss survives
    assert set(G.comp) == {(1, 1)}
    assert G.get((1, 1)) == A.scalar(12) / s**2
    dust = Tensor.make(A, 0, 2, {(1, 1): A.scalar(12) / s**2})
    residual = geometry.efe_residual(A.zero, A.one, dust)
    assert residual.is_zero
    _pass(6, "Friedmann Einstein algebra", started, 30.0)


def test_criterion_07_lie_derivative_suite():
    started = time.monotonic()
    A = poly_ring("x", "y")
    rng = random.Random(99)
    delta = kronecker(A)
    for _ in range(10):
        u = random_derivation(rng, A, max_deg=2)
        assert lie_derivative(u, delta).is_zero
    for _ in range(10):
        u = random_derivation(rng, A)
        T = Tensor.make(A, 1, 1, {
            (i, j): random_poly_scalar(rng, A.ctx)
            for i in (1, 2) for j in (1, 2)})
        assert lie_derivative(u, T.contract(1, 1)) \
            == lie_derivative(u, T).contract(1, 1)
    for _ in range(50):
        u = random_derivation(rng, A)
        v = random_derivation(rng, A)
        a = random_poly_scalar(rng, A.ctx)
        assert A.bracket(u, a * v) == a * A.bracket(u, v) + u(a) * v
    _pass(7, "Lie derivative suite", started, 30.0)


def test_criterion_08_homomorphism_duality():
    started = time.monotonic()
    A = poly_ring("x", "y")
    line = FormalLine.polynomial()
    L = line.algebraifold
    t = L.ctx.var("t")
    phi = AlgebraifoldHom.build(A, L, {"x": "t^2", "y": "t^3"})
    velocity = phi.differential(line.derivation)
    assert velocity.coeffs == (2 * t, 3 * t**2)
    for i in (1, 2):
        xi = A.coordinate_form(i)
        for w in (line.derivation, t * line.derivation):
            assert phi.pullback(xi)(w) \
                == phi.differential(w).pair_source_form(xi)
    _pass(8, "homomorphism duality", started, 1.0)


def test_criterion_09_geodesics():
    started = time.monotonic()
    A = poly_ring("x", "y")
    line = FormalLine.polynomial()
    L = line.algebraifold
    t = L.ctx.var("t")
    flat = levi_civita(metric_inverse(Tensor.make(
        A, 0, 2, {(1, 1): 1, (2, 2): 1})))
    straight = AlgebraifoldHom.build(A, L, {"x": "2 + 3*t", "y": "5*t"})
    assert geodesic_residual(straight, flat).is_zero
    parabola = AlgebraifoldHom.build(A, L, {"x": "t^2", "y": "0"})
    assert geodesic_residual(parabola, flat).coeffs \
        == (L.scalar(2), L.zero)
    rng = random.Random(7)
    for _ in range(5):
        alpha = Fraction(rng.choice([1, 2, 3, -1, -3]), rng.randint(1, 3))
        beta = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
        reparam = AlgebraifoldHom.build(
            L, L, {"t": L.scalar(alpha) * t + L.scalar(beta)})
        assert geodesic_residual(reparam.compose(straight), flat).is_zero
    _pass(9, "geodesics", started, 10.0)


def test_criterion_10_round_trip_and_determinism(repo_root):
    started = time.monotonic()
    contexts = [
        ScalarContext(POLYNOMIAL, ("x", "y")),
        ScalarContext(POLYNOMIAL, ("x",), constants=("m", "j")),
        ScalarContext(FIELD, ("x", "y")),
        ScalarContext(FIELD, ("s", "x", "y", "z"), constants=("m",)),
        field_with_extension(("x",), "y", "y^2 - x^3 - 1"),
    ]
    rng = random.Random(1234)
    for i in range(200):
        ctx = contexts[i % len(contexts)]
        s = random_scalar(rng, ctx)
        assert parse_scalar(render_scalar(s), ctx) == s
    for name in ("euclidean", "friedmann"):
        path = repo_root / "manifests" / f"{name}.json"
        first = emit_report(run_command(load_manifest(path), "check"), "json")
        second = emit_report(run_command(load_manifest(path), "check"), "json")
        assert first == second
        json.loads(first)
    _pass(10, "round trip and determinism", started, 30.0)
