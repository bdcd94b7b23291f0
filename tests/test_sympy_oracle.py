"""The curvature pipeline against sympy, an outside oracle.

Every afd value is carried to sympy through its canonical text
(``render_scalar`` -> ``sympy.parse_expr``) and compared exactly: the
difference from sympy's own result must ``sympy.cancel`` to zero.  sympy
inverts the metric (over the extension it checks ``g g^-1 = 1`` on afd's
inverse instead) and differentiates independently of afd; the Riemann
convention is the one of ``curvature_tensor``:

    R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
        + sum_m (Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik}),

and ``Ric_{jk} = sum_i R^i_{ijk}``.  Over the extension of
``perfbench/ks_extension.json`` the generator ``r`` is a sympy symbol with
``d r/dx = x/r`` and ``d r/dy = y/r``, and each difference's numerator is
reduced modulo ``r^2 - x^2 - y^2``.
"""

import random
from itertools import product

import pytest

from afd import Geometry, render_scalar
from afd.manifest import load_manifest

from helpers import (
    function_field,
    poly_ring,
    random_field_scalar,
    random_invertible_metric,
    random_poly_scalar,
)

sympy = pytest.importorskip("sympy")
parser = pytest.importorskip("sympy.parsing.sympy_parser")
TRANSFORMATIONS = parser.standard_transformations + (parser.convert_xor,)


class Oracle:
    """sympy's side of one metric: the symbols of its context, a derivative
    along each coordinate, and the test that a difference vanishes."""

    def __init__(self, A, chain=None, relation=None):
        ctx = A.ctx
        self.symbols = {name: sympy.Symbol(name)
                        for name in ctx.all_vars + ctx.extension_gens}
        self.coords = [self.symbols[name] for name in ctx.transcendentals]
        self.chain = chain or {}    # generator -> its coordinate partials
        self.relation = relation

    def to_sympy(self, value):
        return sympy.parse_expr(render_scalar(value), local_dict=self.symbols,
                                transformations=TRANSFORMATIONS)

    def partial(self, expr, a):
        """d expr / d coordinate a (0-based), generators by the chain rule."""
        out = sympy.diff(expr, self.coords[a])
        for gen, partials in self.chain.items():
            out += sympy.diff(expr, gen) * partials[a]
        return out

    def vanishes(self, expr):
        if self.relation is None:
            return sympy.cancel(expr) == 0
        num, _ = sympy.fraction(sympy.together(expr))
        gen, rel = self.relation
        return sympy.rem(sympy.expand(num), rel, gen) == 0

    def matrix(self, tensor, n):
        return sympy.Matrix(n, n, lambda i, j: self.to_sympy(
            tensor.get((i + 1, j + 1))))

    def christoffel(self, g, g_inv):
        """Gamma[k][i][j] = (1/2) g^{kl} (d_j g_il + d_i g_jl - d_l g_ij)."""
        n = g.shape[0]
        d = [[[self.partial(g[b, c], a) for c in range(n)] for b in range(n)]
             for a in range(n)]
        return [[[sum(g_inv[k, l] * (d[j][i][l] + d[i][j][l] - d[l][i][j])
                      for l in range(n)) / 2
                  for j in range(n)] for i in range(n)] for k in range(n)]

    def riemann(self, gamma):
        n = len(gamma)
        R = {}
        for l, i, j, k in product(range(n), repeat=4):
            R[l, i, j, k] = (
                self.partial(gamma[l][j][k], i)
                - self.partial(gamma[l][i][k], j)
                + sum(gamma[l][i][m] * gamma[m][j][k]
                      - gamma[l][j][m] * gamma[m][i][k] for m in range(n)))
        return R


def assert_christoffel(oracle, geometry, g_inv):
    """afd's Levi-Civita symbols equal sympy's; returns sympy's."""
    n = geometry.algebraifold.n
    gamma = oracle.christoffel(oracle.matrix(geometry.g, n), g_inv)
    connection = geometry.connection
    assert connection.gamma.comp, "a flat metric checks no derivative"
    for k, i, j in product(range(n), repeat=3):
        mine = oracle.to_sympy(connection.coeff(k + 1, i + 1, j + 1))
        assert oracle.vanishes(mine - gamma[k][i][j]), (k + 1, i + 1, j + 1)
    return gamma


def random_geometry(A, entry=random_poly_scalar):
    """Seed 0 draws a curved metric in each of the rings used below."""
    return Geometry(A, random_invertible_metric(random.Random(0), A, entry))


def sympy_inverse(oracle, geometry):
    n = geometry.algebraifold.n
    return oracle.matrix(geometry.g, n).inv().applyfunc(sympy.cancel)


class TestPolynomialMetric2D:
    def test_christoffel_riemann_and_ricci(self):
        geometry = random_geometry(poly_ring("x", "y"))
        oracle = Oracle(geometry.algebraifold)
        gamma = assert_christoffel(oracle, geometry,
                                   sympy_inverse(oracle, geometry))
        R = oracle.riemann(gamma)
        riemann = geometry.riemann
        assert riemann.comp, "a flat metric checks no curvature"
        for idx, value in R.items():
            mine = oracle.to_sympy(riemann.get(tuple(m + 1 for m in idx)))
            assert oracle.vanishes(mine - value), idx
        for j, k in product(range(2), repeat=2):
            mine = oracle.to_sympy(geometry.ricci.get((j + 1, k + 1)))
            assert oracle.vanishes(mine - sum(R[i, i, j, k] for i in range(2)))


class TestChristoffel:
    def test_rational_metric_2d(self):
        geometry = random_geometry(function_field("x", "y"),
                                   random_field_scalar)
        oracle = Oracle(geometry.algebraifold)
        assert_christoffel(oracle, geometry, sympy_inverse(oracle, geometry))

    def test_polynomial_metric_3d(self):
        geometry = random_geometry(poly_ring("x", "y", "z"))
        oracle = Oracle(geometry.algebraifold)
        assert_christoffel(oracle, geometry, sympy_inverse(oracle, geometry))

    def test_kerr_schild_over_an_extension(self, repo_root):
        manifest = load_manifest(repo_root / "perfbench" / "ks_extension.json")
        A = manifest.algebraifold
        geometry = Geometry(A, manifest.metric)
        r, x, y = sympy.symbols("r x y")
        oracle = Oracle(A, chain={r: (0, x / r, y / r)},
                        relation=(r, r**2 - x**2 - y**2))
        n = A.n
        g = oracle.matrix(geometry.g, n)
        g_inv = oracle.matrix(geometry.metric.g_inv, n)
        # afd's inverse is checked first, then used for sympy's symbols
        product_ = g * g_inv - sympy.eye(n)
        assert all(oracle.vanishes(product_[i, j])
                   for i, j in product(range(n), repeat=2))
        assert_christoffel(oracle, geometry, g_inv)
