"""Descriptors, derivations, differentials, brackets, dimension, constants."""

import random
from fractions import Fraction

import pytest
from hypothesis import given

from afd import ScalarContext, field_with_extension
from afd.algebraifold import Algebraifold, Derivation, OneForm
from afd.errors import DescriptorMismatch, NotSeparable
from afd.scalars import FIELD

from conftest import poly_scalars
from helpers import elliptic_field, poly_ring, random_derivation, random_poly_scalar

P2 = poly_ring("x", "y")
ELL = elliptic_field()
X, Y = P2.ctx.var("x"), P2.ctx.var("y")


class TestBuild:
    def test_polynomial_ring_identity_matrix(self):
        assert P2.n == 2
        for i in range(2):
            for j in range(2):
                expected = P2.one if i == j else P2.zero
                assert P2.basis_matrix[i][j] == expected

    def test_zero_and_one_are_the_context_fields(self):
        for A in (P2, ELL):
            assert A.zero is A.ctx.zero and A.one is A.ctx.one
            assert A.zero.is_zero and A.one == A.ctx.const(1)

    def test_elliptic_rank_one(self):
        assert ELL.n == 1
        assert ELL.basis_matrix[0][0] == ELL.one

    def test_degenerate_relation_not_separable(self):
        with pytest.raises(NotSeparable):
            Algebraifold.build(field_with_extension(("x",), "y", "y^2"))


class TestApplyDerivation:
    def test_coordinate_field(self):
        dx = P2.basis_derivation(1)
        assert dx(X**2 * Y) == 2 * X * Y

    def test_implicit_square_root(self):
        dx = ELL.basis_derivation(1)
        x, y = ELL.ctx.var("x"), ELL.ctx.var("y")
        assert dx(y) == (3 * x**2) / (2 * y)

    def test_rescaled_basis_exhibits_other_presentation(self):
        # (2y / 3x^2) d/dx kills nothing but acts as d/dy on the other
        # presentation: applied to x it returns its own coefficient,
        # applied to y it returns exactly 1
        x, y = ELL.ctx.var("x"), ELL.ctx.var("y")
        v = ((2 * y) / (3 * x**2)) * ELL.basis_derivation(1)
        assert v(x) == (2 * y) / (3 * x**2)
        assert v(y) == ELL.one


class TestVectorKinds:
    def test_module_operations_build_the_same_kind(self):
        u, xi = P2.basis_derivation(1), P2.coordinate_form(2)
        assert type(u + u) is Derivation and type(X * u - u) is Derivation
        assert type(xi + xi) is OneForm and type(-xi * Y) is OneForm

    @pytest.mark.parametrize("combine", [
        lambda u, xi: u + xi,
        lambda u, xi: xi + u,
        lambda u, xi: u - xi,
        lambda u, xi: xi - u,
        lambda u, xi: xi(xi),
        lambda u, xi: P2.bracket(u, xi),
    ], ids=["d+form", "form+d", "d-form", "form-d", "form(form)",
            "bracket(d,form)"])
    def test_mixed_kinds_are_rejected(self, combine):
        with pytest.raises(DescriptorMismatch):
            combine(P2.basis_derivation(1), P2.coordinate_form(2))

    def test_kinds_never_compare_equal(self):
        assert P2.basis_derivation(1) != P2.coordinate_form(1)
        assert P2.coordinate_form(2) == P2.d(Y)

    def test_other_algebraifold_is_rejected(self):
        other = poly_ring("s", "t")
        with pytest.raises(DescriptorMismatch):
            P2.basis_derivation(1) + other.basis_derivation(1)


class TestDifferential:
    def test_square(self):
        assert P2.d(X**2).coeffs == (2 * X, P2.zero)

    def test_product(self):
        assert P2.d(X * Y).coeffs == (Y, X)

    def test_extension_generator(self):
        x, y = ELL.ctx.var("x"), ELL.ctx.var("y")
        assert ELL.d(y).coeffs == ((3 * x**2) / (2 * y),)

    @given(poly_scalars(P2.ctx), poly_scalars(P2.ctx))
    def test_differential_is_a_derivation(self, a, b):
        lhs = P2.d(a * b)
        rhs = b * P2.d(a) + a * P2.d(b)
        assert lhs == rhs

    def test_pairing_with_derivation(self):
        # (da)(v) = v(a) on seeded random pairs
        for seed in range(8):
            rng = random.Random(seed)
            v = random_derivation(rng, P2)
            a = random_poly_scalar(rng, P2.ctx)
            assert P2.d(a)(v) == v(a)


class TestBracket:
    def test_coordinate_fields_commute(self):
        assert P2.bracket(P2.basis_derivation(1), P2.basis_derivation(2)).is_zero

    def test_scaling_bracket_oracle(self):
        # oracle: apply both sides to the probe scalars x and x^2
        u = X * P2.basis_derivation(1)
        v = P2.basis_derivation(1)
        w = P2.bracket(u, v)
        assert w == -P2.basis_derivation(1)
        for probe in (X, X**2):
            assert w(probe) == u(v(probe)) - v(u(probe))

    def test_module_scaling_identity(self):
        # [u, a v] = a [u, v] + u(a) v  with u = d/dx, v = d/dy, a = x
        u, v = P2.basis_derivation(1), P2.basis_derivation(2)
        lhs = P2.bracket(u, X * v)
        rhs = X * P2.bracket(u, v) + u(X) * v
        assert lhs == rhs
        assert (lhs - rhs).is_zero

    @given(poly_scalars(P2.ctx, max_deg=1), poly_scalars(P2.ctx, max_deg=1),
           poly_scalars(P2.ctx, max_deg=1))
    def test_leibniz_rule_for_derivations(self, a, b, c):
        u = Derivation(P2, (a, b))
        assert u(b * c) == u(b) * c + b * u(c)

    def test_jacobi_identity(self):
        rng = random.Random(11)
        for _ in range(6):
            u = random_derivation(rng, P2)
            v = random_derivation(rng, P2)
            w = random_derivation(rng, P2)
            total = (P2.bracket(P2.bracket(u, v), w)
                     + P2.bracket(P2.bracket(v, w), u)
                     + P2.bracket(P2.bracket(w, u), v))
            assert total.is_zero

    def test_module_scaling_randomized(self):
        rng = random.Random(13)
        for _ in range(8):
            u = random_derivation(rng, P2)
            v = random_derivation(rng, P2)
            a = random_poly_scalar(rng, P2.ctx)
            lhs = P2.bracket(u, a * v)
            rhs = a * P2.bracket(u, v) + u(a) * v
            assert lhs == rhs


class TestDualBasis:
    def test_polynomial_ring_residuals_vanish(self):
        assert all(r.is_zero for *_, r in P2.dual_basis_residuals())

    def test_elliptic_residuals_vanish(self):
        # oracle for n = 1: v(a_1) u_1 = v and eta(u_1) da_1 = eta reduce to
        # the single entry u_1(a_1) = 1
        assert ELL.basis_matrix[0][0] == ELL.one
        assert all(r.is_zero for *_, r in ELL.dual_basis_residuals())

    def test_corrupted_matrix_reports_nonzero(self):
        matrix = tuple(tuple(row) for row in P2.basis_matrix)
        corrupted = Algebraifold(P2.ctx, P2.coords, (
            (P2.zero, matrix[0][1]),
            matrix[1],
        ))
        assert any(not r.is_zero for *_, r in corrupted.dual_basis_residuals())


class TestDimension:
    def test_polynomial_rings(self):
        for n in (1, 2, 3, 4):
            A = poly_ring(*[f"x{i}" for i in range(1, n + 1)])
            assert A.dimension() == A.ctx.const(n)

    def test_elliptic(self):
        assert ELL.dimension() == ELL.one

    def test_parametrized_field(self):
        A = Algebraifold.build(ScalarContext(
            FIELD, ("s", "x", "y", "z"), constants=("m", "j")))
        assert A.dimension() == A.ctx.const(4)

    def test_dimension_is_constant(self):
        for A in (P2, ELL):
            assert A.is_constant(A.dimension())


class TestConstantsCheck:
    def test_rational(self):
        assert P2.is_constant(P2.ctx.const(Fraction(7, 3)))

    def test_parameters(self):
        A = Algebraifold.build(ScalarContext(
            FIELD, ("s",), constants=("m", "j")))
        assert A.is_constant(A.ctx.var("m") * A.ctx.var("j"))

    def test_coordinate_is_not_constant(self):
        assert not P2.is_constant(X)
