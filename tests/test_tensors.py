"""Tensor algebra, contraction, Lie derivatives, metrics, musical maps."""

import random
from functools import reduce
from itertools import product
from operator import mul

import pytest

from afd import field_with_extension
from afd.algebraifold import Algebraifold
from afd.errors import (
    ArityMismatch,
    Degenerate,
    DescriptorMismatch,
    NotDivisible,
    NotInvertibleInAlgebra,
    NotSymmetric,
    SlotOutOfRange,
)
from afd.scalars import (
    FIELD,
    POLYNOMIAL,
    Scalar,
    ScalarContext,
    _require_in_polynomial_ring,
)
from afd.tensors import (
    Tensor,
    kronecker,
    lie_derivative,
    metric_inverse,
    musical_flat,
    musical_sharp,
)

from helpers import (
    elliptic_field,
    function_field,
    poly_ring,
    random_derivation,
    random_field_scalar,
    random_invertible_metric,
    random_poly_scalar,
    random_scalar,
)

P2 = poly_ring("x", "y")
X, Y = P2.ctx.var("x"), P2.ctx.var("y")

POLY_METRIC = Tensor.make(P2, 0, 2, {
    (1, 1): "1", (1, 2): "x", (2, 1): "x", (2, 2): "1 + x^2"})


class TestTensorProduct:
    def test_kronecker_squared(self):
        d = kronecker(P2)
        dd = d.tensor(d)
        assert dd.rank == (2, 2)
        for i in (1, 2):
            for j in (1, 2):
                for k in (1, 2):
                    for l in (1, 2):
                        expected = P2.one if i == j and k == l else P2.zero
                        assert dd.get((i, k, j, l)) == expected

    def test_scalar_factor(self):
        T = Tensor.make(P2, 1, 1, {(1, 2): X})
        scaled = Tensor.scalar_tensor(P2, 3).tensor(T)
        assert scaled.rank == (1, 1)
        assert scaled.get((1, 2)) == 3 * X

    def test_dx_tensor_dy(self):
        dx = Tensor.make(P2, 0, 1, {(1,): 1})
        dy = Tensor.make(P2, 0, 1, {(2,): 1})
        prod = dx.tensor(dy)
        assert prod.rank == (0, 2)
        assert prod.comp == {(1, 2): P2.one}


class TestContract:
    def test_kronecker_trace_is_dimension(self):
        assert kronecker(P2).contract(1, 1).as_scalar() == P2.ctx.const(2)

    def test_kronecker_trace_across_instances(self):
        instances = [poly_ring(*[f"x{i}" for i in range(1, n + 1)])
                     for n in (1, 3, 4)] + [elliptic_field()]
        for A in instances:
            assert kronecker(A).contract(1, 1).as_scalar() == A.dimension()

    def test_form_against_derivation(self):
        dx = Tensor.make(P2, 0, 1, {(1,): 1})
        dy_dir = Tensor.make(P2, 1, 0, {(2,): 1})
        paired = dy_dir.tensor(dx).contract(1, 1)
        assert paired.as_scalar().is_zero

    def test_metric_against_inverse(self):
        m = metric_inverse(POLY_METRIC)
        prod = m.g.tensor(m.g_inv)
        assert prod.contract(1, 1) == kronecker(P2)

    def test_slot_out_of_range(self):
        with pytest.raises(SlotOutOfRange):
            kronecker(P2).contract(2, 1)


def reference_evaluate(T, oneforms, derivations):
    """The pairing as a sum over every stored component."""
    slots = [x.coeffs for x in (*oneforms, *derivations)]
    total = T.algebraifold.zero
    for idx, value in T.comp.items():
        factors = [c[i - 1] for c, i in zip(slots, idx)]
        if all(factors):  # a zero coefficient kills the component
            total = total + reduce(mul, factors, value)
    return total


EVALUATE_ALGEBRAS = {
    "polynomial": poly_ring("x", "y", "z"),
    "function_field": function_field("x", "y"),
    "elliptic_field": Algebraifold.build(
        field_with_extension(("x", "z"), "y", "y^2 - x^3 - 1")),
}


def _mixed_coefficient(rng, A):
    """Zero, 1, -1 or a general scalar, each a quarter of the time."""
    pick = rng.randrange(4)
    if pick == 3:
        return random_scalar(rng, A.ctx)
    return A.scalar((0, 1, -1)[pick])


class TestEvaluate:
    @pytest.mark.parametrize("rank", [(0, 2), (2, 0), (1, 1), (1, 3)],
                             ids=lambda rank: "%d-%d" % rank)
    @pytest.mark.parametrize("name", sorted(EVALUATE_ALGEBRAS))
    def test_support_walk_matches_every_component_loop(self, name, rank):
        A = EVALUATE_ALGEBRAS[name]
        r, s = rank
        rng = random.Random(f"{name}{rank}")
        for trial in range(6):
            T = Tensor.make(A, r, s, {
                idx: random_scalar(rng, A.ctx)
                for idx in product(range(1, A.n + 1), repeat=r + s)
                if rng.random() < 0.6})
            args = [[_mixed_coefficient(rng, A) for _ in range(A.n)]
                    for _ in range(r + s)]
            if trial == 0:
                args[-1] = [A.zero] * A.n
            oneforms = [A.one_form(*c) for c in args[:r]]
            derivations = [A.derivation(*c) for c in args[r:]]
            assert (T.evaluate(oneforms, derivations)
                    == reference_evaluate(T, oneforms, derivations)), trial

    def test_scalar_tensor_evaluates_to_its_value(self):
        assert Tensor.scalar_tensor(P2, X).evaluate((), ()) == X
        assert Tensor.scalar_tensor(P2, 0).evaluate((), ()).is_zero

    def test_descriptor_mismatch(self):
        T = Tensor.make(P2, 1, 1, {(1, 2): X})
        dx, d1 = P2.coordinate_form(1), P2.basis_derivation(1)
        other = poly_ring("x", "z")
        with pytest.raises(DescriptorMismatch):
            T.evaluate((d1,), (d1,))
        with pytest.raises(DescriptorMismatch):
            T.evaluate((dx,), (dx,))
        with pytest.raises(DescriptorMismatch):
            T.evaluate((dx,), (other.basis_derivation(1),))

    def test_metric_on_basis(self):
        m = metric_inverse(POLY_METRIC)
        value = m.g.evaluate((), (P2.basis_derivation(1), P2.basis_derivation(2)))
        assert value == X

    def test_zero_derivation(self):
        m = metric_inverse(POLY_METRIC)
        zero = P2.derivation(0, 0)
        assert m.g.evaluate((), (P2.basis_derivation(1), zero)).is_zero

    def test_kronecker_scaled_argument(self):
        value = kronecker(P2).evaluate(
            (P2.coordinate_form(2),), (X * P2.basis_derivation(2),))
        assert value == X

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            kronecker(P2).evaluate((), (P2.basis_derivation(1),))
        with pytest.raises(ArityMismatch):
            POLY_METRIC.evaluate((P2.coordinate_form(1),), ())

    def test_linearity_in_each_slot(self):
        rng = random.Random(5)
        T = Tensor.make(P2, 1, 1, {
            (i, j): random_poly_scalar(rng, P2.ctx)
            for i in (1, 2) for j in (1, 2)})
        a = random_poly_scalar(rng, P2.ctx)
        xi = P2.one_form(*[random_poly_scalar(rng, P2.ctx) for _ in range(2)])
        v = random_derivation(rng, P2)
        assert T.evaluate((a * xi,), (v,)) == a * T.evaluate((xi,), (v,))
        assert T.evaluate((xi,), (a * v,)) == a * T.evaluate((xi,), (v,))


class TestLieDerivative:
    def test_translation_kills_dx(self):
        dx = Tensor.make(P2, 0, 1, {(1,): 1})
        assert lie_derivative(P2.basis_derivation(1), dx).is_zero

    def test_scaling_field_on_dx(self):
        # oracle: (L_u xi)(v) = u(xi(v)) - xi([u, v]) evaluated on v = d/dx
        u = X * P2.basis_derivation(1)
        dx = Tensor.make(P2, 0, 1, {(1,): 1})
        result = lie_derivative(u, dx)
        assert result.comp == {(1,): P2.one}

    def test_kronecker_is_invariant(self):
        u = P2.derivation("x^2", "y")
        assert lie_derivative(u, kronecker(P2)).is_zero

    def test_kronecker_invariant_randomized(self):
        rng = random.Random(23)
        for _ in range(10):
            u = random_derivation(rng, P2, max_deg=2)
            assert lie_derivative(u, kronecker(P2)).is_zero

    def test_reduces_to_application_on_scalars(self):
        rng = random.Random(29)
        u = random_derivation(rng, P2)
        a = random_poly_scalar(rng, P2.ctx)
        result = lie_derivative(u, Tensor.scalar_tensor(P2, a))
        assert result.as_scalar() == u(a)

    def test_reduces_to_bracket_on_derivations(self):
        rng = random.Random(31)
        u = random_derivation(rng, P2)
        v = random_derivation(rng, P2)
        as_tensor = Tensor.make(P2, 1, 0, {(1,): v.coeffs[0], (2,): v.coeffs[1]})
        result = lie_derivative(u, as_tensor)
        bracket = P2.bracket(u, v)
        assert result.get((1,)) == bracket.coeffs[0]
        assert result.get((2,)) == bracket.coeffs[1]

    def test_leibniz_over_tensor_product(self):
        rng = random.Random(37)
        u = random_derivation(rng, P2)
        S = Tensor.make(P2, 0, 1, {(1,): random_poly_scalar(rng, P2.ctx),
                                   (2,): random_poly_scalar(rng, P2.ctx)})
        T = Tensor.make(P2, 1, 0, {(1,): random_poly_scalar(rng, P2.ctx),
                                   (2,): random_poly_scalar(rng, P2.ctx)})
        lhs = lie_derivative(u, S.tensor(T))
        rhs = lie_derivative(u, S).tensor(T) + S.tensor(lie_derivative(u, T))
        assert lhs == rhs

    def test_commutes_with_contraction(self):
        rng = random.Random(41)
        for _ in range(6):
            u = random_derivation(rng, P2)
            T = Tensor.make(P2, 1, 1, {
                (i, j): random_poly_scalar(rng, P2.ctx)
                for i in (1, 2) for j in (1, 2)})
            lhs = lie_derivative(u, T.contract(1, 1))
            rhs = lie_derivative(u, T).contract(1, 1)
            assert lhs == rhs

    def test_k_linear_in_tensor(self):
        rng = random.Random(43)
        u = random_derivation(rng, P2)
        S = Tensor.make(P2, 0, 2, {(1, 1): random_poly_scalar(rng, P2.ctx)})
        T = Tensor.make(P2, 0, 2, {(2, 2): random_poly_scalar(rng, P2.ctx)})
        assert lie_derivative(u, S + T) == \
            lie_derivative(u, S) + lie_derivative(u, T)


class TestMetricInverse:
    def test_worked_two_by_two(self):
        m = metric_inverse(POLY_METRIC)
        assert m.inv_entry(1, 1) == 1 + X**2
        assert m.inv_entry(1, 2) == -X
        assert m.inv_entry(2, 1) == -X
        assert m.inv_entry(2, 2) == P2.one

    def test_identity(self):
        g = Tensor.make(P2, 0, 2, {(1, 1): 1, (2, 2): 1})
        m = metric_inverse(g)
        assert m.g_inv == Tensor.make(P2, 2, 0, {(1, 1): 1, (2, 2): 1})

    def test_not_invertible_in_polynomial_ring(self):
        A = poly_ring("x")
        g = Tensor.make(A, 0, 2, {(1, 1): "x"})
        with pytest.raises(NotInvertibleInAlgebra):
            metric_inverse(g)

    def test_field_context_inverts_nonconstant(self):
        E = elliptic_field()
        g = Tensor.make(E, 0, 2, {(1, 1): "x"})
        m = metric_inverse(g)
        assert m.inv_entry(1, 1) == E.one / E.ctx.var("x")

    def test_degenerate(self):
        g = Tensor.make(P2, 0, 2, {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): 1})
        with pytest.raises(Degenerate):
            metric_inverse(g)

    def test_not_symmetric(self):
        g = Tensor.make(P2, 0, 2, {(1, 2): X, (2, 1): Y})
        with pytest.raises(NotSymmetric):
            metric_inverse(g)

    def test_double_inverse_randomized(self):
        rng = random.Random(47)
        for _ in range(5):
            g = random_invertible_metric(rng, P2)
            m = metric_inverse(g)
            # invert the inverse: swap roles by viewing g_inv as a metric
            back = metric_inverse(Tensor.make(P2, 0, 2, dict(m.g_inv.comp)))
            assert back.g_inv.comp == g.comp


def _fraction_field(ctx):
    if ctx.kind == FIELD:
        return ctx
    return ScalarContext(FIELD, ctx.transcendentals, ctx.constants)


def reference_matrix_inverse(ctx, rows):
    """Exact Gauss-Jordan inverse of a Scalar matrix, computed over the
    fraction field of the context and returned as Scalars of the context.

    Raises Degenerate when the determinant vanishes, and in a polynomial
    context NotInvertibleInAlgebra when an entry of the inverse lies only in
    the fraction field.
    """
    field = _fraction_field(ctx)
    n = len(rows)
    # the augmented rows [A | I]; elimination leaves [I | A^-1]
    work = [[Scalar(field, v.val) for v in row]
            + [field.one if i == j else field.zero for j in range(n)]
            for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next((r for r in range(col, n)
                      if not work[r][col].is_zero), None)
        if pivot is None:
            raise Degenerate("matrix is singular")
        work[col], work[pivot] = work[pivot], work[col]
        inv = work[col][col].inverse()
        work[col] = [inv * v for v in work[col]]
        for r in range(n):
            if r == col:
                continue
            factor = work[r][col]
            if factor.is_zero:
                continue
            work[r] = [a - factor * b for a, b in zip(work[r], work[col])]
    inverse = [[Scalar(ctx, v.val) for v in row[n:]] for row in work]
    if ctx.kind == POLYNOMIAL:
        for row in inverse:
            for s in row:
                try:
                    _require_in_polynomial_ring(s)
                except NotDivisible:
                    raise NotInvertibleInAlgebra(
                        "inverse exists only in the fraction field") from None
    return inverse


def random_symmetric_metric(rng, A, entry=random_scalar):
    """A symmetric matrix of random entries: its determinant is in general
    no constant, and in a polynomial context no unit."""
    entries = {}
    for i in range(1, A.n + 1):
        for j in range(i, A.n + 1):
            entries[(i, j)] = entries[(j, i)] = entry(rng, A.ctx)
    return Tensor.make(A, 0, 2, entries)


def inverse_or_error(algebraifold, g, invert):
    """The inverse entries of g by ``invert``, or the error it raised."""
    n = algebraifold.n
    rows = [[g.get((i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
    try:
        return invert(algebraifold.ctx, rows)
    except (Degenerate, NotInvertibleInAlgebra) as exc:
        return type(exc)


POLY_M = poly_ring("x", "y", constants=("m",))
M = POLY_M.ctx.var("m")


class TestInverseAgainstGaussJordan:
    """metric_inverse against the Gauss-Jordan elimination it replaced."""

    @staticmethod
    def assert_matches_reference(A, g):
        expected = inverse_or_error(A, g, reference_matrix_inverse)
        if isinstance(expected, type):
            with pytest.raises(expected):
                metric_inverse(g)
            return expected
        n = A.n
        m = metric_inverse(g)
        assert m.g_inv == Tensor.make(A, 2, 0, {
            (i + 1, j + 1): expected[i][j]
            for i in range(n) for j in range(n)})
        return None

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_polynomial_contexts(self, n):
        rng = random.Random(1300 + n)
        A = poly_ring(*[f"x{i}" for i in range(1, n + 1)], constants=("m",))
        outcomes = set()
        for _ in range(4):
            assert self.assert_matches_reference(
                A, random_invertible_metric(rng, A)) is None
            outcomes.add(self.assert_matches_reference(
                A, random_symmetric_metric(rng, A, lambda rng, ctx:
                                           random_poly_scalar(rng, ctx, 2, 1))))
        assert NotInvertibleInAlgebra in outcomes

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_rational_function_contexts(self, n):
        rng = random.Random(1310 + n)
        A = function_field(*[f"x{i}" for i in range(1, n + 1)])
        outcomes = set()
        for _ in range(2):
            assert self.assert_matches_reference(A, random_invertible_metric(
                rng, A, random_field_scalar)) is None
            outcomes.add(self.assert_matches_reference(
                A, random_symmetric_metric(rng, A)))
        assert None in outcomes

    @pytest.mark.parametrize("ctx", [
        elliptic_field().ctx,
        field_with_extension(("x", "z"), "y", "y^2 - x^3 - 1"),
        field_with_extension(("t", "x", "y"), "r", "r^2 - x^2 - y^2",
                             constants=("m",))],
        ids=["elliptic", "elliptic-2d", "kerr-schild-3d"])
    def test_extension_contexts(self, ctx):
        rng = random.Random(1320)
        A = Algebraifold.build(ctx)
        outcomes = {self.assert_matches_reference(
            A, random_symmetric_metric(rng, A)) for _ in range(3)}
        assert None in outcomes

    def test_kerr_schild_manifests(self, repo_root):
        from afd.manifest import load_manifest

        for path in ("perfbench/ks_extension.json",
                     "tests/fixtures/schwarzschild_ks.json"):
            manifest = load_manifest(repo_root / path)
            assert self.assert_matches_reference(
                manifest.algebraifold, manifest.metric) is None

    def test_constant_unit_of_polynomial_ring(self):
        # m is a unit of Q(m)[x, y]: diag(m, 1) inverts to diag(1/m, 1)
        g = Tensor.make(POLY_M, 0, 2, {(1, 1): M, (2, 2): 1})
        assert self.assert_matches_reference(POLY_M, g) is None
        assert metric_inverse(g).g_inv == Tensor.make(
            POLY_M, 2, 0, {(1, 1): POLY_M.one / M, (2, 2): 1})

    def test_determinant_not_a_unit(self):
        # det = m - x^2 involves a coordinate
        g = Tensor.make(POLY_M, 0, 2, {
            (1, 1): M, (1, 2): "x", (2, 1): "x", (2, 2): 1})
        assert self.assert_matches_reference(POLY_M, g) \
            is NotInvertibleInAlgebra

    @pytest.mark.parametrize("A, entries", [
        (POLY_M, {(1, 1): "x", (1, 2): "x*y", (2, 1): "x*y",
                  (2, 2): "x*y^2"}),
        (poly_ring("x", "y", "z"), {(1, 1): 1, (1, 3): "x", (3, 1): "x",
                                    (3, 3): "x^2", (2, 2): "y"}),
        (function_field("x", "y"), {(1, 1): "1/x", (1, 2): 1, (2, 1): 1,
                                    (2, 2): "x"}),
        (elliptic_field(), {}),
        (Algebraifold.build(field_with_extension(
            ("x", "z"), "y", "y^2 - x^3 - 1")),
         {(1, 1): "y", (1, 2): "x^3 + 1", (2, 1): "x^3 + 1",
          (2, 2): "x^3*y + y"})])
    def test_singular_stays_degenerate(self, A, entries):
        g = Tensor.make(A, 0, 2, entries)
        assert self.assert_matches_reference(A, g) is Degenerate

    def test_kerr_inverse(self, repo_root):
        # Kerr-Schild Kerr over Q(m, a)(t, x, y, z)[r], r quartic
        from afd.manifest import load_manifest

        manifest = load_manifest(repo_root / "tests/fixtures/kerr.json")
        A = manifest.algebraifold
        m = metric_inverse(manifest.metric)
        for i in range(1, 5):
            for k in range(1, 5):
                total = A.zero
                for j in range(1, 5):
                    total = total + m.entry(i, j) * m.inv_entry(j, k)
                assert total == (A.one if i == k else A.zero)


class TestMusical:
    def test_flat_identity_metric(self):
        g = Tensor.make(P2, 0, 2, {(1, 1): 1, (2, 2): 1})
        m = metric_inverse(g)
        assert musical_flat(m, P2.basis_derivation(1)) == P2.coordinate_form(1)

    def test_flat_worked_metric(self):
        # oracle: contract g against d/dx by hand: (g_11, g_21) = (1, x)
        m = metric_inverse(POLY_METRIC)
        flat = musical_flat(m, P2.basis_derivation(1))
        assert flat == P2.one_form(1, "x")

    def test_sharp_inverts_flat(self):
        m = metric_inverse(POLY_METRIC)
        v = P2.basis_derivation(2)
        assert musical_sharp(m, musical_flat(m, v)) == v

    def test_sharp_flat_random(self):
        rng = random.Random(53)
        m = metric_inverse(POLY_METRIC)
        for _ in range(5):
            v = random_derivation(rng, P2)
            assert musical_sharp(m, musical_flat(m, v)) == v
