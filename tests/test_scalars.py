"""Exact scalar tower: arithmetic, GCDs, partials, substitution."""

import random
from fractions import Fraction

import pytest
from hypothesis import given

from afd import MultiPoly, ScalarContext, field_with_extension, poly_gcd
from afd.errors import (
    ContextMismatch,
    DivisionByZero,
    IncompleteBindings,
    NotDivisible,
    NotSeparable,
    ReducibleRelation,
    TargetDivisionByZero,
    UnknownVariable,
    UnsupportedTower,
)
from afd.expr import render_poly
from afd.scalars import (
    FIELD,
    POLYNOMIAL,
    Scalar,
    _gen_derivative,
    _poly_in_gen_to_elem,
)

from conftest import ext_scalars, field_scalars, nonzero_field_scalars, poly_scalars

POLY = ScalarContext(POLYNOMIAL, ("x", "y"))
ELL = field_with_extension(("x",), "y", "y^2 - x^3 - 1")
X, Y = POLY.var("x"), POLY.var("y")
EX, EY = ELL.var("x"), ELL.var("y")


class TestAddMul:
    def test_cancellation(self):
        assert (X + Y) + (X - Y) == 2 * X

    def test_rational_sum(self):
        assert POLY.const(Fraction(1, 2)) + POLY.const(Fraction(1, 3)) \
            == POLY.const(Fraction(5, 6))

    def test_extension_sum(self):
        assert EY + EY == 2 * EY

    def test_difference_of_squares(self):
        assert (X + Y) * (X - Y) == X**2 - Y**2

    def test_square_root_squares(self):
        # y stands for sqrt(x^3 + 1), so y*y reduces to x^3 + 1
        assert EY * EY == EX**3 + 1

    def test_multiply_by_zero(self):
        assert (POLY.zero() * (X**5 + 3)).is_zero

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            X + EX


class TestDiv:
    def test_gcd_cancellation(self):
        assert (X**2 - 1) / (X - 1) == X + 1

    def test_extension_inverse_oracle(self):
        # oracle: whatever 1/y is, multiplying back by y must reduce to 1
        inv = ELL.one() / EY
        assert inv * EY == ELL.one()
        # and it equals y / (x^3 + 1)
        assert inv == EY / (EX**3 + 1)

    def test_not_divisible_in_polynomial_ring(self):
        with pytest.raises(NotDivisible):
            X / (X + 1)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            X / POLY.zero()

    def test_parameter_denominators_are_allowed(self):
        ctx = ScalarContext(POLYNOMIAL, ("x",), constants=("m",))
        quotient = ctx.var("x") / ctx.var("m")
        assert quotient * ctx.var("m") == ctx.var("x")


def _random_poly(rng, variables, max_terms=6, max_deg=3):
    """A seeded sparse polynomial with signed Fraction coefficients."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in variables)
        terms[e] = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 6, 35)))
    return MultiPoly.from_terms(variables, terms)


def _schoolbook_product(a, b):
    """Reference product: Fraction arithmetic term by term."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def _assert_canonical(poly):
    for c in poly.terms.values():
        assert type(c) is Fraction and c != 0


class TestSparseProduct:
    VARS = ("x", "y", "z")

    def test_matches_schoolbook_on_random_polynomials(self):
        rng = random.Random(11)
        for trial in range(300):
            a = _random_poly(rng, self.VARS)
            b = _random_poly(rng, self.VARS)
            product = a * b
            assert product.terms == _schoolbook_product(a, b), trial
            _assert_canonical(product)
            if not b.is_zero:
                assert product.exact_div(b) == a, trial

    def test_full_cancellation(self):
        x = MultiPoly.var(self.VARS, "x")
        one = MultiPoly.const(self.VARS, 1)
        assert ((x + one) * (x - one) - (x * x - one)).is_zero
        half = MultiPoly.const(self.VARS, Fraction(1, 2))
        # (x/2 + 1/3)(x/2 - 1/3) keeps only x^2/4 - 1/9: the cross terms
        # cancel inside the integer accumulator
        third = MultiPoly.const(self.VARS, Fraction(1, 3))
        product = (half * x + third) * (half * x - third)
        assert product.terms == {(2, 0, 0): Fraction(1, 4),
                                 (0, 0, 0): Fraction(-1, 9)}
        _assert_canonical(product)

    def test_zero_and_constants(self):
        zero = MultiPoly.zero(self.VARS)
        p = _random_poly(random.Random(3), self.VARS) \
            + MultiPoly.var(self.VARS, "y")
        assert (zero * p).is_zero and (p * zero).is_zero
        c = MultiPoly.const(self.VARS, Fraction(-4, 6))
        assert (c * p).terms == p.scale(Fraction(-2, 3)).terms
        assert (c * c).terms == {(0, 0, 0): Fraction(4, 9)}
        integral = MultiPoly.const(self.VARS, Fraction(6, 3))
        assert (integral * integral).terms == {(0, 0, 0): Fraction(4)}
        _assert_canonical(c * p)
        _assert_canonical(integral * integral)


class TestPolyGcd:
    def test_linear_factor(self):
        g = poly_gcd((X**2 - 1).val, (X - 1).val)
        assert render_poly(g) == "x - 1"

    def test_coprime_variables(self):
        assert render_poly(poly_gcd(X.val, Y.val)) == "1"

    def test_monomial_times_sum(self):
        # oracle: divide both inputs by the claimed gcd and check exactness
        a, b = (X**2 * Y + X * Y**2).val, (X * Y).val
        g = poly_gcd(a, b)
        assert render_poly(g) == "x * y"
        assert a.exact_div(g) is not None
        assert b.exact_div(g) is not None

    def test_gcd_zero_zero(self):
        zero = MultiPoly.zero(("x", "y"))
        assert poly_gcd(zero, zero).is_zero

    def test_gcd_is_monic(self):
        g = poly_gcd((2 * X**2 + 2 * X).val, (4 * X).val)
        assert render_poly(g) == "x"

    def test_high_degree_trivariate_common_factor(self):
        # regression: this triple once drove the remainder sequence through
        # an eliminating variable whose coefficients swelled without bound
        ctx = ScalarContext(POLYNOMIAL, ("x", "y", "z"))
        from afd import parse_scalar

        g = parse_scalar(
            "-1/3 * x^2 * y^5 * z^5 - 2 * x^2 * y^3 * z^5"
            " - 3 * x^2 * y^2 * z + 2", ctx)
        a = parse_scalar(
            "-1/3 * x^2 * y * z^5 + 3/2 * x * y^4 * z^3 - x^2 * y * z^4", ctx)
        b = parse_scalar(
            "2 * x^4 * y^5 * z^4 - x^4 * y^4 * z - 3/2 * x * y^3 * z^5", ctx)
        d = poly_gcd((g * a).val, (g * b).val)
        assert (g * a).val.exact_div(d) is not None
        assert (g * b).val.exact_div(d) is not None
        assert d.exact_div(g.val.monic()) is not None


class TestPartial:
    def test_polynomial(self):
        assert (X**3 + 1).partial("x") == 3 * X**2

    def test_extension_generator(self):
        # d(sqrt(x^3+1))/dx = 3x^2 / (2 sqrt(x^3+1))
        expected = (3 * EX**2) / (2 * EY)
        assert EY.partial("x") == expected

    def test_parameters_are_killed(self):
        ctx = ScalarContext(POLYNOMIAL, ("x",), constants=("m",))
        m, x = ctx.var("m"), ctx.var("x")
        assert (m * x).partial("x") == m
        with pytest.raises(UnknownVariable):
            (m * x).partial("m")

    def test_unknown_variable(self):
        with pytest.raises(UnknownVariable):
            X.partial("z")

    def test_generator_derivative_is_cached_per_context(self):
        ctx = field_with_extension(("x", "z"), "y", "y^2 - x^3 - z/2 - 1")
        gen, rel = ctx.extensions[0]
        for name in ("x", "z"):
            cached = _gen_derivative(ctx, name)
            assert _gen_derivative(ctx, name) is cached
            assert ctx.extension.derivatives[name] is cached
            num = Scalar.make(ctx, _poly_in_gen_to_elem(ctx, rel.partial(name)))
            den = Scalar.make(ctx, _poly_in_gen_to_elem(ctx, rel.partial(gen)))
            assert Scalar.make(ctx, cached) == -(num / den)
        assert ctx.var("y").partial("z") == 1 / (4 * ctx.var("y"))

    def test_collapsing_generator_derivative(self):
        # (y + x)^2 + 1 = 0 forces dy/dx = -1: the implicit derivative drops
        # out of the extension level entirely
        ctx = field_with_extension(("x",), "y", "y^2 + 2*x*y + x^2 + 1")
        y = ctx.var("y")
        assert y.partial("x") == ctx.const(-1)
        # and the Leibniz rule still holds through the collapsed derivative
        a = y * ctx.var("x")
        assert a.partial("x") == y - ctx.var("x")


class TestSubstitute:
    def setup_method(self):
        self.line = ScalarContext(POLYNOMIAL, ("t",))
        self.t = self.line.var("t")

    def test_polynomial_image(self):
        value = (X**2 + Y).substitute({"x": self.t**2, "y": self.t**3})
        assert value == self.t**4 + self.t**3

    def test_field_image(self):
        field = ScalarContext(FIELD, ("x",))
        target = ScalarContext(FIELD, ("t",))
        t = target.var("t")
        value = (field.one() / field.var("x")).substitute({"x": t**2})
        assert value == target.one() / t**2

    def test_denominator_maps_to_zero(self):
        field = ScalarContext(FIELD, ("x",))
        target = ScalarContext(FIELD, ("t",))
        with pytest.raises(TargetDivisionByZero):
            (field.one() / field.var("x")).substitute({"x": target.zero()})

    def test_incomplete_bindings(self):
        with pytest.raises(IncompleteBindings):
            (X + Y).substitute({"x": self.t})


class TestCanonicalStorage:
    def test_polynomial_difference_demotes_to_rational(self):
        value = (X + 1) - X
        assert value.is_constant_rational
        assert value.as_fraction() == 1

    def test_cancelled_quotient_demotes_to_polynomial(self):
        f = ScalarContext(FIELD, ("x", "y"))
        x = f.var("x")
        value = (x**2 - 1) / (x + 1)
        assert value == x - 1
        from afd.scalars import MultiPoly as MP

        assert isinstance(value.val, MP)

    def test_collapsed_extension_element_demotes(self):
        value = EY * EY  # reduces to x^3 + 1, no generator left
        from afd.scalars import MultiPoly as MP

        assert isinstance(value.val, MP)


class TestContextValidation:
    def test_tower_rejected(self):
        rel1 = MultiPoly.from_terms(("x", "u"), {(0, 2): Fraction(1),
                                                 (1, 0): Fraction(-1)})
        rel2 = MultiPoly.from_terms(("x", "w"), {(0, 2): Fraction(1),
                                                 (2, 0): Fraction(-1)})
        with pytest.raises(UnsupportedTower):
            ScalarContext(FIELD, ("x",),
                          extensions=(("u", rel1), ("w", rel2)))

    def test_not_separable(self):
        with pytest.raises(NotSeparable):
            field_with_extension(("x",), "y", "y^2")

    def test_reducible_relation(self):
        with pytest.raises(ReducibleRelation):
            field_with_extension(("x",), "y", "y^2 - x^2")

    def test_rational_coefficient_relations(self):
        with pytest.raises(ReducibleRelation):
            field_with_extension(("x",), "y", "y^2 - 1/4")
        ctx = field_with_extension(("x",), "y", "y^2 - 1/2")
        assert ctx.var("y") ** 2 == ctx.const(Fraction(1, 2))

    def test_quartic_accepted_with_warning_flag(self):
        ctx = field_with_extension(("x",), "w", "w^4 - x^3 - x - 1")
        assert not ctx.irreducibility_verified

    def test_quartic_inverse_chain(self):
        # regression: inversion in a degree-4 extension drives a long
        # Euclidean chain over Q(x) whose rational-function reductions must
        # not blow up (univariate gcds run the monic-Euclid fast path)
        import random
        import time

        from helpers import random_poly_scalar

        ctx = field_with_extension(("x",), "w", "w^4 - x^3 - x - 1")
        w = ctx.var("w")
        rng = random.Random(5)
        started = time.monotonic()
        for trial in range(8):
            c = [random_poly_scalar(rng, ctx, max_terms=2, max_deg=1)
                 for _ in range(4)]
            s = c[0] + c[1] * w + c[2] * w**2 + c[3] * w**3
            if s.is_zero:
                continue
            assert s * s.inverse() == ctx.one(), trial
        assert time.monotonic() - started < 20

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ScalarContext(POLYNOMIAL, ("x", "x"))


# ---------------------------------------------------------------------------
# Algebraic properties on randomized values
# ---------------------------------------------------------------------------

FIELD2 = ScalarContext(FIELD, ("x", "y"))


class TestSharedExtension:
    def test_equal_contexts_give_equal_elements(self):
        # each context builds its own extension record; elements still
        # compare and hash by the relation's value
        other = field_with_extension(("x",), "y", "y^2 - x^3 - 1")
        a = EY * EX + 1
        b = other.var("y") * other.var("x") + 1
        assert a.val.ext is not b.val.ext
        assert a.val == b.val and hash(a.val) == hash(b.val)
        assert a == b and hash(a) == hash(b)
        assert (a - b).is_zero

    def test_elements_share_their_context_record(self):
        assert (EY * EY + EY).val.ext is EY.val.ext is ELL.extension


class TestFieldAxioms:
    @given(field_scalars(FIELD2), field_scalars(FIELD2), field_scalars(FIELD2))
    def test_ring_axioms_rational_functions(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(nonzero_field_scalars(FIELD2))
    def test_multiplicative_inverse(self, a):
        assert a * a.inverse() == FIELD2.one()

    @given(ext_scalars(ELL), ext_scalars(ELL), ext_scalars(ELL))
    def test_ring_axioms_extension(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(ext_scalars(ELL).filter(lambda s: not s.is_zero))
    def test_extension_inverse(self, a):
        assert a * a.inverse() == ELL.one()


class TestCalculusProperties:
    @given(ext_scalars(ELL), ext_scalars(ELL))
    def test_leibniz_rule(self, a, b):
        lhs = (a * b).partial("x")
        rhs = a.partial("x") * b + a * b.partial("x")
        assert lhs == rhs

    @given(poly_scalars(FIELD2), poly_scalars(FIELD2))
    def test_leibniz_rule_rational(self, a, b):
        q = a / (FIELD2.var("x") ** 2 + 1)
        lhs = (q * b).partial("y")
        rhs = q.partial("y") * b + q * b.partial("y")
        assert lhs == rhs

    @given(field_scalars(FIELD2))
    def test_mixed_partials_commute(self, a):
        assert a.partial("x").partial("y") == a.partial("y").partial("x")


class TestExtensionConsistency:
    @given(poly_scalars(ScalarContext(POLYNOMIAL, ("x", "y")), max_deg=2),
           poly_scalars(ScalarContext(POLYNOMIAL, ("x", "y")), max_deg=2))
    def test_lift_multiply_reduce_matches_direct(self, p, q):
        """Multiplying in Q[x, y] then reducing mod the relation agrees with
        reduced extension arithmetic."""

        def to_ext(scalar):
            v = scalar.val
            if isinstance(v, Fraction):
                return ELL.const(v)
            return Scalar.make(ELL, _poly_in_gen_to_elem(ELL, v.reordered(("x", "y"))))

        direct = to_ext(p) * to_ext(q)
        via_lift = to_ext(p * q)
        assert direct == via_lift
