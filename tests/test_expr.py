"""Expression grammar: parsing, canonical rendering, round trips."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given

from afd import ScalarContext, field_with_extension, parse_scalar, render_scalar
from afd.errors import ExprSyntaxError, NotDivisible, UnknownIdentifier
from afd.expr import MAX_NESTING
from afd.scalars import FIELD, POLYNOMIAL

from conftest import ext_scalars, field_scalars, poly_scalars
from helpers import random_scalar

POLY = ScalarContext(POLYNOMIAL, ("x", "y"))
FIELD2 = ScalarContext(FIELD, ("x", "y"))
ELL = field_with_extension(("x",), "y", "y^2 - x^3 - 1")


class TestParse:
    def test_polynomial(self):
        assert parse_scalar("1 + x^2", POLY) == POLY.var("x") ** 2 + 1

    def test_elliptic_derivative_expression(self):
        value = parse_scalar("3*x^2 / (2*y)", ELL)
        assert value == (3 * ELL.var("x") ** 2) / (2 * ELL.var("y"))
        # same element as the implicit derivative of y
        assert value == ELL.var("y").partial("x")

    def test_syntax_error_position(self):
        with pytest.raises(ExprSyntaxError) as err:
            parse_scalar("x +", POLY)
        assert err.value.position == 3
        assert err.value.expected

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifier):
            parse_scalar("x + q", POLY)

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError):
            parse_scalar("x + $", POLY)

    def test_trailing_tokens(self):
        with pytest.raises(ExprSyntaxError):
            parse_scalar("x 2", POLY)

    def test_unary_minus_binds_before_power(self):
        # factor := base ["^" int] with base := "-" base: -2^2 is (-2)^2
        assert parse_scalar("-2^2", POLY) == POLY.const(4)

    def test_rational_literal(self):
        assert parse_scalar("1/2", POLY) == POLY.const(Fraction(1, 2))

    def test_negative_exponent_field_only(self):
        assert parse_scalar("x^-2", FIELD2) == FIELD2.one() / FIELD2.var("x") ** 2
        with pytest.raises(ExprSyntaxError):
            parse_scalar("x^-2", POLY)

    def test_division_error_propagates(self):
        with pytest.raises(NotDivisible):
            parse_scalar("x / (x + 1)", POLY)

    def test_parentheses(self):
        assert parse_scalar("(x + y)^2", POLY) == (POLY.var("x") + POLY.var("y")) ** 2


    def test_nesting_limit(self):
        depth = MAX_NESTING
        assert parse_scalar("(" * depth + "x" + ")" * depth, POLY) == POLY.var("x")
        assert parse_scalar("-" * depth + "x", POLY) == POLY.var("x")
        with pytest.raises(ExprSyntaxError) as err:
            parse_scalar("(" * (depth + 1) + "x" + ")" * (depth + 1), POLY)
        assert err.value.position == depth
        with pytest.raises(ExprSyntaxError):
            parse_scalar("-(" * depth + "x" + ")" * depth, POLY)

    @pytest.mark.parametrize("text, position", [("\u00b2", 0), ("x^\u00b2", 2)])
    def test_digit_that_is_not_decimal(self, text, position):
        # a superscript two is a digit to str.isdigit but not to int()
        with pytest.raises(ExprSyntaxError) as err:
            parse_scalar(text, POLY)
        assert err.value.position == position
        # decimal digits of other scripts are integers, as int() reads them
        assert parse_scalar("x^\u0663", POLY) == POLY.var("x") ** 3

    def test_integer_past_the_digit_limit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integers of any length")
        digits = "9" * (limit + 1)
        for text, position in ((digits, 0), ("x^" + digits, 2)):
            with pytest.raises(ExprSyntaxError) as err:
                parse_scalar(text, POLY)
            assert err.value.position == position
        assert parse_scalar("9" * limit, POLY) == POLY.const(10**limit - 1)


class TestRender:
    def test_polynomial(self):
        assert render_scalar(POLY.var("x") ** 2 - POLY.var("y") ** 2) == "x^2 - y^2"

    def test_rational(self):
        assert render_scalar(POLY.const(Fraction(5, 6))) == "5/6"

    def test_monic_denominator(self):
        # denominators are normalized monic under graded-lex order
        value = (3 * ELL.var("x") ** 2) / (2 * ELL.var("y"))
        text = render_scalar(value)
        assert parse_scalar(text, ELL) == value
        assert text == "3/2 * x^2 / (x^3 + 1) * y"

    def test_leading_negative_is_reparseable(self):
        value = -POLY.var("x") ** 2 * POLY.var("y") + 3
        assert render_scalar(value) == "-1 * x^2 * y + 3"

    def test_zero(self):
        assert render_scalar(POLY.zero()) == "0"


class TestRoundTrip:
    @given(poly_scalars(POLY))
    def test_polynomials(self, s):
        assert parse_scalar(render_scalar(s), POLY) == s

    @given(field_scalars(FIELD2))
    def test_rational_functions(self, s):
        assert parse_scalar(render_scalar(s), FIELD2) == s

    @given(ext_scalars(ELL))
    def test_extension_elements(self, s):
        assert parse_scalar(render_scalar(s), ELL) == s

    def test_seeded_sweep(self):
        # deterministic sweep across every context kind and tower level
        rng = random.Random(7)
        contexts = [POLY, FIELD2, ELL,
                    ScalarContext(POLYNOMIAL, ("x",), constants=("m", "j")),
                    ScalarContext(FIELD, ("s", "x", "y", "z"),
                                  constants=("m",))]
        for _ in range(120):
            ctx = rng.choice(contexts)
            s = random_scalar(rng, ctx)
            assert parse_scalar(render_scalar(s), ctx) == s
