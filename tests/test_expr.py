"""Expression grammar: parsing, canonical rendering, round trips."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given

from afd import ScalarContext, field_with_extension, parse_scalar, render_scalar
from afd.errors import (
    ExponentOverflow,
    ExprSyntaxError,
    NotDivisible,
    NumberTooLong,
    UnknownIdentifier,
)
from afd.expr import MAX_NESTING, Renderer, _tokenize, is_identifier, render_poly
from afd.manifest import load_manifest
from afd.report import emit_report, run_command
from afd.scalars import FIELD, POLYNOMIAL, ExtElem, MultiPoly, RatFunc

from conftest import ext_scalars, field_scalars, poly_scalars
from helpers import random_field_scalar, random_fraction, random_scalar
from scalar_views import lead, sorted_terms

POLY = ScalarContext(POLYNOMIAL, ("x", "y"))
FIELD2 = ScalarContext(FIELD, ("x", "y"))
ELL = field_with_extension(("x",), "y", "y^2 - x^3 - 1")


class TestParse:
    @pytest.mark.parametrize("name", [
        "x", "x_1", "r2", "\u03bb", "x\u00b2", "", "2x", "x y", "x-1", "_x",
        " x"])
    def test_identifier_rule_is_the_tokenizers(self, name):
        try:
            tokens = _tokenize(name)
        except ExprSyntaxError:
            tokens = []
        one_token = len(tokens) == 2 and tokens[0][:2] == ("ident", name)
        assert is_identifier(name) == one_token

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

    def test_power_binds_before_unary_minus(self):
        # factor := "-" factor | base ["^" exponent]: -2^2 is -(2^2)
        assert parse_scalar("-2^2", POLY) == POLY.const(-4)

    def test_rational_literal(self):
        assert parse_scalar("1/2", POLY) == POLY.const(Fraction(1, 2))

    def test_negative_exponent_field_only(self):
        assert parse_scalar("x^-2", FIELD2) == FIELD2.one / FIELD2.var("x") ** 2
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


    def test_constant_power_bound(self):
        # 2 has bit length 2: 2^(2**19) is built, 2^(2**19 + 1) is refused
        assert parse_scalar("2^524288", POLY) == POLY.const(2**524288)
        # an exponent of 4000 digits could never be built: it is refused
        # before any power is computed
        for text in ("2^524289", "3^4000000", "(2/3)^4000000", "3^-4000000",
                     "(x + 3^4000000)", "3^" + "9" * 4000):
            with pytest.raises(ExponentOverflow):
                parse_scalar(text, FIELD2)
        for text, value in (("1^40000000", 1), ("(-1)^40000001", -1),
                            ("(-1)^-40000001", -1), ("0^40000000", 0)):
            assert parse_scalar(text, FIELD2) == FIELD2.const(value)


class TestRender:
    def test_number_past_the_digit_limit(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter converts integers of any length")
        big = 10 ** limit
        x = POLY.var("x")
        for value in (POLY.const(big), POLY.const(Fraction(1, big)),
                      big * x + 1, x / big, ELL.var("y") * big):
            with pytest.raises(NumberTooLong):
                render_scalar(value)
        assert render_scalar(POLY.const(big - 1)) == "9" * limit

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
        assert render_scalar(POLY.zero) == "0"


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


# ---------------------------------------------------------------------------
# Reference renderer: Fraction coefficients through ``sorted_terms`` and
# ``terms``, one term at a time
# ---------------------------------------------------------------------------

def _ref_render_fraction(f):
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _ref_monomial_factors(exps, variables):
    out = []
    for v, e in zip(variables, exps):
        if e == 1:
            out.append(v)
        elif e > 1:
            out.append(f"{v}^{e}")
    return out


def _ref_render_term(coeff, exps, variables, leading):
    """One monomial term; ``coeff`` is signed only when leading."""
    factors = _ref_monomial_factors(exps, variables)
    if not factors:
        return _ref_render_fraction(coeff)
    if leading and coeff < 0:
        pieces = [_ref_render_fraction(coeff)] + factors
    elif coeff == 1:
        pieces = factors
    else:
        pieces = [_ref_render_fraction(coeff)] + factors
    return " * ".join(pieces)


def _ref_render_poly(poly):
    if poly.is_zero:
        return "0"
    parts = []
    for k, (exps, coeff) in enumerate(sorted_terms(poly)):
        if k == 0:
            parts.append(_ref_render_term(coeff, exps, poly.vars,
                                          leading=True))
        else:
            parts.append(" + " if coeff > 0 else " - ")
            parts.append(_ref_render_term(abs(coeff), exps, poly.vars,
                                          leading=False))
    return "".join(parts)


def _ref_den_string(den):
    """Denominator rendering: a single variable power needs no parentheses."""
    if len(den.nums) == 1:
        exps, coeff = next(iter(den.terms.items()))
        factors = _ref_monomial_factors(exps, den.vars)
        if coeff == 1 and len(factors) == 1:
            return factors[0]
    return f"({_ref_render_poly(den)})"


def _ref_render_ratfunc(rf):
    """Render a RatFunc so that appending ``* y^k`` keeps the value intact."""
    if rf.num.is_zero:
        return "0"
    num = _ref_render_poly(rf.num)
    if len(rf.num.nums) > 1:
        num = f"({num})"
    if rf.is_poly:
        return num
    return f"{num} / {_ref_den_string(rf.den)}"


def _ref_rf_is_one(rf):
    return rf.den.is_const and rf.num.is_const and rf.num.const_value() == 1


def _ref_render_ext(elem):
    gen = elem.gen
    pieces = []
    coeffs = elem.coeffs  # a view that reduces every coefficient: read once
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c.is_zero:
            continue
        _, lead_coeff = lead(c.num)
        negative = lead_coeff < 0
        abs_c = RatFunc(-c.num, c.den) if negative else c
        if i == 0:
            body = _ref_render_ratfunc(abs_c)
        else:
            gen_part = gen if i == 1 else f"{gen}^{i}"
            if _ref_rf_is_one(abs_c):
                body = gen_part
            else:
                body = f"{_ref_render_ratfunc(abs_c)} * {gen_part}"
        if not pieces:
            if negative:
                # keep the leading minus parseable: never "-y^2"
                pieces.append(f"-{body}" if body[0].isdigit()
                              else f"-1 * {body}")
            else:
                pieces.append(body)
        else:
            pieces.append(" - " if negative else " + ")
            pieces.append(body)
    if not pieces:
        return "0"
    return "".join(pieces)


def _ref_render_scalar(s):
    v = s.val
    if isinstance(v, Fraction):
        return _ref_render_fraction(v)
    if isinstance(v, MultiPoly):
        return _ref_render_poly(v)
    if isinstance(v, RatFunc):
        return _ref_render_ratfunc(v)
    return _ref_render_ext(v)


# a non-monic quadratic and a cubic relation
NON_MONIC = field_with_extension(("x", "z"), "y", "x*y^2 - z")
CUBIC = field_with_extension(("x",), "w", "w^3 - x*w - 1")


def _random_ext_scalar(rng, ctx):
    """A sum of small rational-function multiples of every power of the
    generator below the relation's degree, some of them zero."""
    gen = ctx.var(ctx.extension.gen)
    degree = ctx.extension.degree
    total = ctx.zero
    for i in range(degree):
        if rng.random() < 0.8:
            c = random_field_scalar(rng, ctx, max_terms=3, max_deg=2)
            total = total + c * gen ** i
    return total


class TestRenderAgainstReference:
    CONTEXTS = [
        ScalarContext(POLYNOMIAL, ("x", "y"), constants=("m",)),
        ScalarContext(FIELD, ("x", "y", "z")),
        ELL, NON_MONIC, CUBIC]

    @staticmethod
    def assert_renders_like_reference(render, s):
        v = s.val
        want = _ref_render_scalar(s)
        assert render_scalar(s) == want
        assert render(s) == want
        if type(v) is MultiPoly:
            assert render_poly(v) == _ref_render_poly(v)
        elif type(v) is RatFunc:
            assert Renderer().text(v) == _ref_render_ratfunc(v)
            assert render_poly(v.den) == _ref_render_poly(v.den)
        elif type(v) is ExtElem:
            assert Renderer().text(v) == _ref_render_ext(v)
        return type(v)

    def test_seeded_random_scalars_and_their_negations(self):
        rng = random.Random(1603)
        for ctx in self.CONTEXTS:
            render = Renderer()
            levels = set()
            for _ in range(60):
                if ctx.extension and rng.random() < 0.5:
                    s = _random_ext_scalar(rng, ctx)
                else:
                    s = random_scalar(rng, ctx)
                s = s * ctx.const(random_fraction(rng, zero_ok=False))
                levels.add(self.assert_renders_like_reference(render, s))
                # the negation of a value already rendered reuses its pieces
                self.assert_renders_like_reference(render, -s)
            if ctx.extension:
                assert levels == {Fraction, MultiPoly, RatFunc, ExtElem}

    def test_non_integer_coefficients_over_the_relations(self):
        render = Renderer()
        for ctx, text in [
                (NON_MONIC, "(-7/3*x^2 + 5/2*z) / (3*z - x) * y"
                            " - 4/9*z^2 / (2*x + 1)"),
                (CUBIC, "-2/3*w^2 + (x - 5/4) / (7*x^2 + 3) * w - 1/6"),
                (CUBIC, "w^2 / x - 3*w"),
                (NON_MONIC, "y / x^2 - 1 / (x*z) + 1 / (-z)"),
                (ELL, "-y / (-2*x^3 + 6/5*x) + x / 2")]:
            s = parse_scalar(text, ctx)
            assert type(s.val) is ExtElem
            for value in (s, -s, s, -s, s.inverse(), -s.inverse()):
                self.assert_renders_like_reference(render, value)
                assert parse_scalar(render(value), ctx) == value


class TestReportRendering:
    def test_goldens_in_two_interleaved_orders(self, repo_root):
        manifests = repo_root / "manifests"
        goldens = sorted((manifests / "golden").glob("*.check.json"))
        assert len(goldens) == 6
        order = [g for pair in zip(goldens, reversed(goldens)) for g in pair]
        loaded = {}
        for golden in order:
            stem = golden.name.replace(".check.json", "")
            manifest = loaded.setdefault(
                stem, load_manifest(manifests / f"{stem}.json"))
            report = emit_report(run_command(manifest, "check"), "json")
            assert report == golden.read_text(encoding="utf-8"), stem

    def test_extension_report_reads_each_coefficient_view_once(
            self, repo_root, monkeypatch):
        reads = []
        view = ExtElem.coeffs

        def counted(elem):
            reads.append(elem)
            return view.fget(elem)

        monkeypatch.setattr(ExtElem, "coeffs", property(counted))
        bench = repo_root / "perfbench"
        report = run_command(load_manifest(bench / "ks_extension.json"),
                             "check")
        assert emit_report(report, "json") == (
            bench / "ks_extension.check.json").read_text(encoding="utf-8")
        # 110 values are rendered, 44 of them distinct up to sign
        assert len(reads) <= 39

    def test_kerr_schild_curvature_matches_its_reference(self, repo_root):
        # Schwarzschild over Q(m)(t,x,y,z)[r]/(r^2-x^2-y^2-z^2): 156 Riemann
        # components over the extension
        fixtures = repo_root / "tests" / "fixtures"
        report = run_command(load_manifest(fixtures / "schwarzschild_ks.json"),
                             "curvature")
        assert emit_report(report, "json") == (
            fixtures / "schwarzschild_ks.curvature.json").read_text(
                encoding="utf-8")
