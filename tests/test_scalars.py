"""Exact scalar tower: arithmetic, GCDs, partials, substitution."""

import json
import operator
import random
from fractions import Fraction
from math import gcd, isqrt

import pytest
from hypothesis import given

from afd import MultiPoly, ScalarContext, field_with_extension, parse_scalar, poly_gcd
from afd import scalars
from afd.errors import (
    ContextMismatch,
    DivisionByZero,
    ExponentOverflow,
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
    ExtElem,
    RatFunc,
    Scalar,
)

from conftest import ext_scalars, field_scalars, nonzero_field_scalars, poly_scalars
from helpers import (
    elliptic_field, function_field, random_ext_scalar, random_field_scalar,
    random_fraction, random_poly_scalar)
from scalar_views import (
    as_fraction, from_terms, lead, sorted_terms, substitute)

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
        assert (POLY.zero * (X**5 + 3)).is_zero

    def test_context_mismatch(self):
        with pytest.raises(ContextMismatch):
            X + EX


class TestDiv:
    def test_gcd_cancellation(self):
        assert (X**2 - 1) / (X - 1) == X + 1

    def test_extension_inverse_oracle(self):
        # oracle: whatever 1/y is, multiplying back by y must reduce to 1
        inv = ELL.one / EY
        assert inv * EY == ELL.one
        # and it equals y / (x^3 + 1)
        assert inv == EY / (EX**3 + 1)

    def test_not_divisible_in_polynomial_ring(self):
        with pytest.raises(NotDivisible):
            X / (X + 1)

    def test_division_by_zero(self):
        with pytest.raises(DivisionByZero):
            X / POLY.zero

    def test_parameter_denominators_are_allowed(self):
        ctx = ScalarContext(POLYNOMIAL, ("x",), constants=("m",))
        quotient = ctx.var("x") / ctx.var("m")
        assert quotient * ctx.var("m") == ctx.var("x")

    def test_float_numerator_is_refused(self):
        f = ScalarContext(FIELD, ("x",))
        x = f.var("x")
        with pytest.raises(TypeError):
            0.1 / x
        with pytest.raises(TypeError):
            1.5 / f.const(1)
        third = Fraction(1, 3) / x
        assert third * x == f.const(Fraction(1, 3))
        assert 2 / x == f.const(2) / x


class TestHash:
    def test_base_rational_hashes_like_its_value(self):
        assert POLY.const(2) == 2 and hash(POLY.const(2)) == hash(2)
        assert 2 in {POLY.const(2)}
        assert POLY.const(2) in {2}
        assert Fraction(1, 3) in {POLY.const(Fraction(1, 3))}
        assert (X + 1) - X in {1}

    def test_equal_scalars_share_a_dict_slot(self):
        table = {POLY.const(Fraction(4, 2)): "two", X + Y: "sum"}
        assert table[2] == "two"
        assert table[Y + X] == "sum"
        assert table[POLY.var("x") + POLY.var("y")] == "sum"


PARAM = ScalarContext(POLYNOMIAL, ("x",), constants=("m",))

# two samples per payload level: Fraction, MultiPoly, RatFunc[, ExtElem]
LEVEL_SAMPLES = {
    "field": (ELL, ["0", "-3/2", "x + 1", "x^2 - 2*x", "3/(x+1)", "x/(x-1)",
                    "y", "y/(x+1)"]),
    "polynomial": (PARAM, ["0", "2/3", "x + m", "m*x + m", "x/m",
                           "(x + 1)/(m + 2)"]),
}

# each operator beside its reference on two payloads of the top level
LEVEL_OPS = {
    "+": (operator.add, operator.add),
    "-": (operator.sub, operator.sub),
    "*": (operator.mul, operator.mul),
    "/": (operator.truediv, lambda a, b: a * b.inverse()),
}


def _to_top(ctx, v):
    """Lift a payload by hand to the top level of ``ctx``."""
    if type(v) is Fraction:
        v = MultiPoly.const(ctx.all_vars, v)
    if type(v) is MultiPoly:
        v = RatFunc(v, MultiPoly.const(ctx.all_vars, 1))
    if ctx.extension is not None and type(v) is RatFunc:
        v = ctx.extension.lift(v)
    return v


class TestMixedLevels:
    """+ - * / over every pair of payload levels, against lifting both
    operands to the top level by hand; the result must sit at the lowest
    level that holds it."""

    @staticmethod
    def _lowest(v):
        if type(v) is ExtElem:
            if any(not c.is_zero for c in v.coeffs[1:]):
                return ExtElem
            v = v.coeffs[0]
        if v.den != MultiPoly.const(v.den.vars, 1):
            return RatFunc
        return Fraction if v.num.is_const else MultiPoly

    @pytest.mark.parametrize("kind", sorted(LEVEL_SAMPLES))
    def test_every_pair_of_levels(self, kind):
        ctx, texts = LEVEL_SAMPLES[kind]
        samples = [parse_scalar(t, ctx) for t in texts]
        levels = [type(s.val) for s in samples]
        top = [Fraction, MultiPoly, RatFunc, ExtElem][:len(samples) // 2]
        assert levels == [t for t in top for _ in (0, 1)]
        pairs = set()
        for a in samples:
            for b in samples:
                pairs.add((type(a.val), type(b.val)))
                ta, tb = _to_top(ctx, a.val), _to_top(ctx, b.val)
                for symbol, (op, reference) in LEVEL_OPS.items():
                    case = (a, symbol, b)
                    if symbol == "/" and b.is_zero:
                        with pytest.raises(DivisionByZero):
                            op(a, b)
                        continue
                    want = reference(ta, tb)
                    if ctx.kind == POLYNOMIAL and want.den.involves("x"):
                        with pytest.raises(NotDivisible):
                            op(a, b)
                        continue
                    got = op(a, b)
                    assert got.ctx is ctx, case
                    assert _to_top(ctx, got.val) == want, case
                    assert type(got.val) is self._lowest(want), case
        assert len(pairs) == len(top) ** 2

    def test_rational_over_rational_function_is_a_polynomial(self):
        x = ELL.var("x")
        q = 2 / (3 / (x + 1))
        assert type(q.val) is MultiPoly
        assert q.val == MultiPoly(("x",), {(1,): Fraction(2, 3),
                                           (0,): Fraction(2, 3)})

    def test_zero_factor(self):
        for product in (0 * ELL.var("y"), ELL.var("y") * ELL.zero):
            assert type(product.val) is Fraction and product.is_zero

    def test_polynomial_over_rational_stays_a_polynomial(self):
        half = PARAM.var("x") / 2
        assert type(half.val) is MultiPoly
        assert half.val == MultiPoly(("m", "x"), {(0, 1): Fraction(1, 2)})


# one sample per payload level
IDENTITY_SAMPLES = {
    "rational": (POLY, "-3/2"),
    "polynomial": (POLY, "x*y - 2"),
    "function_field": (function_field("x", "y").ctx, "x/(y + 1)"),
    "elliptic_field": (elliptic_field().ctx, "y/(x + 1)"),
}

# the rational operand and the operator of each short-circuit, both orders
IDENTITY_CASES = {
    "x + 0": (0, lambda x, k: x + k),
    "0 + x": (0, lambda x, k: k + x),
    "x - 0": (0, lambda x, k: x - k),
    "0 - x": (0, lambda x, k: k - x),
    "x * 1": (1, lambda x, k: x * k),
    "1 * x": (1, lambda x, k: k * x),
    "x * -1": (-1, lambda x, k: x * k),
    "-1 * x": (-1, lambda x, k: k * x),
}


class TestIdentityOperands:
    """A zero summand or a factor of 1 or -1 returns the other operand
    before any lift; the result must be the generic one, demoted."""

    @pytest.mark.parametrize("level", sorted(IDENTITY_SAMPLES))
    @pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
    def test_matches_the_lifted_result(self, level, case):
        ctx, text = IDENTITY_SAMPLES[level]
        x = parse_scalar(text, ctx)
        k, op = IDENTITY_CASES[case]
        want = op(_to_top(ctx, x.val), _to_top(ctx, Fraction(k)))
        for operand in (k, Fraction(k), ctx.const(k)):
            got = op(x, operand)
            assert got.ctx is ctx, (case, operand)
            assert _to_top(ctx, got.val) == want, (case, operand)
            assert type(got.val) is TestMixedLevels._lowest(want), case

    @pytest.mark.parametrize("level", sorted(IDENTITY_SAMPLES))
    @pytest.mark.parametrize("case", sorted(IDENTITY_CASES))
    def test_other_context_still_mismatches(self, level, case):
        ctx, text = IDENTITY_SAMPLES[level]
        x = parse_scalar(text, ctx)
        k, op = IDENTITY_CASES[case]
        with pytest.raises(ContextMismatch):
            op(x, PARAM.const(k))


def _random_poly(rng, variables, max_terms=6, max_deg=3):
    """A seeded sparse polynomial with signed Fraction coefficients."""
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        e = tuple(rng.randint(0, max_deg) for _ in variables)
        terms[e] = Fraction(rng.randint(-9, 9), rng.choice((1, 1, 2, 3, 6, 35)))
    return from_terms(variables, terms)


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


def _ref_add_product(acc, a, b, sign=1):
    """``acc += sign * a * b`` in place, the sequential loop that
    ``_sum_products`` replaced: each product built with ``*`` and added to
    the accumulator with ``_combine``; ``b`` None adds ``sign * a``."""
    size = len(a) if b is None else len(a) + len(b) - 1
    if len(acc) < size:
        acc.extend([MultiPoly.zero(a[0].vars)] * (size - len(acc)))
    for i, x in enumerate(a):
        if x.nums:
            if b is None:
                acc[i] = acc[i]._combine(x, sign)
                continue
            for j, y in enumerate(b):
                if y.nums:
                    acc[i + j] = acc[i + j]._combine(x * y, sign)
    return acc


class TestSumProducts:
    """``scalars._sum_products`` against ``_ref_add_product``."""

    VARS = ("x", "y", "z")

    def random_vector(self, rng):
        # _random_poly draws zero entries and denominators 1, 2, 3, 6, 35
        return [_random_poly(rng, self.VARS, max_terms=4)
                for _ in range(rng.randint(1, 4))]

    def assert_matches_reference(self, terms):
        got = scalars._sum_products(terms)
        want = []
        for a, b, sign in terms:
            _ref_add_product(want, a, b, sign)
        assert got == want
        for entry in got:
            _assert_int_canonical(entry)
        return got

    def test_random_terms(self):
        rng = random.Random(1901)
        plain = zeros = 0
        for _ in range(200):
            terms = []
            for _ in range(rng.randint(1, 6)):
                b = None if rng.random() < 0.3 else self.random_vector(rng)
                plain += b is None
                terms.append((self.random_vector(rng), b, rng.choice((1, -1))))
            got = self.assert_matches_reference(terms)
            zeros += sum(entry.is_zero for entry in got)
        assert plain and zeros

    def test_unequal_lengths_and_zero_entries(self):
        x = MultiPoly.var(self.VARS, "x")
        zero = MultiPoly.zero(self.VARS)
        half = MultiPoly.const(self.VARS, Fraction(1, 2))
        third = MultiPoly.const(self.VARS, Fraction(-1, 3))
        a, b = [zero, x * half, zero], [third]
        got = self.assert_matches_reference([(a, b, 1), ([x], None, -1)])
        assert got == [-x, x.scale(Fraction(-1, 6)), zero]
        got = self.assert_matches_reference([([zero], [zero, zero], 1)])
        assert got == [zero, zero]

    def test_full_cancellation_is_canonical_zero(self):
        rng = random.Random(1902)
        for _ in range(50):
            a, b = self.random_vector(rng), self.random_vector(rng)
            product = scalars._sum_products([(a, b, 1)])
            for terms in ([(a, b, 1), (b, a, -1)],
                          [(a, b, -1), (product, None, 1)],
                          [(a, None, 1), (a, None, -1)]):
                got = self.assert_matches_reference(terms)
                assert all(not p.nums and p.denom == 1 for p in got)

    def test_no_terms(self):
        assert scalars._sum_products([]) == []

    def test_total_degree_limit(self):
        x = MultiPoly.var(self.VARS, "x")
        y = MultiPoly.var(self.VARS, "y")
        below, half = x ** (2**14 - 1), x ** (2**14)
        one = MultiPoly.const(self.VARS, 1)
        (p,) = scalars._sum_products([([half], [below], 1)])
        assert p == x ** (2**15 - 1)
        for a, b in (([half], [y ** (2**14)]), ([one, half], [one, half]),
                     ([y], [half * x ** (2**14 - 1)])):
            with pytest.raises(ExponentOverflow):
                scalars._sum_products([([one], None, 1), (a, b, 1)])


def _ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, Fraction(0)) + sign * c
    return {e: c for e, c in out.items() if c}


def _ref_lead(a):
    return max(a, key=lambda e: (sum(e), e))


def _ref_div(a, b):
    """Long division in graded-lex order; None when it is not exact."""
    rem, quo = dict(a), {}
    be = _ref_lead(b)
    while rem:
        re = _ref_lead(rem)
        qe = tuple(map(operator.sub, re, be))
        if min(qe) < 0:
            return None
        quo[qe] = q = rem[re] / b[be]
        rem = _ref_add(rem, {tuple(map(operator.add, qe, e)): q * c
                             for e, c in b.items()}, -1)
    return quo


def _ref_partial(a, idx):
    return {e[:idx] + (e[idx] - 1,) + e[idx + 1:]: c * e[idx]
            for e, c in a.items() if e[idx]}


def _ref_specialize(a, values, variables):
    """``a`` with ``values`` substituted; each substituted exponent is 0."""
    out = {}
    for e, c in a.items():
        for k, v in zip(e, variables):
            if v in values:
                c *= values[v] ** k
        kept = tuple(0 if v in values else k for k, v in zip(e, variables))
        out = _ref_add(out, {kept: c})
    return out


def _int_specialize(a, values):
    """``a`` with ``values`` substituted by ``_int_evaluate``, one variable
    at a time on the integer numerators."""
    nums = a.nums
    for v, x in values.items():
        nums = scalars._int_evaluate(nums, *a._field(v), x)
    return scalars._reduced(a.vars, nums, a.denom)


def _assert_int_canonical(poly):
    """Integer numerators over a positive denominator, in lowest terms."""
    assert type(poly.denom) is int and poly.denom > 0
    assert all(type(c) is int and c for c in poly.nums.values())
    assert gcd(poly.denom, *poly.nums.values()) == 1
    if not poly.nums:
        assert poly.denom == 1


def _check_kernels(rng, names, a, b, trial):
    """Every integer kernel on ``a`` and ``b`` against its Fraction-dict
    reference, and term order against tuple exponents sorted by
    ``(sum(e), e)``."""
    n = len(names)
    ta, tb = a.terms, b.terms
    c = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 6, 35)))
    idx = rng.randrange(n)
    values = {v: rng.randint(-3, 3)
              for v in rng.sample(names, rng.randint(1, max(n - 1, 1)))}
    order = tuple(reversed(names)) + ("t",)
    checks = {
        "+": (a + b, _ref_add(ta, tb)),
        "-": (a - b, _ref_add(ta, tb, -1)),
        "*": (a * b, _schoolbook_product(a, b)),
        "scale": (a.scale(c), {e: v * c for e, v in ta.items() if c}),
        "partial": (a.partial(names[idx]), _ref_partial(ta, idx)),
        "_int_evaluate": (_int_specialize(a, values),
                          _ref_specialize(ta, values, names)),
        "reordered": (a.reordered(order),
                      {tuple(reversed(e)) + (0,): v
                       for e, v in ta.items()}),
    }
    if ta:
        lc = ta[_ref_lead(ta)]
        checks["monic"] = (a.monic(),
                           {e: v / lc for e, v in ta.items()})
    if tb:
        checks["exact_div"] = (a.exact_div(b), _ref_div(ta, tb))
        checks["exact_div of a product"] = ((a * b).exact_div(b), ta)
    for op, (got, want) in checks.items():
        if want is None:
            assert got is None, (trial, op)
            continue
        assert got.terms == want, (trial, op)
        _assert_int_canonical(got)
        want_order = sorted(want, key=lambda e: (sum(e), e), reverse=True)
        assert [e for e, _ in sorted_terms(got)] == want_order, (trial, op)
        if want:
            assert lead(got) == (want_order[0], want[want_order[0]]), \
                (trial, op)


class TestIntegerKernels:
    """Every integer kernel of MultiPoly against Fraction-dict arithmetic on
    random polynomials."""

    NAMES = ("w", "x", "y", "z")

    def test_kernels_match_fraction_reference(self):
        # 2-4 variables of low degree
        rng = random.Random(9)
        for trial in range(300):
            n = rng.randint(2, 4)
            names = self.NAMES[:n]
            a, b = _random_poly(rng, names), _random_poly(rng, names)
            _check_kernels(rng, names, a, b, trial)

    def test_kernels_match_fraction_reference_on_wide_keys(self):
        # 1-9 variables with exponents up to 60: nine variables and the
        # total degree make a key of 160 bits
        rng = random.Random(10)
        for trial in range(200):
            names = tuple("abcdefghi"[:rng.randint(1, 9)])
            a = _random_poly(rng, names, max_terms=4, max_deg=60)
            b = _random_poly(rng, names, max_terms=4, max_deg=60)
            _check_kernels(rng, names, a, b, trial)

    def test_exact_div_refuses_what_does_not_divide(self):
        x, y = (MultiPoly.var(("x", "y"), v) for v in ("x", "y"))
        one = MultiPoly.const(("x", "y"), 1)
        assert (x * x + one).exact_div(x + one) is None
        assert x.exact_div(x * y) is None
        # the total degree fits but the exponent of y would go negative
        assert (x * x * x).exact_div(x * y) is None
        assert (x * y + one).exact_div(y.scale(Fraction(2, 3))) is None

    def test_exact_div_strips_the_divisor_content(self):
        x = MultiPoly.var(("x", "y"), "x")
        one = MultiPoly.const(("x", "y"), 1)
        # 2x + 2 has integer content 2, which does not divide 1 over Z
        assert (x + one).exact_div(x.scale(2) + one.scale(2)) \
            == MultiPoly.const(("x", "y"), Fraction(1, 2))
        p = (x + one).scale(Fraction(3, 7))
        q = (x + one).scale(Fraction(10, 21))
        assert p.exact_div(q) == MultiPoly.const(("x", "y"), Fraction(9, 10))

    def test_arithmetic_and_fraction_dicts_build_equal_polynomials(self):
        rng = random.Random(21)
        for trial in range(100):
            names = self.NAMES[:rng.randint(2, 4)]
            a, b = _random_poly(rng, names), _random_poly(rng, names)
            got = a * b - a + b.scale(Fraction(5, 6))
            want = MultiPoly(names, _ref_add(
                _ref_add(_schoolbook_product(a, b), a.terms, -1),
                {e: v * Fraction(5, 6) for e, v in b.terms.items()}))
            assert got == want and hash(got) == hash(want), trial
            _assert_int_canonical(got)
            assert (a - a).denom == 1 and (a - a).is_zero

    def test_floats_are_refused(self):
        from helpers import poly_ring

        p = MultiPoly.var(("x",), "x")
        for build in (lambda: POLY.const(0.1), lambda: poly_ring("x").scalar(0.1),
                      lambda: p.scale(0.5), lambda: MultiPoly.const(("x",), 0.5),
                      lambda: MultiPoly(("x",), {(1,): 0.5})):
            with pytest.raises(TypeError):
                build()


class TestDot:
    """``scalars.dot``, the sum of products behind every contraction."""

    def test_no_pairs_is_the_start(self):
        zero = POLY.zero
        assert scalars.dot([], zero) is zero
        assert scalars.dot(iter(()), X) is X

    def test_sum_onto_the_start(self):
        pairs = [(X, Y), (POLY.const(3), X * X), (Y, POLY.const(-1))]
        assert scalars.dot(pairs, POLY.const(2)) \
            == 2 + X * Y + 3 * X * X - Y
        assert scalars.dot(pairs, POLY.zero) == X * Y + 3 * X * X - Y

    def test_zero_factor_builds_no_product(self, monkeypatch):
        # products are counted where they are built: a polynomial product,
        # or a product term of the multiply-accumulate kernel
        xy, yy = X * Y, Y * Y
        calls = []
        mul, kernel = MultiPoly.__mul__, scalars._sum_products

        def counted_mul(a, b):
            calls.append((a, b))
            return mul(a, b)

        def counted_kernel(terms):
            calls.extend((a[0], b[0]) for a, b, _ in terms if b is not None)
            return kernel(terms)

        monkeypatch.setattr(MultiPoly, "__mul__", counted_mul)
        monkeypatch.setattr(scalars, "_sum_products", counted_kernel)
        zero = POLY.zero
        assert scalars.dot([(zero, X), (Y, zero), (zero, zero)], zero) \
            .is_zero
        assert calls == []
        assert scalars.dot([(zero, X), (X, Y)], zero) == xy
        assert calls == [(X.val, Y.val)]
        calls.clear()
        assert scalars.dot([(zero, X), (X, Y), (Y, zero), (Y, Y)], zero) \
            == xy + yy
        assert calls == [(X.val, Y.val), (Y.val, Y.val)]

    def test_other_context_refused(self):
        other = ScalarContext(POLYNOMIAL, ("x", "y", "z")).var("x")
        with pytest.raises(ContextMismatch):
            scalars.dot([(X, other)], POLY.zero)
        # a zero factor is skipped before any product, whatever its context
        assert scalars.dot([(X, other.ctx.zero)], POLY.zero).is_zero


class TestPackedKeys:
    """Exponent vectors are packed into one int per monomial, with a guard
    bit on top of every 16-bit field."""

    VARS = ("x", "y", "z")

    def test_a_borrow_from_any_field_refuses_the_division(self):
        x, y, z = (MultiPoly.var(self.VARS, v) for v in self.VARS)
        # y borrows from x, z from y, and the totals fit every time
        assert (x * x * z).exact_div(y) is None
        assert (y * y).exact_div(z) is None
        assert (x ** 3 * z).exact_div(y * z * z) is None
        assert (x * x * z).exact_div(x * z) == x

    def test_exponent_limit(self):
        x, y = (MultiPoly.var(self.VARS, v) for v in ("x", "y"))
        top = x ** 32767
        assert top.degree_in("x") == 32767 and lead(top)[0] == (32767, 0, 0)
        assert lead(x ** 16000 * y ** 16000)[0] == (16000, 16000, 0)
        with pytest.raises(ExponentOverflow) as err:
            top * x
        assert err.value.code == "exponent-overflow"
        # each field fits on its own, the total degree does not
        with pytest.raises(ExponentOverflow):
            x ** 20000 * y ** 20000
        assert lead(MultiPoly(self.VARS, {(16383, 16384, 0): 1}))[0] \
            == (16383, 16384, 0)
        for exps in ((32768, 0, 0), (16384, 16384, 0)):
            with pytest.raises(ExponentOverflow):
                MultiPoly(self.VARS, {exps: 1})
        with pytest.raises(ExponentOverflow):
            POLY.var("x") ** 40000
        # the power bound is exact: total degree 2 * 16383 fits, 2 * 16384
        # does not
        field = ScalarContext(FIELD, ("x", "y"))
        fx, fy = field.var("x"), field.var("y")
        for value in (X * Y, (X * Y).val, fx * fy, 1 / (fx * fy)):
            assert value ** 16383 == (value ** 127) ** 129
            with pytest.raises(ExponentOverflow):
                value ** 16384
        # squaring would build (x+y+1)**16384, about 1.3e8 terms, before a
        # product trips the limit; deg p**n = n * deg p refuses it at once
        for value in (X + Y + 1, (X + Y + 1).val, fx + fy + 1, 1 / (fx + 1)):
            with pytest.raises(ExponentOverflow):
                value ** 40000
        for value in (fx + fy + 1, 1 / (fx + 1)):
            with pytest.raises(ExponentOverflow):
                value ** -40000

    def test_extension_power_bounded_by_its_norm(self):
        # squaring (w + x + y + 1) until a product trips the limit builds
        # polynomials of thousands of terms; its norm (x + y + 1)**2 - x has
        # degree 2, and 40000 * 2 passes the 2 * 32767 + 1 that any
        # representable power's norm can reach
        ext = field_with_extension(("x", "y"), "w", "w^2 - x")
        w, x, y = (ext.var(v) for v in "wxy")
        for value in (w + x + y + 1, x + w):
            for n in (40000, -40000):
                with pytest.raises(ExponentOverflow) as err:
                    value ** n
                assert err.value.code == "exponent-overflow"
        # a norm -x of degree 1: the bound refuses only what cannot fit
        assert w ** 40000 == x ** 20000
        assert w ** 65535 == x ** 32767 * w
        with pytest.raises(ExponentOverflow):
            w ** 65536
        # only the norm's denominator (y + 1)**2 grows too far
        with pytest.raises(ExponentOverflow):
            (w / (y + 1)) ** 40000
        # a relation whose leading coefficient is no constant: w**2 = 1/x
        lead = field_with_extension(("x",), "w", "x*w^2 - 1")
        lw = lead.var("w")
        assert lw ** 4000 == 1 / lead.var("x") ** 2000
        with pytest.raises(ExponentOverflow):
            lw ** 70000

    def test_malformed_exponent_tuples_are_refused(self):
        for exps in ((1, 2), (1, 0, -1)):
            with pytest.raises(ValueError):
                MultiPoly(self.VARS, {exps: 1})


def _assert_reduced(q):
    _assert_canonical(q.num)
    _assert_canonical(q.den)
    assert lead(q.den)[1] == 1
    assert poly_gcd(q.num, q.den).is_const


class TestReducedArithmetic:
    """Sums, products and inverses of reduced fractions, checked field for
    field against ``RatFunc.make`` of the schoolbook numerator and
    denominator."""

    VARS = ("x", "y", "z")

    def _random_pair(self, rng):
        variables = self.VARS[:rng.choice((2, 3))]
        x = MultiPoly.var(variables, "x")
        y = MultiPoly.var(variables, "y")
        one = MultiPoly.const(variables, 1)
        # factors the two denominators share on purpose
        shared = (one, x - one, (x - one) * (x - one), x * y + one.scale(2),
                  (x - one) * (y + one.scale(3)))

        def operand():
            num = _random_poly(rng, variables, max_terms=3, max_deg=2)
            # a linear cofactor: a random quadratic one makes the
            # schoolbook reference gcd swell past seconds per pair
            den = _random_poly(rng, variables, max_terms=3, max_deg=1)
            if den.is_zero:
                den = one
            den = den * rng.choice(shared)
            if rng.random() < 0.3:
                num = num * rng.choice(shared)
            return RatFunc.make(num, den)

        a, b = operand(), operand()
        if rng.random() < 0.25:
            # b = c - a, so that a + b = c cancels factors of the common
            # denominator: the gcd(t, g) step of the sum
            b = RatFunc.make(b.num * a.den - a.num * b.den, b.den * a.den)
        return a, b

    def test_matches_make_of_schoolbook_on_random_pairs(self):
        rng = random.Random(5)
        for trial in range(300):
            a, b = self._random_pair(rng)
            expected = {
                "sum": RatFunc.make(a.num * b.den + b.num * a.den,
                                    a.den * b.den),
                "difference": RatFunc.make(a.num * b.den - b.num * a.den,
                                           a.den * b.den),
                "product": RatFunc.make(a.num * b.num, a.den * b.den),
            }
            got = {"sum": a + b, "difference": a - b, "product": a * b}
            if not a.is_zero:
                expected["inverse"] = RatFunc.make(a.den, a.num)
                got["inverse"] = a.inverse()
            for op, q in got.items():
                assert q.num == expected[op].num, (trial, op)
                assert q.den == expected[op].den, (trial, op)
                _assert_reduced(q)

    def _q(self, num, den="1"):
        """``num / den`` parsed over x, y and reduced by ``RatFunc.make``."""
        ctx = ScalarContext(POLYNOMIAL, ("x", "y"))

        def poly(text):
            val = parse_scalar(text, ctx).val
            if isinstance(val, Fraction):
                return MultiPoly.const(ctx.all_vars, val)
            return val

        return RatFunc.make(poly(num), poly(den))

    def _check(self, got, num, den="1"):
        want = self._q(num, den)
        assert got.num == want.num and got.den == want.den
        _assert_reduced(got)

    def test_equal_denominators(self):
        a, b = self._q("x", "x - 1"), self._q("y", "x - 1")
        self._check(a + b, "x + y", "x - 1")
        # the whole common denominator cancels
        self._check(a - self._q("1", "x - 1"), "1")

    def test_sum_cancels_part_of_the_common_factor(self):
        # 1/(x(x-1)) - 1/(x-1) = (1 - x)/(x(x-1)) = -1/x: gcd(t, g) = x - 1
        self._check(self._q("1", "x*(x - 1)") - self._q("1", "x - 1"),
                    "-1", "x")

    def test_sum_that_is_exactly_zero(self):
        a = self._q("x^2 + y/3", "(x - 1)*(y + 2)")
        x = self._q("x")
        for zero in (a - a, a + (-a), x - x):
            self._check(zero, "0")

    def test_product_collapses_to_a_polynomial(self):
        a, b = self._q("x^2 - 1", "y"), self._q("2*y", "x - 1")
        self._check(a * b, "2*x + 2")
        self._check(b * a, "2*x + 2")
        self._check(a * a.inverse(), "1")

    def test_denominator_one_on_either_side(self):
        poly, frac = self._q("x + y"), self._q("1", "x*(x - 1)")
        self._check(poly + frac, "(x + y)*x*(x - 1) + 1", "x*(x - 1)")
        self._check(frac + poly, "(x + y)*x*(x - 1) + 1", "x*(x - 1)")
        self._check(self._q("x - 1") * frac, "1", "x")
        self._check(frac * self._q("x - 1"), "1", "x")
        self._check(self._q("2") + self._q("y"), "y + 2")
        self._check(self._q("-2*x").inverse(), "-1/2", "x")


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

    def test_heuristic_matches_prs_reference(self, monkeypatch):
        # seeded pairs g*a, g*b over 2-4 variables with a planted factor g;
        # the heuristic must answer every pair itself, and the primitive
        # remainder sequence, run alone, is the reference
        rng = random.Random(8)
        pairs = []
        while len(pairs) < 120:
            variables = ("x", "y", "z", "w")[:rng.randint(2, 4)]
            g = _random_poly(rng, variables, max_terms=3, max_deg=2)
            a = _random_poly(rng, variables, max_terms=4, max_deg=2)
            b = _random_poly(rng, variables, max_terms=4, max_deg=2)
            if g.is_const or a.is_zero or b.is_zero:
                continue
            pairs.append((g, g * a, g * b))
        with monkeypatch.context() as m:
            m.setattr(scalars, "_prs_poly_gcd", _no_fallback)
            got = [poly_gcd(ga, gb) for _, ga, gb in pairs]
        monkeypatch.setattr(scalars, "_heu_gcd", lambda f, g: None)
        poly_gcd.cache_clear()  # no heuristic gcd answers the reference
        for (g, ga, gb), d in zip(pairs, got):
            assert d == scalars._prs_poly_gcd(ga, gb).monic()
            assert d.exact_div(g.monic()) is not None

    def test_heuristic_matches_prs_reference_in_8_to_9_variables(
            self, monkeypatch):
        # the heuristic evaluates the last involved variable, found from the
        # OR of the keys, and its keys pass 128 bits
        rng = random.Random(12)
        pairs = []
        while len(pairs) < 40:
            variables = tuple("abcdefghi"[:rng.randint(8, 9)])
            g = _random_poly(rng, variables, max_terms=3, max_deg=2)
            a = _random_poly(rng, variables, max_terms=3, max_deg=2)
            b = _random_poly(rng, variables, max_terms=3, max_deg=2)
            if g.is_const or a.is_zero or b.is_zero:
                continue
            pairs.append((g, g * a, g * b))
        with monkeypatch.context() as m:
            m.setattr(scalars, "_prs_poly_gcd", _no_fallback)
            got = [poly_gcd(ga, gb) for _, ga, gb in pairs]
        monkeypatch.setattr(scalars, "_heu_gcd", lambda f, g: None)
        poly_gcd.cache_clear()  # no heuristic gcd answers the reference
        for (g, ga, gb), d in zip(pairs, got):
            assert d == scalars._prs_poly_gcd(ga, gb).monic()
            assert d.exact_div(g.monic()) is not None

    def test_sympy_oracle(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(9)
        variables = ("x", "y", "z")
        for _ in range(40):
            g = _random_poly(rng, variables, max_terms=3, max_deg=2)
            a = g * _random_poly(rng, variables, max_terms=4, max_deg=2)
            b = g * _random_poly(rng, variables, max_terms=4, max_deg=2)
            if a.is_zero or b.is_zero:
                continue
            assert poly_gcd(a, b) == _sympy_gcd(sympy, a, b)


def _no_fallback(a, b):
    raise AssertionError("the heuristic gcd gave up")


def _sympy_gcd(sympy, a, b):
    """Monic gcd of two polynomials by sympy, through the canonical text."""
    names = {v: sympy.Symbol(v) for v in a.vars}
    a_expr, b_expr = (sympy.parse_expr(render_poly(p).replace("^", "**"),
                                       local_dict=names) for p in (a, b))
    text = str(sympy.gcd(a_expr, b_expr)).replace("**", "^")
    d = parse_scalar(text, ScalarContext(POLYNOMIAL, a.vars)).val
    return (d if type(d) is MultiPoly else MultiPoly.const(a.vars, d)).monic()


def _kerr_gcd_pair(repo_root):
    """The committed Kerr operand pair and its expected gcd's text."""
    data = json.loads(
        (repo_root / "tests" / "fixtures" / "kerr_gcd_pair.json").read_text())
    ctx = ScalarContext(POLYNOMIAL, data["vars"])
    return (parse_scalar(data["a"], ctx).val, parse_scalar(data["b"], ctx).val,
            data["gcd"])


class TestPolyGcdFallback(TestPolyGcd):
    """TestPolyGcd's cases with the heuristic forced to give up, so the
    primitive remainder sequence behind it stays covered."""

    @pytest.fixture(autouse=True)
    def _heuristic_gives_up(self, monkeypatch):
        monkeypatch.setattr(scalars, "_heu_gcd", lambda f, g: None)

    # compare the heuristic with this very path
    test_heuristic_matches_prs_reference = None
    test_heuristic_matches_prs_reference_in_8_to_9_variables = None

    def test_cases_run_the_fallback(self, monkeypatch):
        # TestPolyGcd answered these pairs with the heuristic earlier in the
        # run; the memo starts each test empty (tests/conftest.py), so they
        # reach the remainder sequence here instead of the cache
        calls = []
        prs = scalars._prs_poly_gcd
        monkeypatch.setattr(scalars, "_prs_poly_gcd",
                            lambda a, b: calls.append((a, b)) or prs(a, b))
        self.test_linear_factor()
        assert len(calls) == 1
        self.test_high_degree_trivariate_common_factor()
        assert len(calls) > 1


class TestKerrGcd:
    """Genuine Kerr in Kerr-Schild form, where the remainder sequence once
    stalled for minutes on one 6-variable gcd."""

    def test_closed_form_inverse_without_fallback(self, monkeypatch):
        # g = eta + f k k and h = eta - f k# k#, k# = eta k; k is null on
        # the quartic, so g h = I exactly
        monkeypatch.setattr(scalars, "_prs_poly_gcd", _no_fallback)
        ctx = field_with_extension(
            ("t", "x", "y", "z"), "r",
            "r^4 - (x^2 + y^2 + z^2 - a^2)*r^2 - a^2*z^2", constants=("m", "a"))
        f = parse_scalar("2*m*r^3/(r^4 + a^2*z^2)", ctx)
        k = [parse_scalar(s, ctx) for s in
             ("1", "(r*x + a*y)/(r^2 + a^2)", "(r*y - a*x)/(r^2 + a^2)", "z/r")]
        eta = (-1, 1, 1, 1)
        k_up = [eta[i] * k[i] for i in range(4)]
        g = [[(eta[i] if i == j else 0) + f * k[i] * k[j] for j in range(4)]
             for i in range(4)]
        h = [[(eta[i] if i == j else 0) - f * k_up[i] * k_up[j]
              for j in range(4)] for i in range(4)]
        for i in range(4):
            for j in range(4):
                entry = ctx.zero
                for n in range(4):
                    entry = entry + g[i][n] * h[n][j]
                assert entry == (1 if i == j else 0), (i, j)

    def test_largest_operand_pair(self, monkeypatch, repo_root):
        monkeypatch.setattr(scalars, "_prs_poly_gcd", _no_fallback)
        a, b, want = _kerr_gcd_pair(repo_root)
        d = poly_gcd(a, b)
        assert render_poly(d) == want
        assert a.exact_div(d) is not None
        assert b.exact_div(d) is not None

    def test_largest_operand_pair_against_sympy(self, repo_root):
        sympy = pytest.importorskip("sympy")
        a, b, want = _kerr_gcd_pair(repo_root)
        assert render_poly(_sympy_gcd(sympy, a, b)) == want


class TestEqualDenominatorSum:
    """A sum of two canonical quotients over one denominator ``D``: Henrici's
    sum with ``gcd(D, D) = D``, so only the numerator sum cancels against
    ``D``.  The result must equal the cross-multiplied sum over ``D * D``
    made canonical, and the only gcds are those of the final content gcd."""

    VARS = ("x", "y", "z")

    @staticmethod
    def _check(monkeypatch, p, q):
        den = p.den
        assert q.den == den and not den.is_const
        want = scalars._cancel(
            [x * den + y * den for x, y in zip(p.nums, q.nums)], den * den)
        calls = []
        memo = scalars.poly_gcd
        with monkeypatch.context() as m:
            m.setattr(scalars, "poly_gcd",
                      lambda a, b: calls.append((a, b)) or memo(a, b))
            got = p + q
        assert type(got) is type(p)
        assert (tuple(got.nums), got.den) == (tuple(want[0]), want[1])
        # the content gcd of the numerator sum against D, nothing else
        t = [x + y for x, y in zip(p.nums, q.nums)]
        assert len(calls) <= sum(not n.is_zero for n in t)
        assert all(n in t for _, n in calls)
        assert (den, den) not in calls
        return got

    @staticmethod
    def _denominator(rng, variables):
        """A monic denominator with a planted factor, and that factor."""
        one = MultiPoly.const(variables, 1)
        x = MultiPoly.var(variables, "x")
        y = MultiPoly.var(variables, "y")
        shared = (x - one, x * y + one.scale(2), (x - one) * (y + one))
        while True:
            factor = rng.choice(shared)
            den = _random_poly(rng, variables, max_terms=3, max_deg=1)
            den = (den * factor).monic()
            if not den.is_const:
                return den, factor

    @pytest.mark.parametrize("relation", [None, "x*w^3 + y*w^2 + 1"],
                             ids=["RatFunc", "ExtElem"])
    def test_matches_the_cross_multiplied_sum(self, monkeypatch, relation):
        rng = random.Random(2601)
        if relation is None:
            variables, width = self.VARS, 1

            def make(nums, den):
                return RatFunc.make(nums[0], den)
        else:
            ctx = field_with_extension(("x", "y"), "w", relation)
            variables, width = ctx.all_vars, ctx.extension.degree

            def make(nums, den):
                return ExtElem.make(nums, den, ctx.extension)

        def vector(max_terms, max_deg):
            return [_random_poly(rng, variables, max_terms, max_deg)
                    for _ in range(width)]

        cases = dict.fromkeys(("plain", "zero", "shared factor"), 0)
        while min(cases.values()) < 4:
            den, factor = self._denominator(rng, variables)
            a = vector(3, 2)
            p = make(a, den)
            kind = rng.choice(sorted(cases))
            if kind == "zero":
                q = -p
            elif kind == "shared factor":
                # the numerator sum is factor * h, which den shares
                q = make([factor * h - n for h, n in zip(vector(2, 1), a)],
                         den)
            else:
                q = make(vector(3, 2), den)
            if p.den != den or q.den != den:
                continue  # a numerator cancelled against den
            got = self._check(monkeypatch, p, q)
            if kind == "zero":
                assert got.is_zero and got.den.is_const
            elif kind == "shared factor" and not got.is_zero:
                assert got.den != den
            cases[kind] += 1


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

    def test_quotient_rule_cancels_factors_of_the_squared_denominator(self):
        # d/dx (x + m)/(m x): n'd - nd' = m x - (x + m) m = -m^2 shares m^2
        # with d^2 = m^2 x^2 but only m with d, and the value is -1/x^2
        ctx = ScalarContext(FIELD, ("x",), constants=("m",))
        f = parse_scalar("(x + m)/(m*x)", ctx)
        x2 = MultiPoly(("m", "x"), {(0, 2): Fraction(1)})
        assert f.val.partial("x") == RatFunc(MultiPoly.const(("m", "x"), -1), x2)
        assert f.partial("x") == parse_scalar("-1/x^2", ctx)

    def test_generator_derivative_is_cached_per_context(self):
        ctx = field_with_extension(("x", "z"), "y", "y^2 - x^3 - z/2 - 1")
        ext = ctx.extension
        gen, rel = ext.gen, ext.relation
        for name in ("x", "z"):
            cached = ext.derivative(name)
            assert ext.derivative(name) is cached
            assert ext.derivatives[name] is cached
            num = Scalar.make(ctx, ext.element(rel.partial(name)))
            den = Scalar.make(ctx, ext.element(rel.partial(gen)))
            assert Scalar.make(ctx, cached) == -(num / den)
        assert ctx.var("y").partial("z") == 1 / (4 * ctx.var("y"))

    def test_generator_derivative_free_of_the_variable(self, monkeypatch):
        # the relation does not involve t: dy/dt is zero, found without
        # inverting dp/dy, and still at the extension level
        ctx = field_with_extension(("x", "t"), "y", "y^2 - x^3 - 1")

        def refuse(self):
            raise AssertionError("dy/dt inverted dp/dy")

        monkeypatch.setattr(ExtElem, "inverse", refuse)
        zero = ctx.extension.derivative("t")
        assert type(zero) is ExtElem and zero.is_zero
        assert ctx.extension.derivative("t") is zero
        y, t = ctx.var("y"), ctx.var("t")
        assert (y * t).partial("t") == y

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
        value = substitute(X**2 + Y, {"x": self.t**2, "y": self.t**3})
        assert value == self.t**4 + self.t**3

    def test_field_image(self):
        field = ScalarContext(FIELD, ("x",))
        target = ScalarContext(FIELD, ("t",))
        t = target.var("t")
        value = substitute(field.one / field.var("x"), {"x": t**2})
        assert value == target.one / t**2

    def test_denominator_maps_to_zero(self):
        field = ScalarContext(FIELD, ("x",))
        target = ScalarContext(FIELD, ("t",))
        with pytest.raises(TargetDivisionByZero):
            substitute(field.one / field.var("x"),
                       {"x": target.zero})

    def test_incomplete_bindings(self):
        with pytest.raises(IncompleteBindings):
            substitute(X + Y, {"x": self.t})

    def test_images_from_two_contexts(self):
        other = ScalarContext(POLYNOMIAL, ("s",))
        with pytest.raises(ContextMismatch):
            substitute(X + Y, {"x": self.t, "y": other.var("s")})

    def test_empty_bindings_map_into_the_source_context(self):
        # no image fixes no target: constants stay, base constants map to
        # themselves, and a variable without an image is refused
        value = substitute(POLY.const(Fraction(3, 2)), {})
        assert value == POLY.const(Fraction(3, 2)) and value.ctx == POLY
        with_m = ScalarContext(POLYNOMIAL, ("x",), ("m",))
        m = with_m.var("m")
        assert substitute(m**2 + 1, {}) == m**2 + 1
        with pytest.raises(IncompleteBindings) as err:
            substitute(X, {})
        assert "'x'" in str(err.value)

    @pytest.mark.parametrize("text", ["y / x", "1 / x"])
    def test_denominator_not_invertible_in_target(self, text):
        # x -> t^2 maps 1/x outside Q[t], both alone and as the coefficient
        # of the extension generator
        sqrt = field_with_extension(("x",), "y", "y^2 - x")
        value = parse_scalar(text, sqrt)
        with pytest.raises(TargetDivisionByZero) as err:
            substitute(value, {"x": self.t**2, "y": self.t})
        assert err.value.code == "target-division-by-zero"

    def test_extension_element_maps_through_one_division(self, monkeypatch):
        # (z - y)/(z - 1) has the coefficient z/(z - 1), which alone leaves
        # Q[t] under z -> t; the whole numerator maps to t - t = 0, and the
        # map never reduces a coefficient on its own
        def refuse(self):
            raise AssertionError("substitution read ExtElem.coeffs")

        monkeypatch.setattr(ExtElem, "coeffs", property(refuse))
        ctx = field_with_extension(("x", "z"), "y", "y^2 - x")
        images = {"x": self.t**2, "z": self.t, "y": self.t}
        assert substitute(parse_scalar("(z - y) / (z - 1)", ctx), images) == 0
        value = substitute(parse_scalar("(x + y*z) / z", ctx), images)
        assert value == 2 * self.t
        with pytest.raises(TargetDivisionByZero) as err:
            substitute(parse_scalar("(z + y) / (z^2 - x)", ctx), images)
        assert err.value.code == "target-division-by-zero"

    def test_variable_only_in_common_denominator_needs_an_image(self):
        # y / x stores the numerators (0, 1) over the denominator x: the
        # scan must read the denominator to ask for x
        sqrt = field_with_extension(("x",), "y", "y^2 - x")
        with pytest.raises(IncompleteBindings) as err:
            substitute(parse_scalar("y / x", sqrt), {"y": self.t})
        assert "'x'" in str(err.value)

    def test_constant_only_in_denominator_maps_to_namesake(self):
        sqrt = field_with_extension(("x",), "y", "y^2 - x", constants=("m",))
        target = ScalarContext(FIELD, ("t",), ("m",))
        t, m = target.var("t"), target.var("m")
        value = parse_scalar("y / m", sqrt)
        assert substitute(value, {"x": t**2, "y": t}) == t / m
        with pytest.raises(IncompleteBindings) as err:
            substitute(value, {"x": self.t**2, "y": self.t})
        assert "'m'" in str(err.value)


class TestCanonicalStorage:
    def test_polynomial_difference_demotes_to_rational(self):
        value = (X + 1) - X
        assert value.is_constant_rational
        assert as_fraction(value) == 1

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


def _assert_zero_rule(value):
    """A Scalar equal to zero holds ``scalars.ZERO`` itself, and its zero
    tests agree with ``val == 0``."""
    is_zero = value.val == 0
    assert value.is_zero is is_zero
    assert bool(value) is not is_zero
    if is_zero:
        assert value.val is scalars.ZERO
    return is_zero


class TestCanonicalZero:
    """Every rational zero a Scalar holds is ``scalars.ZERO`` itself, so
    every zero test is one identity comparison.  Each case below reaches a
    different site that makes a zero: ``ScalarContext.const``, ``_demote``
    of a rational, polynomial, quotient or extension payload, ``__neg__``
    and both operand orders of ``__mul__``."""

    CTX = field_with_extension(("x", "z"), "y", "y^2 - x^3 - 1")

    def values(self):
        """Seeded values at the four payload levels: rational, MultiPoly,
        RatFunc and ExtElem."""
        rng = random.Random(2310)
        ctx = self.CTX
        out = []
        for level, make in enumerate([
                lambda: ctx.const(random_fraction(rng, zero_ok=False)),
                lambda: random_poly_scalar(rng, ctx, zero_ok=False),
                lambda: random_field_scalar(rng, ctx),
                lambda: random_ext_scalar(rng, ctx)]):
            kind = (Fraction, MultiPoly, RatFunc, ExtElem)[level]
            found = [v for v in (make() for _ in range(12))
                     if type(v.val) is kind]
            assert len(found) >= 3, kind
            out.extend(found[:4])
        return out

    def test_shared_zero_and_one(self):
        ctx = self.CTX
        assert ctx.zero is ctx.zero
        assert ctx.one is ctx.one
        assert ctx.zero.val is scalars.ZERO
        assert ctx.one.val is scalars.ONE

    def test_constants(self):
        ctx = self.CTX
        for value in (0, Fraction(0), Fraction(0, 5), -0):
            assert _assert_zero_rule(ctx.const(value))
        assert not _assert_zero_rule(ctx.const(Fraction(1, 5)))

    def test_cancelling_sums(self):
        for a in self.values():
            assert not _assert_zero_rule(a)
            assert _assert_zero_rule(a - a)
            assert _assert_zero_rule(a + (-a))
            assert _assert_zero_rule(-a + a)
            assert _assert_zero_rule(-(a - a))

    def test_zero_products(self):
        ctx = self.CTX
        zero, minus_one = ctx.zero, ctx.const(-1)
        for a in self.values() + [minus_one, ctx.one, ctx.const(3)]:
            assert _assert_zero_rule(zero * a)
            assert _assert_zero_rule(a * zero)
            assert _assert_zero_rule(0 * a)
            assert _assert_zero_rule(a * 0)
            assert _assert_zero_rule((a - a) * a)
            assert _assert_zero_rule(a * (a - a))
        # a rational zero times -1, in both operand orders
        assert _assert_zero_rule(zero * minus_one)
        assert _assert_zero_rule(minus_one * zero)
        assert _assert_zero_rule(ctx.const(Fraction(0, 5)) * -1)
        assert _assert_zero_rule(-1 * ctx.const(Fraction(0, 5)))

    def test_negated_zero(self):
        ctx = self.CTX
        assert _assert_zero_rule(-ctx.zero)
        assert _assert_zero_rule(-ctx.const(0))
        assert _assert_zero_rule(-(ctx.one - 1))

    def test_made_from_zero_payloads(self):
        ctx = self.CTX
        assert _assert_zero_rule(Scalar.make(ctx, MultiPoly.zero(ctx.all_vars)))
        assert _assert_zero_rule(Scalar.make(ctx, Fraction(0)))
        assert _assert_zero_rule(Scalar.make(
            ctx, ctx.var("x").val - ctx.var("x").val))

    def test_partial_of_a_constant(self):
        ctx = self.CTX
        x, y = ctx.var("x"), ctx.var("y")
        # free of z at every level: rational, MultiPoly, RatFunc, ExtElem
        for value in (ctx.const(Fraction(3, 2)), x**2 + 1, 1 / (x + 1),
                      y / (x + 1) + x):
            assert _assert_zero_rule(value.partial("z"))
            assert _assert_zero_rule(value.partial("x")) \
                == value.is_constant_rational

    def test_extension_product_that_cancels(self):
        ctx = self.CTX
        x, y = ctx.var("x"), ctx.var("y")
        for a in self.values():
            assert type((y + a).val) is ExtElem or type(a.val) is ExtElem
            assert _assert_zero_rule((y + a) * (y - a) - (x**3 + 1 - a * a))
            assert _assert_zero_rule(a * a.inverse() - 1)
        # the payload product itself, made canonical by Scalar.make
        u = (y + x).val
        assert _assert_zero_rule(
            Scalar.make(ctx, u * (y - x).val) - (x**3 + 1 - x * x))

    def test_parsed_cancellation(self):
        ctx = self.CTX
        for text in ("x - x", "0", "y*y - x^3 - 1", "0/5", "2 - 2"):
            assert _assert_zero_rule(parse_scalar(text, ctx))

    def test_dot_that_cancels(self):
        ctx = self.CTX
        x, z = ctx.var("x"), ctx.var("z")
        values = self.values()
        for a, b in zip(values, values[1:]):
            assert _assert_zero_rule(
                scalars.dot([(a, b), (-a, b)], ctx.zero))
            assert _assert_zero_rule(scalars.dot([(a, b)], -(a * b)))
        # polynomial products go through the multiply-accumulate kernel
        assert _assert_zero_rule(
            scalars.dot([(x, z), (-x, z), (x, x)], -(x * x)))
        assert _assert_zero_rule(scalars.dot([(x, z), (x, -z)], ctx.zero))

    def test_tensor_sum_that_cancels(self):
        from afd.algebraifold import Algebraifold
        from afd.tensors import Tensor

        A = Algebraifold.build(self.CTX)
        values = self.values()
        T = Tensor.make(A, 1, 1, {(1, 1): values[0], (1, 2): values[5],
                                  (2, 1): values[10], (2, 2): values[15]})
        for total in (T - T, T + (-T), -T + T):
            assert total.is_zero
            assert all(_assert_zero_rule(total.get(idx))
                       for idx in ((1, 1), (1, 2), (2, 1), (2, 2)))
        half = Tensor.make(A, 1, 1, {(1, 1): values[0], (2, 2): values[15]})
        assert sorted((T - half).comp) == [(1, 2), (2, 1)]


class TestContextValidation:
    def test_tower_rejected(self):
        rel1 = from_terms(("x", "u"), {(0, 2): Fraction(1),
                                       (1, 0): Fraction(-1)})
        rel2 = from_terms(("x", "w"), {(0, 2): Fraction(1),
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

    @pytest.mark.parametrize("relation, degree", [
        ("x*y^2 - x*z", 2), ("(x+1)*(y^2 - z)", 2), ("x*y^3 - x*z", 3)])
    def test_content_in_the_base_is_a_unit(self, relation, degree):
        # separable over Q(x, z), where the content x or x + 1 is a unit
        ctx = field_with_extension(("x", "z"), "y", relation)
        assert ctx.var("y") ** degree == ctx.var("z")
        # the context keeps the primitive part
        assert (ctx.extension.gen, ctx.extension.relation) == ("y", from_terms(
            ("x", "z", "y"), {(0, 0, degree): 1, (0, 1, 0): -1}))

    def test_content_divided_out_before_the_checks(self):
        with pytest.raises(ReducibleRelation):
            field_with_extension(("x", "z"), "y", "x*y^2 - x^3")
        with pytest.raises(NotSeparable):
            field_with_extension(("x", "z"), "y", "x*(y - z)^2")

    def test_relation_kept_primitive(self):
        # with the content x kept, sending x to 0 would map the relation to
        # zero whatever y and z map to
        from afd.algebraifold import Algebraifold
        from afd.errors import RelationNotPreserved
        from afd.maps import AlgebraifoldHom, FormalLine

        source = Algebraifold.build(
            field_with_extension(("x", "z"), "y", "x*(y^2 - z)"))
        target = FormalLine.rational().algebraifold
        with pytest.raises(RelationNotPreserved):
            AlgebraifoldHom.build(source, target, {"x": 0, "z": "t", "y": "t"})

    def test_rational_coefficient_relations(self):
        with pytest.raises(ReducibleRelation):
            field_with_extension(("x",), "y", "y^2 - 1/4")
        ctx = field_with_extension(("x",), "y", "y^2 - 1/2")
        assert ctx.var("y") ** 2 == ctx.const(Fraction(1, 2))

    def test_seed_zeroing_the_leading_coefficient_is_skipped(self):
        # the first seed x = 1 kills the leading coefficient x - 1; the
        # next, x = 2, leaves y^2 - 2 with no rational root
        ctx = field_with_extension(("x",), "y", "(x - 1)*y^2 - x")
        y = ctx.var("y")
        assert (ctx.var("x") - 1) * y**2 == ctx.var("x")
        # at x = 1 this one drops to -(y^2 + 2), which has no rational root
        with pytest.raises(ReducibleRelation):
            field_with_extension(("x",), "y", "((x - 1)*y - 1)*(y^2 + 2)")

    @pytest.mark.parametrize("relation", ["x*w^3 + w + y", "x*w^3 - y*w - 1"])
    def test_cubic_with_roots_along_a_line_accepted(self, relation):
        # linear in y and primitive in w, so irreducible over Q(x, y) by
        # Gauss's lemma; w = -1 is a root wherever y = x + 1, so trial points
        # on that line alone would call it reducible
        ctx = field_with_extension(("x", "y"), "w", relation)
        assert ctx.extension.degree == 3
        w = ctx.var("w")
        assert parse_scalar(relation, ctx) == ctx.zero
        assert w * w.inverse() == ctx.one

    def test_reducible_cubic_over_two_variables_refused(self):
        with pytest.raises(ReducibleRelation):
            field_with_extension(("x", "y"), "w", "(x*w - y)*(w^2 - x - y)")

    def test_relation_over_the_rationals_alone(self):
        with pytest.raises(ReducibleRelation):
            field_with_extension((), "y", "y^2 - 4")
        ctx = field_with_extension((), "y", "y^2 - 2")
        assert ctx.var("y") ** 2 == ctx.const(2)

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
            assert s * s.inverse() == ctx.one, trial
        assert time.monotonic() - started < 20

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            ScalarContext(POLYNOMIAL, ("x", "x"))


def _enumerated_rational_root(coeffs):
    """The rational root theorem by divisor enumeration: the reference for
    ``scalars._rational_roots_exist``, exponential in the bit size."""
    while coeffs and coeffs[-1] == 0:
        coeffs = coeffs[:-1]
    if len(coeffs) <= 1:
        return False
    if coeffs[0] == 0:
        return True

    def divisors(n):
        out = set()
        for d in range(1, isqrt(n) + 1):
            if n % d == 0:
                out.add(d)
                out.add(n // d)
        return out

    return any(sum(c * root ** i for i, c in enumerate(coeffs)) == 0
               for p in divisors(abs(coeffs[0]))
               for q in divisors(abs(coeffs[-1]))
               for root in (Fraction(p, q), Fraction(-p, q)))


def _int_product(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


BIG = 10**40 + 7  # 41 digits: divisor enumeration never finishes


class TestRationalRoots:
    @pytest.mark.parametrize("planted", [False, True])
    def test_agrees_with_divisor_enumeration(self, planted):
        rng = random.Random(11 + planted)
        for trial in range(1000):
            degree, bound = rng.choice([2, 3]), rng.choice([3, 12, 60])
            if planted:
                root = [-rng.randint(-bound, bound), rng.randint(1, bound)]
                rest = [rng.randint(-bound, bound) for _ in range(degree)]
                rest[-1] = rest[-1] or 1
                coeffs = _int_product(root, rest)
            else:
                coeffs = [rng.randint(-bound, bound) for _ in range(degree + 1)]
                coeffs[-1] = coeffs[-1] or -1
            want = _enumerated_rational_root(coeffs)
            assert planted <= want, (trial, coeffs)
            assert scalars._rational_roots_exist(list(coeffs)) == want, (
                trial, coeffs)

    @pytest.mark.parametrize("coeffs, want", [
        ([-BIG, 0, 1], False),
        ([-BIG * BIG, 0, 1], True),
        ([-BIG, 0, 0, 1], False),
        ([-BIG ** 3, 0, 0, 1], True),
        (_int_product([-BIG, 3], [BIG + 1, 5, 7]), True),
        (_int_product([BIG, 1], [-BIG, 0, 1]), True),
        ([BIG, -BIG, 2, 6], False),
    ])
    def test_huge_coefficients(self, coeffs, want):
        assert scalars._rational_roots_exist(list(coeffs)) is want

    @pytest.mark.parametrize("relation, reducible", [
        (f"y^2 - x - {BIG}", False),
        (f"y^2 - (x + {BIG})^2", True),
        (f"y^3 - x - {BIG}", False),
        (f"(y - x - {BIG}) * (y^2 + x)", True),
        (f"{BIG} * y^3 + y - x", False),
    ])
    def test_huge_constant_relations_are_decided_fast(self, relation, reducible):
        import time

        started = time.monotonic()
        if reducible:
            with pytest.raises(ReducibleRelation):
                field_with_extension(("x",), "y", relation)
        else:
            field_with_extension(("x",), "y", relation)
        assert time.monotonic() - started < 1


# ---------------------------------------------------------------------------
# Algebraic properties on randomized values
# ---------------------------------------------------------------------------

FIELD2 = ScalarContext(FIELD, ("x", "y"))


class TestQuadraticRelations:
    """A degree-2 relation is reducible exactly when its discriminant is a
    square polynomial; ``_int_square_root`` finds the root."""

    VARS = ("x", "y", "z")

    @staticmethod
    def integer_part(poly):
        return {e: c * poly.denom for e, c in poly.nums.items()}

    def test_square_roots_of_random_squares(self):
        rng = random.Random(1903)
        for trial in range(200):
            r = _random_poly(rng, self.VARS, max_terms=5)
            if r.is_zero:
                continue
            r = r.scale(r.denom)  # an integer polynomial
            square = self.integer_part(r * r)
            root = scalars._int_square_root(square, 3)
            assert root in (r.nums, (-r).nums), trial
            assert scalars._is_square(r * r)
            assert scalars._is_square((r * r).scale(Fraction(4, 9)))
            # a non-square rational multiple, and a perturbed square
            assert scalars._int_square_root(
                {e: 2 * c for e, c in square.items()}, 3) is None, trial
            assert not scalars._is_square(r * r * MultiPoly.const(
                self.VARS, Fraction(3, 7))), trial
            bumped = r * r + MultiPoly.var(self.VARS, rng.choice(self.VARS))
            assert not scalars._is_square(bumped), trial
            assert not scalars._is_square(-(r * r)), trial

    def test_no_square_shapes(self):
        x = MultiPoly.var(self.VARS, "x")
        one = MultiPoly.const(self.VARS, 1)
        for poly in (x, -x * x, x * x + one, x ** 3, x * x * x * x + x):
            assert not scalars._is_square(poly), poly
        assert scalars._is_square(MultiPoly.zero(self.VARS))

    def test_counterexample_of_the_specialization_test(self):
        # every seed specializes y^2 - (x^2 + P) to y^2 - s^2, which has
        # rational roots, yet the relation is irreducible
        product = " * ".join(f"(x - ({s}))" for s in scalars._SPECIALIZE_SEEDS)
        ctx = field_with_extension(("x",), "y", f"y^2 - (x^2 + {product})")
        y = ctx.var("y")
        assert y * y == parse_scalar(f"x^2 + {product}", ctx)

    @pytest.mark.parametrize("relation", [
        "y^2 - x^2", "y^2 - 4/9*x^2*z^4", "4*y^2 + 4*x*y + x^2 - 9*z^2",
        "x*y^2 + (x + z)*y + z", "(y - x*z)*(3*y + 2)", "z^2*y^2 - (x + 1)^2"])
    def test_reducible_quadratics_refused(self, relation):
        with pytest.raises(ReducibleRelation):
            field_with_extension(("x", "z"), "y", relation)

    @pytest.mark.parametrize("relation", [
        "y^2 - 2*x^2", "y^2 - x^3 - 1", "y^2 - x*z", "x*y^2 - z",
        "y^2 - 3/5*(x + z)^2", "y^2 + x^2"])
    def test_irreducible_quadratics_accepted(self, relation):
        ctx = field_with_extension(("x", "z"), "y", relation)
        assert ctx.irreducibility_verified

    def test_against_sympy_factorization(self):
        sympy = pytest.importorskip("sympy")
        rng = random.Random(1904)
        y = sympy.Symbol("y")
        variables = ("x", "z", "y")
        verdicts = set()
        for trial in range(40):
            coeffs = [_random_poly(rng, ("x", "z"), max_terms=2, max_deg=2)
                      for _ in range(3)]
            if coeffs[2].is_zero:
                continue
            if trial % 2:  # force a linear factor
                (c, d), (e, f) = ([_random_poly(rng, ("x", "z"), 2, 1)
                                   for _ in range(2)] for _ in range(2))
                if c.is_zero or e.is_zero:
                    continue
                coeffs = [d * f, c * f + d * e, c * e]
            relation = sum(
                (coeffs[k].reordered(variables)
                 * MultiPoly.var(variables, "y") ** k for k in range(3)),
                MultiPoly.zero(variables))
            text = render_poly(relation)
            factors = sympy.factor_list(
                sympy.sympify(text.replace("^", "**")))[1]
            irreducible = not any(sympy.degree(f, y) == 1 for f, _ in factors)
            assert scalars.relation_is_irreducible(relation, "y") \
                == irreducible, text
            verdicts.add(irreducible)
        assert verdicts == {True, False}


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
        assert a * a.inverse() == FIELD2.one

    @given(ext_scalars(ELL), ext_scalars(ELL), ext_scalars(ELL))
    def test_ring_axioms_extension(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(ext_scalars(ELL).filter(lambda s: not s.is_zero))
    def test_extension_inverse(self, a):
        assert a * a.inverse() == ELL.one


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
            return Scalar.make(ELL, ELL.extension.element(v.reordered(("x", "y"))))

        direct = to_ext(p) * to_ext(q)
        via_lift = to_ext(p * q)
        assert direct == via_lift


# ---------------------------------------------------------------------------
# Extension arithmetic against the dense RatFunc reference
# ---------------------------------------------------------------------------

def _trim(v):
    while v and v[-1].is_zero:
        v.pop()
    return v


class DenseExtension:
    """Schoolbook extension arithmetic, kept as the reference: an element is
    a dense vector of separately reduced RatFuncs, reduced modulo the
    relation by division with remainder over the rational-function field,
    and inverted by the extended Euclidean algorithm."""

    def __init__(self, ctx):
        self.gen, self.rel = ctx.extension.gen, ctx.extension.relation
        self.base = ctx.all_vars
        one = MultiPoly.const(self.base, 1)
        self.zero = RatFunc(MultiPoly.zero(self.base), one)
        self.one = RatFunc(one, one)
        self.modulus = self.dense(self.rel)
        self.degree = len(self.modulus) - 1

    def dense(self, poly):
        """A polynomial over base + (gen,) as a RatFunc vector in gen."""
        by_power = {}
        for e, c in poly.terms.items():
            by_power.setdefault(e[-1], {})[e[:-1]] = c
        return [RatFunc(MultiPoly(self.base, by_power.get(k, {})),
                        self.one.den)
                for k in range(max(by_power, default=-1) + 1)]

    def reduce(self, v):
        v = _trim(list(v))
        if len(v) > self.degree:
            v = self.divmod(v, self.modulus)[1]
        return v + [self.zero] * (self.degree - len(v))

    def product(self, a, b):
        a, b = _trim(list(a)), _trim(list(b))
        out = [self.zero] * max(len(a) + len(b) - 1, 0)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] = out[i + j] + x * y
        return _trim(out)

    def divmod(self, a, b):
        a = list(a)
        q = [self.zero] * max(len(a) - len(b) + 1, 0)
        inv = b[-1].inverse()
        while len(a) >= len(b):
            c = a[-1] * inv
            k = len(a) - len(b)
            q[k] = q[k] + c
            for i, y in enumerate(b):
                a[k + i] = a[k + i] - c * y
            _trim(a)
        return _trim(q), a

    def add(self, a, b):
        return self.reduce(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return self.reduce(x - y for x, y in zip(a, b))

    def mul(self, a, b):
        return self.reduce(self.product(a, b))

    def inverse(self, a):
        r0, r1 = list(self.modulus), _trim(list(a))
        s0, s1 = [], [self.one]
        while r1:
            q, r = self.divmod(r0, r1)
            r0, r1 = r1, r
            s0, s1 = s1, self._minus(s0, self.product(q, s1))
        if len(r0) != 1:
            raise DivisionByZero("shares a factor with the relation")
        c = r0[0].inverse()
        return self.reduce(x * c for x in s0)

    def _minus(self, a, b):
        n = max(len(a), len(b))
        a = a + [self.zero] * (n - len(a))
        b = b + [self.zero] * (n - len(b))
        return _trim([x - y for x, y in zip(a, b)])

    def partial(self, a, name):
        direct = [c.partial(name) for c in a]
        dp = self.reduce(self.dense(self.rel.partial(name)))
        dgen = self.mul([-c for c in dp], self.inverse(
            self.reduce(self.dense(self.rel.partial(self.gen)))))
        chain = self.mul([c.scale(i) for i, c in enumerate(a) if i], dgen)
        return self.add(direct, chain)


def _assert_canonical_elem(elem):
    assert lead(elem.den)[1] == 1
    g = elem.den
    for n in elem.nums:
        g = poly_gcd(g, n)
    assert g.is_const
    for n in elem.nums + (elem.den,):
        _assert_canonical(n)


# relations with monic and non-monic leading coefficients; the first has a
# transcendental, t, that it does not involve
NON_MONIC_RELATIONS = [
    (("x", "t"), "y", "x*y^2 - 1", ("1", "x", "x + 1", "t - x")),
    (("x", "z"), "y", "(x+1)*y^2 - z*y - x", ("1", "x", "z + 1", "x*z - 1")),
    (("x",), "w", "x*w^3 + w + x", ("1", "x", "x + 1", "x^2 - 2")),
    (("x",), "w", "w^4 - x^3 - x - 1", ("1", "x", "x - 1")),
    # degree 1: the multiplication matrix is 1x1 and its cofactor the empty
    # minor
    (("x",), "y", "x*y - 1", ("1", "x", "x + 1")),
    (("x",), "w", "x*w^6 - w - x - 1", ("1", "x", "x + 1")),
]


def _polynomials(ctx, texts):
    """The texts parsed in ``ctx`` as polynomials over all its variables."""
    out = []
    for t in texts:
        v = parse_scalar(t, ctx).val
        out.append(MultiPoly.const(ctx.all_vars, v)
                   if type(v) is Fraction else v)
    return out


class TestCommonDenominator:
    """Extension elements as one numerator vector over one denominator,
    checked operation for operation against the dense reference."""

    @staticmethod
    def _random_elem(rng, ctx, dens):
        """An element with RatFunc coefficients over the given denominators,
        built through ``ExtElem.make`` and read back through ``coeffs``."""
        coeffs = [RatFunc.make(_random_poly(rng, ctx.all_vars, max_terms=2,
                                            max_deg=1), rng.choice(dens))
                  for _ in range(ctx.extension.degree)]
        den = MultiPoly.const(ctx.all_vars, 1)
        for c in coeffs:
            den = den * c.den
        elem = ExtElem.make([c.num * den.exact_div(c.den) for c in coeffs],
                            den, ctx.extension)
        assert list(elem.coeffs) == coeffs
        _assert_canonical_elem(elem)
        return elem

    @pytest.mark.parametrize("case", NON_MONIC_RELATIONS,
                             ids=[r[2] for r in NON_MONIC_RELATIONS])
    def test_matches_dense_reference(self, case):
        names, gen, text, den_texts = case
        ctx = field_with_extension(names, gen, text)
        ref = DenseExtension(ctx)
        dens = _polynomials(ctx, den_texts)
        rng = random.Random(7)
        for trial in range(10):
            a = self._random_elem(rng, ctx, dens)
            b = self._random_elem(rng, ctx, dens)
            if trial % 3 == 2:
                # a + b = c cancels factors of the common denominator: the
                # content gcd step of the sum
                b = b - a
            ra, rb = list(a.coeffs), list(b.coeffs)
            got = {"+": a + b, "-": a - b, "*": a * b}
            want = {"+": ref.add(ra, rb), "-": ref.sub(ra, rb),
                    "*": ref.mul(ra, rb)}
            if not b.is_zero:
                got["inverse"] = b.inverse()
                want["inverse"] = ref.inverse(rb)
                quotient = Scalar.make(ctx, a) / Scalar.make(ctx, b)
                got["/"] = _to_top(ctx, quotient.val)
                want["/"] = ref.mul(ra, want["inverse"])
            for name in names:
                got["d" + name] = a.partial(name)
                want["d" + name] = ref.partial(ra, name)
            for op, elem in got.items():
                assert list(elem.coeffs) == want[op], (text, trial, op)
                _assert_canonical_elem(elem)

    def test_non_monic_pins(self):
        ctx = field_with_extension(("x",), "y", "x*y^2 - 1")
        x, y = ctx.var("x"), ctx.var("y")
        assert y * y == 1 / x
        assert y.partial("x") == -y / (2 * x)
        a = (x + 1) * y + 1 / x
        b = y - x
        assert (a * b) / b == a
        assert b * b.inverse() == 1

    def test_reducible_relation_has_zero_divisors(self):
        # w^4 - 1 is accepted (degree > 3 is not checked) but w - 1 divides
        # it, so w - 1 has no inverse
        ctx = field_with_extension(("x",), "w", "w^4 - 1")
        assert not ctx.irreducibility_verified
        with pytest.raises(DivisionByZero):
            (ctx.var("w") - 1).inverse()


# ---------------------------------------------------------------------------
# The extension inverse against the Bareiss elimination it replaced
# ---------------------------------------------------------------------------

def reference_fraction_free_solve(rows):
    """Solve a square system given as augmented rows, by fraction-free
    (Bareiss) Gauss-Jordan elimination over polynomials.

    Returns ``(det, x)`` with the solution ``x[i] / det``; ``det`` is the
    system's determinant up to sign, and every division is exact.
    """
    n = len(rows)
    prev = MultiPoly.const(rows[0][0].vars, 1)
    for k in range(n):
        p = next((i for i in range(k, n) if rows[i][k].nums), None)
        if p is None:
            raise DivisionByZero(
                "element shares a factor with the minimal relation")
        rows[k], rows[p] = rows[p], rows[k]
        pivot, pivot_row = rows[k][k], rows[k]
        for i, row in enumerate(rows):
            if i == k:
                continue
            f = row[k]
            for j in range(k + 1, n + 1):
                row[j] = (pivot * row[j] - f * pivot_row[j]).exact_div(prev)
        prev = pivot
    return prev, [row[n] for row in rows]


def reference_ext_inverse(self):
    """``den * adj(M) e0 / det M`` for the matrix M of multiplication by
    the numerator, by fraction-free Gauss-Jordan elimination."""
    if self.is_zero:
        raise DivisionByZero("inverse of zero")
    ext = self.ext
    # column j is lead**powers[j] * (nums * gen**j mod relation)
    cols, powers = [list(self.nums)], [0]
    zero = MultiPoly.zero(ext.base_vars)
    for _ in range(1, ext.degree):
        col, k = ext.pseudo_remainder([zero] + cols[-1])
        cols.append(col)
        powers.append(powers[-1] + k)
    rhs = [MultiPoly.const(ext.base_vars, 1)] + [zero] * (ext.degree - 1)
    det, x = reference_fraction_free_solve(
        [[col[i] for col in cols] + [rhs[i]] for i in range(ext.degree)])
    return ExtElem.make([self.den * ext.lead ** k * v
                         for v, k in zip(x, powers)], det, ext)


# relations of degree 6 and 8 in two transcendentals, for the inverse alone
HIGH_DEGREE_RELATIONS = [
    (("x", "y"), "w", "x*w^6 + y*w^2 - x - y", ("1", "x", "y + 1")),
    (("x", "y"), "w", "y*w^8 - x*w^5 + w - 1", ("1", "x")),
]


class TestInverseAgainstBareiss:
    """ExtElem.inverse, the cofactors of one row of the multiplication
    matrix over its determinant from one Laplace expansion, against the
    fraction-free Gauss-Jordan solve it replaced, kept above verbatim."""

    @pytest.mark.parametrize(
        "case", NON_MONIC_RELATIONS + HIGH_DEGREE_RELATIONS,
        ids=[r[2] for r in NON_MONIC_RELATIONS + HIGH_DEGREE_RELATIONS])
    def test_matches_reference(self, case):
        names, gen, text, den_texts = case
        ctx = field_with_extension(names, gen, text)
        dens = _polynomials(ctx, den_texts)
        rng = random.Random(1400)
        for _ in range(6):
            elem = TestCommonDenominator._random_elem(rng, ctx, dens)
            if elem.is_zero:
                continue
            got = elem.inverse()
            assert got == reference_ext_inverse(elem), (text, elem)
            _assert_canonical_elem(got)
            assert Scalar.make(ctx, got * elem) == 1

    def test_zero_divisor_raises_like_the_reference(self):
        ctx = field_with_extension(("x",), "w", "w^4 - 1")
        elem = (ctx.var("w") - 1).val
        for invert in (ExtElem.inverse, reference_ext_inverse):
            with pytest.raises(DivisionByZero) as err:
                invert(elem)
            assert str(err.value) == \
                "element shares a factor with the minimal relation"
