"""Expression grammar: parsing and canonical rendering of scalars.

Grammar (whitespace between tokens is ignored)::

    expr    := term { ("+"|"-") term }
    term    := factor { ("*"|"/") factor }
    factor  := "-" factor | base [ "^" exponent ]
    base    := integer | identifier | "(" expr ")"
    integer := digit+
    exponent:= ["-"] digit+          (negative only in field contexts)

Rendering is deterministic: terms in descending graded-lex order, explicit
``*`` and ``^``, monic denominators, and a leading negative term always spelled
with an explicit coefficient (``-1 * x^2``) so that parse(render(s)) == s.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import (
    ExprSyntaxError,
    NumberTooLong,
    UnknownIdentifier,
    UnknownVariable,
)
from .scalars import FIELD, MultiPoly, RatFunc, ScalarContext, _unpack

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")

# deepest accepted nesting of parentheses and unary minus; deeper input is a
# syntax error rather than a Python recursion failure
MAX_NESTING = 100


def _identifier_end(text, i):
    """End of the identifier that starts at ``text[i]``, or ``i`` if none
    does: a letter, then letters, digits and underscores."""
    n = len(text)
    if i == n or not text[i].isalpha():
        return i
    j = i + 1
    while j < n and (text[j].isalnum() or text[j] == "_"):
        j += 1
    return j


def is_identifier(name):
    """Whether ``name`` is exactly one identifier of the grammar."""
    return _identifier_end(name, 0) == len(name) > 0


def _tokenize(text):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        j = _identifier_end(text, i)
        if j > i:
            tokens.append(("ident", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            tokens.append((ch, ch, i))
            i += 1
            continue
        raise ExprSyntaxError(f"unexpected character {ch!r}", i,
                              expected=("integer", "identifier", "operator"))
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens, ctx):
        self.tokens = tokens
        self.ctx = ctx
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, expected):
        kind, text, where = self.peek()
        shown = text or "end of input"
        raise ExprSyntaxError(f"unexpected {shown!r}", where, expected=expected)

    def nested(self, parse, where):
        """Run ``parse`` one nesting level deeper."""
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_NESTING} levels", where)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def integer(self):
        _, text, where = self.advance()
        try:
            return int(text)
        except ValueError:  # past the interpreter's digit limit
            raise ExprSyntaxError(
                f"integer of {len(text)} digits is too long", where) from None

    def expr(self):
        value = self.term()
        while self.peek()[0] in ("+", "-"):
            op = self.advance()[0]
            rhs = self.term()
            value = value + rhs if op == "+" else value - rhs
        return value

    def term(self):
        value = self.factor()
        while self.peek()[0] in ("*", "/"):
            op = self.advance()[0]
            rhs = self.factor()
            value = value * rhs if op == "*" else value / rhs
        return value

    def factor(self):
        if self.peek()[0] == "-":  # "^" binds tighter: -m^2 is -(m^2)
            return -self.nested(self.factor, self.advance()[2])
        value = self.base()
        if self.peek()[0] == "^":
            self.advance()
            negative = False
            if self.peek()[0] == "-":
                if self.ctx.kind != FIELD:
                    raise ExprSyntaxError(
                        "negative exponents require a field context",
                        self.peek()[2], expected=("integer",))
                negative = True
                self.advance()
            if self.peek()[0] != "int":
                self.fail(expected=("integer",))
            n = self.integer()
            value = value ** (-n if negative else n)
        return value

    def base(self):
        kind, text, where = self.peek()
        if kind == "int":
            return self.ctx.const(self.integer())
        if kind == "ident":
            self.advance()
            try:
                return self.ctx.var(text)
            except UnknownVariable:
                raise UnknownIdentifier(text) from None
        if kind == "(":
            self.advance()
            value = self.nested(self.expr, where)
            if self.peek()[0] != ")":
                self.fail(expected=(")",))
            self.advance()
            return value
        self.fail(expected=("integer", "identifier", "(", "-"))


def parse_scalar(text, ctx):
    """Parse an expression into a canonical Scalar of the given context."""
    parser = _Parser(_tokenize(text), ctx)
    value = parser.expr()
    if parser.peek()[0] != "end":
        parser.fail(expected=("end of input",))
    return value


# ---------------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------------

def _fraction(n, d):
    """The text of ``n / d`` for ints ``n >= 0`` and ``d > 0``, reduced by
    one gcd.  Every number the renderer prints goes through here."""
    g = gcd(n, d)
    try:
        return str(n // g) if g == d else f"{n // g}/{d // g}"
    except ValueError:  # past the interpreter's digit limit
        raise NumberTooLong(
            f"a number of {max(n, d).bit_length()} bits is too long to"
            " render") from None


def _monomial_factors(exps, variables):
    out = []
    for v, e in zip(variables, exps):
        if e == 1:
            out.append(v)
        elif e > 1:
            out.append(f"{v}^{e}")
    return out


def _poly_pieces(poly):
    """One ``(negative, unsigned text)`` piece per term, in descending
    graded-lex order, read from the integer numerators."""
    nums, d, names = poly.nums, poly.denom, poly.vars
    k = len(names)
    pieces = []
    for e in sorted(nums, reverse=True):
        c = nums[e]
        coeff = _fraction(abs(c), d)
        factors = _monomial_factors(_unpack(e, k), names)
        if factors and coeff == "1":
            coeff = " * ".join(factors)
        elif factors:
            coeff = " * ".join([coeff, *factors])
        pieces.append((c < 0, coeff))
    return pieces


def _join(parts, flip=False):
    """The text of ``(pieces, parenthesize, tail)``, with every sign flipped
    when ``flip``.  A leading negative term keeps an explicit coefficient,
    never ``-y^2``, so that it parses back."""
    pieces, parenthesize, tail = parts
    if not pieces:
        return "0"
    out = []
    for negative, body in pieces:
        negative ^= flip
        if out:
            out.append(" - " if negative else " + ")
            out.append(body)
        elif negative:
            out.append(f"-{body}" if body[0].isdigit() else f"-1 * {body}")
        else:
            out.append(body)
    text = "".join(out)
    return f"({text}){tail}" if parenthesize else text + tail


def _sign_free(v):
    """``(v or -v, whether negated)``: the one of a payload and its negation
    whose first nonzero numerator has a positive graded-lex leading
    coefficient."""
    if type(v) is Fraction:
        negative = v < 0
    else:
        nums = (v,) if type(v) is MultiPoly else v.nums
        lead = next((n for n in nums if n.nums), None)
        negative = lead is not None and lead.lead_num() < 0
    return (-v if negative else v), negative


class Renderer:
    """Canonical text of Scalars, each distinct payload rendered once.

    A payload is kept as sign-free parts ``(pieces, parenthesize, tail)``,
    one ``(negative, unsigned text)`` piece per term, under whichever of it
    and its negation :func:`_sign_free` picks.  A payload equal to one
    rendered before, or to its negation, reuses those parts with the signs
    flipped as needed, and so do the denominators and the coefficients of
    extension elements.
    """

    def __init__(self):
        self._parts = {}

    def __call__(self, s):
        return self.text(s.val)

    def text(self, v):
        """The text of a payload: a Fraction, MultiPoly, RatFunc or ExtElem."""
        v, negated = _sign_free(v)
        return _join(self._parts_of(v), negated)

    def _parts_of(self, v):
        parts = self._parts.get(v)
        if parts is None:
            parts = self._parts[v] = self._render(v)
        return parts

    def _render(self, v):
        if type(v) is Fraction:  # sign-free, so v >= 0
            text = _fraction(v.numerator, v.denominator)
            return [(False, text)] if v else [], False, ""
        if type(v) is MultiPoly:
            return _poly_pieces(v), False, ""
        if type(v) is RatFunc:
            pieces = _poly_pieces(v.num)
            tail = "" if v.is_poly else f" / {self._den_string(v.den)}"
            return pieces, len(pieces) > 1, tail
        return self._ext_pieces(v), False, ""

    def _den_string(self, den):
        parts = self._parts_of(den)  # den is monic, so it is sign-free
        (_, body), *rest = parts[0]
        if not rest and " * " not in body:
            return body  # a single variable power needs no parentheses
        return f"({_join(parts)})"

    def _ext_pieces(self, elem):
        gen = elem.gen
        pieces = []
        coeffs = elem.coeffs  # a view that reduces every coefficient: read once
        for i in range(len(coeffs) - 1, -1, -1):
            if coeffs[i].is_zero:
                continue
            c, negative = _sign_free(coeffs[i])
            body = _join(self._parts_of(c))
            if i:
                gen_part = gen if i == 1 else f"{gen}^{i}"
                body = gen_part if body == "1" else f"{body} * {gen_part}"
            pieces.append((negative, body))
        return pieces


def render_poly(poly):
    """Canonical text of a MultiPoly."""
    return Renderer().text(poly)


def render_scalar(s):
    """Deterministic canonical text for a Scalar."""
    return Renderer()(s)


# ---------------------------------------------------------------------------
# Context helpers built on the parser
# ---------------------------------------------------------------------------

def parse_relation(constants, transcendentals, gen, text):
    """Parse a minimal relation as a polynomial in coordinates and generator."""
    aux = ScalarContext(
        "polynomial", tuple(transcendentals) + (gen,), tuple(constants))
    parsed = parse_scalar(text, aux)
    v = parsed.val
    if isinstance(v, Fraction):
        poly = MultiPoly.const(aux.all_vars, v)
    elif isinstance(v, MultiPoly):
        poly = v
    else:
        raise ExprSyntaxError("relation must be polynomial", 0)
    return poly


def field_with_extension(transcendentals, gen, relation_text, constants=()):
    """Build a function field with one algebraic generator from source text."""
    rel = parse_relation(constants, transcendentals, gen, relation_text)
    return ScalarContext(FIELD, transcendentals, constants,
                         extensions=((gen, rel),))
