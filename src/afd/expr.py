"""Expression grammar: parsing and canonical rendering of scalars.

Grammar (whitespace between tokens is ignored)::

    expr    := term { ("+"|"-") term }
    term    := factor { ("*"|"/") factor }
    factor  := base [ "^" exponent ]
    base    := integer | identifier | "(" expr ")" | "-" base
    integer := digit+
    exponent:= ["-"] digit+          (negative only in field contexts)

Rendering is deterministic: terms in descending graded-lex order, explicit
``*`` and ``^``, monic denominators, and a leading negative term always spelled
with an explicit coefficient (``-1 * x^2``) so that parse(render(s)) == s.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ExprSyntaxError, UnknownIdentifier, UnknownVariable
from .scalars import FIELD, MultiPoly, RatFunc, ScalarContext

# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_OPS = set("+-*/^()")

# deepest accepted nesting of parentheses and unary minus; deeper input is a
# syntax error rather than a Python recursion failure
MAX_NESTING = 100


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
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
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
        if kind == "-":
            self.advance()
            return -self.nested(self.base, where)
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

def _render_fraction(f):
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def _monomial_factors(exps, variables):
    out = []
    for v, e in zip(variables, exps):
        if e == 1:
            out.append(v)
        elif e > 1:
            out.append(f"{v}^{e}")
    return out


def _render_term(coeff, exps, variables, leading):
    """One monomial term; ``coeff`` is signed only when leading."""
    factors = _monomial_factors(exps, variables)
    if not factors:
        return _render_fraction(coeff)
    if leading and coeff < 0:
        pieces = [_render_fraction(coeff)] + factors
    elif coeff == 1:
        pieces = factors
    else:
        pieces = [_render_fraction(coeff)] + factors
    return " * ".join(pieces)


def render_poly(poly):
    if poly.is_zero:
        return "0"
    parts = []
    for k, (exps, coeff) in enumerate(poly.sorted_terms()):
        if k == 0:
            parts.append(_render_term(coeff, exps, poly.vars, leading=True))
        else:
            parts.append(" + " if coeff > 0 else " - ")
            parts.append(_render_term(abs(coeff), exps, poly.vars, leading=False))
    return "".join(parts)


def _den_string(den):
    """Denominator rendering: a single variable power needs no parentheses."""
    if len(den.nums) == 1:
        exps, coeff = next(iter(den.terms.items()))
        factors = _monomial_factors(exps, den.vars)
        if coeff == 1 and len(factors) == 1:
            return factors[0]
    return f"({render_poly(den)})"


def render_ratfunc(rf):
    """Render a RatFunc so that appending ``* y^k`` keeps the value intact."""
    if rf.num.is_zero:
        return "0"
    num = render_poly(rf.num)
    if len(rf.num.nums) > 1:
        num = f"({num})"
    if rf.is_poly:
        return num
    return f"{num} / {_den_string(rf.den)}"


def _rf_is_one(rf):
    return rf.den.is_const and rf.num.is_const and rf.num.const_value() == 1


def render_ext(elem):
    gen = elem.gen
    pieces = []
    coeffs = elem.coeffs  # a view that reduces every coefficient: read once
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c.is_zero:
            continue
        _, lead_coeff = c.num.lead()
        negative = lead_coeff < 0
        abs_c = RatFunc(-c.num, c.den) if negative else c
        if i == 0:
            body = render_ratfunc(abs_c)
        else:
            gen_part = gen if i == 1 else f"{gen}^{i}"
            if _rf_is_one(abs_c):
                body = gen_part
            else:
                body = f"{render_ratfunc(abs_c)} * {gen_part}"
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


def render_scalar(s):
    """Deterministic canonical text for a Scalar."""
    v = s.val
    if isinstance(v, Fraction):
        return _render_fraction(v)
    if isinstance(v, MultiPoly):
        return render_poly(v)
    if isinstance(v, RatFunc):
        return render_ratfunc(v)
    return render_ext(v)


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
