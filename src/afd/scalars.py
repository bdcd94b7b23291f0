"""Exact arithmetic for the scalar tower of a coordinate algebra.

Values climb a four-level tower and are always stored at the lowest level
that can represent them:

    Fraction  ->  MultiPoly  ->  RatFunc  ->  ExtElem

* ``Fraction`` (stdlib) holds elements of the rational base field.
* ``MultiPoly`` is a sparse multivariate polynomial: a dict mapping exponent
  tuples to nonzero Fraction coefficients.  The zero polynomial is the empty
  dict.  Term order is graded lexicographic on the declared variable order.
  A product accumulates integer numerators over the operands' common
  denominators and stores each coefficient once, still as a Fraction.
* ``RatFunc`` is a reduced fraction of two MultiPolys with monic denominator.
* ``ExtElem`` represents an element of a separable algebraic extension as a
  coefficient vector over the rational-function subfield, reduced modulo the
  minimal relation of the single extension generator.

A ``ScalarContext`` declares base parameter constants (adjoined to the
coefficient field), the ordered transcendental variables, and at most one
algebraic extension.  ``Scalar`` wraps a payload together with its context
and provides field/ring arithmetic, partial derivatives (with implicit
differentiation of the extension generator) and substitution.

Everything here is immutable after construction and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from operator import add
from typing import Union

from .errors import (
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

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials
# ---------------------------------------------------------------------------

def _grlex_key(exps):
    return (sum(exps), exps)


def _integral(terms):
    """``terms`` as (exponent, integer numerator) pairs over d, the lcm of
    their denominators; returns (pairs, d)."""
    d = lcm(*[c.denominator for c in terms.values()])
    if d == 1:
        return [(e, c.numerator) for e, c in terms.items()], 1
    return [(e, c.numerator * (d // c.denominator))
            for e, c in terms.items()], d


class MultiPoly:
    """Sparse multivariate polynomial with Fraction coefficients.

    ``terms`` maps exponent tuples (one entry per variable in ``vars``) to
    nonzero coefficients; the zero polynomial has no terms.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        self.terms = terms  # trusted canonical: no zero coefficients

    @classmethod
    def from_terms(cls, variables, terms):
        return cls(variables, {e: c for e, c in terms.items() if c != 0})

    @classmethod
    def zero(cls, variables):
        return cls(variables, {})

    @classmethod
    def const(cls, variables, value):
        value = Fraction(value)
        if value == 0:
            return cls(variables, {})
        return cls(variables, {(0,) * len(variables): value})

    @classmethod
    def var(cls, variables, name):
        idx = variables.index(name)
        exps = [0] * len(variables)
        exps[idx] = 1
        return cls(variables, {tuple(exps): ONE})

    # -- predicates and views

    @property
    def is_zero(self):
        return not self.terms

    @property
    def is_const(self):
        return not self.terms or (len(self.terms) == 1 and not any(
            next(iter(self.terms))))

    def const_value(self):
        if not self.terms:
            return ZERO
        return next(iter(self.terms.values()))

    def degree_in(self, name):
        if not self.terms:
            return -1
        idx = self.vars.index(name)
        return max(e[idx] for e in self.terms)

    def involves(self, name):
        idx = self.vars.index(name)
        return any(e[idx] for e in self.terms)

    def lead(self):
        """Graded-lex leading (exponent, coefficient) pair."""
        e = max(self.terms, key=_grlex_key)
        return e, self.terms[e]

    def sorted_terms(self):
        """Terms in descending graded-lex order."""
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]),
                      reverse=True)

    # -- ring operations

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.vars == other.vars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.vars, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return MultiPoly(self.vars, out)

    def __neg__(self):
        return MultiPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not self.terms or not other.terms:
            return MultiPoly.zero(self.vars)
        a, da = _integral(self.terms)
        b, db = _integral(other.terms)
        out = {}
        get = out.get
        for e1, c1 in a:
            for e2, c2 in b:
                e = tuple(map(add, e1, e2))
                out[e] = get(e, 0) + c1 * c2
        d = da * db
        return MultiPoly(self.vars,
                         {e: Fraction(n, d) for e, n in out.items() if n})

    def scale(self, c):
        c = Fraction(c)
        if c == 0:
            return MultiPoly.zero(self.vars)
        return MultiPoly(self.vars, {e: k * c for e, k in self.terms.items()})

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = MultiPoly.const(self.vars, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def monic(self):
        """Scale so the graded-lex leading coefficient is one."""
        if not self.terms:
            return self
        _, c = self.lead()
        return self.scale(ONE / c) if c != 1 else self

    def exact_div(self, divisor):
        """Return self / divisor if the division is exact, else None."""
        if divisor.is_zero:
            raise DivisionByZero("polynomial division by zero")
        if self.is_zero:
            return self
        if divisor.is_const:
            return self.scale(ONE / divisor.const_value())
        de, dc = divisor.lead()
        rem = dict(self.terms)
        quo = {}
        while rem:
            re = max(rem, key=_grlex_key)
            qe = tuple(a - b for a, b in zip(re, de))
            if any(x < 0 for x in qe):
                return None
            qc = rem[re] / dc
            quo[qe] = qc
            for e2, c2 in divisor.terms.items():
                e = tuple(a + b for a, b in zip(qe, e2))
                s = rem.get(e, ZERO) - qc * c2
                if s:
                    rem[e] = s
                else:
                    rem.pop(e, None)
        return MultiPoly(self.vars, quo)

    def partial(self, name):
        idx = self.vars.index(name)
        out = {}
        for e, c in self.terms.items():
            k = e[idx]
            if k == 0:
                continue
            e2 = e[:idx] + (k - 1,) + e[idx + 1:]
            s = out.get(e2, ZERO) + c * k
            if s:
                out[e2] = s
            else:
                del out[e2]
        return MultiPoly(self.vars, out)

    def specialize(self, values):
        """Substitute Fractions for a subset of variables.

        ``values`` maps variable names to Fractions; the result lives over
        the remaining variables (in their original order).
        """
        keep = [i for i, v in enumerate(self.vars) if v not in values]
        new_vars = tuple(self.vars[i] for i in keep)
        out = {}
        for e, c in self.terms.items():
            for i, v in enumerate(self.vars):
                if v in values:
                    c = c * values[v] ** e[i]
            e2 = tuple(e[i] for i in keep)
            s = out.get(e2, ZERO) + c
            if s:
                out[e2] = s
            else:
                del out[e2]
        return MultiPoly(new_vars, out)

    def reordered(self, new_vars):
        """Re-express over a variable tuple containing all used variables."""
        pos = {v: i for i, v in enumerate(new_vars)}
        for i, v in enumerate(self.vars):
            if v not in pos and any(e[i] for e in self.terms):
                raise UnknownVariable(f"variable '{v}' not present in target")
        out = {}
        for e, c in self.terms.items():
            e2 = [0] * len(new_vars)
            for i, v in enumerate(self.vars):
                if e[i]:
                    e2[pos[v]] = e[i]
            out[tuple(e2)] = c
        return MultiPoly(tuple(new_vars), out)

    def __repr__(self):
        from .expr import render_poly

        return f"MultiPoly({render_poly(self)!r})"


# ---------------------------------------------------------------------------
# GCD via primitive polynomial remainder sequences
# ---------------------------------------------------------------------------

def _mono_gcd(a, b):
    return tuple(min(x, y) for x, y in zip(a, b))


def _terms_mono(poly):
    it = iter(poly.terms)
    g = next(it)
    for e in it:
        g = _mono_gcd(g, e)
    return g


def _div_mono(poly, mono):
    if not any(mono):
        return poly
    return MultiPoly(poly.vars, {
        tuple(a - b for a, b in zip(e, mono)): c
        for e, c in poly.terms.items()
    })


def _scalar_multiple(a, b):
    """Return True if a = c*b for a nonzero rational c."""
    if a.terms.keys() != b.terms.keys():
        return False
    ratio = None
    for e, c in a.terms.items():
        r = c / b.terms[e]
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return True


def _univar_coeffs(poly, idx):
    """Split by the exponent of variable ``idx``: degree -> coefficient poly."""
    out = {}
    for e, c in poly.terms.items():
        k = e[idx]
        e2 = e[:idx] + (0,) + e[idx + 1:]
        bucket = out.setdefault(k, {})
        bucket[e2] = c
    return {k: MultiPoly(poly.vars, t) for k, t in out.items()}


def _content_pp(poly, idx):
    """Content and primitive part with respect to variable ``idx``."""
    coeffs = list(_univar_coeffs(poly, idx).values())
    content = coeffs[0]
    for c in coeffs[1:]:
        if content.is_const:
            break
        content = poly_gcd(content, c)
    content = content.monic()
    if content.is_const:
        return MultiPoly.const(poly.vars, 1), poly
    return content, poly.exact_div(content)


def _prem(f, g, idx):
    """Pseudo-remainder of f by g in variable ``idx``.

    Multiplies through by the leading coefficient only when it does not
    divide the current leading term, which keeps intermediate coefficients
    from swelling on the common quasi-monic inputs.
    """
    by_deg = _univar_coeffs(g, idx)
    m = max(by_deg)
    lg = by_deg[m]
    r = f
    while not r.is_zero:
        r_by = _univar_coeffs(r, idx)
        n = max(r_by)
        if n < m:
            break
        lr = r_by[n]
        shift = [0] * len(f.vars)
        shift[idx] = n - m
        xk = MultiPoly(f.vars, {tuple(shift): ONE})
        q = lr.exact_div(lg)
        if q is not None:
            r = r - q * xk * g
        else:
            r = lg * r - lr * xk * g
    return r


def _only_var(poly, idx):
    return all(all(e[i] == 0 for i in range(len(e)) if i != idx)
               for e in poly.terms)


def _gcd_univar(a, b, idx):
    """Euclid over the rationals for single-variable polynomials.

    Remainders are made monic at every step; this keeps coefficient growth
    polynomial where a pseudo-remainder sequence would swell exponentially.
    """
    def dense(p):
        out = [ZERO] * (p.degree_in(p.vars[idx]) + 1)
        for e, c in p.terms.items():
            out[e[idx]] = c
        return out

    fa, fb = dense(a), dense(b)
    if len(fa) < len(fb):
        fa, fb = fb, fa
    while fb:
        inv = 1 / fb[-1]
        if inv != 1:
            fb = [c * inv for c in fb]
        while len(fa) >= len(fb):
            c = fa[-1]
            k = len(fa) - len(fb)
            if c:
                for i, y in enumerate(fb):
                    fa[k + i] -= c * y
            fa.pop()
            while fa and fa[-1] == 0:
                fa.pop()
        fa, fb = fb, fa
    lead = fa[-1]
    exps = [0] * len(a.vars)
    terms = {}
    for power, c in enumerate(fa):
        if c:
            exps[idx] = power
            terms[tuple(exps)] = c / lead
    return MultiPoly(a.vars, terms)


def poly_gcd(a, b):
    """Monic greatest common divisor of two polynomials; gcd(0, 0) = 0."""
    if a.vars != b.vars:
        raise ContextMismatch("gcd of polynomials over different variables")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    mono = _mono_gcd(_terms_mono(a), _terms_mono(b))
    a = _div_mono(a, _terms_mono(a))
    b = _div_mono(b, _terms_mono(b))
    base = MultiPoly(a.vars, {mono: ONE})
    if a.is_const or b.is_const:
        return base
    if _scalar_multiple(a, b):
        return (base * a).monic()
    shared = [i for i in range(len(a.vars))
              if any(e[i] for e in a.terms) and any(e[i] for e in b.terms)]
    if not shared:
        return base
    # eliminate the lowest-degree shared variable first: fewest remainder
    # steps, least coefficient swell
    idx = min(shared, key=lambda i: min(a.degree_in(a.vars[i]),
                                        b.degree_in(a.vars[i])))
    ca, pa = _content_pp(a, idx)
    cb, pb = _content_pp(b, idx)
    cont = poly_gcd(ca, cb)
    if pa.degree_in(a.vars[idx]) < pb.degree_in(a.vars[idx]):
        pa, pb = pb, pa
    if _only_var(pa, idx) and _only_var(pb, idx):
        g = _gcd_univar(pa, pb, idx)
    else:
        g = _prs_gcd(pa, pb, idx)
    return (base * cont * g).monic()


def _prs_gcd(pa, pb, idx):
    """Primitive polynomial remainder sequence in variable ``idx``."""
    while True:
        r = _prem(pa, pb, idx)
        if r.is_zero:
            return pb
        if not r.involves(pa.vars[idx]):
            return MultiPoly.const(pa.vars, 1)
        pa, pb = pb, _content_pp(r, idx)[1]


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------

class RatFunc:
    """Reduced fraction of polynomials with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = num
        self.den = den  # trusted: monic, coprime to num, nonzero

    @classmethod
    def make(cls, num, den):
        if den.is_zero:
            raise DivisionByZero("zero denominator")
        if num.is_zero:
            return cls(num, MultiPoly.const(num.vars, 1))
        g = poly_gcd(num, den)
        if not g.is_const:
            num = num.exact_div(g)
            den = den.exact_div(g)
        _, lc = den.lead()
        if lc != 1:
            num = num.scale(ONE / lc)
            den = den.scale(ONE / lc)
        return cls(num, den)

    @property
    def is_zero(self):
        return self.num.is_zero

    @property
    def is_poly(self):
        return self.den.is_const

    def __eq__(self, other):
        return (isinstance(other, RatFunc) and self.num == other.num
                and self.den == other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def __add__(self, other):
        return RatFunc.make(self.num * other.den + other.num * self.den,
                            self.den * other.den)

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return RatFunc.make(self.num * other.num, self.den * other.den)

    def inverse(self):
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        return RatFunc.make(self.den, self.num)

    def partial(self, name):
        num = self.num.partial(name) * self.den - self.num * self.den.partial(name)
        return RatFunc.make(num, self.den * self.den)

    def __repr__(self):
        return f"RatFunc({self.num!r}, {self.den!r})"


def _rf_const(variables, value):
    return RatFunc(MultiPoly.const(variables, value),
                   MultiPoly.const(variables, 1))


# ---------------------------------------------------------------------------
# Dense univariate arithmetic over RatFunc (internal, for extension elements)
# ---------------------------------------------------------------------------

def _utrim(coeffs):
    while coeffs and coeffs[-1].is_zero:
        coeffs.pop()
    return coeffs


def _uadd(a, b, zero):
    out = []
    for i in range(max(len(a), len(b))):
        x = a[i] if i < len(a) else zero
        y = b[i] if i < len(b) else zero
        out.append(x + y)
    return _utrim(out)


def _umul(a, b, zero):
    if not a or not b:
        return []
    out = [zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x.is_zero:
            continue
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return _utrim(out)


def _udivmod(a, b, inv_lead, zero):
    """Division with remainder over the rational-function field, given the
    inverse of b's leading coefficient."""
    a = list(a)
    q = [zero] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] * inv_lead
        k = len(a) - len(b)
        q[k] = q[k] + c
        for i, y in enumerate(b):
            a[k + i] = a[k + i] - c * y
        _utrim(a)
        if not a:
            break
    return _utrim(q), a


def _uinv_mod(a, p, zero, one):
    """Inverse of a modulo p via the extended Euclidean algorithm."""
    r0, r1 = list(p), list(a)
    s0, s1 = [], [one]
    while r1:
        q, r = _udivmod(r0, r1, r1[-1].inverse(), zero)
        r0, r1 = r1, r
        s0, s1 = s1, _usub(s0, _umul(q, s1, zero), zero)
    if len(r0) != 1:
        raise DivisionByZero("element shares a factor with the minimal relation")
    c = r0[0].inverse()
    return [x * c for x in s0]


def _usub(a, b, zero):
    return _uadd(a, [-x for x in b], zero)


# ---------------------------------------------------------------------------
# Algebraic extension elements
# ---------------------------------------------------------------------------

def _dense_in_gen(poly, gen, base_vars):
    """A polynomial over base_vars + (gen,) as a dense RatFunc vector in gen."""
    idx = poly.vars.index(gen)
    deg = poly.degree_in(gen) if not poly.is_zero else 0
    dense = [_rf_const(base_vars, 0)] * (deg + 1)
    for e, c in poly.terms.items():
        rest = MultiPoly(poly.vars,
                         {e[:idx] + (0,) + e[idx + 1:]: c}).reordered(base_vars)
        dense[e[idx]] = dense[e[idx]] + RatFunc(
            rest, MultiPoly.const(base_vars, 1))
    return dense


class Extension:
    """One algebraic extension of a context: the generator, its minimal
    relation, and what every element's arithmetic reduces with.

    ``modulus`` is the relation as a dense RatFunc vector in the generator,
    ``inv_lead`` the inverse of its leading coefficient; ``zero`` and ``one``
    are the constants of the rational-function subfield; ``derivatives``
    caches the generator's implicit derivative per transcendental.  Built
    once per context and shared by all of its elements; two extensions are
    equal when their generator and relation are.
    """

    __slots__ = ("gen", "relation", "zero", "one", "modulus", "inv_lead",
                 "degree", "derivatives")

    def __init__(self, gen, relation, base_vars):
        self.gen = gen
        self.relation = relation
        self.zero = _rf_const(base_vars, 0)
        self.one = _rf_const(base_vars, 1)
        self.modulus = _dense_in_gen(relation, gen, base_vars)
        self.inv_lead = self.modulus[-1].inverse()
        self.degree = len(self.modulus) - 1
        self.derivatives = {}

    def reduce(self, dense):
        """The element with the dense coefficient vector ``dense``."""
        if len(dense) > self.degree:
            _, dense = _udivmod(dense, self.modulus, self.inv_lead, self.zero)
        coeffs = list(dense) + [self.zero] * (self.degree - len(dense))
        return ExtElem(coeffs, self)

    def __eq__(self, other):
        return self is other or (isinstance(other, Extension)
                                 and self.gen == other.gen
                                 and self.relation == other.relation)

    def __hash__(self):
        return hash((self.gen, self.relation))


class ExtElem:
    """Element of the extension field, reduced modulo the minimal relation.

    ``coeffs`` has length exactly deg(relation in the generator); entry i is
    the RatFunc coefficient of generator**i.  ``ext`` is the context's shared
    :class:`Extension`.
    """

    __slots__ = ("coeffs", "ext")

    def __init__(self, coeffs, ext):
        self.coeffs = tuple(coeffs)
        self.ext = ext

    @property
    def gen(self):
        return self.ext.gen

    @property
    def is_zero(self):
        return all(c.is_zero for c in self.coeffs)

    def __eq__(self, other):
        return (isinstance(other, ExtElem) and self.ext == other.ext
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.coeffs, self.ext.gen))

    def __add__(self, other):
        return self.ext.reduce(_uadd(list(self.coeffs), list(other.coeffs),
                                     self.ext.zero))

    def __neg__(self):
        return ExtElem([-c for c in self.coeffs], self.ext)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return self.ext.reduce(_umul(_utrim(list(self.coeffs)),
                                     _utrim(list(other.coeffs)), self.ext.zero))

    def inverse(self):
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        ext = self.ext
        return ext.reduce(_uinv_mod(_utrim(list(self.coeffs)), ext.modulus,
                                    ext.zero, ext.one))

    def partial(self, name, gen_derivative):
        """d/d(name), given the implicit derivative of the generator."""
        direct = ExtElem([c.partial(name) for c in self.coeffs], self.ext)
        # chain-rule part: (sum_i i * c_i * y**(i-1)) * dy
        dcoeffs = []
        for i, c in enumerate(self.coeffs):
            if i == 0:
                continue
            dcoeffs.append(RatFunc.make(c.num.scale(i), c.den))
        if not _utrim(list(dcoeffs)):
            return direct
        chain = self.ext.reduce(dcoeffs) * gen_derivative
        return direct + chain

    def __repr__(self):
        return f"ExtElem({self.coeffs!r}, gen={self.gen!r})"


# ---------------------------------------------------------------------------
# Irreducibility diagnostics for minimal relations
# ---------------------------------------------------------------------------

def _rational_roots_exist(coeffs):
    """Whether an integer-coefficient univariate polynomial has a root in Q.

    ``coeffs`` is dense, constant term first.  Uses the rational root theorem
    with divisor enumeration.
    """
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) <= 1:
        return False
    if coeffs[0] == 0:
        return True
    a0, ad = abs(coeffs[0]), abs(coeffs[-1])

    def divisors(n):
        out = set()
        for d in range(1, isqrt(n) + 1):
            if n % d == 0:
                out.add(d)
                out.add(n // d)
        return out

    for p in divisors(a0):
        for q in divisors(ad):
            for root in (Fraction(p, q), Fraction(-p, q)):
                if sum(c * root ** i for i, c in enumerate(coeffs)) == 0:
                    return True
    return False


_SPECIALIZE_SEEDS = (1, 2, 3, 5, 7, -1, -2, 11, 13, -5, 17, 19)


def relation_is_irreducible(relation, gen):
    """Decide irreducibility of a degree <= 3 relation over the base field.

    A polynomial of degree 2 or 3 in the generator is reducible exactly when
    it has a root in the rational-function field of the other variables.  Any
    such root survives specialization of those variables at points where the
    leading coefficient stays nonzero, so one specialization without a
    rational root proves irreducibility.  If every trial specialization has a
    rational root the relation is declared reducible (exact for honest
    reducible inputs; a thin family of irreducible polynomials with rational
    points everywhere would be mis-flagged).
    """
    deg = relation.degree_in(gen)
    if deg <= 1:
        return True
    others = [v for v in relation.vars if v != gen]
    idx = relation.vars.index(gen)
    lead = MultiPoly(relation.vars, {
        e[:idx] + (0,) + e[idx + 1:]: c
        for e, c in relation.terms.items() if e[idx] == deg
    })
    for j, seed in enumerate(_SPECIALIZE_SEEDS):
        values = {v: Fraction(seed + i) for i, v in enumerate(others)}
        if others and lead.specialize(values).is_zero:
            continue
        int_coeffs = [0] * (deg + 1)
        for e, c in _integral(relation.specialize(values).terms)[0]:
            int_coeffs[e[0]] = c
        if not _rational_roots_exist(int_coeffs):
            return True
        if not others:
            return False  # exact over Q: a root really exists
    return False


# ---------------------------------------------------------------------------
# Contexts
# ---------------------------------------------------------------------------

POLYNOMIAL = "polynomial"
FIELD = "field"


class ScalarContext:
    """Declares the coordinate algebra a Scalar lives in.

    ``constants`` are base parameters adjoined to the coefficient field (they
    are killed by every derivation); ``transcendentals`` are the coordinate
    variables; ``extensions`` holds at most one (generator, minimal relation)
    pair.  ``kind`` distinguishes polynomial rings from function fields.
    ``extension`` is the :class:`Extension` of that pair, or None.
    """

    __slots__ = ("kind", "constants", "transcendentals", "extensions",
                 "extension", "all_vars", "irreducibility_verified")

    def __init__(self, kind, transcendentals, constants=(), extensions=()):
        if kind not in (POLYNOMIAL, FIELD):
            raise ValueError(f"unknown context kind {kind!r}")
        constants = tuple(constants)
        transcendentals = tuple(transcendentals)
        extensions = tuple(extensions)
        names = constants + transcendentals + tuple(g for g, _ in extensions)
        if len(set(names)) != len(names):
            raise ValueError("context identifiers must be pairwise distinct")
        if len(extensions) > 1:
            raise UnsupportedTower(
                "at most one algebraic extension generator is supported")
        if extensions and kind != FIELD:
            raise UnsupportedTower(
                "algebraic extensions require a field context")
        self.kind = kind
        self.constants = constants
        self.transcendentals = transcendentals
        self.all_vars = constants + transcendentals
        self.irreducibility_verified = True
        checked = []
        for gen, rel in extensions:
            rel = rel.reordered(self.all_vars + (gen,))
            deg = rel.degree_in(gen)
            if deg < 1:
                raise ValueError(f"relation for '{gen}' must involve it")
            validate_relation_separable(rel, gen)
            if deg <= 3:
                if not relation_is_irreducible(rel, gen):
                    raise ReducibleRelation(
                        f"relation for '{gen}' is reducible over the base field")
            else:
                self.irreducibility_verified = False
            checked.append((gen, rel))
        self.extensions = tuple(checked)
        self.extension = (Extension(*checked[0], self.all_vars)
                          if checked else None)

    # -- identity

    def _key(self):
        return (self.kind, self.constants, self.transcendentals, self.extensions)

    def __eq__(self, other):
        return self is other or (isinstance(other, ScalarContext)
                                 and self._key() == other._key())

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        ext = "".join(f" [{g}]" for g, _ in self.extensions)
        return (f"ScalarContext({self.kind},"
                f" Q({','.join(self.constants)})"
                f"({','.join(self.transcendentals)}){ext})")

    @property
    def extension_gens(self):
        return tuple(g for g, _ in self.extensions)

    @property
    def generators(self):
        return self.transcendentals + self.extension_gens

    # -- element constructors

    def const(self, value):
        return Scalar.make(self, Fraction(value))

    def zero(self):
        return self.const(0)

    def one(self):
        return self.const(1)

    def var(self, name):
        if name in self.all_vars:
            return Scalar.make(self, MultiPoly.var(self.all_vars, name))
        ext = self.extension
        if ext is not None and name == ext.gen:
            # a linear relation reduces the generator into the subfield
            return Scalar.make(self, ext.reduce([ext.zero, ext.one]))
        raise UnknownVariable(f"'{name}' is not declared in this context")


def validate_relation_separable(relation, gen):
    """Require gcd(p, dp/dgen) to be constant (p squarefree in gen)."""
    dgen = relation.partial(gen)
    if dgen.is_zero:
        raise NotSeparable(f"relation for '{gen}' has zero derivative")
    if not poly_gcd(relation, dgen).is_const:
        raise NotSeparable(
            f"relation for '{gen}' is not squarefree in the generator")


# ---------------------------------------------------------------------------
# Scalars
# ---------------------------------------------------------------------------

Payload = Union[Fraction, MultiPoly, RatFunc, ExtElem]


def _level(payload):
    if isinstance(payload, Fraction):
        return 0
    if isinstance(payload, MultiPoly):
        return 1
    if isinstance(payload, RatFunc):
        return 2
    return 3


class Scalar:
    """An exact element of a coordinate algebra.

    Stored at the lowest tower level that can represent it; all arithmetic is
    exact and returns canonical values.
    """

    __slots__ = ("ctx", "val")

    def __init__(self, ctx, val):
        self.ctx = ctx
        self.val = val  # trusted canonical; use Scalar.make otherwise

    @classmethod
    def make(cls, ctx, payload):
        return cls(ctx, _demote(payload))

    # -- basic views

    @property
    def is_zero(self):
        v = self.val
        return v == 0 if isinstance(v, Fraction) else v.is_zero

    @property
    def is_constant_rational(self):
        return isinstance(self.val, Fraction)

    def as_fraction(self):
        if not isinstance(self.val, Fraction):
            raise ValueError(f"{self!r} is not a base rational")
        return self.val

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.ctx.const(other)
        if not isinstance(other, Scalar) or self.ctx != other.ctx:
            return NotImplemented if not isinstance(other, Scalar) else False
        return self.val == other.val

    def __hash__(self):
        return hash((self.ctx, self.val))

    def __repr__(self):
        from .expr import render_scalar

        return f"<{render_scalar(self)}>"

    # -- arithmetic

    def _coerce(self, other):
        """Coerce to a same-context Scalar; None signals NotImplemented."""
        if isinstance(other, (int, Fraction)):
            return self.ctx.const(other)
        if not isinstance(other, Scalar):
            return None
        if other.ctx != self.ctx:
            raise ContextMismatch(
                f"operands live in different contexts: {self.ctx!r} vs {other.ctx!r}")
        return other

    def _pair(self, other):
        a, b = self.val, other.val
        la, lb = _level(a), _level(b)
        top = max(la, lb)
        return _lift(self.ctx, a, la, top), _lift(self.ctx, b, lb, top)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._pair(other)
        return Scalar.make(self.ctx, a + b)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ctx, -self.val)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._pair(other)
        return Scalar.make(self.ctx, a - b)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self._pair(other)
        return Scalar.make(self.ctx, a * b)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("scalar division by zero")
        if self.is_zero:
            return self.ctx.zero()
        a, b = self._pair(other)
        if isinstance(a, Fraction):
            return Scalar.make(self.ctx, a / b)
        if isinstance(a, MultiPoly):
            result = RatFunc.make(a, b)
        else:
            result = a * b.inverse()
        out = Scalar.make(self.ctx, result)
        if self.ctx.kind == POLYNOMIAL:
            _require_in_polynomial_ring(out)
        return out

    def __rtruediv__(self, other):
        return self.ctx.const(other) / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("scalar exponents must be integers")
        if n < 0:
            return self.ctx.one() / (self ** (-n))
        result = self.ctx.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def inverse(self):
        return self.ctx.one() / self

    # -- calculus

    def partial(self, name):
        """Exact partial derivative with respect to a transcendental."""
        if name not in self.ctx.transcendentals:
            raise UnknownVariable(
                f"'{name}' is not a transcendental of this context")
        v = self.val
        if isinstance(v, Fraction):
            return self.ctx.zero()
        if isinstance(v, (MultiPoly, RatFunc)):
            return Scalar.make(self.ctx, v.partial(name))
        return Scalar.make(self.ctx, v.partial(name, _gen_derivative(self.ctx, name)))

    def substitute(self, bindings):
        """Image under the ring homomorphism sending generators to bindings.

        ``bindings`` maps transcendental and extension-generator names to
        Scalars of a single target context; base constants map to the target
        constants of the same name.
        """
        target = None
        for img in bindings.values():
            if target is None:
                target = img.ctx
            elif img.ctx != target:
                raise ContextMismatch("binding images live in different contexts")
        if target is None:
            target = self.ctx
        return _substitute(self, dict(bindings), target)


def _demote(payload):
    if isinstance(payload, ExtElem):
        if all(c.is_zero for c in payload.coeffs[1:]):
            payload = payload.coeffs[0]
        else:
            return payload
    if isinstance(payload, RatFunc):
        if payload.is_poly:
            payload = payload.num.scale(ONE / payload.den.const_value())
        else:
            return payload
    if isinstance(payload, MultiPoly):
        if payload.is_const:
            return payload.const_value()
        return payload
    return payload


def _lift(ctx, payload, frm, to):
    if frm == to:
        return payload
    if frm == 0:
        payload = MultiPoly.const(ctx.all_vars, payload)
        frm = 1
    if frm == 1 and to >= 2:
        payload = RatFunc(payload, MultiPoly.const(ctx.all_vars, 1))
        frm = 2
    if frm == 2 and to == 3:
        payload = ctx.extension.reduce([payload])
    return payload


def _require_in_polynomial_ring(s):
    """Reject values whose denominator involves a transcendental."""
    v = s.val
    if isinstance(v, (Fraction, MultiPoly)):
        return s
    if isinstance(v, RatFunc):
        den = v.den
        for name in s.ctx.transcendentals:
            if den.involves(name):
                raise NotDivisible(
                    "quotient does not lie in the polynomial ring")
        return s
    raise NotDivisible("quotient does not lie in the polynomial ring")


def _gen_derivative(ctx, name):
    """Implicit derivative of the extension generator: -(dp/dname)/(dp/dgen).

    Always returned at the extension level, even when the quotient happens to
    collapse into the rational-function subfield; computed once per context
    and transcendental.
    """
    cache = ctx.extension.derivatives
    if name not in cache:
        gen, rel = ctx.extensions[0]
        num = Scalar.make(ctx, _poly_in_gen_to_elem(ctx, rel.partial(name)))
        den = Scalar.make(ctx, _poly_in_gen_to_elem(ctx, rel.partial(gen)))
        value = -(num / den)
        cache[name] = _lift(ctx, value.val, _level(value.val), 3)
    return cache[name]


def _poly_in_gen_to_elem(ctx, poly):
    """Convert a polynomial over all_vars + (gen,) into a reduced ExtElem."""
    ext = ctx.extension
    return ext.reduce(_dense_in_gen(poly, ext.gen, ctx.all_vars))


def _substitute(s, bindings, target):
    v = s.val
    if isinstance(v, Fraction):
        return Scalar.make(target, v)
    needed = set()
    stack = [v]
    while stack:
        p = stack.pop()
        if isinstance(p, MultiPoly):
            for i, name in enumerate(p.vars):
                if any(e[i] for e in p.terms):
                    needed.add(name)
        elif isinstance(p, RatFunc):
            stack.extend((p.num, p.den))
        elif isinstance(p, ExtElem):
            needed.add(p.gen)
            for c in p.coeffs:
                stack.extend((c.num, c.den))
    for name in sorted(needed):
        if name in bindings:
            continue
        if name in s.ctx.constants:
            if name not in target.constants:
                raise IncompleteBindings(
                    f"target context lacks base constant '{name}'")
            bindings[name] = target.var(name)
        else:
            raise IncompleteBindings(f"no image given for '{name}'")
    return _subst_payload(v, bindings, target)


def _subst_payload(payload, bindings, target):
    if isinstance(payload, Fraction):
        return Scalar.make(target, payload)
    if isinstance(payload, MultiPoly):
        total = target.zero()
        for e, c in payload.terms.items():
            term = target.const(c)
            for i, name in enumerate(payload.vars):
                if e[i]:
                    term = term * bindings[name] ** e[i]
            total = total + term
        return total
    if isinstance(payload, RatFunc):
        num = _subst_payload(payload.num, bindings, target)
        den = _subst_payload(payload.den, bindings, target)
        if den.is_zero:
            raise TargetDivisionByZero("a denominator maps to zero")
        try:
            return num / den
        except NotDivisible:
            raise TargetDivisionByZero(
                "a denominator image is not invertible in the target")
    total = target.zero()
    y = bindings[payload.gen]
    for i, c in enumerate(payload.coeffs):
        if c.is_zero:
            continue
        num = _subst_payload(c.num, bindings, target)
        den = _subst_payload(c.den, bindings, target)
        if den.is_zero:
            raise TargetDivisionByZero("a denominator maps to zero")
        total = total + (num / den) * y ** i
    return total
