"""Exact arithmetic for the scalar tower of a coordinate algebra.

Values climb a four-level tower and are always stored at the lowest level
that can represent them:

    Fraction  ->  MultiPoly  ->  RatFunc  ->  ExtElem

* ``Fraction`` (stdlib) holds elements of the rational base field.
* ``MultiPoly`` is a sparse multivariate polynomial held as integer
  numerators over one positive common denominator: ``nums`` maps packed
  monomial keys to nonzero ints, ``denom`` is an int, and
  ``gcd(denom, *nums.values())`` is 1.  Zero has no numerators and
  denominator 1.  Every kernel (sums, products, exact division, the gcd)
  works on plain ints; ``terms`` is a Fraction view keyed by exponent
  tuples, for rendering.  Term order is graded lexicographic on the
  declared variable order.
* A monomial key packs an exponent vector into one int (after Monagan and
  Pearce, CASC 2007).  Over ``k`` variables each exponent has a 16-bit
  field, variable ``i`` at bit ``16 * (k - 1 - i)``, and the total degree
  has the field above them all.  A monomial product is then one int
  addition, and int order is graded lexicographic order.  The top bit of
  every field is a guard: exponents and total degrees stay below
  ``2**15``, so a quotient key ``re - he`` is valid exactly when it is
  nonnegative with no guard bit set (a borrow sets one).  A product whose
  total degree would reach ``2**15`` raises ``ExponentOverflow``, and so
  does any power that surely would, before it is built (an extension
  element's by the degree of its norm); no key ever wraps.  So does a power
  of a rational that could pass ``2**20`` bits.
* ``_axpy`` is the one in-place update of integer numerators,
  ``out += factor * x**shift * src``, dropping every entry that cancels
  (the sparse accumulator of Monagan and Pearce).  A sum, a product (one
  update per term of the shorter factor), the remainders of the exact
  division and of the square root all run through it, and
  ``_require_degree`` is the one total-degree check before a key is built.
* ``_sum_products`` is the one sparse multiply-accumulate kernel for
  polynomial vectors (one polynomial per power of the extension generator):
  ``sum sign * a * b`` over many terms, each product's integer numerators
  added by ``_axpy`` straight into one dict per entry over one common
  integer denominator, and each entry made canonical once.  An ``ExtElem``
  product, a Riemann numerator, the chain-rule term of a shared-denominator
  partial and the polynomial products of ``dot`` all run through it.
* ``dot`` is the one sum of products of Scalars, skipping every pair with a
  zero factor: two or more polynomial products go to ``_sum_products`` at
  once, any other pair is folded in with ``+``.  Every component sum of the
  geometry modules (a derivation applied to a scalar, a bracket, a pairing,
  a covariant or Lie derivative, index raising, the Ricci scalar) calls it.
* ``RatFunc`` and ``ExtElem`` share one quotient form: polynomial
  numerators over one common monic denominator that shares no factor with
  all of them at once.  A ``RatFunc`` has one numerator; an ``ExtElem`` has
  one per power of the single extension generator, reduced modulo its
  minimal relation with polynomial arithmetic only.  Both kinds share one
  cancel step (a content gcd against the denominator, then a monic
  rescale), Henrici's sum and the quotient rule.  The product is per kind:
  cross gcds for a ``RatFunc``, reduction modulo the relation for an
  ``ExtElem``.  An ``ExtElem`` is inverted by Cramer's rule on its
  multiplication matrix: the cofactors of one row over the determinant.
* ``_laplace_minors`` is the one determinant kernel, division-free over any
  commutative ring: each minor is a Laplace expansion along its first row,
  memoized by its row and column subsets.  It gives the ``ExtElem``
  inverse here and the adjugate metric inverse in ``tensors``.

Every reduction rests on ``poly_gcd``.  It runs the heuristic GCD (GCDHEU:
evaluate the integer numerators at large integers, take an integer gcd,
interpolate back and certify by the integer exact division that
``exact_div`` also uses); a primitive polynomial remainder sequence runs
only when the heuristic gives up.

Polynomials are evaluated by two kernels, one per kind of image.
``Substitution`` maps any payload to ``Scalar`` images in a target context,
keeping ``image ** k`` per ``(name, k)`` for as long as it lives.
``_int_evaluate`` sets one variable of the integer numerators to an
integer, for GCDHEU and the irreducibility test of a relation.  Its loop is
the one integer update besides ``_axpy``: it moves every key by a
different amount.

A ``ScalarContext`` declares base parameter constants (adjoined to the
coefficient field), the ordered transcendental variables, and at most one
algebraic extension.  ``Scalar`` wraps a payload together with its context
and provides field/ring arithmetic and partial derivatives (with implicit
differentiation of the extension generator).

Scalar arithmetic has one path: coerce the operand, lift the lower payload
to the level of the other, run the payload operation, demote the result.
A zero summand of ``+`` or ``-`` and a factor 1 or -1 of ``*`` return the
other operand (negated where the sign asks) right after coercion, before
any lift.  Any other rational factor of ``*`` scales the other payload at
its own level, and ``a / b`` is ``a`` times the payload inverse of ``b``.

Everything here is immutable after construction and all operations are pure.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, isqrt, lcm
from operator import add, attrgetter, mul, or_, sub

from .errors import (
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

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# Sparse multivariate polynomials
# ---------------------------------------------------------------------------

# bits per exponent field of a packed monomial key; the top bit is a guard
_W = 16
_FIELD = (1 << _W) - 1
# every exponent and total degree stays below this
_LIMIT = 1 << (_W - 1)


def _require_degree(total, what):
    """Raise ExponentOverflow when ``what`` (a product, a power, or a key
    itself for "") would have total degree ``total``, at or above the
    limit ``2**15``: the one check that no key ever wraps."""
    if total >= _LIMIT:
        raise ExponentOverflow(
            f"{what}total degree {total} reaches the limit 2**{_W - 1}")


def _pack(exps, k):
    """The key of a tuple of ``k`` nonnegative int exponents."""
    if len(exps) != k:
        raise ValueError(f"exponent tuple {exps!r} needs {k} entries")
    key = 0
    for x in exps:
        if x < 0:
            raise ValueError(f"negative exponent in {exps!r}")
        key = key << _W | x
    total = sum(exps)
    _require_degree(total, "")
    return total << (_W * k) | key


def _unpack(key, k):
    """The exponent tuple of a key over ``k`` variables."""
    return tuple(key >> s & _FIELD for s in range(_W * (k - 1), -1, -_W))


def _var_field(k, idx):
    """The shift of variable ``idx``'s field among ``k`` and its own key,
    which adds one to that field and to the total."""
    s = _W * (k - 1 - idx)
    return s, 1 << (_W * k) | 1 << s


def _guards(k):
    """The guard bits of all ``k + 1`` fields of a key over ``k`` variables."""
    return ((1 << (_W * (k + 1))) - 1) // _FIELD << (_W - 1)


def _support(keys):
    """The OR of the keys: a field is nonzero exactly where some key's is."""
    return reduce(or_, keys, 0)


def _used(poly):
    """Per variable, nonzero exactly when the polynomial involves it."""
    return _unpack(_support(poly.nums), len(poly.vars))


def _axpy(out, src, factor, shift=0):
    """``out += factor * x**shift * src`` in place, for integer polynomials
    (key -> int) and a nonzero int ``factor``: every key of ``src`` moves
    by the monomial key ``shift``, and an entry that cancels is dropped.
    The one sparse update loop of the integer kernels."""
    get = out.get
    for e, c in src.items():
        e += shift
        c = get(e, 0) + factor * c
        if c:
            out[e] = c
        else:
            del out[e]


# the bit size past which a power of a rational is refused: far above the
# 4300 digits (about 14,300 bits) that a report can print
_POWER_BITS = 1 << 20


def _require_power_fits(n, value):
    """Raise ExponentOverflow before the ``n``-th power of a payload is built
    when it surely reaches the degree limit, or for a Fraction other than 0,
    1 and -1, ``_POWER_BITS`` bits (``n`` times its larger bit length).

    A MultiPoly, and a RatFunc's numerator and denominator, have
    ``deg p**n = n * deg p``.  An ExtElem is bounded by its norm,
    ``N(a**n) = N(a)**n``: the determinant of ``ExtElem._minors`` and the
    norm's denominator ``lead**P * den**d`` have degree at most
    ``d * D + s * d * (d - 1) / 2`` for entries of degree at most D, a
    relation of degree d and coefficients of degree at most s.  If ``a**n``
    fits, D is below ``2**15``.  The norm is taken only when ``a``'s own
    degrees allow an overflow.
    """
    if type(value) is Fraction:
        bits = n * max(abs(value.numerator), value.denominator).bit_length()
        if bits > _POWER_BITS and value not in (0, 1, -1):
            raise ExponentOverflow(
                f"a rational power of about {bits} bits passes the limit"
                " 2**20 bits")
        return
    top = max(map(_degree, (value,) if type(value) is MultiPoly
                  else value.nums + (value.den,)))
    if type(value) is not ExtElem:
        return _require_degree(n * top, "a power of ")
    ext, d = value.ext, value.ext.degree
    slack = d * (d - 1) // 2 * max(
        map(_degree, [ext.lead] + [c for _, c in ext.tail]))
    bound = d * (_LIMIT - 1) + slack
    if n * (d * top + slack) <= bound:
        return
    minor, powers = value._minors()
    full = tuple(range(d))
    try:
        det = num = minor(full, full)
    except ExponentOverflow:
        return
    factors = [value.den] * d + [ext.lead] * sum(powers)
    for f in factors:
        num = num.exact_div(poly_gcd(num, f))
    # the reduced norm is num over a denominator of degree den
    den = sum(map(_degree, factors)) - _degree(det) + _degree(num)
    if n * max(_degree(num), den) > bound:
        raise ExponentOverflow(
            f"a power whose norm has degree {n * max(_degree(num), den)}"
            f" passes the bound {bound} of its entries")


def _power(base, n, result):
    """``result * base**n`` for an int ``n >= 0``, by repeated squaring."""
    while n:
        if n & 1:
            result = result * base
        n >>= 1
        if n:
            base = base * base
    return result


def _degree(p):
    """The total degree of a nonzero MultiPoly; 0 for zero."""
    return max(p.nums) >> _W * len(p.vars) if p.nums else 0


def _rational(value):
    """An int or Fraction as a Fraction; anything else, floats included, is
    a TypeError."""
    if type(value) is Fraction:
        return value
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise TypeError(
        f"exact scalars take int or Fraction values, not {type(value).__name__}")


def _poly(variables, nums, denom):
    """Trusted constructor: ``nums`` and ``denom`` already canonical."""
    p = object.__new__(MultiPoly)
    p.vars = variables
    p.nums = nums
    p.denom = denom
    return p


def _reduced(variables, nums, den):
    """``nums / den`` made canonical by one gcd; ``nums`` holds no zero and
    ``den`` is positive."""
    if den != 1:
        g = gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {e: c // g for e, c in nums.items()}
    return _poly(variables, nums, den)


class MultiPoly:
    """Sparse multivariate polynomial over Q, held as integer numerators over
    one common denominator.

    ``nums`` maps packed monomial keys to nonzero ints and ``denom`` is a
    positive int (not ``den``, which names the polynomial denominator of a
    RatFunc or ExtElem); the polynomial is ``sum nums[e] * x**e / denom``.
    Over ``k = len(vars)`` variables a key holds the exponent of variable
    ``i`` in the 16-bit field at bit ``16 * (k - 1 - i)`` and the total
    degree in the field at bit ``16 * k``, so a monomial product is a key
    sum and the largest key leads in graded-lex order.  The top bit of each
    field is a guard bit, clear in every valid key: exponents and total
    degrees stay below ``2**15``, and a product that would reach it raises
    ``ExponentOverflow``.  The constant monomial is key 0.

    The form is canonical: ``gcd(denom, *nums.values()) == 1``, and zero is
    ``nums == {}`` with ``denom == 1``, so ``==`` and ``hash`` compare
    ``(vars, nums, denom)``.  Every kernel works on plain ints.
    ``MultiPoly(variables, terms)`` normalizes a dict from exponent tuples to
    int or Fraction coefficients; ``terms`` is the read-only view in that
    form, with Fraction coefficients, for rendering.
    """

    __slots__ = ("vars", "nums", "denom")

    def __init__(self, variables, terms):
        self.vars = tuple(variables)
        k = len(self.vars)
        fracs = {e: _rational(c) for e, c in terms.items()}
        fracs = {_pack(e, k): c for e, c in fracs.items() if c}
        den = lcm(*[c.denominator for c in fracs.values()])
        # the lcm of reduced denominators is coprime to their numerators
        self.nums = {e: c.numerator * (den // c.denominator)
                     for e, c in fracs.items()}
        self.denom = den

    @classmethod
    def zero(cls, variables):
        return _poly(tuple(variables), {}, 1)

    @classmethod
    def const(cls, variables, value):
        value = _rational(value)
        if not value:
            return _poly(tuple(variables), {}, 1)
        return _poly(tuple(variables), {0: value.numerator}, value.denominator)

    @classmethod
    def var(cls, variables, name):
        variables = tuple(variables)
        _, key = _var_field(len(variables), variables.index(name))
        return _poly(variables, {key: 1}, 1)

    # -- predicates and views

    @property
    def terms(self):
        """The coefficients as a new dict from exponent tuples to nonzero
        Fractions."""
        d, k = self.denom, len(self.vars)
        return {_unpack(e, k): Fraction(c, d) for e, c in self.nums.items()}

    @property
    def is_zero(self):
        return not self.nums

    @property
    def is_const(self):
        nums = self.nums
        return not nums or (len(nums) == 1 and 0 in nums)

    def const_value(self):
        if not self.nums:
            return ZERO
        return Fraction(next(iter(self.nums.values())), self.denom)

    def _field(self, name):
        return _var_field(len(self.vars), self.vars.index(name))

    def degree_in(self, name):
        if not self.nums:
            return -1
        s, _ = self._field(name)
        return max(e >> s & _FIELD for e in self.nums)

    def involves(self, name):
        s, _ = self._field(name)
        return bool(_support(self.nums) >> s & _FIELD)

    # -- ring operations

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.vars == other.vars
                and self.denom == other.denom and self.nums == other.nums)

    def __hash__(self):
        return hash((self.vars, frozenset(self.nums.items()), self.denom))

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def _combine(self, other, sign):
        """``self + sign * other`` over the lcm of the denominators."""
        if not other.nums:
            return self
        if not self.nums:
            return other if sign == 1 else -other
        da, db = self.denom, other.denom
        if da == db:
            ma, mb, den = 1, sign, da
        else:
            g = gcd(da, db)
            ma, mb = db // g, sign * (da // g)
            den = da * ma
        out = (dict(self.nums) if ma == 1
               else {e: c * ma for e, c in self.nums.items()})
        _axpy(out, other.nums, mb)
        return _reduced(self.vars, out, den)

    def __neg__(self):
        return _poly(self.vars, {e: -c for e, c in self.nums.items()},
                     self.denom)

    def __mul__(self, other):
        a, b = self.nums, other.nums
        if not a or not b:
            return _poly(self.vars, {}, 1)
        if other.is_const:
            return self._scaled(next(iter(b.values())), other.denom)
        if self.is_const:
            return other._scaled(next(iter(a.values())), self.denom)
        # the leading keys carry the largest total degrees, and keys add
        _require_degree((max(a) + max(b)) >> _W * len(self.vars),
                        "a product of ")
        if len(a) > len(b):  # one update per term of the shorter factor
            a, b = b, a
        out = {}
        for e1, c1 in a.items():
            _axpy(out, b, c1, e1)
        return _reduced(self.vars, out, self.denom * other.denom)

    def scale(self, c):
        """The product with an int or Fraction ``c``."""
        c = _rational(c)
        return self._scaled(c.numerator, c.denominator)

    def _scaled(self, n, d):
        """The product with ``n / d`` for ints ``n`` and ``d != 0``."""
        if not n:
            return _poly(self.vars, {}, 1)
        if d < 0:
            n, d = -n, -d
        g = gcd(n, d)
        if g != 1:
            n //= g
            d //= g
        nums, den = self.nums, self.denom
        if n == d or not nums:
            return self
        # n/d and the polynomial are reduced: only gcd(n, den) and
        # gcd(content, d) cancel
        g = gcd(n, den)
        if g != 1:
            n //= g
            den //= g
        g = gcd(d, *nums.values()) if d != 1 else 1
        if g != 1:
            d //= g
            nums = {e: c // g * n for e, c in nums.items()}
        elif n != 1:
            nums = {e: c * n for e, c in nums.items()}
        return _poly(self.vars, nums, den * d)

    def inverse(self):
        return RatFunc(self, MultiPoly.const(self.vars, 1)).inverse()

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        _require_power_fits(n, self)
        return _power(self, n, MultiPoly.const(self.vars, 1))

    def lead_num(self):
        """The integer numerator of the graded-lex leading coefficient."""
        return self.nums[max(self.nums)]

    def monic(self):
        """Scale so the graded-lex leading coefficient is one."""
        return self._scaled(self.denom, self.lead_num()) if self.nums else self

    def exact_div(self, divisor):
        """Return self / divisor if the division is exact, else None.

        By Gauss's lemma the divisor's primitive integer part divides over Q
        exactly when it divides over Z, so one integer division decides.
        """
        if divisor.is_zero:
            raise DivisionByZero("polynomial division by zero")
        if self.is_zero:
            return self
        if divisor.is_const:
            return self._scaled(divisor.denom, next(iter(divisor.nums.values())))
        c = gcd(*divisor.nums.values())
        prim = divisor.nums if c == 1 else {
            e: v // c for e, v in divisor.nums.items()}
        quo = _int_quotient(self.nums, prim, _guards(len(self.vars)))
        if quo is None:
            return None
        # self / divisor = quo * divisor.denom / (self.denom * c)
        if divisor.denom != 1:
            quo = {e: v * divisor.denom for e, v in quo.items()}
        return _reduced(self.vars, quo, self.denom * c)

    def partial(self, name):
        s, unit = self._field(name)
        out = {}
        for e, c in self.nums.items():
            k = e >> s & _FIELD
            if k:
                out[e - unit] = c * k
        return _reduced(self.vars, out, self.denom)

    def reordered(self, new_vars):
        """Re-express over a variable tuple containing all used variables."""
        pos = {v: i for i, v in enumerate(new_vars)}
        for v, used in zip(self.vars, _used(self)):
            if v not in pos and used:
                raise UnknownVariable(f"variable '{v}' not present in target")
        k, n = len(self.vars), len(new_vars)
        out = {}
        for e, c in self.nums.items():
            e2 = [0] * n
            for v, x in zip(self.vars, _unpack(e, k)):
                if x:
                    e2[pos[v]] = x
            out[_pack(e2, n)] = c
        return _poly(tuple(new_vars), out, self.denom)

    def __repr__(self):
        from .expr import render_poly

        return f"MultiPoly({render_poly(self)!r})"


def _int_quotient(f, h, guard):
    """``f / h`` for nonzero integer polynomials (key -> int) if ``h``
    divides ``f`` over the integers, else None; stops at the first quotient
    term that cannot occur.  ``guard`` holds the guard bits of the keys.

    A quotient key ``re - he`` is valid exactly when it is nonnegative and
    sets no guard bit.  A divisor whose leading key exceeds ``f``'s fails
    the first step, so ``h`` need not be checked against the field limit.
    """
    he = max(h)
    hc = h[he]
    rem = dict(f)
    quo = {}
    while rem:
        re = max(rem)
        qe = re - he
        if qe < 0 or qe & guard:
            return None
        q, r = divmod(rem[re], hc)
        if r:
            return None
        quo[qe] = q
        _axpy(rem, h, -q, qe)
    return quo


# ---------------------------------------------------------------------------
# GCD: heuristic GCD (GCDHEU) first, primitive remainder sequences as the
# fallback
# ---------------------------------------------------------------------------

def _terms_mono(poly):
    """The key of the monomial gcd of the terms of a nonzero polynomial."""
    nums = poly.nums
    if len(nums) == 1:
        return next(iter(nums))
    # the gcd divides the smallest term, so only its fields can be nonzero;
    # it is 0 when the constant term is present
    low = min(nums)
    if not low:
        return 0
    k = len(poly.vars)
    mono = total = 0
    for s in range(0, _W * k, _W):
        m = _FIELD << s
        if low & m and all(map(m.__and__, nums)):
            x = min(map(m.__and__, nums))
            mono += x
            total += x >> s
    return total << (_W * k) | mono


def _div_mono(poly, mono):
    if not mono:
        return poly
    return _poly(poly.vars, {e - mono: c for e, c in poly.nums.items()},
                 poly.denom)


def _scalar_multiple(a, b):
    """Return True if a = c*b for a nonzero rational c."""
    an, bn = a.nums, b.nums
    if an.keys() != bn.keys():
        return False
    e0 = next(iter(an))
    ra, rb = an[e0], bn[e0]
    return all(c * rb == bn[e] * ra for e, c in an.items())


def _shared_vars(a, b):
    """Indices of the variables that both polynomials involve."""
    return [i for i, (x, y) in enumerate(zip(_used(a), _used(b))) if x and y]


def _univar_coeffs(poly, idx):
    """Split by the exponent of variable ``idx``: degree -> coefficient poly."""
    s, unit = _var_field(len(poly.vars), idx)
    out = {}
    for e, c in poly.nums.items():
        j = e >> s & _FIELD
        out.setdefault(j, {})[e - j * unit] = c
    return {k: _reduced(poly.vars, t, poly.denom) for k, t in out.items()}


def _content_pp(poly, idx):
    """Content and primitive part with respect to variable ``idx``."""
    coeffs = list(_univar_coeffs(poly, idx).values())
    content = _content_gcd(coeffs[0], coeffs[1:]).monic()
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
    _, unit = _var_field(len(f.vars), idx)
    r = f
    while not r.is_zero:
        r_by = _univar_coeffs(r, idx)
        n = max(r_by)
        if n < m:
            break
        lr = r_by[n]
        xk = _poly(f.vars, {(n - m) * unit: 1}, 1)
        q = lr.exact_div(lg)
        if q is not None:
            r = r - q * xk * g
        else:
            r = lg * r - lr * xk * g
    return r


def poly_gcd(a, b):
    """Monic greatest common divisor of two polynomials; gcd(0, 0) = 0.

    After the monomial, constant and scalar-multiple shortcuts the heuristic
    GCD runs on the integer numerators; the primitive remainder sequence
    runs only when the heuristic gives up.
    """
    if a.vars != b.vars:
        raise ContextMismatch("gcd of polynomials over different variables")
    if a.is_zero:
        return b.monic()
    if b.is_zero:
        return a.monic()
    ma, mb = _terms_mono(a), _terms_mono(b)
    k = len(a.vars)
    mono = (_pack(tuple(map(min, _unpack(ma, k), _unpack(mb, k))), k)
            if ma and mb else 0)
    a = _div_mono(a, ma)
    b = _div_mono(b, mb)
    base = _poly(a.vars, {mono: 1}, 1)
    if a.is_const or b.is_const:
        return base
    if _scalar_multiple(a, b):
        return (base * a).monic()
    if not _shared_vars(a, b):
        return base
    h = _heu_gcd(a.nums, b.nums)
    if h is None:
        return (base * _prs_poly_gcd(a, b)).monic()
    if len(h) == 1:
        return base  # monomial-free operands: a one-term gcd is constant
    return _poly(a.vars, {e + mono: c for e, c in h.items()}, 1).monic()


def _prs_poly_gcd(a, b):
    """gcd of two non-constant polynomials that share a variable, by
    recursive contents and a primitive remainder sequence; not normalized."""
    # eliminate the lowest-degree shared variable first: fewest remainder
    # steps, least coefficient swell
    idx = min(_shared_vars(a, b),
              key=lambda i: min(a.degree_in(a.vars[i]), b.degree_in(a.vars[i])))
    ca, pa = _content_pp(a, idx)
    cb, pb = _content_pp(b, idx)
    cont = poly_gcd(ca, cb)
    if pa.degree_in(a.vars[idx]) < pb.degree_in(a.vars[idx]):
        pa, pb = pb, pa
    return cont * _prs_gcd(pa, pb, idx)


def _prs_gcd(pa, pb, idx):
    """Primitive polynomial remainder sequence in variable ``idx``."""
    while True:
        r = _prem(pa, pb, idx)
        if r.is_zero:
            return pb
        if not r.involves(pa.vars[idx]):
            return MultiPoly.const(pa.vars, 1)
        pa, pb = pb, _content_pp(r, idx)[1]


# evaluation points tried per variable before the heuristic gives up
_HEU_TRIES = 6


def _heu_gcd(f, g):
    """gcd over the integers of two nonzero integer polynomials, up to sign,
    by the heuristic GCD of Char, Geddes and Gonnet (1989); None when it
    gives up.  ``f`` and ``g`` map keys to nonzero ints.

    The last variable either involves is evaluated at an integer xi, the
    gcd of the images is found recursively (an integer gcd once no variable
    is left) and expanded xi-adically back into a polynomial.  For
    ``xi >= 2 min(|f|, |g|) + 2`` on primitive ``f`` and ``g`` the primitive
    part of that expansion is the gcd exactly when it divides both
    (Geddes, Czapor and Labahn, Thm 7.7), so a candidate of 1 needs no
    division; otherwise xi grows as in sympy's ``heugcd``.  The fields come
    from the OR of the keys: its lowest nonzero field is that variable's,
    its highest the total degree's.
    """
    cf, cg = gcd(*f.values()), gcd(*g.values())
    c = gcd(cf, cg)
    if (len(f) == 1 and 0 in f) or (len(g) == 1 and 0 in g):
        return {0: c}
    if cf != 1:
        f = {e: v // cf for e, v in f.items()}
    if cg != 1:
        g = {e: v // cg for e, v in g.items()}
    support = _support(f) | _support(g)
    t = (support.bit_length() - 1) // _W * _W
    s = ((support & -support).bit_length() - 1) // _W * _W
    unit = 1 << t | 1 << s
    guard = _guards(t // _W)
    xi = 2 * min(max(map(abs, f.values())), max(map(abs, g.values()))) + 2
    for _ in range(_HEU_TRIES):
        ff, gg = _int_evaluate(f, s, unit, xi), _int_evaluate(g, s, unit, xi)
        if ff and gg:
            h = _heu_gcd(ff, gg)
            if h is None:
                return None
            h = _xi_adic(h, unit, xi)
            ch = gcd(*h.values())
            h = {e: v // ch for e, v in h.items()}
            if ((len(h) == 1 and 0 in h)
                    or (_int_quotient(f, h, guard) is not None
                        and _int_quotient(g, h, guard) is not None)):
                return {e: v * c for e, v in h.items()}
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    return None


def _int_evaluate(f, s, unit, xi):
    """The integer polynomial ``f`` with the variable of the field at bit
    ``s`` set to ``xi``; ``unit`` is that variable's key."""
    powers = [1]
    out = {}
    for e, c in f.items():
        j = e >> s & _FIELD
        while len(powers) <= j:
            powers.append(powers[-1] * xi)
        key = e - j * unit
        out[key] = out.get(key, 0) + c * powers[j]
    return {e: c for e, c in out.items() if c}


def _xi_adic(h, unit, xi):
    """Expand each integer coefficient of ``h`` in powers of the variable
    with key ``unit``, by symmetric base-xi digits (the inverse of
    evaluation at xi)."""
    half = xi // 2
    out = {}
    for e, c in h.items():
        while c:
            r = c % xi
            if r > half:
                r -= xi
            if r:
                out[e] = r
            c = (c - r) // xi
            e += unit
    return out


# ---------------------------------------------------------------------------
# Quotients: rational functions and algebraic extension elements
# ---------------------------------------------------------------------------

_terms_of = attrgetter("nums")  # a polynomial's terms: empty for zero

def _content_gcd(den, nums):
    """gcd of ``den`` and every nonzero entry of ``nums``; ``den`` if none."""
    g = den
    # smallest entries first: a trivial gcd usually shows on them
    for n in sorted(filter(_terms_of, nums), key=lambda n: len(n.nums)):
        if g.is_const:
            break
        g = poly_gcd(g, n)
    return g


def _cancel(nums, den):
    """The canonical ``(nums, den)`` of the quotient ``nums / den``: the
    content gcd of the numerators cancelled against ``den``, which is then
    scaled monic; zero gets the denominator one.  ``den`` is nonzero."""
    if not any(map(_terms_of, nums)):
        return nums, MultiPoly.const(den.vars, 1)
    if not den.is_const:
        g = _content_gcd(den, nums)
        if not g.is_const:
            nums = [n.exact_div(g) for n in nums]
            den = den.exact_div(g)
    return _monic_den(nums, den)


def _monic_den(nums, den):
    """``(nums, den)`` scaled so that ``den`` is monic."""
    lc = den.lead_num()
    if lc != den.denom:
        nums = [n._scaled(den.denom, lc) for n in nums]
        den = den.monic()
    return nums, den


class _Quotient:
    """Polynomial numerators ``nums`` over one monic polynomial ``den``: one
    numerator for a RatFunc, one per power of the generator for an ExtElem.

    The form is canonical: ``den`` shares no factor with all of ``nums`` at
    once, and zero has ``den`` one.  ``_with(nums, den)`` builds the same
    kind from a canonical pair; ``_cancel`` makes any pair canonical.
    """

    __slots__ = ("nums", "den")
    ext = None  # an ExtElem's Extension; a RatFunc has none

    @property
    def is_zero(self):
        return not any(map(_terms_of, self.nums))

    def __eq__(self, other):
        return (type(other) is type(self) and self.ext == other.ext
                and self.den == other.den and self.nums == other.nums)

    def __hash__(self):
        return hash((self.nums, self.den))

    def __add__(self, other):
        # Henrici's sum for reduced operands (Knuth, TAOCP vol. 2, 4.5.1):
        # gcds of the denominators and of the new numerators with their
        # common factor, never of the full unreduced sum.  A factor divides
        # a numerator vector when it divides every entry, and a denominator
        # of one is the constant 1 (monic)
        a, b = self.nums, self.den
        c, d = other.nums, other.den
        if b.is_const:
            if d.is_const:
                return self._with(list(map(add, a, c)), d)
            return self._with([x * d + y for x, y in zip(a, c)], d)
        if d.is_const:
            return self._with([x + y * b for x, y in zip(a, c)], b)
        g = poly_gcd(b, d)
        if g.is_const:
            return self._with([x * d + y * b for x, y in zip(a, c)], b * d)
        b = b.exact_div(g)
        dg = d.exact_div(g)
        t = [x * dg + y * b for x, y in zip(a, c)]
        # t = 0 only when b = d; then g2 = g and the denominator is 1
        g2 = _content_gcd(g, t)
        if not g2.is_const:
            t = [x.exact_div(g2) for x in t]
            d = d.exact_div(g2)
        return self._with(t, b * d)

    def __neg__(self):
        return self._with([-n for n in self.nums], self.den)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        """The product with a nonzero int or Fraction ``c``."""
        return self._with([n.scale(c) for n in self.nums], self.den)

    def partial(self, name):
        """d/d(name) by the quotient rule, one cancel for all numerators."""
        den = self.den
        dden = den.partial(name)
        return self._with(*_cancel([n.partial(name) * den - n * dden
                                    for n in self.nums], den * den))

    def __repr__(self):
        return f"{type(self).__name__}({self.nums!r}, {self.den!r})"


class RatFunc(_Quotient):
    """Reduced fraction ``num / den`` of polynomials with monic denominator.

    ``make`` reduces an arbitrary pair with one gcd.  The product cancels
    the cross numerator and denominator pairs of reduced operands, never
    the full unreduced product.
    """

    __slots__ = ()

    def __init__(self, num, den):
        self.nums = (num,)
        self.den = den  # trusted: monic, coprime to num, nonzero

    def _with(self, nums, den):
        return RatFunc(nums[0], den)

    @classmethod
    def make(cls, num, den):
        if den.is_zero:
            raise DivisionByZero("zero denominator")
        (num,), den = _cancel((num,), den)
        return cls(num, den)

    @property
    def num(self):
        return self.nums[0]

    @property
    def is_poly(self):
        return self.den.is_const

    def __mul__(self, other):
        (a,), b = self.nums, self.den
        (c,), d = other.nums, other.den
        if a.is_zero:
            return self
        if c.is_zero:
            return other
        if not d.is_const:
            g1 = poly_gcd(a, d)
            if not g1.is_const:
                a = a.exact_div(g1)
                d = d.exact_div(g1)
        if not b.is_const:
            g2 = poly_gcd(c, b)
            if not g2.is_const:
                c = c.exact_div(g2)
                b = b.exact_div(g2)
        return RatFunc(a * c, b * d)

    def inverse(self):
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        return self._with(*_monic_den((self.den,), self.num))


# ---------------------------------------------------------------------------
# Algebraic extension elements
# ---------------------------------------------------------------------------

def _vector_in_gen(poly, gen, base_vars):
    """A polynomial over base_vars + (gen,) as a dense vector in gen of
    polynomials over base_vars, constant term first."""
    by_power = _univar_coeffs(poly, poly.vars.index(gen))
    zero = MultiPoly.zero(base_vars)
    return [by_power[k].reordered(base_vars) if k in by_power else zero
            for k in range(max(by_power, default=0) + 1)]


def _sum_products(terms):
    """``sum sign * a * b`` over ``(a, b, sign)`` terms, for polynomial
    vectors in the generator (constant term first, unreduced), as a list of
    canonical MultiPolys; ``b`` None stands for a plain vector ``a``.

    The sparse multiply-accumulate kernel: a prepass on ints finds the lcm
    L of the denominators of the entry products, then every product's
    integer numerators, scaled to L, go into one dict per vector entry,
    and each entry is made canonical once.  A product whose total degree
    would reach ``2**15`` raises ExponentOverflow before any is built.
    """
    if not terms:
        return []
    variables = terms[0][0][0].vars
    t = _W * len(variables)
    unit = (_poly(variables, {0: 1}, 1),)
    size, dens, pairs = 0, set(), []
    for a, b, sign in terms:
        b = unit if b is None else b
        size = max(size, len(a) + len(b) - 1)
        xs = [(i, x.nums, x.denom, max(x.nums))
              for i, x in enumerate(a) if x.nums]
        for j, y in enumerate(b):
            yn = y.nums
            if yn:
                ytop, yd = max(yn), y.denom
                for i, xn, xd, xtop in xs:
                    # keys add, so the sum's top field is the total degree
                    _require_degree((xtop + ytop) >> t, "a product of ")
                    d = xd * yd
                    dens.add(d)
                    pairs.append((i + j, xn, yn, sign, d))
    L = lcm(*dens)
    acc = [{} for _ in range(size)]
    for i, xs, ys, f, d in pairs:
        f *= L // d
        if len(xs) > len(ys):  # one update per term of the shorter factor
            xs, ys = ys, xs
        for e1, c1 in xs.items():
            _axpy(acc[i], ys, c1 * f, e1)
    return [_reduced(variables, out, L) for out in acc]


def _laplace_minors(rows, zero, one):
    """The minors of a square matrix over a commutative ring, as a function
    of their row and column index tuples.

    Each minor is a Laplace expansion along its first row, memoized by its
    row and column subsets, so a determinant shares its subminors with the
    cofactors.  The entries, ``zero`` and ``one`` are ring elements with
    ``+``, ``-``, ``*`` and ``is_zero`` (Scalars or MultiPolys); the empty
    minor is ``one``.  No division runs.
    """
    memo = {((), ()): one}

    def minor(rs, cs):
        key = (rs, cs)
        value = memo.get(key)
        if value is None:
            value, row, rest = zero, rows[rs[0]], rs[1:]
            for k, c in enumerate(cs):
                a = row[c]
                if a.is_zero:
                    continue
                sub = minor(rest, cs[:k] + cs[k + 1:])
                if not sub.is_zero:
                    value = value - a * sub if k & 1 else value + a * sub
            memo[key] = value
        return value

    return minor


class Extension:
    """One algebraic extension of a context: the generator, its minimal
    relation, and what every element's arithmetic reduces with.

    The relation is ``lead * gen**degree + sum_i tail[i] * gen**i`` with
    polynomial coefficients over ``base_vars``; one whose leading
    coefficient is a constant is scaled to be monic.  ``derivatives`` caches
    the generator's implicit derivative per transcendental.  Built once per
    context and shared by all of its elements; two extensions are equal when
    their generator and relation are.
    """

    __slots__ = ("gen", "relation", "base_vars", "degree", "lead", "tail",
                 "derivatives")

    def __init__(self, gen, relation, base_vars):
        self.gen = gen
        self.relation = relation
        self.base_vars = tuple(base_vars)
        vec = _vector_in_gen(relation, gen, base_vars)
        self.degree = len(vec) - 1
        lead = vec.pop()
        if lead.is_const:
            vec = [c.scale(ONE / lead.const_value()) for c in vec]
            lead = lead.monic()
        self.lead = lead
        self.tail = [(i, c) for i, c in enumerate(vec) if c.nums]
        self.derivatives = {}

    def pseudo_remainder(self, vec):
        """Fold a polynomial vector of any length below the degree.

        Returns ``(r, k)`` with ``r`` of length ``degree`` equal to
        ``lead**k`` times ``vec`` modulo the relation; ``k`` is 0 for a
        monic relation.  Only polynomial arithmetic runs.
        """
        vec = list(vec)
        d, lead, k = self.degree, self.lead, 0
        while len(vec) > d:
            c = vec.pop()
            if c.is_zero:
                continue
            if not lead.is_const:
                vec = [lead * v for v in vec]
                k += 1
            shift = len(vec) - d
            for i, t in self.tail:
                vec[shift + i] = vec[shift + i] - c * t
        return vec + [MultiPoly.zero(self.base_vars)] * (d - len(vec)), k

    def reduce(self, vec, den):
        """The element ``vec / den``: ``vec`` a polynomial vector in the
        generator of any length, ``den`` a nonzero polynomial."""
        nums, k = self.pseudo_remainder(vec)
        return ExtElem.make(nums, den * self.lead ** k if k else den, self)

    def lift(self, value):
        """The RatFunc ``value`` as an element of the extension."""
        zero = MultiPoly.zero(self.base_vars)
        return ExtElem((value.num,) + (zero,) * (self.degree - 1),
                       value.den, self)

    def __eq__(self, other):
        return self is other or (isinstance(other, Extension)
                                 and self.gen == other.gen
                                 and self.relation == other.relation)

    def __hash__(self):
        return hash((self.gen, self.relation))


class ExtElem(_Quotient):
    """Element of the extension field, reduced modulo the minimal relation.

    The element is ``sum_i nums[i] * gen**i / den`` in the canonical
    quotient form of :class:`_Quotient`: ``nums`` holds exactly
    deg(relation in the generator) polynomials over the base variables.
    ``ext`` is the context's shared :class:`Extension`.
    """

    __slots__ = ("ext",)

    def __init__(self, nums, den, ext):
        self.nums = tuple(nums)
        self.den = den  # trusted canonical; use ExtElem.make otherwise
        self.ext = ext

    def _with(self, nums, den):
        return ExtElem(nums, den, self.ext)

    @classmethod
    def make(cls, nums, den, ext):
        """``nums / den`` in canonical form; ``den`` nonzero."""
        return cls(*_cancel(nums, den), ext)

    @property
    def gen(self):
        return self.ext.gen

    @property
    def coeffs(self):
        """Entry i is the reduced RatFunc coefficient of generator**i."""
        return tuple(RatFunc.make(n, self.den) for n in self.nums)

    def __mul__(self, other):
        if self.is_zero:
            return self
        if other.is_zero:
            return other
        return self.ext.reduce(_sum_products([(self.nums, other.nums, 1)]),
                               self.den * other.den)

    def _minors(self):
        """The minors of the matrix M whose column j is ``lead**powers[j]``
        times ``nums * gen**j`` modulo the relation, and the powers; over
        ``lead**sum(powers) * den**degree``, det M is the element's norm."""
        ext = self.ext
        cols, powers = [list(self.nums)], [0]
        zero = MultiPoly.zero(ext.base_vars)
        for _ in range(1, ext.degree):
            col, k = ext.pseudo_remainder([zero] + cols[-1])
            cols.append(col)
            powers.append(powers[-1] + k)
        return _laplace_minors(list(zip(*cols)), zero,
                               MultiPoly.const(ext.base_vars, 1)), powers

    def inverse(self):
        """``den * adj(M) e0 / det M`` for the matrix M of ``_minors``: the
        signed cofactors of its first row over its determinant."""
        if self.is_zero:
            raise DivisionByZero("inverse of zero")
        ext = self.ext
        minor, powers = self._minors()
        full = tuple(range(ext.degree))
        det = minor(full, full)
        if det.is_zero:
            raise DivisionByZero(
                "element shares a factor with the minimal relation")
        nums = []
        for j, k in zip(full, powers):
            cof = minor(full[1:], full[:j] + full[j + 1:])
            nums.append(self.den * ext.lead ** k * (-cof if j & 1 else cof))
        return ExtElem.make(nums, det, ext)

    def partial(self, name, gen_derivative):
        """d/d(name), given the implicit derivative of the generator: the
        quotient rule plus the chain-rule part
        ``(sum_i i * nums_i * gen**(i-1)) / den * gen_derivative``."""
        direct = super().partial(name)
        dnums = [n.scale(i) for i, n in enumerate(self.nums) if i]
        if gen_derivative.is_zero or not any(map(_terms_of, dnums)):
            return direct
        # an unreduced factor, one entry short: only its product is kept
        return direct + ExtElem(dnums, self.den, self.ext) * gen_derivative


# ---------------------------------------------------------------------------
# Numerators over one shared denominator
# ---------------------------------------------------------------------------

def _lcm_cofactors(dens, one):
    """The monic lcm L of the monic polynomials ``dens`` (``one`` if there
    are none) and a dict from each distinct entry to ``L / entry``, None
    where that is one; one gcd per distinct non-constant entry."""
    distinct = dict.fromkeys(dens)
    lcm_ = one
    for d in distinct:
        if d.is_const:
            continue
        if lcm_.is_const:
            lcm_ = d
        else:
            g = poly_gcd(lcm_, d)
            lcm_ = lcm_ * (d if g.is_const else d.exact_div(g))
    return lcm_, {d: None if d == lcm_ else lcm_ if d.is_const
                  else lcm_.exact_div(d) for d in distinct}


class SharedDenominator:
    """Scalars of one context as polynomial numerator vectors over one
    shared denominator, so that sums of their products and first partial
    derivatives need no gcd before one cancel at the end.

    A numerator vector holds one polynomial per power of the extension
    generator, constant term first, or one polynomial without an extension;
    vectors may be longer than the relation's degree until ``make`` reduces
    them.  ``den`` is D, the monic lcm of the denominators of the given
    scalars, found with one gcd per distinct denominator, and ``lift`` gives
    a scalar's numerators over D.  ``partial`` gives the numerators of a
    partial derivative of ``vec / D`` over ``outer = D**2 * E``, by the
    quotient rule plus the chain rule through the generator; E,
    ``ext_den``, is the lcm of the denominators of the generator's implicit
    derivatives (one without an extension).  ``widen`` takes numerators
    over ``D**2``, such as a product of two lifts, to numerators over
    ``outer``.  Sums of products of lifts and of partials are built by
    ``_sum_products``, and ``make`` is the canonical Scalar ``vec / outer``:
    one reduction modulo the relation and one cancel.  A factor D or E of
    one is never multiplied in.
    """

    __slots__ = ("ctx", "den", "ext_den", "outer", "_cofactors", "_dden",
                 "_chain")

    def __init__(self, ctx, scalars):
        self.ctx = ctx
        one = MultiPoly.const(ctx.all_vars, 1)
        D, self._cofactors = _lcm_cofactors(
            [s.val.den for s in scalars if isinstance(s.val, _Quotient)], one)
        self.den = D
        self._dden = ({} if D.is_const else
                      {name: D.partial(name) for name in ctx.transcendentals})
        # per transcendental, the numerators over E of the generator's
        # derivative, times D: the chain-rule factor of ``partial``
        self._chain = {}
        E = one
        ext = ctx.extension
        if ext is not None:
            derivs = {}
            for name in ctx.transcendentals:
                d = _gen_derivative(ctx, name)
                if not d.is_zero:
                    derivs[name] = d
            E, cofactors = _lcm_cofactors([d.den for d in derivs.values()],
                                          one)
            for name, d in derivs.items():
                c = cofactors[d.den]
                nums = d.nums if c is None else [n * c for n in d.nums]
                self._chain[name] = (nums if D.is_const
                                     else [n * D for n in nums])
        self.ext_den = E
        outer = D if D.is_const else D * D
        self.outer = outer if E.is_const else outer * E

    def lift(self, scalar):
        """The numerator vector of ``scalar`` over ``den``."""
        v, D = scalar.val, self.den
        if type(v) is Fraction:
            v = MultiPoly.const(self.ctx.all_vars, v)
        if type(v) is MultiPoly:
            return [v if D.is_const else v * D]
        c = self._cofactors[v.den]
        return list(v.nums) if c is None else [n * c for n in v.nums]

    def partial(self, vec, name):
        """Numerators over ``outer`` of d/d(name) of ``vec / den``."""
        out = [n.partial(name) for n in vec]
        D = self.den
        if not D.is_const:
            dD = self._dden[name]
            out = ([p * D - n * dD for p, n in zip(out, vec)] if dD.nums
                   else [p * D for p in out])
        out = self.widen(out)
        chain = self._chain.get(name)
        if chain is not None and len(vec) > 1:
            # the derivative of vec in the generator, times D * d(gen)
            dvec = [n._scaled(i, 1) for i, n in enumerate(vec) if i]
            if any(map(_terms_of, dvec)):
                out = _sum_products([(out, None, 1), (dvec, chain, 1)])
        return out

    def widen(self, vec):
        """Numerators over ``den**2`` as numerators over ``outer``."""
        E = self.ext_den
        return vec if E.is_const else [p * E for p in vec]

    def make(self, vec):
        """The canonical Scalar ``vec / outer``."""
        ctx = self.ctx
        ext = ctx.extension
        if ext is not None:
            return Scalar.make(ctx, ext.reduce(vec, self.outer))
        (num,) = vec
        if self.outer.is_const:
            return Scalar.make(ctx, num)
        return Scalar.make(ctx, RatFunc.make(num, self.outer))


# ---------------------------------------------------------------------------
# Irreducibility diagnostics for minimal relations
# ---------------------------------------------------------------------------

def _rational_roots_exist(coeffs):
    """Whether an integer polynomial of degree at most 3 has a root in Q.

    ``coeffs`` is dense, constant term first.  The test is exact and takes
    time polynomial in bit size: a quadratic has a rational root exactly
    when its discriminant is a square, a cubic ``f`` with leading
    coefficient ``a`` when ``g(X) = a**2 f(X / a)`` has an integer root,
    found by bisection where ``g`` is monotone.
    """
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if len(coeffs) <= 1:
        return False
    if coeffs[0] == 0 or len(coeffs) == 2:
        return True
    if len(coeffs) == 3:
        c, b, a = coeffs
        disc = b * b - 4 * a * c
        return disc >= 0 and isqrt(disc) ** 2 == disc
    d, c, b, a = coeffs
    c, d = a * c, a * a * d

    def g(x):
        return ((x + b) * x + c) * x + d

    # an integer root divides g(0) = d.  g' = 3X^2 + 2bX + c vanishes at
    # (-b -+ sqrt(e)) / 3: lo1 and lo1 + 1 bracket the smaller root, lo2
    # and lo2 + 1 the larger, so g is monotone on each stretch
    bound = abs(d)
    e = b * b - 3 * c
    if e <= 0:
        stretches = [(-bound, bound, 1)]
    else:
        s = isqrt(e)
        lo1, lo2 = (-b - s - 1) // 3, (-b + s) // 3
        stretches = [(-bound, lo1, 1), (lo1 + 1, lo2, -1),
                     (lo2 + 1, bound, 1)]
    return any(_monotone_root(g, lo, hi, sign) for lo, hi, sign in stretches)


def _monotone_root(g, lo, hi, sign):
    """Whether ``g``, monotone on the integers of ``[lo, hi]`` (increasing
    for ``sign`` 1, decreasing for -1), has an integer root there."""
    if lo > hi or sign * g(lo) > 0 or sign * g(hi) < 0:
        return False
    while lo < hi:  # the first integer where sign * g >= 0
        mid = (lo + hi) // 2
        if sign * g(mid) >= 0:
            hi = mid
        else:
            lo = mid + 1
    return g(lo) == 0


_SPECIALIZE_SEEDS = (1, 2, 3, 5, 7, -1, -2, 11, 13, -5, 17, 19)


def _int_square_root(f, k):
    """An integer polynomial ``r`` (key -> int) with ``r * r == f`` for a
    nonzero integer polynomial ``f`` over ``k`` variables, or None.

    The root is found term by term from the top: its leading term squares
    to ``f``'s, and each further term is the leading term of ``f - r**2``
    over twice ``r``'s.  Keys add like monomials, so the terms of a true
    root strictly decrease and stay at or above half of ``f``'s least key;
    a step that breaks either bound, or does not divide, proves ``f`` is no
    square.
    """
    guard = _guards(k)
    top = max(f)
    s = isqrt(f[top]) if f[top] > 0 else 0
    if top & (guard >> (_W - 1)) or s * s != f[top]:
        return None  # an odd exponent or a non-square leading coefficient
    he, floor = top >> 1, min(f) >> 1
    root, twice, last = {he: s}, 2 * s, he
    rem = dict(f)
    del rem[top]
    while rem:
        re = max(rem)
        qe = re - he
        if qe < floor or qe >= last or qe & guard:
            return None
        q, r = divmod(rem[re], twice)
        if r:
            return None
        # rem -= (2 * root + q * x**qe) * q * x**qe
        _axpy(rem, root, -2 * q, qe)
        _axpy(rem, {qe: q}, -q, qe)
        root[qe] = q
        last = qe
    return root


def _is_square(poly):
    """Whether a polynomial over Q is the square of one.  ``N / d`` is a
    square exactly when the integer polynomial ``N * d`` is (Gauss's lemma);
    the certificate is an exact square root, squared back."""
    if not poly.nums:
        return True
    f = _poly(poly.vars, {e: c * poly.denom for e, c in poly.nums.items()}, 1)
    root = _int_square_root(f.nums, len(f.vars))
    return root is not None and _poly(f.vars, root, 1) ** 2 == f


def relation_is_irreducible(relation, gen):
    """Decide irreducibility of a degree <= 3 relation over the base field.

    A polynomial of degree 2 or 3 in the generator is reducible exactly when
    it has a root in the rational-function field of the other variables.
    For degree 2 that holds exactly when the discriminant is a square there,
    hence (the base ring being a UFD) a square polynomial: the verdict is
    exact.  A cubic's root survives specialization of the other variables
    at points where the leading coefficient stays nonzero, so one
    specialization without a rational root proves irreducibility.  If every
    trial specialization has a rational root the cubic is declared reducible
    (exact for honest reducible inputs; a thin family of irreducible cubics
    with rational points everywhere would be mis-flagged).
    """
    deg = relation.degree_in(gen)
    if deg <= 1:
        return True
    if deg == 2:
        base = [v for v in relation.vars if v != gen]
        c, b, a = _vector_in_gen(relation, gen, base)
        return not _is_square(b * b - (a * c).scale(4))
    s, _ = relation._field(gen)
    others = [relation._field(v) for v in relation.vars if v != gen]
    for seed in _SPECIALIZE_SEEDS:
        f = relation.nums
        for i, (vs, unit) in enumerate(others):
            f = _int_evaluate(f, vs, unit, seed + i)
        int_coeffs = [0] * (deg + 1)
        for e, c in f.items():
            int_coeffs[e >> s & _FIELD] = c
        if not int_coeffs[deg]:
            continue  # the seed zeroes the leading coefficient
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
    ``extension`` is the :class:`Extension` of that pair, or None.  A
    relation is divided by its content in the generator, a unit of the base
    field, before it is checked for separability and irreducibility, and
    its primitive part is kept.
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
            # kept primitive, so that no map satisfies the relation by
            # sending its content to zero
            _, rel = _content_pp(rel, len(self.all_vars))
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
        return Scalar(self, _rational(value))

    def zero(self):
        return Scalar(self, ZERO)

    def one(self):
        return Scalar(self, ONE)

    def var(self, name):
        if name in self.all_vars:
            return Scalar.make(self, MultiPoly.var(self.all_vars, name))
        ext = self.extension
        if ext is not None and name == ext.gen:
            # a linear relation reduces the generator into the subfield
            one = MultiPoly.const(self.all_vars, 1)
            return Scalar.make(self, ext.reduce(
                [MultiPoly.zero(self.all_vars), one], one))
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

# tower level of each payload type; payloads are never subclass instances
_LEVEL = {Fraction: 0, MultiPoly: 1, RatFunc: 2, ExtElem: 3}


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
        # zero is always stored as the rational 0 (see ``_demote``)
        v = self.val
        return type(v) is Fraction and not v

    @property
    def is_constant_rational(self):
        return isinstance(self.val, Fraction)

    def __bool__(self):
        return not self.is_zero

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = self.ctx.const(other)
        return self.ctx == other.ctx and self.val == other.val

    def __hash__(self):
        # a base rational equals the int or Fraction it holds, so it hashes
        # like one
        v = self.val
        return hash(v) if type(v) is Fraction else hash((self.ctx, v))

    def __repr__(self):
        from .expr import render_scalar

        return f"<{render_scalar(self)}>"

    # -- arithmetic

    def _coerce(self, other):
        """Coerce to a same-context Scalar; None signals NotImplemented."""
        if isinstance(other, Scalar):
            if other.ctx != self.ctx:
                raise ContextMismatch(
                    f"operands live in different contexts: {self.ctx!r}"
                    f" vs {other.ctx!r}")
            return other
        if isinstance(other, (int, Fraction)):
            return self.ctx.const(other)
        return None

    def _arith(self, other, op):
        """The one path of + - * / (see the module docstring)."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.val, other.val
        # zero is always stored as the rational 0; ``*`` reaches here with
        # no rational operand, so these only cut short ``+`` and ``-``
        if type(b) is Fraction and not b:
            return self
        if type(a) is Fraction and not a:
            return other if op is add else -other
        la, lb = _LEVEL[type(a)], _LEVEL[type(b)]
        if la < lb:
            a = _lift(self.ctx, a, la, lb)
        elif lb < la:
            b = _lift(self.ctx, b, lb, la)
        return Scalar.make(self.ctx, op(a, b))

    def __add__(self, other):
        return self._arith(other, add)

    __radd__ = __add__

    def __neg__(self):
        return Scalar(self.ctx, -self.val)

    def __sub__(self, other):
        return self._arith(other, sub)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.val, other.val
        if type(a) is Fraction:
            a, b = b, a
        if type(b) is not Fraction:
            return self._arith(other, mul)
        # a rational factor scales the other payload at its own level; a
        # nonzero one keeps it canonical
        if not b:
            return self.ctx.zero()
        if b == 1:
            return Scalar(self.ctx, a)
        if b == -1:
            return Scalar(self.ctx, -a)
        return Scalar(self.ctx, a * b if type(a) is Fraction else a.scale(b))

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Multiplication by the divisor's inverse."""
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero:
            raise DivisionByZero("scalar division by zero")
        v = other.val
        out = self * Scalar.make(
            self.ctx, ONE / v if type(v) is Fraction else v.inverse())
        if self.ctx.kind == POLYNOMIAL:
            _require_in_polynomial_ring(out)
        return out

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, int):
            raise TypeError("scalar exponents must be integers")
        if n < 0:
            return self.ctx.one() / (self ** (-n))
        _require_power_fits(n, self.val)
        return _power(self, n, self.ctx.one())

    def inverse(self):
        return self.ctx.one() / self

    # -- calculus

    def partial(self, name):
        """Exact partial derivative with respect to a transcendental."""
        if name not in self.ctx.transcendentals:
            raise UnknownVariable(
                f"'{name}' is not a transcendental of this context")
        v = self.val
        if type(v) is Fraction:
            return self.ctx.zero()
        if type(v) is ExtElem:
            return Scalar.make(
                self.ctx, v.partial(name, _gen_derivative(self.ctx, name)))
        return Scalar.make(self.ctx, v.partial(name))


def dot(pairs, start):
    """``start + sum a * b`` over the ``(a, b)`` pairs of Scalars; a pair
    with a zero factor builds no product.  The one sum of products of the
    geometry layers; ``start`` is their zero, or a first summand.

    Two or more products of polynomials of ``start``'s context, with
    ``start`` once it is a polynomial too, go into one ``_sum_products``
    call: one lcm, one integer dict and one reduction.  Every other pair is
    folded in with Scalar ``*`` and ``+``, quotients included."""
    ctx, total, polys = start.ctx, start, []
    for a, b in pairs:
        x, y = a.val, b.val
        if type(x) is MultiPoly is type(y) and a.ctx is ctx is b.ctx:
            polys.append(((x,), (y,), 1))
        elif not (type(x) is Fraction and not x
                  or type(y) is Fraction and not y):
            total = total + a * b
    if len(polys) == 1:  # a product of non-constant polynomials
        (x,), (y,), _ = polys[0]
        return total + Scalar(ctx, x * y)
    if polys:
        if type(total.val) is MultiPoly:
            polys.append(((total.val,), None, 1))
            total = ctx.zero()
        total = total + Scalar.make(ctx, _sum_products(polys)[0])
    return total


def _demote(payload):
    if type(payload) is ExtElem:
        if any(n.nums for n in payload.nums[1:]):
            return payload
        payload = RatFunc(payload.nums[0], payload.den)
    if type(payload) is RatFunc:
        if not payload.is_poly:
            return payload
        payload = payload.num  # a constant monic denominator is 1
    if type(payload) is MultiPoly and payload.is_const:
        return payload.const_value()
    return payload


def _lift(ctx, payload, frm, to):
    """The payload of level ``frm`` as a payload of the higher level ``to``."""
    if frm == 0:
        payload = MultiPoly.const(ctx.all_vars, payload)
    if frm <= 1 < to:
        payload = RatFunc(payload, MultiPoly.const(ctx.all_vars, 1))
    if to == 3:
        payload = ctx.extension.lift(payload)
    return payload


def _require_in_polynomial_ring(s):
    """Reject values whose denominator involves a transcendental."""
    v = s.val
    if type(v) is RatFunc and any(v.den.involves(name)
                                  for name in s.ctx.transcendentals):
        raise NotDivisible("quotient does not lie in the polynomial ring")


def _gen_derivative(ctx, name):
    """Implicit derivative of the extension generator: -(dp/dname)/(dp/dgen).

    Always returned at the extension level, even when the quotient happens to
    collapse into the rational-function subfield; computed once per context
    and transcendental.  A relation free of ``name`` gives zero without any
    arithmetic.
    """
    ext = ctx.extension
    cache = ext.derivatives
    if name not in cache:
        rel = ext.relation
        if not rel.involves(name):
            cache[name] = ext.reduce([], MultiPoly.const(ctx.all_vars, 1))
        else:
            num = _poly_in_gen_to_elem(ctx, rel.partial(name))
            den = _poly_in_gen_to_elem(ctx, rel.partial(ext.gen))
            cache[name] = -(num * den.inverse())
    return cache[name]


def _poly_in_gen_to_elem(ctx, poly):
    """Convert a polynomial over all_vars + (gen,) into a reduced ExtElem."""
    ext = ctx.extension
    return ext.reduce(_vector_in_gen(poly, ext.gen, ctx.all_vars),
                      MultiPoly.const(ctx.all_vars, 1))


class Substitution:
    """The ring homomorphism of payloads into the context ``target`` that
    sends each generator named in ``bindings`` to its image there.

    A base constant among ``constants`` without an image maps to its
    namesake in ``target``.  Names are bound when a payload first uses them,
    and ``image ** k`` is computed once per ``(name, k)`` for the life of
    the substitution, so every payload mapped through one shares the powers.
    """

    __slots__ = ("constants", "bindings", "target", "powers")

    def __init__(self, constants, bindings, target):
        self.constants = constants
        self.bindings = dict(bindings)
        self.target = target
        self.powers = {}

    def power(self, name, k):
        p = self.powers.get((name, k))
        if p is None:
            image = self.bindings.get(name)
            if image is None:
                if name not in self.constants:
                    raise IncompleteBindings(f"no image given for '{name}'")
                if name not in self.target.constants:
                    raise IncompleteBindings(
                        f"target context lacks base constant '{name}'")
                image = self.bindings[name] = self.target.var(name)
            p = self.powers[name, k] = image ** k
        return p

    def __call__(self, payload):
        target = self.target
        if isinstance(payload, Fraction):
            return Scalar.make(target, payload)
        if isinstance(payload, MultiPoly):
            total = target.zero()
            for e, c in payload.terms.items():
                term = target.const(c)
                for name, k in zip(payload.vars, e):
                    if k:
                        term = term * self.power(name, k)
                total = total + term
            return total
        # a quotient: sum_i phi(nums_i) * phi(gen)**i over phi(den), one
        # division
        num = target.zero()
        for i, n in enumerate(payload.nums):
            if n.nums:
                image = self(n)
                num = num + (image * self.power(payload.gen, i) if i else image)
        den = self(payload.den)
        if den.is_zero:
            raise TargetDivisionByZero("a denominator maps to zero")
        try:
            return num / den
        except NotDivisible:
            raise TargetDivisionByZero(
                "a denominator image is not invertible in the target")
