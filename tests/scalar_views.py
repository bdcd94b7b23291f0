"""Views and constructors of afd scalars that only the tests use.

The library keeps the ``MultiPoly(variables, terms)`` constructor and the
``terms`` view; the leading term, the terms in order, a base rational's
value and the image of a Scalar under a substitution are built here on top
of them.  Term order is graded lexicographic on the declared variable
order, as in the library.
"""

from __future__ import annotations

from afd.errors import ContextMismatch
from afd.scalars import MultiPoly, Substitution


def from_terms(variables, terms):
    """The MultiPoly of a dict from exponent tuples to int or Fraction
    coefficients."""
    return MultiPoly(variables, terms)


def sorted_terms(poly):
    """(exponent tuple, Fraction coefficient) pairs in descending graded-lex
    order."""
    return sorted(poly.terms.items(), key=lambda t: (sum(t[0]), t[0]),
                  reverse=True)


def lead(poly):
    """Graded-lex leading (exponent tuple, coefficient) pair of a nonzero
    polynomial."""
    return sorted_terms(poly)[0]


def as_fraction(scalar):
    """The Fraction of a base rational Scalar."""
    if not scalar.is_constant_rational:
        raise ValueError(f"{scalar!r} is not a base rational")
    return scalar.val


def substitute(scalar, bindings):
    """Image of ``scalar`` under the ring homomorphism sending generators to
    ``bindings``: Scalars of a single target context, which is the source
    context when there are none.  Base constants map to the target constants
    of the same name."""
    target = None
    for image in bindings.values():
        if target is None:
            target = image.ctx
        elif image.ctx != target:
            raise ContextMismatch("binding images live in different contexts")
    if target is None:
        target = scalar.ctx
    return Substitution(scalar.ctx.constants, bindings, target)(scalar.val)
