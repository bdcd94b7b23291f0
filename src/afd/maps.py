"""Homomorphisms between algebraifolds, formal lines and geodesic residuals.

A homomorphism is stored as a generator-image table and validated eagerly:
every minimal relation must map to zero, and the explicit pullback formula is
checked against the differentials of all generators before the map is
accepted.  It maps every scalar, the relations included, through one
``scalars.Substitution``, so the Christoffel symbols mapped along a curve
share one table of image powers.  A vector pulled back along a map carries
the map, so ``Connection.matrix`` reads the map from it.  Curves are
homomorphisms into a line (polynomial Q[t], or its rational diagnostic
variant for field-type sources): the line is the map's target, and the
geodesic residual transports a connection along the curve and
differentiates the curve's own velocity by the line's one basis derivation.
"""

from __future__ import annotations

from .algebraifold import (
    Algebraifold,
    Derivation,
    OneForm,
    _CoordinateVector,
    require_elements,
)
from .errors import (
    ContextMismatch,
    DescriptorMismatch,
    MissingImage,
    NoAntiderivative,
    PullbackVerificationFailed,
    RelationNotPreserved,
)
from .scalars import (
    FIELD,
    POLYNOMIAL,
    MultiPoly,
    RatFunc,
    Scalar,
    ScalarContext,
    Substitution,
    dot,
)


class AlgebraifoldHom:
    """A validated homomorphism given by images of the source generators."""

    __slots__ = ("source", "target", "images", "substitution")

    def __init__(self, source, target, images):
        self.source = source
        self.target = target
        self.images = dict(images)
        self.substitution = Substitution(source.ctx.constants, self.images,
                                         target.ctx)

    @classmethod
    def build(cls, source, target, images):
        """Validate generator coverage, relations and the pullback identity."""
        images = {name: target.scalar(value) for name, value in images.items()}
        for name in source.ctx.generators:
            if name not in images:
                raise MissingImage(f"no image for generator '{name}'")
        for name in source.ctx.constants:
            if name not in target.ctx.constants:
                raise ContextMismatch(
                    f"target context lacks base constant '{name}'")
        hom = cls(source, target, images)
        ext = source.ctx.extension
        if ext is not None:
            residual = hom.substitution(ext.relation)
            if not residual.is_zero:
                from .expr import render_scalar

                raise RelationNotPreserved(ext.gen, render_scalar(residual))
        hom._verify_pullback()
        return hom

    def _verify_pullback(self):
        """Check the explicit pullback against d(image) on every generator."""
        for name in self.source.ctx.generators:
            xi = self.source.d(self.source.ctx.var(name))
            expected = self.target.d(self.images[name])
            if self.pullback(xi) != expected:
                raise PullbackVerificationFailed(
                    f"pullback of d({name}) does not match d(image)")

    def __eq__(self, other):
        return (isinstance(other, AlgebraifoldHom)
                and self.source == other.source
                and self.target == other.target
                and self.images == other.images)

    # -- the pulled-back derivation module: source rank, target scalars

    @property
    def n(self):
        return self.source.n

    def scalar(self, value):
        return self.target.scalar(value)

    # -- action on scalars and module elements

    def apply(self, a):
        """The image of a scalar under the homomorphism."""
        return self.substitution(self.source.scalar(a).val)

    def pullback(self, xi):
        """Pull a source one-form back to the target.

        Coefficients of sum_i phi(xi(u_i)) d(phi(a_i)) in the target basis.
        """
        require_elements(self.source, OneForm, xi)
        out = OneForm(self.target, (self.target.zero,) * self.target.n)
        for coeff, name in zip(xi.coeffs, self.source.ctx.transcendentals):
            if not coeff.is_zero:
                out = out + self.apply(coeff) * self.target.d(self.images[name])
        return out

    def differential(self, w):
        """The differential applied to a target derivation.

        Returns the coefficient sequence (w(phi(a_1)), ..., w(phi(a_n)))
        against the pushed-forward basis.
        """
        require_elements(self.target, Derivation, w)
        coeffs = tuple(
            self.target.apply(w, self.images[name])
            for name in self.source.ctx.transcendentals
        )
        return PulledVector(self, coeffs)

    def compose(self, inner):
        """self after inner (inner: A -> B, self: B -> C)."""
        if inner.target != self.source:
            raise DescriptorMismatch("homomorphisms are not composable")
        images = {name: self.apply(value)
                  for name, value in inner.images.items()}
        return AlgebraifoldHom.build(inner.source, self.target, images)

    def __repr__(self):
        pairs = ", ".join(f"{k}->{v!r}" for k, v in sorted(self.images.items()))
        return f"AlgebraifoldHom({pairs})"


class PulledVector(_CoordinateVector):
    """An element of the pulled-back derivation module.

    Coefficients are target scalars against the pushed-forward basis
    1 (x) u_1, ..., 1 (x) u_n of the source derivations.  The homomorphism
    fixes the module, so it stands where a derivation holds its algebraifold:
    vectors pulled back along different maps do not mix.
    """

    __slots__ = ()

    @property
    def hom(self):
        return self.algebraifold

    def pair_source_form(self, xi):
        """Pair with a pulled-back source one-form: (1 (x) xi)(self)."""
        require_elements(self.hom.source, OneForm, xi)
        hom = self.hom
        # nothing is mapped along a zero coefficient
        return dot([(c, hom.apply(x)) for c, x in zip(self.coeffs, xi.coeffs)
                    if not c.is_zero], hom.target.zero)


def pushforward_connection(hom, connection, w, section):
    """Transport a source connection along the homomorphism and apply it.

    For section = sum_j b_j (x) u_j and the source connection written as the
    standard part plus Gamma, the result has coefficients

        w(b_k) + sum_j M[k][j] b_j,

    with M[k][j] = sum_i w(phi(a_i)) phi(Gamma^k_{ij}) the connection's
    matrix along the velocity of w, which refuses a connection over another
    source.
    """
    require_elements(hom, PulledVector, section)
    M = connection.matrix(hom.differential(w))
    coeffs = section.coeffs
    return PulledVector(hom, tuple(
        dot(zip(row, coeffs), hom.target.apply(w, b))
        for row, b in zip(M, coeffs)))


def geodesic_residual(hom, connection):
    """Covariant derivative of the curve's velocity along itself.

    The curve is the homomorphism into a line, its target, and d/dt is that
    line's one basis derivation.  All-zero exactly when the curve opposite
    to the homomorphism is a geodesic of the connection.
    """
    if hom.target.n != 1:
        raise DescriptorMismatch("the curve's target is not a line")
    d = hom.target.basis_derivation(1)
    return pushforward_connection(hom, connection, d, hom.differential(d))


class FormalLine:
    """The line Q[t] (or Q(t) as a non-formal-line diagnostic variant).

    The polynomial line has a free rank-one derivation module with a
    surjective generator d/dt, so antiderivatives exist; the rational variant
    supports differentiation but deliberately not antiderivatives.
    """

    __slots__ = ("algebraifold", "derivation", "t", "is_formal_line")

    def __init__(self, algebraifold, is_formal_line):
        self.algebraifold = algebraifold
        self.is_formal_line = is_formal_line
        self.derivation = algebraifold.basis_derivation(1)
        self.t = algebraifold.ctx.var("t")

    @classmethod
    def polynomial(cls, constants=()):
        ctx = ScalarContext(POLYNOMIAL, ("t",), tuple(constants))
        return cls(Algebraifold.build(ctx), True)

    @classmethod
    def rational(cls, constants=()):
        ctx = ScalarContext(FIELD, ("t",), tuple(constants))
        return cls(Algebraifold.build(ctx), False)

    def scalar(self, value):
        return self.algebraifold.scalar(value)

    def antiderivative(self, a):
        """The antiderivative with constant term normalized to zero."""
        if not self.is_formal_line:
            raise NoAntiderivative(
                "the rational line is not a formal line: derivation is not"
                " surjective")
        a = self.algebraifold.scalar(a)
        ctx = self.algebraifold.ctx
        v = a.val
        if isinstance(v, MultiPoly):
            return Scalar.make(ctx, _integrate_poly(v, "t"))
        if isinstance(v, RatFunc):
            # polynomial contexts only admit constants-only denominators
            return Scalar.make(
                ctx, RatFunc.make(_integrate_poly(v.num, "t"), v.den))
        # base rational: integrate the constant
        return self.t * a

    def __repr__(self):
        kind = "Q[t]" if self.is_formal_line else "Q(t)"
        return f"FormalLine({kind})"


def _integrate_poly(poly, name):
    idx = poly.vars.index(name)
    out = {}
    for exps, coeff in poly.terms.items():
        k = exps[idx]
        out[exps[:idx] + (k + 1,) + exps[idx + 1:]] = coeff / (k + 1)
    return MultiPoly(poly.vars, out)
