"""Coordinate algebraifolds: derivation bases dual to coordinate elements.

An :class:`Algebraifold` wraps a scalar context together with the dual pair
(a_1..a_n; u_1..u_n), where the a_i are the transcendental coordinates and
u_i = d/dx_i acts by exact partial differentiation (extension generators are
differentiated implicitly).  The matrix M[i][j] = u_i(a_j) is the identity
for every built instance; it is stored explicitly so that duality residuals
can be recomputed and reported even after deliberate corruption in tests.
"""

from __future__ import annotations

from .errors import ContextMismatch, DescriptorMismatch
from .scalars import Scalar, dot


class Algebraifold:
    """A scalar context with its coordinate derivation basis and dual basis.

    ``zero`` and ``one`` are the context's own two Scalars."""

    __slots__ = ("ctx", "coords", "basis_matrix", "zero", "one")

    def __init__(self, ctx, coords, basis_matrix):
        self.ctx = ctx
        self.zero = ctx.zero
        self.one = ctx.one
        self.coords = coords
        self.basis_matrix = basis_matrix

    @classmethod
    def build(cls, ctx):
        """Construct the coordinate instance for a context.

        The derivation basis exists because the context has already checked
        that d(relation)/d(generator) is invertible (the relation is
        separable).
        """
        coords = tuple(ctx.var(name) for name in ctx.transcendentals)
        matrix = tuple(
            tuple(a.partial(name) for a in coords)
            for name in ctx.transcendentals
        )
        # the coordinate construction must yield the identity action, which
        # is in particular invertible over the fraction field
        for i, row in enumerate(matrix):
            for j, entry in enumerate(row):
                expected = ctx.one if i == j else ctx.zero
                if entry != expected:
                    raise DescriptorMismatch(
                        "coordinate basis action is not the identity matrix")
        return cls(ctx, coords, matrix)

    @property
    def n(self):
        return len(self.coords)

    def __eq__(self, other):
        return self is other or (isinstance(other, Algebraifold)
                                 and self.ctx == other.ctx)

    def __hash__(self):
        return hash(self.ctx)

    def __repr__(self):
        return f"Algebraifold({self.ctx!r})"

    # -- scalar helpers

    def scalar(self, value):
        if isinstance(value, Scalar):
            if value.ctx != self.ctx:
                raise ContextMismatch("scalar from a different context")
            return value
        if isinstance(value, str):
            from .expr import parse_scalar

            return parse_scalar(value, self.ctx)
        return self.ctx.const(value)

    # -- constructors for module elements

    def _unit(self, kind, i):
        coeffs = [self.zero] * self.n
        coeffs[i - 1] = self.one
        return kind(self, tuple(coeffs))

    def basis_derivation(self, i):
        """The coordinate derivation d/dx_i (1-based index)."""
        return self._unit(Derivation, i)

    def coordinate_form(self, i):
        """The coordinate differential d(a_i) (1-based index)."""
        return self._unit(OneForm, i)

    def derivation(self, *coeffs):
        return Derivation(self, tuple(self.scalar(c) for c in coeffs))

    def one_form(self, *coeffs):
        return OneForm(self, tuple(self.scalar(c) for c in coeffs))

    # -- core operations

    def apply(self, v, a):
        """Apply a derivation to a scalar: sum_i v_i da/dx_i."""
        return dot(self._apply_pairs(v, self.scalar(a)), self.zero)

    def _apply_pairs(self, v, a):
        """The pairs (v_i, da/dx_i) of v(a); no partial is taken along a
        zero coefficient, and a base rational has none."""
        if a.is_constant_rational:
            return []
        return [(c, a.partial(name))
                for c, name in zip(v.coeffs, self.ctx.transcendentals)
                if not c.is_zero]

    def d(self, a):
        """The differential of a scalar: the one-form v -> v(a)."""
        a = self.scalar(a)
        return OneForm(self, tuple(
            a.partial(name) for name in self.ctx.transcendentals))

    def bracket(self, u, v):
        """Lie bracket of derivations in the commuting coordinate basis:
        [u, v]^j = u(v^j) - v(u^j), one ``dot`` per j."""
        require_elements(self, Derivation, u, v)
        return Derivation(self, tuple(
            dot(self._apply_pairs(u, b)
                + [(-c, p) for c, p in self._apply_pairs(v, a)], self.zero)
            for a, b in zip(u.coeffs, v.coeffs)))

    def dimension(self):
        """Trace of the basis action matrix; the count of coordinates."""
        total = self.zero
        for i in range(self.n):
            total = total + self.basis_matrix[i][i]
        return total

    def is_constant(self, a):
        """Whether every basis derivation kills the scalar."""
        a = self.scalar(a)
        return all(a.partial(name).is_zero for name in self.ctx.transcendentals)

    def dual_basis_residuals(self):
        """Residuals of the two dual-basis identities against the stored matrix.

        Derivation side: for basis index j and each context generator g, the
        residual of (sum_i u_j(a_i) u_i)(g) - u_j(g).  One-form side: for
        basis index j, the coefficient residuals of sum_i da_j(u_i) da_i - da_j.
        All residuals vanish exactly when the stored matrix is the honest
        identity action.
        """
        M = self.basis_matrix
        residuals = []
        gens = [(name, self.ctx.var(name))
                for name in self.ctx.generators]
        for j, coord in enumerate(self.ctx.transcendentals):
            v = Derivation(self, M[j])
            for name, g in gens:
                residuals.append(("derivation", j + 1, name,
                                  self.apply(v, g) - g.partial(coord)))
        for j in range(self.n):
            for i in range(self.n):
                delta = self.one if i == j else self.zero
                residuals.append(
                    ("one_form", j + 1, self.ctx.transcendentals[i],
                     M[i][j] - delta))
        return residuals


def require_elements(algebraifold, kind, *elements):
    """Reject any element that is not a ``kind`` over ``algebraifold`` (for
    a pulled-back vector, the homomorphism it was pulled back along)."""
    for e in elements:
        if not isinstance(e, kind):
            raise DescriptorMismatch(
                f"expected a {kind.__name__}, got {type(e).__name__}")
        # identity first: this runs on every module operation, and != is a
        # Python call to __eq__
        if (e.algebraifold is not algebraifold
                and e.algebraifold != algebraifold):
            raise DescriptorMismatch(
                "element belongs to a different algebraifold or map")


class _CoordinateVector:
    """A coefficient vector against one coordinate basis of an algebraifold.

    The module operations stay within one kind: adding a derivation to a
    one-form raises DescriptorMismatch.
    """

    __slots__ = ("algebraifold", "coeffs")

    def __init__(self, algebraifold, coeffs):
        if len(coeffs) != algebraifold.n:
            raise DescriptorMismatch(
                f"expected {algebraifold.n} coefficients, got {len(coeffs)}")
        self.algebraifold = algebraifold
        self.coeffs = tuple(coeffs)

    def __add__(self, other):
        require_elements(self.algebraifold, type(self), other)
        return type(self)(self.algebraifold, tuple(
            a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        require_elements(self.algebraifold, type(self), other)
        return type(self)(self.algebraifold, tuple(
            a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return type(self)(self.algebraifold, tuple(-a for a in self.coeffs))

    def __rmul__(self, scalar):
        scalar = self.algebraifold.scalar(scalar)
        return type(self)(self.algebraifold,
                          tuple(scalar * a for a in self.coeffs))

    __mul__ = __rmul__

    @property
    def is_zero(self):
        return all(c.is_zero for c in self.coeffs)

    def __eq__(self, other):
        return (type(other) is type(self)
                and self.algebraifold == other.algebraifold
                and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"{type(self).__name__}({self.coeffs!r})"


class Derivation(_CoordinateVector):
    """A derivation written against the coordinate basis u_1..u_n."""

    __slots__ = ()

    def __call__(self, a):
        return self.algebraifold.apply(self, a)


class OneForm(_CoordinateVector):
    """A one-form written against the coordinate differentials da_1..da_n."""

    __slots__ = ()

    def __call__(self, v):
        """Pairing with a derivation."""
        require_elements(self.algebraifold, Derivation, v)
        return dot(zip(self.coeffs, v.coeffs), self.algebraifold.zero)
