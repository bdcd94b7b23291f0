"""Connections, torsion, curvature, Levi-Civita, Ricci and field equations.

A connection is stored as its difference from the standard componentwise
connection: a rank-(1, 2) tensor Gamma with components Gamma^k_{ij}, where k
is the contravariant slot, i the direction slot and j the argument slot.
The standard connection has Gamma = 0 and differentiates coefficient vectors
componentwise.

The curvature R(u, v) = [nabla_u, nabla_v] - nabla_[u, v] is pure algebra on
the Christoffel symbols, so it is computed over one common denominator
instead of cancelling a gcd after every product and sum: every Gamma becomes
polynomial numerators over D, the lcm of the Christoffel denominators, and
every derivative d_a Gamma numerators over D**2 E, where E is the lcm of the
denominators of the extension generator's implicit derivatives.  Each
component's numerator is a polynomial sum of products, built in one pass of
the sparse multiply-accumulate kernel ``scalars._sum_products``: every
product's integer numerators go into one dict per power of the generator,
with no intermediate polynomial, and the sum is made canonical by one
reduction modulo the relation and one cancel.  Over a polynomial ring D and
E are one and no factor is multiplied in.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .algebraifold import Derivation, require_elements
from .errors import DescriptorMismatch, NonConstantCoupling
from .scalars import SharedDenominator, _sum_products, dot
from .tensors import Tensor, accumulate, derive_tensor, metric_inverse


class Connection:
    """A connection given by its Christoffel difference tensor."""

    __slots__ = ("algebraifold", "gamma")

    def __init__(self, algebraifold, gamma):
        if gamma.rank != (1, 2):
            raise DescriptorMismatch("connection coefficients must be rank (1, 2)")
        require_elements(algebraifold, Tensor, gamma)
        self.algebraifold = algebraifold
        self.gamma = gamma

    def coeff(self, k, i, j):
        return self.gamma.get((k, i, j))

    def matrix(self, u, hom=None):
        """M[k][j] = sum_i u^i Gamma^k_{ij}, indexed from 0: nabla_u sends
        the coordinate derivation u_j to sum_k M[k][j] u_k.  One ``dot``
        sums each entry.

        Along a homomorphism ``hom``, ``u`` holds target scalars and each
        Gamma is first mapped by ``hom.apply``.
        """
        n = self.algebraifold.n
        zero = (self.algebraifold if hom is None else hom.target).zero()
        pairs = [[[] for _ in range(n)] for _ in range(n)]
        for (k, i, j), gamma in self.gamma.comp.items():
            c = u.coeffs[i - 1]
            if not c.is_zero:
                if hom is not None:
                    gamma = hom.apply(gamma)
                pairs[k - 1][j - 1].append((c, gamma))
        return [[dot(entry, zero) for entry in row] for row in pairs]

    def apply(self, u, v):
        """Covariant derivative of a derivation along a derivation:
        (nabla_u v)^k = u(v^k) + sum_ij Gamma^k_{ij} u^i v^j, one ``dot``
        per k, each Gamma paired with the product of its coefficients."""
        A = self.algebraifold
        require_elements(A, Derivation, u, v)
        uc, vc = u.coeffs, v.coeffs
        pairs = [[] for _ in vc]
        for (k, i, j), gamma in self.gamma.comp.items():
            a, b = uc[i - 1], vc[j - 1]
            if not (a.is_zero or b.is_zero):
                pairs[k - 1].append((gamma, a * b))
        return Derivation(A, tuple(dot(p, A.apply(u, c))
                                   for p, c in zip(pairs, vc)))

    def __eq__(self, other):
        return (isinstance(other, Connection)
                and self.algebraifold == other.algebraifold
                and self.gamma == other.gamma)

    def __repr__(self):
        return f"Connection(nnz={len(self.gamma.comp)})"


def standard_connection(algebraifold):
    """The componentwise-derivative connection (Gamma = 0)."""
    return Connection(algebraifold, Tensor.zero(algebraifold, 1, 2))


def covariant_derivative(connection, u, T):
    """Covariant derivative of a tensor along a derivation.

    The tensor derivation with M = ``connection.matrix(u)``: the
    componentwise u-derivative plus +Gamma on contravariant slots and -Gamma
    on covariant slots.
    """
    A = connection.algebraifold
    require_elements(A, Derivation, u)
    require_elements(A, Tensor, T)
    return derive_tensor(A, u, T, connection.matrix(u))


def torsion(connection):
    """T(u, v) = nabla_u v - nabla_v u - [u, v]; antisymmetrized Gamma here."""
    A = connection.algebraifold
    out = {}
    for (k, i, j), gamma in connection.gamma.comp.items():
        accumulate(out, (k, i, j), gamma)
        accumulate(out, (k, j, i), -gamma)
    return Tensor(A, 1, 2, out)


def curvature_tensor(connection):
    """R(u, v)w on the coordinate basis, as a rank-(1, 3) tensor.

    Components indexed (l; i, j, k): the coefficient of u_l in R(u_i, u_j)u_k,

        R^l_{ijk} = d_i Gamma^l_{jk} - d_j Gamma^l_{ik}
            + sum_m (Gamma^l_{im} Gamma^m_{jk} - Gamma^l_{jm} Gamma^m_{ik}).

    Every Gamma is lifted to polynomial numerators over D, the lcm of the
    Christoffel denominators, and every derivative d_a Gamma to numerators
    over D**2 E, where E is the lcm of the denominators of the extension
    generator's derivatives (one without an extension); each is computed
    once per distinct Gamma value and direction.  A component's products
    and its two derivative vectors go into one ``_sum_products`` call; over
    an extension the product sum, over D**2, is widened by E first.  The
    numerator is made canonical by one reduction and cancel.
    """
    A = connection.algebraifold
    n = A.n
    names = A.ctx.transcendentals
    comp = connection.gamma.comp
    frame = SharedDenominator(A.ctx, comp.values())
    # one numerator vector per distinct value: a symmetric Gamma^k_{ij} and
    # Gamma^k_{ji} share theirs, and their derivatives
    slots, vecs = {}, []
    for value in comp.values():
        if value not in slots:
            slots[value] = len(vecs)
            vecs.append(frame.lift(value))
    slot = {idx: slots[value] for idx, value in comp.items()}
    gamma = {idx: vecs[s] for idx, s in slot.items()}
    partials = {}
    # over an extension the products, over D**2, are widened to D**2 E
    widen = not frame.ext_den.is_const

    def partial(a, idx):
        """Numerators of d_a Gamma^idx over D**2 E; None for a zero Gamma."""
        s = slot.get(idx)
        if s is None:
            return None
        key = (s, a)
        if key not in partials:
            partials[key] = frame.partial(vecs[s], names[a - 1])
        return partials[key]

    out = {}
    for l in range(1, n + 1):
        for k in range(1, n + 1):
            for i in range(1, n + 1):
                for j in range(1, i):
                    # antisymmetric in (i, j); fill both orders from one value
                    terms = []
                    for m in range(1, n + 1):
                        a, b = gamma.get((l, i, m)), gamma.get((m, j, k))
                        if a and b:
                            terms.append((a, b, 1))
                        a, b = gamma.get((l, j, m)), gamma.get((m, i, k))
                        if a and b:
                            terms.append((a, b, -1))
                    if terms and widen:
                        terms = [(frame.widen(_sum_products(terms)), None, 1)]
                    d = partial(i, (l, j, k))
                    if d:
                        terms.append((d, None, 1))
                    d = partial(j, (l, i, k))
                    if d:
                        terms.append((d, None, -1))
                    acc = _sum_products(terms)
                    if any(p.nums for p in acc):
                        # the numerator may still vanish modulo the relation
                        value = frame.make(acc)
                        if not value.is_zero:
                            out[(l, i, j, k)] = value
                            out[(l, j, i, k)] = -value
    return Tensor(A, 1, 3, out)


def levi_civita(algebraifold, metric):
    """Christoffel symbols of the unique torsion-free metric connection.

    Gamma^k_{ij} = (1/2) g^{kl} (d_j g_{il} + d_i g_{jl} - d_l g_{ij}).
    """
    A = algebraifold
    n = A.n
    names = A.ctx.transcendentals
    half = A.scalar(Fraction(1, 2))
    # dg[a, b, c] = d_a g_{bc}, each distinct entry differentiated once
    dg = {}
    for a in range(1, n + 1):
        for b in range(1, n + 1):
            for c in range(1, b + 1):
                dg[a, b, c] = dg[a, c, b] = \
                    metric.entry(b, c).partial(names[a - 1])
    # c[(i, j, l)] = (1/2)(d_j g_{il} + d_i g_{jl} - d_l g_{ij}), symmetric in i, j
    lowered = {}
    for i in range(1, n + 1):
        for j in range(1, i + 1):
            for l in range(1, n + 1):
                value = dg[j, i, l] + dg[i, j, l] - dg[l, i, j]
                if not value.is_zero:
                    lowered[(i, j, l)] = half * value
    comp = {}
    zero = A.zero()
    for k in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(1, i + 1):
                total = dot(
                    [(metric.inv_entry(k, l), lowered.get((i, j, l), zero))
                     for l in range(1, n + 1)], zero)
                if not total.is_zero:
                    comp[(k, i, j)] = total
                    if i != j:
                        comp[(k, j, i)] = total
    return Connection(A, Tensor(A, 1, 2, comp))


def koszul_rhs(algebraifold, metric, u, v, w):
    """The six-term right side defining 2 g(nabla_u v, w), halved.

    Valid for arbitrary derivations; the three bracket terms vanish on the
    coordinate basis but not in general.
    """
    A = algebraifold
    g = metric.pair
    value = A.apply(u, g(v, w)) + A.apply(v, g(w, u)) - A.apply(w, g(u, v)) \
        + g(A.bracket(u, v), w) - g(A.bracket(v, w), u) + g(A.bracket(w, u), v)
    return A.scalar(Fraction(1, 2)) * value


def ricci(algebraifold, riemann):
    """Contraction of the curvature: Ric(v, w) = sum_i (R(u_i, v)w)(a_i)."""
    out = {}
    for (l, i, j, k), value in riemann.comp.items():
        if l == i:
            accumulate(out, (j, k), value)
    return Tensor(algebraifold, 0, 2, out)


def ricci_scalar(algebraifold, metric, ric):
    """Full contraction of the Ricci tensor with the inverse metric."""
    return dot([(metric.inv_entry(i, j), value)
                for (i, j), value in ric.comp.items()], algebraifold.zero())


class Geometry:
    """The Levi-Civita geometry of one metric tensor, each stage built once:
    the one curvature pipeline.

    ``g`` is the symmetric rank-(0, 2) metric tensor.  The stages ``metric``
    (g with its inverse) -> ``connection`` -> ``riemann`` -> ``ricci`` ->
    ``scalar`` -> ``einstein`` are computed on first access and then kept;
    a stage that raises keeps nothing, so the next access raises again.
    ``efe_residual`` reads ``einstein``.  Stages call the module-level stage
    functions, so replacing one of those (to count or time it) covers every
    caller.
    """

    def __init__(self, algebraifold, g):
        self.algebraifold = algebraifold
        self.g = g

    @cached_property
    def metric(self):
        return metric_inverse(self.algebraifold, self.g)

    @cached_property
    def connection(self):
        return levi_civita(self.algebraifold, self.metric)

    @cached_property
    def riemann(self):
        return curvature_tensor(self.connection)

    @cached_property
    def ricci(self):
        return ricci(self.algebraifold, self.riemann)

    @cached_property
    def scalar(self):
        return ricci_scalar(self.algebraifold, self.metric, self.ricci)

    @cached_property
    def einstein(self):
        half = self.algebraifold.scalar(Fraction(1, 2))
        return self.ricci - self.g.scale(half * self.scalar)

    def efe_residual(self, lam, kappa, stress_energy=None):
        """Residual of Ric - (1/2) S g + Lambda g - kappa T, which vanishes
        exactly when the metric and stress-energy satisfy the field
        equations.

        Both couplings must lie in the constants; they are checked before
        any stage runs.
        """
        A = self.algebraifold
        lam = A.scalar(lam)
        kappa = A.scalar(kappa)
        for name, value in (("lambda", lam), ("kappa", kappa)):
            if not A.is_constant(value):
                raise NonConstantCoupling(f"{name} is not a constant")
        if kappa.is_zero:
            raise NonConstantCoupling("kappa must be nonzero")
        residual = self.einstein + self.g.scale(lam)
        if stress_energy is not None:
            if stress_energy.rank != (0, 2):
                raise DescriptorMismatch("stress-energy must be rank (0, 2)")
            residual = residual - stress_energy.scale(kappa)
        return residual
