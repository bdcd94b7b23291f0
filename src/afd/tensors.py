"""Exact tensors as sparse component arrays in the coordinate dual basis.

A rank-(r, s) tensor stores only its nonzero components, keyed by 1-based
index tuples with the r contravariant slots first.  Rank-(0, 0) tensors are
plain scalars wrapped in an empty-or-singleton component table keyed by ().
"""

from __future__ import annotations

from itertools import product

from .algebraifold import Derivation, OneForm, require_elements
from .errors import (
    ArityMismatch,
    Degenerate,
    NotDivisible,
    NotInvertibleInAlgebra,
    NotSymmetric,
    SlotOutOfRange,
)
from .scalars import _laplace_minors, dot


def accumulate(comp, idx, value):
    """Add ``value`` into the sparse table ``comp`` at ``idx``.

    The table keeps no zero entries: a zero ``value`` is skipped and an
    entry that cancels to zero is dropped.
    """
    if value.is_zero:
        return
    total = comp.get(idx)
    total = value if total is None else total + value
    if total.is_zero:
        comp.pop(idx, None)
    else:
        comp[idx] = total


class Tensor:
    """Sparse exact tensor over an algebraifold."""

    __slots__ = ("algebraifold", "r", "s", "comp")

    def __init__(self, algebraifold, r, s, comp):
        self.algebraifold = algebraifold
        self.r = r
        self.s = s
        self.comp = comp  # trusted: no zero values, valid 1-based indices

    @classmethod
    def make(cls, algebraifold, r, s, entries):
        n = algebraifold.n
        comp = {}
        for idx, value in entries.items():
            idx = tuple(idx)
            if len(idx) != r + s or any(not 1 <= k <= n for k in idx):
                raise SlotOutOfRange(
                    f"index {idx} invalid for rank ({r}, {s}) with n = {n}")
            value = algebraifold.scalar(value)
            if not value.is_zero:
                comp[idx] = value
        return cls(algebraifold, r, s, comp)

    @classmethod
    def scalar_tensor(cls, algebraifold, value):
        return cls.make(algebraifold, 0, 0, {(): value})

    @classmethod
    def zero(cls, algebraifold, r, s):
        return cls(algebraifold, r, s, {})

    # -- views

    @property
    def rank(self):
        return (self.r, self.s)

    @property
    def is_zero(self):
        return not self.comp

    def get(self, idx):
        value = self.comp.get(tuple(idx))
        return self.algebraifold.zero if value is None else value

    def as_scalar(self):
        if self.r or self.s:
            raise ArityMismatch("only rank-(0, 0) tensors are scalars")
        return self.get(())

    def sorted_components(self):
        return sorted(self.comp.items())

    def __eq__(self, other):
        return (isinstance(other, Tensor)
                and self.algebraifold == other.algebraifold
                and self.rank == other.rank and self.comp == other.comp)

    def __repr__(self):
        return f"Tensor(rank={self.rank}, nnz={len(self.comp)})"

    # -- module structure

    def __add__(self, other):
        require_elements(self.algebraifold, Tensor, other)
        if self.rank != other.rank:
            raise ArityMismatch(f"cannot add rank {self.rank} and {other.rank}")
        comp = dict(self.comp)
        for idx, value in other.comp.items():
            accumulate(comp, idx, value)
        return Tensor(self.algebraifold, self.r, self.s, comp)

    def __neg__(self):
        return Tensor(self.algebraifold, self.r, self.s,
                      {idx: -v for idx, v in self.comp.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        scalar = self.algebraifold.scalar(scalar)
        if scalar.is_zero:
            return Tensor.zero(self.algebraifold, self.r, self.s)
        return Tensor(self.algebraifold, self.r, self.s,
                      {idx: scalar * v for idx, v in self.comp.items()})

    # -- multiplicative structure

    def tensor(self, other):
        """Tensor product; adds up the arities slotwise."""
        require_elements(self.algebraifold, Tensor, other)
        comp = {}
        for (i1, v1), (i2, v2) in product(self.comp.items(), other.comp.items()):
            idx = i1[:self.r] + i2[:other.r] + i1[self.r:] + i2[other.r:]
            accumulate(comp, idx, v1 * v2)
        return Tensor(self.algebraifold, self.r + other.r, self.s + other.s,
                      comp)

    def contract(self, contra_slot, cov_slot):
        """Contract one contravariant against one covariant slot (1-based)."""
        if not 1 <= contra_slot <= self.r:
            raise SlotOutOfRange(
                f"contravariant slot {contra_slot} of rank {self.rank}")
        if not 1 <= cov_slot <= self.s:
            raise SlotOutOfRange(
                f"covariant slot {cov_slot} of rank {self.rank}")
        up = contra_slot - 1
        down = self.r + cov_slot - 1
        comp = {}
        for idx, value in self.comp.items():
            if idx[up] != idx[down]:
                continue
            out = tuple(k for pos, k in enumerate(idx)
                        if pos != up and pos != down)
            accumulate(comp, out, value)
        return Tensor(self.algebraifold, self.r - 1, self.s - 1, comp)

    def evaluate(self, oneforms, derivations):
        """Full multilinear pairing against components.

        The sum runs over the nonzero coefficients of the arguments only:
        each index tuple they support is looked up in the component table,
        and a component found there is paired with the product of its
        coefficients, which are small next to it.  One ``dot`` sums the
        pairs.
        """
        if len(oneforms) != self.r or len(derivations) != self.s:
            raise ArityMismatch(
                f"rank {self.rank} tensor takes {self.r} one-forms and"
                f" {self.s} derivations")
        require_elements(self.algebraifold, OneForm, *oneforms)
        require_elements(self.algebraifold, Derivation, *derivations)
        # slot a pairs with the a-th argument
        supports = [[(i, c) for i, c in enumerate(x.coeffs, 1) if c]
                    for x in (*oneforms, *derivations)]
        if not supports:  # a rank-(0, 0) tensor
            return self.get(())
        pairs = []
        for *head, (j, c) in product(*supports):
            value = self.comp.get(tuple(i for i, _ in head) + (j,))
            if value is not None:
                for _, h in head:
                    c = h * c
                pairs.append((value, c))
        return dot(pairs, self.algebraifold.zero)


def kronecker(algebraifold):
    """The identity rank-(1, 1) tensor."""
    one = algebraifold.one
    return Tensor(algebraifold, 1, 1,
                  {(i, i): one for i in range(1, algebraifold.n + 1)})


def derive_tensor(u, T, M):
    """The derivation of the tensor algebra along ``u`` acting on the
    derivation module by the matrix ``M``, applied to ``T`` componentwise.

    Such a derivation commutes with contractions, so it is fixed by u on
    scalars and by M: each component contributes u(T[K]); a contravariant
    slot holding m feeds M[k][m] into the slot-k component, a covariant slot
    holding m feeds -M[m][j] into the slot-j component.  The terms are
    collected per output component, and one ``dot`` onto u(T[K]) sums each.
    ``M`` is indexed from 0; callers check that ``u`` lives over the
    algebraifold of ``T``.
    """
    A = T.algebraifold
    n = A.n
    # per slot kind and value m, the nonzero (output value, factor) pairs
    up = [[(k + 1, M[k][m]) for k in range(n) if not M[k][m].is_zero]
          for m in range(n)] if T.r else []
    down = [[(j + 1, -c) for j, c in enumerate(row) if not c.is_zero]
            for row in M] if T.s else []
    slots = [up] * T.r + [down] * T.s
    terms = {idx: [] for idx in T.comp}
    for idx, c in T.comp.items():
        for pos, (m, table) in enumerate(zip(idx, slots)):
            for k, coeff in table[m - 1]:
                terms.setdefault(idx[:pos] + (k,) + idx[pos + 1:], []).append(
                    (coeff, c))
    zero = A.zero
    out = {}
    for idx, pairs in terms.items():
        c = T.comp.get(idx)
        value = dot(pairs, zero if c is None else A.apply(u, c))
        if not value.is_zero:
            out[idx] = value
    return Tensor(A, T.r, T.s, out)


def lie_derivative(u, T):
    """Lie derivative of a tensor along a derivation, componentwise.

    The tensor derivation with M[k][m] = -d(u^k)/dx_m.
    """
    # a non-module T (a Scalar has no algebraifold) fails the type check
    A = getattr(T, "algebraifold", None)
    require_elements(A, Tensor, T)
    require_elements(A, Derivation, u)
    names = A.ctx.transcendentals
    M = [[-c.partial(name) for name in names] for c in u.coeffs]
    return derive_tensor(u, T, M)


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def _matrix_inverse(ctx, rows):
    """Exact inverse of a symmetric Scalar matrix by Cramer's rule,
    adj(A) / det(A), in ring arithmetic and one inverse of det(A).

    The determinant and the cofactors share one memoized Laplace expansion.
    Raises Degenerate when the determinant vanishes, and in a polynomial
    context NotInvertibleInAlgebra when it is not a unit of the ring.
    """
    minor = _laplace_minors(rows, ctx.zero, ctx.one)
    n = len(rows)
    full = tuple(range(n))
    det = minor(full, full)
    if det.is_zero:
        raise Degenerate("matrix is singular")
    try:
        inv = det.inverse()
    except NotDivisible:
        raise NotInvertibleInAlgebra(
            "inverse exists only in the fraction field") from None
    inverse = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            cof = minor(full[:i] + full[i + 1:], full[:j] + full[j + 1:])
            inverse[i][j] = inverse[j][i] = -(inv * cof) if (i + j) & 1 \
                else inv * cof
    return inverse


class Metric:
    """A symmetric nondegenerate rank-(0, 2) tensor with its exact inverse,
    over the algebraifold of ``g``."""

    __slots__ = ("algebraifold", "g", "g_inv")

    def __init__(self, g, g_inv):
        require_elements(getattr(g, "algebraifold", None), Tensor, g, g_inv)
        self.algebraifold = g.algebraifold
        self.g = g
        self.g_inv = g_inv

    def entry(self, i, j):
        return self.g.get((i, j))

    def inv_entry(self, i, j):
        return self.g_inv.get((i, j))

    def pair(self, u, v):
        """g(u, v) for derivations."""
        return self.g.evaluate((), (u, v))

    def __repr__(self):
        return f"Metric(n={self.algebraifold.n})"


def metric_inverse(g):
    """Build the Metric for a symmetric rank-(0, 2) tensor.

    The inverse is the adjugate times the inverse of the determinant, which
    must be a unit: nonzero, and in a polynomial context free of the
    coordinates.
    """
    if g.rank != (0, 2):
        raise ArityMismatch("a metric is a rank-(0, 2) tensor")
    A = g.algebraifold
    n = A.n
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if g.get((i, j)) != g.get((j, i)):
                raise NotSymmetric(f"g[{i},{j}] != g[{j},{i}]")
    rows = [[g.get((i, j)) for j in range(1, n + 1)] for i in range(1, n + 1)]
    inverse = _matrix_inverse(A.ctx, rows)
    g_inv = Tensor.make(A, 2, 0, {
        (i + 1, j + 1): inverse[i][j]
        for i in range(n) for j in range(n)
    })
    return Metric(g, g_inv)


def _contract_first(table, vector, kind, out):
    """The ``out`` with coefficients sum_j table[i, j] vector[j] of a rank-2
    table, for a ``kind`` vector over the table's algebraifold."""
    A = table.algebraifold
    require_elements(A, kind, vector)
    return out(A, tuple(
        dot([(table.get((i, j)), c) for j, c in enumerate(vector.coeffs, 1)],
            A.zero)
        for i in range(1, A.n + 1)))


def musical_flat(metric, v):
    """Lower an index: the one-form g(v, -)."""
    return _contract_first(metric.g, v, Derivation, OneForm)


def musical_sharp(metric, eta):
    """Raise an index: the derivation paired to a one-form by the inverse."""
    return _contract_first(metric.g_inv, eta, OneForm, Derivation)
