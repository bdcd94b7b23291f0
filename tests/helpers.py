"""Shared fixtures-in-spirit: contexts, random generators, small oracles."""

from __future__ import annotations

from fractions import Fraction

from afd import ScalarContext, field_with_extension
from afd.algebraifold import Algebraifold, Derivation
from afd.scalars import FIELD, POLYNOMIAL
from afd.tensors import Tensor


def poly_ring(*names, constants=()):
    return Algebraifold.build(ScalarContext(POLYNOMIAL, names, constants))


def function_field(*names, constants=()):
    return Algebraifold.build(ScalarContext(FIELD, names, constants))


def elliptic_field():
    return Algebraifold.build(field_with_extension(("x",), "y", "y^2 - x^3 - 1"))


# ---------------------------------------------------------------------------
# Seeded random generation (deterministic across runs)
# ---------------------------------------------------------------------------

def random_fraction(rng, zero_ok=True):
    num = rng.randint(-4, 4)
    if not zero_ok:
        while num == 0:
            num = rng.randint(-4, 4)
    return Fraction(num, rng.randint(1, 3))


def random_poly_scalar(rng, ctx, max_terms=3, max_deg=2, zero_ok=True):
    """A small random polynomial Scalar of the context."""
    names = ctx.all_vars
    total = ctx.zero
    for _ in range(rng.randint(0 if zero_ok else 1, max_terms)):
        term = ctx.const(random_fraction(rng, zero_ok=False))
        for name in names:
            e = rng.randint(0, max_deg)
            if e:
                term = term * ctx.var(name) ** e
        total = total + term
    if not zero_ok and total.is_zero:
        return ctx.one
    return total


def random_field_scalar(rng, ctx, max_terms=2, max_deg=2):
    num = random_poly_scalar(rng, ctx, max_terms, max_deg)
    den = random_poly_scalar(rng, ctx, max_terms, max_deg, zero_ok=False)
    return num / den


def random_ext_scalar(rng, ctx):
    """c0 + c1 * gen with small rational-function coefficients."""
    gen = ctx.extension.gen
    c0 = random_field_scalar(rng, ctx, max_terms=2, max_deg=1)
    c1 = random_field_scalar(rng, ctx, max_terms=1, max_deg=1)
    return c0 + c1 * ctx.var(gen)


def random_scalar(rng, ctx):
    level = rng.randint(0, 3 if ctx.extension else 2)
    if level == 0:
        return ctx.const(random_fraction(rng))
    if level == 1:
        return random_poly_scalar(rng, ctx)
    if level == 2 and ctx.kind == FIELD:
        return random_field_scalar(rng, ctx)
    if level == 3:
        return random_ext_scalar(rng, ctx)
    return random_poly_scalar(rng, ctx)


def random_derivation(rng, algebraifold, max_deg=1):
    return Derivation(algebraifold, tuple(
        random_poly_scalar(rng, algebraifold.ctx, max_terms=2, max_deg=max_deg)
        for _ in range(algebraifold.n)))


def random_invertible_metric(rng, algebraifold, entry=random_poly_scalar):
    """g = P^T D P with P unit upper-triangular, its entries drawn by
    ``entry`` (random_poly_scalar or random_field_scalar) with at most two
    terms of degree <= 1.

    The determinant is the constant product of the D entries, so the inverse
    of a polynomial g is again a polynomial matrix; entries have degree <= 2.
    """
    A = algebraifold
    n = A.n
    P = [[A.one if i == j else A.zero for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            P[i][j] = entry(rng, A.ctx, max_terms=2, max_deg=1)
    D = [A.scalar(rng.choice([-2, -1, 1, 2])) for _ in range(n)]
    entries = {}
    for i in range(n):
        for j in range(n):
            total = A.zero
            for k in range(n):
                total = total + P[k][i] * D[k] * P[k][j]
            entries[(i + 1, j + 1)] = total
    return Tensor.make(A, 0, 2, entries)
