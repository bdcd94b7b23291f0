"""The fused sums of products against the Scalar folds they replace.

``scalars.dot`` sends its products of polynomials to one
``_sum_products`` call, and the geometry sites collect their terms per
output component into one ``dot`` each.  The ``_ref_*`` functions below are
the earlier forms of those sums: every product and every sum one Scalar
operation at a time, in order.  Canonical forms are unique, so the two must
agree exactly, payload type included.
"""

import random
from fractions import Fraction
from itertools import product

import pytest

from afd import ScalarContext, field_with_extension
from afd import scalars
from afd.algebraifold import Derivation
from afd.curvature import Connection, covariant_derivative, levi_civita
from afd.errors import ContextMismatch, ExponentOverflow
from afd.manifest import load_manifest
from afd.scalars import POLYNOMIAL, ExtElem, MultiPoly, RatFunc
from afd.tensors import (
    Tensor,
    accumulate,
    kronecker,
    lie_derivative,
    metric_inverse,
    musical_flat,
)

from helpers import (
    function_field,
    poly_ring,
    random_derivation,
    random_field_scalar,
    random_invertible_metric,
    random_poly_scalar,
)


# ---------------------------------------------------------------------------
# References: one Scalar operation at a time
# ---------------------------------------------------------------------------

def _ref_dot(pairs, start):
    total = start
    for a, b in pairs:
        if not (a.is_zero or b.is_zero):
            total = total + a * b
    return total


def _ref_apply(A, v, a):
    """v(a) for a derivation v and a scalar a."""
    a = A.scalar(a)
    if a.is_constant_rational:
        return A.zero
    return _ref_dot(((c, a.partial(name))
                     for c, name in zip(v.coeffs, A.ctx.transcendentals)
                     if not c.is_zero), A.zero)


def _ref_bracket(A, u, v):
    return Derivation(A, tuple(
        _ref_apply(A, u, v.coeffs[j]) - _ref_apply(A, v, u.coeffs[j])
        for j in range(A.n)))


def _ref_evaluate(T, oneforms, derivations):
    supports = [[(i, c) for i, c in enumerate(x.coeffs, 1) if c]
                for x in (*oneforms, *derivations)]
    if not supports:
        return T.get(())
    pairs = []
    for *head, (j, c) in product(*supports):
        value = T.comp.get(tuple(i for i, _ in head) + (j,))
        if value is not None:
            for _, h in head:
                value = value * h
            pairs.append((value, c))
    return _ref_dot(pairs, T.algebraifold.zero)


def _ref_derive_tensor(A, u, T, M):
    n = A.n
    out = {}
    for idx, c in T.comp.items():
        accumulate(out, idx, _ref_apply(A, u, c))
        for pos in range(T.r):
            m = idx[pos] - 1
            for k in range(n):
                coeff = M[k][m]
                if not coeff.is_zero:
                    accumulate(out, idx[:pos] + (k + 1,) + idx[pos + 1:],
                               coeff * c)
        for pos in range(T.r, T.r + T.s):
            row = M[idx[pos] - 1]
            for j in range(n):
                coeff = row[j]
                if not coeff.is_zero:
                    accumulate(out, idx[:pos] + (j + 1,) + idx[pos + 1:],
                               -(coeff * c))
    return Tensor(A, T.r, T.s, out)


def _ref_matrix(connection, u, hom=None):
    n = connection.algebraifold.n
    zero = (connection.algebraifold if hom is None else hom.target).zero
    M = [[zero] * n for _ in range(n)]
    for (k, i, j), gamma in connection.gamma.comp.items():
        c = u.coeffs[i - 1]
        if not c.is_zero:
            if hom is not None:
                gamma = hom.apply(gamma)
            M[k - 1][j - 1] = M[k - 1][j - 1] + c * gamma
    return M


def _ref_connection_apply(connection, u, v):
    A = connection.algebraifold
    vector = Tensor.make(A, 1, 0, {(k,): c for k, c in enumerate(v.coeffs, 1)})
    out = _ref_derive_tensor(A, u, vector, _ref_matrix(connection, u))
    return Derivation(A, tuple(out.get((k,)) for k in range(1, A.n + 1)))


def _ref_lie_matrix(A, u):
    names = A.ctx.transcendentals
    return [[-u.coeffs[k].partial(names[m]) for m in range(A.n)]
            for k in range(A.n)]


def assert_same(got, want):
    """Exact equality, and the same payload type for a Scalar."""
    assert got == want
    if hasattr(want, "val"):
        assert type(got.val) is type(want.val)


# ---------------------------------------------------------------------------
# dot against the fold
# ---------------------------------------------------------------------------

EXT = field_with_extension(("x", "y"), "w", "w^2 - x")
DENOMINATORS = (1, 2, 3, 6, 35)


def _rational(rng, zero_ok=True):
    num = rng.randint(-6, 6)
    while not (num or zero_ok):
        num = rng.randint(-6, 6)
    return Fraction(num, rng.choice(DENOMINATORS))


def _polynomial(rng, ctx):
    """A nonconstant polynomial Scalar with denominators from 1, 2, 3, 6
    and 35."""
    x, y = ctx.var("x"), ctx.var("y")
    total = ctx.zero
    while total.is_constant_rational:
        for _ in range(rng.randint(1, 3)):
            total = total + _rational(rng, zero_ok=False) \
                * x ** rng.randint(0, 2) * y ** rng.randint(0, 2)
    return total


def _element(rng, ctx, level):
    """A Scalar stored at tower level ``level``: Fraction, MultiPoly,
    RatFunc or ExtElem."""
    if level == 0:
        return ctx.const(_rational(rng))
    value = _polynomial(rng, ctx)
    if level >= 2:
        value = value / (_polynomial(rng, ctx) + ctx.var("y") ** 3)
    if level == 3:
        value = value + _polynomial(rng, ctx) * ctx.var("w")
    return value


LEVELS = (0, 1, 1, 1, 1, 2, 3)  # most pairs multiply polynomials


class TestDotMatchesFold:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_pairs_at_every_level(self, seed):
        rng = random.Random(2100 + seed)
        fused, seen = 0, set()
        for trial in range(25):
            pairs = [(_element(rng, EXT, rng.choice(LEVELS)),
                      _element(rng, EXT, rng.choice(LEVELS)))
                     for _ in range(rng.randint(0, 8))]
            start = _element(rng, EXT, rng.choice(LEVELS)) \
                if trial % 3 else EXT.zero
            seen.update(type(v.val) for pair in pairs for v in pair)
            fused += sum(type(a.val) is type(b.val) is MultiPoly
                         for a, b in pairs) >= 2
            assert_same(scalars.dot(pairs, start), _ref_dot(pairs, start))
            # the same products with a rational factor and zero factors
            # mixed in, in another order
            extra = [(EXT.zero, a) for a, _ in pairs[:2]] + [
                (EXT.const(Fraction(5, 6)), b) for _, b in pairs[:1]]
            mixed = pairs[::-1] + extra
            rng.shuffle(mixed)
            assert_same(scalars.dot(mixed, start), _ref_dot(mixed, start))
        assert seen == {Fraction, MultiPoly, RatFunc, ExtElem}
        assert fused >= 3

    @pytest.mark.parametrize("seed", range(4))
    def test_sums_that_cancel_are_the_canonical_zero(self, seed):
        rng = random.Random(2200 + seed)
        for _ in range(15):
            pairs = [(_element(rng, EXT, rng.choice(LEVELS)),
                      _polynomial(rng, EXT)) for _ in range(rng.randint(1, 5))]
            # every product cancels against its negation
            both = pairs + [(-a, b) for a, b in pairs]
            rng.shuffle(both)
            value = scalars.dot(both, EXT.zero)
            assert_same(value, _ref_dot(both, EXT.zero))
            assert type(value.val) is Fraction and value.val == 0
            # the sum cancels against the start
            start = -_ref_dot(pairs, EXT.zero)
            value = scalars.dot(pairs, start)
            assert type(value.val) is Fraction and value.val == 0

    def test_a_polynomial_start_joins_the_kernel(self):
        ring = ScalarContext(POLYNOMIAL, ("x", "y"))
        x, y = ring.var("x"), ring.var("y")
        pairs = [(x / 2, y), (y / 3, x + 1), (x, x / 35)]
        for start in (x * y / 6, ring.const(Fraction(1, 6)), ring.zero,
                      -(x / 2 * y + y / 3 * (x + 1) + x * x / 35)):
            assert_same(scalars.dot(pairs, start), _ref_dot(pairs, start))

    def test_fused_product_past_the_degree_limit_is_refused(self):
        ring = ScalarContext(POLYNOMIAL, ("x", "y"))
        x, y = ring.var("x"), ring.var("y")
        big = x ** 16384
        assert scalars.dot([(x ** 16383, x ** 16384), (y, y)],
                           ring.zero) == x ** 32767 + y * y
        with pytest.raises(ExponentOverflow) as err:
            scalars.dot([(big, big), (y, y)], ring.zero)
        assert err.value.code == "exponent-overflow"
        with pytest.raises(ExponentOverflow):
            scalars.dot([(y, y), (x, x), (big * y, big)], ring.zero)

    def test_polynomials_of_another_context_are_refused(self):
        ring = ScalarContext(POLYNOMIAL, ("x", "y"))
        other = ScalarContext(POLYNOMIAL, ("x", "y", "z"))
        x, y, z = (other.var(v) for v in "xyz")
        with pytest.raises(ContextMismatch):
            scalars.dot([(x, y), (z, z), (x, x)], ring.zero)
        with pytest.raises(ContextMismatch):
            scalars.dot([(ring.var("x"), ring.var("y")), (x, z),
                         (ring.var("y"), ring.var("y"))], ring.zero)

    def test_pairs_of_an_equal_context_that_is_another_object(self):
        # an equal context built again is folded, not fused, and agrees
        a = ScalarContext(POLYNOMIAL, ("x", "y"))
        b = ScalarContext(POLYNOMIAL, ("x", "y"))
        pairs = [(a.var("x"), b.var("y")), (b.var("y"), a.var("y")),
                 (a.var("x"), a.var("x"))]
        assert scalars.dot(pairs, a.zero) == \
            a.var("x") * a.var("y") + a.var("y") ** 2 + a.var("x") ** 2


# ---------------------------------------------------------------------------
# The geometry sites against the folds
# ---------------------------------------------------------------------------

def assert_sites_match(A, metric, connection, fields, gamma_fields=()):
    """Every rewritten site on every field, against its reference:
    ``Connection.matrix`` and ``apply``, ``derive_tensor`` behind the
    covariant and Lie derivatives, ``Tensor.evaluate`` and
    ``Algebraifold.bracket``.  The Christoffel tensor is differentiated only
    along ``gamma_fields``."""
    tensors = [metric.g, metric.g_inv, kronecker(A)]
    forms = [musical_flat(metric, u) for u in fields[-2:]]
    for u in fields:
        M = _ref_matrix(connection, u)
        assert connection.matrix(u) == M
        for T in tensors + [connection.gamma] * (u in gamma_fields):
            assert covariant_derivative(connection, u, T) \
                == _ref_derive_tensor(A, u, T, M)
        for T in tensors[:2]:
            assert lie_derivative(u, T) \
                == _ref_derive_tensor(A, u, T, _ref_lie_matrix(A, u))
        for v in fields:
            assert connection.apply(u, v) \
                == _ref_connection_apply(connection, u, v)
            assert A.bracket(u, v) == _ref_bracket(A, u, v)
            assert_same(metric.g.evaluate((), (u, v)),
                        _ref_evaluate(metric.g, (), (u, v)))
        for alpha in forms:
            assert_same(connection.gamma.evaluate((alpha,), (u, u)),
                        _ref_evaluate(connection.gamma, (alpha,), (u, u)))
            for beta in forms:
                assert_same(metric.g_inv.evaluate((alpha, beta), ()),
                            _ref_evaluate(metric.g_inv, (alpha, beta), ()))


class TestGeometrySitesMatchFolds:
    @pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")])
    @pytest.mark.parametrize("kind", ["polynomial", "field"])
    def test_random_metrics(self, names, kind):
        rng = random.Random(2103)
        A = (poly_ring if kind == "polynomial" else function_field)(*names)
        entry = random_poly_scalar if kind == "polynomial" \
            else random_field_scalar
        metric = metric_inverse(random_invertible_metric(rng, A, entry))
        connection = levi_civita(metric)
        basis = [A.basis_derivation(i) for i in range(1, A.n + 1)]
        fields = basis + [random_derivation(rng, A, max_deg=2)
                          for _ in range(2)]
        if kind == "field":  # keep the rational functions small
            fields = basis[:2] + fields[-2:]
        assert_sites_match(A, metric, connection, fields, fields[-2:])

    def test_random_connection_without_symmetry(self):
        # polynomial Christoffel symbols: each matrix entry and each
        # component of nabla_u v sums several polynomial products
        rng = random.Random(2104)
        A = poly_ring("x", "y", "z")
        gamma = Tensor.make(A, 1, 2, {
            idx: random_poly_scalar(rng, A.ctx)
            for idx in product((1, 2, 3), repeat=3)})
        connection = Connection(gamma)
        metric = metric_inverse(random_invertible_metric(rng, A))
        fields = [random_derivation(rng, A, max_deg=2) for _ in range(3)]
        assert_sites_match(A, metric, connection, fields, fields)

    @pytest.mark.parametrize("path", [
        "perfbench/ks_extension.json", "tests/fixtures/schwarzschild_ks.json"])
    def test_kerr_schild_over_an_extension(self, repo_root, path):
        manifest = load_manifest(repo_root / path)
        A = manifest.algebraifold
        metric = metric_inverse(manifest.metric)
        connection = levi_civita(metric)
        basis = [A.basis_derivation(i) for i in range(1, A.n + 1)]
        # the position field and a rotation, with polynomial coefficients
        coords = A.coords
        rotation = [A.zero] * A.n
        rotation[-2], rotation[-1] = -coords[-1], coords[-2]
        fields = basis[:2] + [Derivation(A, coords), Derivation(A, rotation)]
        assert_sites_match(A, metric, connection, fields, basis[:1])

    def test_matrix_along_a_curve(self, repo_root):
        # the pushforward of the connection maps each Gamma first
        manifest = load_manifest(repo_root / "perfbench" / "ks_extension.json")
        connection = levi_civita(metric_inverse(manifest.metric))
        hom = manifest.curve_hom("ingoing")
        velocity = hom.differential(manifest.line.derivation)
        assert connection.matrix(velocity) \
            == _ref_matrix(connection, velocity, hom)

    def test_bracket_of_polynomial_fields(self):
        rng = random.Random(2105)
        for A in (poly_ring("x", "y", "z"), function_field("x", "y")):
            for _ in range(6):
                u, v = (random_derivation(rng, A, max_deg=3) for _ in range(2))
                assert A.bracket(u, v) == _ref_bracket(A, u, v)
                assert A.bracket(u, u).is_zero
