"""Connections, torsion, curvature, Levi-Civita, Ricci, Einstein, EFE."""

import random
from fractions import Fraction
from itertools import product

import pytest

from afd import ScalarContext
from afd.algebraifold import Algebraifold, Derivation
from afd.curvature import (
    Connection,
    Geometry,
    covariant_derivative,
    curvature_tensor,
    koszul_rhs,
    levi_civita,
    ricci,
    standard_connection,
    torsion,
)
from afd.errors import NonConstantCoupling
from afd.expr import parse_scalar
from afd.scalars import (
    FIELD, ExtElem, MultiPoly, RatFunc, Scalar, SharedDenominator,
    _laplace_minors, _lcm_cofactors, _Quotient, dot)
from afd.tensors import Tensor, kronecker, metric_inverse

from helpers import (
    function_field,
    poly_ring,
    random_derivation,
    random_field_scalar,
    random_invertible_metric,
    random_poly_scalar,
    random_scalar,
)
from scalar_views import substitute

P2 = poly_ring("x", "y")
X = P2.ctx.var("x")

POLY_METRIC = metric_inverse(Tensor.make(P2, 0, 2, {
    (1, 1): "1", (1, 2): "x", (2, 1): "x", (2, 2): "1 + x^2"}))


def space_form_riemann(A, metric, curvature_constant):
    """Oracle: curvature of a 2D space form from its sectional curvature.

    R(u_i, u_j)u_k = K (g_{jk} u_i - g_{ik} u_j), assembled componentwise.
    The constant for the worked metric is K = -1, obtained independently from
    an orthonormal-frame computation: with e1 = dx + x dy, e2 = dy the
    connection form is -(dx + x dy) and its exterior derivative is -dx^dy.
    """
    K = A.scalar(curvature_constant)
    n = A.n
    entries = {}
    for l in range(1, n + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                for k in range(1, n + 1):
                    value = A.zero
                    if l == i:
                        value = value + K * metric.entry(j, k)
                    if l == j:
                        value = value - K * metric.entry(i, k)
                    entries[(l, i, j, k)] = value
    return Tensor.make(A, 1, 3, entries)


class TestStandardConnection:
    def test_gamma_vanishes(self):
        assert standard_connection(P2).gamma.is_zero

    def test_componentwise_derivative(self):
        C = standard_connection(P2)
        dx = P2.basis_derivation(1)
        y_field = P2.ctx.var("y") * P2.basis_derivation(2)
        assert C.apply(dx, y_field).is_zero

    def test_leibniz_on_coefficient(self):
        C = standard_connection(P2)
        dx = P2.basis_derivation(1)
        assert C.apply(dx, X * P2.basis_derivation(2)) == P2.basis_derivation(2)


class TestCovariantDerivative:
    def test_levi_civita_kills_metric(self):
        # metric compatibility, the defining property cross-checked by Koszul
        C = levi_civita(POLY_METRIC)
        for i in (1, 2):
            result = covariant_derivative(C, P2.basis_derivation(i),
                                          POLY_METRIC.g)
            assert result.is_zero

    def test_scalars_reduce_to_application(self):
        rng = random.Random(3)
        C = levi_civita(POLY_METRIC)
        u = random_derivation(rng, P2)
        a = random_poly_scalar(rng, P2.ctx)
        result = covariant_derivative(C, u, Tensor.scalar_tensor(P2, a))
        assert result.as_scalar() == u(a)

    def test_kronecker_is_parallel_for_any_connection(self):
        # oracle: expanding the rank-(1,1) formula, the corrections cancel
        rng = random.Random(5)
        gamma = Tensor.make(P2, 1, 2, {
            (k, i, j): random_poly_scalar(rng, P2.ctx)
            for k in (1, 2) for i in (1, 2) for j in (1, 2)})
        C = Connection(gamma)
        result = covariant_derivative(C, P2.basis_derivation(1), kronecker(P2))
        assert result.is_zero

    def test_difference_of_connections_is_tensor_action(self):
        # two covariant derivatives differ exactly by the action of the
        # difference tensor on the argument
        rng = random.Random(7)
        gammas = []
        for _ in range(2):
            gammas.append(Tensor.make(P2, 1, 2, {
                (k, i, j): random_poly_scalar(rng, P2.ctx)
                for k in (1, 2) for i in (1, 2) for j in (1, 2)}))
        C1, C2 = Connection(gammas[0]), Connection(gammas[1])
        u = random_derivation(rng, P2)
        v = random_derivation(rng, P2)
        diff = C1.apply(u, v) - C2.apply(u, v)
        expected = [P2.zero, P2.zero]
        delta = gammas[0] - gammas[1]
        for (k, i, j), value in delta.comp.items():
            expected[k - 1] = expected[k - 1] \
                + value * u.coeffs[i - 1] * v.coeffs[j - 1]
        assert tuple(diff.coeffs) == tuple(expected)


class TestTorsion:
    def test_symmetric_gamma_is_torsion_free(self):
        gamma = Tensor.make(P2, 1, 2, {(1, 1, 2): X, (1, 2, 1): X})
        assert torsion(Connection(gamma)).is_zero

    def test_antisymmetrization(self):
        gamma = Tensor.make(P2, 1, 2, {(1, 1, 2): X})
        T = torsion(Connection(gamma))
        assert T.get((1, 1, 2)) == X
        assert T.get((1, 2, 1)) == -X

    def test_levi_civita_is_torsion_free(self):
        # oracle: the Christoffel formula is symmetric in its lower slots
        assert torsion(levi_civita(POLY_METRIC)).is_zero


class TestCurvature:
    def test_standard_connection_is_flat(self):
        assert curvature_tensor(standard_connection(P2)).is_zero

    def test_identity_metric_is_flat(self):
        identity = metric_inverse(Tensor.make(P2, 0, 2,
                                                  {(1, 1): 1, (2, 2): 1}))
        assert curvature_tensor(levi_civita(identity)).is_zero

    def test_worked_metric_matches_space_form_oracle(self):
        R = curvature_tensor(levi_civita(POLY_METRIC))
        assert R == space_form_riemann(P2, POLY_METRIC, -1)


class TestLeviCivita:
    def test_identity_metric(self):
        identity = metric_inverse(Tensor.make(P2, 0, 2,
                                                  {(1, 1): 1, (2, 2): 1}))
        assert levi_civita(identity).gamma.is_zero

    def test_worked_metric_symbols(self):
        # oracle values from solving Koszul's formula on all basis triples
        C = levi_civita(POLY_METRIC)
        assert C.coeff(2, 1, 1) == P2.one
        assert C.coeff(1, 1, 1) == -X
        assert C.coeff(1, 1, 2) == -(X**2)
        assert C.coeff(1, 2, 1) == -(X**2)
        assert C.coeff(2, 1, 2) == X
        assert C.coeff(2, 2, 1) == X
        assert C.coeff(1, 2, 2) == -(X**3) - X
        assert C.coeff(2, 2, 2) == X**2

    def test_koszul_holds_on_basis_triples(self):
        C = levi_civita(POLY_METRIC)
        for i in (1, 2):
            for j in (1, 2):
                for k in (1, 2):
                    u = P2.basis_derivation(i)
                    v = P2.basis_derivation(j)
                    w = P2.basis_derivation(k)
                    assert POLY_METRIC.pair(C.apply(u, v), w) \
                        == koszul_rhs(POLY_METRIC, u, v, w)

    def test_koszul_holds_for_non_coordinate_fields(self):
        rng = random.Random(11)
        C = levi_civita(POLY_METRIC)
        for _ in range(4):
            u = random_derivation(rng, P2)
            v = random_derivation(rng, P2)
            w = random_derivation(rng, P2)
            assert POLY_METRIC.pair(C.apply(u, v), w) \
                == koszul_rhs(POLY_METRIC, u, v, w)

    def test_differentiates_each_metric_entry_once(self, monkeypatch):
        # 3 directions times the 6 entries g_{bc}, c <= b, of a 3D metric
        A = poly_ring("x", "y", "z")
        m = metric_inverse(random_invertible_metric(random.Random(61), A))
        partial = Scalar.partial
        calls = []

        def counted(self, name):
            calls.append(name)
            return partial(self, name)

        monkeypatch.setattr(Scalar, "partial", counted)
        levi_civita(m)
        assert len(calls) == 18

    def test_uniqueness_witness(self):
        # perturbing Gamma by a nonzero symmetric tensor breaks metric
        # compatibility on some basis derivation
        C = levi_civita(POLY_METRIC)
        perturbation = Tensor.make(P2, 1, 2, {(1, 1, 2): X, (1, 2, 1): X})
        perturbed = Connection(C.gamma + perturbation)
        broken = any(
            not covariant_derivative(perturbed, P2.basis_derivation(i),
                                     POLY_METRIC.g).is_zero
            for i in (1, 2))
        assert broken


class TestKoszul:
    def test_identity_metric_basis_triple(self):
        identity = metric_inverse(Tensor.make(P2, 0, 2,
                                                  {(1, 1): 1, (2, 2): 1}))
        dx = P2.basis_derivation(1)
        assert koszul_rhs(identity, dx, dx, dx).is_zero

    def test_consistency_with_connection_output(self):
        C = levi_civita(POLY_METRIC)
        u = v = P2.basis_derivation(1)
        w = P2.basis_derivation(2)
        assert koszul_rhs(POLY_METRIC, u, v, w) \
            == POLY_METRIC.pair(C.apply(u, v), w)

    def test_non_coordinate_bracket_terms(self):
        # oracle (hand expansion): with u = x d/dx, v = w = d/dx and the
        # identity metric the two nonzero bracket terms cancel the v-term,
        # so the total is zero even though each bracket term is nonzero
        identity = metric_inverse(Tensor.make(P2, 0, 2,
                                                  {(1, 1): 1, (2, 2): 1}))
        u = X * P2.basis_derivation(1)
        v = w = P2.basis_derivation(1)
        assert not identity.pair(P2.bracket(u, v), w).is_zero
        assert koszul_rhs(identity, u, v, w).is_zero


class TestRicciAndScalar:
    def test_zero_riemann(self):
        assert ricci(Tensor.zero(P2, 1, 3)).is_zero

    def test_worked_metric_is_proportional_to_g(self):
        geometry = Geometry(POLY_METRIC.g)
        assert geometry.ricci == POLY_METRIC.g.scale(P2.scalar(-1))
        assert geometry.scalar == P2.ctx.const(-2)

    def test_ricci_symmetry_randomized(self):
        rng = random.Random(13)
        for _ in range(3):
            g = random_invertible_metric(rng, P2)
            ric = Geometry(g).ricci
            for i in (1, 2):
                for j in (1, 2):
                    assert ric.get((i, j)) == ric.get((j, i))

    def test_flat_scalar(self):
        identity = Tensor.make(P2, 0, 2, {(1, 1): 1, (2, 2): 1})
        geometry = Geometry(identity)
        assert geometry.scalar.is_zero


class TestEinsteinAndEfe:
    def test_two_dimensional_vanishing(self):
        assert Geometry(POLY_METRIC.g).einstein.is_zero

    def test_minkowski(self):
        A = poly_ring("t", "x", "y", "z")
        g = Tensor.make(A, 0, 2, {(1, 1): 1, (2, 2): -1, (3, 3): -1,
                                  (4, 4): -1})
        geometry = Geometry(g)
        assert geometry.einstein.is_zero
        assert geometry.efe_residual(A.zero, A.one).is_zero

    def test_cosmological_term_shifts_residual(self):
        A = poly_ring("t", "x", "y", "z")
        g = Tensor.make(A, 0, 2, {(1, 1): 1, (2, 2): -1, (3, 3): -1,
                                  (4, 4): -1})
        residual = Geometry(g).efe_residual(A.one, A.one)
        assert residual == g

    def test_non_constant_coupling_rejected(self):
        geometry = Geometry(POLY_METRIC.g)
        with pytest.raises(NonConstantCoupling):
            geometry.efe_residual(X, P2.one)
        with pytest.raises(NonConstantCoupling):
            geometry.efe_residual(P2.zero, P2.zero)


class TestFriedmann:
    """The dust cosmology over Q(s, x, y, z).

    Oracle values come from the textbook flat-dust evolution a = t^(2/3)
    (scale factor chosen with unit integration constant) chain-ruled through
    the substitution t = s^3, a = s^2:

        G_tt = 3 (a'/a)^2 = 4/(3 t^2)    ->  G_ss = (3 s^2)^2 G_tt = 12/s^2
        spatial pressure terms vanish    ->  G_xx = G_yy = G_zz = 0
        Ric_tt = -3 a''/a = 2/(3 t^2)    ->  Ric_ss = 6/s^2
        Ric_xx = a a'' + 2 a'^2          ->  2/(3 s^2)
        S = -4/(3 t^2)                   ->  -4/(3 s^6)
    """

    @classmethod
    def setup_class(cls):
        cls.A = Algebraifold.build(ScalarContext(FIELD, ("s", "x", "y", "z")))
        s = cls.A.ctx.var("s")
        cls.s = s
        g = Tensor.make(cls.A, 0, 2, {
            (1, 1): 9 * s**4,
            (2, 2): -(s**4), (3, 3): -(s**4), (4, 4): -(s**4)})
        cls.metric = metric_inverse(g)

    def test_christoffel_matches_chain_ruled_symbols(self):
        C = levi_civita(self.metric)
        s = self.s
        two_over_s = self.A.scalar(2) / s
        assert C.coeff(1, 1, 1) == two_over_s
        for spatial in (2, 3, 4):
            assert C.coeff(1, spatial, spatial) \
                == self.A.scalar(Fraction(2, 9)) / s
            assert C.coeff(spatial, 1, spatial) == two_over_s
            assert C.coeff(spatial, spatial, 1) == two_over_s
        nonzero = {idx for idx, _ in C.gamma.sorted_components()}
        expected = {(1, 1, 1)} \
            | {(1, i, i) for i in (2, 3, 4)} \
            | {(i, 1, i) for i in (2, 3, 4)} \
            | {(i, i, 1) for i in (2, 3, 4)}
        assert nonzero == expected

    def test_ricci_structure(self):
        geometry = Geometry(self.metric.g)
        s = self.s
        assert geometry.ricci.get((1, 1)) == self.A.scalar(6) / s**2
        for spatial in (2, 3, 4):
            assert geometry.ricci.get((spatial, spatial)) \
                == self.A.scalar(Fraction(2, 3)) / s**2
        offdiag = [idx for idx, _ in geometry.ricci.sorted_components()
                   if idx[0] != idx[1]]
        assert offdiag == []
        assert geometry.scalar == self.A.scalar(Fraction(-4, 3)) / s**6

    def test_einstein_tensor_is_pure_dust(self):
        G = Geometry(self.metric.g).einstein
        assert G.comp == {(1, 1): self.A.scalar(12) / self.s**2}

    def test_efe_residual_vanishes_for_dust(self):
        T = Tensor.make(self.A, 0, 2,
                        {(1, 1): self.A.scalar(12) / self.s**2})
        residual = Geometry(self.metric.g).efe_residual(
            self.A.zero, self.A.one, T)
        assert residual.is_zero


class TestFriedmannCuspidalPresentation:
    """The same cosmology on the fraction field of Q[a,t,x,y,z]/(a^3 - t^2).

    Here the scale factor is the algebraic generator itself, so the entire
    curvature pipeline runs through implicit differentiation and extension
    inverses.  Oracle values are the textbook t-coordinate expressions with
    a = t^(2/3); consistency with the rational presentation follows from the
    substitution t = s^3, a = s^2 (e.g. (3s^2)^2 * 4/(3t^2) = 12/s^2).
    """

    @classmethod
    def setup_class(cls):
        from afd import field_with_extension

        ctx = field_with_extension(("t", "x", "y", "z"), "a", "a^3 - t^2")
        cls.A = Algebraifold.build(ctx)
        cls.a = ctx.var("a")
        cls.t = ctx.var("t")
        g = Tensor.make(cls.A, 0, 2, {
            (1, 1): cls.A.one,
            (2, 2): -(cls.a**2), (3, 3): -(cls.a**2), (4, 4): -(cls.a**2)})
        cls.metric = metric_inverse(g)

    def test_scale_factor_derivative(self):
        # a' = 2t/(3a^2), which the relation reduces to (2/3) a/t
        assert self.a.partial("t") == (2 * self.a) / (3 * self.t)

    def test_einstein_tensor_is_pure_dust(self):
        G = Geometry(self.metric.g).einstein
        assert G.comp == {(1, 1): self.A.scalar(4) / (3 * self.t**2)}

    def test_efe_residual_vanishes_for_dust(self):
        dust = Tensor.make(self.A, 0, 2,
                           {(1, 1): self.A.scalar(4) / (3 * self.t**2)})
        assert Geometry(self.metric.g).efe_residual(
            self.A.zero, self.A.one, dust).is_zero

    def test_matches_rational_presentation_through_the_isomorphism(self):
        # substituting t -> s^3, a -> s^2 into G_tt and applying the
        # coordinate Jacobian (dt/ds)^2 = 9 s^4 reproduces G_ss = 12/s^2
        S4 = Algebraifold.build(ScalarContext(FIELD, ("s", "x", "y", "z")))
        s = S4.ctx.var("s")
        images = {"t": s**3, "x": S4.ctx.var("x"), "y": S4.ctx.var("y"),
                  "z": S4.ctx.var("z"), "a": s**2}
        G_tt = Geometry(self.metric.g).einstein.get((1, 1))
        moved = substitute(G_tt, images)
        assert 9 * s**4 * moved == S4.scalar(12) / s**2


class TestSweepStages:
    """A 2D identity-sweep trial builds each stage once, from one Geometry."""

    def test_each_stage_built_once(self, repo_root, monkeypatch):
        import importlib.util

        import afd
        from afd import curvature

        spec = importlib.util.spec_from_file_location(
            "identity_sweep", repo_root / "scripts" / "identity_sweep.py")
        sweep = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sweep)
        counts = dict.fromkeys(
            ("metric_inverse", "levi_civita", "curvature_tensor"), 0)
        for name in counts:
            original = getattr(afd, name)

            def counted(*args, name=name, original=original):
                counts[name] += 1
                return original(*args)
            # count the stage wherever the sweep or the pipeline looks it up
            for module in (curvature, sweep):
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        sweep.run_trial(random.Random(0), 2)
        assert counts == dict.fromkeys(counts, 1)


class TestCurvatureIdentities:
    def test_extension_field_einstein_vanishing(self):
        # the 2D identity Ric = (S/2) g must survive arithmetic that runs
        # entirely through the algebraic generator
        from afd import field_with_extension

        ctx = field_with_extension(("x", "z"), "y", "y^2 - x^3 - 1")
        E2 = Algebraifold.build(ctx)
        y, z = ctx.var("y"), ctx.var("z")
        g = Tensor.make(E2, 0, 2, {(1, 1): y, (1, 2): E2.one,
                                   (2, 1): E2.one, (2, 2): z})
        geometry = Geometry(g)
        assert not geometry.scalar.is_zero
        assert geometry.einstein.is_zero

    def test_randomized_metrics(self):
        rng = random.Random(17)
        n_threes = 0
        for trial in range(4):
            A = P2 if trial % 2 == 0 else poly_ring("x", "y", "z")
            n_threes += A.n == 3
            m = metric_inverse(random_invertible_metric(rng, A))
            C = levi_civita(m)
            R = curvature_tensor(C)
            n = A.n
            for l in range(1, n + 1):
                for i in range(1, n + 1):
                    for j in range(1, n + 1):
                        for k in range(1, n + 1):
                            # antisymmetry in the two direction slots
                            assert R.get((l, i, j, k)) == -R.get((l, j, i, k))
                            # first Bianchi identity (torsion-free)
                            cyclic = R.get((l, i, j, k)) \
                                + R.get((l, j, k, i)) + R.get((l, k, i, j))
                            assert cyclic.is_zero
            assert torsion(C).is_zero
        assert n_threes > 0


def reference_curvature_tensor(connection):
    """The per-component Scalar loop that curvature_tensor replaced: every
    sum and product of scalars cancels its own gcd."""
    A = connection.algebraifold
    n = A.n
    names = A.ctx.transcendentals
    gamma = connection.gamma
    out = {}
    for l in range(1, n + 1):
        for k in range(1, n + 1):
            for i in range(1, n + 1):
                for j in range(1, i):
                    # antisymmetric in (i, j); fill both orders from one value
                    value = gamma.get((l, j, k)).partial(names[i - 1]) \
                        - gamma.get((l, i, k)).partial(names[j - 1])
                    for m in range(1, n + 1):
                        g_jk = gamma.get((m, j, k))
                        if not g_jk.is_zero:
                            value = value + gamma.get((l, i, m)) * g_jk
                        g_ik = gamma.get((m, i, k))
                        if not g_ik.is_zero:
                            value = value - gamma.get((l, j, m)) * g_ik
                    if not value.is_zero:
                        out[(l, i, j, k)] = value
                        out[(l, j, i, k)] = -value
    return Tensor(A, 1, 3, out)


class TestCurvatureOverSharedDenominator:
    """curvature_tensor against the per-component Scalar loop it replaced."""

    @staticmethod
    def assert_matches_reference(connection):
        R = curvature_tensor(connection)
        assert R == reference_curvature_tensor(connection)
        assert not any(value.is_zero for value in R.comp.values())
        return R

    def test_random_polynomial_metrics(self):
        rng = random.Random(1201)
        for _ in range(4):
            A = poly_ring("x", "y", "z")
            m = metric_inverse(random_invertible_metric(rng, A))
            self.assert_matches_reference(levi_civita(m))

    @pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")])
    def test_random_rational_metrics(self, names):
        rng = random.Random(1202)
        dens = set()
        for _ in range(2):
            A = function_field(*names)
            C = levi_civita(metric_inverse(
                random_invertible_metric(rng, A, random_field_scalar)))
            dens.update(v.val.den for v in C.gamma.comp.values()
                        if type(v.val) is RatFunc)
            self.assert_matches_reference(C)
        assert dens

    def test_random_connections_without_symmetry(self):
        # any connection, over the elliptic extension: Gamma^k_{ij} and
        # Gamma^k_{ji} differ, and scalars sit at every tower level
        from afd import field_with_extension

        rng = random.Random(1203)
        ctx = field_with_extension(("x", "z"), "y", "y^2 - x^3 - 1")
        A = Algebraifold.build(ctx)
        for _ in range(3):
            gamma = Tensor.make(A, 1, 2, {
                (k, i, j): random_scalar(rng, ctx)
                for k in (1, 2) for i in (1, 2) for j in (1, 2)})
            self.assert_matches_reference(Connection(gamma))

    @pytest.mark.parametrize("path, nonzero", [
        ("perfbench/ks_extension.json", None),
        ("tests/fixtures/schwarzschild_ks.json", 156)])
    def test_kerr_schild_manifests(self, repo_root, path, nonzero):
        from afd.manifest import load_manifest

        manifest = load_manifest(repo_root / path)
        C = levi_civita(metric_inverse(manifest.metric))
        R = self.assert_matches_reference(C)
        assert R.comp
        if nonzero is not None:
            assert len(R.comp) == nonzero
            assert ricci(R).is_zero

    def test_cuspidal_friedmann(self):
        from afd import field_with_extension

        ctx = field_with_extension(("t", "x", "y", "z"), "a", "a^3 - t^2")
        A = Algebraifold.build(ctx)
        a = ctx.var("a")
        g = Tensor.make(A, 0, 2, {
            (1, 1): A.one,
            (2, 2): -(a**2), (3, 3): -(a**2), (4, 4): -(a**2)})
        R = self.assert_matches_reference(levi_civita(metric_inverse(g)))
        assert R.comp

    def test_gamma_with_denominator_one_is_scaled(self):
        # D = x^2 - z: the polynomial Gamma (den 1, a MultiPoly payload) and
        # the extension Gamma with den 1 must still be lifted over D
        from afd import field_with_extension

        ctx = field_with_extension(("x", "z"), "y", "y^2 - x^3 - 1")
        A = Algebraifold.build(ctx)
        x, y, z = ctx.var("x"), ctx.var("y"), ctx.var("z")
        gamma = Tensor.make(A, 1, 2, {
            (1, 1, 1): x * z, (1, 2, 1): z + y, (2, 1, 2): x,
            (2, 2, 2): y / (x**2 - z), (1, 2, 2): 1 / (x**2 - z)})
        assert type(gamma.get((1, 1, 1)).val) is MultiPoly
        assert type(gamma.get((1, 2, 1)).val) is ExtElem
        assert gamma.get((1, 2, 1)).val.den.is_const
        R = self.assert_matches_reference(Connection(gamma))
        assert R.comp
        # the same over the function field without an extension
        F = function_field("x", "z")
        u, w = F.ctx.var("x"), F.ctx.var("z")
        gamma = Tensor.make(F, 1, 2, {
            (1, 1, 1): u * w, (2, 1, 2): u + 1, (1, 2, 2): 1 / (u**2 - w)})
        assert self.assert_matches_reference(Connection(gamma)).comp

    def test_generator_derivative_joins_the_denominator(self):
        # every Gamma over Q(x, z)[y]/(y^2 - x^3 - 1) has denominator 1, but
        # dy/dx = 3x^2 y / (2(x^3 + 1)), so D is x^3 + 1
        from afd import field_with_extension

        ctx = field_with_extension(("x", "z"), "y", "y^2 - x^3 - 1")
        A = Algebraifold.build(ctx)
        x, y, z = ctx.var("x"), ctx.var("y"), ctx.var("z")
        gamma = Tensor.make(A, 1, 2, {
            (1, 1, 1): x * y, (1, 2, 1): y + z, (2, 1, 2): x * z,
            (2, 2, 1): y, (1, 2, 2): x})
        assert all(not isinstance(v.val, _Quotient) or v.val.den.is_const
                   for v in gamma.comp.values())
        frame = SharedDenominator(ctx, gamma.comp.values())
        assert frame.den == (x**3 + 1).val
        assert self.assert_matches_reference(Connection(gamma)).comp

    @pytest.mark.parametrize("path", [
        "perfbench/ks_extension.json", "tests/fixtures/schwarzschild_ks.json"])
    def test_kerr_schild_denominator_is_the_christoffel_lcm(
            self, repo_root, path):
        # the generator's derivative denominators already divide the lcm of
        # the Christoffel denominators, so they add no factor to D
        from afd.manifest import load_manifest

        manifest = load_manifest(repo_root / path)
        ctx = manifest.algebraifold.ctx
        values = levi_civita(metric_inverse(manifest.metric)).gamma.comp.values()
        lcm_, _ = _lcm_cofactors(
            [v.val.den for v in values if isinstance(v.val, _Quotient)],
            MultiPoly.const(ctx.all_vars, 1))
        assert not ctx.extension.derivative("x").den.is_const
        assert SharedDenominator(ctx, values).den == lcm_

    def test_numerator_vanishing_modulo_the_relation_is_dropped(self):
        # over Q(x, z)[y]/(y^2 - x) with Gamma^1_{12} = Gamma^1_{21} = y and
        # Gamma^1_{22} = x^2/2, R^1_{212} = y^2 - x: its numerator is
        # nonzero before the reduction and zero after it
        from afd import field_with_extension

        ctx = field_with_extension(("x", "z"), "y", "y^2 - x")
        A = Algebraifold.build(ctx)
        x, y = ctx.var("x"), ctx.var("y")
        gamma = Tensor.make(A, 1, 2, {
            (1, 1, 2): y, (1, 2, 1): y, (1, 2, 2): x**2 / 2})
        C = Connection(gamma)
        assert reference_curvature_tensor(C).get((1, 2, 1, 2)).is_zero
        R = self.assert_matches_reference(C)
        assert (1, 2, 1, 2) not in R.comp and (1, 1, 2, 2) not in R.comp


def einstein_divergence(geometry):
    """``sum_{a,c} g^{ac} (nabla_c G)_{ab}`` for each b: the divergence of
    the Einstein tensor, which the contracted Bianchi identity makes zero."""
    A, metric = geometry.algebraifold, geometry.metric
    n = A.n
    nabla = [covariant_derivative(geometry.connection, A.basis_derivation(c),
                                  geometry.einstein) for c in range(1, n + 1)]
    out = []
    for b in range(1, n + 1):
        total = A.zero
        for a in range(1, n + 1):
            for c in range(1, n + 1):
                ginv = metric.inv_entry(a, c)
                if not ginv.is_zero:
                    total = total + ginv * nabla[c - 1].get((a, b))
        out.append(total)
    return out


class TestContractedBianchi:
    """The Einstein tensor is divergence-free.  The oracle differentiates
    Gamma through the covariant derivative of G, so it checks the d Gamma
    terms of Riemann that the first Bianchi identity cannot."""

    @staticmethod
    def assert_divergence_free(g):
        geometry = Geometry(g)
        assert all(v.is_zero for v in einstein_divergence(geometry))
        return geometry

    def test_kerr_schild_over_an_extension(self, repo_root):
        from afd.manifest import load_manifest

        manifest = load_manifest(repo_root / "perfbench" / "ks_extension.json")
        A = manifest.algebraifold
        geometry = self.assert_divergence_free(manifest.metric)
        assert not geometry.einstein.is_zero
        # the derivatives of Gamma carry the generator's derivative, whose
        # denominator is not constant and divides the shared D
        frame = SharedDenominator(A.ctx, geometry.connection.gamma.comp.values())
        E = A.ctx.extension.derivative("x").den
        assert not E.is_const
        assert frame.den.exact_div(E) is not None

    def test_bundled_manifests(self, repo_root):
        from afd.manifest import load_manifest

        nonzero = []
        for path in sorted((repo_root / "manifests").glob("*.json")):
            manifest = load_manifest(path)
            if manifest.metric is None:
                continue
            geometry = self.assert_divergence_free(manifest.metric)
            if not geometry.einstein.is_zero:
                nonzero.append(path.name)
        assert "friedmann.json" in nonzero

    @pytest.mark.parametrize("names, trials", [
        (("x", "y"), 2), (("x", "y", "z"), 3)])
    def test_random_rational_metrics(self, names, trials):
        rng = random.Random(1905)
        for _ in range(trials):
            A = function_field(*names)
            geometry = self.assert_divergence_free(
                random_invertible_metric(rng, A, random_field_scalar))
            assert geometry.einstein.is_zero == (len(names) == 2)


def second_bianchi_violations(connection, riemann):
    """The index tuples (e, i, j, l, k) where
    ``(nabla_e R)^l_{ijk} + (nabla_i R)^l_{jek} + (nabla_j R)^l_{eik}``,
    which the second Bianchi identity makes zero, is not."""
    A = connection.algebraifold
    n = A.n
    nabla = [covariant_derivative(connection, A.basis_derivation(e), riemann)
             for e in range(1, n + 1)]
    return [(e, i, j, l, k)
            for e, i, j, l, k in product(range(1, n + 1), repeat=5)
            if not (nabla[e - 1].get((l, i, j, k))
                    + nabla[i - 1].get((l, j, e, k))
                    + nabla[j - 1].get((l, e, i, k))).is_zero]


def first_bianchi_violations(riemann):
    """The index tuples (l, i, j, k) where ``R^l_{ijk} + R^l_{jki} +
    R^l_{kij}`` is not zero."""
    n = riemann.algebraifold.n
    R = riemann.get
    return [(l, i, j, k) for l, i, j, k in product(range(1, n + 1), repeat=4)
            if not (R((l, i, j, k)) + R((l, j, k, i))
                    + R((l, k, i, j))).is_zero]


class TestSecondBianchi:
    """The covariant derivative of Riemann sums to zero cyclically over the
    derivative slot and the two direction slots.  Like the contracted
    identity it differentiates Gamma, so it sees the d Gamma terms of
    Riemann that the first Bianchi identity cannot, component by
    component."""

    @staticmethod
    def connection(metric):
        return levi_civita(metric_inverse(metric))

    def test_kerr_schild_over_an_extension(self, repo_root):
        from afd.manifest import load_manifest

        manifest = load_manifest(repo_root / "perfbench" / "ks_extension.json")
        C = self.connection(manifest.metric)
        R = curvature_tensor(C)
        assert not R.is_zero
        assert second_bianchi_violations(C, R) == []

    @pytest.mark.parametrize("name", [
        "friedmann", "kerr_family", "minkowski", "poly_metric"])
    def test_bundled_manifests(self, repo_root, name):
        from afd.manifest import load_manifest

        manifest = load_manifest(repo_root / "manifests" / f"{name}.json")
        C = self.connection(manifest.metric)
        assert second_bianchi_violations(C, curvature_tensor(C)) == []

    @pytest.mark.parametrize("names, trials", [
        (("x", "y"), 3), (("x", "y", "z"), 2)])
    def test_random_metrics(self, names, trials):
        rng = random.Random(2001)
        curved = 0
        for trial in range(trials):
            A = (function_field if trial % 2 else poly_ring)(*names)
            entry = random_field_scalar if trial % 2 else random_poly_scalar
            C = self.connection(random_invertible_metric(rng, A, entry))
            R = curvature_tensor(C)
            curved += not R.is_zero
            assert second_bianchi_violations(C, R) == [], trial
        assert curved

    def test_doubled_derivative_terms_break_only_the_second(self, repo_root):
        # adding d_i Gamma^l_jk - d_j Gamma^l_ik doubles the derivative terms
        # of friedmann's Riemann: still antisymmetric, still cyclic
        from afd.manifest import load_manifest

        manifest = load_manifest(repo_root / "manifests" / "friedmann.json")
        A = manifest.algebraifold
        C = self.connection(manifest.metric)
        R = curvature_tensor(C)
        names, gamma, n = A.ctx.transcendentals, C.gamma, A.n
        doubled = {}
        for l, i, j, k in product(range(1, n + 1), repeat=4):
            value = (R.get((l, i, j, k))
                     + gamma.get((l, j, k)).partial(names[i - 1])
                     - gamma.get((l, i, k)).partial(names[j - 1]))
            if not value.is_zero:
                doubled[l, i, j, k] = value
        wrong = Tensor(A, 1, 3, doubled)
        assert wrong != R
        assert first_bianchi_violations(R) == []
        assert first_bianchi_violations(wrong) == []
        assert second_bianchi_violations(C, R) == []
        assert len(second_bianchi_violations(C, wrong)) == 36


class TestParallelInverseAndKronecker:
    """The Levi-Civita connection keeps the inverse metric (rank (2, 0))
    and the Kronecker tensor (rank (1, 1)) parallel: the contravariant slots
    of ``derive_tensor``, which ``Connection.apply`` does not reach."""

    @staticmethod
    def assert_parallel(A, metric, fields):
        connection = levi_civita(metric)
        delta = kronecker(A)
        for u in fields:
            assert covariant_derivative(connection, u, metric.g_inv).is_zero
            assert covariant_derivative(connection, u, delta).is_zero
        return connection

    @staticmethod
    def basis(A):
        return [A.basis_derivation(i) for i in range(1, A.n + 1)]

    @pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")])
    def test_random_metrics(self, names):
        rng = random.Random(2107)
        for trial in range(4):
            A = (function_field if trial % 2 else poly_ring)(*names)
            entry = random_field_scalar if trial % 2 else random_poly_scalar
            metric = metric_inverse(random_invertible_metric(rng, A, entry))
            self.assert_parallel(A, metric, self.basis(A) + [
                random_derivation(rng, A, max_deg=2)])

    def test_bundled_manifests(self, repo_root):
        from afd.manifest import load_manifest

        checked = []
        for path in sorted((repo_root / "manifests").glob("*.json")):
            manifest = load_manifest(path)
            if manifest.metric is None:
                continue
            A = manifest.algebraifold
            self.assert_parallel(A, metric_inverse(manifest.metric),
                                 self.basis(A) + [Derivation(A, A.coords)])
            checked.append(path.stem)
        assert "friedmann" in checked and "kerr_family" in checked

    @pytest.mark.parametrize("path", [
        "perfbench/ks_extension.json", "tests/fixtures/schwarzschild_ks.json"])
    def test_kerr_schild_over_an_extension(self, repo_root, path):
        from afd.manifest import load_manifest

        manifest = load_manifest(repo_root / path)
        A = manifest.algebraifold
        self.assert_parallel(A, metric_inverse(manifest.metric),
                             self.basis(A))

    def test_the_oracle_sees_the_contravariant_terms(self):
        # the standard connection differentiates componentwise: the inverse
        # of a curved metric is not parallel for it
        metric = POLY_METRIC
        standard = standard_connection(P2)
        moved = covariant_derivative(standard, P2.basis_derivation(1),
                                     metric.g_inv)
        assert not moved.is_zero
        # with the Christoffel symbols negated, the terms of the upper slots
        # add to d_x g^-1 instead of cancelling it
        connection = levi_civita(metric)
        flipped = Connection(-connection.gamma)
        assert not covariant_derivative(
            flipped, P2.basis_derivation(1), metric.g_inv).is_zero


class TestJacobiFormula:
    """The trace of the Levi-Civita connection against Jacobi's formula,
    sum_i Gamma^i_{ij} = d_j(det g) / (2 det g), with det g from its own
    Laplace expansion; checked as 2 det g * trace = d_j(det g), which also
    holds in a polynomial ring."""

    @staticmethod
    def traces(A, g):
        n = A.n
        rows = [[g.get((i, j)) for j in range(1, n + 1)]
                for i in range(1, n + 1)]
        full = tuple(range(n))
        det = _laplace_minors(rows, A.zero, A.one)(full, full)
        assert not det.is_zero
        gamma = levi_civita(metric_inverse(g)).gamma
        traces = []
        for j, name in enumerate(A.ctx.transcendentals, start=1):
            trace = A.zero
            for i in range(1, n + 1):
                trace = trace + gamma.get((i, i, j))
            assert trace * (2 * det) == det.partial(name)
            traces.append(trace)
        return traces

    @pytest.mark.parametrize("name", [
        "elliptic_field", "euclidean", "friedmann", "kerr_family",
        "minkowski", "poly_metric"])
    def test_bundled_manifests(self, repo_root, name):
        from afd.manifest import load_manifest

        manifest = load_manifest(repo_root / "manifests" / f"{name}.json")
        self.traces(manifest.algebraifold, manifest.metric)

    @pytest.mark.parametrize("path", [
        "perfbench/ks_extension.json", "tests/fixtures/schwarzschild_ks.json"])
    def test_kerr_schild_trace_vanishes(self, repo_root, path):
        from afd.manifest import load_manifest

        manifest = load_manifest(repo_root / path)
        traces = self.traces(manifest.algebraifold, manifest.metric)
        assert all(trace.is_zero for trace in traces)

    @pytest.mark.parametrize("names", [("x", "y"), ("x", "y", "z")])
    def test_random_metrics(self, names):
        rng = random.Random(1601)
        n = len(names)
        ring, field = poly_ring(*names), function_field(*names)
        nonzero = 0
        for _ in range(3):
            self.traces(ring, random_invertible_metric(rng, ring))
            # a generic symmetric matrix: det g is no constant
            entries = {}
            for i in range(1, n + 1):
                for j in range(i, n + 1):
                    entries[(i, j)] = entries[(j, i)] = random_poly_scalar(
                        rng, field.ctx, max_terms=2, max_deg=1)
            g = Tensor.make(field, 0, 2, entries)
            nonzero += sum(not t.is_zero for t in self.traces(field, g))
        assert nonzero


def kretschmann(g):
    """The Kretschmann scalar ``R_aijk R^aijk`` of the metric tensor ``g``,
    from afd's Riemann tensor ``R^a_ijk`` (slots ``(a, i, j, k)``), ``g`` and
    its inverse, by tensor products and contractions."""
    geometry = Geometry(g)
    riemann, g_inv = geometry.riemann, geometry.metric.g_inv
    lowered = g.tensor(riemann).contract(1, 2)  # R_aijk
    raised = riemann
    # raise k, then j, then i: each raised index becomes the first slot, so
    # the slots end as (i, j, k, a); the antisymmetric pair (j, k) is raised
    # first, which keeps the intermediate tensors sparse
    for slot in (3, 2, 1):
        raised = g_inv.tensor(raised).contract(2, slot)
    return dot([(value, raised.get((i, j, k, a)))
                for (a, i, j, k), value in lowered.comp.items()],
               g.algebraifold.zero)


# Kerr's Kretschmann scalar in the chart (t, r, c, phi) with c = cos(theta):
# 48 m^2 (r^2 - a^2 c^2)(S^2 - 16 r^2 a^2 c^2) / S^6 with S = r^2 + a^2 c^2
# (Henry, ApJ 535, 2000)
_SIGMA = "(r^2 + a^2*c^2)"
KERR_KRETSCHMANN = (f"48*m^2*(r^2 - a^2*c^2)*({_SIGMA}^2 - 16*r^2*a^2*c^2)"
                    f" / {_SIGMA}^6")


class TestKretschmann:
    """A curvature invariant against closed forms from the literature, over
    the extension ``Q(m)(t,x,y,z)[r]/(r^2-x^2-y^2-z^2)`` and over Kerr's
    rational chart ``Q(m,a)(t,r,c,phi)``: metric inverse, Levi-Civita,
    Riemann and the contractions all take part, and nothing in the expected
    values was computed by afd."""

    @pytest.fixture(scope="class")
    def schwarzschild(self, repo_root):
        from afd.manifest import load_manifest

        return load_manifest(
            repo_root / "tests" / "fixtures" / "schwarzschild_ks.json")

    def test_schwarzschild(self, schwarzschild):
        # K = 48 m^2 / r^6 (R. C. Henry, ApJ 535, 2000)
        ctx = schwarzschild.algebraifold.ctx
        assert kretschmann(schwarzschild.metric) == parse_scalar(
            "48*m^2 / r^6", ctx)

    def test_perturbed_metric(self, schwarzschild):
        # negative control: g - (m^2/r^2) l l with l = dt + (x dx + y dy +
        # z dz)/r is Reissner-Nordstrom in Kerr-Schild form with charge
        # q^2 = m^2, so K = (48 m^2 r^2 - 96 m q^2 r + 56 q^4) / r^8 (Henry's
        # Kerr-Newman form at a = 0)
        A, g = schwarzschild.algebraifold, schwarzschild.metric
        ctx = A.ctx
        l = [parse_scalar(text, ctx) for text in ("1", "x/r", "y/r", "z/r")]
        h = -parse_scalar("m^2 / r^2", ctx)
        perturbed = g + Tensor.make(A, 0, 2, {
            (a, b): h * l[a - 1] * l[b - 1]
            for a in range(1, 5) for b in range(1, 5)})
        k = kretschmann(perturbed)
        assert k != parse_scalar("48*m^2 / r^6", ctx)
        assert k == parse_scalar(
            "(48*m^2*r^2 - 96*m^3*r + 56*m^4) / r^8", ctx)

    def test_kerr_chart(self, repo_root):
        from afd.manifest import load_manifest

        kerr = load_manifest(
            repo_root / "manifests" / "charts" / "kerr_chart.json")
        assert kretschmann(kerr.metric) == parse_scalar(
            KERR_KRETSCHMANN, kerr.algebraifold.ctx)

    def test_kerr_newman_chart(self):
        # negative control: Kerr-Newman in the same chart, with charge q and
        # D = r^2 - 2 m r + a^2 + q^2; q = 0 gives kerr_chart.json's entries.
        # Its K is Henry's Kerr-Newman form, with C = a^2 c^2
        A = function_field("t", "r", "c", "phi", constants=("m", "a", "q"))
        ctx = A.ctx
        d, s2 = "(r^2 - 2*m*r + a^2 + q^2)", "(1 - c^2)"
        entries = {
            (1, 1): f"-({d} - a^2*{s2}) / {_SIGMA}",
            (1, 4): f"-a*{s2}*(2*m*r - q^2) / {_SIGMA}",
            (2, 2): f"{_SIGMA} / {d}",
            (3, 3): f"{_SIGMA} / {s2}",
            (4, 4): f"{s2}*((r^2 + a^2)^2 - {d}*a^2*{s2}) / {_SIGMA}",
        }
        entries[4, 1] = entries[1, 4]
        g = Tensor.make(A, 0, 2, {
            key: parse_scalar(text, ctx) for key, text in entries.items()})
        k = kretschmann(g)
        assert k != parse_scalar(KERR_KRETSCHMANN, ctx)
        c = "(a^2*c^2)"
        assert k == parse_scalar(
            f"8*(6*m^2*(r^6 - 15*r^4*{c} + 15*r^2*{c}^2 - {c}^3)"
            f" - 12*m*q^2*r*(r^4 - 10*r^2*{c} + 5*{c}^2)"
            f" + q^4*(7*r^4 - 34*r^2*{c} + 7*{c}^2)) / {_SIGMA}^6", ctx)


def maxwell_stress_energy(g, potential):
    """``T_ab = 2(F_ac F_b^c - (1/4) g_ab F_cd F^cd)`` with ``F = dA``, from
    the components of the potential A, afd's partials and the inverse of the
    metric tensor ``g`` alone."""
    A = g.algebraifold
    n, names = A.n, A.ctx.transcendentals
    inv = metric_inverse(g)
    F = {(a, b): potential[b].partial(names[a]) - potential[a].partial(names[b])
         for a in range(n) for b in range(n)}
    mixed = {(a, c): dot([(F[a, e], inv.inv_entry(e + 1, c + 1))
                          for e in range(n)], A.zero)
             for a in range(n) for c in range(n)}  # F_a^c
    square = dot([(F[a, b], inv.inv_entry(a + 1, c + 1) * mixed[c, b])
                  for a in range(n) for b in range(n) for c in range(n)],
                 A.zero)
    return Tensor.make(A, 0, 2, {
        (a + 1, b + 1): 2 * (dot([(F[a, c], mixed[b, c]) for c in range(n)],
                                 A.zero)
                             - g.get((a + 1, b + 1)) * square / 4)
        for a in range(n) for b in range(n)})


class TestKerrNewmanChart:
    """``manifests/charts/kerr_newman_chart.json`` writes out Maxwell's
    stress-energy of ``A = -(q r/S)(dt - a (1 - c^2) dphi)``, with
    ``S = r^2 + a^2 c^2``; here it is rebuilt from A without the curvature
    pipeline."""

    @pytest.fixture(scope="class")
    def manifest(self, repo_root):
        from afd.manifest import load_manifest

        return load_manifest(
            repo_root / "manifests" / "charts" / "kerr_newman_chart.json")

    @staticmethod
    def potential(manifest, charge):
        ctx = manifest.algebraifold.ctx
        zero = manifest.algebraifold.zero
        return [parse_scalar(f"-{charge}*r / {_SIGMA}", ctx), zero, zero,
                parse_scalar(f"{charge}*r*a*(1 - c^2) / {_SIGMA}", ctx)]

    def test_stress_energy_is_maxwells(self, manifest):
        T = maxwell_stress_energy(manifest.metric,
                                  self.potential(manifest, "q"))
        assert len(T.comp) == 6
        assert T == manifest.stress_energy

    def test_doubled_charge_leaves_a_residual(self, manifest):
        # negative control: the potential of charge 2q against the metric of
        # charge q
        T = maxwell_stress_energy(manifest.metric,
                                  self.potential(manifest, "(2*q)"))
        assert T != manifest.stress_energy
        residual = Geometry(manifest.metric).efe_residual(
            manifest.lam, manifest.kappa, T)
        assert not residual.is_zero
