"""Homomorphisms, pullbacks, differentials, lines, geodesics."""

import random
from fractions import Fraction

import pytest

from afd.algebraifold import Derivation
from afd.curvature import Connection, levi_civita, standard_connection
from afd.errors import (
    DescriptorMismatch,
    MissingImage,
    NoAntiderivative,
    RelationNotPreserved,
)
from afd.maps import (
    AlgebraifoldHom,
    FormalLine,
    PulledVector,
    geodesic_residual,
    pushforward_connection,
)
from afd.tensors import Tensor, metric_inverse

from helpers import elliptic_field, function_field, poly_ring, random_poly_scalar
from scalar_views import substitute

P2 = poly_ring("x", "y")
ELL = elliptic_field()
LINE = FormalLine.polynomial()
LA = LINE.algebraifold
T = LA.ctx.var("t")

CUSP = AlgebraifoldHom.build(P2, LA, {"x": "t^2", "y": "t^3"})


class TestBuildHom:
    def test_polynomial_images_always_valid(self):
        assert CUSP.apply(P2.ctx.var("x")) == T**2
        assert CUSP.apply(P2.ctx.var("y")) == T**3

    def test_relation_not_preserved(self):
        target = FormalLine.rational().algebraifold
        with pytest.raises(RelationNotPreserved):
            AlgebraifoldHom.build(ELL, target, {"x": "t", "y": "t"})

    def test_missing_image(self):
        with pytest.raises(MissingImage):
            AlgebraifoldHom.build(P2, LA, {"x": "t"})

    def test_galois_flip_preserves_relation(self):
        # oracle: substituting x -> x, y -> -y into y^2 - x^3 - 1 and
        # reducing gives x^3 + 1 - x^3 - 1 = 0
        flip = AlgebraifoldHom.build(ELL, ELL, {"x": "x", "y": "-y"})
        y = ELL.ctx.var("y")
        x = ELL.ctx.var("x")
        assert flip.apply(y * y) == x**3 + 1
        assert ((-y) * (-y)) - x**3 - 1 == ELL.zero

    def test_composition(self):
        stretch = AlgebraifoldHom.build(LA, LA, {"t": "2*t"})
        composite = stretch.compose(CUSP)
        assert composite.apply(P2.ctx.var("x")) == 4 * T**2
        assert composite.apply(P2.ctx.var("y")) == 8 * T**3

    def test_cuspidal_resolution_preserves_relation(self):
        # t -> s^3, a -> s^2 resolves a^3 = t^2 into the rational field
        from afd import field_with_extension
        from afd.algebraifold import Algebraifold
        from afd.scalars import FIELD, ScalarContext

        cusp = Algebraifold.build(
            field_with_extension(("t", "x", "y", "z"), "a", "a^3 - t^2"))
        rational = Algebraifold.build(
            ScalarContext(FIELD, ("s", "x", "y", "z")))
        resolve = AlgebraifoldHom.build(cusp, rational, {
            "t": "s^3", "x": "x", "y": "y", "z": "z", "a": "s^2"})
        a = cusp.ctx.var("a")
        s = rational.ctx.var("s")
        # chain rule through the algebraic generator survives the map
        assert resolve.apply(a.partial("t")) == 2 / (3 * s)

    def test_each_image_power_is_computed_once(self, monkeypatch):
        # the homomorphism keeps image ** k per (generator, k): mapping many
        # values, as a geodesic maps every Christoffel symbol, raises each
        # image to each power once
        from afd.scalars import Scalar

        hom = AlgebraifoldHom.build(P2, LA, {"x": "t^2 + 1", "y": "t - 2"})
        x, y = P2.ctx.var("x"), P2.ctx.var("y")
        values = [x**2 * y + x * y**3, y**3 - x**2, x * y + x**2 * y**3]
        powers = []
        pow_ = Scalar.__pow__
        monkeypatch.setattr(Scalar, "__pow__", lambda self, n: (
            powers.append((self, n)), pow_(self, n))[1])
        images = [hom.apply(v) for v in values * 3]
        assert len(powers) == len(set(powers)) == 4  # x, x^2, y, y^3
        tx, ty = T**2 + 1, T - 2
        assert images[:3] == [tx**2 * ty + tx * ty**3, ty**3 - tx**2,
                              tx * ty + tx**2 * ty**3]
        assert images[3:] == images[:3] * 2


class TestPullback:
    def test_dx(self):
        pulled = CUSP.pullback(P2.coordinate_form(1))
        assert pulled == LA.one_form(2 * T)

    def test_dy(self):
        pulled = CUSP.pullback(P2.coordinate_form(2))
        assert pulled == LA.one_form(3 * T**2)

    def test_module_scaled_form(self):
        # oracle: expanding the explicit sum for n = 2 termwise gives
        # phi(y) d(phi(x)) = t^3 * 2t dt = 2 t^4 dt
        xi = P2.ctx.var("y") * P2.coordinate_form(1)
        assert CUSP.pullback(xi) == LA.one_form(2 * T**4)

    def test_matches_differential_of_image(self):
        for name in ("x", "y"):
            xi = P2.d(P2.ctx.var(name))
            assert CUSP.pullback(xi) == LA.d(CUSP.apply(P2.ctx.var(name)))


class TestDifferential:
    def test_velocity_of_cusp_curve(self):
        v = CUSP.differential(LINE.derivation)
        assert v.coeffs == (2 * T, 3 * T**2)

    def test_zero_derivation(self):
        v = CUSP.differential(Derivation(LA, (LA.zero,)))
        assert v.is_zero

    def test_identity_hom(self):
        ident = AlgebraifoldHom.build(P2, P2, {"x": "x", "y": "y"})
        v = ident.differential(P2.basis_derivation(1))
        assert v.coeffs == (P2.one, P2.zero)

    def test_adjointness(self):
        # pairing the pulled-back form with w equals pairing the form with
        # the differential of w
        rng = random.Random(3)
        for _ in range(6):
            xi = P2.one_form(random_poly_scalar(rng, P2.ctx),
                             random_poly_scalar(rng, P2.ctx))
            w = random_poly_scalar(rng, LA.ctx) * LINE.derivation
            lhs = CUSP.pullback(xi)(w)
            rhs = CUSP.differential(w).pair_source_form(xi)
            assert lhs == rhs

    def test_characterizing_identity(self):
        # contracting the differential against da recovers w(phi(a))
        rng = random.Random(5)
        for _ in range(6):
            a = random_poly_scalar(rng, P2.ctx)
            w = random_poly_scalar(rng, LA.ctx) * LINE.derivation
            pulled = CUSP.differential(w)
            da = P2.d(a)
            assert pulled.pair_source_form(da) == w(CUSP.apply(a))

    def test_functoriality(self):
        # the differential of a composite equals the chain-rule composite
        psi = AlgebraifoldHom.build(LA, LA, {"t": "t^2 + 1"})
        composite = psi.compose(CUSP)
        w = LINE.derivation
        direct = composite.differential(w)
        # chain rule: D_{psi o phi}(w)_i = sum_j D_psi(w)_j psi(u_j(phi(a_i)))
        d_psi = psi.differential(w)
        chained = []
        for i, name in enumerate(P2.ctx.transcendentals):
            total = LA.zero
            image = CUSP.images[name]
            for j in range(LA.n):
                inner = LA.basis_derivation(j + 1)(image)
                total = total + d_psi.coeffs[j] * psi.apply(inner)
            chained.append(total)
        assert direct.coeffs == tuple(chained)


class TestPulledVectorKinds:
    def test_sum_along_one_map(self):
        v = CUSP.differential(LINE.derivation)
        assert (v + v).coeffs == (4 * T, 6 * T**2)
        assert type(T * v - v) is PulledVector

    @pytest.mark.parametrize("images", [
        {"x": "t", "y": "t"},
        {"x": "t", "y": "t^2", "z": "t^3"},
    ], ids=["same-length", "longer"])
    def test_vectors_along_different_maps_do_not_mix(self, images):
        # a 2-vector plus a 3-vector used to drop the third coefficient
        source = poly_ring(*images)
        other = AlgebraifoldHom.build(source, LA, images)
        v = CUSP.differential(LINE.derivation)
        w = other.differential(LINE.derivation)
        with pytest.raises(DescriptorMismatch):
            v + w
        with pytest.raises(DescriptorMismatch):
            w + v
        with pytest.raises(DescriptorMismatch):
            pushforward_connection(CUSP, standard_connection(P2),
                                   LINE.derivation, w)

    def test_derivation_is_not_a_pulled_vector(self):
        with pytest.raises(DescriptorMismatch):
            CUSP.differential(LINE.derivation) + P2.basis_derivation(1)

    def test_pairing_takes_only_source_one_forms(self):
        v = CUSP.differential(LINE.derivation)
        assert v.pair_source_form(P2.coordinate_form(1)) == 2 * T
        with pytest.raises(DescriptorMismatch):
            v.pair_source_form(P2.basis_derivation(1))
        with pytest.raises(DescriptorMismatch):
            v.pair_source_form(LA.coordinate_form(1))


class TestPushforwardConnection:
    def test_constant_section_standard_connection(self):
        section = PulledVector(CUSP, (LA.one, LA.zero))
        out = pushforward_connection(CUSP, standard_connection(P2),
                                     LINE.derivation, section)
        assert out.is_zero

    def test_leibniz_term(self):
        section = PulledVector(CUSP, (T, LA.zero))
        out = pushforward_connection(CUSP, standard_connection(P2),
                                     LINE.derivation, section)
        assert out.coeffs == (LA.one, LA.zero)

    def test_gamma_correction_along_axis_curve(self):
        # oracle: out_k = d(s_k)/dt + phi(Gamma^k_11) for s = (1, 0) along
        # x -> t, y -> 0; the worked-metric symbols give (-t, 1)
        m = metric_inverse(Tensor.make(P2, 0, 2, {
            (1, 1): "1", (1, 2): "x", (2, 1): "x", (2, 2): "1 + x^2"}))
        C = levi_civita(m)
        axis = AlgebraifoldHom.build(P2, LA, {"x": "t", "y": "0"})
        section = axis.differential(LINE.derivation)
        assert section.coeffs == (LA.one, LA.zero)
        out = pushforward_connection(axis, C, LINE.derivation, section)
        assert out.coeffs == (-T, LA.one)

    def test_connection_laws_in_target(self):
        rng = random.Random(7)
        gamma = Tensor.make(P2, 1, 2, {
            (k, i, j): random_poly_scalar(rng, P2.ctx)
            for k in (1, 2) for i in (1, 2) for j in (1, 2)})
        C = Connection(gamma)
        w = LINE.derivation
        s1 = PulledVector(CUSP, (random_poly_scalar(rng, LA.ctx),
                                 random_poly_scalar(rng, LA.ctx)))
        s2 = PulledVector(CUSP, (random_poly_scalar(rng, LA.ctx),
                                 random_poly_scalar(rng, LA.ctx)))
        b = random_poly_scalar(rng, LA.ctx)
        c = random_poly_scalar(rng, LA.ctx)
        # additivity in the section
        assert pushforward_connection(CUSP, C, w, s1 + s2).coeffs == \
            (pushforward_connection(CUSP, C, w, s1)
             + pushforward_connection(CUSP, C, w, s2)).coeffs
        # target-linearity in the direction
        scaled_w = c * w
        assert pushforward_connection(CUSP, C, scaled_w, s1).coeffs == \
            (c * pushforward_connection(CUSP, C, w, s1)).coeffs
        # Leibniz rule in the section
        lhs = pushforward_connection(CUSP, C, w, b * s1)
        rhs = b * pushforward_connection(CUSP, C, w, s1)
        leibniz = tuple(r + w(b) * s for r, s in zip(rhs.coeffs, s1.coeffs))
        assert lhs.coeffs == leibniz


class TestAntiderivative:
    def test_unit(self):
        assert LINE.antiderivative(LA.one) == T

    def test_monomial(self):
        assert LINE.antiderivative(3 * T**2) == T**3

    def test_rational_variant_refuses(self):
        diag = FormalLine.rational()
        one_over_t = diag.algebraifold.scalar("1/t")
        with pytest.raises(NoAntiderivative):
            diag.antiderivative(one_over_t)
        assert not diag.is_formal_line

    def test_inverts_differentiation(self):
        rng = random.Random(11)
        for _ in range(10):
            a = random_poly_scalar(rng, LA.ctx, max_terms=3, max_deg=4)
            assert LINE.derivation(LINE.antiderivative(a)) == a

    def test_normalization_kills_constant_term(self):
        value = LINE.antiderivative(2 * T + 1)
        assert value == T**2 + T
        assert substitute(value, {"t": LA.zero}).is_zero


class TestGeodesics:
    def setup_method(self):
        identity = metric_inverse(Tensor.make(P2, 0, 2,
                                                  {(1, 1): 1, (2, 2): 1}))
        self.flat = levi_civita(identity)
        self.worked = levi_civita(metric_inverse(Tensor.make(
            P2, 0, 2,
            {(1, 1): "1", (1, 2): "x", (2, 1): "x", (2, 2): "1 + x^2"})))

    def test_straight_line(self):
        phi = AlgebraifoldHom.build(P2, LA, {"x": "2 + 3*t", "y": "5*t"})
        assert geodesic_residual(phi, self.flat).is_zero

    def test_parabola(self):
        phi = AlgebraifoldHom.build(P2, LA, {"x": "t^2", "y": "0"})
        residual = geodesic_residual(phi, self.flat)
        assert residual.coeffs == (LA.scalar(2), LA.zero)

    def test_matches_classical_expansion(self):
        # oracle: residual_k = x_k'' + Gamma^k_{ij}(x(t)) x_i' x_j'
        phi = AlgebraifoldHom.build(P2, LA, {"x": "t", "y": "t^2"})
        residual = geodesic_residual(phi, self.worked)
        d = LINE.derivation
        velocity = [d(phi.apply(P2.ctx.var(n))) for n in ("x", "y")]
        expected = []
        for k in (1, 2):
            total = d(velocity[k - 1])
            for i in (1, 2):
                for j in (1, 2):
                    gamma = self.worked.coeff(k, i, j)
                    if gamma.is_zero:
                        continue
                    total = total + phi.apply(gamma) \
                        * velocity[i - 1] * velocity[j - 1]
            expected.append(total)
        assert residual.coeffs == tuple(expected)

    def test_affine_reparametrization_keeps_zero_residual(self):
        phi = AlgebraifoldHom.build(P2, LA, {"x": "2 + 3*t", "y": "5*t"})
        rng = random.Random(13)
        for _ in range(5):
            alpha = Fraction(rng.choice([1, 2, 3, -1, -2]), rng.randint(1, 3))
            beta = Fraction(rng.randint(-4, 4), rng.randint(1, 2))
            reparam = AlgebraifoldHom.build(
                LA, LA, {"t": LA.scalar(alpha) * T + LA.scalar(beta)})
            composite = reparam.compose(phi)
            assert geodesic_residual(composite, self.flat).is_zero

    def test_field_source_uses_rational_line(self):
        # a curve out of a function field lands in the rational line variant
        diag = FormalLine.rational()
        target = diag.algebraifold
        hom = AlgebraifoldHom.build(function_field("x"), target, {"x": "t^2"})
        v = hom.differential(diag.derivation)
        assert v.coeffs == (2 * target.ctx.var("t"),)


class TestConnectionMatrixAlongHom:
    """``Connection.matrix(u)`` of a vector pulled back along a map maps
    each distinct Christoffel value
    once: the symmetric Gamma^k_{ij} = Gamma^k_{ji} of Levi-Civita share
    one image."""

    def test_ks_extension_geodesic_maps_each_value_once(
            self, repo_root, monkeypatch):
        from afd.manifest import load_manifest

        manifest = load_manifest(repo_root / "perfbench" / "ks_extension.json")
        A, line = manifest.algebraifold, manifest.line
        C = levi_civita(metric_inverse(manifest.metric))
        hom = manifest.curve_hom("ingoing")
        velocity = hom.differential(line.derivation)
        assert not any(c.is_zero for c in velocity.coeffs)
        # the matrix of every component mapped on its own
        expected = [[hom.target.zero] * A.n for _ in range(A.n)]
        for (k, i, j), gamma in C.gamma.comp.items():
            expected[k - 1][j - 1] = (expected[k - 1][j - 1]
                                      + velocity.coeffs[i - 1] * hom.apply(gamma))

        mapped = []
        apply = AlgebraifoldHom.apply
        monkeypatch.setattr(AlgebraifoldHom, "apply",
                            lambda self, a: mapped.append(a) or apply(self, a))
        assert C.matrix(velocity) == expected
        distinct = set(C.gamma.comp.values())
        assert len(mapped) == len(distinct) == 17 < len(C.gamma.comp) == 27
        assert set(mapped) == distinct
        mapped.clear()
        assert geodesic_residual(hom, C).is_zero
        assert len(mapped) == 17
