"""Each refusal of bad input raises its own AfdError class with its code."""

import pytest

from afd.algebraifold import Derivation
from afd.curvature import Connection, Geometry, standard_connection
from afd.errors import (
    ArityMismatch,
    ContextMismatch,
    DescriptorMismatch,
    DivisionByZero,
    SlotOutOfRange,
    UnknownVariable,
    UnsupportedTower,
)
from afd.maps import (
    AlgebraifoldHom,
    FormalLine,
    geodesic_residual,
    pushforward_connection,
)
from afd.scalars import (
    POLYNOMIAL,
    ExtElem,
    MultiPoly,
    RatFunc,
    ScalarContext,
    poly_gcd,
)
from afd.tensors import (
    Metric,
    Tensor,
    lie_derivative,
    metric_inverse,
    musical_flat,
    musical_sharp,
)

from helpers import elliptic_field, poly_ring

A = poly_ring("x", "y")
B = poly_ring("u", "v")
LINE = FormalLine.polynomial()
HOM = AlgebraifoldHom.build(A, LINE.algebraifold, {"x": "t", "y": "t^2"})
X = MultiPoly.var(("x",), "x")
ZERO = MultiPoly.zero(("x",))
ONE = MultiPoly.const(("x",), 1)
E = elliptic_field()
METRIC = metric_inverse(Tensor.make(A, 0, 2, {(1, 1): 1, (2, 2): 1}))
# a connection with a nonzero Gamma, so that its matrix reads u
CURVED = Connection(Tensor.make(A, 1, 2, {(1, 1, 1): "x"}))

CODES = {ArityMismatch: "arity-mismatch", ContextMismatch: "context-mismatch",
         DescriptorMismatch: "descriptor-mismatch",
         DivisionByZero: "division-by-zero",
         SlotOutOfRange: "slot-out-of-range",
         UnknownVariable: "unknown-variable",
         UnsupportedTower: "unsupported-tower"}

CASES = {
    "scalar-of-another-context":
        (ContextMismatch, lambda: A.scalar(B.ctx.var("u"))),
    "coefficient-count":
        (DescriptorMismatch, lambda: Derivation(A, (A.one,))),
    "lie-along-a-non-derivation":
        (DescriptorMismatch,
         lambda: lie_derivative(A.ctx.var("x"), Tensor.zero(A, 0, 2))),
    "lie-of-a-non-tensor":
        (DescriptorMismatch,
         lambda: lie_derivative(A.basis_derivation(1), A.ctx.var("x"))),
    "connection-rank":
        (DescriptorMismatch, lambda: Connection(Tensor.zero(A, 0, 2))),
    "connection-of-a-non-tensor": (DescriptorMismatch, lambda: Connection(None)),
    "matrix-of-another-algebraifold":
        (DescriptorMismatch, lambda: CURVED.matrix(B.basis_derivation(1))),
    "matrix-of-a-one-form":
        (DescriptorMismatch, lambda: CURVED.matrix(A.d(A.ctx.var("x")))),
    "metric-inverse-over-another-algebraifold":
        (DescriptorMismatch, lambda: Metric(METRIC.g, Tensor.zero(B, 2, 0))),
    "flat-of-another-algebraifold":
        (DescriptorMismatch, lambda: musical_flat(METRIC, B.basis_derivation(1))),
    "sharp-of-another-algebraifold":
        (DescriptorMismatch, lambda: musical_sharp(METRIC, B.d(B.ctx.var("u")))),
    "stress-energy-rank":
        (DescriptorMismatch, lambda: Geometry(Tensor.make(
            A, 0, 2, {(1, 1): 1, (2, 2): 1})).efe_residual(
                0, 1, Tensor.zero(A, 1, 1))),
    "target-lacks-base-constant":
        (ContextMismatch, lambda: AlgebraifoldHom.build(
            poly_ring("x", constants=("m",)), LINE.algebraifold,
            {"x": "t"})),
    "not-composable": (DescriptorMismatch, lambda: HOM.compose(HOM)),
    "connection-over-another-source":
        (DescriptorMismatch, lambda: pushforward_connection(
            HOM, standard_connection(B), LINE.derivation,
            HOM.differential(LINE.derivation))),
    "curve-target-not-a-line":
        (DescriptorMismatch, lambda: geodesic_residual(
            AlgebraifoldHom.build(A, A, {"x": "x", "y": "y"}),
            standard_connection(A))),
    "index-out-of-range":
        (SlotOutOfRange, lambda: Tensor.make(A, 0, 2, {(1, 3): 1})),
    "as-scalar-of-rank-2":
        (ArityMismatch, lambda: Tensor.zero(A, 0, 2).as_scalar()),
    "add-ranks":
        (ArityMismatch, lambda: Tensor.zero(A, 0, 2) + Tensor.zero(A, 1, 1)),
    "contract-covariant-slot":
        (SlotOutOfRange, lambda: Tensor.zero(A, 1, 1).contract(1, 2)),
    "metric-of-rank-1-1":
        (ArityMismatch, lambda: metric_inverse(Tensor.zero(A, 1, 1))),
    "exact-div-by-zero": (DivisionByZero, lambda: X.exact_div(ZERO)),
    "reordered-unknown-variable":
        (UnknownVariable,
         lambda: MultiPoly.var(("x", "y"), "y").reordered(("x",))),
    "gcd-over-different-variables":
        (ContextMismatch,
         lambda: poly_gcd(X, MultiPoly.var(("y",), "y"))),
    "zero-denominator": (DivisionByZero, lambda: RatFunc.make(X, ZERO)),
    "inverse-of-zero-ratfunc":
        (DivisionByZero, lambda: RatFunc.make(ZERO, ONE).inverse()),
    "inverse-of-zero-extelem":
        (DivisionByZero,
         lambda: ExtElem((ZERO, ZERO), ONE, E.ctx.extension).inverse()),
    "extension-over-polynomial-kind":
        (UnsupportedTower, lambda: ScalarContext(
            POLYNOMIAL, ("x",), (), (("y", X),))),
}


@pytest.mark.parametrize("error, call", CASES.values(), ids=CASES.keys())
def test_refusal_raises_its_class_and_code(error, call):
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error
    assert raised.value.code == CODES[error]
