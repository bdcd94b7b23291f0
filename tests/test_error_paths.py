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
from afd.tensors import Tensor, lie_derivative, metric_inverse

from helpers import elliptic_field, poly_ring

A = poly_ring("x", "y")
B = poly_ring("u", "v")
LINE = FormalLine.polynomial()
HOM = AlgebraifoldHom.build(A, LINE.algebraifold, {"x": "t", "y": "t^2"})
X = MultiPoly.var(("x",), "x")
ZERO = MultiPoly.zero(("x",))
ONE = MultiPoly.const(("x",), 1)
E = elliptic_field()

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
        (DescriptorMismatch, lambda: Connection(A, Tensor.zero(A, 0, 2))),
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
            HOM, standard_connection(B), LINE.derivation, None)),
    "hom-into-another-line":
        (DescriptorMismatch, lambda: geodesic_residual(
            FormalLine.rational(), HOM, standard_connection(A))),
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
