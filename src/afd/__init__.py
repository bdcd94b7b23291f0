"""Exact symbolic differential geometry over polynomial rings and function fields."""

__version__ = "0.1.0"

from .scalars import (
    FIELD,
    POLYNOMIAL,
    ExtElem,
    MultiPoly,
    RatFunc,
    Scalar,
    ScalarContext,
    poly_gcd,
)
from .expr import field_with_extension, parse_scalar, render_scalar
from .algebraifold import Algebraifold, Derivation, OneForm
from .tensors import (
    Metric,
    Tensor,
    kronecker,
    lie_derivative,
    metric_inverse,
    musical_flat,
    musical_sharp,
)
from .curvature import (
    Connection,
    Geometry,
    covariant_derivative,
    curvature_tensor,
    koszul_rhs,
    levi_civita,
    ricci,
    ricci_scalar,
    standard_connection,
    torsion,
)
from .maps import (
    AlgebraifoldHom,
    FormalLine,
    PulledVector,
    geodesic_residual,
    pushforward_connection,
)

__all__ = [
    "FIELD",
    "POLYNOMIAL",
    "ExtElem",
    "MultiPoly",
    "RatFunc",
    "Scalar",
    "ScalarContext",
    "poly_gcd",
    "field_with_extension",
    "parse_scalar",
    "render_scalar",
    "Algebraifold",
    "Derivation",
    "OneForm",
    "Metric",
    "Tensor",
    "kronecker",
    "lie_derivative",
    "metric_inverse",
    "musical_flat",
    "musical_sharp",
    "Connection",
    "Geometry",
    "covariant_derivative",
    "curvature_tensor",
    "koszul_rhs",
    "levi_civita",
    "ricci",
    "ricci_scalar",
    "standard_connection",
    "torsion",
    "AlgebraifoldHom",
    "FormalLine",
    "PulledVector",
    "geodesic_residual",
    "pushforward_connection",
    "__version__",
]
