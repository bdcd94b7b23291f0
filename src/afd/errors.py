"""Exception hierarchy with stable machine-readable codes.

Every error that can surface in a report carries a ``code`` (stable across
releases, safe to match on) and an ``exit_code`` describing how the CLI
classifies it: 1 for usage/input problems, 2 for mathematical failures.
"""


class AfdError(Exception):
    """Base class for all engine errors."""

    code = "error"
    exit_code = 2


# --- scalar tower -----------------------------------------------------------

class ContextMismatch(AfdError):
    code = "context-mismatch"


class DivisionByZero(AfdError):
    code = "division-by-zero"


class NotDivisible(AfdError):
    """Exact division failed in a polynomial context."""

    code = "not-divisible"


class ExponentOverflow(AfdError):
    """An exponent or total degree reaches the packed-monomial limit 2**15,
    or a power of a rational could pass 2**20 bits."""

    code = "exponent-overflow"
    exit_code = 1


class UnknownVariable(AfdError):
    code = "unknown-variable"


class IncompleteBindings(AfdError):
    code = "incomplete-bindings"


class TargetDivisionByZero(AfdError):
    """A denominator mapped to zero under substitution."""

    code = "target-division-by-zero"


class UnsupportedTower(AfdError):
    """More than one algebraic extension generator was declared."""

    code = "unsupported-tower"
    exit_code = 1


class ReducibleRelation(AfdError):
    """A degree <= 3 minimal relation failed the irreducibility test."""

    code = "reducible-relation"


class NotSeparable(AfdError):
    """The minimal relation is not squarefree in its generator."""

    code = "not-separable"


# --- expression grammar -----------------------------------------------------

class ExprSyntaxError(AfdError):
    code = "syntax-error"
    exit_code = 1

    def __init__(self, message, position, expected=()):
        super().__init__(f"{message} at position {position}")
        self.position = position
        self.expected = tuple(expected)


class NumberTooLong(AfdError):
    """A number has too many digits to print."""

    code = "number-too-long"
    exit_code = 1


class UnknownIdentifier(AfdError):
    code = "unknown-identifier"
    exit_code = 1

    def __init__(self, name):
        super().__init__(f"unknown identifier '{name}'")
        self.name = name


# --- tensors and metrics ----------------------------------------------------

class DescriptorMismatch(AfdError):
    code = "descriptor-mismatch"


class SlotOutOfRange(AfdError):
    code = "slot-out-of-range"


class ArityMismatch(AfdError):
    code = "arity-mismatch"


class NotSymmetric(AfdError):
    code = "not-symmetric"


class Degenerate(AfdError):
    """Metric determinant is zero."""

    code = "degenerate-metric"


class NotInvertibleInAlgebra(AfdError):
    """The inverse exists only in the fraction field of a polynomial context."""

    code = "not-invertible-in-algebra"


class NonConstantCoupling(AfdError):
    """A coupling constant fails the constants check."""

    code = "non-constant-coupling"


# --- homomorphisms and lines ------------------------------------------------

class RelationNotPreserved(AfdError):
    code = "relation-not-preserved"

    def __init__(self, generator, residual_text):
        super().__init__(
            f"relation for '{generator}' maps to nonzero residual {residual_text}"
        )
        self.generator = generator
        self.residual_text = residual_text


class MissingImage(AfdError):
    code = "missing-image"


class NoAntiderivative(AfdError):
    code = "no-antiderivative"


class PullbackVerificationFailed(AfdError):
    code = "pullback-verification-failed"


# --- manifests and CLI ------------------------------------------------------

class ManifestParseError(AfdError):
    code = "manifest-parse-error"
    exit_code = 1


class ManifestValidationError(AfdError):
    code = "manifest-validation-error"
    exit_code = 1
