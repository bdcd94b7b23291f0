"""Hypothesis configuration and strategies shared across the suite."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, settings, strategies as st

from afd import scalars

settings.register_profile(
    "exact",
    deadline=None,
    max_examples=25,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("exact")


@pytest.fixture(autouse=True)
def _empty_gcd_memo():
    """Start every test with an empty ``poly_gcd`` memo.  Otherwise a test
    reads the gcds of the tests before it as cache hits, and a test of the
    fallback, or of a path that must not reach it, checks nothing."""
    scalars.poly_gcd.cache_clear()


def nonzero_fractions():
    return st.builds(Fraction,
                     st.integers(-4, 4).filter(bool), st.integers(1, 3))


def poly_scalars(ctx, max_deg=2, max_terms=3):
    """Strategy producing polynomial Scalars of a fixed context."""
    n = len(ctx.all_vars)
    term = st.tuples(
        st.lists(st.integers(0, max_deg), min_size=n, max_size=n),
        nonzero_fractions())

    def build(terms):
        total = ctx.zero
        for exps, coeff in terms:
            piece = ctx.const(coeff)
            for name, e in zip(ctx.all_vars, exps):
                if e:
                    piece = piece * ctx.var(name) ** e
            total = total + piece
        return total

    return st.lists(term, min_size=0, max_size=max_terms).map(build)


def nonzero_poly_scalars(ctx, max_deg=2, max_terms=3):
    return poly_scalars(ctx, max_deg, max_terms).filter(lambda s: not s.is_zero)


def field_scalars(ctx, max_deg=1, max_terms=2):
    return st.builds(
        lambda num, den: num / den,
        poly_scalars(ctx, max_deg, max_terms),
        nonzero_poly_scalars(ctx, max_deg, max_terms))


def nonzero_field_scalars(ctx, max_deg=1, max_terms=2):
    return field_scalars(ctx, max_deg, max_terms).filter(
        lambda s: not s.is_zero)


def ext_scalars(ctx, max_deg=1):
    gen = ctx.extension.gen
    return st.builds(
        lambda c0, c1: c0 + c1 * ctx.var(gen),
        field_scalars(ctx, max_deg=max_deg),
        field_scalars(ctx, max_deg=max_deg))


@pytest.fixture(scope="session")
def repo_root():
    from pathlib import Path

    return Path(__file__).resolve().parent.parent
