"""Metamorphic checks: listing the coordinates in another order changes no verdict.

The chain and the oracle both read the symplectic structure off the
base tensor f, so a permuted copy of a model must compare equal, find
the same span (with its coordinates permuted), and end the same way.
The determinant may change by a nonzero rational square: the chain can
pick other level-k representatives modulo the lower levels, which
changes the bordered matrix by a triangular change of basis.
"""

import functools
import random
from fractions import Fraction
from math import isqrt

from hypothesis import given, settings
from hypothesis import strategies as st

from symchain import (
    FirstOrderModel,
    LatticeSpec,
    VarTable,
    build_schwinger,
    compare_spans,
    consistency_algorithm,
    load_model,
    run_chain,
    span_fingerprint,
)
from conftest import MODELS_DIR
from randmodels import random_model


@functools.cache
def source(key):
    """A model and its chain report, by name or by ``randmodels`` seed."""
    if key == "example2":
        m = load_model(MODELS_DIR / "example2.model")
    elif key == "lattice_3":
        m = build_schwinger(LatticeSpec(sites=3))
    else:
        m = random_model(random.Random(key))
    return m, run_chain(m)


def permuted(m, order, primary=0, scale=Fraction(1)):
    """``m`` with zeta listed as ``order`` and one primary multiplied by ``scale``."""
    zeta = VarTable([m.zeta.names[i] for i in order])
    primaries = [p.substitute(zeta) for p in m.primaries]
    primaries[primary] = scale * primaries[primary]
    c = [m.c[i].substitute(zeta) for i in order]
    return FirstOrderModel(m.name, zeta, c, m.hamiltonian.substitute(zeta), primaries)


def is_rational_square(x):
    return x > 0 and all(isqrt(k) ** 2 == k for k in (x.numerator, x.denominator))


@st.composite
def permuted_copies(draw):
    key = draw(st.one_of(st.sampled_from(["example2", "lattice_3"]), st.integers(5000, 5199)))
    m, _ = source(key)
    order = draw(st.permutations(range(len(m.zeta))))
    primary = draw(st.integers(0, len(m.primaries) - 1))
    scale = Fraction(draw(st.integers(1, 9)), draw(st.integers(1, 9))) * draw(st.sampled_from([1, -1]))
    return key, order, primary, scale


@settings(max_examples=200, deadline=None)
@given(permuted_copies())
def test_a_permuted_copy_keeps_every_verdict(case):
    key, order, primary, scale = case
    m, base = source(key)
    copy = permuted(m, order)
    report = run_chain(copy)
    assert compare_spans(report, consistency_algorithm(copy).constraints).equal
    # the span, moved back onto the original order, is the original span
    assert span_fingerprint([c.expr.substitute(m.zeta) for c in report.constraints]) == (
        base.span_fingerprint()
    )
    assert (report.termination.kind, report.termination.level) == (
        base.termination.kind, base.termination.level
    )
    if base.termination.determinant is not None:
        assert is_rational_square(report.termination.determinant / base.termination.determinant)
    rescaled = run_chain(permuted(m, order, primary, scale))
    assert rescaled.span_fingerprint() == report.span_fingerprint()
