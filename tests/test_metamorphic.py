"""Metamorphic checks: listing the coordinates in another order changes no verdict.

The chain and the oracle both read the symplectic structure off the
base tensor f, so a permuted copy of a model must compare equal, find
the same span (with its coordinates permuted), and end the same way.
The determinant may change by a nonzero rational square: the chain can
pick other level-k representatives modulo the lower levels, which
changes the bordered matrix by a triangular change of basis.  With F =
[[f, A^T], [-A, 0]] and the copy's gradient rows A' = T A over the
original coordinates, F' = diag(I, T) F diag(I, T^T) up to a
permutation of the coordinates, so det F' = det(T)^2 det F exactly.
"""

import functools
import random
from fractions import Fraction
from math import isqrt

import sympy
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
from polyref import linear_coefficients, relabel
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
    primaries = [relabel(p, zeta) for p in m.primaries]
    primaries[primary] = scale * primaries[primary]
    c = [relabel(m.c[i], zeta) for i in order]
    return FirstOrderModel(m.name, zeta, c, relabel(m.hamiltonian, zeta), primaries)


def is_rational_square(x):
    return x > 0 and all(isqrt(k) ** 2 == k for k in (x.numerator, x.denominator))


def gradient_rows(constraints, zeta):
    """The raw constraints' gradients over ``zeta``, one sympy row each."""
    rows = [linear_coefficients(relabel(c.raw, zeta))[0] for c in constraints]
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in rows])


def transition_determinant(base, report, zeta):
    """det T for the ``report``'s gradient rows A' = T A, A those of ``base``, both over ``zeta``."""
    a, a_copy = gradient_rows(base.constraints, zeta), gradient_rows(report.constraints, zeta)
    solution, free = a.T.gauss_jordan_solve(a_copy.T)
    assert free.shape[0] == 0
    t = solution.T
    assert t * a == a_copy
    det = t.det()
    return Fraction(int(det.p), int(det.q))


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
    assert span_fingerprint([relabel(c.expr, m.zeta) for c in report.constraints]) == (
        base.span_fingerprint()
    )
    assert (report.termination.kind, report.termination.level) == (
        base.termination.kind, base.termination.level
    )
    if base.termination.determinant is not None:
        assert is_rational_square(report.termination.determinant / base.termination.determinant)
        t = transition_determinant(base, report, m.zeta)
        assert report.termination.determinant == t**2 * base.termination.determinant
    rescaled = run_chain(permuted(m, order, primary, scale))
    assert rescaled.span_fingerprint() == report.span_fingerprint()
    if base.termination.determinant is not None:
        t = transition_determinant(base, rescaled, m.zeta)
        assert rescaled.termination.determinant == t**2 * base.termination.determinant
