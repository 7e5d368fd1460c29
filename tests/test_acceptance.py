"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines; every tolerance here is exact (rational arithmetic, no floats).
"""

import functools
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from symchain import (
    ChainOptions,
    Constraint,
    Expression,
    LatticeSpec,
    RationalMatrix,
    build_schwinger,
    classify,
    compare_spans,
    consistency_algorithm,
    determinant,
    difference_matrix,
    left_null_space,
    load_model,
    parse_expression,
    rank,
    run_chain,
    assemble_extended_matrix,
)
from symchain.chain import _span
from brackets import canonical_pairs, poisson_bracket
from checkout import checkout_env
from golden import (
    C_GOLDEN,
    F1_GOLDEN,
    F2_GOLDEN,
    F3_GOLDEN,
    F3_TRUNCATED_GOLDEN,
    FINAL_DETERMINANT,
    PUBLISHED_CONSTRAINTS,
    V1,
    V2,
    V3,
    is_scalar_multiple,
)
from randmodels import random_model

MODELS = Path(__file__).resolve().parent.parent / "models"


def verdict(n, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE {n} ({title}): FAIL")
                raise
            print(f"ACCEPTANCE {n} ({title}): PASS")

        return wrapper

    return deco


@verdict(1, "mechanical-fixture golden run")
def test_criterion_1_golden_run(example2):
    start = time.monotonic()
    report = run_chain(example2)
    elapsed = time.monotonic() - start

    assert [c.level for c in report.constraints] == [1, 2, 3, 4]
    for c, text in zip(report.constraints, PUBLISHED_CONSTRAINTS):
        expected = parse_expression(text, example2.zeta)
        got_vec = list(c.raw.linear_coefficients()[0])
        want_vec = list(expected.linear_coefficients()[0])
        assert is_scalar_multiple(got_vec, want_vec), (str(c.raw), text)
    assert report.truncations == (3,)
    assert report.termination.kind == "nonsingular"
    assert report.termination.determinant == FINAL_DETERMINANT  # exactly 16
    assert elapsed < 1.0, f"chain run took {elapsed:.3f}s"

    # the CLI front door reports the same run
    cli = subprocess.run(
        [sys.executable, "-m", "symchain", "analyze", str(MODELS / "example2.model")],
        capture_output=True,
        text=True,
        env=checkout_env(),
    )
    assert cli.returncode == 0
    assert "det(F^(4)) = 16" in cli.stdout
    assert "truncations: level 3" in cli.stdout


@verdict(2, "matrix fidelity against the printed forms")
def test_criterion_2_matrix_fidelity(example2):
    zeta = example2.zeta
    published = [
        Constraint.from_raw(i + 1, parse_expression(t, zeta), "primary" if i == 0 else "null-vector")
        for i, t in enumerate(PUBLISHED_CONSTRAINTS[:3])
    ]
    f1 = assemble_extended_matrix(example2, published[:1])
    f2 = assemble_extended_matrix(example2, published[:2])
    f3 = assemble_extended_matrix(example2, published[:3])
    f3t = assemble_extended_matrix(example2, published[:3], truncated=True)
    assert f1 == RationalMatrix(F1_GOLDEN)
    assert f2 == RationalMatrix(F2_GOLDEN)
    assert f3 == RationalMatrix(F3_GOLDEN)
    assert f3t == RationalMatrix(F3_TRUNCATED_GOLDEN)

    b1 = left_null_space(f1)
    assert len(b1) == 1
    assert is_scalar_multiple(b1[0], [Fraction(v) for v in V1])

    b2 = left_null_space(f2)
    assert any(is_scalar_multiple(v, [Fraction(x) for x in V2]) for v in b2)

    b3t = left_null_space(f3t)
    # the published truncated-level vector lies in the basis span
    residual = list(map(Fraction, V3))
    for row in b3t:
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is not None and residual[lead] != 0:
            f = residual[lead] / row[lead]
            residual = [a - f * b for a, b in zip(residual, row)]
    assert all(x == 0 for x in residual)


@verdict(3, "lattice field-theory chain")
def test_criterion_3_lattice():
    determinants = {}
    for sites in (3, 5, 7):
        spec = LatticeSpec(sites=sites, spacing=Fraction(1))
        m = build_schwinger(spec)
        start = time.monotonic()
        report = run_chain(m)
        oracle = consistency_algorithm(m)
        assert compare_spans(report, oracle.constraints).equal
        elapsed = time.monotonic() - start
        if sites == 7:
            assert elapsed < 30.0, f"N=7 took {elapsed:.1f}s"
        assert len(report.constraints) == 4 * sites
        assert report.num_levels() == 4
        assert report.truncations == (3,)
        assert report.termination.kind == "nonsingular"
        assert report.termination.determinant != 0
        # recorded only; the continuum value is not asserted on the lattice
        determinants[sites] = report.termination.determinant

        # per-site stencil forms, compared span-by-span per level
        zeta = m.zeta
        d = difference_matrix(spec)

        def var(name, i):
            return Expression.variable(zeta, f"{name}_{i + 1}")

        def dvar(name, i):
            acc = Expression.zero(zeta)
            for j in range(sites):
                if d.entry(i, j):
                    acc = acc + d.entry(i, j) * var(name, j)
            return acc

        expected = {
            1: [var("pi0", i) for i in range(sites)],
            2: [
                dvar("pi1", i) + var("piphi", i) + dvar("phi", i) + var("A1", i)
                for i in range(sites)
            ],
            3: [var("pi1", i) for i in range(sites)],
            4: [
                -var("piphi", i) - dvar("phi", i) - 2 * var("A1", i) + var("A0", i)
                for i in range(sites)
            ],
        }
        for level in range(1, 5):
            got = [c.expr for c in report.constraints if c.level == level]
            assert len(got) == sites
            assert _span(got)[1] == _span(expected[level])[1]
    print(f"  recorded lattice determinants: {determinants}", end=" ")


@verdict(4, "chain/oracle span agreement")
def test_criterion_4_oracle_agreement(example2):
    for path in ("example2.model", "schwinger_n3.model"):
        m = load_model(MODELS / path)
        report = run_chain(m)
        res = consistency_algorithm(m)
        assert compare_spans(report, res.constraints).equal

    stats = {"nonsingular": 0, "exhausted": 0}
    for i in range(100):
        m = random_model(random.Random(774000 + i))
        report = run_chain(m, ChainOptions(max_level=8))
        res = consistency_algorithm(m)
        verdict_ = compare_spans(report, res.constraints)
        kind = report.termination.kind
        assert kind in ("nonsingular", "exhausted")
        stats[kind] += 1
        if kind == "nonsingular":
            assert verdict_.equal, f"model {i}: spans differ: {verdict_.describe()}"
        else:
            assert report.warnings, f"model {i}: exhausted without a warning record"
    assert stats["nonsingular"] >= 50
    print(f"  outcomes over 100 random models: {stats}", end=" ")


@verdict(5, "exact linear-algebra suite")
def test_criterion_5_exact_linalg():
    def cofactor(rows):
        n = len(rows)
        if n == 1:
            return rows[0][0]
        total = Fraction(0)
        for j in range(n):
            if rows[0][j] == 0:
                continue
            minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
            total += (-1 if j % 2 else 1) * rows[0][j] * cofactor(minor)
        return total

    rng = random.Random(9001)
    checked = 0
    for _ in range(200):
        n = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        mat = RationalMatrix(rows)
        assert determinant(mat) == cofactor(rows)
        checked += 1

        basis = left_null_space(mat)
        for v in basis:
            for j in range(n):
                assert sum(v[i] * mat.entry(i, j) for i in range(n)) == 0
        assert rank(mat) + len(basis) == n
    assert checked == 200


@verdict(6, "bracket algebra suite")
def test_criterion_6_bracket_algebra(example2):
    vt = example2.zeta
    pairs = canonical_pairs(len(vt))
    rng = random.Random(606)

    def rand_poly():
        e = Expression.zero(vt)
        for _ in range(rng.randint(1, 4)):
            coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            mono = Expression.constant(vt, coeff)
            for _ in range(rng.randint(0, 2)):
                mono = mono * Expression.variable(vt, rng.choice(vt.names))
            e = e + mono
        return e

    for _ in range(100):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        assert poisson_bracket(a, b, pairs) == -poisson_bracket(b, a, pairs)
        assert poisson_bracket(a, b * c, pairs) == (
            poisson_bracket(a, b, pairs) * c + b * poisson_bracket(a, c, pairs)
        )
        jac = (
            poisson_bracket(a, poisson_bracket(b, c, pairs), pairs)
            + poisson_bracket(b, poisson_bracket(c, a, pairs), pairs)
            + poisson_bracket(c, poisson_bracket(a, b, pairs), pairs)
        )
        assert jac.is_zero()

    p_z = parse_expression("p_z", vt)
    assert str(poisson_bracket(p_z, example2.hamiltonian, pairs)) == "-x - y"

    published = [
        Constraint.from_raw(i + 1, parse_expression(t, vt), "consistency")
        for i, t in enumerate(PUBLISHED_CONSTRAINTS)
    ]
    cm = classify(example2, published)
    assert [[int(x) for x in row] for row in cm.matrix.to_rows()] == C_GOLDEN
    assert cm.rank == 4
    assert cm.first_class == ()
    assert determinant(cm.matrix) == 16
