import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from symchain import (
    ChainOptions,
    Constraint,
    EchelonBasis,
    Expression,
    FirstOrderModel,
    LatticeSpec,
    OracleResult,
    RationalMatrix,
    SecondOrderLagrangian,
    VarTable,
    build_schwinger,
    classify,
    compare_spans,
    consistency_algorithm,
    determinant,
    left_null_space,
    legendre_transform,
    load_model,
    parse_expression,
    run_chain,
    span_fingerprint,
)
from symchain import dirac
from symchain.dirac import MultiplierCondition, _flow, _inverse
from brackets import canonical_pairs, poisson_bracket
from golden import C_GOLDEN, PUBLISHED_CONSTRAINTS, is_scalar_multiple
from polyref import integer_form, linear_coefficients, relabel
from randmodels import random_model, random_scaled_model
from test_byte_identity import _nonzero_rational, _shift_chain
from test_expressions import dense_key, sparse_key


def dict_terms(e):
    """The terms of ``e`` keyed by dense exponent vectors."""
    return {dense_key(mono, len(e.vars)): coeff for mono, coeff in e.terms.items()}


def brute_force_bracket(a, b, vt, pairs):
    """Independent oracle: the bracket computed on raw monomial dicts."""

    def diff(terms, idx):
        out = {}
        for mono, coeff in terms.items():
            if mono[idx]:
                lowered = mono[:idx] + (mono[idx] - 1,) + mono[idx + 1 :]
                out[lowered] = out.get(lowered, Fraction(0)) + coeff * mono[idx]
        return {m: c for m, c in out.items() if c}

    def mul(t1, t2):
        out = {}
        for m1, c1 in t1.items():
            for m2, c2 in t2.items():
                m = tuple(x + y for x, y in zip(m1, m2))
                out[m] = out.get(m, Fraction(0)) + c1 * c2
        return {m: c for m, c in out.items() if c}

    def add(t1, t2):
        out = dict(t1)
        for m, c in t2.items():
            out[m] = out.get(m, Fraction(0)) + c
        return {m: c for m, c in out.items() if c}

    def neg(t):
        return {m: -c for m, c in t.items()}

    ta, tb = dict_terms(a), dict_terms(b)
    total = {}
    for qi, pi in pairs:
        total = add(total, mul(diff(ta, qi), diff(tb, pi)))
        total = add(total, neg(mul(diff(ta, pi), diff(tb, qi))))
    return total


def test_canonical_pairs(example2):
    # the oracle's flows read off f pair each coordinate with its momentum
    pairs = canonical_pairs(len(example2.zeta))
    assert pairs == ((0, 3), (1, 4), (2, 5))
    finv = _inverse(example2)
    names = example2.zeta.names
    for q, p in pairs:
        assert _flow(integer_form(parse_expression(names[q], example2.zeta)), finv) == ({p: 1}, 1)
        assert _flow(integer_form(parse_expression(names[p], example2.zeta)), finv) == ({q: -1}, 1)
    x = parse_expression("x", example2.zeta)
    p_x = parse_expression("p_x", example2.zeta)
    assert str(poisson_bracket(x, p_x, pairs)) == "1"
    assert poisson_bracket(x, x, pairs).is_zero()


def test_bracket_of_primary_with_hamiltonian(example2):
    pairs = canonical_pairs(len(example2.zeta))
    p_z = parse_expression("p_z", example2.zeta)
    assert str(poisson_bracket(p_z, example2.hamiltonian, pairs)) == "-x - y"


def test_bracket_rejects_foreign_symbols(example2):
    pairs = canonical_pairs(len(example2.zeta))
    working = example2.working
    with_lam = parse_expression("p_z + lam1", working)
    with pytest.raises(ValueError):
        poisson_bracket(with_lam, with_lam, pairs)


def test_bracket_algebra_properties(example2):
    # antisymmetry, bilinearity/Leibniz, and Jacobi on random
    # linear/quadratic triples, all exact
    pairs = canonical_pairs(len(example2.zeta))
    vt = example2.zeta
    rng = random.Random(41)

    def rand_poly():
        e = Expression.zero(vt)
        for _ in range(rng.randint(1, 4)):
            coeff = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            mono = Expression(vt, {(): coeff})
            for _ in range(rng.randint(0, 2)):  # degree <= 2
                mono = mono * Expression.variable(vt, rng.choice(vt.names))
            e = e + mono
        return e

    for _ in range(100):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        ab = poisson_bracket(a, b, pairs)
        assert ab == -1 * poisson_bracket(b, a, pairs)
        assert poisson_bracket(a, a, pairs).is_zero()
        # Leibniz: {a, b*c} = {a,b}*c + b*{a,c}
        assert poisson_bracket(a, b * c, pairs) == ab * c + b * poisson_bracket(a, c, pairs)
        # Jacobi: {a,{b,c}} + {b,{c,a}} + {c,{a,b}} = 0
        jac = (
            poisson_bracket(a, poisson_bracket(b, c, pairs), pairs)
            + poisson_bracket(b, poisson_bracket(c, a, pairs), pairs)
            + poisson_bracket(c, poisson_bracket(a, b, pairs), pairs)
        )
        assert jac.is_zero()


def test_bracket_against_brute_force_oracle(example2):
    pairs = canonical_pairs(len(example2.zeta))
    vt = example2.zeta
    rng = random.Random(43)
    for _ in range(60):
        a = _rand(rng, vt)
        b = _rand(rng, vt)
        got = poisson_bracket(a, b, pairs)
        want = {sparse_key(m): c for m, c in brute_force_bracket(a, b, vt, pairs).items()}
        assert dict(got.terms) == want


def _rand(rng, vt):
    e = Expression.zero(vt)
    for _ in range(rng.randint(1, 4)):
        coeff = Fraction(rng.randint(-5, 5))
        mono = Expression(vt, {(): coeff})
        for _ in range(rng.randint(0, 3)):
            mono = mono * Expression.variable(vt, rng.choice(vt.names))
        e = e + mono
    return e


def test_consistency_algorithm_mechanical(example2):
    res = consistency_algorithm(example2)
    assert [c.level for c in res.constraints] == [1, 2, 3, 4]
    for c, text in zip(res.constraints, PUBLISHED_CONSTRAINTS):
        expected = parse_expression(text, example2.zeta)
        assert is_scalar_multiple(
            linear_coefficients(c.raw)[0], linear_coefficients(expected)[0]
        )
    # the final consistency fixes the multiplier
    assert len(res.multiplier_conditions) == 1
    assert not res.multiplier_conditions[0].condition.differentiate("lam1").is_zero()


def test_consistency_algorithm_free_particle(free_particle):
    res = consistency_algorithm(free_particle)
    assert res.constraints == ()
    assert res.multiplier_conditions == ()


def test_oracle_rejects_a_degenerate_base_tensor():
    zeta = VarTable(["x", "y", "p_x", "p_y"])
    c = [parse_expression(t, zeta) for t in ("p_x", "0", "0", "0")]
    h = parse_expression("p_x^2 + x*y + p_y^2", zeta)
    p_y = parse_expression("p_y", zeta)
    with pytest.raises(ValueError, match="nondegenerate base tensor f, but f has rank 2 of 4"):
        consistency_algorithm(FirstOrderModel("degenerate", zeta, c, h, [p_y]))
    # without primaries the oracle returns before it inverts f
    free = FirstOrderModel("degenerate", zeta, c, h)
    assert consistency_algorithm(free) == OracleResult((), ())
    with pytest.raises(ValueError, match="rank 2 of 4"):
        classify(free, [Constraint.from_raw(1, p_y, "primary")])


def test_classify_published_set(example2):
    constraints = [
        Constraint.from_raw(i + 1, parse_expression(t, example2.zeta), "consistency")
        for i, t in enumerate(PUBLISHED_CONSTRAINTS)
    ]
    cm = classify(example2, constraints)
    assert [[int(x) for x in row] for row in cm.matrix.to_rows()] == C_GOLDEN
    assert cm.rank == 4
    assert cm.first_class == ()
    assert determinant(cm.matrix) == 16

    # independent verification of every entry by the brute-force bracket
    for i, a in enumerate(constraints):
        for j, b in enumerate(constraints):
            want = brute_force_bracket(a.raw, b.raw, example2.zeta, canonical_pairs(len(example2.zeta)))
            entry = cm.matrix.entry(i, j)
            if entry == 0:
                assert want == {}
            else:
                assert want == {(0,) * 6: entry}


def test_classify_empty_and_duplicates(example2):
    cm = classify(example2, [])
    assert cm.rank == 0 and cm.first_class == ()
    p_z = parse_expression("p_z", example2.zeta)
    dup = [
        Constraint.from_raw(1, p_z, "primary"),
        Constraint.from_raw(2, 2 * p_z, "consistency"),
    ]
    with pytest.raises(ValueError):
        classify(example2, dup)


def test_classify_lists_first_class_combinations():
    """A first-class combination is found although no row of C is zero."""
    zeta = VarTable(["q1", "q2", "p1", "p2"])
    c = [parse_expression(t, zeta) for t in ("p1", "p2", "0", "0")]
    m = FirstOrderModel("pairs", zeta, c, Expression.zero(zeta))
    constraints = [
        Constraint.from_raw(1, parse_expression(t, zeta), "primary") for t in ("q1", "p1", "p1 + q2")
    ]
    cm = classify(m, constraints)
    assert all(any(row) for row in cm.matrix.to_rows())
    assert cm.rank == 2
    assert len(cm.first_class) == 1
    assert cm.first_class[0].monic() == parse_expression("q2", zeta)


def test_classify_rank_is_even(example2):
    rng = random.Random(47)
    for _ in range(25):
        m = random_model(rng)
        res = consistency_algorithm(m)
        if not res.constraints:
            continue
        cm = classify(m, res.constraints)
        pairs = canonical_pairs(len(m.zeta))
        assert cm.rank % 2 == 0
        assert len(cm.first_class) + cm.rank == len(res.constraints)
        # each linear-form entry is the constant general-polynomial bracket
        for a, row in zip(res.constraints, cm.matrix.to_rows()):
            for b, entry in zip(res.constraints, row):
                bracket = poisson_bracket(a.raw, b.raw, pairs)
                assert bracket == Expression(m.zeta, {(): entry})


def _sympy_form(e, symbols):
    return sympy.sympify(str(e).replace("^", "**"), locals={str(s): s for s in symbols})


def test_classify_matches_sympy_where_det_f_is_not_one():
    """C = A f^-1 A^T over the raw forms, A their gradient rows, and its left null space, from sympy."""
    unit_det = fractional = 0
    for seed in range(60):
        m = random_scaled_model(random.Random(seed))
        constraints = consistency_algorithm(m).constraints
        cm = classify(m, constraints)
        symbols = sympy.symbols(m.zeta.names)
        n = len(symbols)
        c = [_sympy_form(e, symbols) for e in m.c]
        f = sympy.Matrix(n, n, lambda a, b: sympy.diff(c[b], symbols[a]) - sympy.diff(c[a], symbols[b]))
        raw = [_sympy_form(k.raw, symbols) for k in constraints]
        a = sympy.Matrix([[sympy.diff(r, s) for s in symbols] for r in raw])
        want = a * f.inv() * a.T
        assert cm.matrix.to_rows() == tuple(
            tuple(Fraction(int(x.p), int(x.q)) for x in want.row(i)) for i in range(want.rows)
        )
        assert cm.rank == want.rank()
        # the raw forms' coefficient rows (gradient, then constant) combined by each null vector
        rows = a.row_join(sympy.Matrix([r.subs({s: 0 for s in symbols}) for r in raw]))
        expected = [w.T * rows for w in want.T.nullspace()]
        got = [sympy.Matrix([[*coeffs, const]]) for coeffs, const in (linear_coefficients(e) for e in cm.first_class)]
        assert len(got) == len(expected)
        if got:
            assert sympy.Matrix.vstack(*got, *expected).rank() == sympy.Matrix.vstack(*expected).rank() == len(got)
        unit_det += abs(f.det()) == 1
        fractional += any(x.denominator != 1 for row in cm.matrix.to_rows() for x in row)
    # most seeds have a non-integral f^-1, and some a non-integral bracket
    assert unit_det < 20 and fractional >= 20


def test_inverse_rows_match_sympy(example2):
    """Each (vec, scale) row of ``_inverse``, read as vec/scale, is that row of sympy's f^-1."""
    models = [example2, build_schwinger(LatticeSpec(sites=3, spacing=Fraction(3, 7)))]
    models += [random_scaled_model(random.Random(seed)) for seed in range(30)]
    fractional = 0
    for m in models:
        symbols = sympy.symbols(m.zeta.names)
        n = len(symbols)
        c = [_sympy_form(e, symbols) for e in m.c]
        f = sympy.Matrix(n, n, lambda a, b: sympy.diff(c[b], symbols[a]) - sympy.diff(c[a], symbols[b]))
        want = f.inv()
        rows = _inverse(m)
        assert len(rows) == n
        for a, (vec, scale) in enumerate(rows):
            assert [Fraction(vec.get(j, 0), scale) for j in range(n)] == [
                Fraction(int(x.p), int(x.q)) for x in want.row(a)
            ]
        fractional += any(scale > 1 for _, scale in rows)
    assert fractional >= 10


def test_classify_gauge_pair_is_all_first_class(models_dir):
    # L = 1/2 (xdot - y)^2: the oracle closes on {p_y, p_x}, both first class
    m = load_model(models_dir / "gauge_pair.model")
    cm = classify(m, consistency_algorithm(m).constraints)
    assert cm.matrix == RationalMatrix([[0, 0], [0, 0]])
    assert cm.rank == 0
    momenta = [parse_expression(t, m.zeta) for t in ("p_x", "p_y")]
    assert span_fingerprint(cm.first_class) == span_fingerprint(momenta)


def test_classify_rejects_nonlinear_and_foreign_constraints(example2):
    zeta = example2.zeta
    constraints = [
        Constraint.from_raw(1, parse_expression("p_z", zeta), "primary"),
        Constraint.from_raw(2, parse_expression("x^2 + p_x", zeta), "consistency"),
    ]
    with pytest.raises(ValueError, match="nonlinear"):
        classify(example2, constraints)
    working = example2.working
    foreign = [Constraint.from_raw(1, parse_expression("p_z + lam1", working), "primary")]
    with pytest.raises(ValueError, match="phase-space table"):
        classify(example2, foreign)


def test_compare_spans_fixture(example2):
    report = run_chain(example2)
    res = consistency_algorithm(example2)
    assert compare_spans(report, res.constraints).equal


def test_compare_spans_detects_missing_constraint(example2):
    report = run_chain(example2)
    res = consistency_algorithm(example2)
    partial = [c for c in report.constraints if c.level < 4]
    verdict = compare_spans(partial, res.constraints)
    assert not verdict.equal
    assert [str(e) for e in verdict.only_in_second] == ["z"]
    assert verdict.only_in_first == ()


def test_compare_spans_rejects_nonlinear_and_mixed_tables(example2):
    zeta = example2.zeta
    p_z = Constraint.from_raw(1, parse_expression("p_z", zeta), "primary")
    square = Constraint.from_raw(2, parse_expression("x^2", zeta), "consistency")
    other = Constraint.from_raw(2, parse_expression("q", VarTable(["q", "p"])), "consistency")
    with pytest.raises(ValueError, match="linear"):
        compare_spans([p_z, square], [p_z])
    with pytest.raises(ValueError, match="VarTable"):
        compare_spans([p_z, other], [p_z])
    with pytest.raises(ValueError, match="VarTable"):
        compare_spans([p_z], [other])


def test_compare_spans_scale_and_sign_invariant(example2):
    zeta = example2.zeta
    a = [Constraint.from_raw(1, parse_expression("p_z", zeta), "primary"),
         Constraint.from_raw(2, parse_expression("-x-y", zeta), "consistency")]
    b = [Constraint.from_raw(1, parse_expression("-3*p_z", zeta), "primary"),
         Constraint.from_raw(2, parse_expression("1/2*x + 1/2*y", zeta), "consistency")]
    assert compare_spans(a, b).equal


def test_oracle_agreement_on_random_models():
    rng_base = 774000
    agreements = 0
    for i in range(60):
        m = random_model(random.Random(rng_base + i))
        report = run_chain(m, ChainOptions(max_level=8))
        res = consistency_algorithm(m)
        verdict = compare_spans(report, res.constraints)
        if report.termination.kind == "nonsingular":
            assert verdict.equal, f"seed {i}: {verdict.describe()}"
            agreements += 1
        elif report.termination.kind == "exhausted":
            assert report.warnings
    assert agreements >= 40


def _cubic_model(primary):
    zeta = VarTable(["x", "y", "p_x", "p_y"])
    c = [parse_expression(t, zeta) for t in ("p_x", "p_y", "0", "0")]
    h = parse_expression("p_x^2 + x^3 + y*p_y", zeta)
    return FirstOrderModel("cubic", zeta, c, h, [parse_expression(primary, zeta)])


def test_consistency_algorithm_cubic_hamiltonian():
    m = _cubic_model("p_y")
    res = consistency_algorithm(m)
    assert [str(c.expr) for c in res.constraints] == ["p_y"]
    assert res.multiplier_conditions == ()
    report = run_chain(m)
    assert report.termination.kind == "exhausted"
    assert compare_spans(report, res.constraints).equal


def test_consistency_algorithm_rejects_nonlinear_primary():
    with pytest.raises(ValueError, match="nonlinear"):
        consistency_algorithm(_cubic_model("p_y^2"))


# -- the oracle's linear-form brackets -------------------------------------

_rationals = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))


@st.composite
def _bracket_inputs(draw):
    """A permuted randmodels table with canonical c, its (q, p) pairs,
    an affine-linear form and a polynomial of degree <= 3."""
    names = random_model(random.Random(draw(st.integers(0, 10**6)))).zeta.names
    n = len(names)
    order = draw(st.permutations(range(n)))
    zeta = VarTable([names[i] for i in order])
    position = {old: new for new, old in enumerate(order)}
    pairs = tuple((position[i], position[n // 2 + i]) for i in range(n // 2))
    c = [Expression.zero(zeta)] * n
    for q, p in pairs:
        c[q] = Expression.variable(zeta, zeta.names[p])
    coeffs = draw(st.lists(_rationals, min_size=n + 1, max_size=n + 1))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        mono = [0] * n
        for _ in range(draw(st.integers(0, 3))):
            mono[draw(st.integers(0, n - 1))] += 1
        terms[sparse_key(mono)] = draw(_rationals)
    b = Expression(zeta, terms)
    a = Expression(zeta, {((i, 1),) if i < n else (): x for i, x in enumerate(coeffs)})
    return FirstOrderModel("table", zeta, c, b), pairs, a, b


@settings(max_examples=200, deadline=None)
@given(_bracket_inputs())
def test_linear_form_bracket_matches_poisson_bracket(inputs):
    m, pairs, a, b = inputs
    gradient = [b.differentiate(name) for name in m.zeta.names]
    flow, scale = _flow(integer_form(a), _inverse(m))
    bracket = Expression.linear_combination(m.zeta, ((Fraction(x, scale), gradient[j]) for j, x in flow.items()))
    assert bracket == poisson_bracket(a, b, pairs)


# -- the oracle against the pass loop it replaced ----------------------------


def reference_consistency_algorithm(m):
    """``consistency_algorithm`` as each pass once ran it: the full canonical null
    basis of the dense bracket matrix, and a ``Fraction`` candidate for every
    null vector, those an earlier pass checked included."""
    constraints = [Constraint.from_raw(1, p, "primary") for p in m.primaries]
    if not constraints:
        return OracleResult((), ())
    if not all(p.is_linear() for p in m.primaries):
        raise ValueError("nonlinear primary: the oracle supports linear constraints only")
    finv = _inverse(m)
    zeta = m.zeta
    grad_h = m.hamiltonian.gradient()
    primary_grads = [dict(enumerate(linear_coefficients(p)[0])) for p in m.primaries]
    brackets_h, mixed = [], []
    known = EchelonBasis(zeta)

    def add_brackets(c):
        u, scale = _flow(integer_form(c.expr), finv)
        brackets_h.append(Expression.linear_combination(zeta, ((Fraction(x, scale), grad_h[j]) for j, x in u.items())))
        mixed.append([sum(u[j] * x for j, x in beta.items() if j in u) / Fraction(scale) for beta in primary_grads])

    for c in constraints:
        add_brackets(c)
        known.add(c.expr)
    while True:
        old = len(constraints)
        for w in left_null_space(RationalMatrix(mixed)):
            candidate = Expression.linear_combination(zeta, zip(w, brackets_h))
            if candidate.is_zero():
                continue
            if not candidate.is_linear():
                raise ValueError(
                    "nonlinear consistency candidate: reduction is supported "
                    "for linear constraints only"
                )
            remainder = known.remainder(candidate)
            if remainder.is_zero():
                continue
            if remainder.degree() == 0:
                raise ValueError(
                    "inconsistent dynamics: a consistency condition reduces to "
                    f"the nonzero constant {remainder.terms[()]}"
                )
            level = 1 + max(c.level for c, coeff in zip(constraints, w) if coeff)
            constraints.append(Constraint.from_raw(level, candidate, "consistency"))
            known.add(constraints[-1].expr)
        if len(constraints) == old:
            break
        for c in constraints[old:]:
            add_brackets(c)
    conditions = []
    for phi, bracket_h, row in zip(constraints, brackets_h, mixed):
        lam_part = Expression(m.working, {((len(zeta) + i, 1),): x for i, x in enumerate(row)})
        if not lam_part.is_zero():
            conditions.append(MultiplierCondition(phi, relabel(bracket_h, m.working) + lam_part))
    return OracleResult(tuple(constraints), tuple(conditions))


def _second_order7():
    """Model-batch seed 1's ``second_order7``: three primaries, three more levels."""
    coords = VarTable(["x1", "x2", "x3"])
    table = SecondOrderLagrangian.full_table(coords)
    lag = parse_expression("2*x2*x1dot + 2*x1*x3dot - (-3*x1*x2 + x2*x3 - x3*x3)", table)
    return legendre_transform(SecondOrderLagrangian(coords, lag), name="second_order7")


def _k12_shift_chain():
    rng = random.Random(0)
    return _shift_chain(tuple(_nonzero_rational(rng) for _ in range(12)))


def _xy_model(h):
    """zeta = (x, y, p_x, p_y), c = (p_x, p_y, 0, 0), primary p_y."""
    zeta = VarTable(["x", "y", "p_x", "p_y"])
    c = [parse_expression(t, zeta) for t in ("p_x", "p_y", "0", "0")]
    return FirstOrderModel("xy", zeta, c, parse_expression(h, zeta), [parse_expression("p_y", zeta)])


ORACLE_ERRORS = {
    "p_x^2 + 2/3*y": "inconsistent dynamics: a consistency condition reduces to the nonzero constant -2/3",
    # the constant appears only after reduction, in the second pass
    "y*p_x + y + 2/5*x*p_x": "inconsistent dynamics: a consistency condition reduces to the nonzero constant 2/5",
    "p_x^2 + y*x^2": "nonlinear consistency candidate: reduction is supported for linear constraints only",
}


def _oracle_outcome(oracle, m):
    try:
        return oracle(m)
    except ValueError as exc:
        return str(exc)


_REFERENCE_MODELS = {
    "randmodels": lambda: [random_model(random.Random(seed)) for seed in range(300)],
    "lattice": lambda: [
        build_schwinger(LatticeSpec(sites=n, spacing=s)) for n in (3, 5, 7) for s in (Fraction(1), Fraction(3, 7))
    ],
    "shift_chain": lambda: [_k12_shift_chain()],
    "second_order7": lambda: [_second_order7()],
    "errors": lambda: [_xy_model(h) for h in ORACLE_ERRORS],
}


@pytest.mark.parametrize("family", sorted(_REFERENCE_MODELS))
def test_oracle_matches_the_reference_pass_loop(family):
    for m in _REFERENCE_MODELS[family]():
        got = _oracle_outcome(consistency_algorithm, m)
        reference = _oracle_outcome(reference_consistency_algorithm, m)
        assert got == reference
        if isinstance(got, OracleResult):
            # the same bytes, not only the same values
            for a, b in zip(got.constraints, reference.constraints):
                assert (a.level, str(a.expr), str(a.raw), a.origin) == (b.level, str(b.expr), str(b.raw), b.origin)
            for a, b in zip(got.multiplier_conditions, reference.multiplier_conditions):
                assert (str(a.constraint.expr), str(a.condition)) == (str(b.constraint.expr), str(b.condition))


def test_oracle_keeps_the_raw_forms_of_a_multi_primary_second_order_model():
    res = consistency_algorithm(_second_order7())
    assert [(c.level, str(c.raw), c.origin) for c in res.constraints] == [
        (1, "-2*x2 + p_x1", "primary"),
        (1, "p_x2", "primary"),
        (1, "-2*x1 + p_x3", "primary"),
        (2, "3*x1 - x2 + x3", "consistency"),
        (3, "-3*x2 + 3*x3", "consistency"),
        (4, "-3/2*x2", "consistency"),
    ]


@pytest.mark.parametrize("h", sorted(ORACLE_ERRORS))
def test_oracle_error_texts(h):
    with pytest.raises(ValueError) as info:
        consistency_algorithm(_xy_model(h))
    assert str(info.value) == ORACLE_ERRORS[h]


@pytest.mark.parametrize(
    "model, formed",
    [
        (_k12_shift_chain, 23),  # 299 with every null vector of every pass
        (lambda: build_schwinger(LatticeSpec(sites=11, spacing=Fraction(1))), 33),  # 99
    ],
    ids=["shift_chain", "lattice_11"],
)
def test_oracle_forms_a_candidate_only_for_new_null_directions(model, formed, monkeypatch):
    calls = []
    candidate = dirac._candidate

    def counted(*args):
        calls.append(args)
        return candidate(*args)

    monkeypatch.setattr(dirac, "_candidate", counted)
    res = consistency_algorithm(model())
    assert len(calls) == formed
    assert res == reference_consistency_algorithm(model())
