import random
import sys
from fractions import Fraction
from math import lcm, prod

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symchain.expressions import _affine_form, _descending, _form_expression, _grlex_key, _sums_expression, _sums_form
from symchain import (
    EchelonBasis,
    Expression,
    ParseError,
    UnknownVariableError,
    VarTable,
    parse_expression,
)
from polyref import degree, integer_form, linear_coefficients, relabel, to_sympy

VT = VarTable(["x", "y", "z", "p_x", "p_y", "p_z"])


def sparse_key(exps):
    """The monomial key of a dense exponent vector: its (index, exponent) pairs with exponent >= 1."""
    return tuple((i, e) for i, e in enumerate(exps) if e)


def dense_key(mono, n):
    """The exponent vector of length ``n`` of a monomial key."""
    exps = [0] * n
    for i, e in mono:
        exps[i] = e
    return tuple(exps)


def test_vartable_rejects_duplicates_and_bad_names():
    with pytest.raises(ValueError):
        VarTable(["x", "x"])
    with pytest.raises(ValueError):
        VarTable(["3x"])
    with pytest.raises(ValueError):
        VarTable([""])


def test_parse_hamiltonian():
    e = parse_expression("p_x*p_y + z*(x+y)", VT)
    assert str(e) == "x*z + y*z + p_x*p_y"
    assert e == parse_expression("z*y + p_y*p_x + x*z", VT)


def test_parse_zero_and_binomial_identity():
    assert parse_expression("0", VT).is_zero()
    assert parse_expression("(x+y)^2 - x^2 - 2*x*y - y^2", VT).is_zero()


def test_parse_rational_literals():
    e = parse_expression("3/2*x - 1/4", VT)
    coeffs, const = linear_coefficients(e)
    assert coeffs[0] == Fraction(3, 2)
    assert const == Fraction(-1, 4)


@pytest.fixture(params=["default", "lifted"])
def digit_limit(request):
    """Python's own int conversion limit, at its default or lifted as ``cli.main`` lifts it for a run."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300 if request.param == "default" else 0)
    yield request.param
    sys.set_int_max_str_digits(before)


@pytest.mark.parametrize("text, offset", [("1" * 4301, 0), ("x + 1/" + "7" * 4301, 6), ("x^" + "2" * 4301, 2)])
def test_an_integer_literal_past_4300_digits_is_a_parse_error_whatever_the_limit(digit_limit, text, offset):
    with pytest.raises(ParseError) as err:
        parse_expression(text, VT)
    assert str(err.value) == f"integer literal of 4301 digits is too long (at offset {offset})"
    assert parse_expression("9" * 4300, VT).terms == {(): Fraction(10**4300 - 1)}


PARSE_ERRORS = [
    ("x +", "unexpected end of input", 3),
    ("", "unexpected end of input", 0),
    ("x * (", "unexpected end of input", 5),
    ("x ^ -2", "exponent must be a nonnegative integer literal", 4),
    ("x^y", "exponent must be a nonnegative integer literal", 2),
    ("x^1/2", "exponent must be an integer (fractions not allowed)", 3),
    ("1/0", "zero denominator in rational literal", 2),
    ("1/", "expected an integer denominator", 2),
    ("1/x", "expected an integer denominator", 2),
    ("x $ y", "unexpected character '$'", 2),
    ("(x + y", "expected ')'", 6),
    ("x y", "unexpected 'y'", 2),
    ("x + * y", "unexpected '*'", 4),
    (")", "unexpected ')'", 0),
    ("x^2^3", "unexpected '^'", 3),
    ("x + qq*y", "unknown variable 'qq'", 4),
]


def test_parse_errors_report_position():
    for text, message, position in PARSE_ERRORS:
        with pytest.raises(ParseError) as err:
            parse_expression(text, VT)
        assert (str(err.value), err.value.position) == (f"{message} (at offset {position})", position), text
    with pytest.raises(UnknownVariableError) as err:
        parse_expression("x + qq*y", VT)
    assert err.value.name == "qq"


@pytest.mark.parametrize(
    "text, expected",
    [
        ("-x^2", "-x^2"),
        ("--x", "x"),
        ("+-+x", "-x"),
        ("2*-x", "-2*x"),
        ("- - x * - p_x", "-x*p_x"),
    ],
)
def test_parse_unary_signs(text, expected):
    assert str(parse_expression(text, VT)) == expected


def test_parse_deep_input():
    # a run of unary signs is a loop, not nesting
    assert str(parse_expression("-" * 3000 + "x", VT)) == "x"
    assert str(parse_expression("-" * 3001 + "x", VT)) == "-x"
    assert str(parse_expression("(" * 150 + "x" + ")" * 150, VT)) == "x"
    # the limit is 160 levels: the error is at the first "(" past it,
    # whatever the depth of the caller's stack
    def nested(frames, text):
        return nested(frames - 1, text) if frames else parse_expression(text, VT)

    for opening in ("(", "(-"):
        text = opening * 400 + "x" + ")" * 400
        for frames in (0, 50):
            with pytest.raises(ParseError) as err:
                nested(frames, text)
            assert str(err.value) == f"parentheses nested too deeply (at offset {160 * len(opening)})"
            assert err.value.position == 160 * len(opening)


def _random_text(rng):
    """A random expression text over VT and the Expression it denotes, built with +, binary - and *.

    It follows the grammar level by level (sum, product, signed, power, atom)
    and draws literal zeros, terms that cancel, runs of unary signs, nested
    parentheses and powers of every kind of atom.
    """
    def space():
        return rng.choice(["", "", " "])

    def atom(depth):
        kind = rng.choice(["int", "rational", "name", "name", "paren"] if depth < 3 else ["int", "name"])
        if kind == "int":
            value = rng.choice([0, 0, 1, 2, 3, 10])
            return str(value), Expression(VT, {(): value})
        if kind == "rational":
            num, den = rng.randint(0, 7), rng.randint(1, 6)
            return f"{num}/{den}", Expression(VT, {(): Fraction(num, den)})
        if kind == "name":
            name = rng.choice(VT.names[:4])
            return name, Expression.variable(VT, name)
        text, expr = summed(depth + 1)
        return f"({space()}{text}{space()})", expr

    def power(depth):
        text, expr = atom(depth)
        if rng.random() < 0.25:
            k = rng.randint(0, 3)
            return f"{text}^{k}", prod([expr] * k, start=Expression(VT, {(): 1}))
        return text, expr

    def signed(depth):
        signs = "".join(rng.choice("+-") for _ in range(rng.choice([0, 0, 0, 1, 2, 3])))
        text, expr = power(depth)
        return signs + text, -1 * expr if signs.count("-") % 2 else expr

    def product(depth):
        text, expr = signed(depth)
        for _ in range(rng.choice([0, 0, 1, 2])):
            rhs_text, rhs = signed(depth)
            text, expr = f"{text}{space()}*{space()}{rhs_text}", expr * rhs
        return text, expr

    def summed(depth):
        text, expr = product(depth)
        terms = [(text, expr)]
        for _ in range(rng.choice([0, 1, 2, 3])):
            # reuse an earlier term now and then, so terms cancel or pile up
            rhs_text, rhs = rng.choice(terms) if rng.random() < 0.4 else product(depth)
            terms.append((rhs_text, rhs))
            op = rng.choice("+-")
            text = f"{text}{space()}{op}{space()}{rhs_text}"
            expr = expr + rhs if op == "+" else expr - rhs
        return text, expr

    return summed(0)


@pytest.mark.parametrize(
    "text, expected",
    [
        ("x + y - x + x", "x + y"),
        ("x - x", "0"),
        ("0*x + 0 - 0/3", "0"),
        ("2/3^2*x", "4/9*x"),
        ("(x - y)*(x + y) - x^2", "-y^2"),
        ("-(-(x))^0", "-1"),
        ("0^0 + (x - x)^0", "2"),
    ],
)
def test_parse_cancellations_and_zeros(text, expected):
    assert str(parse_expression(text, VT)) == expected


def test_parse_matches_arithmetic_reference():
    rng = random.Random(2024)
    for _ in range(600):
        text, expected = _random_text(rng)
        e = parse_expression(text, VT)
        assert e == expected, text
        assert all(type(c) is Fraction for c in e.terms.values()), text


def test_differentiate_examples():
    h = parse_expression("p_x*p_y + z*(x+y)", VT)
    assert str(h.differentiate("x")) == "z"
    assert str(parse_expression("x^2", VT).differentiate("x")) == "2*x"
    # gradient of the total Hamiltonian picks out the bare multiplier
    wt = VT.extended(["lam1"])
    ht = relabel(h, wt) + parse_expression("lam1*p_z", wt)
    assert str(ht.differentiate("p_z")) == "lam1"
    with pytest.raises(ValueError):
        h.differentiate("nope")


def test_float_coefficients_are_rejected():
    for build in (
        lambda: Expression(VT, {(): 0.1}),
        lambda: Expression(VT, {((0, 1),): 0.5}),
    ):
        with pytest.raises(ValueError, match="^coefficient .* is a float; coefficients must be exact$"):
            build()
    assert Expression(VT, {(): 2}).terms == {(): 2}
    assert Expression(VT, {(): Fraction(1, 10)}).terms == {(): Fraction(1, 10)}


def test_roundtrip_parse_print():
    rng = random.Random(7)
    for _ in range(200):
        e = _random_poly(rng, VT)
        assert parse_expression(str(e), VT) == e
        assert parse_expression(e.to_text(compact=True), VT) == e


def test_degree_zero_roundtrips_to_rational():
    e = parse_expression("7/3", VT)
    assert degree(e) == 0
    assert e.terms == {(): Fraction(7, 3)}
    assert Expression(VT, {(): Fraction(7, 3)}) == e


def test_differentiate_is_linear():
    rng = random.Random(11)
    for _ in range(100):
        e1 = _random_poly(rng, VT)
        e2 = _random_poly(rng, VT)
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        combo = a * e1 + b * e2
        v = rng.choice(VT.names)
        assert combo.differentiate(v) == a * e1.differentiate(v) + b * e2.differentiate(v)


def test_leibniz_rule():
    rng = random.Random(13)
    for _ in range(100):
        e1 = _random_poly(rng, VT)
        e2 = _random_poly(rng, VT)
        v = rng.choice(VT.names)
        lhs = (e1 * e2).differentiate(v)
        rhs = e1.differentiate(v) * e2 + e1 * e2.differentiate(v)
        assert lhs == rhs


def test_differentiator_against_rule_based_oracle():
    # random polynomials in two variables, derivative computed
    # independently by the power rule on raw term lists, equality
    # established at a full structured sample grid
    vt = VarTable(["u", "v"])
    rng = random.Random(17)
    for _ in range(50):
        terms = [
            ((rng.randint(0, 3), rng.randint(0, 3)), Fraction(rng.randint(-5, 5)))
            for _ in range(rng.randint(1, 6))
        ]
        e = Expression.zero(vt)
        for (eu, ev), coeff in terms:
            e = e + Expression(vt, {sparse_key((eu, ev)): coeff})
        # rule-based derivative with respect to u on the raw list
        def oracle_du(pt):
            total = Fraction(0)
            for (eu, ev), coeff in terms:
                if eu:
                    total += coeff * eu * pt["u"] ** (eu - 1) * pt["v"] ** ev
            return total

        d = to_sympy(e.differentiate("u"))
        # agreement on a (maxdeg+1)^nvars structured grid implies equality
        for uu in range(5):
            for vv in range(5):
                pt = {"u": Fraction(uu), "v": Fraction(vv)}
                assert d.subs(pt) == oracle_du(pt)


def _span(basis):
    span = EchelonBasis(VT)
    for b in basis:
        span.add(b)
    return span


def test_reduce_modulo_linear_examples():
    assert _span([parse_expression("p_x + p_y", VT)]).remainder(
        parse_expression("-p_x - p_y", VT)
    ).is_zero()

    basis = [parse_expression(s, VT) for s in ("p_z", "-x-y", "p_x+p_y")]
    r = _span(basis).remainder(parse_expression("-2*z", VT))
    assert not r.is_zero()
    assert r.monic() == parse_expression("z", VT)

    # membership verified independently: x + y + p_z = 1*(p_z) - 1*(-x-y)
    e = parse_expression("x + y + p_z", VT)
    combo = parse_expression("p_z", VT) - parse_expression("-x-y", VT)
    assert combo == e
    assert _span([parse_expression("p_z", VT), parse_expression("-x-y", VT)]).remainder(e).is_zero()


def test_reduce_modulo_linear_idempotent_and_affine():
    rng = random.Random(23)
    basis = [
        parse_expression("p_z + 1", VT),
        parse_expression("x - y", VT),
        parse_expression("2*p_x - 3", VT),
    ]
    span = _span(basis)
    for _ in range(50):
        vec = [Fraction(rng.randint(-4, 4)) for _ in range(7)]
        e = Expression(VT, {(): vec[6]})
        for name, coeff in zip(VT.names, vec):
            e = e + coeff * Expression.variable(VT, name)
        r = span.remainder(e)
        assert span.remainder(r) == r
        # members of the affine span reduce to zero
        a, b, c = (Fraction(rng.randint(-3, 3)) for _ in range(3))
        member = a * basis[0] + b * basis[1] + c * basis[2]
        if not member.is_zero():
            assert span.remainder(member).is_zero()


def test_reduce_modulo_linear_rejects_nonlinear():
    with pytest.raises(ValueError):
        _span([parse_expression("x", VT)]).remainder(parse_expression("x^2", VT))
    with pytest.raises(ValueError):
        _span([parse_expression("x*y", VT)])


def test_monic_uses_graded_lex_leading_term():
    assert str(parse_expression("-x-y", VT).monic()) == "x + y"
    assert str(parse_expression("2*z", VT).monic()) == "z"
    assert str(parse_expression("-p_x - p_y", VT).monic()) == "p_x + p_y"


def _random_poly(rng, vt):
    e = Expression.zero(vt)
    for _ in range(rng.randint(1, 5)):
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        mono = Expression(vt, {(): coeff})
        for _ in range(rng.randint(0, 3)):
            mono = mono * Expression.variable(vt, rng.choice(vt.names))
        e = e + mono
    return e


# -- the echelon basis against sympy -----------------------------------

SMALL = VarTable(["a", "b", "c", "d"])
_rationals = st.builds(
    Fraction, st.integers(-3, 3), st.sampled_from([1, 1, 1, 2, 3])
)
_vectors = st.lists(_rationals, min_size=5, max_size=5)  # 4 variables + constant
_form_sets = st.lists(_vectors, max_size=5)


def _form(vec):
    """sum_i vec[i] * SMALL[i] + vec[4]."""
    return Expression(SMALL, {((i, 1),) if i < 4 else (): x for i, x in enumerate(vec)})


def _vector(e):
    coeffs, const = linear_coefficients(e)
    return list(coeffs) + [const]


def _sympy_rank(vectors):
    if not vectors:
        return 0
    return sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in v] for v in vectors]
    ).rank()


def _basis(vectors):
    basis = EchelonBasis(SMALL)
    for v in vectors:
        basis.add(_form(v))
    return basis


@settings(max_examples=150, deadline=None)
@given(_form_sets, _vectors)
def test_basis_remainder_is_zero_iff_sympy_rank_does_not_grow(forms, vec):
    basis = EchelonBasis(SMALL)
    for i, v in enumerate(forms):
        grows = _sympy_rank(forms[: i + 1]) > _sympy_rank(forms[:i])
        assert basis.add(_form(v)) == grows
    assert len(basis.rref()) == _sympy_rank(forms)
    in_span = _sympy_rank(forms + [vec]) == _sympy_rank(forms)
    assert basis.remainder(_form(vec)).is_zero() == in_span


@settings(max_examples=150, deadline=None)
@given(_form_sets, _vectors)
def test_basis_remainder_differs_by_a_span_member(forms, vec):
    e = _form(vec)
    r = _basis(forms).remainder(e)
    assert _sympy_rank(forms + [_vector(e - r)]) == _sympy_rank(forms)


@settings(max_examples=150, deadline=None)
@given(_form_sets, _vectors, st.randoms(use_true_random=False))
def test_basis_remainder_ignores_order_and_scale_and_is_idempotent(forms, vec, rng):
    e = _form(vec)
    basis = _basis(forms)
    r = basis.remainder(e)
    scales = [rng.choice([1, -2, Fraction(1, 3)]) for _ in forms]
    shuffled = [[x * k for x in v] for v, k in zip(forms, scales)]
    rng.shuffle(shuffled)
    assert _basis(shuffled).remainder(e) == r
    assert basis.remainder(r) == r


@settings(max_examples=150, deadline=None)
@given(_form_sets)
def test_basis_rref_matches_sympy(forms):
    """One ``add`` per form and one ``add(*forms)`` give sympy's rref; the batch is True iff sympy's rank is full."""
    rows = [_vector(e) for e in _basis(forms).rref()]
    batch = EchelonBasis(SMALL)
    assert batch.add(*map(_form, forms)) == (_sympy_rank(forms) == len(forms))
    assert [_vector(e) for e in batch.rref()] == rows
    # an empty call adds nothing and is True
    assert batch.add() is True
    assert [_vector(e) for e in batch.rref()] == rows
    if not forms:
        assert rows == []
        return
    reduced, pivots = sympy.Matrix(
        [[sympy.Rational(x.numerator, x.denominator) for x in v] for v in forms]
    ).rref()
    expected = [
        [Fraction(int(x.p), int(x.q)) for x in reduced.row(i)] for i in range(len(pivots))
    ]
    assert rows == expected


@settings(max_examples=150, deadline=None)
@given(_form_sets, st.integers(1, 3))
@example([[1, 0, 0, 0, 0], [2, 0, 0, 0, Fraction(3, 2)], [0, 0, 0, 0, 0]], 2)
def test_add_form_matches_add(forms, k):
    # each form from its int monomial sums, zeros kept, over k times the lcm of its denominators
    ints, public = EchelonBasis(SMALL), EchelonBasis(SMALL)
    for vec in forms:
        e = _form(vec)
        den = lcm(*(x.denominator for x in vec)) * k
        sums = {((i, 1),) if i < 4 else (): x.numerator * (den // x.denominator) for i, x in enumerate(vec)}
        form = _sums_form(sums, den, 4)
        r = public.remainder(e)
        if degree(r) == 0 and not r.is_zero():
            message = "inconsistent dynamics: a consistency condition reduces to the nonzero constant"
            with pytest.raises(ValueError, match=f"^{message} {r.terms[()]}$"):
                ints._add_form(*form)
        else:
            assert ints._add_form(*form) == public.add(e)
        assert ints.rref() == public.rref()


@settings(max_examples=150, deadline=None)
@given(_form_sets, _vectors)
def test_reduce_modulo_linear_agrees_with_basis(forms, vec):
    members = [_form(v) for v in forms if any(v)]
    e = _form(vec)
    span = EchelonBasis(SMALL)
    for member in members:
        span.add(member)
    assert span.remainder(e) == _basis(forms).remainder(e)


def test_basis_rejects_nonlinear_and_foreign_forms():
    basis = EchelonBasis(SMALL)
    with pytest.raises(ValueError):
        basis.add(parse_expression("a*b", SMALL))
    with pytest.raises(ValueError):
        basis.remainder(parse_expression("a^2", SMALL))
    with pytest.raises(ValueError):
        basis.add(parse_expression("x", VT))


# -- linear combinations against sympy --------------------------------

SOURCE = VarTable(["x", "y", "z"])
TARGET = VarTable(["u", "z", "x", "v", "y"])


def _polys(vt, max_exponent):
    monomials = st.tuples(*[st.integers(0, max_exponent)] * len(vt)).map(sparse_key)
    return st.dictionaries(monomials, _rationals, max_size=4).map(
        lambda terms: Expression(vt, terms)
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_rationals, _polys(SOURCE, 3)), max_size=5))
def test_linear_combination_and_arithmetic_results_are_canonical(pairs):
    combined = Expression.linear_combination(SOURCE, pairs)
    reference = sum((sympy.Rational(k.numerator, k.denominator) * to_sympy(e) for k, e in pairs), sympy.S.Zero)
    assert sympy.expand(to_sympy(combined) - reference) == 0
    running = Expression.zero(SOURCE)
    for k, e in pairs:
        running = running + k * e
    assert combined == running
    # results built without the constructor's checks hold what it would build
    for result in (combined, -1 * combined, combined * combined, combined - combined,
                   combined.differentiate("x")):
        assert all(result.terms.values())
        assert result == Expression(result.vars, dict(result.terms))


def test_linear_combination_rejects_a_foreign_table():
    with pytest.raises(ValueError, match="different VarTables"):
        Expression.linear_combination(TARGET, [(0, Expression.variable(SOURCE, "x"))])


# -- printing against the term-by-term reference -----------------------


def reference_text(e, compact=False):
    """``Expression.to_text`` as first written: every exponent visited, Fraction comparisons."""
    if e.is_zero():
        return "0"
    plus, minus = ("+", "-") if compact else (" + ", " - ")
    terms = {dense_key(mono, len(e.vars)): coeff for mono, coeff in e.terms.items()}
    parts = []
    for mono in sorted(terms, key=lambda m: (sum(m), m), reverse=True):
        coeff = terms[mono]
        factors = []
        for i, x in enumerate(mono):
            if x == 1:
                factors.append(e.vars.names[i])
            elif x > 1:
                factors.append(f"{e.vars.names[i]}^{x}")
        mag = abs(coeff)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag)] + factors)
        if not parts:
            parts.append(body if coeff > 0 else "-" + body)
        else:
            parts.append((plus if coeff > 0 else minus) + body)
    return "".join(parts)


def _monomial(indices):
    """The monomial key over VT that multiplies the variables at ``indices``."""
    return sparse_key(indices.count(i) for i in range(len(VT)))


# degree <= 3, so x^2 and x^3 occur, and the empty product is the constant term
_cubic_monomials = st.lists(st.integers(0, len(VT) - 1), max_size=3).map(_monomial)
_signed_rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from([1, 1, 2, 3, 7, 12]))
_cubics = st.dictionaries(_cubic_monomials, _signed_rationals, max_size=6).map(
    lambda terms: Expression(VT, terms)
)
# the constant term and the degree-one monomials only
_linear_monomials = st.sampled_from([()] + [((i, 1),) for i in range(len(VT))])
_linears = st.dictionaries(_linear_monomials, _signed_rationals, max_size=len(VT) + 1).map(
    lambda terms: Expression(VT, terms)
)


@settings(max_examples=300, deadline=None)
@given(_cubics | _linears, st.booleans())
def test_to_text_matches_the_reference(e, compact):
    assert e.to_text(compact) == reference_text(e, compact)


@settings(max_examples=300, deadline=None)
@given(st.sets(_linear_monomials) | st.sets(_linear_monomials | _cubic_monomials))
@example(set())
@example({()})
@example({(), ((2, 1),)})
@example({((5, 1),), ((0, 1),)})
def test_descending_is_the_grlex_sort(monomials):
    """Linear sets skip the sort key, mixed ones use it; both give the graded-lex descending order."""
    terms = dict.fromkeys(monomials, Fraction(1))
    assert _descending(terms) == sorted(terms, key=_grlex_key, reverse=True)


@settings(max_examples=300, deadline=None)
@given(_cubics | _linears)
def test_monic_scales_by_the_leading_coefficient(e):
    lc = e.leading_coefficient()
    assert lc == (e.terms[max(e.terms, key=_grlex_key)] if e.terms else 0)
    assert e.monic() == (e * (1 / lc) if lc else e)
    if lc in (0, 1):
        assert e.monic() is e


@settings(max_examples=300, deadline=None)
@given(_linears)
@example(Expression(VT, {(): Fraction(-7, 3)}))
@example(Expression.zero(VT))
def test_affine_form_round_trips_every_linear_expression(e):
    form = _affine_form(e)
    assert form == integer_form(e)
    assert _form_expression(VT, *form) == e


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(_linear_monomials | _cubic_monomials, st.integers(-3, 3)), st.integers(1, 6))
@example({(): 0, ((0, 1),): 2, ((1, 1),): 0}, 4)  # zeros kept
@example({(): 5}, 2)  # a constant-only form
@example({((0, 3),): 1, ((1, 1),): 4}, 1)  # a cubic monomial
@example({((0, 3),): 0, ((1, 1),): 4}, 1)  # a cubic monomial whose sum is zero
def test_sums_form_is_linear_exactly_where_is_linear(sums, den):
    e = _sums_expression(VT, sums, den)
    form = _sums_form(sums, den, len(VT))
    assert (form is not None) == (degree(e) <= 1)
    if form is not None:
        assert _form_expression(VT, *form) == e


def test_to_text_reference_cases():
    for text in ("0", "-1", "7/3", "-x^3 + 2/3*x^2*y - p_z + 1", "x*y*z - 1/2*y^2 - 5"):
        e = parse_expression(text, VT)
        for compact in (False, True):
            assert e.to_text(compact) == reference_text(e, compact)
    assert parse_expression("-x^3 + 2/3*x^2*y - p_z + 1", VT).to_text(True) == "-x^3+2/3*x^2*y-p_z+1"


# -- sparse monomial keys ------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.integers(0, 3), min_size=6, max_size=6), unique_by=tuple, max_size=12))
def test_grlex_key_orders_sparse_monomials_as_the_dense_key(exponent_vectors):
    """Sorting by ``_grlex_key`` gives the order of the dense key (degree, exponent vector)."""
    dense = [tuple(exps) for exps in exponent_vectors]
    by_sparse = sorted(dense, key=lambda exps: _grlex_key(sparse_key(exps)))
    assert by_sparse == sorted(dense, key=lambda exps: (sum(exps), exps))


@pytest.mark.parametrize(
    "mono, message",
    [
        (((6, 1),), "out of range"),
        (((-1, 1),), "out of range"),
        (((1, 1), (1, 2)), "must increase"),
        (((2, 1), (0, 1)), "must increase"),
        (((0, 0),), "at least 1"),
        (((0, -1),), "at least 1"),
        ((1, 0, 0, 0, 0, 0), "not an \\(index, exponent\\) pair"),
        (((0, 1, 2),), "not an \\(index, exponent\\) pair"),
    ],
)
def test_expression_rejects_a_malformed_monomial_key(mono, message):
    with pytest.raises(ValueError, match=message):
        Expression(VT, {mono: Fraction(1)})
