import random
from fractions import Fraction

import pytest

from symchain import (
    Expression,
    FirstOrderModel,
    ModelFormatError,
    SecondOrderLagrangian,
    VarTable,
    legendre_transform,
    load_model,
    parse_expression,
    save_model,
)

from symchain.expressions import _ONE, _add, _mul
from symchain.model import PrimaryError

import randmodels
from randmodels import random_second_order


def _second_order(coord_names, text):
    coords = VarTable(coord_names)
    table = SecondOrderLagrangian.full_table(coords)
    return SecondOrderLagrangian(coords, parse_expression(text, table))


def test_legendre_mechanical_fixture():
    m = legendre_transform(_second_order(["x", "y", "z"], "xdot*ydot - z*(x+y)"), name="example2")
    assert m.zeta.names == ("x", "y", "z", "p_x", "p_y", "p_z")
    assert str(m.hamiltonian) == "x*z + y*z + p_x*p_y"
    assert [str(e) for e in m.c] == ["p_x", "p_y", "p_z", "0", "0", "0"]
    assert [str(p) for p in m.primaries] == ["p_z"]
    assert m.multiplier_names == ("lam1",)


def test_legendre_free_particle():
    m = legendre_transform(_second_order(["q"], "1/2*qdot^2"), name="free")
    assert str(m.hamiltonian) == "1/2*p_q^2"
    assert m.primaries == ()


def test_legendre_off_diagonal_hessian():
    # hand oracle: W = [[0,1],[1,0]], so v1 = p2, v2 = p1 and
    # H = p1*v1 + p2*v2 - v1*v2 = p1*p2
    m = legendre_transform(_second_order(["q1", "q2"], "q1dot*q2dot"), name="od")
    assert str(m.hamiltonian) == "p_q1*p_q2"
    assert m.primaries == ()


def test_legendre_reproduces_equations_of_motion():
    # with H from the transform, qdot_i = dH/dp_i must invert back to the
    # defining momentum relations at random points: check p_x = dL/dxdot
    # composed with v* is the identity on the solvable block
    m = legendre_transform(_second_order(["x", "y", "z"], "xdot*ydot - z*(x+y)"), name="ex")
    # dH/dp_x = p_y means xdot = p_y, and indeed p_x = dL/dxdot = ydot
    assert str(m.hamiltonian.differentiate("p_x")) == "p_y"
    assert str(m.hamiltonian.differentiate("p_y")) == "p_x"
    # the z-velocity never appears: dH/dp_z = 0
    assert m.hamiltonian.differentiate("p_z").is_zero()


def test_legendre_corank_counts_primaries():
    m = legendre_transform(
        _second_order(["a", "b", "cc"], "1/2*adot^2 + bdot*cc"), name="m"
    )
    # Hessian rank 1 over three velocities: two primaries
    assert len(m.primaries) == 2
    assert {str(p) for p in m.primaries} == {"-cc + p_b", "p_cc"}


def test_legendre_keeps_the_rows_the_hand_pivot_rule_brings_up():
    # W = [[0,0,2],[0,0,3],[2,3,1]]: column 0 pivots on row 2, swapped up, so
    # rows 2 and 1 are kept and row 0 gives the primary, where taking the
    # first independent rows would keep rows 0 and 2 and scale it differently
    m = legendre_transform(_second_order(["x", "y", "z"], "2*xdot*zdot + 3*ydot*zdot + 1/2*zdot^2 + x*ydot"))
    assert [str(p) for p in m.primaries] == ["2/3*x + p_x - 2/3*p_y"]
    assert str(m.hamiltonian) == "1/18*x^2 + 1/6*x*p_x - 1/9*x*p_y - 1/6*p_x*p_y + 1/2*p_x*p_z + 1/18*p_y^2"


def _hand_legendre(l):
    """Reference: H and the primaries from Gauss-Jordan on W by hand, with row swaps, on term maps."""
    n = len(l.coordinates)
    hessian = [[Fraction(0)] * n for _ in range(n)]
    pb = [{((n + i, 1),): _ONE} for i in range(n)]
    c0 = {}
    for mono, coeff in l.lagrangian.terms.items():
        q = tuple(pair for pair in mono if pair[0] < n)
        v = mono[len(q):]
        if not v:
            c0[mono] = coeff
        elif len(v) == 1 and v[0][1] == 1:
            pb[v[0][0] - n][q] = -coeff
        else:
            i, j = v[0][0] - n, v[-1][0] - n
            hessian[i][j] = hessian[j][i] = coeff * v[0][1]
    rhs = [dict(t) for t in pb]
    w = [list(row) for row in hessian]
    pivots = []
    r = 0
    for col in range(n):
        pivot_row = next((i for i in range(r, n) if w[i][col] != 0), None)
        if pivot_row is None:
            continue
        w[r], w[pivot_row] = w[pivot_row], w[r]
        rhs[r], rhs[pivot_row] = rhs[pivot_row], rhs[r]
        inv = 1 / w[r][col]
        w[r] = [x * inv for x in w[r]]
        rhs[r] = _add({}, rhs[r], inv)
        for i in range(n):
            if i != r and w[i][col]:
                factor = w[i][col]
                w[i] = [a - factor * p for a, p in zip(w[i], w[r])]
                _add(rhs[i], rhs[r], -factor)
        pivots.append((r, col))
        r += 1
    solved = {col: rhs[row] for row, col in pivots}
    vstar = [solved.get(i, {}) for i in range(n)]
    h = _add({}, c0, -1)
    for i, vi in enumerate(vstar):
        if vi:
            factor = dict(pb[i])
            for j, x in enumerate(hessian[i]):
                if x:
                    _add(factor, vstar[j], -x / 2)
            _add(h, _mul(vi, factor))
    zeta = SecondOrderLagrangian.phase_space(l.coordinates)
    return str(Expression._trusted(zeta, h)), [str(Expression._trusted(zeta, rhs[i])) for i in range(r, n)]


def _texts(m):
    return str(m.hamiltonian), [str(p) for p in m.primaries]


def _random_singular_lagrangian(rng):
    """L = 1/2 v.W.v + v.B.x - V(x) with W = P^T S P, P k x n sparse, S symmetric, k < n <= 6.

    S often has zero diagonal entries and P unit columns, so W often has
    zero diagonal entries and its pivots need row swaps.
    """
    n = rng.randint(2, 6)
    k = rng.randint(1, n - 1)
    s = [[0] * k for _ in range(k)]
    for a in range(k):
        for b in range(a, k):
            s[a][b] = s[b][a] = rng.choice((0, 0, 1, -1, 2, 3))
    p = [[0] * n for _ in range(k)]
    for i in range(n):
        if rng.random() < 0.6:
            p[rng.randrange(k)][i] = 1
        else:
            for a in range(k):
                p[a][i] = rng.choice((0, 0, 1, -2, Fraction(3, 2)))
    pairs = [(a, b) for a in range(k) for b in range(k)]
    w = [[sum(p[a][i] * s[a][b] * p[b][j] for a, b in pairs) for j in range(n)] for i in range(n)]
    coords = VarTable([f"x{i + 1}" for i in range(n)])
    table = SecondOrderLagrangian.full_table(coords)
    x = [Expression.variable(table, name) for name in table.names[:n]]
    v = [Expression.variable(table, name) for name in table.names[n:]]
    lag = Expression.zero(table)
    for i in range(n):
        for j in range(i, n):
            if w[i][j]:
                lag = lag + (Fraction(w[i][j], 2) if i == j else w[i][j]) * v[i] * v[j]
        for j in range(n):
            if rng.random() < 0.3:
                lag = lag + rng.randint(-2, 2) * x[j] * v[i]
        if rng.random() < 0.5:
            lag = lag - rng.randint(-3, 3) * x[i] * x[rng.randrange(n)]
    return SecondOrderLagrangian(coords, lag)


def test_legendre_matches_hand_gauss_jordan_on_random_singular_hessians():
    rng = random.Random(2023)
    primaries = 0
    for _ in range(400):
        l = _random_singular_lagrangian(rng)
        got = _texts(legendre_transform(l))
        assert got == _hand_legendre(l)
        primaries += len(got[1])
    assert primaries > 400


def test_legendre_matches_hand_gauss_jordan_on_random_second_order(monkeypatch):
    lagrangians = []

    def recorded(l, name):
        lagrangians.append(l)
        return legendre_transform(l, name)

    monkeypatch.setattr(randmodels, "legendre_transform", recorded)
    for seed in range(200):
        m = random_second_order(random.Random(seed))
        assert _texts(m) == _hand_legendre(lagrangians[-1])


def test_legendre_rejects_nonquadratic_and_nonconstant_hessian():
    with pytest.raises(ValueError, match="velocity Hessian is not constant"):
        legendre_transform(_second_order(["q"], "qdot^3"))
    with pytest.raises(ValueError, match="velocity Hessian is not constant"):
        legendre_transform(_second_order(["q"], "q*qdot^2"))
    for text in ("x*xdot^2", "xdot^3", "1/2*ydot^2 + y*xdot*ydot"):
        with pytest.raises(ValueError, match="^velocity Hessian is not constant$"):
            legendre_transform(_second_order(["x", "y"], text))


def test_legendre_coefficients_are_fractions():
    for seed in range(200):
        m = random_second_order(random.Random(seed))
        for e in (*m.c, m.hamiltonian, *m.primaries):
            assert all(type(x) is Fraction for x in e.terms.values()), seed


def test_total_hamiltonian_on_demand():
    from test_chain import total_hamiltonian

    m = legendre_transform(_second_order(["x", "y", "z"], "xdot*ydot - z*(x+y)"), name="ex")
    ht = total_hamiltonian(m)
    assert ht.vars == m.working
    assert str(ht) == "x*z + y*z + p_x*p_y + p_z*lam1"
    assert str(ht.differentiate("p_z")) == "lam1"


def test_load_example2(models_dir, example2):
    expected = legendre_transform(
        _second_order(["x", "y", "z"], "xdot*ydot - z*(x+y)"), name="example2"
    )
    assert example2 == expected


def test_load_schwinger_n3(models_dir):
    m = load_model(models_dir / "schwinger_n3.model")
    assert len(m.zeta) == 18  # 3 fields + 3 momenta, 3 sites each
    assert len(m.primaries) == 3
    assert len(m.c) == 18


def test_save_load_roundtrip(tmp_path, example2, free_particle, models_dir):
    for m in (example2, free_particle, load_model(models_dir / "schwinger_n3.model")):
        path = tmp_path / f"{m.name}.model"
        save_model(m, path)
        assert load_model(path) == m


def test_save_load_roundtrip_takes_str_and_path(tmp_path, example2):
    as_path, as_str = tmp_path / "as_path.model", tmp_path / "as_str.model"
    save_model(example2, as_path)
    save_model(example2, str(as_str))
    assert as_path.read_bytes() == as_str.read_bytes()
    assert load_model(str(as_path)) == load_model(as_str) == example2


def test_load_rejects_duplicate_variables(tmp_path):
    p = tmp_path / "bad.model"
    p.write_text("model bad\nzeta x x\nc 0 0\nH 0\n")
    with pytest.raises(ModelFormatError) as err:
        load_model(p)
    assert err.value.line == 2


def test_load_rejects_mixed_forms(tmp_path):
    p = tmp_path / "bad.model"
    p.write_text("model bad\nvars x\nL 1/2*xdot^2\nH x\nc x 0\n")
    with pytest.raises(ModelFormatError):
        load_model(p)


def test_load_rejects_wrong_c_count(tmp_path):
    p = tmp_path / "bad.model"
    p.write_text("model bad\nzeta x p\nc 0\nH 0\n")
    with pytest.raises(ModelFormatError) as err:
        load_model(p)
    assert "2 entries" in str(err.value)


def test_load_reports_parse_position(tmp_path):
    p = tmp_path / "bad.model"
    p.write_text("model bad\nzeta x p\nc p 0\nH x + nope\n")
    with pytest.raises(ModelFormatError) as err:
        load_model(p)
    assert err.value.line == 4


def test_load_rejects_primary_in_second_order_form(tmp_path):
    p = tmp_path / "bad.model"
    p.write_text("model bad\nvars x\nL 1/2*xdot^2\nprimary x\n")
    with pytest.raises(ModelFormatError):
        load_model(p)


def test_model_invariants():
    zeta = VarTable(["q", "p"])
    q = Expression.variable(zeta, "q")
    p = Expression.variable(zeta, "p")
    zero = Expression.zero(zeta)
    vt1 = VarTable(["q"])
    q1 = Expression.variable(vt1, "q")
    with pytest.raises(ValueError):  # odd phase space
        FirstOrderModel("m", vt1, [q1], q1)
    with pytest.raises(ValueError):  # wrong c length
        FirstOrderModel("m", zeta, [p], zero)
    with pytest.raises(ValueError):  # zero primary
        FirstOrderModel("m", zeta, [p, zero], zero, [zero])
    with pytest.raises(ValueError):  # reserved names
        FirstOrderModel("m", VarTable(["q", "lam1"]), [q, zero], zero)
    # dependent primaries rejected
    zeta4 = VarTable(["q1", "q2", "p1", "p2"])
    p1 = Expression.variable(zeta4, "p1")
    zero4 = Expression.zero(zeta4)
    with pytest.raises(ValueError):
        FirstOrderModel(
            "m", zeta4, [p1, zero4, zero4, zero4], zero4, [p1, 2 * p1]
        )


FIRST = "zeta x p\nc p 0\nH 1/2*p^2\n"
SECOND = "vars x\nL 1/2*xdot^2\n"


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("model a\nmodel b\n" + FIRST, 2, "duplicate 'model' line"),
        ("model a\nvars x\nvars y\nL 1/2*xdot^2\n", 3, "duplicate 'vars' line"),
        ("model a\nzeta x p\nzeta y q\nc p 0\nH 0\n", 3, "duplicate 'zeta' line"),
        ("model a\n" + SECOND + "L 1/2*xdot^2\n", 4, "duplicate 'L' line"),
        ("model a\n" + FIRST + "c p 0\n", 5, "duplicate 'c' line"),
        ("model a\n" + FIRST + "H 0\n", 5, "duplicate 'H' line"),
        ("model a\n# note\nfoo x\n" + FIRST, 3, "unknown keyword 'foo'"),
        ("# note\nmodel\n" + FIRST, 2, "missing model name"),
        ("model\nmodel a\n" + FIRST, 1, "missing model name"),
        ("model\nfoo x\n", 1, "missing model name"),
        ("zeta x p\nc p 0\nH 0\nfoo x\n", 4, "unknown keyword 'foo'"),
        (FIRST, 1, "missing 'model' line"),
        ("model a\n" + SECOND + "H x\n", 3, "give either 'L' or the pair 'c'/'H', not both"),
        ("model a\nzeta x p\n", 1, "model needs 'L' or the pair 'c'/'H'"),
        ("model a\nL 1/2*xdot^2\n", 2, "second-order form needs a 'vars' line"),
        ("model a\n" + SECOND + "zeta x p\n", 4, "'zeta' belongs to the first-order form"),
        ("model a\nvars x\n" + FIRST, 2, "'vars' belongs to the second-order form"),
        ("model a\nc p 0\nH 0\n", 1, "first-order form needs a 'zeta' line"),
        ("model a\nzeta x p\nH 0\n", 2, "first-order form needs both 'c' and 'H'"),
        ("model a\n" + SECOND + "primary x\n", 4,
         "'primary' lines are not allowed in second-order form (primaries are computed)"),
        ("model a\nzeta\nc\nH 0\n", 2, "empty variable list"),
        ("model a\nvars q qdot\nL 1/2*qdot^2\n", 2, "duplicate variable names: qdot"),
        # the phase space's names: the momentum of x clashes with the coordinate p_x
        ("model a\nvars x p_x\nL 1/2*xdot^2 + p_xdot^2\n", 2, "duplicate variable names: p_x"),
        ("model a\nvars lam1\nL lam1dot^2\n", 2, "variable name 'lam1' is reserved"),
        ("model a\nzeta x p\nc p 0\nH\n", 4, "missing expression"),
    ],
)
def test_load_model_error_messages_and_lines(tmp_path, text, line, message):
    p = tmp_path / "bad.model"
    p.write_text(text)
    with pytest.raises(ModelFormatError) as err:
        load_model(p)
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {message}"


def test_load_model_deep_nesting(tmp_path):
    p = tmp_path / "deep.model"
    p.write_text("model deep\nzeta q p\nc p 0\nH " + "(" * 400 + "1/2*p^2" + ")" * 400 + "\n")
    with pytest.raises(ModelFormatError, match="^line 4: parentheses nested too deeply") as err:
        load_model(p)
    assert err.value.line == 4
    # a long run of unary signs is not nesting
    p.write_text("model deep\nzeta q p\nc p 0\nH " + "-" * 3000 + "1/2*p^2\n")
    assert str(load_model(p).hamiltonian) == "1/2*p^2"


def test_load_model_accepts_tabs_after_keywords(tmp_path, example2):
    p = tmp_path / "tabs.model"
    p.write_text(
        "model\texample2\n"
        "zeta\tx y z \t p_x p_y p_z\n"
        "c \tp_x\tp_y p_z 0 0 0\n"
        "H\tp_x*p_y + z*(x+y)\n"
        "primary\t\tp_z\n"
    )
    assert load_model(p) == example2



@pytest.mark.parametrize("primaries", [["1"], ["p", "p + 1"]])
def test_inconsistent_primaries_are_rejected(tmp_path, primaries):
    message = "primary constraints are inconsistent: their span holds the constant 1"
    zeta = VarTable(["x", "p"])
    p = Expression.variable(zeta, "p")
    with pytest.raises(ValueError, match=f"^{message}$"):
        FirstOrderModel(
            "m", zeta, [p, Expression.zero(zeta)], p * p,
            [parse_expression(e, zeta) for e in primaries],
        )
    path = tmp_path / "inconsistent.model"
    path.write_text("model m\n" + FIRST + "".join(f"primary {e}\n" for e in primaries))
    with pytest.raises(ModelFormatError) as err:
        load_model(path)
    # the last primary, after the four header lines, brings 1 into the span
    assert str(err.value) == f"line {4 + len(primaries)}: {message}"


@pytest.mark.parametrize(
    "primaries, message",
    [
        (["0"], "line 5: primary constraint is identically zero"),
        (["p", "x", "0"], "line 7: primary constraint is identically zero"),
        (["p", "2*p"], "line 6: primary constraints are linearly dependent"),
        (["p", "x - 1", "p + 3*x - 3"], "line 7: primary constraints are linearly dependent"),
    ],
)
def test_bad_primaries_are_reported_at_their_line(tmp_path, primaries, message):
    path = tmp_path / "primaries.model"
    path.write_text("model m\n" + FIRST + "".join(f"primary {e}\n" for e in primaries))
    with pytest.raises(ModelFormatError) as err:
        load_model(path)
    assert str(err.value) == message


def test_inconsistent_primary_is_reported_at_its_index():
    zeta = VarTable(["x", "p"])
    x, p = Expression.variable(zeta, "x"), Expression.variable(zeta, "p")
    message = "^primary constraints are inconsistent: their span holds the constant 1$"
    with pytest.raises(PrimaryError, match=message) as err:
        FirstOrderModel("m", zeta, [p, Expression.zero(zeta)], p * p, [x, x + 1])
    assert err.value.index == 1


def test_affine_primaries_with_a_common_zero_load(tmp_path):
    path = tmp_path / "affine.model"
    path.write_text("model m\n" + FIRST + "primary p + 1\nprimary x - 2\n")
    assert len(load_model(path).primaries) == 2
