import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from symchain import (
    Candidate,
    ChainError,
    ChainOptions,
    Constraint,
    EchelonBasis,
    Expression,
    FirstOrderModel,
    LatticeSpec,
    RationalMatrix,
    VarTable,
    assemble_extended_matrix,
    build_schwinger,
    compare_spans,
    consistency_algorithm,
    determinant,
    left_null_space,
    parse_expression,
    rank,
    run_chain,
)
from golden import (
    F1_GOLDEN,
    F2_GOLDEN,
    F3_GOLDEN,
    F3_TRUNCATED_GOLDEN,
    FINAL_DETERMINANT,
    PUBLISHED_CONSTRAINTS,
    RHS_LEVEL1,
    V1,
    V2,
    V3,
    is_scalar_multiple,
)
from polyref import linear_coefficients, relabel
from randmodels import random_model, random_scaled_model, random_second_order
from symchain import chain, expressions, linalg
from symchain.expressions import _form_expression, _sums_expression, _sums_form
from symchain.linalg import SparseEchelon, _combine, _integral
from test_byte_identity import _nonzero_rational, _shift_chain
from test_expressions import sparse_key
from test_linalg import bareiss_determinant, dense_form, sparse_form


def published(example2, upto):
    """Constraint objects carrying the published representatives as raw."""
    return [
        Constraint.from_raw(i + 1, parse_expression(text, example2.zeta), "primary" if i == 0 else "null-vector")
        for i, text in enumerate(PUBLISHED_CONSTRAINTS[:upto])
    ]


def total_hamiltonian(m):
    """H_T = H + sum_mu lam_mu * phi_mu over the working table (zeta, then the multipliers)."""
    table = m.working
    total = relabel(m.hamiltonian, table)
    for name, prim in zip(m.multiplier_names, m.primaries):
        total = total + Expression.variable(table, name) * relabel(prim, table)
    return total


def total_hamiltonian_rhs(m, constraints):
    """grad H_T over zeta, padded with one zero per constraint row: the multiplier-bearing rhs.

    Contracted with a null vector of a matrix that every primary borders,
    the multipliers cancel and the result is v . grad(H) over zeta.
    """
    grad = total_hamiltonian(m).gradient()[: len(m.zeta)]
    return grad + (Expression.zero(m.working),) * len(constraints)


def contract(m, v, rhs):
    assert len(v) == len(rhs)
    return Expression.linear_combination(m.working, zip(v, rhs))


def reference_candidates(m, f, cs):
    """The candidates of the bordered matrix ``f`` of ``cs``, from public pieces only.

    Each canonical left null vector v of ``f`` gives v . grad(H) over
    zeta (grad(H) has no entries for the constraint rows); in basis
    order, a candidate is NEW iff the span of ``cs`` and the NEW ones
    before it does not hold it.
    """
    grad_h = m.hamiltonian.gradient()
    known = EchelonBasis(m.zeta)
    for c in cs:
        known.add(c.expr)
    out = []
    for v in left_null_space(f):
        value = Expression.linear_combination(m.zeta, zip(v, grad_h))
        out.append(Candidate(v, value, "new" if known.add(value) else "redundant"))
    return out


def test_base_tensor_is_canonical_block(example2):
    f = assemble_extended_matrix(example2, [])
    expected = [[Fraction(0)] * 6 for _ in range(6)]
    for i in range(3):
        expected[i][3 + i] = Fraction(-1)
        expected[3 + i][i] = Fraction(1)
    assert f == RationalMatrix(expected)


def test_base_tensor_antisymmetric_and_zero_c():
    zeta = VarTable(["q", "p"])
    zero = Expression.zero(zeta)
    m = FirstOrderModel("null", zeta, [zero, zero], zero)
    f = assemble_extended_matrix(m, [])
    assert f == RationalMatrix([[0, 0], [0, 0]])

    # nonlinear c has a non-constant tensor, which the exact chain rejects
    q = Expression.variable(zeta, "q")
    p = Expression.variable(zeta, "p")
    m2 = FirstOrderModel("nl", zeta, [q * p, zero], zero)
    with pytest.raises(ChainError):
        assemble_extended_matrix(m2, [])


def test_assembled_matrices_match_published_forms(example2):
    f1 = assemble_extended_matrix(example2, published(example2, 1))
    f2 = assemble_extended_matrix(example2, published(example2, 2))
    f3 = assemble_extended_matrix(example2, published(example2, 3))
    f3t = assemble_extended_matrix(example2, published(example2, 3), truncated=True)
    assert f1 == RationalMatrix(F1_GOLDEN)
    assert f2 == RationalMatrix(F2_GOLDEN)
    assert f3 == RationalMatrix(F3_GOLDEN)
    assert f3t == RationalMatrix(F3_TRUNCATED_GOLDEN)
    assert (f3t.rows, f3t.cols) == (9, 7)


def test_assemble_level_zero_is_base_tensor(example2):
    # f_ab = d_a c_b - d_b c_a, read off the gradients of the c entries
    for m in (example2, build_schwinger(LatticeSpec(sites=3))):
        assert all(cb.is_linear() for cb in m.c)
        d = [[g.terms.get((), 0) for g in cb.gradient()] for cb in m.c]  # d[b][a] = d_a c_b
        n = len(m.zeta)
        expected = RationalMatrix([[d[b][a] - d[a][b] for b in range(n)] for a in range(n)])
        assert assemble_extended_matrix(m, []) == expected


def test_assemble_requires_consecutive_levels(example2):
    lonely = [Constraint.from_raw(2, parse_expression("p_z", example2.zeta), "null-vector")]
    with pytest.raises(ValueError):
        assemble_extended_matrix(example2, lonely)


def test_assemble_rejects_constraints_over_a_foreign_table(example2):
    # over the working table the gradient reaches past the coordinate
    # columns; over another six-name table it would be placed by position
    working = parse_expression("p_z + lam1", example2.working)
    other = parse_expression("d", VarTable(["a", "b", "c", "d", "e", "f"]))
    for raw in (working, other):
        with pytest.raises(ValueError, match="^constraints must live over the model's zeta table$"):
            assemble_extended_matrix(example2, [Constraint.from_raw(1, raw, "primary")])


def test_assembled_untruncated_is_antisymmetric(example2):
    for upto in (1, 2, 3):
        m = assemble_extended_matrix(example2, published(example2, upto))
        assert RationalMatrix(zip(*m.to_rows())) == RationalMatrix(
            [[-x for x in row] for row in m.to_rows()]
        )


def test_rhs_level1(example2):
    rhs = total_hamiltonian_rhs(example2, published(example2, 1))
    assert [str(e) for e in rhs] == RHS_LEVEL1
    # the chain's rhs is the same gradient over zeta with the multipliers dropped
    assert [str(e) for e in example2.hamiltonian.gradient()] == RHS_LEVEL1[:5] + ["0"]


def test_rhs_no_constraints_zero_hamiltonian():
    zeta = VarTable(["q", "p"])
    zero = Expression.zero(zeta)
    m = FirstOrderModel("flat", zeta, [Expression.variable(zeta, "p"), zero], zero)
    rhs = total_hamiltonian_rhs(m, [])
    assert all(e.is_zero() for e in rhs)
    assert len(rhs) == 2


def test_null_bases_of_published_matrices(example2):
    b1 = left_null_space(RationalMatrix(F1_GOLDEN))
    assert len(b1) == 1 and is_scalar_multiple(b1[0], [Fraction(v) for v in V1])

    b2 = left_null_space(RationalMatrix(F2_GOLDEN))
    assert len(b2) == 2
    assert any(is_scalar_multiple(v, [Fraction(x) for x in V2]) for v in b2)


def test_find_new_constraints_classification(example2):
    known1 = published(example2, 1)
    f1 = assemble_extended_matrix(example2, known1)
    cands = reference_candidates(example2, f1, known1)
    assert len(cands) == 1
    assert cands[0].classification == "new"
    # raw value proportional to the published -x-y, normalized monic
    assert is_scalar_multiple(
        linear_coefficients(cands[0].value)[0],
        linear_coefficients(parse_expression("-x-y", example2.zeta))[0],
    )
    assert cands[0].value.vars == example2.zeta
    assert str(cands[0].value.monic()) == "x + y"

    # untruncated level 3: a null vector exists (rows 3 and 7 coincide)
    # but its candidate lies in the level-2 span
    known3 = published(example2, 3)
    f3 = assemble_extended_matrix(example2, known3)
    cands3 = reference_candidates(example2, f3, known3)
    assert [list(c.vector) for c in cands3] == [[0, 0, 1, 0, 0, 0, -1, 0, 0]]
    assert all(c.classification == "redundant" for c in cands3)
    assert str(cands3[0].value) == "x + y"

    # truncated level 3 recovers the final constraint
    f3t = assemble_extended_matrix(example2, known3, truncated=True)
    cands3t = reference_candidates(example2, f3t, known3)
    news = [c for c in cands3t if c.classification == "new"]
    assert len(news) == 1
    assert is_scalar_multiple(
        linear_coefficients(news[0].value)[0],
        linear_coefficients(parse_expression("-2*z", example2.zeta))[0],
    )
    assert is_scalar_multiple(news[0].vector, [Fraction(v) for v in V3])


def test_unbordered_primaries_keep_their_multiplier():
    # inside run_chain the auxiliary columns force every null vector to
    # be orthogonal to the primary gradients, so the multipliers cancel;
    # at level 0, where the borders are absent, one survives
    zeta = VarTable(["q", "p"])
    zero = Expression.zero(zeta)
    q = Expression.variable(zeta, "q")
    m = FirstOrderModel("fix", zeta, [zero, zero], zero, [q])
    f0 = assemble_extended_matrix(m, [])
    rhs = total_hamiltonian_rhs(m, [])
    assert [str(e) for e in rhs] == ["lam1", "0"]
    assert [str(contract(m, v, rhs)) for v in left_null_space(f0)] == ["lam1", "0"]


def _chain_error_model(h, primary):
    zeta = VarTable(["x", "y", "p_x", "p_y"])
    c = [parse_expression(t, zeta) for t in ("p_x", "p_y", "0", "0")]
    return FirstOrderModel("m", zeta, c, parse_expression(h, zeta), [parse_expression(primary, zeta)])


@pytest.mark.parametrize("h, primary, message", [
    ("p_x^2", "x^2", "constraint gradient is not constant; the exact chain supports "
     "linear constraints only (level 1 constraint: x^2)"),
    ("p_x^2 + y*x^2", "p_y", "nonlinear constraint candidate: reduction against the existing set "
     "is supported for linear constraints only (level 2 candidate: x^2)"),
    ("p_x^2 + y", "p_y", "inconsistent dynamics: a consistency condition reduces to the nonzero "
     "constant 1 (level 2 candidate: 1)"),
])
def test_chain_errors_name_their_level_and_expression(h, primary, message):
    with pytest.raises(ChainError) as err:
        run_chain(_chain_error_model(h, primary))
    assert str(err.value) == message


def test_run_chain_mechanical_fixture(example2):
    report = run_chain(example2)
    assert report.termination.kind == "nonsingular"
    assert report.termination.determinant == FINAL_DETERMINANT
    assert report.termination.level == 4
    assert report.truncations == (3,)
    assert [c.level for c in report.constraints] == [1, 2, 3, 4]
    for c, text in zip(report.constraints, PUBLISHED_CONSTRAINTS):
        expected = parse_expression(text, example2.zeta)
        assert is_scalar_multiple(
            linear_coefficients(c.raw)[0], linear_coefficients(expected)[0]
        )
    origins = [c.origin for c in report.constraints]
    assert origins == ["primary", "null-vector", "null-vector", "truncated-null-vector"]


def shift_chain(k):
    """H = sum_i p_i q_{i+1} + q_1^2 with primary p_k: a chain of 2k constraints."""
    zeta = VarTable([f"q_{i}" for i in range(1, k + 1)] + [f"p_{i}" for i in range(1, k + 1)])
    q = [Expression.variable(zeta, f"q_{i}") for i in range(1, k + 1)]
    p = [Expression.variable(zeta, f"p_{i}") for i in range(1, k + 1)]
    h = q[0] * q[0]
    for i in range(k - 1):
        h = h + p[i] * q[i + 1]
    return FirstOrderModel(f"shift_chain_{k}", zeta, p + [Expression.zero(zeta)] * k, h, [p[-1]])


def primary_free():
    """No primaries: the truncation keeps the derived level-1 columns."""
    zeta = VarTable(["x", "y", "z", "w", "p_x", "p_y"])
    c = [parse_expression(t, zeta) for t in ("p_x", "p_y", "0", "0", "0", "0")]
    h = parse_expression("p_x*p_y + z*x + z*y + w^2", zeta)
    return FirstOrderModel("primary_free", zeta, c, h)


@pytest.mark.parametrize("name", ["example2", "shift_chain_4", "lattice_3", "primary_free"])
def test_run_chain_eigenvectors_annihilate(name, example2):
    # run_chain reads the determinant off the elimination that finds the
    # null space empty, so this is what pins the singular levels down
    model = {
        "example2": lambda: example2,
        "shift_chain_4": lambda: shift_chain(4),
        "lattice_3": lambda: build_schwinger(LatticeSpec(sites=3)),
        "primary_free": primary_free,
    }[name]()
    report = run_chain(model)
    if name == "primary_free":
        assert [(rec.shape, rec.truncated) for rec in report.levels] == [
            ((6, 6), False), ((8, 8), False), ((9, 9), False), ((9, 8), True)
        ]
        assert report.termination.kind == "exhausted"
    if report.termination.kind == "nonsingular":
        final = assemble_extended_matrix(model, report.constraints)
        assert report.termination.determinant == bareiss_determinant(final.to_rows())
    singular = [rec for rec in report.levels if not rec.truncated and rec.candidates]
    assert singular
    assert_public_classification_matches(model, report)
    for rec in report.levels:
        cs = [c for c in report.constraints if c.level <= rec.level]
        f = assemble_extended_matrix(model, cs, truncated=rec.truncated)
        assert (f.rows, f.cols) == rec.shape
        assert len(rec.candidates) == f.rows - rank(f)
        for cand in rec.candidates:
            # nonzero int pairs in ascending order, each index one of the f.rows rows
            v = dense_form(cand.vector, f.rows)
            assert sparse_form(v) == cand.vector
            for j in range(f.cols):
                assert sum(v[i] * f.entry(i, j) for i in range(f.rows)) == 0


def assert_public_classification_matches(model, report):
    """``reference_candidates``, on a fresh dense elimination, gives every record's candidates.

    Every untruncated record's matrix is antisymmetric, and every
    candidate vector contracted with the multiplier-bearing grad(H_T)
    gives the candidate's value: the multipliers cancel.
    """
    for rec in report.levels:
        cs = [c for c in report.constraints if c.level <= rec.level]
        f = assemble_extended_matrix(model, cs, truncated=rec.truncated)
        if not rec.truncated:
            assert RationalMatrix(zip(*f.to_rows())) == RationalMatrix([[-x for x in row] for row in f.to_rows()])
        cands = reference_candidates(model, f, cs)
        assert [(sparse_form(c.vector), str(c.value), c.classification) for c in cands] == [
            (c.vector, str(c.value), c.classification) for c in rec.candidates
        ]
        rhs = total_hamiltonian_rhs(model, cs)
        for c in rec.candidates:
            assert contract(model, dense_form(c.vector, f.rows), rhs) == relabel(c.value, model.working)


def test_run_chain_unconstrained(free_particle):
    report = run_chain(free_particle)
    assert report.constraints == ()
    assert report.termination.kind == "nonsingular"
    assert report.termination.determinant == 1


def test_run_chain_max_level(example2):
    report = run_chain(example2, ChainOptions(max_level=2))
    assert report.termination.kind == "max-level-reached"
    assert report.num_levels() == 3


def test_run_chain_without_truncation(example2):
    report = run_chain(example2, ChainOptions(allow_truncation=False))
    assert report.termination.kind == "exhausted"
    assert report.warnings
    assert report.num_levels() == 3


def test_run_chain_extracts_zero_modes_of_the_base_tensor():
    # with c identically zero the equations of motion are algebraic;
    # every base-tensor null direction yields a level-1 constraint
    zeta = VarTable(["q", "p"])
    zero = Expression.zero(zeta)
    q = Expression.variable(zeta, "q")
    p = Expression.variable(zeta, "p")
    m = FirstOrderModel("static", zeta, [zero, zero], q * q + p * p)
    report = run_chain(m)
    assert [(c.level, str(c.expr)) for c in report.constraints] == [(1, "q"), (1, "p")]
    assert report.termination.kind == "nonsingular"


@pytest.mark.parametrize("scale", [Fraction(1), Fraction(2, 3)])
def test_run_chain_rejects_a_null_vector_that_does_not_annihilate(example2, scale, monkeypatch):
    """The integer certificate check catches a wrong null vector whose candidate is redundant."""
    m = FirstOrderModel(
        "scaled", example2.zeta, example2.c, example2.hamiltonian, [p * scale for p in example2.primaries]
    )

    solve = chain._solve

    def wrong_basis(state, kept, n_zeta, n, built):
        # the primary's row: v . grad(H) ignores it, but its column entry is -scale
        return (((n - 1, 1),),), solve(state, kept, n_zeta, n, built)[1]

    monkeypatch.setattr(chain, "_solve", wrong_basis)
    with pytest.raises(ChainError, match="^certificate mismatch: a null vector does not annihilate F$"):
        run_chain(m)


def _deep_shift_chain():
    """The 24-coordinate shift chain of the deep-chain digest: 35 attempts, 11 of them truncated."""
    rng = random.Random(0)
    return _shift_chain(tuple(_nonzero_rational(rng) for _ in range(12)))


CARRY_MODELS = {
    "shift_chain": lambda: [(_deep_shift_chain(), ChainOptions(max_level=64))],
    "lattice_5_3/7": lambda: [(build_schwinger(LatticeSpec(sites=5, spacing=Fraction(3, 7))), None)],
    "lattice_4_forward": lambda: [(build_schwinger(LatticeSpec(sites=4, scheme="forward")), None)],
    "randmodels": lambda: [(random_model(random.Random(seed)), None) for seed in range(200)],
}


@pytest.mark.parametrize("name", sorted(CARRY_MODELS))
def test_carried_elimination_equals_a_fresh_one(name, monkeypatch):
    """Every attempt's (null basis, determinant) is that of its freshly assembled matrix.

    The chain carries the constraint columns' elimination across the
    levels and borders its integer columns in place, rescaling one when
    a fractional gradient entry needs it.
    """
    results = []
    solve = chain._solve
    monkeypatch.setattr(chain, "_solve", lambda *args: results.append(solve(*args)) or results[-1])
    attempts = truncated = 0
    for model, opts in CARRY_MODELS[name]():
        results.clear()
        report = run_chain(model, opts)
        assert len(results) == len(report.levels)
        for rec, got in zip(report.levels, results):
            so_far = [c for c in report.constraints if c.level <= rec.level]
            f = assemble_extended_matrix(model, so_far, truncated=rec.truncated)
            assert got == (tuple(map(sparse_form, left_null_space(f))), determinant(f) if f.is_square else None)
        attempts += len(report.levels)
        truncated += sum(rec.truncated for rec in report.levels)
    if name == "shift_chain":
        assert (attempts, truncated) == (35, 11)


def test_run_chain_scales_and_eliminates_each_column_once(monkeypatch):
    """On the deep shift chain: no column is rescaled to ints per attempt, no constraint column re-eliminated."""
    scaled = []
    integral = linalg._integral
    absorbed = []
    absorb = SparseEchelon.absorb

    def counted(vec):
        scaled.append(vec)
        return integral(vec)

    def recorded(self, cols):
        # the chain's columns are keyed ~i; an EchelonBasis absorbs forms keyed by variable
        if all(key < 0 for vec, _ in cols for key in vec):
            absorbed.append(len(cols))
        return absorb(self, cols)

    monkeypatch.setattr(linalg, "_integral", counted)
    monkeypatch.setattr(chain, "_integral", counted)
    monkeypatch.setattr(expressions, "_integral", counted)
    monkeypatch.setattr(SparseEchelon, "absorb", recorded)
    report = run_chain(_deep_shift_chain(), ChainOptions(max_level=64))
    n_zeta, n_constraints = 24, len(report.constraints)
    assert report.levels[-1].shape == (n_zeta + n_constraints,) * 2
    # at most once per column as it is created and once per constraint as it joins the span
    # (each entry of c and of grad(H) once, the primary's raw and monic forms once each)
    assert len(scaled) <= n_zeta + 2 * n_constraints == 72
    # each constraint column once, at its border; each attempt its coordinate columns
    assert sorted(absorbed) == [1] * n_constraints + [n_zeta] * len(report.levels)


def test_run_chain_checks_linearity_once_per_model_input(monkeypatch):
    """On the deep shift chain no derived constraint or candidate calls ``Expression.is_linear``.

    Its integer affine form already says whether it is linear; at most the 24 entries
    of c and the one primary may call it (72 calls when each level checked again).
    """
    model = _deep_shift_chain()
    calls = []
    is_linear = Expression.is_linear
    monkeypatch.setattr(Expression, "is_linear", lambda self: calls.append(self) or is_linear(self))
    report = run_chain(model, ChainOptions(max_level=64))
    assert len(report.constraints) == 24
    assert len(calls) <= 26


def _counted_absorb(monkeypatch) -> list:
    """Wrap ``SparseEchelon.absorb``: each call appends (kernel, whether it tracks a determinant, column count)."""
    calls = []
    absorb = SparseEchelon.absorb

    def counted(self, cols):
        cols = list(cols)
        calls.append((self, self.num != 0, len(cols)))
        return absorb(self, cols)

    monkeypatch.setattr(SparseEchelon, "absorb", counted)
    return calls


def test_one_lattice_verdict_makes_at_most_100_absorb_calls(monkeypatch):
    """Lattice N=11: ``run_chain``, the oracle and ``compare_spans`` (241 calls with one call per constraint)."""
    model = build_schwinger(LatticeSpec(sites=11))
    calls = _counted_absorb(monkeypatch)
    report = run_chain(model)
    assert compare_spans(report, consistency_algorithm(model).constraints).equal
    assert len(calls) <= 100


def test_span_takes_its_expressions_in_one_absorb_call(monkeypatch):
    zeta = VarTable(["x", "y", "z"])
    exprs = [parse_expression(text, zeta) for text in ("x + y", "2*x - z", "3*y + z + 1", "x + y")]
    calls = _counted_absorb(monkeypatch)
    basis, rows = chain._span(exprs)
    assert [k for _, _, k in calls] == [len(exprs)]
    assert len(rows) == 3


@pytest.mark.parametrize("name", ["shift_chain", "lattice_5_3/7", "lattice_4_forward"])
def test_run_chain_borders_the_primaries_and_each_level_in_one_absorb_call(monkeypatch, name):
    """The kernel that tracks F's determinant takes in the primaries, then each level's new constraints.

    Its first call is the first made on a kernel that tracks a determinant; every attempt reduces a copy.
    """
    ((model, opts),) = CARRY_MODELS[name]()
    calls = _counted_absorb(monkeypatch)
    report = run_chain(model, opts)
    full = next(kernel for kernel, tracked, _ in calls if tracked)
    sizes = Counter(c.level for c in report.constraints)
    assert [k for kernel, _, k in calls if kernel is full] == [sizes[level] for level in sorted(sizes)]


def test_run_chain_builds_each_distinct_null_vector_once(monkeypatch):
    """On the deep shift chain: 342 candidates over its attempts, 23 distinct vectors, 23 built."""
    built = []
    null_vector = linalg._null_vector

    def counted(f, entries):
        built.append(f)
        return null_vector(f, entries)

    monkeypatch.setattr(linalg, "_null_vector", counted)
    report = run_chain(_deep_shift_chain(), ChainOptions(max_level=64))
    vectors = [c.vector for rec in report.levels for c in rec.candidates]
    assert (len(built), len(set(vectors)), len(vectors)) == (23, 23, 342)


def _classify_without_memo(null, grad_h, zeta, known, level, seen):
    """``chain._classify`` as it was before the per-run memo: every null vector is contracted and reduced.

    Each value and form is still stored in ``seen``, which ``run_chain`` borders each NEW constraint from.
    """
    out = []
    n_zeta = len(grad_h)
    for v in null:
        acc, den = _combine([(k, *grad_h[i]) for i, k in v if i < n_zeta])
        form = _sums_form(acc, den, n_zeta)
        if form is None:
            raise ChainError(
                "nonlinear constraint candidate: reduction against the existing set is supported for "
                f"linear constraints only (level {level} candidate: {_sums_expression(zeta, acc, den)})"
            )
        value = _form_expression(zeta, *form)
        seen[v] = value, form
        try:
            new = known._add_form(*form)
        except ValueError as err:
            raise ChainError(f"{err} (level {level} candidate: {value})") from None
        out.append(Candidate(vector=v, value=value, classification=chain.NEW if new else chain.REDUNDANT))
    return out


MEMO_MODELS = {
    "randmodels": lambda: [
        (make(random.Random(seed)), None)
        for make in (random_model, random_scaled_model, random_second_order)
        for seed in range(200)
    ],
    "lattice": lambda: [
        (build_schwinger(spec), None)
        for spec in [LatticeSpec(sites=n, spacing=Fraction(a)) for n in (3, 5, 7) for a in (1, "3/7")]
        + [LatticeSpec(sites=n, scheme="forward") for n in (4, 6)]
    ],
    "shift_chain": lambda: [
        (_deep_shift_chain(), ChainOptions(max_level=64)),
        (_shift_chain(tuple(_nonzero_rational(random.Random(1)) for _ in range(12))), ChainOptions(max_level=64)),
    ],
}


@pytest.mark.parametrize("name", sorted(MEMO_MODELS))
def test_classification_memo_matches_a_memo_free_reference(name, monkeypatch):
    """Each null vector met again in a run takes its first value and REDUNDANT; the reference classifies it afresh.

    Every level record (shape, vectors, values, classifications) and the whole report must agree.
    """
    repeats = 0
    for model, opts in MEMO_MODELS[name]():
        report = run_chain(model, opts)
        with monkeypatch.context() as patched:
            patched.setattr(chain, "_classify", _classify_without_memo)
            reference = run_chain(model, opts)
        assert len(report.levels) == len(reference.levels)
        for rec, ref in zip(report.levels, reference.levels):
            assert rec == ref
        assert report == reference
        vectors = [cand.vector for rec in report.levels for cand in rec.candidates]
        repeats += len(vectors) - len(set(vectors))
    assert repeats > 0


def test_run_chain_classifies_each_distinct_null_vector_once(monkeypatch):
    """On the deep shift chain, 342 candidates hold 23 distinct vectors, and each is reduced against the span once.

    A vector met again is REDUNDANT, with the value object of its first sighting.
    """
    reduced = []
    add_form = EchelonBasis._add_form
    monkeypatch.setattr(EchelonBasis, "_add_form", lambda self, *args: reduced.append(args) or add_form(self, *args))
    report = run_chain(_deep_shift_chain(), ChainOptions(max_level=64))
    candidates = [cand for rec in report.levels for cand in rec.candidates]
    first: dict = {}
    for cand in candidates:
        if cand.vector in first:
            assert cand.classification == chain.REDUNDANT
            assert cand.value is first[cand.vector].value
        else:
            first[cand.vector] = cand
    assert (len(candidates), len(first), len(reduced)) == (342, 23, 23)


def test_run_chain_rejects_nonlinear_tensor():
    zeta = VarTable(["q", "p"])
    q = Expression.variable(zeta, "q")
    p = Expression.variable(zeta, "p")
    m = FirstOrderModel("nl", zeta, [q * p, Expression.zero(zeta)], q)
    with pytest.raises(ChainError):
        run_chain(m)


def test_constraints_independent_at_acceptance():
    rng = random.Random(31)
    for _ in range(25):
        m = random_model(rng)
        report = run_chain(m, ChainOptions(max_level=8))
        assert_public_classification_matches(m, report)
        rows = []
        for c in report.constraints:
            coeffs, const = linear_coefficients(c.expr)
            rows.append(list(coeffs) + [const])
        if rows:
            from symchain import rank

            assert rank(RationalMatrix(rows)) == len(rows)


def test_span_fingerprint_is_scale_invariant(example2):
    a = run_chain(example2).span_fingerprint()
    # same span described through the published signs
    from symchain import span_fingerprint

    b = span_fingerprint(
        [parse_expression(t, example2.zeta) for t in PUBLISHED_CONSTRAINTS]
    )
    assert a == b


COMBO = VarTable(["x", "y", "p_x", "p_y"])
_combo_exprs = st.dictionaries(
    # degree <= 3 monomials: the variables at up to three drawn indices
    st.lists(st.integers(0, 3), max_size=3).map(lambda ix: sparse_key(ix.count(i) for i in range(4))),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 5])),
    max_size=5,
).map(lambda terms: Expression(COMBO, terms))
_CANCELLING = [parse_expression(t, COMBO) for t in ("x^3 + 1/2*x*y", "-x^3 - 1/2*x*y + p_y", "-p_y")]
_CUBIC_GRADIENT = list(parse_expression("x^3*y + 2/3*p_x^2*x - y + p_x*p_y", COMBO).gradient())


@settings(max_examples=200, deadline=None)
@given(
    st.lists(_combo_exprs, min_size=1, max_size=5).flatmap(
        lambda exprs: st.tuples(
            st.just(exprs),
            st.dictionaries(st.integers(0, len(exprs) - 1), st.integers(-5, 5).filter(bool)),
        )
    ),
    st.integers(1, 12),
)
@example((_CANCELLING, {0: 2, 1: 2}), 3)
@example((_CANCELLING, {0: 1, 1: 1, 2: 1}), 1)
@example((_CUBIC_GRADIENT, {0: 3, 3: -2}), 7)
def test_gradient_combination_matches_linear_combination(case, scale):
    """sum_i v_i e_i / scale, from ``_combine`` over the (vec, scale) pairs of the e_i, equals the Fraction sum."""
    exprs, v = case
    acc, den = _combine([(k, *_integral(exprs[i].terms)) for i, k in v.items()])
    got = Expression._trusted(COMBO, {mono: Fraction(s, den * scale) for mono, s in acc.items()})
    weights = ((Fraction(k, scale), exprs[i]) for i, k in v.items())
    assert got == Expression.linear_combination(COMBO, weights)
    assert all(got.terms.values())
