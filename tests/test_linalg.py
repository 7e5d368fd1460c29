import math
import random
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from symchain.expressions import EchelonBasis, Expression, VarTable
from symchain.linalg import SparseEchelon, _combine, _integral, _put
from golden import F1_GOLDEN, F3_TRUNCATED_GOLDEN, V1, V3, is_scalar_multiple
from polyref import from_sympy, sympy_left_null_basis, sympy_matrix


def cofactor_determinant(rows):
    """Independent oracle: Laplace expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * cofactor_determinant(minor)
    return total


def bareiss_determinant(rows):
    """Independent oracle: dense fraction-free (Bareiss) elimination.

    Denominators are cleared row by row, the integer Bareiss recurrence
    runs division-free except for the exact interior division, and the
    accumulated row scales are divided back out at the end.
    """
    n = len(rows)
    scale = Fraction(1)
    a = []
    for row in rows:
        mult = math.lcm(*(Fraction(x).denominator for x in row))
        scale *= mult
        a.append([int(Fraction(x) * mult) for x in row])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return Fraction(sign * a[n - 1][n - 1]) / scale


class FractionEchelon:
    """Reference elimination kernel: Gauss-Jordan on sparse Fraction rows.

    The library kernel before it moved to primitive integer rows, kept
    as an independent reference.  ``rows`` maps each pivot column to its
    row in reduced row-echelon form: 1 at its pivot, its first nonzero
    column, and 0 at every other row's pivot.
    """

    def __init__(self, vectors=()):
        self.rows = {}
        for vec in vectors:
            self.add(vec)

    def reduce(self, vec):
        """Reduce ``vec`` in place to the member of ``vec`` + span that is 0 at every pivot."""
        for col in [c for c in vec if c in self.rows]:
            _axpy(vec, -vec[col], self.rows[col])
        return vec

    def add(self, vec):
        vec = self.reduce(dict(vec))
        if not vec:
            return False
        pivot = min(vec)
        inv = 1 / Fraction(vec[pivot])
        new = {col: x * inv for col, x in vec.items()}
        for row in self.rows.values():
            factor = row.get(pivot)
            if factor:
                _axpy(row, -factor, new)
        self.rows[pivot] = new
        return True

    def sorted_rows(self):
        return [self.rows[col] for col in sorted(self.rows)]


def _axpy(target, factor, row):
    """target += factor * row, dropping entries that cancel."""
    for col, x in row.items():
        value = target.get(col, 0) + factor * x
        if value:
            target[col] = value
        else:
            del target[col]


def sparse_form(v):
    """A dense null vector as ``SparseEchelon.null_basis`` gives it: its nonzero (index, int) pairs, ascending."""
    return tuple((i, x) for i, x in enumerate(v) if x)


def dense_form(pairs, n):
    """The n-entry int vector whose nonzero entries are the (index, int) ``pairs``."""
    v = [0] * n
    for i, x in pairs:
        v[i] = x
    return tuple(v)


def two_pass_null_space(cols, n):
    """Reference for the kernel's left null basis and determinant of sparse columns: two eliminations.

    The columns are eliminated on ``FractionEchelon`` with
    smallest-index pivots, tracking the determinant as the signed
    product of the pivot entries.  Each free row then gives a null
    vector (1 there, minus the reduced entries at the pivots), and a
    second elimination brings those vectors to the reduced row-echelon
    basis, scaled to primitive integer rows.
    """
    kernel = FractionEchelon()
    det = Fraction(1)
    for col in cols:
        vec = kernel.reduce(dict(col))
        if not vec:
            det = Fraction(0)
            continue
        pivot = min(vec)
        if det and sum(row > pivot for row in kernel.rows) % 2:
            det = -det
        det *= vec[pivot]
        kernel.add(vec)
    null = FractionEchelon()
    for free in range(n):
        if free not in kernel.rows:
            vec = {row: -entries[free] for row, entries in kernel.rows.items() if free in entries}
            vec[free] = Fraction(1)
            null.add(vec)
    basis = []
    for row in null.sorted_rows():
        mult = math.lcm(*(x.denominator for x in row.values()))
        basis.append(tuple(row.get(i, Fraction(0)) * mult for i in range(n)))
    return tuple(basis), det if len(cols) == n else None


def gauss_rank(rows):
    """Independent oracle: plain fraction Gaussian elimination."""
    rows = [list(r) for r in rows]
    nrows, ncols = len(rows), len(rows[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, nrows):
            if rows[i][c]:
                f = rows[i][c] / rows[r][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def random_matrix(rng, n, m=None):
    m = m or n
    return [
        [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m)]
        for _ in range(n)
    ]


def eliminated(rows):
    """A fresh ``SparseEchelon`` that has absorbed the columns of the rational ``rows``, tracking their determinant."""
    kernel = SparseEchelon()
    kernel.num = 1
    return kernel.absorb(_integral({~i: x for i, x in enumerate(col) if x}) for col in zip(*rows))


def kernel_determinant(rows):
    """The determinant of the square ``rows``, as the kernel tracks it."""
    kernel = eliminated(rows)
    return Fraction(kernel.num, kernel.den)


def kernel_null_space(rows):
    """The kernel's canonical left null basis of ``rows``, each vector as its dense tuple of ints."""
    return tuple(dense_form(v, len(rows)) for v in eliminated(rows).null_basis(len(rows)))


def kernel_rank(rows):
    return len(eliminated(rows).rows)


def _identity(n):
    return [[int(i == j) for j in range(n)] for i in range(n)]


def test_determinant_identity_and_errors():
    # the kernel has no argument checks of its own; a zero row is a zero determinant
    for n in (1, 2, 5):
        assert kernel_determinant(_identity(n)) == 1
        assert kernel_determinant([[0] * n] + _identity(n)[1:]) == 0


def test_determinant_against_cofactor_oracle():
    rng = random.Random(101)
    for _ in range(200):
        rows = random_matrix(rng, 4)
        assert kernel_determinant(rows) == cofactor_determinant(rows)


def test_determinant_matches_cofactor_up_to_5x5():
    rng = random.Random(103)
    for n in range(1, 6):
        for _ in range(40):
            rows = random_matrix(rng, n)
            assert kernel_determinant(rows) == cofactor_determinant(rows)


def test_left_null_space_goldens():
    basis = kernel_null_space(F1_GOLDEN)
    assert len(basis) == 1
    assert is_scalar_multiple(basis[0], [Fraction(v) for v in V1])

    assert len(kernel_null_space(_identity(3))) == 0

    tbasis = kernel_null_space(F3_TRUNCATED_GOLDEN)
    assert len(tbasis) == 3
    # the published vector appears up to scale and lower-direction mixing:
    # reducing it against the basis must give zero
    target = [Fraction(v) for v in V3]
    residual = _reduce_vector(target, [list(v) for v in tbasis])
    assert all(x == 0 for x in residual)


def _reduce_vector(vec, basis_rows):
    vec = list(vec)
    for row in basis_rows:
        lead = next((j for j, x in enumerate(row) if x != 0), None)
        if lead is not None and vec[lead] != 0:
            f = vec[lead] / row[lead]
            vec = [a - f * b for a, b in zip(vec, row)]
    return vec


def test_null_vectors_annihilate_exactly():
    rng = random.Random(107)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        rows = random_matrix(rng, n, m)
        for v in kernel_null_space(rows):
            for j in range(m):
                assert sum(v[i] * rows[i][j] for i in range(n)) == 0


def test_rank_nullity():
    rng = random.Random(109)
    for _ in range(100):
        n = rng.randint(1, 6)
        m = rng.randint(1, 6)
        rows = random_matrix(rng, n, m)
        assert kernel_rank(rows) + len(kernel_null_space(rows)) == n
        assert kernel_rank(rows) == gauss_rank(rows)


def test_determinant_nonzero_iff_empty_left_null_space():
    rng = random.Random(113)
    for _ in range(100):
        n = rng.randint(1, 5)
        rows = random_matrix(rng, n)
        assert (kernel_determinant(rows) != 0) == (len(kernel_null_space(rows)) == 0)


def test_null_basis_is_deterministic_and_canonical():
    rng = random.Random(127)
    for _ in range(50):
        rows = random_matrix(rng, 4, 3)
        a = kernel_null_space(rows)
        b = kernel_null_space(rows)
        assert a == b
        for v in a:
            lead = next(x for x in v if x != 0)
            assert lead > 0
            assert all(x.denominator == 1 for x in v)


def test_zero_matrix_null_space_is_identity_basis():
    basis = kernel_null_space([[0, 0], [0, 0]])
    assert [list(v) for v in basis] == [[1, 0], [0, 1]]


def _grows(kernel, col):
    """Whether one ``absorb`` of the (vec, scale) pair ``col`` raises the kernel's rank."""
    rank = len(kernel.rows)
    return len(kernel.absorb([col]).rows) > rank


def kernel_rref(rows):
    """The reduced row-echelon form of ``rows`` that ``SparseEchelon`` holds, each row over its pivot entry, and the pivots.

    Each row enters by its own ``absorb``; the third value says whether each one raised the rank.
    """
    kernel = SparseEchelon()
    grew = [_grows(kernel, _integral({j: x for j, x in enumerate(row) if x})) for row in rows]
    width = len(rows[0])
    reduced = [[Fraction(row.get(j, 0), row[p]) for j in range(width)] for p, row in sorted(kernel.rows.items())]
    return reduced + [[Fraction(0)] * width] * (len(rows) - len(reduced)), tuple(sorted(kernel.rows)), grew


def test_rref_pivots():
    reduced, pivots, grew = kernel_rref([[0, 2, 4], [1, 1, 1], [1, 2, 3]])
    assert pivots == (0, 1)
    assert reduced == [[1, 0, -1], [0, 1, 2], [0, 0, 0]]
    assert grew == [True, True, False]


def test_rank_of_f1_golden():
    # rank of the printed matrix by independent row reduction
    assert gauss_rank([[Fraction(v) for v in row] for row in F1_GOLDEN]) == 6
    assert kernel_rank(F1_GOLDEN) == 6


# -- the elimination kernel against sympy --------------------------------

_entries = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))


@st.composite
def _matrices(draw, square=False):
    """Rational matrices up to 7x7, with zero and duplicated rows mixed in."""
    nrows = draw(st.integers(1, 7))
    ncols = nrows if square else draw(st.integers(1, 7))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["random", "random", "zero", "copy"]))
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "copy" and rows:
            rows.append(list(draw(st.sampled_from(rows))))
        else:
            rows.append(draw(st.lists(_entries, min_size=ncols, max_size=ncols)))
    return rows


def _matrix(text):
    """Rows from text: rows split by ';', entries by spaces."""
    return [[Fraction(x) for x in row.split()] for row in text.split(";")]


# Matrices in whose one-call elimination a column meets the echelon row of
# an earlier column that holds the pivot of a column between the two, so its
# reduction is only right in ascending pivot order, and the back-substitution
# at the end has rows to clear.  Square, tall and wide; singular or not.
SAME_CALL_FILL = [
    _matrix("1 1 0; 1 0 1; 0 0 1"),
    _matrix("0 0 -1/2 0; 0 2 1 1; 1 -1/2 -1 -3/2; -1 1 0 -1"),
    _matrix("0 0 0 1/2 0; 0 2 1 1 -3/2; 0 2 -3 -3 0; 0 -3 -1 0 -1; 0 0 -1 -3 2"),
    _matrix("0 0 0 0; 2 2 -3 0; 1 0 -3 -1; 0 -3 0 1"),
    _matrix("1 -1 -3 -1; -1 -3 1 -1/2; 1/2 -1 0 1"),
    _matrix("0 1/2 1 -3; 1 1 -1 -1/2; -1/2 1 2 1; 1 -3/2 -3 1; 1/2 1/2 1 -1/2"),
    _matrix("0 -3 -3 -1/2 -1 0; 0 1/2 2 -1 -1 0; 1/2 1 -1/2 0 -3/2 -1/2; 0 1/2 2 1 0 0; -1 2 2 -3 0 1"),
]


def _same_call_fill_hits(rows):
    """How often a column meets an earlier column's echelon row holding a pivot taken between the two.

    A column's echelon row is the column reduced by the columns before it,
    keyed by ~i for row i: zero at their pivots, unique up to scale, so the
    count does not depend on the kernel.
    """
    reference, echelon, hits = FractionEchelon(), {}, 0
    for j in range(len(rows[0])):
        col = {~i: row[j] for i, row in enumerate(rows) if row[j]}
        hits += sum(any(q in echelon and q != p for q in echelon[p]) for p in col if p in echelon)
        vec = reference.reduce(col)
        if vec:
            echelon[min(vec)] = dict(vec)
            reference.add(vec)
    return hits


def test_same_call_fill_inputs_take_that_path():
    assert all(_same_call_fill_hits(rows) for rows in SAME_CALL_FILL)
    assert not _same_call_fill_hits(_matrix("1 0; 0 1"))


def _examples(cases):
    """Hypothesis ``example`` decorators, one per case."""
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


@settings(max_examples=100, deadline=None)
@given(_matrices())
@_examples(SAME_CALL_FILL)
def test_rref_and_rank_match_sympy(rows):
    reduced, pivots, grew = kernel_rref(rows)
    expected, expected_pivots = sympy_matrix(rows).rref()
    assert pivots == expected_pivots
    ranks = [0] + [sympy_matrix(rows[:k]).rank() for k in range(1, len(rows) + 1)]
    assert grew == [after > before for before, after in zip(ranks, ranks[1:])]
    assert reduced == [
        [from_sympy(x) for x in expected.row(i)] for i in range(len(rows))
    ]
    assert kernel_rank(rows) == sympy_matrix(rows).rank()


@settings(max_examples=100, deadline=None)
@given(_matrices())
@_examples(SAME_CALL_FILL)
def test_left_null_space_matches_sympy(rows):
    expected = sympy_left_null_basis(rows)
    assert [list(v) for v in kernel_null_space(rows)] == expected


@settings(max_examples=100, deadline=None)
@given(_matrices(square=True))
@_examples([rows for rows in SAME_CALL_FILL if len(rows) == len(rows[0])])
def test_determinant_matches_sympy(rows):
    assert kernel_determinant(rows) == from_sympy(sympy_matrix(rows).det())


@st.composite
def _permuted_sparse(draw):
    """Square matrices whose rows pivot in a random column order.

    Row i has its leading entry at column perm[i] and random entries
    only after it, so the determinant is the product of the leading
    entries times the sign of perm, and exercises every permutation sign.
    """
    n = draw(st.integers(1, 8))
    perm = draw(st.permutations(range(n)))
    rows = []
    for i in range(n):
        row = [Fraction(0)] * n
        row[perm[i]] = draw(_entries.filter(bool))
        for j in range(perm[i] + 1, n):
            if draw(st.booleans()):
                row[j] = draw(_entries)
        rows.append(row)
    mixing = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), _entries)))
    for target, source, factor in mixing:
        if target != source:
            rows[target] = [a + factor * b for a, b in zip(rows[target], rows[source])]
    return rows


@settings(max_examples=200, deadline=None)
@given(st.one_of(_permuted_sparse(), _matrices(square=True)))
def test_determinant_matches_bareiss_reference(rows):
    expected = bareiss_determinant(rows)
    assert kernel_determinant(rows) == expected
    assert expected == from_sympy(sympy_matrix(rows).det())


@st.composite
def _pivoting_columns(draw):
    """Sparse columns of a tall, square or wide matrix, pivoting in random row orders.

    Column j leads at a random row and has random entries on one side
    of it, below or above, so the smallest and the largest nonzero row
    of each column both vary; zero columns and multiples of one column
    added to another make dependent columns and fill.
    """
    n = draw(st.integers(1, 8))
    ncols = draw(st.integers(1, 9))
    cols = []
    for _ in range(ncols):
        col = {}
        if draw(st.integers(0, 5)):
            lead = draw(st.integers(0, n - 1))
            col[lead] = draw(_entries.filter(bool))
            side = range(lead + 1, n) if draw(st.booleans()) else range(lead)
            for i in side:
                if draw(st.booleans()):
                    col[i] = draw(_entries)
        cols.append({i: x for i, x in col.items() if x})
    mixing = draw(st.lists(st.tuples(st.integers(0, ncols - 1), st.integers(0, ncols - 1), _entries)))
    for target, source, factor in mixing:
        if target != source:
            col = cols[target]
            for i, x in cols[source].items():
                col[i] = col.get(i, 0) + factor * x
            cols[target] = {i: x for i, x in col.items() if x}
    return cols, n


@settings(max_examples=200, deadline=None)
@given(_pivoting_columns())
def test_null_space_and_determinant_match_two_pass_reference(case):
    cols, n = case
    expected = two_pass_null_space(cols, n)
    rows = [[col.get(i, Fraction(0)) for col in cols] for i in range(n)]
    assert kernel_null_space(rows) == expected[0]
    assert [list(v) for v in expected[0]] == sympy_left_null_basis(rows)
    if len(cols) == n:
        assert kernel_determinant(rows) == expected[1] == from_sympy(sympy_matrix(rows).det())


# -- the integer-row kernel against the Fraction reference ---------------

# small entries make dependent columns and fill; wide ones reach past the
# 637-bit coefficients of the deep-chain benchmark
_wide_entries = st.one_of(
    _entries,
    st.builds(Fraction, st.integers(-(2**640), 2**640), st.integers(1, 2**40)),
)


@st.composite
def _mixed_matrices(draw):
    """Sparse tall, square or wide matrices with zero columns, signed leads and big entries."""
    n = draw(st.integers(1, 7))
    ncols = draw(st.sampled_from([max(n - 2, 1), n, n + 2, draw(st.integers(1, 9))]))
    cols = []
    for _ in range(ncols):
        kind = draw(st.sampled_from(["sparse", "sparse", "zero", "combination"]))
        if kind == "combination" and cols:
            a, b = draw(st.sampled_from(cols)), draw(st.sampled_from(cols))
            k = draw(_wide_entries)
            col = {i: a.get(i, 0) + k * b.get(i, 0) for i in set(a) | set(b)}
        elif kind == "zero":
            col = {}
        else:
            col = {i: draw(_wide_entries) for i in draw(st.sets(st.integers(0, n - 1)))}
        cols.append({i: Fraction(x) for i, x in col.items() if x})
    return cols, n


def _form(table, vec):
    """The linear Expression of a sparse vector over the table's columns, then the constant."""
    width = len(table)
    return Expression(table, {((j, 1),) if j < width else (): x for j, x in sorted(vec.items())})


@settings(max_examples=150, deadline=None)
@given(_mixed_matrices())
def test_integer_kernel_matches_fraction_reference(case):
    cols, n = case
    kernel = SparseEchelon()
    kernel.num = int(len(cols) == n)
    kernel.absorb([_integral({~i: x for i, x in col.items()}) for col in cols])
    basis, det = two_pass_null_space(cols, n)
    assert kernel.null_basis(n) == tuple(map(sparse_form, basis))
    assert (Fraction(kernel.num, kernel.den) if len(cols) == n else None) == det

    rows = [{j: col[i] for j, col in enumerate(cols) if i in col} for i in range(n)]
    reference = FractionEchelon()
    dense_rows = [[row.get(j, Fraction(0)) for j in range(len(cols))] for row in rows]
    reduced, pivots, grew = kernel_rref(dense_rows)
    assert grew == [reference.add(row) for row in rows]
    expected = [[row.get(j, Fraction(0)) for j in range(len(cols))] for row in reference.sorted_rows()]
    expected += [[Fraction(0)] * len(cols)] * (n - len(expected))
    assert pivots == tuple(sorted(reference.rows))
    assert reduced == expected
    assert kernel_rank(dense_rows) == len(reference.rows)

    # the rows as linear forms: the last column is the constant term
    table = VarTable([f"x{j}" for j in range(max(len(cols) - 1, 1))])
    forms = [_form(table, row) for row in rows]
    basis, span = EchelonBasis(table), FractionEchelon()
    for form, row in zip(forms[: n // 2], rows):
        assert basis.add(form) == span.add(row)
    for form, row in zip(forms, rows):
        assert basis.remainder(form) == _form(table, span.reduce(dict(row)))
    assert basis.rref() == [_form(table, row) for row in span.sorted_rows()]


# -- the elimination state: batches and copies ----------------------------


@settings(max_examples=200, deadline=None)
@given(st.one_of(_pivoting_columns(), _mixed_matrices()), st.data())
def test_absorb_in_two_batches_on_a_copy_equals_one_batch(case, data):
    cols, n = case
    ints = [_integral({~i: x for i, x in col.items()}) for col in cols]
    before = [(dict(vec), scale) for vec, scale in ints]
    split = data.draw(st.integers(0, len(cols)))
    first = SparseEchelon()
    first.num = int(len(cols) == n)
    first.absorb(ints[:split])
    state = ({k: dict(row) for k, row in first.rows.items()}, first.num, first.den, list(first.pivots))
    second = first.copy().absorb(ints[split:])
    # the copy shares no state that absorb changes, and absorb leaves its columns unchanged
    assert (first.rows, first.num, first.den, first.pivots) == state
    assert ints == before
    whole = SparseEchelon()
    whole.num = int(len(cols) == n)
    whole.absorb(ints)
    assert (second.rows, second.num, second.den) == (whole.rows, whole.num, whole.den)
    assert second.null_basis(n) == whole.null_basis(n)
    # every column in its own call, as one-row traffic enters the kernel
    single = SparseEchelon()
    single.num = int(len(cols) == n)
    for col in ints:
        single.absorb([col])
    assert ints == before
    assert (single.rows, single.num, single.den) == (whole.rows, whole.num, whole.den)
    assert single.null_basis(n) == whole.null_basis(n)


def test_absorb_keeps_the_determinant_pair_in_lowest_terms():
    """Split after two columns, the echelon rows scale this determinant as 8/2 unless each call reduces it."""
    rows = _matrix("1 -1 1; -2 0 2; 1 -2 1")
    ints = [_integral({~i: row[j] for i, row in enumerate(rows) if row[j]}) for j in range(3)]
    whole, split = SparseEchelon(), SparseEchelon()
    whole.num = split.num = 1
    whole.absorb(ints)
    split.absorb(ints[:2]).absorb(ints[2:])
    assert (whole.num, whole.den) == (split.num, split.den) == (4, 1) == (from_sympy(sympy_matrix(rows).det()), 1)


# -- the (vec, scale) contract --------------------------------------------


@settings(max_examples=150, deadline=None)
@given(_mixed_matrices(), st.integers(1, 6))
def test_reduce_equals_the_fraction_remainder(case, extra):
    """reduce(vec, scale), read as vec/scale, is the remainder on the Fraction reference, at any scale."""
    cols, n = case
    rows = [{j: col[i] for j, col in enumerate(cols) if i in col} for i in range(n)]
    kernel, reference = SparseEchelon(), FractionEchelon()
    for row in rows[: n // 2]:
        assert _grows(kernel, _integral(row)) == reference.add(row)
    for row in rows:
        vec, scale = _integral(row)
        vec, scale = kernel.reduce({j: x * extra for j, x in vec.items()}, scale * extra)
        assert scale > 0
        assert {j: Fraction(x, scale) for j, x in vec.items()} == reference.reduce(dict(row))


_int_vectors = st.dictionaries(st.integers(0, 6), st.integers(-5, 5), max_size=4)  # zeros allowed


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(-9, 9), _int_vectors, st.integers(1, 12)), max_size=5))
def test_combine_matches_a_fraction_sum(terms):
    vec, scale = _combine(terms)
    assert scale == math.lcm(*(s for *_, s in terms))
    want = {}
    for k, v, s in terms:
        for j, x in v.items():
            want[j] = want.get(j, 0) + Fraction(k * x, s)
    # every key of every term is kept, also where the sum is zero
    assert {j: Fraction(x, scale) for j, x in vec.items()} == want


def test_combine_of_no_terms_is_the_empty_vector():
    assert _combine([]) == ({}, 1)


@settings(max_examples=200, deadline=None)
@given(_int_vectors, st.integers(1, 12), st.integers(-9, 9).filter(bool), st.integers(1, 12), st.integers(1, 4))
@example({0: 1}, 2, 2, 4, 1)  # 2/4 into a column over 2: rescaled to 4, though 1/2 would fit over 2
def test_put_takes_any_positive_denominator(vec, scale, num, den, k):
    """_put(num*k, den*k) sets the entry to num/den whether or not the pair is in lowest terms, and
    rescales the column, keeping its other values, to the lcm of its scale and den*k when that does not divide it."""
    cols = [({j: x for j, x in vec.items() if x}, scale)]
    before = {j: Fraction(x, scale) for j, x in cols[0][0].items()}
    _put(cols, 0, 7, num * k, den * k)
    got, new_scale = cols[0]
    assert new_scale == (scale if scale % (den * k) == 0 else math.lcm(scale, den * k))
    assert {j: Fraction(x, new_scale) for j, x in got.items()} == {**before, 7: Fraction(num, den)}
