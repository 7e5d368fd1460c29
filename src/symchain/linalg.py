"""Exact linear algebra over the rationals: the sparse elimination kernel and dense matrices.

Inputs and outputs are fractions.Fraction, except null-space bases: canonical
primitive int vectors, each its nonzero (index, int) pairs, dense only in the
RationalMatrix views.  Under them a rational sparse vector is the pair
(vec, scale) for vec/scale, vec an int dict, made once where a Fraction
enters; every row reduction and the determinant run on one sparse
Gauss-Jordan kernel over primitive integer rows.
"""

from __future__ import annotations

from bisect import bisect, insort
from fractions import Fraction
from math import gcd, lcm
from collections.abc import Iterable, Sequence


class RationalMatrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[Fraction]]):
        # Fractions are immutable, so entries that already are one are shared
        data = tuple(
            tuple(x if type(x) is Fraction else _exact(x, "element") for x in row) for row in rows
        )
        if not data or not data[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        self._rows = data

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def entry(self, i: int, j: int) -> Fraction:
        return self._rows[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def to_rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self._rows)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


def _exact(x, kind: str) -> Fraction:
    if isinstance(x, float):
        raise ValueError(f"{kind} {x!r} is a float; {kind}s must be exact")
    return Fraction(x)


class SparseEchelon:
    """Incremental exact Gauss-Jordan elimination on sparse primitive integer rows.

    A vector is a dict from column index to a nonzero int.  ``rows`` maps
    each pivot column, a row's first nonzero one, to its row: ints with gcd
    1, positive at the pivot and zero at every other pivot, the one such
    multiple of its reduced row-echelon row (row, row[pivot]), so the rows
    depend only on the span.  A reduction is vec = p*vec - a*row, p and a
    the entries at the pivot over their gcd.  Every elimination of the
    package runs on it.  ``absorb`` takes in the columns of a matrix M and
    keeps their determinant num/den with its sorted ``pivots`` (num 0, the
    default, tracks none).
    """

    __slots__ = ("rows", "num", "den", "pivots")

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}
        self.num, self.den, self.pivots = 0, 1, []

    def add(self, vec: dict[int, int]) -> bool:
        """Extend the span by the int ``vec`` (consumed); False when it already lies in it."""
        vec = self.reduce(vec, 1)[0]
        if vec:
            self.insert(vec)
        return bool(vec)

    def copy(self) -> SparseEchelon:
        """An independent copy; it shares the rows, which ``insert`` replaces and never changes."""
        new = SparseEchelon()
        new.rows, new.num, new.den, new.pivots = dict(self.rows), self.num, self.den, list(self.pivots)
        return new

    def absorb(self, cols: Iterable[tuple[dict[int, int], int]]) -> SparseEchelon:
        """Take in the columns ``cols`` (left unchanged) of a matrix M, in place, and return self.

        A column is a pair (vec, scale) for vec/scale, vec ints keyed by ~i
        for row i, so each column pivots at its largest row.  It reduces,
        in ints, to s_j > 0 times a column of the same determinant with a
        new pivot, so det M^T = det M is the product of the pivot entries
        over that of the s_j, negated for each earlier pivot below a new
        one: 0 at a dependent column.
        """
        num, den, pivots = self.num, self.den, self.pivots
        for vec, scale in cols:
            vec, scale = self.reduce(dict(vec), scale)
            if not vec:
                num = 0
                continue
            if num:
                pivot = min(vec)
                if bisect(pivots, pivot) % 2:
                    num = -num
                insort(pivots, pivot)
                num *= vec[pivot]
                den *= scale
            self.insert(vec)
        self.num, self.den = num, den
        return self

    def null_basis(self, n: int, above: int = 0) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The canonical left null basis of the n-row M whose columns ``absorb`` took in.

        Each free row f, the pivot of no column, gives a null vector: L at f
        and -L x/d at the pivot of each column that is x at f and d at its
        pivot, L the lcm of those d.  It is nonzero only at f and at pivots
        below f (a reduced column is zero below its pivot), so over its gcd
        it is the primitive row of the null space's reduced row-echelon
        form, whatever the shape of M, given as its nonzero (i, int) pairs
        for row i, in ascending order.  A vector whose keys all lie above
        ``above`` is left out before it is built; the default keeps all.
        """
        rows = self.rows
        hits: dict[int, list[tuple[int, int, int]]] = {~i: [] for i in range(n) if ~i not in rows}
        for pivot, row in rows.items():
            for f, x in row.items():
                if f != pivot:
                    hits[f].append((pivot, x, row[pivot]))
        basis = []
        for f, entries in hits.items():
            if f > above and all(p > above for p, _, _ in entries):
                continue
            mult = lcm(*(d for _, _, d in entries))
            vec = _normalized({f: mult, **{p: -x * (mult // d) for p, x, d in entries}}, f)
            basis.append(tuple(sorted((~key, x) for key, x in vec.items())))
        return tuple(basis)

    def reduce(self, vec: dict[int, int], scale: int) -> tuple[dict[int, int], int]:
        """The member of vec/scale + span zero at every pivot, as a (vec, scale) pair (``vec`` consumed)."""
        rows = self.rows
        # each row is zero at the other pivots, so one pass suffices
        for col in [c for c in vec if c in rows]:
            vec, p = _eliminate(vec, rows[col], col)
            scale *= p
        return vec, scale

    def insert(self, vec: dict[int, int]) -> None:
        """Make the reduced, nonzero int ``vec`` a row; rows holding its pivot are replaced, never changed."""
        pivot = min(vec)
        vec = _normalized(vec, pivot)
        rows = self.rows
        for key in [key for key, row in rows.items() if pivot in row]:
            rows[key] = _normalized(_eliminate(dict(rows[key]), vec, pivot)[0], key)
        rows[pivot] = vec


def _eliminate(vec: dict[int, int], row: dict[int, int], col: int) -> tuple[dict[int, int], int]:
    """p*vec - a*row (``vec`` consumed) and p, where p, a are row[col], vec[col] over their gcd."""
    g = gcd(row[col], vec[col])
    p, a = row[col] // g, vec[col] // g
    if p != 1:
        vec = {c: x * p for c, x in vec.items()}
    get = vec.get
    for c, x in row.items():
        value = get(c, 0) - a * x
        if value:
            vec[c] = value
        else:
            del vec[c]
    return vec, p


def _normalized(vec: dict[int, int], lead: int) -> dict[int, int]:
    """``vec`` over its gcd content, signed so that its entry at ``lead`` is positive."""
    content = gcd(*vec.values()) if vec[lead] > 0 else -gcd(*vec.values())
    return vec if content == 1 else {col: x // content for col, x in vec.items()}


def _integral(vec: dict[int, Fraction]) -> tuple[dict[int, int], int]:
    """The rational ``vec`` times the lcm of its denominators, as ints, and that lcm."""
    mult = lcm(*(x.denominator for x in vec.values()))
    if mult == 1:
        return {col: x.numerator for col, x in vec.items()}, 1
    return {col: x.numerator * (mult // x.denominator) for col, x in vec.items()}, mult


def _combine(terms: Sequence[tuple[int, dict, int]]) -> tuple[dict, int]:
    """sum k*vec/scale over the int (k, vec, scale) ``terms`` as ints over the lcm of the scales (zeros kept)."""
    mult = lcm(*[scale for _, _, scale in terms])
    out: dict[int, int] = {}
    for k, vec, scale in terms:
        k *= mult // scale
        for j, x in vec.items():
            out[j] = out.get(j, 0) + k * x
    return out, mult


def _put(cols: list[tuple[dict[int, int], int]], j: int, key: int, num: int, den: int) -> None:
    """Set entry ``key`` of column cols[j] to num/den in lowest terms; rescale it if den does not divide its scale."""
    vec, scale = cols[j]
    if scale % den:
        mult = den // gcd(scale, den)
        cols[j] = vec, scale = {k: y * mult for k, y in vec.items()}, scale * mult
    vec[key] = num * (scale // den)


def _sparse(entries: Iterable[Fraction]) -> dict[int, Fraction]:
    return {j: x for j, x in enumerate(entries) if x}


def rref(m: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row-echelon form and the pivot-column indices."""
    kernel = SparseEchelon()
    for row in m.to_rows():
        kernel.add(_integral(_sparse(row))[0])
    rows = [[Fraction(row.get(j, 0), row[p]) for j in range(m.cols)] for p, row in sorted(kernel.rows.items())]
    rows += [[0] * m.cols for _ in range(m.rows - len(rows))]
    return RationalMatrix(rows), tuple(sorted(kernel.rows))


def rank(m: RationalMatrix) -> int:
    return len(SparseEchelon().absorb(_integral({~i: x for i, x in col.items()}) for col in _columns(m)).rows)


def determinant(m: RationalMatrix) -> Fraction:
    """Exact determinant on the sparse elimination kernel."""
    if not m.is_square:
        raise ValueError("determinant needs a square matrix")
    return null_space_and_determinant(_columns(m), m.rows)[1]


def _columns(m: RationalMatrix) -> list[dict[int, Fraction]]:
    return [_sparse(col) for col in zip(*m.to_rows())]


def left_null_space(m: RationalMatrix) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of {v : v.M = 0}; empty iff the rows are independent.

    The vectors are the reduced row-echelon basis of the null space in
    pivot order, each scaled to a primitive vector of ints with positive
    leading entry, so the same matrix always gives the identical basis.
    Rectangular input is fine; vectors have length m.rows.
    """
    return null_space_and_determinant(_columns(m), m.rows)[0]


def null_space_and_determinant(
    cols: Sequence[dict[int, Fraction]], n: int
) -> tuple[tuple[tuple[int, ...], ...], Fraction | None]:
    """The canonical left null basis and the determinant of one matrix.

    ``cols`` are the sparse rational columns of an ``n``-row matrix M
    (left unchanged); the basis is that of ``left_null_space``.  Each
    column is scaled to ints keyed by ~i (= -1-i) for row i and taken in
    by ``SparseEchelon.absorb``, the elimination the chain carries across its levels.
    The dense view: each null vector is expanded to its n ints here.
    """
    square = len(cols) == n
    kernel = SparseEchelon()
    kernel.num = int(square)
    kernel.absorb(_integral({~i: x for i, x in col.items()}) for col in cols)
    det = Fraction(kernel.num, kernel.den) if square else None
    return tuple(tuple(v.get(i, 0) for i in range(n)) for v in map(dict, kernel.null_basis(n))), det


def _rows(cols: Sequence[tuple[dict[int, int], int]], n: int) -> list[list[Fraction]]:
    """The ``n`` rows of the matrix whose columns are the integer (vec, scale) pairs ``cols``."""
    zero = Fraction(0)
    return [[Fraction(vec[~i], scale) if ~i in vec else zero for vec, scale in cols] for i in range(n)]
