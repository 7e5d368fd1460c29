"""Exact linear algebra over the rationals: the sparse elimination kernel and dense matrices.

Everything here is exact: entries are fractions.Fraction, every row
reduction and the determinant run on one sparse Gauss-Jordan kernel,
and null-space bases come out in a canonical form so identical inputs
give bit-identical outputs.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

_ZERO = Fraction(0)


class RationalMatrix:
    """Immutable dense matrix of exact rationals."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[Fraction]]):
        # Fractions are immutable, so entries that already are one are shared
        data = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows
        )
        if not data or not data[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        self._rows = data

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        return RationalMatrix(
            [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(rows: int, cols: int) -> "RationalMatrix":
        return RationalMatrix([[Fraction(0)] * cols for _ in range(rows)])

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

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(zip(*self._rows))

    def __eq__(self, other) -> bool:
        return isinstance(other, RationalMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __str__(self) -> str:
        return "\n".join(" ".join(str(x) for x in row) for row in self._rows)

    def __repr__(self) -> str:
        return f"RationalMatrix({self.rows}x{self.cols})"


class SparseEchelon:
    """Incremental exact Gauss-Jordan elimination on sparse rational rows.

    A vector is a dict from column index to a nonzero Fraction.
    ``rows`` maps each pivot column to its row, kept in reduced
    row-echelon form: a row has a unit entry at its pivot, its first
    nonzero column, and is zero at every other row's pivot.  RREF is
    unique, so the rows depend only on the span added, not on the order
    or the scale of the additions.  This is the library's one
    elimination kernel: ``rref``, ``rank``, ``null_space_and_determinant``
    (behind ``determinant`` and ``left_null_space``) and
    ``expressions.EchelonBasis`` all run on it.
    """

    __slots__ = ("rows",)

    def __init__(self, vectors: Iterable[dict[int, Fraction]] = ()):
        self.rows: dict[int, dict[int, Fraction]] = {}
        for vec in vectors:
            self.add(vec)

    def __len__(self) -> int:
        return len(self.rows)

    def reduce(self, vec: dict[int, Fraction]) -> dict[int, Fraction]:
        """Reduce ``vec`` in place and return it.

        The result is the member of ``vec`` + span that is zero at every
        pivot column; it is empty iff ``vec`` lies in the span.
        """
        rows = self.rows
        # each row is zero at the other pivots, so one pass suffices
        for col in [c for c in vec if c in rows]:
            _axpy(vec, -vec[col], rows[col])
        return vec

    def add(self, vec: dict[int, Fraction]) -> bool:
        """Extend the span by ``vec`` (consumed); False when it already lies in it."""
        vec = self.reduce(vec)
        if not vec:
            return False
        pivot = min(vec)
        inv = 1 / vec[pivot]
        new = {col: x * inv for col, x in vec.items()}
        for row in self.rows.values():
            factor = row.get(pivot)
            if factor:
                _axpy(row, -factor, new)
        self.rows[pivot] = new
        return True

    def sorted_rows(self) -> list[dict[int, Fraction]]:
        """The reduced rows in pivot order."""
        return [self.rows[col] for col in sorted(self.rows)]


def _axpy(target: dict[int, Fraction], factor: Fraction, row: dict[int, Fraction]) -> None:
    """target += factor * row, dropping entries that cancel."""
    for col, x in row.items():
        value = target.get(col, 0) + factor * x
        if value:
            target[col] = value
        else:
            del target[col]


def _sparse(entries: Iterable[Fraction]) -> dict[int, Fraction]:
    return {j: x for j, x in enumerate(entries) if x}


def _dense(row: dict[int, Fraction], n: int) -> list[Fraction]:
    out = [_ZERO] * n
    for col, x in row.items():
        out[col] = x
    return out


def rref(m: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row-echelon form and the pivot-column indices."""
    kernel = SparseEchelon(_sparse(row) for row in m.to_rows())
    rows = [_dense(row, m.cols) for row in kernel.sorted_rows()]
    rows += [[_ZERO] * m.cols for _ in range(m.rows - len(rows))]
    return RationalMatrix(rows), tuple(sorted(kernel.rows))


def rank(m: RationalMatrix) -> int:
    return len(SparseEchelon(_sparse(row) for row in m.to_rows()))


def determinant(m: RationalMatrix) -> Fraction:
    """Exact determinant on the sparse elimination kernel."""
    if not m.is_square:
        raise ValueError("determinant needs a square matrix")
    return null_space_and_determinant(_columns(m), m.rows)[1]


def _primitive(row: dict[int, Fraction], n: int) -> tuple[Fraction, ...]:
    """Dense ``row`` times the lcm of its denominators.

    A unit pivot makes that primitive with a positive lead: for each prime
    of the lcm, the entry whose denominator holds its full power loses it.
    """
    mult = lcm(*(x.denominator for x in row.values()))
    ints = {col: Fraction(x.numerator * (mult // x.denominator)) for col, x in row.items()}
    return tuple(_dense(ints, n))


def _columns(m: RationalMatrix) -> list[dict[int, Fraction]]:
    return [_sparse(col) for col in zip(*m.to_rows())]


def left_null_space(m: RationalMatrix) -> tuple[tuple[Fraction, ...], ...]:
    """Canonical basis of {v : v.M = 0}; empty iff the rows are independent.

    The vectors are the reduced row-echelon basis of the null space in
    pivot order, each scaled to a primitive integer vector with positive
    leading entry, so the same matrix always gives the identical basis.
    Rectangular input is fine; vectors have length m.rows.
    """
    return null_space_and_determinant(_columns(m), m.rows)[0]


def null_space_and_determinant(
    cols: Sequence[dict[int, Fraction]], n: int
) -> tuple[tuple[tuple[Fraction, ...], ...], Fraction | None]:
    """The canonical left null basis and the determinant of one matrix.

    ``cols`` are the sparse columns of an ``n``-row matrix M (left
    unchanged).  The null basis is that of ``left_null_space``: the
    reduced row-echelon basis of {v : v.M = 0}.  RREF is unique, so the
    pivot rule of the elimination below changes no output byte; it is
    chosen for speed.

    The columns, the rows of M^T, are brought to reduced row-echelon
    form: each reduced column is 1 at its own pivot row and 0 at every
    other column's.  Each free row f, the pivot of no column, then
    gives a null vector: 1 at f and, at each pivot row p, minus the
    entry at row f of the column pivoting at p.

    A tall matrix (fewer columns than rows) is eliminated with each
    column pivoting at its largest nonzero row.  A reduced column is
    then zero below its pivot, so f's vector is nonzero only at f and
    at pivot rows below f: the vectors already are the RREF rows.

    Any other matrix pivots each column at its smallest nonzero row;
    the vectors are then nonzero at pivot rows above f, and one more
    elimination brings them to RREF.  This path also gives the
    determinant, det M^T = det M: reduced against the columns before
    it, a column keeps the determinant and pivots at a new row, so the
    reduced columns are triangular in pivot order and the determinant
    is the product of the pivot entries, negated for each earlier pivot
    below a new one.  It is 0 when the columns are dependent and None
    when M is not square.
    """
    if len(cols) < n:
        # the kernel pivots at its smallest index: number the rows bottom up
        last = n - 1
        kernel = SparseEchelon({last - i: x for i, x in col.items()} for col in cols)
        free = _free_vectors(kernel.rows, n)
        return tuple(_primitive(vec, n)[::-1] for vec in reversed(free)), None
    kernel = SparseEchelon()
    det = Fraction(1)
    for col in cols:
        vec = kernel.reduce(dict(col))
        if not vec:
            det = _ZERO
            continue
        pivot = min(vec)
        if det and sum(row > pivot for row in kernel.rows) % 2:
            det = -det
        det *= vec[pivot]
        kernel.add(vec)
    null = SparseEchelon(_free_vectors(kernel.rows, n))
    basis = tuple(_primitive(row, n) for row in null.sorted_rows())
    return basis, det if len(cols) == n else None


def _free_vectors(pivots: dict[int, dict[int, Fraction]], n: int) -> list[dict[int, Fraction]]:
    """The null vector of each free index of RREF rows, in index order."""
    free = {f: {f: Fraction(1)} for f in range(n) if f not in pivots}
    for pivot, row in pivots.items():
        for f, x in row.items():
            if f != pivot:
                free[f][pivot] = -x
    return list(free.values())
