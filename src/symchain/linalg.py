"""Exact dense matrices over the rationals, plus polynomial-entried matrices.

Everything here is exact: entries are fractions.Fraction (or Expression
for PolyMatrix), eliminations are fraction-free where it matters, and
null-space bases come out in a canonical form so identical inputs give
bit-identical outputs.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .expressions import Expression, VarTable


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


def row_times_matrix(v: Sequence[Fraction], m: RationalMatrix) -> tuple[Fraction, ...]:
    if len(v) != m.rows:
        raise ValueError("vector length does not match the row count")
    out = [Fraction(0)] * m.cols
    for coeff, row in zip(v, m.to_rows()):
        if coeff:
            for j, x in enumerate(row):
                if x:
                    out[j] += coeff * x
    return tuple(out)


def _rref_rows(rows: list[list[Fraction]]) -> tuple[list[list[Fraction]], list[int]]:
    """In-place reduced row-echelon form; returns (rows, pivot columns)."""
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = Fraction(1) / rows[r][c]
        pivot = rows[r] = [x * inv if x else x for x in rows[r]]
        support = [j for j, x in enumerate(pivot) if x]  # zeros change nothing
        for i, row in enumerate(rows):
            if i != r and row[c]:
                factor = row[c]
                for j in support:
                    row[j] -= factor * pivot[j]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows, pivots


def rref(m: RationalMatrix) -> tuple[RationalMatrix, tuple[int, ...]]:
    """Reduced row-echelon form and the pivot-column indices."""
    rows, pivots = _rref_rows([list(row) for row in m.to_rows()])
    return RationalMatrix(rows), tuple(pivots)


def rank(m: RationalMatrix) -> int:
    return len(rref(m)[1])


def determinant(m: RationalMatrix) -> Fraction:
    """Exact determinant by fraction-free (Bareiss) elimination.

    Denominators are cleared row by row, the integer Bareiss recurrence
    runs division-free except for the exact interior division, and the
    accumulated row scales are divided back out at the end.
    """
    if not m.is_square:
        raise ValueError("determinant needs a square matrix")
    n = m.rows
    scale = Fraction(1)
    a: list[list[int]] = []
    for row in m.to_rows():
        mult = lcm(*(x.denominator for x in row)) if n else 1
        scale *= mult
        a.append([int(x * mult) for x in row])
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


class NullBasis:
    """Canonical basis of a left null space.

    Vectors are the reduced row-echelon basis of {v : v.M = 0}, each
    scaled to a primitive integer vector with positive leading entry,
    so the basis is deterministic: same matrix, identical basis.
    """

    __slots__ = ("_vectors",)

    def __init__(self, vectors: Iterable[Sequence[Fraction]]):
        self._vectors = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in v) for v in vectors
        )

    @property
    def vectors(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._vectors

    def __len__(self) -> int:
        return len(self._vectors)

    def __iter__(self):
        return iter(self._vectors)

    def __getitem__(self, i: int) -> tuple[Fraction, ...]:
        return self._vectors[i]

    def __eq__(self, other) -> bool:
        return isinstance(other, NullBasis) and self._vectors == other._vectors

    def __repr__(self) -> str:
        return f"NullBasis({len(self._vectors)} vectors)"


def _primitive(vec: Sequence[Fraction]) -> tuple[Fraction, ...]:
    mult = lcm(*(x.denominator for x in vec))
    ints = [int(x * mult) for x in vec]
    g = gcd(*ints) if any(ints) else 1
    g = g or 1
    lead = next((x for x in ints if x), 1)
    if lead < 0:
        g = -g
    return tuple(Fraction(x // g) for x in ints)  # g divides every entry


def left_null_space(m: RationalMatrix) -> NullBasis:
    """Canonical basis of {v : v.M = 0}; empty iff the rows are independent.

    Rectangular input is fine; vectors have length m.rows.
    """
    n = m.rows
    kernel_rows, pivots = _rref_rows([list(row) for row in m.transpose().to_rows()])
    pivot_set = set(pivots)
    free_cols = [j for j in range(n) if j not in pivot_set]
    if not free_cols:
        return NullBasis([])
    basis: list[list[Fraction]] = []
    for free in free_cols:
        v = [Fraction(0)] * n
        v[free] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -kernel_rows[r][free]
        basis.append(v)
    reduced, _ = _rref_rows(basis)
    return NullBasis([_primitive(v) for v in reduced if any(v)])


class PolyMatrix:
    """Dense matrix of Expressions sharing one VarTable."""

    __slots__ = ("_rows", "_vars")

    def __init__(self, rows: Iterable[Iterable[Expression]]):
        data = tuple(tuple(row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("ragged rows")
        vars = data[0][0].vars
        for row in data:
            for e in row:
                if e.vars != vars:
                    raise ValueError("entries use different VarTables")
        self._rows = data
        self._vars = vars

    @property
    def rows(self) -> int:
        return len(self._rows)

    @property
    def cols(self) -> int:
        return len(self._rows[0])

    @property
    def vars(self) -> VarTable:
        return self._vars

    def entry(self, i: int, j: int) -> Expression:
        return self._rows[i][j]

    def to_rows(self) -> tuple[tuple[Expression, ...], ...]:
        return self._rows

    def is_constant(self) -> bool:
        return all(e.is_constant() for row in self._rows for e in row)

    def to_rational(self) -> RationalMatrix:
        if not self.is_constant():
            raise ValueError("matrix has non-constant entries")
        return RationalMatrix(
            [[e.constant_value() for e in row] for row in self._rows]
        )

    def evaluate(self, point: Mapping[str, Fraction]) -> RationalMatrix:
        return RationalMatrix(
            [[e.evaluate(point) for e in row] for row in self._rows]
        )

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMatrix) and self._rows == other._rows

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols})"


def generic_rank(m: PolyMatrix, trials: int, seed: int = 0) -> int:
    """Maximum rank over random rational sample points.

    Points are drawn from a range that widens with each trial, so the
    result equals the true generic rank with probability approaching 1.
    Constant matrices give the exact rank on the first trial.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if m.is_constant():
        return rank(m.to_rational())
    rng = random.Random(seed)
    names = sorted({n for row in m.to_rows() for e in row for n in e.variables_used()})
    best = 0
    for t in range(1, trials + 1):
        bound = 10 * t
        point = {
            name: Fraction(rng.randint(-bound, bound), rng.randint(1, 4))
            for name in names
        }
        best = max(best, rank(m.evaluate(point)))
    return best
