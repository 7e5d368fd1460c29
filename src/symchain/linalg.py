"""Exact linear algebra over the rationals: the sparse elimination kernel and dense matrices.

Inputs and outputs are fractions.Fraction, except null-space bases: canonical
primitive int vectors, each its nonzero (index, int) pairs, dense only in
``left_null_space``.  Under them a rational sparse vector is the pair
(vec, scale) for vec/scale, vec an int dict, made once where a Fraction
enters; every row reduction and the determinant run on one sparse
elimination kernel over primitive integer rows.  Only ``absorb`` adds
rows, one or a batch in echelon form, back-substituted once at its end,
so every public call leaves the rows in reduced row-echelon form.  The
dense views of a RationalMatrix, ``rank``, ``determinant`` and
``left_null_space``, each read one fresh elimination of its columns.
"""

from __future__ import annotations

from bisect import bisect, insort
from heapq import heapify, heappop, heappush
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
    """Incremental exact elimination on sparse primitive integer rows.

    A vector is a dict from column index to a nonzero int: keyed ~i for
    row i in a matrix's column, by any ints in a span's row.  ``rows``
    maps each pivot column, a row's first nonzero one, to its row: ints
    with gcd 1, positive at the pivot and zero at every other pivot, the
    one such multiple of its reduced row-echelon row (row, row[pivot]), so
    the rows depend only on the span.  A reduction is vec = p*vec - a*row,
    p and a the entries at the pivot over their gcd.  Every elimination of
    the package runs on it.  Only ``absorb`` makes rows: it takes in the
    columns of a matrix M and keeps their determinant num/den with its
    sorted ``pivots`` (num 0, the default, tracks none; set it to 1 before
    the first column to track).  Inside one ``absorb`` call the new rows
    are only echelon rows; the call ends with one back-substitution, so
    the rows are canonical again whenever a method returns.
    """

    __slots__ = ("rows", "num", "den", "pivots")

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}
        self.num, self.den, self.pivots = 0, 1, []

    def copy(self) -> SparseEchelon:
        """An independent copy; it shares the rows, which every method replaces and never changes."""
        new = SparseEchelon()
        new.rows, new.num, new.den, new.pivots = dict(self.rows), self.num, self.den, list(self.pivots)
        return new

    def absorb(self, cols: Iterable[tuple[dict[int, int], int]]) -> SparseEchelon:
        """Take in the columns ``cols`` (left unchanged) of a matrix M, in place, and return self.

        A column is a pair (vec, scale) for vec/scale, vec ints keyed by ~i
        for row i, so each column pivots at its largest row; a span's rows
        enter the same way, keyed by any ints.  It reduces, in ints, to
        s_j > 0 times a column of the same determinant with a new pivot, so
        det M^T = det M is the product of the pivot entries over that of
        the s_j, negated for each earlier pivot below a new one: 0 at a
        dependent column.  num/den is kept in lowest terms, den > 0.

        Within the call a column is reduced by the earlier calls' rows
        (``reduce``), then in ascending pivot order by this call's, and
        kept as an echelon row, zero at every pivot taken before it and
        nonzero only at or past its own, so no stored row is rewritten;
        one back-substitution at the end, from the last new pivot down,
        brings every row holding a new pivot back to its canonical form.
        """
        rows, num, den, pivots = self.rows, self.num, self.den, self.pivots
        fresh: dict[int, dict[int, int]] = {}  # this call's echelon rows
        for vec, scale in cols:
            vec, scale = self.reduce(dict(vec), scale)
            # an echelon row holds only pivots past its own, taken after it
            heap = fresh.keys() & vec.keys() if fresh else None
            if heap:
                heap = list(heap)
                heapify(heap)
                while heap:
                    col = heappop(heap)
                    if col in vec:
                        row = fresh[col]
                        for c in row:
                            if c in fresh and c != col:
                                heappush(heap, c)
                        vec, p = _eliminate(vec, row, col)
                        scale *= p
            if not vec:
                num = 0
                continue
            pivot = min(vec)
            if num:
                if bisect(pivots, pivot) % 2:
                    num = -num
                insort(pivots, pivot)
                num *= vec[pivot]
                den *= scale
            fresh[pivot] = _normalized(vec, pivot) if len(vec) > 1 else {pivot: 1}
        if fresh:
            _back_substitute(rows, fresh)
        g = gcd(num, den)
        self.num, self.den = num // g, den // g
        return self

    def null_basis(self, n: int, above: int = 0, built: dict | None = None) -> tuple[tuple[tuple[int, int], ...], ...]:
        """The canonical left null basis of the n-row M whose columns ``absorb`` took in.

        Each free row f, the pivot of no column, gives a null vector: L at f
        and -L x/d at the pivot of each column that is x at f and d at its
        pivot, L the lcm of those d.  It is nonzero only at f and at pivots
        below f (a reduced column is zero below its pivot), so over its gcd
        it is the primitive row of the null space's reduced row-echelon
        form, whatever the shape of M, given as its nonzero (i, int) pairs
        for row i, in ascending order.  A vector whose keys all lie above
        ``above`` is left out before it is built; the default keeps all.
        ``built`` maps f and its (pivot, x, d) hits, which fix the vector,
        to a vector built earlier: each one missing is built and added, so
        a dict passed to several calls builds each vector once.
        """
        rows, built = self.rows, {} if built is None else built
        hits: dict[int, list[tuple[int, int, int]]] = {~i: [] for i in range(n) if ~i not in rows}
        for pivot, row in rows.items():
            for f, x in row.items():
                if f != pivot:
                    hits[f].append((pivot, x, row[pivot]))
        basis = []
        for f, entries in hits.items():
            if f > above and all(p > above for p, _, _ in entries):
                continue
            key = (f, *entries)
            vec = built.get(key)
            if vec is None:
                vec = built[key] = _null_vector(f, entries)
            basis.append(vec)
        return tuple(basis)

    def reduce(self, vec: dict[int, int], scale: int) -> tuple[dict[int, int], int]:
        """The member of vec/scale + span zero at every pivot, as a (vec, scale) pair (``vec`` consumed)."""
        rows = self.rows
        # a canonical row is zero at the other pivots: one pass over the pivots vec holds
        for col in rows.keys() & vec.keys():
            vec, p = _eliminate(vec, rows[col], col)
            scale *= p
        return vec, scale


def _null_vector(f: int, entries: list[tuple[int, int, int]]) -> tuple[tuple[int, int], ...]:
    """The null vector of free row f from its (pivot, x, d) hits, as ``SparseEchelon.null_basis`` gives it."""
    mult = lcm(*(d for _, _, d in entries))
    vec = _normalized({f: mult, **{p: -x * (mult // d) for p, x, d in entries}}, f)
    return tuple(sorted((~key, x) for key, x in vec.items()))


def _back_substitute(rows: dict[int, dict[int, int]], fresh: dict[int, dict[int, int]]) -> None:
    """Join ``fresh``, the echelon rows one ``absorb`` call adds, to the canonical ``rows``, all made canonical.

    A fresh row holds, past its pivot, only fresh pivots taken after it:
    from the last pivot down, each is cleared by rows already canonical.
    The canonical rows that hold a new pivot, found in one scan, are
    replaced, never changed.
    """
    new = fresh.keys()
    if len(new) == 1:  # one new row, as from a one-column call: canonical already
        (pivot,) = new
        hit = [key for key, row in rows.items() if pivot in row]
    else:
        # the last pivot's row holds no other fresh pivot
        for pivot in sorted(fresh, reverse=True)[1:]:
            row = fresh[pivot]
            held = [c for c in row if c in fresh and c != pivot]
            if held:
                for col in held:
                    row = _eliminate(row, fresh[col], col)[0]
                fresh[pivot] = _normalized(row, pivot)
        hit = [key for key, row in rows.items() if not new.isdisjoint(row.keys())]
    for key in hit:
        row = dict(rows[key])
        # the fresh rows are canonical, so the pivots a row holds can be cleared in any order
        for col in new & row.keys():
            row = _eliminate(row, fresh[col], col)[0]
        rows[key] = _normalized(row, key)
    rows.update(fresh)


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
    """Set entry ``key`` of column cols[j] to num/den, any den > 0; rescale it to lcm(its scale, den) if needed."""
    vec, scale = cols[j]
    if scale % den:
        mult = den // gcd(scale, den)
        cols[j] = vec, scale = {k: y * mult for k, y in vec.items()}, scale * mult
    vec[key] = num * (scale // den)


def rank(m: RationalMatrix) -> int:
    return len(_eliminated(m).rows)


def determinant(m: RationalMatrix) -> Fraction:
    """Exact determinant on the sparse elimination kernel."""
    if not m.is_square:
        raise ValueError("determinant needs a square matrix")
    kernel = _eliminated(m)
    return Fraction(kernel.num, kernel.den)


def left_null_space(m: RationalMatrix) -> tuple[tuple[int, ...], ...]:
    """Canonical basis of {v : v.M = 0}; empty iff the rows are independent.

    The vectors are the reduced row-echelon basis of the null space in
    pivot order, each scaled to a primitive vector of ints with positive
    leading entry, so the same matrix always gives the identical basis.
    Rectangular input is fine; vectors have length m.rows.
    """
    n = m.rows
    return tuple(tuple(v.get(i, 0) for i in range(n)) for v in map(dict, _eliminated(m).null_basis(n)))


def _eliminated(m: RationalMatrix) -> SparseEchelon:
    """A fresh ``SparseEchelon`` that has absorbed the columns of ``m``, tracking their determinant."""
    kernel = SparseEchelon()
    kernel.num = 1
    return kernel.absorb(_integral({~i: x for i, x in enumerate(col) if x}) for col in zip(*m.to_rows()))


def _rows(cols: Sequence[tuple[dict[int, int], int]], n: int) -> list[list[Fraction]]:
    """The ``n`` rows of the matrix whose columns are the integer (vec, scale) pairs ``cols``."""
    zero = Fraction(0)
    return [[Fraction(vec[~i], scale) if ~i in vec else zero for vec, scale in cols] for i in range(n)]
