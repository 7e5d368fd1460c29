"""Constraint-chain extraction by iterated left null-eigenvector analysis.

The driver works on the matrix form of the equations of motion.  With
f_ab = d_a c_b - d_b c_a and one auxiliary column/row pair per known
constraint (gradient rows A, border blocks +A^T / -A), each step

  1. eliminates the sparse integer columns of the extended matrix F:
     the base tensor's, made once per run and bordered in place, once,
     by each constraint as it is accepted; the elimination of the
     constraint columns, which never change, carries from level to
     level, so each attempt reduces only the coordinate columns,
  2. contracts each canonical left null vector v with the gradient of
     H: every primary borders the matrix, so v is orthogonal to the
     primaries' gradients, the multipliers of the total Hamiltonian
     cancel, and v . grad(H) is either a new constraint or redundant
     (once per distinct v in a run: a repeat is redundant, its value kept),
  3. when the full matrix yields nothing new but is still singular,
     retries on a column-truncated matrix that keeps only the
     coordinate columns and the level-1 auxiliary columns,
  4. stops with a certificate: a nonsingular F (and its determinant,
     read off the same elimination that finds its null space empty),
     an exhausted null space, or the level cap.

Border blocks are built from the *raw* constraint expressions (v . grad(H)
as extracted, unnormalized); the monic-normalized forms are used for
span bookkeeping and reporting.  The raw scale is what makes the final
determinant reproducible.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .expressions import EchelonBasis, Expression, VarTable, _linear_part
from .linalg import RationalMatrix, SparseEchelon, _combine, _integral, _put, _rows
from .model import FirstOrderModel

NEW = "new"
REDUNDANT = "redundant"

ORIGIN_PRIMARY = "primary"
ORIGIN_NULL_VECTOR = "null-vector"
ORIGIN_TRUNCATED = "truncated-null-vector"

TERMINATED_NONSINGULAR = "nonsingular"
TERMINATED_EXHAUSTED = "exhausted"
TERMINATED_MAX_LEVEL = "max-level-reached"


class ChainError(RuntimeError):
    """The chain cannot proceed on this model (reported, never silent)."""


class Constraint(namedtuple("Constraint", "level expr raw origin generator", defaults=(None,))):
    """One constraint of the chain.

    ``level`` (int), ``expr`` and ``raw`` (Expression), ``origin`` (str), ``generator`` (the vector of a
    level-(``level`` - 1) ``Candidate``, or None).  ``raw`` is the expression exactly as generated (v . grad(H)
    for derived levels); ``expr`` is its monic normalization under the graded-lex order, never in the
    linear span of the lower levels.
    """

    __slots__ = ()

    @staticmethod
    def from_raw(
        level: int,
        raw: Expression,
        origin: str,
        generator: tuple[tuple[int, int], ...] | None = None,
    ) -> "Constraint":
        if raw.is_zero():
            raise ValueError("constraint expression is identically zero")
        return Constraint(level=level, expr=raw.monic(), raw=raw, origin=origin, generator=generator)


class Candidate(namedtuple("Candidate", "vector value classification")):
    """A canonical null ``vector`` v as its nonzero (index, int) pairs, ascending (its record's row count
    is v's length), its ``value`` v . grad(H) over zeta and its ``classification``."""

    __slots__ = ()


class LevelRecord(namedtuple("LevelRecord", "level truncated shape candidates")):
    """One attempt: ``level`` (int), ``truncated`` (bool), ``shape`` (rows, cols), ``candidates`` (Candidate tuple)."""

    __slots__ = ()


class Termination(namedtuple("Termination", "kind level determinant", defaults=(None,))):
    """How the chain stopped: ``kind`` (str), ``level`` (int), ``determinant`` (Fraction or None)."""

    __slots__ = ()

    def describe(self) -> str:
        if self.kind == TERMINATED_NONSINGULAR:
            return f"nonsingular, det(F^({self.level})) = {self.determinant}"
        if self.kind == TERMINATED_EXHAUSTED:
            return (
                f"exhausted at level {self.level} "
                "(the singular extended matrix yields no new constraint)"
            )
        return f"max-level-reached at level {self.level}"


class ChainOptions(namedtuple("ChainOptions", "max_level allow_truncation", defaults=(12, True))):
    """Chain settings: ``max_level`` (int, at least 1), ``allow_truncation`` (bool)."""

    __slots__ = ()
    # namedtuple's _replace builds through _make: route both through __new__'s checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.max_level < 1:
            raise ValueError("max_level must be >= 1")
        return self


class ChainReport(namedtuple("ChainReport", "model_name zeta_names multiplier_names constraints levels truncations "
                             "termination warnings", defaults=((),))):
    """One chain run.

    ``model_name`` (str), ``zeta_names`` and ``multiplier_names`` (str tuples), ``constraints``
    (Constraint tuple), ``levels`` (LevelRecord tuple), ``truncations`` (int tuple),
    ``termination`` (Termination), ``warnings`` (str tuple).  No ``__slots__``: the
    instance ``__dict__`` holds the cached ``_span``.
    """

    def num_levels(self) -> int:
        return max((c.level for c in self.constraints), default=0)

    def span_fingerprint(self) -> str:
        """Canonical text form of the constraint span (RREF row expressions)."""
        return "; ".join(str(e) for e in self._span[1]) if self.constraints else "<empty>"

    @cached_property
    def _span(self) -> tuple[EchelonBasis | None, list[Expression]]:
        """The echelon basis of the constraint span and its RREF rows, built once per report."""
        return _span([c.expr for c in self.constraints])


def span_fingerprint(exprs: Sequence[Expression]) -> str:
    return "; ".join(str(e) for e in _span(exprs)[1]) if exprs else "<empty>"


def _span(exprs: Sequence[Expression]) -> tuple[EchelonBasis | None, list[Expression]]:
    """The echelon basis of the affine-linear span of ``exprs`` and its canonical RREF rows; (None, []) if empty.

    ``EchelonBasis.add`` raises ``ValueError`` for a nonlinear expression or one over a different table.
    """
    if not exprs:
        return None, []
    basis = EchelonBasis(exprs[0].vars)
    for e in exprs:
        basis.add(e)
    return basis, basis.rref()


def _integer_columns(m: FirstOrderModel) -> list[tuple[dict[int, int], int]]:
    """The columns of the base tensor f_ab = d_a c_b - d_b c_a as (vec, scale) pairs: ints keyed by ~i for row i.

    c is affine-linear, so d_a c_b is the coefficient C_b[a] of zeta_a in c_b.
    """
    if not all(e.is_linear() for e in m.c):
        raise ChainError("the symplectic tensor has non-constant entries (c is nonlinear)")
    cols: list[dict[int, Fraction]] = [{} for _ in m.c]
    for b, cb in enumerate(m.c):
        for a, x in _linear_part(cb).items():
            cols[b][~a] = cols[b].get(~a, 0) + x
            cols[a][~b] = cols[a].get(~b, 0) - x
    return [_integral({i: x for i, x in col.items() if x}) for col in cols]


def assemble_extended_matrix(
    m: FirstOrderModel,
    constraints: Sequence[Constraint],
    truncated: bool = False,
) -> RationalMatrix:
    """Assemble the bordered matrix for every constraint level present.

    ``constraints`` must live over ``m.zeta`` and hold consecutive
    levels starting at 1 (or be empty, which returns the base tensor
    itself).  Untruncated, the result is square and antisymmetric:
    row/column blocks are the coordinates followed by one auxiliary
    block per constraint level, with block(zeta, xi_g) = +A_g^T and
    block(xi_g, zeta) = -A_g for A_g the gradient rows of the level-g
    constraints.  With ``truncated`` the auxiliary columns of levels
    above 1 are dropped, all rows retained.
    """
    if any(c.raw.vars != m.zeta for c in constraints):
        raise ValueError("constraints must live over the model's zeta table")
    levels = sorted({c.level for c in constraints})
    if levels != list(range(1, len(levels) + 1)):
        raise ValueError("constraint levels must be consecutive starting at 1")
    cols = _integer_columns(m)
    for c in sorted(constraints, key=lambda c: c.level):
        _border(cols, c)
    return RationalMatrix(_rows(_kept(cols, constraints, truncated), len(cols)))


def _border(cols: list[tuple[dict[int, int], int]], c: Constraint) -> None:
    """Border the square integer columns ``cols`` by ``c``, in place.

    The coordinate columns gain the -A entries of ``c`` at the new last
    row, and its gradient +A^T becomes the new last column, so an
    antisymmetric matrix stays antisymmetric (``_put`` writes each entry).
    """
    # every partial derivative is constant exactly when the degree is <= 1
    if not c.raw.is_linear():
        raise ChainError(
            "constraint gradient is not constant; the exact chain supports "
            f"linear constraints only (level {c.level} constraint: {c.raw})"
        )
    grad = _linear_part(c.raw)
    row = ~len(cols)
    for j, x in grad.items():
        _put(cols, j, row, -x.numerator, x.denominator)
    cols.append(_integral({~j: x for j, x in grad.items()}))


def _kept(cols: list, constraints: Sequence[Constraint], truncated: bool) -> list:
    """The columns of one attempt: all, or the coordinate and level-1 ones."""
    if not truncated:
        return cols
    return cols[: len(cols) - len(constraints) + sum(c.level == 1 for c in constraints)]


def _solve(state: SparseEchelon, kept: list, n_zeta: int, n: int, built: dict) -> tuple:
    """The left null basis and, if square, the determinant of one attempt's n-row matrix with integer columns ``kept``.

    ``state`` has taken in the constraint columns kept[n_zeta:], so only
    the coordinate columns are reduced, in a copy.  Taking those last moves n_zeta
    columns past n_aux, a sign (-1)^(n_zeta * n_aux) on the determinant:
    +1, since a ``FirstOrderModel`` has an even number of coordinates.
    ``built`` holds the run's null vectors for ``null_basis`` to reuse.
    """
    kernel = state.copy().absorb(kept[:n_zeta])
    return kernel.null_basis(n, built=built), Fraction(kernel.num, kernel.den) if len(kept) == n else None


def _classify(
    null: Sequence[tuple], grad_h: list[tuple[dict, int]], zeta: VarTable, known: EchelonBasis, level: int, seen: dict
) -> list[Candidate]:
    """Classify v . grad(H) for each null vector v, in order, against ``known``, which grows by each NEW one.

    ``grad_h`` holds each partial derivative of H as a (vec, scale) pair keyed by monomial.
    A candidate is NEW iff it stays nonzero modulo ``known``, so the NEW
    ones are independent; it is reduced in ints, as v . grad(H) times its denominator.
    ``seen`` maps each vector met earlier in the run to its value, now in the span of ``known``: a repeat is REDUNDANT.
    """
    out: list[Candidate] = []
    n_zeta = len(grad_h)
    for v in null:
        value, new = seen.get(v), False
        if value is None:
            # grad(H) has no entries for the constraint rows
            acc, den = _combine([(k, *grad_h[i]) for i, k in v if i < n_zeta])
            value = Expression._trusted(zeta, {mono: Fraction(s, den) for mono, s in acc.items()})
            if not value.is_linear():
                raise ChainError(
                    "nonlinear constraint candidate: reduction against the existing set "
                    f"is supported for linear constraints only (level {level} candidate: {value})"
                )
            try:
                new = known._add_sums(acc, den)
            except ValueError as err:
                raise ChainError(f"{err} (level {level} candidate: {value})") from None
            seen[v] = value
        out.append(Candidate(vector=v, value=value, classification=NEW if new else REDUNDANT))
    return out


def run_chain(m: FirstOrderModel, opts: ChainOptions | None = None) -> ChainReport:
    """Run the level loop until a termination certificate is reached.

    What does not change between levels is computed once per run: the
    Hamiltonian gradient, the echelon basis of the constraint span, the
    integer columns of F, which start as the base tensor's and are
    bordered once, in place, by each accepted constraint, the
    elimination of the constraint columns +A^T, which never change: it
    takes in each one at its border, in place, and a truncated attempt
    starts from its state after level 1, and each distinct null vector
    and its value, as the levels' null spaces are nested: ``null_basis``
    builds a vector only for a free row and hits it has not met in the
    run.  An attempt reduces the coordinate columns, in a copy of the
    state, in one ``absorb`` call: echelon rows, then one back-substitution.
    """
    opts = opts or ChainOptions()
    constraints: list[Constraint] = [
        Constraint.from_raw(1, p, ORIGIN_PRIMARY) for p in m.primaries
    ]
    records: list[LevelRecord] = []
    truncations: list[int] = []
    warnings: list[str] = []

    cols = _integer_columns(m)
    n_zeta = len(cols)
    # every primary is a level-1 constraint, whose +A^T column every
    # attempt keeps: each null vector is orthogonal to the primaries'
    # gradients, so the multipliers cancel from v . grad(H_T)
    grad_h = [_integral(g.terms) for g in m.hamiltonian.gradient()]
    known = EchelonBasis(m.zeta)
    seen: dict[tuple, Expression] = {}
    built: dict[tuple, tuple] = {}
    full = SparseEchelon()
    full.num = 1  # track the determinant
    level1: SparseEchelon | None = None
    for c in constraints:
        _border(cols, c)
        full.absorb(cols[-1:])
        known.add(c.expr)

    def attempt(k: int, truncated: bool):
        """Classify the null vectors of one bordered matrix and record the level."""
        kept = _kept(cols, constraints, truncated)
        null, det = _solve(level1 if truncated else full, kept, n_zeta, len(cols), built)
        candidates = _classify(null, grad_h, m.zeta, known, k + 1, seen)
        records.append(LevelRecord(
            level=k, truncated=truncated, shape=(len(cols), len(kept)), candidates=tuple(candidates)
        ))
        return det, candidates, [c for c in candidates if c.classification == NEW]

    while True:
        k = constraints[-1].level if constraints else 0
        if k > opts.max_level:
            termination = Termination(kind=TERMINATED_MAX_LEVEL, level=k)
            break
        det, candidates, new = attempt(k, truncated=False)
        if not candidates:
            if det == 0:
                raise ChainError("certificate mismatch: zero determinant without null vectors")
            termination = Termination(kind=TERMINATED_NONSINGULAR, level=k, determinant=det)
            break
        truncated = not new
        if truncated:
            # certificate consistency: a null vector proves det(F) = 0 (in ints)
            v = {~i: x for i, x in candidates[0].vector}
            if any(sum(v[key] * x for key, x in vec.items() if key in v) for vec, _ in cols):
                raise ChainError("certificate mismatch: a null vector does not annihilate F")
            if opts.allow_truncation and k > 1:
                *_, new = attempt(k, truncated=True)
        if not new:
            termination = Termination(kind=TERMINATED_EXHAUSTED, level=k)
            warnings.append(
                "chain exhausted: the extended matrix is singular but neither it "
                "nor its truncation yields a new constraint; compare against the "
                "consistency-algorithm oracle"
            )
            break
        if truncated:
            truncations.append(k)
        origin = ORIGIN_TRUNCATED if truncated else ORIGIN_NULL_VECTOR
        if k == 1:  # the state before any level-2 column, for truncated attempts (never square: no det)
            level1 = full.copy()
            level1.num = 0
        # NEW candidates already joined ``known`` during classification
        for c in new:
            constraints.append(Constraint.from_raw(k + 1, c.value, origin, c.vector))
            _border(cols, constraints[-1])
            full.absorb(cols[-1:])

    return ChainReport(
        model_name=m.name,
        zeta_names=m.zeta.names,
        multiplier_names=m.multiplier_names,
        constraints=tuple(constraints),
        levels=tuple(records),
        truncations=tuple(truncations),
        termination=termination,
        warnings=tuple(warnings),
    )
