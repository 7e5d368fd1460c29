"""Constraint-chain extraction by iterated left null-eigenvector analysis.

The driver works on the matrix form of the equations of motion.  With
f_ab = d_a c_b - d_b c_a and one auxiliary column/row pair per known
constraint (gradient rows A, border blocks +A^T / -A), each step

  1. eliminates the sparse integer columns of the extended matrix F:
     the base tensor's, made once per model and copied, then bordered in
     place, once, by each constraint as it is accepted; the elimination
     of the constraint columns, which never change, carries from level
     to level, so each attempt reduces only the coordinate columns,
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

Border blocks and the span basis, which the report keeps, take the *raw*
constraint forms (v . grad(H) as extracted, unnormalized); the monic ones,
read off them, are for reporting.  The raw scale is what makes the final
determinant reproducible.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence
from fractions import Fraction
from functools import cached_property

from .expressions import EchelonBasis, Expression, VarTable, _affine_form, _form_expression, _monic_form
from .expressions import _sums_expression, _sums_form
from .linalg import SparseEchelon, _combine, _put
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
    linear span of the lower levels: ``from_raw`` reads it off raw's integer affine ``form``, given or converted.
    """

    __slots__ = ()

    @staticmethod
    def from_raw(
        level: int,
        raw: Expression,
        origin: str,
        generator: tuple[tuple[int, int], ...] | None = None,
        form: tuple[dict[int, int], int] | None = None,
    ) -> "Constraint":
        if raw.is_zero():
            raise ValueError("constraint expression is identically zero")
        form = form or _affine_form(raw)
        monic = _monic_form(*form) if form else None  # None for a nonlinear raw
        expr = raw.monic() if monic is None else raw if monic == form else _form_expression(raw.vars, *monic)
        return Constraint(level=level, expr=expr, raw=raw, origin=origin, generator=generator)


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
    instance ``__dict__`` holds the cached ``_span``, which ``run_chain`` puts there.
    """

    def num_levels(self) -> int:
        return max((c.level for c in self.constraints), default=0)

    def span_fingerprint(self) -> str:
        """Canonical text form of the constraint span (RREF row expressions)."""
        return "; ".join(map(str, self._span.rref())) if self.constraints else "<empty>"

    @cached_property
    def _span(self) -> EchelonBasis | None:
        """The echelon basis of the constraint span, built once per report that ``run_chain`` did not make."""
        return _span([c.expr for c in self.constraints])


def span_fingerprint(exprs: Sequence[Expression]) -> str:
    return "; ".join(map(str, _span(exprs).rref())) if exprs else "<empty>"


def _span(exprs: Sequence[Expression]) -> EchelonBasis | None:
    """The echelon basis of the affine-linear span of ``exprs``; None if empty.

    ``EchelonBasis.add`` raises ``ValueError`` for a nonlinear expression or one over a different table.
    """
    if not exprs:
        return None
    basis = EchelonBasis(exprs[0].vars)
    basis.add(*exprs)
    return basis


def _integer_columns(m: FirstOrderModel) -> list[tuple[dict[int, int], int]]:
    """A copy, to border in place, of the columns of m's base tensor f, keyed by ~i for row i, over one scale."""
    cols = m._ints[0]
    if cols is None:
        raise ChainError("the symplectic tensor has non-constant entries (c is nonlinear)")
    return [(dict(vec), scale) for vec, scale in cols]


def _border(cols: list[tuple[dict[int, int], int]], form: tuple[dict[int, int], int], n_zeta: int) -> None:
    """Border the square integer columns ``cols`` by the constraint whose integer affine form is ``form``, in place.

    The coordinate columns gain its -A entries at the new last row, and its
    gradient +A^T, the form's entries below n_zeta, becomes the new last
    column, so an antisymmetric matrix stays antisymmetric (``_put`` writes each entry).
    """
    vec, scale = form
    row, grad = ~len(cols), {~j: x for j, x in vec.items() if j < n_zeta}
    for key, x in grad.items():
        _put(cols, ~key, row, -x, scale)
    cols.append((grad, scale))


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
    ones are independent; it is reduced in ints, as its integer affine form.
    ``seen`` maps each vector met earlier in the run to its value, now in the span of ``known``, and that
    form: a repeat is REDUNDANT.
    """
    out: list[Candidate] = []
    n_zeta = len(grad_h)
    for v in null:
        new = False
        if v not in seen:
            # grad(H) has no entries for the constraint rows
            acc, den = _combine([(k, *grad_h[i]) for i, k in v if i < n_zeta])
            form = _sums_form(acc, den, n_zeta)
            if form is None:
                raise ChainError(
                    "nonlinear constraint candidate: reduction against the existing set is supported for "
                    f"linear constraints only (level {level} candidate: {_sums_expression(zeta, acc, den)})"
                )
            seen[v] = _form_expression(zeta, *form), form
            try:
                new = known._add_form(*form)
            except ValueError as err:
                raise ChainError(f"{err} (level {level} candidate: {seen[v][0]})") from None
        out.append(Candidate(vector=v, value=seen[v][0], classification=NEW if new else REDUNDANT))
    return out


def run_chain(m: FirstOrderModel, opts: ChainOptions | None = None) -> ChainReport:
    """Run the level loop until a termination certificate is reached.

    The model's integer view, shared with the oracle, gives the Hamiltonian
    gradient, the primaries' forms and the base tensor's columns.  What
    does not change between levels is computed once per run: the echelon
    basis of the constraint span, kept by the report as its ``_span``, the
    integer columns of F, which start as the base tensor's and are
    bordered once, in place, by each accepted constraint, the
    elimination of the constraint columns +A^T, which never change: it
    takes in each level's, once bordered, in one ``absorb`` call, in
    place, and a truncated attempt starts from its state after level 1,
    and each distinct null vector and its value and form, as the levels'
    null spaces are nested: ``null_basis`` builds a vector only for a
    free row and hits it has not met in the run.  An attempt reduces the
    coordinate columns, in a copy of the state, in one ``absorb`` call.
    """
    opts = opts or ChainOptions()
    cols = _integer_columns(m)
    n_zeta = len(cols)
    _, grad_h, forms = m._ints
    constraints: list[Constraint] = [
        Constraint.from_raw(1, p, ORIGIN_PRIMARY, form=form) for p, form in zip(m.primaries, forms)
    ]
    records: list[LevelRecord] = []
    truncations: list[int] = []
    warnings: list[str] = []

    # every primary is a level-1 constraint, whose +A^T column every
    # attempt keeps: each null vector is orthogonal to the primaries'
    # gradients, so the multipliers cancel from v . grad(H_T)
    known = EchelonBasis(m.zeta)
    seen: dict[tuple, tuple[Expression, tuple[dict[int, int], int]]] = {}
    built: dict[tuple, tuple] = {}
    full = SparseEchelon()
    full.num = 1  # track the determinant
    level1: SparseEchelon | None = None
    for c, form in zip(constraints, forms):
        if form is None:  # a nonlinear primary
            raise ChainError(
                "constraint gradient is not constant; the exact chain supports "
                f"linear constraints only (level {c.level} constraint: {c.raw})"
            )
        _border(cols, form, n_zeta)
    full.absorb(cols[n_zeta:])
    known._add_forms(forms)  # a span does not depend on its members' scale

    def attempt(k: int, truncated: bool):
        """Classify the null vectors of one bordered matrix and record the level."""
        # all the columns, or the coordinate and level-1 ones
        kept = cols[: n_zeta + sum(c.level == 1 for c in constraints)] if truncated else cols
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
            form = seen[c.vector][1]
            constraints.append(Constraint.from_raw(k + 1, c.value, origin, c.vector, form))
            _border(cols, form, n_zeta)
        full.absorb(cols[-len(new):])

    report = ChainReport(
        model_name=m.name,
        zeta_names=m.zeta.names,
        multiplier_names=m.multiplier_names,
        constraints=tuple(constraints),
        levels=tuple(records),
        truncations=tuple(truncations),
        termination=termination,
        warnings=tuple(warnings),
    )
    vars(report)["_span"] = known  # the report's span, as ``ChainReport._span`` caches it
    return report
