"""Independent ground truth: the Dirac-Bergmann consistency algorithm.

This module re-derives the constraint set the classical way: iterate
phidot = {phi, H_T} until closure, fixing multipliers where a bracket
with a primary survives.  The bracket is the one the first-order form
fixes, {a, b} = grad(a) . f^-1 . grad(b) (Faddeev & Jackiw 1988), so it
holds for any order of the coordinates.  Each pass forms a candidate
only for the null directions the previous pass added, in integers.
The module shares with the chain driver the base tensor f
(``_integer_columns``), the span basis (``_span``), the conversions of
``expressions`` between an Expression, int monomial sums and the integer
affine form, and the exact kernel: the same ``SparseEchelon`` and
linalg's ``_combine``, ``_integral``, ``_put`` and ``_rows``.  Agreement
between the two checks the derivation, the consistency iteration
against the bordered-matrix chain, but not that kernel; the tests'
sympy references are what guard it.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Sequence

from .chain import ORIGIN_PRIMARY, ChainReport, Constraint, span_fingerprint, _integer_columns, _span
from .expressions import EchelonBasis, Expression, _affine_form, _form_expression, _sums_expression, _sums_form
from .linalg import RationalMatrix, SparseEchelon, _combine, _integral, _put, _rows
from .model import FirstOrderModel

ORIGIN_CONSISTENCY = "consistency"


def _inverse(m: FirstOrderModel) -> list[tuple[dict[int, int], int]]:
    """The sparse rows of f^-1, f the chain's base tensor, as (vec, scale) pairs from one elimination.

    The rows of [f | I], taken in by one ``absorb``, reduce to [I | f^-1],
    row a over its pivot entry; a pivot in the I half means f is
    degenerate, and the oracle then raises ``ValueError``.
    """
    n = len(m.c)
    # f is antisymmetric: its row a is minus its column a
    kernel = SparseEchelon().absorb(
        ({**{~key: -x for key, x in col.items()}, n + a: scale}, 1) for a, (col, scale) in enumerate(_integer_columns(m))
    )
    rank = sum(pivot < n for pivot in kernel.rows)
    if rank < n:
        raise ValueError(
            f"the consistency oracle needs a nondegenerate base tensor f, but f has rank {rank} of {n}"
        )
    return [({j - n: x for j, x in row.items() if j >= n}, row[a]) for a, row in sorted(kernel.rows.items())]


def _flow(form: tuple[dict[int, int], int], finv: Sequence[tuple[dict[int, int], int]]) -> tuple[dict[int, int], int]:
    """u = -f^-1 grad(a) for ``a`` of integer affine form ``form``, as a (vec, scale) pair: {a, b} = sum_j u_j d_j b.

    f^-1 is antisymmetric, so u = sum_j d_j a * (row j of f^-1).
    """
    vec, den = form
    u, scale = _combine([(x, *finv[j]) for j, x in vec.items() if j < len(finv)])  # the constant has no gradient
    return u, scale * den


def _put_brackets(cols: list, grads: Sequence[tuple[dict[int, int], int]], u: dict, scale: int, i: int) -> None:
    """Write {phi_i, g} = u . grad(g)/scale, u/scale the flow of phi_i, at key ~i of cols[g] for each ``grads`` g."""
    for g, (grad, den) in enumerate(grads):
        x = sum(u[j] * y for j, y in grad.items() if j in u)
        if x:
            _put(cols, g, ~i, x, scale * den)


class MultiplierCondition(namedtuple("MultiplierCondition", "constraint condition")):
    """A consistency condition that fixes multipliers instead of adding a constraint.

    ``constraint`` (Constraint); ``condition`` (Expression over the working table, mentioning a multiplier).
    """

    __slots__ = ()


class OracleResult(namedtuple("OracleResult", "constraints multiplier_conditions")):
    """The closed set: ``constraints`` (Constraint tuple), ``multiplier_conditions`` (their tuple)."""

    __slots__ = ()

    def span_fingerprint(self) -> str:
        return span_fingerprint([c.expr for c in self.constraints])


def _candidate(w: Sequence[tuple], flows: list[tuple[dict, int]], grad_h: list[tuple[dict, int]]) -> tuple[dict, int]:
    """{sum_i w_i phi_i, H} = grad(H) . sum_i w_i u_i, w as its (i, w_i) pairs, in int monomial sums."""
    flow, mult = _combine([(k, *flows[i]) for i, k in w])
    acc, den = _combine([(x, *grad_h[j]) for j, x in flow.items() if x])
    return acc, den * mult


def consistency_algorithm(m: FirstOrderModel) -> OracleResult:
    """Iterate the consistency conditions until the constraint set closes.

    Each pass writes phidot_a = {phi_a, H} + sum_mu lam_mu {phi_a, phi_mu}
    over the whole current set.  Multiplier-free combinations, the left
    null vectors of the bracket matrix against the primaries, must
    vanish on the constraint surface; nonzero remainders become new
    constraints.  Rows with a surviving multiplier term fix that
    multiplier and are recorded, never substituted back.

    Level bookkeeping matches the chain module: primaries are level 1
    and a condition drawn from levels up to k lands at level k+1.

    A pass skips each null vector w that is zero past ``seen``, the size
    of the set at the previous pass.  Such a w is a null vector of that
    pass; its candidate, linear in w, is a combination of that pass's
    candidates, each zero, reduced to zero or joined to the set, which
    only grows.  (The canonical basis is not nested, so it is recomputed.)
    The flow u = -f^-1 grad(phi), with {phi, b} = sum_j u_j d_j b, and
    the bracket-matrix row u . grad(mu) of a constraint are taken once,
    in ints, and candidates are formed and reduced in ints.
    A model with primaries and a degenerate f raises ``ValueError``.

    The loop closes within len(zeta) + 1 passes: a pass that does not
    end it appends a constraint whose remainder modulo all earlier ones
    is nonzero and not constant, so it takes a new pivot among the
    len(zeta) coordinate columns of the span.
    """
    constraints = [Constraint.from_raw(1, p, ORIGIN_PRIMARY) for p in m.primaries]
    if not constraints:
        return OracleResult((), ())
    primary_grads = [_affine_form(p) for p in m.primaries]
    if None in primary_grads:
        raise ValueError("nonlinear primary: the oracle supports linear constraints only")
    finv = _inverse(m)
    zeta, n, working = m.zeta, len(m.zeta), m.working
    grad_h = [_integral(g.terms) for g in m.hamiltonian.gradient()]
    flows: list[tuple[dict[int, int], int]] = []
    mixed: list[tuple[dict[int, int], int]] = [({}, 1) for _ in primary_grads]  # {phi_i, mu} at key ~i
    known = EchelonBasis(zeta)
    known.add(*(c.expr for c in constraints))
    seen = old = 0
    while len(constraints) > old:
        for c in constraints[old:]:  # join what the previous pass added: first the primaries
            flows.append(_flow(_affine_form(c.expr), finv))
            _put_brackets(mixed, primary_grads, *flows[-1], len(flows) - 1)
        seen, old = old, len(constraints)
        for w in SparseEchelon().absorb(mixed).null_basis(old, ~seen):  # nonzero past seen
            form = _sums_form(*_candidate(w, flows, grad_h), n)
            if form is None:
                raise ValueError(
                    "nonlinear consistency candidate: reduction is supported for linear constraints only"
                )
            if not known._add_form(*form):  # zero, or zero modulo the set
                continue
            level = 1 + max(constraints[i].level for i, _ in w)
            constraints.append(Constraint.from_raw(level, _form_expression(zeta, *form), ORIGIN_CONSISTENCY))
    conditions: list[MultiplierCondition] = []
    for i, (phi, (u, scale)) in enumerate(zip(constraints, flows)):
        # {phi_i, mu_g} lam_g, row i of the bracket columns: a key is written only for a nonzero entry
        lam = [(col[~i], {((n + g, 1),): 1}, s) for g, (col, s) in enumerate(mixed) if ~i in col]
        if lam:  # working is zeta followed by the multipliers, so {phi, H} keeps its monomials
            acc, den = _combine([(x, *grad_h[j]) for j, x in u.items() if x])
            sums, den = _combine([(1, acc, den * scale), *lam])
            conditions.append(MultiplierCondition(phi, _sums_expression(working, sums, den)))
    return OracleResult(tuple(constraints), tuple(conditions))


class ConstraintMatrix(namedtuple("ConstraintMatrix", "matrix rank first_class")):
    """Mutual-bracket matrix C_ab = {phi_a, phi_b} with its classification.

    ``matrix`` (RationalMatrix or None), ``rank`` (int), ``first_class``
    (Expression tuple): sum_a w_a phi_a (raw forms) for each w of the canonical
    left null basis of C, so its length plus the rank is the constraint count.
    """

    __slots__ = ()


def classify(m: FirstOrderModel, constraints: Sequence[Constraint]) -> ConstraintMatrix:
    """Bracket matrix, rank, and first-class combinations of a closed linear set of ``m``.

    Brackets are taken between the ``raw`` constraint forms, so the
    matrix (and its determinant) reflects the constraints exactly as
    generated; the rank and the span of the first-class combinations are
    scale-invariant either way.  With the oracle's flows u_a = -f^-1 grad(phi_a),
    C_ab = u_a . grad(phi_b), in the oracle's integer bracket columns, of which
    ``matrix`` is the dense view; a degenerate f raises ``ValueError``.
    """
    if not constraints:
        return ConstraintMatrix(None, 0, ())
    if any(c.raw.vars != m.zeta for c in constraints):
        raise ValueError("constraints must live over the phase-space table only")
    if not EchelonBasis(m.zeta).add(*(c.expr for c in constraints)):
        raise ValueError("constraint set is not linearly independent")
    finv = _inverse(m)
    k = len(constraints)
    grads = [_affine_form(c.raw) for c in constraints]
    cols: list[tuple[dict[int, int], int]] = [({}, 1) for _ in constraints]  # {phi_i, phi_g} at key ~i
    for i, grad in enumerate(grads):
        _put_brackets(cols, grads, *_flow(grad, finv), i)
    null = SparseEchelon().absorb(cols).null_basis(k)
    first_class = tuple(_form_expression(m.zeta, *_combine([(k, *grads[i]) for i, k in w])) for w in null)
    return ConstraintMatrix(RationalMatrix(_rows(cols, k)), k - len(null), first_class)


class SpanVerdict(namedtuple("SpanVerdict", "equal only_in_first only_in_second")):
    """Two spans compared: ``equal`` (bool); ``only_in_first``, ``only_in_second`` (Expression tuples)."""

    __slots__ = ()

    def describe(self) -> str:
        if self.equal:
            return "equal"
        parts = ["unequal"]
        if self.only_in_first:
            parts.append("chain-only: " + ", ".join(str(e) for e in self.only_in_first))
        if self.only_in_second:
            parts.append("oracle-only: " + ", ".join(str(e) for e in self.only_in_second))
        return "; ".join(parts)


def compare_spans(chain: ChainReport | Sequence[Constraint], oracle: Sequence[Constraint]) -> SpanVerdict:
    """Spans are equal iff the row-reduced coefficient matrices coincide.

    The verdict carries a mismatch basis: constraints of one side that
    stay nonzero after reduction against the other side's span.
    """
    span_first, basis_first = chain._span if isinstance(chain, ChainReport) else _span([c.expr for c in chain])
    span_second, basis_second = _span([c.expr for c in oracle])
    if basis_first == basis_second:
        return SpanVerdict(True, (), ())
    return SpanVerdict(False, _mismatch(basis_first, span_second), _mismatch(basis_second, span_first))


def _mismatch(candidates: Sequence[Expression], other: EchelonBasis | None) -> tuple[Expression, ...]:
    remainders = (other.remainder(e) if other is not None else e for e in candidates)
    return tuple(r.monic() for r in remainders if not r.is_zero())
