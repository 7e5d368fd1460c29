"""Test-side references for polynomials and matrices: moving a polynomial onto another table by name, its total
degree, its linear coefficients and integer form, and sympy's view of it; the chain's bordered matrix F read off
linear coefficients, and sympy's canonical left null basis of a matrix.

None of them shares code with ``symchain.expressions`` beyond reading an
Expression's terms and building one through the checked constructor, and
none calls ``symchain.chain`` or ``symchain.linalg``.
"""

from fractions import Fraction
from math import gcd, lcm

import sympy

from symchain import Expression


def relabel(e: Expression, table) -> Expression:
    """``e`` over ``table``, each variable moved to the slot of the same name there."""
    names = e.vars.names
    return Expression(table, {
        tuple(sorted((table.index_of(names[i]), k) for i, k in mono)): c for mono, c in e.terms.items()
    })


def degree(e: Expression) -> int:
    """The total degree of ``e``, read off its terms; the zero polynomial has degree 0."""
    return max((sum(k for _, k in mono) for mono in e.terms), default=0)


def linear_coefficients(e: Expression) -> tuple[tuple[Fraction, ...], Fraction]:
    """The coefficient of each table variable in the linear ``e``, in table order, and its constant term."""
    coeffs = [Fraction(0)] * len(e.vars)
    for mono, c in e.terms.items():
        if mono:
            ((i, k),) = mono
            assert k == 1, f"{e} is not linear"
            coeffs[i] = c
    return tuple(coeffs), e.terms.get((), Fraction(0))


def integer_form(e: Expression) -> tuple[dict[int, int], int]:
    """The linear ``e`` as ints over the lcm of its denominators: variable i at key i, the constant at key len(table)."""
    coeffs, const = linear_coefficients(e)
    values = {i: x for i, x in enumerate(coeffs + (const,)) if x}
    scale = lcm(*(x.denominator for x in values.values()))
    return {i: int(x * scale) for i, x in values.items()}, scale


def to_sympy(e: Expression) -> sympy.Expr:
    """``e`` as a sympy polynomial in one symbol per table name."""
    symbols = [sympy.Symbol(name) for name in e.vars.names]
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[symbols[i] ** k for i, k in mono])
        for mono, c in e.terms.items()
    ])


def bordered(model, constraints, truncated=False) -> list[list[Fraction]]:
    """The extended matrix F of ``constraints`` on the linear ``model``, as Fraction rows, from linear coefficients.

    The coordinate block is f_ab = d_a c_b - d_b c_a; each constraint, in
    level order, adds the row -A and the column +A^T, A the gradient of its
    ``raw`` form.  ``truncated`` keeps, of the constraint columns, only the
    level-1 ones; every row stays.
    """
    n = len(model.zeta)
    d = [linear_coefficients(cb)[0] for cb in model.c]  # d[b][a] = d_a c_b
    grads = [linear_coefficients(c.raw)[0] for c in sorted(constraints, key=lambda c: c.level)]
    rows = [[d[b][a] - d[a][b] for b in range(n)] + [g[a] for g in grads] for a in range(n)]
    rows += [[-x for x in g] + [Fraction(0)] * len(grads) for g in grads]
    if truncated:
        keep = n + sum(c.level == 1 for c in constraints)
        rows = [row[:keep] for row in rows]
    return rows


def sympy_matrix(rows) -> sympy.Matrix:
    """The rational ``rows`` (ints or Fractions) as a sympy matrix."""
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])


def from_sympy(x) -> Fraction:
    return Fraction(int(x.p), int(x.q))


def sympy_left_null_basis(rows) -> list[list[Fraction]]:
    """sympy's left null space of ``rows``, brought to primitive reduced row-echelon rows with positive leads."""
    null = sympy_matrix(rows).T.nullspace()
    if not null:
        return []
    reduced, pivots = sympy.Matrix.hstack(*null).T.rref()
    basis = []
    for i in range(len(pivots)):
        row = [from_sympy(x) for x in reduced.row(i)]
        mult = lcm(*(x.denominator for x in row))
        ints = [int(x * mult) for x in row]
        g = gcd(*ints) if next(x for x in ints if x) > 0 else -gcd(*ints)
        basis.append([Fraction(x // g) for x in ints])
    return basis
