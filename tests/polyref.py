"""Test-side references for polynomials: moving one onto another table by name, its linear coefficients, and sympy's view of it.

Neither shares code with ``symchain.expressions`` beyond reading an
Expression's terms and building one through the checked constructor.
"""

from fractions import Fraction

import sympy

from symchain import Expression


def relabel(e: Expression, table) -> Expression:
    """``e`` over ``table``, each variable moved to the slot of the same name there."""
    names = e.vars.names
    return Expression(table, {
        tuple(sorted((table.index_of(names[i]), k) for i, k in mono)): c for mono, c in e.terms.items()
    })


def linear_coefficients(e: Expression) -> tuple[tuple[Fraction, ...], Fraction]:
    """The coefficient of each table variable in the linear ``e``, in table order, and its constant term."""
    coeffs = [Fraction(0)] * len(e.vars)
    for mono, c in e.terms.items():
        if mono:
            ((i, k),) = mono
            assert k == 1, f"{e} is not linear"
            coeffs[i] = c
    return tuple(coeffs), e.terms.get((), Fraction(0))


def to_sympy(e: Expression) -> sympy.Expr:
    """``e`` as a sympy polynomial in one symbol per table name."""
    symbols = [sympy.Symbol(name) for name in e.vars.names]
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[symbols[i] ** k for i, k in mono])
        for mono, c in e.terms.items()
    ])
