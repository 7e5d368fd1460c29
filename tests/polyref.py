"""Test-side references for polynomials: moving one onto another table by name, and sympy's view of it.

Neither shares code with ``symchain.expressions`` beyond reading an
Expression's terms and building one through the checked constructor.
"""

import sympy

from symchain import Expression


def relabel(e: Expression, table) -> Expression:
    """``e`` over ``table``, each variable moved to the slot of the same name there."""
    names = e.vars.names
    return Expression(table, {
        tuple(sorted((table.index_of(names[i]), k) for i, k in mono)): c for mono, c in e.terms.items()
    })


def to_sympy(e: Expression) -> sympy.Expr:
    """``e`` as a sympy polynomial in one symbol per table name."""
    symbols = [sympy.Symbol(name) for name in e.vars.names]
    return sympy.Add(*[
        sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*[symbols[i] ** k for i, k in mono])
        for mono, c in e.terms.items()
    ])
