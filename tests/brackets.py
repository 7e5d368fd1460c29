"""Test-side reference: the canonical Poisson bracket on explicit (q, p) index pairs.

It differentiates general polynomials and never reads the base tensor,
so it stays independent of the oracle's bracket, which comes from f.
"""

from symchain import Expression


def canonical_pairs(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs of a table that lists n/2 coordinates, then their momenta."""
    return tuple((i, n // 2 + i) for i in range(n // 2))


def poisson_bracket(a: Expression, b: Expression, pairs) -> Expression:
    """sum over (q, p) in ``pairs`` of da/dq db/dp - da/dp db/dq, exact."""
    zeta = a.vars
    if b.vars != zeta or len(pairs) * 2 != len(zeta):
        raise ValueError(
            "bracket arguments must live over one phase-space table that the pairs cover "
            "(no multiplier or auxiliary symbols)"
        )
    total = Expression.zero(zeta)
    names = zeta.names
    for qi, pi in pairs:
        q, p = names[qi], names[pi]
        total = total + a.differentiate(q) * b.differentiate(p)
        total = total - a.differentiate(p) * b.differentiate(q)
    return total
