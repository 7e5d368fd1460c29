"""Seeded random-model generators for the chain/oracle agreement suite.

``random_model`` gives canonical models (c carries the momenta), with a
homogeneous quadratic Hamiltonian and one or two independent homogeneous
linear primaries.  Homogeneity keeps every consistency candidate
homogeneous linear, so no run can hit the inconsistent-constant error
path.

``random_scaled_model`` is ``random_model`` with each momentum entry of
c scaled by a small nonzero rational, so f^-1 need not be integral.

``random_second_order`` gives the Legendre transform of a second-order
Lagrangian whose velocity Hessian is singular enough to leave at least
two primaries, the same family as the ``L`` models of perfbench's
model-batch workload.
"""

import random
from fractions import Fraction

from symchain import (
    Expression,
    FirstOrderModel,
    RationalMatrix,
    SecondOrderLagrangian,
    VarTable,
    legendre_transform,
    rank,
)


def random_model(rng: random.Random) -> FirstOrderModel:
    n = rng.randint(1, 4)
    qs = [f"q{i + 1}" for i in range(n)]
    ps = [f"p{i + 1}" for i in range(n)]
    zeta = VarTable(qs + ps)
    names = zeta.names

    h = Expression.zero(zeta)
    for i in range(2 * n):
        for j in range(i, 2 * n):
            if rng.random() < 0.45:
                coeff = Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2]))
                if coeff:
                    h = h + coeff * Expression.variable(zeta, names[i]) * Expression.variable(
                        zeta, names[j]
                    )

    k = rng.randint(1, 2)
    while True:
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(2 * n)] for _ in range(k)]
        prims = [Expression(zeta, {((i, 1),): x for i, x in enumerate(row)}) for row in rows]
        if any(p.is_zero() for p in prims):
            continue
        if len(prims) > 1 and rank(RationalMatrix(rows)) != len(prims):
            continue
        break

    c = [Expression.variable(zeta, p) for p in ps]
    c += [Expression.zero(zeta) for _ in range(n)]
    return FirstOrderModel("random", zeta, c, h, prims)


def random_scaled_model(rng: random.Random) -> FirstOrderModel:
    """``random_model`` with c_i scaled by s_i in +-{1, 2, 3}/{1, 2, 3}, so det f = prod_i s_i^2."""
    m = random_model(rng)
    n = len(m.zeta) // 2
    scales = [Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3))) for _ in range(n)]
    c = [s * e for s, e in zip(scales, m.c)] + list(m.c[n:])
    return FirstOrderModel("random_scaled", m.zeta, c, m.hamiltonian, m.primaries)


def random_second_order(rng: random.Random) -> FirstOrderModel:
    """L = 1/2 v.W.v + v.B.x - V(x) over n = 2..4 coordinates, W of rank at most n - 2.

    W is a sum of at most n - 2 signed integer outer products, B and the
    quadratic potential V are sparse with small coefficients, and the
    model is the one ``legendre_transform`` returns.
    """
    n = rng.randint(2, 4)
    coords = VarTable([f"x{i + 1}" for i in range(n)])
    table = SecondOrderLagrangian.full_table(coords)
    x = [Expression.variable(table, name) for name in table.names[:n]]
    v = [Expression.variable(table, name) for name in table.names[n:]]
    lag = Expression.zero(table)
    for _ in range(rng.randint(0, n - 2)):
        uv = sum((rng.randint(-2, 2) * vi for vi in v), Expression.zero(table))
        lag = lag + Fraction(rng.choice((-1, 1)), 2) * uv * uv
    for i in range(n):
        for j in range(n):
            if rng.random() < 0.4:
                lag = lag + rng.randint(-2, 2) * x[j] * v[i]
    for i in range(n):
        for j in range(i, n):
            if rng.random() < 0.5:
                lag = lag - Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2))) * x[i] * x[j]
    return legendre_transform(SecondOrderLagrangian(coords, lag), name="second_order")
