#!/usr/bin/env python3
"""Walk through the four-level constraint chain of the mechanical model.

The model starts life as a velocity-quadratic Lagrangian L = xdot*ydot
- z*(x+y).  The z coordinate has no velocity, so its momentum vanishes:
that is the primary constraint, and consistency forces three more.
"""

from symchain import (
    ChainOptions,
    SecondOrderLagrangian,
    VarTable,
    assemble_extended_matrix,
    legendre_transform,
    parse_expression,
    run_chain,
)

# -- from Lagrangian to first-order data -------------------------------

coords = VarTable(["x", "y", "z"])
table = SecondOrderLagrangian.full_table(coords)
lagrangian = SecondOrderLagrangian(coords, parse_expression("xdot*ydot - z*(x+y)", table))
model = legendre_transform(lagrangian, name="example2")

print("phase space:", " ".join(model.zeta.names))
print("H_C =", model.hamiltonian)
print("primaries:", ", ".join(str(p) for p in model.primaries))
# every primary borders the extended matrix, so the multipliers of the
# total Hamiltonian cancel and the chain contracts with grad(H) over zeta
grad_h = model.hamiltonian.gradient()
print("grad H =", tuple(str(e) for e in grad_h))
print()

# -- the extended matrix at level 1 ------------------------------------

report = run_chain(model)
level1 = [c for c in report.constraints if c.level == 1]
f1 = assemble_extended_matrix(model, level1)
print("extended matrix at level 1 (coordinates + one auxiliary column):")
print(f1)
print()

# Its single left null vector contracts with grad H (the auxiliary row
# adds nothing) to give the next constraint, and so on.  Level 3 is
# special: the full matrix is singular but yields nothing new, and only
# the column-truncated form exposes the last constraint.

# A generator holds v's nonzero (index, value) pairs; v is as long as the
# rows of the level it was read off.

print("chain:")
rows = {rec.level: rec.shape[0] for rec in report.levels}
for c in report.constraints:
    gen = ""
    if c.generator is not None:
        v = [0] * rows[c.level - 1]
        for i, x in c.generator:
            v[i] = x
        gen = f"  from v = ({', '.join(str(x) for x in v)})"
    print(f"  level {c.level}: {c.expr}   [{c.origin}]{gen}")
print("truncation events at levels:", report.truncations)
print("termination:", report.termination.describe())
print()

# -- what happens without the truncation rule --------------------------

stuck = run_chain(model, ChainOptions(allow_truncation=False))
print("without truncation:", stuck.termination.describe())
print("and the chain stops at", stuck.num_levels(), "levels instead of 4")
