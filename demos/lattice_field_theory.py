#!/usr/bin/env python3
"""Run the constraint analysis on the lattice gauge-boson/scalar model.

The continuum system has one four-level second-class chain per spatial
point.  On a periodic N-site lattice the same structure shows up as N
parallel chains: 4N constraints, with the truncation step needed at
level 3, exactly as in the continuum treatment.
"""

from fractions import Fraction

from symchain import (
    LatticeSpec,
    build_schwinger,
    compare_spans,
    consistency_algorithm,
    map_constraint_to_sites,
    run_chain,
)

spec = LatticeSpec(sites=5, spacing=Fraction(1), scheme="central")

print("difference matrix D (central, exactly antisymmetric):")
# the circulant stencil (S - S^T)/(2a): +1/(2a) right of the diagonal, -1/(2a) left of it, wrapping around
half = Fraction(1, 2) / spec.spacing
n = spec.sites
for i in range(n):
    print(" ".join(str(half * ((j - i) % n == 1) - half * ((i - j) % n == 1)) for j in range(n)))
print()

model = build_schwinger(spec)
print(f"model {model.name}: {len(model.zeta)} coordinates, "
      f"{len(model.primaries)} primary constraints")

report = run_chain(model)
print("chain:", len(report.constraints), "constraints in", report.num_levels(), "levels")
print("truncation events:", report.truncations)
print("termination:", report.termination.describe())
print()

# The oracle derives the same surface by iterating consistency
# conditions; its constraints come out site-local, so the stencil
# mapper can name them.
oracle = consistency_algorithm(model)
print("consistency-algorithm constraints, as per-site stencils:")
seen = set()
for c in oracle.constraints:
    stencil = map_constraint_to_sites(c.expr, spec)
    text = stencil.describe() if stencil else str(c.expr)
    pattern = text.split(" @ ")[0]
    if pattern not in seen:
        seen.add(pattern)
        print(f"  level {c.level}: {text}")

print()
print("chain vs oracle spans:", compare_spans(report, oracle.constraints).describe())
# with the central scheme at spacing 1 the final determinant is 2^(4N-2)
expected = 2 ** (4 * spec.sites - 2)
assert report.termination.determinant == expected, report.termination.determinant
print(f"final determinant {report.termination.determinant} = 2^(4N-2) for N = {spec.sites}: asserted")
