#!/usr/bin/env python3
"""Exact rational matrices: determinants, canonical null bases, rank.

Everything is a fractions.Fraction; there is no floating point, so a
determinant of 16 means exactly 16 and a null vector annihilates its
matrix entry for entry.
"""

from fractions import Fraction

from symchain import RationalMatrix, determinant, left_null_space, rank

# -- exact determinants -----------------------------------------------

m = RationalMatrix([
    [Fraction(1, 2), 2, 0],
    [3, Fraction(-1, 3), 1],
    [0, 5, Fraction(7, 6)],
])
print("matrix:")
print(m)
print("det =", determinant(m))
print()

# -- canonical left null spaces ----------------------------------------

# a rank-2 matrix with a 2-dimensional left null space; the basis is
# in reduced echelon form, scaled to primitive integer vectors, so the
# same matrix always gives the bit-identical basis
singular = RationalMatrix([
    [1, 2],
    [2, 4],
    [0, 1],
    [Fraction(1, 2), 2],
])
basis = left_null_space(singular)
print("left null basis of a 4x2 matrix:")
for v in basis:
    print("  v =", tuple(str(x) for x in v))
    check = [sum(v[i] * singular.entry(i, j) for i in range(4)) for j in range(2)]
    print("  v.M =", check)
print("rank + nullity =", rank(singular), "+", len(basis), "=", singular.rows)
