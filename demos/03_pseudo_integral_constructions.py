"""Pseudo-integral polygons with very few boundary points.

Integral polygons always have at least 3 boundary lattice points.  Rational
polygons with a polynomial count (pseudo-integral polygons) can do better:
for every I >= 1 there is one with exactly 2 boundary points (a kite) and
one with exactly 1 (a triangle).  The b = 1 construction starts from a
semi-open triangle and pushes it through a chain of piecewise skew
unimodular transformations, none of which changes any lattice count.
"""
from ehrpoly import (
    boundary_count, ehrhart, interior_count, pip_b1, pip_b2, region_count,
)

print(__doc__)

print("b = 2 kites:")
for I in (1, 2, 5):
    P = pip_b2(I)
    q = ehrhart(P)
    print(f"  I={I}: {P}")
    print(f"        (interior, boundary) = ({interior_count(P, 1)}, "
          f"{boundary_count(P, 1)}), count = {q.c2[0]} n^2 + {q.c1[0]} n + {q.c0[0]}")
print()

print("b = 1 triangles, via the transformation chain:")
for I in (1, 3):
    trace = pip_b1(I)
    print(f"  I={I}:")
    for step in trace.steps:
        counts = [region_count(step.region, n) for n in range(1, 6)]
        removed = len(step.region.removed)
        print(f"    {step.label:<3} counts(n=1..5) = {counts}"
              f"   removed segments: {removed}")
    P = trace.final
    print(f"    final triangle {P}")
    print(f"    (interior, boundary) = ({interior_count(P, 1)}, "
          f"{boundary_count(P, 1)})")
print()
print("Each chain step has identical counts: the maps shear one side of a")
print("line while fixing the other, which permutes the lattice.  The")
print("half-open edge removed at the start is eventually covered by the")
print("image of another piece, so the final triangle is honestly closed.")
print()
print("Render a chain with:")
print("  ehrpoly construct pip-b1 --I 3 --trace -o trace.json")
print("  ehrpoly render trace.json chain.svg")
