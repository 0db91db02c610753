"""Counting lattice points of rational polygons, exactly.

A rational polygon is the convex hull of finitely many points with rational
coordinates.  Dilating it by n = 1, 2, 3, ... and counting integer points
produces a sequence that this library computes three independent ways: fast
per-edge floor sums, a row-by-row scan, and a naive bounding-box check.
"""
from fractions import Fraction as F

from ehrpoly import (
    area, boundary_count, convex_hull, denominator, integral_hull,
    interior_count, lattice_count, lattice_count_naive, lattice_count_rowscan,
    lattice_points,
)

print(__doc__)

# A kite with rational side vertices: hull of 4 points, one of them redundant.
kite = convex_hull([(0, 0), (2, 0), (1, F(1, 2)), (1, F(-1, 2)), (1, 0)])
print("kite                =", kite)
print("area                =", area(kite))
print("denominator         =", denominator(kite))
print("interior / boundary =", interior_count(kite, 1), "/", boundary_count(kite, 1))
print("lattice points      =", lattice_points(kite))
print()

print("counts of the dilates nP, three independent counters:")
print(f"  {'n':>3} {'floor-sum':>10} {'row scan':>10} {'naive':>10}")
for n in range(1, 9):
    a = lattice_count(kite, n)
    b = lattice_count_rowscan(kite, n)
    c = lattice_count_naive(kite, n)
    assert a == b == c
    print(f"  {n:>3} {a:>10} {b:>10} {c:>10}")
print()
print("The sequence 3, 7, 13, 21, ... is n^2 + n + 1: a polynomial, even")
print("though the kite's vertices are not lattice points.")
print()

# The integral hull: the hull of the lattice points inside the polygon.
print("integral hull of the kite:", integral_hull(kite))
print("(only three collinear lattice points, so the hull is a segment)")
