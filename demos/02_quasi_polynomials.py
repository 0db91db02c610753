"""Ehrhart quasi-polynomials, coefficient periods, and quasi-period.

The count |nP ∩ Z^2| is always c2(n) n^2 + c1(n) n + c0(n) where each
coefficient is a periodic function of n.  The library takes c2 and c1
from the edges, c0 from one count per residue class, checks every entry
by Ehrhart-Macdonald reciprocity, and extracts each coefficient's minimal
period.
"""
from fractions import Fraction as F

from ehrpoly import Polygon, ehrhart, is_pip, mcmullen_indices

print(__doc__)


def describe(name, P):
    q = ehrhart(P)
    ps = q.period_sequence()
    print(f"{name}: modulus {q.modulus}")
    print(f"  c2 table = {[str(c) for c in q.c2]}")
    print(f"  c1 table = {[str(c) for c in q.c1]}")
    print(f"  c0 table = {[str(c) for c in q.c0]}")
    print(f"  period sequence (s2, s1, s0) = ({ps.s2}, {ps.s1}, {ps.s0}),"
          f" quasi-period {ps.quasi_period}")
    print(f"  indices (p2, p1, p0) = {mcmullen_indices(P)}"
          f"   [each s_i divides p_i]")
    print(f"  pseudo-integral: {is_pip(P)}")
    print()


describe("unit square", Polygon([(0, 0), (1, 0), (1, 1), (0, 1)]))

# A thin rectangle [0, 1/3] x [0, 2]: the linear and constant coefficients
# oscillate with period 3.
describe("rectangle [0,1/3] x [0,2]",
         Polygon([(0, 0), (F(1, 3), 0), (F(1, 3), 2), (0, 2)]))

# Halving the square's top edge breaks integrality but not the count at even n.
describe("square squashed to height 1/2",
         Polygon([(0, 0), (1, 0), (1, F(1, 2)), (0, F(1, 2))]))

print("The rectangle tables show the general shape: the leading coefficient")
print("is constantly the area, while lower coefficients may genuinely")
print("oscillate. When every table is constant the polygon behaves like an")
print("integral one; such polygons are called pseudo-integral.")
