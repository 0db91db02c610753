"""Building polygons with any prescribed period sequence (1, s, t).

The leading Ehrhart coefficient is the area, so its period is always 1.
Nothing constrains the other two:

* a heptagon H(s) has period sequence (1, s, 1);
* a thin triangle Q(t) anchored at a lattice point has (1, 1, t);
* gluing them along a shared unit lattice edge multiplies the behaviors
  into (1, s, t).

The heptagon's period claim is certified by cutting it into a rectangle and
three triangles, shearing two of them onto an integral spike, and tracking
the one half-open interval of overcounting.
"""
import math

from ehrpoly import (
    ehrhart, glued, glued_count_identity, heptagon, heptagon_decomposition,
    series_coefficients, gf_series_check, lattice_count, triangle_q,
)

print(__doc__)

for s in (2, 3):
    ps = ehrhart(heptagon(s)).period_sequence()
    print(f"H({s}): period sequence ({ps.s2}, {ps.s1}, {ps.s0});"
          f" decomposition check: {all(heptagon_decomposition(s)['checks'].values())}")
print()

for t in (2, 4):
    Q = triangle_q((0, 0), t)
    ps = ehrhart(Q).period_sequence()
    counts = [lattice_count(Q, n) for n in range(1, 9)]
    print(f"Q({t}): period sequence ({ps.s2}, {ps.s1}, {ps.s0});"
          f" counts {counts}")
    print(f"       series check against (1-z)^-2 (1-z^{t})^-1:"
          f" {gf_series_check(Q, t, 3 * t + 6)}"
          f"  (coefficients {series_coefficients(t, 9)})")
print()

for s, t in [(2, 3), (4, 5), (5, 2)]:
    P = glued(s, t)
    ps = ehrhart(P).period_sequence()
    print(f"glued({s},{t}): period sequence ({ps.s2}, {ps.s1}, {ps.s0}),"
          f" quasi-period {ps.quasi_period} = lcm({s},{t})"
          f" = {math.lcm(s, t)}")
    assert glued_count_identity(s, t)
print()
print("The glued count satisfies count(P) = count(H) + count(Q) - (n+1):")
print("the shared edge is a unit lattice segment counted by both pieces.")
