"""Searching for pseudo-integral violations of Scott's inequality.

Integral polygons with I >= 1 interior points satisfy b <= 2I + 6 except
for the single signature (1, 9).  Whether pseudo-integral polygons must
obey the same bound is open.  Two facts narrow the hunt:

* a polygon whose integral hull has an interior lattice point always obeys
  the inequality, so a counterexample needs a thin integral hull;
* a PIP can have b = 1 or b = 2 (see demo 03), but never b = 0, and never
  (I, b) = (0, 1) or (0, 2).

The search below draws seeded random rational polygons, keeps the
pseudo-integral ones, and tabulates their (I, b) signatures.  Identical
seeds give byte-identical reports.
"""
from ehrpoly import integral_hull_proposition_check, scott_pip_search

print(__doc__)

report = scott_pip_search(seed=1, trials=400, max_denominator=4, coord_bound=4)
print(f"trials: {report.trials}, valid polygons: {report.polygons_tested}, "
      f"pseudo-integral: {report.pips_found}")
print(f"counterexamples (b > 2I+6, I >= 1): {len(report.counterexamples)}")
print(f"counterexamples (b > 2I+7, I >= 1): {len(report.counterexamples_weak)}")
print()
print("signature census (I, b) -> occurrences:")
for (I, b), c in sorted(report.census.items()):
    print(f"  ({I:>2}, {b:>2}): {c}")
print()
print("Rerun exactly with: ehrpoly search --seed 1 --trials 400 "
      "--max-denominator 4 --coord-bound 4")
print()
print("Spot check of the integral-hull criterion on the found PIPs' shapes:")
shown = 0
from ehrpoly.sampling import random_polygon, trial_rng
for i in range(report.trials):
    P = random_polygon(trial_rng(1, i), 4, 4)
    if P is None:
        continue
    applicable, holds = integral_hull_proposition_check(P)
    if applicable and shown < 5:
        print(f"  hull has interior point -> inequality holds: {holds}   {P}")
        shown += 1
