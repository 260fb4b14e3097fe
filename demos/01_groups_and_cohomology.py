"""Walkthrough: finite groups, 2-cochains, and H^2 classification.

Run:  python3 demos/01_groups_and_cohomology.py
"""

from covlab import fingroup as fg
from covlab.cohomology2 import (Cochain2, classify_h2,
                                coboundary_twist, cohomologous,
                                trivial_cochain, validate_cocycle)

# -- groups are multiplication tables with the identity at index 0 ----------

z2 = fg.make_group([[0, 1], [1, 0]], name="Z2")
print("Z2 accepted:", z2)

try:
    fg.make_group([[0, 1], [1, 1]])
except fg.CheckFailed as err:
    # every failed check carries its Report: the violation and its witness
    print("bad table rejected:", err.report.violation, err.report.witness)

q8 = fg.quaternion8()
print("Q8 element orders:", q8.order_profile())
print("centre(Q8):", fg.centre(q8))

aut = fg.compute_aut(fg.standard_group("Z2xZ2"))
print("Aut(Z2xZ2) has order", aut.order, "- the permutations of the three",
      "involutions")

# -- 2-cochains: a pair (xi, phi); the cocycle laws are checked exactly -----

z4_producing = Cochain2(z2, z2, ((0, 0), (0, 1)), (0, 0))
print("\nxi(g,g) = a over (Z2, Z2):", validate_cocycle(z4_producing))

# twisting by zeta: G -> A moves around inside one cohomology class
twisted = coboundary_twist(trivial_cochain(z2, fg.cyclic(4)), (0, 1))
print("twist of the trivial cochain by zeta(g)=r has xi(g,g) = r^2:",
      twisted.xi[1][1] == 2)

# the two classes over (Z2, Z2) are genuinely different
print("z4-producing ~ trivial?",
      cohomologous(z4_producing, trivial_cochain(z2, z2)) is not None)

# -- full classification: every normalized cocycle, grouped into classes ---

for gn, an in [("Z2", "Z2"), ("Z2", "Z3"), ("Z3", "Z3"), ("Z2", "Z4")]:
    res = classify_h2(fg.standard_group(gn), fg.standard_group(an))
    sizes = ["%d%s" % (cls.size, "*" if cls.distinguished else "")
             for cls in res.classes]
    print(f"H^2({gn}, {an}): {res.count} classes, "
          f"sizes [{', '.join(sizes)}] (* marks the trivial class)")
