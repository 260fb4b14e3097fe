"""Walkthrough: central covers, section factor sets, and the spin obstruction.

The quaternion double cover Q8 -> Z2 x Z2 is the finite stand-in for a
spin covering: its kernel {1, -1} is central, every section produces a
nontrivial factor set, and a representation descends to the base exactly
when -1 acts trivially.

Run:  python3 demos/05_covering_and_spin.py
"""

from covlab import models
from covlab.cohomology2 import coboundary_twist, cohomologous, trivial_cochain
from covlab.covering import (all_sections, check_centre_hom, cyclic_cover,
                             extended_quotient, induced_gauge_cocycle,
                             section_twist, spin_obstruction, z_class_trivial,
                             z_cocycle)

cov = models.COVERS["q8"]()
reps = models.REPS["q8"]
print("cover: Q8 -> Z2xZ2 with kernel", cov.kernel_elements, "(central)")

lifts = all_sections(cov)
print("sections with lift(1) = 1:", len(lifts))
for lift in lifts[:2]:
    z = z_cocycle(cov, lift)
    print("  lift", lift, "gives z values",
          tuple(cov.kernel_elements[v] for v in z.xi[1][1:]),
          "... class trivial?", z_class_trivial(z) is not None)

# two sections differ by the central map l -> s(l) s0(l)^-1, which twists one
# factor set into the other; the search finds a witness too
z0 = z_cocycle(cov, lifts[0])
named = all(coboundary_twist(z0, section_twist(cov, lifts[0], lift)) == z_cocycle(cov, lift)
            for lift in lifts)
print("the section twist carries z(s0) to z(s) for every section:", named)
same = all(cohomologous(z_cocycle(cov, a), z_cocycle(cov, b)) is not None
           for a in lifts for b in lifts)
print("every pair of sections gives cohomologous factor sets:", same)

# -- pushing the factor set into a gauge group -------------------------------

flip = models.KERNEL_MAPS["flip"](cov.K)   # univalence: -1 acts as the flip
print("\nkernel restriction is a central homomorphism:",
      check_centre_hom(flip).valid)
induced = induced_gauge_cocycle(z0, flip)
print("induced gauge cocycle trivial?",
      cohomologous(induced, trivial_cochain(induced.G, induced.A)) is not None)

trivial_univalence = models.KERNEL_MAPS["trivial"](cov.K)
induced0 = induced_gauge_cocycle(z0, trivial_univalence)
print("with trivial univalence it is trivial:",
      cohomologous(induced0, trivial_cochain(induced0.G, induced0.A)) is not None)

# -- descent of representations ----------------------------------------------

print("\ndescent along the cover:")
verdict = spin_obstruction(cov, flip, reps["2d"]())
print("  2-dim irreducible: descends =", verdict.descends,
      "| obstruction witness =", verdict.obstruction_witness,
      "(the central -1: the finite analogue of a spinor)")
for axis in "1ijk":
    v = spin_obstruction(cov, flip, reps[f"sign-{axis}"]())
    print(f"  sign character ({axis}): descends = {v.descends}")

# -- the extended group of the base: a central-product quotient --------------

quot = extended_quotient(cov, flip)
print("\n(A x S) / <(flip, -1)> has order", quot.order,
      "and profile", quot.order_profile())

# the cyclic stand-in for covers with cyclic fundamental group
cyc = cyclic_cover(8, 2)
print("\ncyclic cover Z8 -> Z4: sections =", len(all_sections(cyc)),
      "| z class trivial?",
      z_class_trivial(z_cocycle(cyc, all_sections(cyc)[0])) is not None)
