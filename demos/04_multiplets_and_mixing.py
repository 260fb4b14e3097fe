"""Walkthrough: field multiplets, the extended-group action, and mixing.

Run:  python3 demos/04_multiplets_and_mixing.py
"""

from covlab import models
from covlab.extension import build_extension, classify_type
from covlab.multiplet import (build_rho, detect_mixing, equivalent,
                              intertwiners, irreducible, verify_field_action)
from covlab.wickscale import scaling_multiplet

# -- the vector pattern: a 2-component field under finite rotations ----------

vec = models.vector_multiplet_action()
print("vector multiplet: laws hold:", verify_field_action(vec).valid)
rho = build_rho(vec)
print("star(g) is the inverse rotation:", vec.star[1])

# -- Schur reasoning with exact intertwiners ---------------------------------

reps = models.REPS["q8"]
triv, chi_i, two = reps["sign-1"](), reps["sign-i"](), reps["2d"]()
print("\nQ8 representations:")
print("  hom(triv, chi_i) =", len(intertwiners(triv, chi_i)), "(Schur zero)")
print("  end(2-dim) dimension =", len(intertwiners(two, two)),
      "-> irreducible:", irreducible(two))
print("  triv ~ chi_i:", equivalent(triv, chi_i))

# -- mixing: forbidden for direct products, realized otherwise ---------------

for name, fixture in [("inequivalent blocks", "blocks"),
                      ("equivalent blocks", "equivalent-blocks"),
                      ("central Z4 cocycle", "central-z4")]:
    action = models.FIELD_FIXTURES[fixture]()
    res = detect_mixing(action, *models.SUBMULTIPLETS[fixture]())
    labels = classify_type(build_extension(action.cocycle)).labels
    print(f"\n{name}: extension {labels}")
    if res.witness is None:
        print("  no element of E connects the two multiplets"
              + ("  [no-mixing assertion armed]" if res.no_mixing_asserted else ""))
    else:
        print("  mixed by e =", res.witness_pair, "(gauge part, group part)")

# the quaternion extension mixes two inequivalent multiplier lines
q8a = models.FIELD_FIXTURES["q8"]()
res = detect_mixing(q8a, *models.SUBMULTIPLETS["q8"]())
print("\nquaternion extension (nontrivial class):",
      classify_type(build_extension(q8a.cocycle)).labels)
print("  rotation eigenlines mixed by e =", res.witness_pair)

# -- the scaling multiplet of a Wick power -----------------------------------

print("\nscale action on span{R^j Phi^(4-2j)} at lambda = 2:")
m = scaling_multiplet(4)
for row in m.matrix:
    print("   [", " | ".join(str(c) for c in row), "]")
print("  verdict:", m.verdict)
print("  at conformal coupling:", scaling_multiplet(4, coupling="conformal").verdict)
