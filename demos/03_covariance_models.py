"""Walkthrough: finite category models, gauge groups, canonical cocycles.

A theory is a functor between finite categories; a group acting on the
source produces translated theories, and a family of natural isomorphisms
realizing their equivalence ("an implementation") carries a canonical
2-cocycle valued in the gauge group of natural automorphisms.

Run:  python3 demos/03_covariance_models.py
"""

from covlab import models
from covlab.cohomology2 import cohomologous, trivial_cochain
from covlab.covariance import (active_passive_compose, compare_implementations,
                               compute_gauge_group, extract_cocycle,
                               lift_to_extension, twist_implementation)

# -- the one-object model: gauge group Z4, trivial Z2 action ----------------

impl = models.one_object_cyclic_model(power=1)
gauge = compute_gauge_group(impl.functor)
print("one-object model: gauge group order", gauge.order,
      "with profile", gauge.table.order_profile())

c = extract_cocycle(impl)
print("extracted cocycle: xi(g,g) = r^%d, phi = identity" % c.xi[1][1])
w = cohomologous(trivial_cochain(c.G, c.A), c)
print("its class is trivial, witness zeta =", w)

# two implementations of the same covariance are related by a gauge twist
other = models.one_object_cyclic_model(power=3)
print("eta(g)=r vs eta(g)=r^3: connecting twist zeta =",
      compare_implementations(impl, other))

# lifting to the extension group always neutralizes the cocycle
lifted = lift_to_extension(impl)
ec = extract_cocycle(lifted)
print("lifted to |E| =", lifted.action.group.order, "- extension cocycle neutral:",
      all(v == 0 for row in ec.xi for v in row))

# -- a random gauge twist is always recovered exactly ------------------------

spin = models.spin_frame_model()
twisted = twist_implementation(spin, (0, 3, 1, 2))
print("\nspin-frame model: recovered twist",
      compare_implementations(spin, twisted))

# -- active vs passive: composing frame moves with the implementation -------

impl, psi, base = models.frame_rotation_model(twist_parity=True)
res = active_passive_compose(psi, impl, base)
print("\nframe rotation model at base", base + ":")
print("  composite automorphisms:", list(res.components))
print("  (a homomorphism Z4 -> Z2, realized on the arrow decorations)")
