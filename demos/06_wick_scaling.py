"""Walkthrough: the single-point Wick calculus and the scaling cocycle.

Run:  python3 demos/06_wick_scaling.py
"""

from fractions import Fraction

from covlab.wickscale import (GaugeElement, WickPoly, change_of_ordering,
                              gauge_scaling_action, parse_wickpoly,
                              scale_wick_power, scaling_cocycle_nontrivial,
                              wick_product)

PHI = WickPoly.phi_power
D = WickPoly.symbol(delta=1)

# -- the star product counts contractions ------------------------------------

# the coefficients of Phi^4, W Phi^2 and W^2: j-fold contraction counts
print("contraction coefficients for Phi^2 * Phi^2:",
      [n for _, n in wick_product(PHI(2), PHI(2)).nums])
print("Phi^2 * Phi^2 =", wick_product(PHI(2), PHI(2)))
print("Phi^1 * Phi^1 =", wick_product(PHI(1), PHI(1)))

# the text form round-trips
p = parse_wickpoly("3*W^1*Phi^2 + 1/2*Phi^1")
print("parsed and re-printed:", p)

# -- changing the ordering kernel mixes powers downward -----------------------

print("\nPhi^4 reordered against a shifted kernel:")
print("  ", change_of_ordering(PHI(4), D))
print("round trip with the opposite shift restores Phi^4:",
      change_of_ordering(change_of_ordering(PHI(4), D), -D) == PHI(4))

# -- almost homogeneous scaling ----------------------------------------------

print("\nscaled Wick powers (L = log of the squared scale factor):")
for k in (1, 2, 3, 4):
    print(f"  lam*Phi^{k} =", scale_wick_power(k))
print("at conformal coupling c = 0 scaling is homogeneous:",
      scale_wick_power(4).set_symbol("c", Fraction(0)))
# c = (6 xi - 1) / (96 pi^2), here at xi = 0
print("c at minimal coupling is", (6 * Fraction(0) - 1) / 96, "/ pi^2")

# -- the rigid-scaling gauge cocycle ------------------------------------------

print("\nthe scaling action on the gauge group (sign, shift):")
el = GaugeElement(-1, Fraction(3))
print("  lambda = 2 sends (-1, 3) to",
      gauge_scaling_action(Fraction(2), el))

cert = scaling_cocycle_nontrivial()
print("nontriviality certificate:")
print("  inner twists reach mu in", cert.reachable_mus,
      "but scaling needs mu =", cert.required_mu)
print("  =>", cert.reason)
print("nonzero coupling branch:",
      scaling_cocycle_nontrivial(xi_nonzero=True).reason)
