"""Group extensions built from 2-cocycles.

The extension of G by A attached to a normalized cocycle (xi, phi) lives on
the set A x G, pair (a, g) encoded as index a*|G| + g, with product

    (a1, g1) * (a0, g0) = (a1 * phi(g1)(a0) * xi(g1, g0), g1 * g0)

and identity (1, 1).  A embeds as a |-> (a, 1) and G is the quotient by the
image, giving the short exact sequence  1 -> A -> E -> G -> 1.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from .cohomology2 import (Cochain2, _first_twist, _twist_candidates,
                          coboundary_twist, is_neutral, trivial_cochain,
                          validate_cocycle)
from .fingroup import GroupHom, GroupTable, table_on


class ExtensionGroup(NamedTuple):
    E: GroupTable
    cochain: Cochain2
    inclusion: GroupHom   # A -> E, a |-> (a, 1)
    projection: GroupHom  # E -> G, (a, g) |-> g

    def pair_index(self, a: int, g: int) -> int:
        return a * self.cochain.G.order + g

    def unpair(self, e: int) -> Tuple[int, int]:
        return divmod(e, self.cochain.G.order)


@lru_cache(maxsize=None)
def build_extension(c: Cochain2) -> ExtensionGroup:
    """Build E from a normalized cocycle; cached for the life of the process,
    so equal cochains share one extension.

    The cocycle laws are checked once, here (`CheckFailed` otherwise).  On
    a normalized cochain they hold exactly when the pair product is
    associative, so E is a group and 1 -> A -> E -> G -> 1 is exact; the
    build-extension verdict checks exactness and the tests check both on
    every cocycle of the small pairs.
    """
    if not c.is_normalized():
        raise ValueError("extension construction requires a normalized cochain")
    validate_cocycle(c).require("cocycle")
    G, A = c.G, c.A

    def mul(p, q):
        (a1, g1), (a0, g0) = p, q
        return A.mul(A.mul(a1, c.perms[g1][a0]), c.xi[g1][g0]), G.mul(g1, g0)

    pairs = [(a, g) for a in A.elements() for g in G.elements()]
    E = GroupTable(table_on(pairs, mul),
                   name=f"Ext({A.name or A.order},{G.name or G.order})")
    inc = GroupHom(A, E, tuple(a * G.order for a in A.elements()))
    proj = GroupHom(E, G, tuple(g for _, g in pairs))
    return ExtensionGroup(E, c, inc, proj)


# ---------------------------------------------------------------------------
# classification of the extension type

class ExtensionType(NamedTuple):
    labels: Tuple[str, ...]   # all that apply, sorted
    preferred: str            # direct > semidirect > central > general


def classify_type(e: ExtensionGroup) -> ExtensionType:
    """Label the extension.  Labels can overlap; all that apply are reported.

    direct_product: cohomologous to (1, id), i.e. some normalized twist
                    gives the trivial cocycle;
    semidirect:     cohomologous to some neutral cocycle (1, phi0), i.e. some
                    normalized twist kills xi (a splitting section exists);
    central:        the included copy of A lies in the centre of E, that
                    is, A is abelian and phi is trivial: the cocycle is
                    normalized, so (a, 1)(b, g) = (a b, g) and
                    (b, g)(a, 1) = (b phi(g)(a), g), which agree for all b
                    and g exactly when a is central in A (take g = 1) and
                    fixed by every phi(g).
    Every twist that kills xi is a solution for the all-identity factor set,
    so one pass over those candidates decides both cohomological labels; it
    stops at the first twist that gives the trivial cocycle.
    """
    c = e.cochain
    direct = semidirect = False
    for zeta in _twist_candidates(c, trivial_cochain(c.G, c.A).xi):
        tw = coboundary_twist(c, zeta)
        if is_neutral(tw):
            semidirect = True
            if not any(tw.phi):
                direct = True
                break
    central = not any(c.phi) and len(c.aut.preimages[0]) == c.A.order
    labels = tuple(sorted(
        lbl for lbl, flag in (("central", central), ("direct_product", direct),
                              ("semidirect", semidirect)) if flag
    )) or ("general",)
    preferred = next(p for p in ("direct_product", "semidirect", "central",
                                 "general") if p in labels)
    return ExtensionType(labels, preferred)


# ---------------------------------------------------------------------------
# equivalence of extensions

class ExtensionEquivalence(NamedTuple):
    iso: Tuple[int, ...]    # E1 index -> E2 index
    zeta: Tuple[int, ...]   # the G -> A map realizing (a,g) -> (a*zeta(g), g)


def extensions_equivalent(e1: ExtensionGroup, e2: ExtensionGroup
                          ) -> Optional[ExtensionEquivalence]:
    """Solve for an isomorphism E1 -> E2 commuting with both inclusions and
    projections.

    Commutation forces the shape (a, g) |-> (a * zeta(g), g) with zeta(1) = 1,
    a homomorphism exactly when g |-> zeta(g)^-1 is a witness that the first
    cocycle is cohomologous to the second.  Twisting twice composes
    pointwise, so those zeta are exactly the witnesses that the second is
    cohomologous to the first, and `_first_twist` returns the
    lexicographically first of them, the one reported.  Both cochains were
    validated when their extensions were built, so neither is checked again.
    """
    c1, c2 = e1.cochain, e2.cochain
    if c1.G != c2.G or c1.A != c2.A:
        raise ValueError("extensions are not over the same (G, A)")
    G, A = c1.G, c1.A
    zeta = _first_twist(c2, c1)
    if zeta is None:
        return None
    return ExtensionEquivalence(
        tuple(e2.pair_index(A.mul(a, zeta[g]), g)
              for a in A.elements() for g in G.elements()),
        zeta)
