"""Group extensions built from 2-cocycles.

The extension of G by A attached to a normalized cocycle (xi, phi) lives on
the set A x G, pair (a, g) encoded as index a*|G| + g, with product

    (a1, g1) * (a0, g0) = (a1 * phi(g1)(a0) * xi(g1, g0), g1 * g0)

and identity (1, 1).  A embeds as a |-> (a, 1) and G is the quotient by the
image, giving the short exact sequence  1 -> A -> E -> G -> 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from .cohomology2 import (Cochain2, TwistMap, _twists, coboundary_twist,
                          cohomologous, is_neutral, trivial_cochain)
from .fingroup import (GroupHom, GroupTable, NotAssociative, centre, check_hom,
                       image, is_injective, is_surjective, kernel, make_group)


class InvalidCocycle(Exception):
    def __init__(self, witness) -> None:
        self.witness = witness
        super().__init__(f"pair product is not a group (witness {witness}); "
                         "the input fails the cocycle conditions")


@dataclass(frozen=True)
class ExtensionGroup:
    E: GroupTable
    cochain: Cochain2
    inclusion: GroupHom   # A -> E, a |-> (a, 1)
    projection: GroupHom  # E -> G, (a, g) |-> g

    def pair_index(self, a: int, g: int) -> int:
        return a * self.cochain.G.order + g

    def unpair(self, e: int) -> Tuple[int, int]:
        return divmod(e, self.cochain.G.order)


def build_extension(c: Cochain2) -> ExtensionGroup:
    """Build E from a valid normalized cocycle and verify exactness."""
    if not c.is_normalized():
        raise ValueError("extension construction requires a normalized cochain")
    G, A = c.G, c.A
    ng, na = G.order, A.order
    size = na * ng

    def pair(a: int, g: int) -> int:
        return a * ng + g

    table = [[0] * size for _ in range(size)]
    for a1 in A.elements():
        for g1 in G.elements():
            perm1 = c.phi_perm(g1)
            for a0 in A.elements():
                for g0 in G.elements():
                    a = A.mul(A.mul(a1, perm1[a0]), c.xi[g1][g0])
                    table[pair(a1, g1)][pair(a0, g0)] = pair(a, G.mul(g1, g0))
    try:
        E = make_group(tuple(tuple(r) for r in table),
                       name=f"Ext({A.name or na},{G.name or ng})")
    except NotAssociative as err:
        raise InvalidCocycle(err.witness) from err
    assert E.order == size

    inc = GroupHom(A, E, tuple(pair(a, 0) for a in A.elements()))
    proj = GroupHom(E, G, tuple(e % ng for e in range(size)))
    assert check_hom(inc).valid and check_hom(proj).valid
    assert is_injective(inc) and is_surjective(proj)
    assert sorted(image(inc)) == sorted(kernel(proj))
    return ExtensionGroup(E, c, inc, proj)


# ---------------------------------------------------------------------------
# classification of the extension type

@dataclass(frozen=True)
class ExtensionType:
    labels: Tuple[str, ...]   # all that apply, sorted
    preferred: str            # direct > semidirect > central > general


def classify_type(e: ExtensionGroup, cap: Optional[int] = None) -> ExtensionType:
    """Label the extension.  Labels can overlap; all that apply are reported.

    direct_product: cocycle cohomologous to (1, id);
    semidirect:     cohomologous to some neutral cocycle (1, phi0), i.e. some
                    normalized twist kills xi (a splitting section exists);
    central:        the included copy of A lies in the centre of E.
    """
    c = e.cochain
    direct = cohomologous(c, trivial_cochain(c.G, c.A), cap=cap) is not None
    semidirect = any(is_neutral(coboundary_twist(c, TwistMap(zeta)))
                     for zeta in _twists(c.G, c.A, True, cap))
    cent = set(centre(e.E))
    central = all(m in cent for m in e.inclusion.map)
    labels = tuple(sorted(
        lbl for lbl, flag in (("central", central), ("direct_product", direct),
                              ("semidirect", semidirect)) if flag
    )) or ("general",)
    for pref in ("direct_product", "semidirect", "central", "general"):
        if pref in labels or labels == ("general",):
            return ExtensionType(labels, pref if pref in labels else "general")
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# equivalence of extensions

@dataclass(frozen=True)
class ExtensionEquivalence:
    iso: Tuple[int, ...]    # E1 index -> E2 index
    zeta: Tuple[int, ...]   # the G -> A map realizing (a,g) -> (a*zeta(g), g)


def extensions_equivalent(e1: ExtensionGroup, e2: ExtensionGroup,
                          cap: Optional[int] = None) -> Optional[ExtensionEquivalence]:
    """Search for an isomorphism E1 -> E2 commuting with both inclusions and
    projections.

    Commutation forces the shape (a, g) |-> (a * zeta(g), g) with zeta(1) = 1,
    so the search runs over maps zeta: G -> A and checks the homomorphism law
    on every pair of E1 elements directly against the two tables.
    """
    c1, c2 = e1.cochain, e2.cochain
    if c1.G != c2.G or c1.A != c2.A:
        raise ValueError("extensions are not over the same (G, A)")
    G, A = c1.G, c1.A
    size = e1.E.order
    for zeta in _twists(G, A, True, cap):
        iso = [0] * size
        for a in A.elements():
            for g in G.elements():
                iso[e1.pair_index(a, g)] = e2.pair_index(A.mul(a, zeta[g]), g)
        ok = all(
            iso[e1.E.mul(x, y)] == e2.E.mul(iso[x], iso[y])
            for x in range(size) for y in range(size)
        )
        if ok:
            return ExtensionEquivalence(tuple(iso), zeta)
    return None
