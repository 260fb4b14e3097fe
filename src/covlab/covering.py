"""Central covers, sections, the induced factor set, and spin obstructions.

A central cover is a surjection pi: S -> L whose kernel K sits inside the
centre of S.  Any section s (a right inverse of pi with s(1) = 1) produces
the K-valued factor set

    z(l1, l0) = s(l1) s(l0) s(l1 l0)^-1,

a classical central 2-cocycle whose class does not depend on the section:
two sections differ by the central map l -> s(l) s0(l)^-1, which twists one
factor set into the other.
Pushing z through a homomorphism from K into the centre of a gauge group A
gives the induced cochain (zeta o z, 1) over (L, A).  A representation of S
descends to L exactly when the kernel acts trivially; a kernel element
acting nontrivially is the obstruction witness (the finite stand-in for
noninteger spin).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .cohomology2 import Cochain2, cohomologous, trivial_cochain
from .config import capped_product
from .fingroup import (GroupHom, GroupTable, Report, centre, check_hom, closure,
                       cyclic, direct_product, is_surjective, kernel, quaternion8,
                       quotient, subgroup)


class CentralCover:
    """pi: S -> L, checked when built, equal by (S, L, pi); `K` is the
    kernel group and `kernel_elements` maps each K-index to its element of S."""

    def __init__(self, S: GroupTable, L: GroupTable, pi: GroupHom) -> None:
        if pi.source != S or pi.target != L:
            raise ValueError("pi must map S onto L")
        check_hom(pi).require("pi")
        if not is_surjective(pi):
            raise ValueError("pi is not surjective")
        ker = kernel(pi)
        z = set(centre(S))
        for k in ker:
            if k not in z:
                raise ValueError(f"kernel element {k} is not central")
        self.S, self.L, self.pi = S, L, pi
        self.K, self.kernel_elements = subgroup(S, ker)

    def __eq__(self, other) -> bool:
        return isinstance(other, CentralCover) and (self.S, self.L, self.pi) == (
            other.S, other.L, other.pi)

    def __hash__(self) -> int:
        return hash((self.S, self.L, self.pi))


class Section:
    """A lift of each element of L to its fiber in S, checked when built."""

    def __init__(self, cover: CentralCover, lift: Tuple[int, ...]) -> None:
        _section_report(cover, lift).require("section")
        self.cover = cover
        self.lift = lift


def _section_report(cov: CentralCover, lift: Tuple[int, ...]) -> Report:
    """The first violated section law: LiftNotTotal (len(lift),),
    LiftOutsideS (l,), IdentityNotIdentity (0,), or NotASection (l,) for the
    first l with pi(lift(l)) != l."""
    if len(lift) != cov.L.order:
        return Report(False, "LiftNotTotal", (len(lift),))
    outside = next((l for l, x in enumerate(lift) if not 0 <= x < cov.S.order), None)
    if outside is not None:
        return Report(False, "LiftOutsideS", (outside,))
    if lift[0] != 0:
        return Report(False, "IdentityNotIdentity", (0,))
    stray = next((l for l in cov.L.elements() if cov.pi.map[lift[l]] != l), None)
    if stray is not None:
        return Report(False, "NotASection", (stray,))
    return Report(True)


def all_sections(cover: CentralCover) -> Tuple[Section, ...]:
    """Every section with lift(1) = 1, in lexicographic lift order."""
    fibers = [(0,)] + [tuple(s for s in cover.S.elements() if cover.pi.map[s] == l)
                       for l in cover.L.elements() if l != 0]
    return tuple(Section(cover, lift) for lift in capped_product(fibers))


def z_cocycle(s: Section) -> Cochain2:
    """The factor set of a section, as a cochain over (L, K) with trivial phi.

    Its values lie in the kernel, since pi(s(l1) s(l0) s(l1 l0)^-1) = 1 for
    a section of a valid cover, and z is a cocycle with trivial coefficient
    action by construction; neither is re-checked here.  The cover-z
    factor-set-valid verdict and the tests check both.
    """
    cov = s.cover
    S, L = cov.S, cov.L
    k_index = cov.kernel_elements.index
    xi = tuple(tuple(k_index(S.mul(S.mul(s.lift[l1], s.lift[l0]),
                                   S.inv(s.lift[L.mul(l1, l0)])))
                     for l0 in L.elements())
               for l1 in L.elements())
    return Cochain2(L, cov.K, xi, (0,) * L.order)


def section_twist(s0: Section, s: Section) -> Tuple[int, ...]:
    """The map k: l -> s(l) s0(l)^-1 into K, as K-indices.  K is central, so
    z_s(l1, l0) = k(l1) k(l0) z_s0(l1, l0) k(l1 l0)^-1: k twists the factor
    set of s0 into that of s.  That is a theorem, not re-checked here; the
    cover-z section-independent-class verdict and the tests check it."""
    cov = s.cover
    if s0.cover != cov:
        raise ValueError("sections of different covers")
    S = cov.S
    return tuple(cov.kernel_elements.index(S.mul(s.lift[l], S.inv(s0.lift[l])))
                 for l in cov.L.elements())


def z_class_trivial(z: Cochain2) -> Optional[Tuple[int, ...]]:
    """Solve for a twist zeta: L -> K killing z, through `cohomologous`.

    Returns the lexicographically first trivializing twist (as K-indices) or
    None.  K is central, so the twisted factor set is zeta(l1) zeta(l0)
    z(l1,l0) zeta(l1 l0)^-1; such a twist is fixed by its values on a
    generating sequence of L.  K is abelian, so the Z(K) coset that
    `cohomologous` scans is all of K: |K|^d candidates are checked.
    """
    return cohomologous(z, trivial_cochain(z.G, z.A))


def induced_gauge_cocycle(z: Cochain2, zeta_on_k: GroupHom) -> Cochain2:
    """Push a factor set z over (L, K) into a gauge group: the cochain
    (zeta o z, 1).

    zeta_on_k must be a homomorphism from the kernel group into the gauge
    group A, landing in the centre of A (`check_centre_hom`; `CheckFailed`
    otherwise).  The result is a cocycle by construction and is
    not re-checked; the tests validate it for the kernel homs cover-z builds.
    """
    if zeta_on_k.source != z.A:
        raise ValueError("zeta is not defined on the kernel group")
    check_centre_hom(zeta_on_k).require("zeta")
    xi = tuple(tuple(zeta_on_k.map[v] for v in row) for row in z.xi)
    return Cochain2(z.G, zeta_on_k.target, xi, (0,) * z.G.order)


def check_centre_hom(mapping: GroupHom) -> Report:
    """Check that a kernel restriction is a homomorphism into the centre:
    `check_hom`'s report for a map that is not a homomorphism, else
    NotCentral (k, a) for the first a not commuting with mapping(k).

    These are exactly the two consequences a trivial-cocycle implementation
    forces on its kernel gauge elements.
    """
    rep = check_hom(mapping)
    if not rep.valid:
        return rep
    A = mapping.target
    for k, z in enumerate(mapping.map):
        bad = next((a for a in A.elements() if A.mul(z, a) != A.mul(a, z)), None)
        if bad is not None:
            return Report(False, "NotCentral", (k, bad))
    return Report(True)


def extended_quotient(cover: CentralCover, zeta_on_k: GroupHom) -> Optional[GroupTable]:
    """The extended group (A x S) / <(zeta(-1), -1)> of the base, A the target
    of zeta and -1 the kernel's involution; None unless the kernel has order 2."""
    if zeta_on_k.source != cover.K:
        raise ValueError("zeta is not defined on the kernel group")
    if cover.K.order != 2:
        return None
    prod = direct_product(zeta_on_k.target, cover.S)
    pair = zeta_on_k.map[1] * cover.S.order + cover.kernel_elements[1]
    return quotient(prod, closure(prod, (pair,)))[0]


# ---------------------------------------------------------------------------
# descent of representations and the spin obstruction

class SpinVerdict(NamedTuple):
    descends: bool
    obstruction_witness: Optional[int]      # kernel element acting nontrivially
    descended: Optional[tuple]              # the L-representation, a MatrixRep, if any
    zeta_trivial: bool
    model_consistent: bool


def spin_obstruction(cover: CentralCover, zeta_on_k: GroupHom,
                     rep: tuple) -> SpinVerdict:
    """Decide whether an S-representation, a `multiplet.MatrixRep`, descends
    along the cover.

    The representation descends iff every kernel element acts as the
    identity; the first kernel element acting nontrivially is the witness.
    When the kernel gauge assignment zeta is trivial, every multiplet in the
    model must descend; a non-descending representation then flags the model
    as inconsistent.  The descended map sends l to the matrix of its least
    preimage; once the kernel acts trivially, every preimage gives the same
    matrix.  That the descended map is a representation of L is a theorem;
    the tests validate it for every shipped case.
    """
    from .exactlin import Mat
    from .multiplet import MatrixRep, validate_rep
    if rep.group != cover.S:
        raise ValueError("representation is not defined on the covering group")
    if zeta_on_k.source != cover.K:
        raise ValueError("zeta is not defined on the kernel group")
    validate_rep(rep).require("representation")
    witness = None
    for amb in cover.kernel_elements:
        if rep(amb) != Mat.identity(rep.dim):
            witness = amb
            break
    zeta_trivial = all(v == 0 for v in zeta_on_k.map)
    if witness is not None:
        return SpinVerdict(False, witness, None, zeta_trivial,
                           model_consistent=not zeta_trivial)
    least = {}
    for x in cover.S.elements():
        least.setdefault(cover.pi.map[x], x)
    descended = MatrixRep(cover.L, rep.dim,
                          tuple(rep(least[l]) for l in cover.L.elements()))
    return SpinVerdict(True, None, descended, zeta_trivial, model_consistent=True)


# ---------------------------------------------------------------------------
# shipped covers

def q8_cover() -> CentralCover:
    """The quaternion double cover of Z2 x Z2 with kernel {1, -1}."""
    q8 = quaternion8()
    l = direct_product(cyclic(2), cyclic(2))
    # 1,-1 -> (0,0); i,-i -> (1,0); j,-j -> (0,1); k,-k -> (1,1)
    pi_map = (0, 0, 2, 2, 1, 1, 3, 3)
    return CentralCover(q8, l, GroupHom(q8, l, pi_map))


def cyclic_cover(m: int, d: int) -> CentralCover:
    """Z_m -> Z_(m/d) with kernel Z_d; the finite stand-in for covers with
    cyclic fundamental group."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if m % d != 0:
        raise ValueError("d must divide m")
    s = cyclic(m)
    l = cyclic(m // d)
    return CentralCover(s, l, GroupHom(s, l, tuple(x % (m // d)
                                                   for x in range(m))))


def split_cover(k_order: int, l: GroupTable) -> CentralCover:
    """The trivial cover K x L -> L."""
    k = cyclic(k_order)
    s = direct_product(k, l)
    pi_map = tuple(e % l.order for e in range(s.order))
    return CentralCover(s, l, GroupHom(s, l, pi_map))
