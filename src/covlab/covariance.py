"""Implementations of functorial group covariance and their canonical cocycles.

Given a theory functor Af: C -> D and a group action T on C, write gC for
T(g)(C) and gAf for Af o T(g).  An implementation is a family of natural
isomorphisms eta(g): Af -> gAf with eta(1) = id.  Its canonical 2-cocycle
over (G, Aut(Af)) has components

    xi(g1, g0) at object g1g0.C  =  eta(g1)_{g0.C} o eta(g0)_C o eta(g1g0)_C^-1
    phi(g)(alpha) at object g.C  =  eta(g)_C o alpha_C o eta(g)_C^-1

where Aut(Af) is the gauge group of natural automorphisms of Af.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .cohomology2 import Cochain2, trivial_cochain
from .config import capped_product
from .extension import build_extension
from .fincat import GAction, TheoryFunctor
from .fingroup import GroupTable, Report, compute_aut, make_group, table_on


Family = Tuple[str, ...]  # one target-morphism id per object, in object order


@dataclass(frozen=True)
class GaugeGroup:
    """Aut(Af): natural automorphisms of a theory functor, with realizers;
    `index` maps each family back to its element, `position` each object to
    its place in a family."""

    table: GroupTable
    families: Tuple[Family, ...]
    objects: Tuple[str, ...]
    index: Dict[Family, int] = field(init=False, repr=False, compare=False)
    position: Dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", {f: i for i, f in enumerate(self.families)})
        object.__setattr__(self, "position", {x: i for i, x in enumerate(self.objects)})

    @property
    def order(self) -> int:
        return self.table.order

    def index_of(self, fam: Family) -> int:
        try:
            return self.index[fam]
        except KeyError:
            raise KeyError(f"family {fam} is not a natural automorphism") from None


def _unnatural(F: TheoryFunctor, fam: Mapping[str, str],
               H: Mapping[str, str]) -> Optional[str]:
    """The first source morphism m: C -> C' whose square
    fam_{C'} o F(m) == H(m) o fam_C fails, or None when fam is natural F -> H;
    H maps each source morphism to its image."""
    tc, mm = F.target.compose_table, F.mor_map
    for m, d, c in F.source.morphisms:
        if tc[fam[c], mm[m]] != tc[H[m], fam[d]]:
            return m
    return None


@lru_cache(maxsize=None)
def compute_gauge_group(F: TheoryFunctor) -> GaugeGroup:
    """Enumerate all natural automorphisms of F and the group they form.

    A family {alpha_C} of invertible morphisms F(C) -> F(C) is natural when
    every square with H = F closes (`_unnatural`).  Families are ordered
    with the identity family first, then lexicographically.  F is valid
    since it was built.  Computed once per process for each functor value
    and shared by every caller; COVLAB_ENUM_CAP bounds that one computation.
    """
    tgt, objects = F.target, F.source.objects
    tc, images = tgt.compose_table, [F.obj_map[x] for x in objects]
    per_object = [tuple(m for m in tgt.hom(y, y) if tgt.inverse(m) is not None)
                  for y in images]
    families = [combo for combo in capped_product(per_object)
                if _unnatural(F, dict(zip(objects, combo)), F.mor_map) is None]
    ident = tuple(tgt.identities[y] for y in images)
    families.sort(key=lambda fam: (fam != ident, fam))
    gt = make_group(table_on(families, lambda a, b: tuple(tc[p] for p in zip(a, b))),
                    name=f"Aut({F.name or 'A'})")
    return GaugeGroup(gt, tuple(families), objects)


class Implementation:
    """A family eta(g) of natural isomorphisms Af -> gAf, with eta(1) = id,
    checked once when built (ValueError naming the violation otherwise)."""

    def __init__(self, functor: TheoryFunctor, action: GAction,
                 eta: Sequence[Mapping[str, str]], name: Optional[str] = None) -> None:
        self.functor = functor
        self.action = action
        self.eta = tuple(dict(e) for e in eta)
        self.name = name
        validate_implementation(self).require("implementation")


def validate_implementation(impl: Implementation) -> Report:
    """The eta family: one natural isomorphism Af -> gAf per element, with
    eta(1) = id and no component at an object the source lacks.  The
    functor and the action were checked when built."""
    F, act = impl.functor, impl.action
    src, tgt = F.source, F.target
    G = act.group
    if act.category != src:
        return Report(False, "ActionCategoryMismatch", ())
    if len(impl.eta) != G.order:
        return Report(False, "FamilyPerElementMissing", (len(impl.eta),))
    om, mm = F.obj_map, F.mor_map
    tdom, tcod = tgt.dom, tgt.cod
    for x in src.objects:
        if impl.eta[0].get(x) != tgt.identities[om[x]]:
            return Report(False, "IdentityFamilyNotIdentity", (x,))
    for g, T in enumerate(act.functors):
        fam, t_obj = impl.eta[g], T.obj_map
        for x in src.objects:
            m = fam.get(x)
            if m is None:
                return Report(False, "FamilyNotTotal", (g, x))
            if tdom.get(m) != om[x] or tcod.get(m) != om[t_obj[x]]:
                return Report(False, "ComponentShape", (g, x))
            if tgt.inverse(m) is None:
                return Report(False, "ComponentNotInvertible", (g, x))
        if len(fam) != len(src.objects):
            stray = next(x for x in fam if x not in src.objects)
            return Report(False, "FamilyAtUnknownObject", (g, stray))
        mor = _unnatural(F, fam, {m: mm[t] for m, t in T.mor_map.items()})
        if mor is not None:
            return Report(False, "NotNatural", (g, mor))
    return Report(True)


def _sources(act: GAction, objects: Sequence[str]) -> Tuple[Tuple[str, ...], ...]:
    """For each g, the object g^-1.d for each object d: a family built from
    eta(g) at C lands at g.C, so its component at d is built at g^-1.d."""
    G = act.group
    return tuple(tuple(act.functors[G.inv(g)].obj_map[d] for d in objects)
                 for g in G.elements())


def _gauged(impl: Implementation, gauge: GaugeGroup, a: int, g: int) -> Dict[str, str]:
    """The gauge element a acting on eta(g): C -> a_{g.C} o eta(g)_C."""
    tc, t_obj = impl.functor.target.compose_table, impl.action.functors[g].obj_map
    alpha, position, eta = gauge.families[a], gauge.position, impl.eta[g]
    return {x: tc[alpha[position[t_obj[x]]], eta[x]] for x in impl.functor.source.objects}


def twist_implementation(impl: Implementation, zeta: Sequence[int],
                         name: Optional[str] = None) -> Implementation:
    """New implementation with eta~(g)_C = zeta(g)_{g.C} o eta(g)_C."""
    gauge = compute_gauge_group(impl.functor)
    return Implementation(impl.functor, impl.action,
                          [_gauged(impl, gauge, zeta[g], g)
                           for g in impl.action.group.elements()], name)


def extract_cocycle(impl: Implementation) -> Cochain2:
    """Canonical normalized 2-cocycle of an implementation over (G, Aut(Af)).

    The implementation was validated when it was built, and Aut(Af) is the
    functor's cached gauge group.  Every family read off here is natural
    and every phi(g), conjugation by a natural isomorphism, maps Aut(Af)
    onto itself, so the lookups cannot miss.  That the result satisfies
    the cocycle laws and is normalized is a theorem; the tests check it on
    every shipped model rather than re-proving it on each call.
    """
    F, act = impl.functor, impl.action
    gauge = compute_gauge_group(F)
    G, tc, inverse = act.group, F.target.compose_table, F.target.inverse
    eta, at, position = impl.eta, _sources(act, F.source.objects), gauge.position
    t_obj = [T.obj_map for T in act.functors]
    inv = [{c: inverse(m) for c, m in fam.items()} for fam in eta]  # eta(g)_c^-1
    aut = compute_aut(gauge.table)
    xi = tuple(
        tuple(gauge.index_of(tuple(
            tc[eta[g1][t_obj[g0][c]], tc[eta[g0][c], inv[g][c]]]
            for c in at[g])) for g0, g in enumerate(G.table[g1]))  # g = g1 g0
        for g1 in G.elements())
    phi = []
    for g in G.elements():
        conj = [(eta[g][c], position[c], inv[g][c]) for c in at[g]]
        phi.append(aut.index_of(tuple(
            gauge.index_of(tuple(tc[e, tc[alpha[p], i]] for e, p, i in conj))
            for alpha in gauge.families)))
    return Cochain2(G, gauge.table, xi, tuple(phi))


def _require_same_theory(i1: Implementation, i2: Implementation) -> None:
    """Both implementations must cover one functor under one group action."""
    f1, f2 = i1.functor, i2.functor
    if f1.source != f2.source or f1.target != f2.target:
        raise ValueError("implementations live on different categories")
    if f1.obj_map != f2.obj_map or f1.mor_map != f2.mor_map:
        raise ValueError("implementations are of different theory functors")
    if i1.action.group != i2.action.group:
        raise ValueError("implementations are for different acting groups")
    if any(a.obj_map != b.obj_map or a.mor_map != b.mor_map
           for a, b in zip(i1.action.functors, i2.action.functors)):
        raise ValueError("implementations are for different group actions")


def compare_implementations(i1: Implementation, i2: Implementation
                            ) -> Tuple[int, ...]:
    """Witness zeta with zeta(g)_{g.C} = eta2(g)_C o eta1(g)_C^-1.

    Both implementations, valid since they were built, must share the theory
    functor and the group action (ValueError otherwise).  Two natural
    isomorphisms Af -> gAf differ by a natural automorphism, so each zeta(g)
    is in the gauge group.  That zeta twists the cocycle of i1 into that of
    i2 is a theorem, not re-checked here; the compare-impls verdict and the
    tests check it with coboundary_twist.
    """
    _require_same_theory(i1, i2)
    F, act = i1.functor, i1.action
    gauge = compute_gauge_group(F)
    tc, inverse = F.target.compose_table, F.target.inverse
    at = _sources(act, F.source.objects)
    return tuple(
        gauge.index_of(tuple(tc[e2[c], inverse(e1[c])] for c in at[g]))
        for g, e1, e2 in zip(act.group.elements(), i1.eta, i2.eta))


def lift_to_extension(impl: Implementation) -> Implementation:
    """Implementation of the extension group E of impl's cocycle via
    rho(a,g)_C = a_{g.C} o eta(g)_C.

    The lift is checked as every Implementation is, when it is built.  That
    its E-cocycle is neutral with phi-part phi^(a,g) = ad(a) o phi(g) is a
    theorem; the lift-extension verdict computes the neutrality and the
    tests check both on the shipped models.
    """
    ext = build_extension(extract_cocycle(impl))
    gauge = compute_gauge_group(impl.functor)
    pairs = [ext.unpair(e) for e in ext.E.elements()]
    e_action = GAction(ext.E, [impl.action.functors[g] for _, g in pairs])
    return Implementation(impl.functor, e_action,
                          [_gauged(impl, gauge, a, g) for a, g in pairs],
                          name=f"lift({impl.name or 'eta'})")


# ---------------------------------------------------------------------------
# active/passive composition at a base object

@dataclass(frozen=True)
class ActivePassive:
    """The composite automorphisms Xi(g) of Af(C0), one per group element."""

    components: Tuple[str, ...]
    kernel_checks: Tuple[Tuple[int, str], ...]  # (g, zeta(g)_{C0}) for trivial psi_g


def active_passive_compose(psi: Mapping[int, str], impl: Implementation,
                           base_object: str) -> ActivePassive:
    """Compose active frame isomorphisms with a trivial-cocycle implementation.

    psi maps each g to an isomorphism C0 -> g^-1.C0 in the source category,
    required to satisfy psi_{g1 g0} = (g0^-1 . psi_{g1}) o psi_{g0} (else
    `CheckFailed`: Eq18Violated (g1, g0), the first failing pair).  Then

        Xi(g) = Af(g.psi_g) o eta(g)_{C0}

    is a homomorphism G -> Aut(Af(C0)), with Xi(k) equal to eta(k)_{C0}
    whenever psi_k is the identity of C0.  Both are theorems; the tests
    check them on the shipped fixtures.  impl is valid since it was built.
    """
    F, act = impl.functor, impl.action
    G, T = act.group, act.functors
    src, tc = F.source, F.target.compose_table

    c = extract_cocycle(impl)
    if c != trivial_cochain(c.G, c.A):
        raise ValueError("implementation cocycle must be trivial")

    for g in G.elements():
        m = psi.get(g)
        if m is None:
            raise ValueError(f"psi not total: missing element {g}")
        if (src.dom[m] != base_object
                or src.cod[m] != T[G.inv(g)].obj_map[base_object]):
            raise ValueError(f"psi_{g} has the wrong shape")
        if src.inverse(m) is None:
            raise ValueError(f"psi_{g} is not invertible")
    base_id = src.identities[base_object]
    if psi[0] != base_id:
        raise ValueError("psi at the identity must be the identity morphism")
    for g1 in G.elements():
        for g0 in G.elements():
            lhs = psi[G.mul(g1, g0)]
            rhs = src.compose_table[T[G.inv(g0)].mor_map[psi[g1]], psi[g0]]
            if lhs != rhs:
                Report(False, "Eq18Violated", (g1, g0)).require("psi")

    eta = [fam[base_object] for fam in impl.eta]
    comps = tuple(tc[F.mor_map[T[g].mor_map[psi[g]]], eta[g]] for g in G.elements())
    kernel_checks = tuple((k, eta[k]) for k in G.elements() if psi[k] == base_id)
    return ActivePassive(comps, kernel_checks)
