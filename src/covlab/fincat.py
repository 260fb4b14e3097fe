"""Finite categories, functors between them, and group actions by functors.

A category is given by object ids, morphism records (id, dom, cod), a
composition table on composable pairs (total: every composable pair must
have a listed composite) and one identity morphism per object.  The
tables are the interface: `dom`/`cod` map each morphism to its ends, and
composition is written like functions, compose_table[f, g] = f o g,
defined when dom[f] == cod[g], i.e. g is applied first.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from typing import Mapping, Optional, Sequence, Tuple

from .fingroup import Report, hom_law_witness


class FinCat:
    """Immutable finite category, equal by value.  Built only with distinct
    ids, of one type among objects and one among arrows, and arrows between
    its objects, each id kept as given; validate the laws with validate_fincat."""

    def __init__(self, objects: Sequence[str],
                 morphisms: Sequence[Tuple[str, str, str]],
                 compose: Mapping[Tuple[str, str], str],
                 identities: Mapping[str, str]) -> None:
        self.objects = tuple(objects)
        self.morphisms = tuple((m, d, c) for m, d, c in morphisms)
        self.compose_table = dict(compose)
        self.identities = dict(identities)
        self.dom = {m: d for m, d, _ in self.morphisms}
        self.cod = {m: c for m, _, c in self.morphisms}
        if len(self.dom) != len(self.morphisms):
            raise ValueError("duplicate morphism ids")
        if len(set(self.objects)) != len(self.objects):
            raise ValueError("duplicate object ids")
        for kind, ids in (("object", self.objects), ("arrow", self.dom)):
            types = {type(i).__name__ for i in ids}
            if len(types) > 1:  # the tables are sorted by id
                raise ValueError(f"{kind} ids mix types: {', '.join(sorted(types))}")
        known = set(self.objects)
        for m, d, c in self.morphisms:
            if d not in known or c not in known:
                raise ValueError(f"morphism {m!r} ends off the objects: {d!r} -> {c!r}")
        homs = {}
        for m, d, c in sorted(self.morphisms):
            homs.setdefault((d, c), []).append(m)
        self._hom = {key: tuple(ms) for key, ms in homs.items()}

    def hom(self, x: str, y: str) -> Tuple[str, ...]:
        """Morphisms x -> y, sorted by id."""
        return self._hom.get((x, y), ())

    @cached_property
    def _inverses(self) -> Mapping[str, Optional[str]]:
        """Each morphism's first two-sided inverse in hom(cod, dom), or None."""
        comp, ident = self.compose_table, self.identities
        return {m: next((k for k in self.hom(c, d) if comp.get((k, m)) == ident[d]
                         and comp.get((m, k)) == ident[c]), None)
                for m, d, c in self.morphisms}

    def inverse(self, m: str) -> Optional[str]:
        """Two-sided inverse of m, or None."""
        return self._inverses[m]

    @cached_property
    def _key(self) -> tuple:
        return (self.objects, self.morphisms, tuple(sorted(self.compose_table.items())),
                tuple(sorted(self.identities.items())))

    @cached_property
    def _hash(self) -> int:
        return hash(self._key)

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, FinCat) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash


def validate_fincat(cat: FinCat) -> Report:
    """Exhaustively check the category laws on the tables; first witness on
    failure."""
    dom, cod, comp = cat.dom, cat.cod, cat.compose_table
    for obj in cat.objects:
        i = cat.identities.get(obj)
        if i not in dom:
            return Report(False, "MissingIdentity", (obj,))
        if dom[i] != obj or cod[i] != obj:
            return Report(False, "BadIdentity", (obj, i))
    for (f, g), h in comp.items():
        if f not in dom or g not in dom or h not in dom:
            return Report(False, "UnknownMorphism", (f, g, h))
        if dom[f] != cod[g]:
            return Report(False, "NotComposable", (f, g))
        if dom[h] != dom[g] or cod[h] != cod[f]:
            return Report(False, "BadCompositeShape", (f, g, h))
    mors = sorted(dom)
    for f in mors:
        for g in mors:
            if dom[f] == cod[g] and (f, g) not in comp:
                return Report(False, "MissingComposite", (f, g))
    for obj in cat.objects:
        i = cat.identities[obj]
        for m in mors:
            if dom[m] == obj and comp[m, i] != m:
                return Report(False, "IdentityLaw", (m, i))
            if cod[m] == obj and comp[i, m] != m:
                return Report(False, "IdentityLaw", (i, m))
    for f in mors:
        for g in mors:
            if dom[f] != cod[g]:
                continue
            for h in mors:
                if dom[g] == cod[h] and comp[comp[f, g], h] != comp[f, comp[g, h]]:
                    return Report(False, "NotAssociative", (f, g, h))
    return Report(True)


class TheoryFunctor:
    """A functor between finite categories, given by its object/morphism maps;
    checked once when built (ValueError naming the violation otherwise), and
    equal by value."""

    def __init__(self, source: FinCat, target: FinCat,
                 obj_map: Mapping[str, str], mor_map: Mapping[str, str]) -> None:
        self.source = source
        self.target = target
        self.obj_map = dict(obj_map)
        self.mor_map = dict(mor_map)
        validate_functor(self).require("functor")

    @cached_property
    def _key(self) -> tuple:
        return (self.source, self.target, tuple(sorted(self.obj_map.items())),
                tuple(sorted(self.mor_map.items())))

    @cached_property
    def _hash(self) -> int:
        return hash(self._key)

    def __eq__(self, other) -> bool:
        return self is other or isinstance(other, TheoryFunctor) and self._key == other._key

    def __hash__(self) -> int:
        return self._hash


def identity_functor(cat: FinCat) -> TheoryFunctor:
    return TheoryFunctor(cat, cat, {x: x for x in cat.objects},
                         {m: m for m, _, _ in cat.morphisms})


def is_identity_functor(F: TheoryFunctor) -> bool:
    """Whether F is an endofunctor sending every object and arrow to itself."""
    return (F.source == F.target and F.obj_map == {x: x for x in F.source.objects}
            and F.mor_map == {m: m for m in F.source.dom})


def validate_functor(F: TheoryFunctor) -> Report:
    """The functor laws, reading the maps and the target's tables directly;
    a map entry at an id the source lacks is refused, the first in sorted
    order named."""
    src, tgt = F.source, F.target
    om, mm = F.obj_map, F.mor_map
    tdom, tcod, tc = tgt.dom, tgt.cod, tgt.compose_table
    for x in src.objects:
        if om.get(x) not in tgt.objects:
            return Report(False, "ObjectMapNotTotal", (x,))
    if len(om) != len(src.objects):
        stray = min(x for x in om if x not in src.objects)
        return Report(False, "ObjectMapAtUnknownObject", (stray,))
    for m, d, c in src.morphisms:
        fm = mm.get(m)
        if fm not in tdom:
            return Report(False, "MorphismMapNotTotal", (m,))
        if tdom[fm] != om[d] or tcod[fm] != om[c]:
            return Report(False, "DomCodNotPreserved", (m,))
    if len(mm) != len(src.morphisms):
        stray = min(m for m in mm if m not in src.dom)
        return Report(False, "MorphismMapAtUnknownMorphism", (stray,))
    for x in src.objects:
        if mm[src.identities[x]] != tgt.identities.get(om[x]):
            return Report(False, "IdentityNotPreserved", (x,))
    try:
        for (f, g), h in src.compose_table.items():
            if tc[mm[f], mm[g]] != mm[h]:
                return Report(False, "CompositionNotPreserved", (f, g))
    except KeyError:  # a target that is no category lacks the composite
        return Report(False, "CompositionNotPreserved", (f, g))
    return Report(True)


def functor_is_invertible(F: TheoryFunctor) -> bool:
    return (sorted(F.obj_map.values()) == sorted(F.target.objects) and
            sorted(F.mor_map.values()) == sorted(m for m, _, _ in F.target.morphisms))


class GAction:
    """A homomorphism from a finite group into invertible endofunctors of one
    category, checked once when built (ValueError naming the violation otherwise)."""

    def __init__(self, group, functors: Sequence[TheoryFunctor]) -> None:
        self.group = group
        self.functors = tuple(functors)
        validate_gaction(self).require("action")

    @property
    def category(self) -> FinCat:
        return self.functors[0].source


def validate_gaction(act: GAction) -> Report:
    """The action laws: one invertible endofunctor T(g) of the category per
    element, T(1) = Id and T(g) o T(s) = T(gs) on generators s, map by map.
    The functors themselves were checked when they were built."""
    grp = act.group
    if len(act.functors) != grp.order:
        return Report(False, "FunctorPerElementMissing", (len(act.functors),))
    cat = act.category
    checked = set()  # ids of the functor objects already checked
    for g, F in enumerate(act.functors):
        if id(F) in checked:
            continue
        if F.source != cat or F.target != cat or not functor_is_invertible(F):
            return Report(False, "FunctorNotInvertible", (g,))
        checked.add(id(F))
    if not is_identity_functor(act.functors[0]):
        return Report(False, "IdentityElementNotIdentityFunctor", (0,))
    maps = [(F.obj_map, F.mor_map) for F in act.functors]
    witness = hom_law_witness(grp, maps.__getitem__, lambda t, u: (  # maps of T o U
        {x: t[0][y] for x, y in u[0].items()}, {m: t[1][f] for m, f in u[1].items()}))
    if witness is not None:
        return Report(False, "NotAHomomorphism", witness)
    return Report(True)


# ---------------------------------------------------------------------------
# convenient constructors used by the shipped models; each category value is
# built once per process and shared, so no caller may write to its tables

@lru_cache(maxsize=None)
def group_as_category(group, prefix: str = "r") -> FinCat:
    """One-object category whose endomorphisms are the group elements."""
    obj = "*"
    mors = [(f"{prefix}{i}", obj, obj) for i in group.elements()]
    compose = {(f"{prefix}{i}", f"{prefix}{j}"): f"{prefix}{group.mul(i, j)}"
               for i in group.elements() for j in group.elements()}
    return FinCat([obj], mors, compose, {obj: f"{prefix}0"})


def frame_mid(j: int, i: int, u: int) -> str:
    """The id of the arrow F_i -> F_j with decoration u in
    `decorated_frames_category`."""
    return f"m{j}<{i}:{u}"


@lru_cache(maxsize=None)
def decorated_frames_category(n_frames: int, deco) -> FinCat:
    """Codiscrete category on n frame objects with `deco`-decorated arrows.

    hom(F_i, F_j) = {m[j][i][u] : u in deco}; composition multiplies the
    decorations in `deco` (a GroupTable) and composes the frame jumps.
    """
    frames, decos = range(n_frames), deco.elements()
    objects = [f"F{i}" for i in frames]
    ids = [[[frame_mid(j, i, u) for u in decos] for i in frames] for j in frames]
    mors = [(ids[j][i][u], objects[i], objects[j]) for j in frames for i in frames
            for u in decos]
    compose = {(ids[k][j][u], ids[j][i][v]): ids[k][i][w]
               for k in frames for j in frames for i in frames
               for u, row in enumerate(deco.table) for v, w in enumerate(row)}
    identities = {objects[i]: ids[i][i][0] for i in frames}
    return FinCat(objects, mors, compose, identities)
