"""Finite groups as multiplication tables.

Conventions shared by the whole package:

  * group elements are the indices 0..order-1 and index 0 is the identity
    (an ingested table with the identity elsewhere is refused);
  * permutations compose like functions: compose(p, q)[x] = p[q[x]];
  * every enumeration is sorted, so outputs are reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from functools import cached_property, lru_cache
from typing import Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .config import capped_product

Perm = Tuple[int, ...]


class CheckFailed(ValueError):
    """A failed check: the `report` naming its first violation and witness,
    raised by `Report.require` for the `subject` it names."""

    def __init__(self, report: "Report", subject: str) -> None:
        self.report, self.subject = report, subject
        super().__init__(f"{subject} invalid: {report.violation} {report.witness}")


class Report(NamedTuple):
    """The verdict of every check: valid, or the first violation by name
    with its witness."""

    valid: bool
    violation: Optional[str] = None
    witness: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.valid

    def require(self, subject: str) -> None:
        """Raise CheckFailed("<subject> invalid: <violation> <witness>")
        unless valid."""
        if not self.valid:
            raise CheckFailed(self, subject)


class GroupTable:
    """A finite group: square index table with identity at index 0, equal
    by its table alone."""

    def __init__(self, table: Tuple[Tuple[int, ...], ...],
                 name: Optional[str] = None) -> None:
        self.table = table
        self.name = name
        self.order = len(table)

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    @cached_property
    def _inverses(self) -> Tuple[Optional[int], ...]:
        """Each element's first two-sided inverse, or None."""
        t = self.table
        return tuple(next((b for b, x in enumerate(row) if x == 0 and t[b][a] == 0), None)
                     for a, row in enumerate(t))

    def inv(self, a: int) -> int:
        b = self._inverses[a]
        if b is None:
            raise KeyError(f"element {a} has no two-sided inverse")
        return b

    def elements(self) -> range:
        return range(self.order)

    def element_order(self, a: int) -> int:
        x, n = a, 1
        while x != 0:
            x = self.mul(x, a)
            n += 1
        return n

    def order_profile(self) -> Tuple[int, ...]:
        """Sorted multiset of element orders (an isomorphism invariant)."""
        return tuple(sorted(self.element_order(a) for a in self.elements()))

    @cached_property
    def _hash(self) -> int:
        return hash(self.table)

    def __eq__(self, other) -> bool:
        return self is other or (isinstance(other, GroupTable)
                                 and self.table == other.table)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        label = self.name or f"order-{self.order}"
        return f"GroupTable({label})"


def make_group(table: Sequence[Sequence[int]], name: Optional[str] = None) -> GroupTable:
    """Validate a multiplication table and return a GroupTable.

    The first violated axiom fails the check (`CheckFailed`, subject "group
    table"): IndexOutOfRange (row, column, value), NoIdentity (),
    IdentityNotFirst (the identity,) when it is not element 0, so that the
    table's labels are the group's, NotInvertible (element,) or
    NotAssociative (the witness triple).
    Rows and columns being permutations, each x has some xy = 1 and y'x = 1,
    and associativity gives y' = y'(xy) = (y'x)y = y: a two-sided inverse.

    Associativity is checked by Light's test: only the triples (x, s, z)
    whose middle s lies in a generating sequence S of the table, n^2|S|
    products.  The middles m with (xm)z = x(mz) for all x, z are closed
    under the product, since (x m1 m2)z = (x m1)(m2 z) = x(m1 m2 z).  The
    identity is such a middle, and the walk of `_walk_generators` reaches
    every element as a product 1 s1 ... sr, so every middle passes.  When a
    triple fails, all n^3 triples are scanned in order, so the witness is
    the first failing triple.  That scan's capped product is built first,
    so an order whose n^3 triples pass the enumeration cap is refused up
    front either way.  The sequence comes from the uncached walk: an
    unvalidated table enters no cache.
    """
    def refuse(violation: str, witness: tuple) -> None:
        Report(False, violation, witness).require("group table")

    rows = []
    n = len(table)
    for i, row in enumerate(table):
        row = tuple(row)
        if len(row) != n:
            refuse("IndexOutOfRange", (i, len(row), None))
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < n):
                refuse("IndexOutOfRange", (i, j, v))
        rows.append(row)
    rows = tuple(rows)

    identity = None
    for e in range(n):
        if all(rows[e][x] == x and rows[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        refuse("NoIdentity", ())
    if identity != 0:
        refuse("IdentityNotFirst", (identity,))

    full = frozenset(range(n))
    for x in range(n):
        if frozenset(rows[x]) != full or frozenset(rows[y][x] for y in range(n)) != full:
            refuse("NotInvertible", (x,))
    triples = capped_product([range(n)] * 3)
    group = GroupTable(rows, name)
    if any(rows[rows[x][s]][z] != rows[x][rows[s][z]]
           for s in _walk_generators(group) for x in range(n) for z in range(n)):
        for x, y, z in triples:
            if rows[rows[x][y]][z] != rows[x][rows[y][z]]:
                refuse("NotAssociative", (x, y, z))
    return group


# ---------------------------------------------------------------------------
# standard groups

def table_on(elements: Sequence, mul: Callable) -> Tuple[Tuple[int, ...], ...]:
    """Entry [i][j] is the position of mul(elements[i], elements[j]); the list
    starts with the identity and is closed under mul (KeyError otherwise)."""
    index = {x: i for i, x in enumerate(elements)}
    return tuple(tuple(index[mul(x, y)] for y in elements) for x in elements)


# The builders below return one object per argument value for the life of
# the process, so the value-keyed caches (`compute_aut`, `_schedule`,
# `build_extension`, the category constructors) meet the same object again
# and never compare two tables.  `cyclic` keys on argument types too, so
# cyclic(2.0) is refused as an uncached build refuses it, not served Z2.

@lru_cache(maxsize=None, typed=True)
def cyclic(n: int, name: Optional[str] = None) -> GroupTable:
    """Z_n; an n that is not an int (a bool included) is a TypeError, and
    n < 1 a ValueError."""
    if type(n) is not int:
        raise TypeError(f"cyclic group order must be an int, got {type(n).__name__} {n!r}")
    if n < 1:
        raise ValueError(f"cyclic group order must be at least 1, got {n}")
    return GroupTable(table_on(range(n), lambda i, j: (i + j) % n), name or f"Z{n}")


def direct_product(a: GroupTable, b: GroupTable) -> GroupTable:
    """Product group on pairs, encoded as index i*|b| + j, named AxB for
    factors named A and B (an unnamed factor by its order).  Tables compare
    without their names, so the name is fixed before the cache is read."""
    return _direct_product(a, b, f"{a.name or a.order}x{b.name or b.order}")


@lru_cache(maxsize=None)
def _direct_product(a: GroupTable, b: GroupTable, name: str) -> GroupTable:
    pairs = [(x, y) for x in a.elements() for y in b.elements()]
    return GroupTable(
        table_on(pairs, lambda p, q: (a.mul(p[0], q[0]), b.mul(p[1], q[1]))), name)


@lru_cache(maxsize=None)
def symmetric3() -> GroupTable:
    perms = sorted(itertools.permutations(range(3)))
    return GroupTable(table_on(perms, compose_perm), "S3")


def hamilton(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    """The quaternion product of (w, x, y, z) = w + xi + yj + zk."""
    (a, b, c, d), (e, f, g, h) = p, q
    return (a * e - b * f - c * g - d * h, a * f + b * e + c * h - d * g,
            a * g - b * h + c * e + d * f, a * h + b * g - c * f + d * e)


@lru_cache(maxsize=None)
def quaternion8() -> GroupTable:
    """Q8 with element order 1, -1, i, -i, j, -j, k, -k."""
    units = [tuple(s if k == axis else 0 for k in range(4))
             for axis in range(4) for s in (1, -1)]
    return GroupTable(table_on(units, hamilton), "Q8")


def trivial_group() -> GroupTable:
    return cyclic(1, "1")


_STANDARD = {
    "1": trivial_group,
    "Z2": lambda: cyclic(2),
    "Z3": lambda: cyclic(3),
    "Z4": lambda: cyclic(4),
    "Z6": lambda: cyclic(6),
    "Z8": lambda: cyclic(8),
    "Z2xZ2": lambda: direct_product(cyclic(2), cyclic(2)),
    "S3": symmetric3,
    "Q8": quaternion8,
}


def standard_group(name: str) -> GroupTable:
    try:
        return _STANDARD[name]()
    except KeyError:
        raise KeyError(f"unknown group name {name!r}; known: {sorted(_STANDARD)}") from None


# ---------------------------------------------------------------------------
# homomorphisms

class GroupHom(NamedTuple):
    source: GroupTable
    target: GroupTable
    map: Tuple[int, ...]


def hom_law_witness(g: GroupTable, image: Callable,
                    compose: Callable) -> Optional[Tuple[int, int]]:
    """The first (x, s), s in `generating_sequence(g)`, with image(x s) !=
    compose(image(x), image(s)), else None.  Given image(1) = identity, None
    means a homomorphism, by induction on y as a product of generators."""
    gens = generating_sequence(g)
    return next(((x, s) for x in g.elements() for s in gens
                 if image(g.mul(x, s)) != compose(image(x), image(s))), None)


def check_hom(h: GroupHom) -> Report:
    """Valid iff h is a homomorphism; else IdentityNotIdentity (0, 0) or
    NotAHomomorphism with the `hom_law_witness` pair."""
    if len(h.map) != h.source.order or any(
        not (0 <= v < h.target.order) for v in h.map
    ):
        raise ValueError("map is not total on the source group")
    if h.map[0] != 0:
        return Report(False, "IdentityNotIdentity", (0, 0))
    witness = hom_law_witness(h.source, h.map.__getitem__, h.target.mul)
    if witness is not None:
        return Report(False, "NotAHomomorphism", witness)
    return Report(True)


def kernel(h: GroupHom) -> Tuple[int, ...]:
    return tuple(x for x in h.source.elements() if h.map[x] == 0)


def image(h: GroupHom) -> Tuple[int, ...]:
    return tuple(sorted(set(h.map)))


def is_surjective(h: GroupHom) -> bool:
    return len(set(h.map)) == h.target.order


def is_injective(h: GroupHom) -> bool:
    return len(set(h.map)) == h.source.order


# ---------------------------------------------------------------------------
# centre, subgroups, quotients

def centre(g: GroupTable) -> Tuple[int, ...]:
    """Elements commuting with everything, sorted."""
    return tuple(z for z in g.elements()
                 if all(g.mul(z, x) == g.mul(x, z) for x in g.elements()))


def closure(g: GroupTable, elems: Sequence[int]) -> Tuple[int, ...]:
    """The subgroup generated by elems, sorted.  In a finite group the
    products of the generators already reach every inverse."""
    return tuple(sorted([0] + [y for y, _, _ in _bfs_recipes(g, tuple(elems))]))


def _subgroup_elements(g: GroupTable, elems: Sequence[int]) -> Tuple[int, ...]:
    """elems sorted without repeats, refused with ValueError unless they
    hold the identity and are closed under inverses and products."""
    elems = tuple(sorted(set(elems)))
    if 0 not in elems:
        raise ValueError("subgroup must contain the identity")
    members = set(elems)
    for x in elems:
        if g.inv(x) not in members:
            raise ValueError(f"subset not inverse-closed at {x}")
        for y in elems:
            if g.mul(x, y) not in members:
                raise ValueError(f"subset not closed at ({x},{y})")
    return elems


def subgroup(g: GroupTable, elems: Sequence[int]) -> Tuple[GroupTable, Tuple[int, ...]]:
    """Subgroup as its own GroupTable plus the sorted ambient elements."""
    elems = _subgroup_elements(g, elems)
    return GroupTable(table_on(elems, g.mul)), elems


def is_normal(g: GroupTable, elems: Sequence[int]) -> bool:
    sub = set(elems)
    return all(g.mul(g.mul(x, nrm), g.inv(x)) in sub
               for x in g.elements() for nrm in sub)


def quotient(g: GroupTable, normal: Sequence[int]) -> Tuple[GroupTable, GroupHom]:
    """Quotient by a normal subgroup, with the projection homomorphism.

    Cosets are ordered by their least member, so the identity coset is 0.
    """
    _subgroup_elements(g, normal)
    if not is_normal(g, normal):
        raise ValueError("subgroup is not normal")
    rep = [min(g.mul(x, n) for n in normal) for x in g.elements()]
    reps = sorted(set(rep))
    q = make_group(table_on(reps, lambda x, y: rep[g.mul(x, y)]))
    proj = tuple(reps.index(r) for r in rep)
    return q, GroupHom(g, q, proj)


# ---------------------------------------------------------------------------
# automorphisms

def compose_perm(p: Perm, q: Perm) -> Perm:
    return tuple(map(p.__getitem__, q))


def invert_perm(p: Perm) -> Perm:
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


class AutGroup:
    """Automorphism group of A with one realizing permutation per element; an
    element is its index into `perms`, and `index` maps each perm back.
    `inner[a]` is the index of ad(a), and `preimages[p]` the sorted a with
    ad(a) = p (none unless p is inner); `preimages[0]` is Z(A).  `mul`
    composes a product on its first read and keeps it, so a caller pays only
    for the products it reads."""

    def __init__(self, perms: Tuple[Perm, ...], index: Dict[Perm, int],
                 inner: Tuple[int, ...], preimages: Tuple[Tuple[int, ...], ...]) -> None:
        self.perms = perms
        self.index = index
        self.inner = inner
        self.preimages = preimages
        self.order = len(perms)
        self._products: Dict[int, int] = {}

    def mul(self, p: int, q: int) -> int:
        """The index of p . q, composed as functions."""
        key = p * len(self.perms) + q
        products = self._products
        if key not in products:
            products[key] = self.index[compose_perm(self.perms[p], self.perms[q])]
        return products[key]

    def inv(self, p: int) -> int:
        return self.index[invert_perm(self.perms[p])]

    def index_of(self, perm: Perm) -> int:
        try:
            return self.index[tuple(perm)]
        except KeyError:
            raise KeyError(f"{perm} is not an automorphism of the group") from None


def inner_perm(g: GroupTable, a: int) -> Perm:
    """The inner automorphism x -> a x a^-1 as a permutation, read from
    the table: row a holds every a x."""
    ai, t = g.inv(a), g.table
    return tuple([t[ax][ai] for ax in t[a]])


@lru_cache(maxsize=None)
def generating_sequence(g: GroupTable) -> Tuple[int, ...]:
    """Each element not yet reached by the walk of `_bfs_recipes`, in index
    order, until the walk reaches all of g; cached per group."""
    return _walk_generators(g)


def _walk_generators(g: GroupTable) -> Tuple[int, ...]:
    """`generating_sequence` uncached, for tables not yet known to be
    groups.  It reads only products, so it runs on any table with an
    identity at 0, and every element is a product 1 s1 ... sr of the
    sequence."""
    gens: list[int] = []
    reached = {0}
    for x in g.elements():
        if x not in reached:
            gens.append(x)
            reached = {0, *(y for y, _, _ in _bfs_recipes(g, tuple(gens)))}
            if len(reached) == g.order:
                break
    return tuple(gens)


def _bfs_recipes(g: GroupTable, gens: Tuple[int, ...]) -> List[Tuple[int, int, int]]:
    """The breadth-first walk from 1 by right products with gens: each y it
    reaches beyond 1, once and in order, as (y, x, s) with y = x s, s in
    gens and x = 1 or reached before y."""
    steps, seen = [(0, None, None)], {0}
    for x, _, _ in steps:  # from 1, then from each y as it is reached
        for s in gens:
            y = g.mul(x, s)
            if y not in seen:
                seen.add(y)
                steps.append((y, x, s))
    return steps[1:]


@lru_cache(maxsize=None)
def generator_recurrence(g: GroupTable) -> Tuple[Tuple[int, int, int], ...]:
    """The `_bfs_recipes` steps of `generating_sequence(g)` past the first
    ones, which reach the generators: each y beyond 1 and the generators once."""
    gens = generating_sequence(g)
    return tuple(_bfs_recipes(g, gens)[len(gens):])


def generator_maps(g: GroupTable, options: Sequence[Sequence[int]], step: Callable,
                   first: int = 0) -> Iterator[Tuple[int, ...]]:
    """One map img on g per choice in `capped_product(options)`, refused
    before the first: img[1] = first, the choice on `generating_sequence(g)`
    and img[y] = step(img, x, s) along `generator_recurrence(g)`."""
    gens, recurrence = generating_sequence(g), generator_recurrence(g)
    for values in capped_product(options):
        img = [first] * g.order
        for s, v in zip(gens, values):
            img[s] = v
        for y, x, s in recurrence:
            img[y] = step(img, x, s)
        yield tuple(img)


@lru_cache(maxsize=None)
def compute_aut(g: GroupTable) -> AutGroup:
    """Full automorphism group, elements ordered lexicographically.

    The candidates are the `generator_maps` with img(x s) = img(x) img(s)
    that send each generator to an element of its order; those bijective
    and passing `hom_law_witness` are kept.  The identity is the least
    identity-fixing permutation, so it lands at index 0.
    """
    elem_orders = [g.element_order(x) for x in g.elements()]
    options = [[y for y in g.elements() if elem_orders[y] == elem_orders[s]]
               for s in generating_sequence(g)]
    maps = generator_maps(g, options, lambda img, x, s: g.table[img[x]][img[s]])
    found = sorted(img for img in maps if len(set(img)) == g.order
                   and hom_law_witness(g, img.__getitem__, g.mul) is None)
    index = {perm: i for i, perm in enumerate(found)}
    inner = tuple(index[inner_perm(g, a)] for a in g.elements())
    preimages = [[] for _ in found]
    for a, p in enumerate(inner):
        preimages[p].append(a)
    return AutGroup(tuple(found), index, inner, tuple(map(tuple, preimages)))
