"""Nonabelian 2-cochains, cocycle laws, coboundary twisting and H^2 classes.

A 2-cochain on (G, A) is a pair (xi, phi) with xi: G x G -> A and
phi: G -> Aut(A).  It is a 2-cocycle when, composing automorphisms as
functions and writing ad(a): x -> a x a^-1,

    phi(g2) . phi(g1) . phi(g2*g1)^-1 == ad(xi(g2, g1))            (pairs)
    xi(g2,g1) * xi(g2*g1,g0) == phi(g2)(xi(g1,g0)) * xi(g2,g1*g0)  (triples)

Two cocycles are cohomologous when a twist zeta: G -> A turns one into the
other via

    phi~(g)  = ad(zeta(g)) . phi(g)
    xi~(g1,g0) = zeta(g1) * phi(g1)(zeta(g0)) * xi(g1,g0) * zeta(g1*g0)^-1.

H^2(G, A) is the resulting pointed set of classes; no group structure is
imposed (none exists for nonabelian A).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Tuple

from .config import SearchSpaceTooLarge, capped_product, enum_cap
from .fingroup import (GroupTable, Perm, Report, compose_perm, compute_aut,
                       generating_sequence, generator_maps, inner_perm)


class Cochain2:
    """A 2-cochain: xi as a |G| x |G| table of A-indices, phi as one
    automorphism index (into compute_aut(A).perms) per G element, equal by
    (G, A, xi, phi).  Built with `aut`, compute_aut(A) read once, and
    `perms`, phi(g) as a permutation of A."""

    def __init__(self, G: GroupTable, A: GroupTable, xi: Tuple[Tuple[int, ...], ...],
                 phi: Tuple[int, ...]) -> None:
        n, m = G.order, A.order
        if len(xi) != n or any(len(row) != n for row in xi):
            raise ValueError("xi is not total on G x G")
        if n and (min(map(min, xi)) < 0 or max(map(max, xi)) >= m):
            raise ValueError("xi has entries outside A")
        aut = compute_aut(A)
        if len(phi) != n or n and (min(phi) < 0 or max(phi) >= aut.order):
            raise ValueError("phi is not total on G or indexes outside Aut(A)")
        self.G, self.A, self.xi, self.phi, self.aut = G, A, xi, phi, aut
        self.perms = tuple(aut.perms[p] for p in self.phi)

    def __eq__(self, other) -> bool:
        return isinstance(other, Cochain2) and (self.G, self.A, self.xi, self.phi) == (
            other.G, other.A, other.xi, other.phi)

    def __hash__(self) -> int:
        return hash((self.G, self.A, self.xi, self.phi))

    def is_normalized(self) -> bool:
        if self.phi[0] != 0:
            return False
        return all(self.xi[g][0] == 0 and self.xi[0][g] == 0
                   for g in self.G.elements())


def trivial_cochain(G: GroupTable, A: GroupTable) -> Cochain2:
    n = G.order
    return Cochain2(G, A, tuple((0,) * n for _ in range(n)), (0,) * n)


class _Schedule(NamedTuple):
    pairs: tuple
    laws: tuple
    gen_pairs: tuple
    gen_laws: tuple
    cells: tuple
    cell_pairs: tuple
    checks: tuple


@lru_cache(maxsize=None)
def _schedule(G: GroupTable) -> _Schedule:
    """G's cocycle laws, each listed once, and the orders the H^2 kernels
    walk them in.  `pairs`: the (g1, g0, g1*g0) in row-major order.  `laws`:
    the factor-set laws over every (g2, g1, g0) in lexicographic order, as
    flat xi cells (g2, l1, l2, r1, r2) for the law
    xi[l1] * xi[l2] == phi(g2)(xi[r1]) * xi[r2], where l1 = g2*n + g1,
    l2 = (g2 g1)*n + g0, r1 = g1*n + g0 and r2 = g2*n + (g1 g0).
    `gen_pairs` and `gen_laws`: both lists cut to generator middles, g0 = s
    and g1 = s for s in `generating_sequence(G)`.  `cells`: the free xi
    cells g1*n + g0 (g1, g0 != 1) of a normalized cochain in row-major
    order, with their `cell_pairs`; `checks[k]` holds the laws whose cells
    are all set once cell k is (a law with no free cell holds for every
    phi).
    """
    n, mul = G.order, G.mul
    gens = generating_sequence(G)
    pairs = tuple((g1, g0, mul(g1, g0)) for g1 in G.elements() for g0 in G.elements())
    laws = tuple((g2, g2 * n + g1, mul(g2, g1) * n + g0, g1 * n + g0,
                  g2 * n + mul(g1, g0))
                 for g2 in G.elements() for g1 in G.elements() for g0 in G.elements())
    cells = tuple(g1 * n + g0 for g1 in range(1, n) for g0 in range(1, n))
    rank = {pos: k for k, pos in enumerate(cells)}
    checks = [[] for _ in cells]
    for law in laws:
        last = max((rank[pos] for pos in law[1:] if pos in rank), default=None)
        if last is not None:
            checks[last].append(law)
    return _Schedule(
        pairs, laws, tuple(pair for pair in pairs if pair[1] in gens),
        tuple(law for law in laws if law[3] // n in gens),
        cells, tuple(pairs[pos] for pos in cells), tuple(map(tuple, checks)))


def _first_failure(c: Cochain2, pairs, laws) -> Optional[Report]:
    """The first of the given laws that c breaks, as a Report, else None.
    The pair law is read as phi(g1) . phi(g0) == ad(xi(g1, g0)) . phi(g1*g0),
    which holds exactly when the form in the module docstring does."""
    A, perms, n, mul = c.A, c.perms, c.G.order, c.A.table
    xi = [v for row in c.xi for v in row]
    for g1, g0, g in pairs:
        if (compose_perm(perms[g1], perms[g0])
                != compose_perm(inner_perm(A, xi[g1 * n + g0]), perms[g])):
            return Report(False, "automorphism_condition", (g1, g0))
    for g2, l1, l2, r1, r2 in laws:
        if mul[xi[l1]][xi[l2]] != mul[perms[g2][xi[r1]]][xi[r2]]:
            return Report(False, "factor_set_condition", (g2, l1 % n, r1 % n))
    return None


def validate_cocycle(c: Cochain2) -> Report:
    """Check both cocycle laws; report the first failing pair/triple.

    A normalized cochain (phi(1) = id, xi(1, g) = xi(g, 1) = 1) is first
    checked on generator middles only: the pair laws at (g, s) and the
    factor-set laws at (g2, s, g0), s in `generating_sequence(G)`, g, g2
    and g0 in G; that is n|S| pairs and n^2|S| triples, not n^2 and n^3.
    If they all hold, c is a cocycle.  Proof (Light's associativity test):
    put (a, g)(b, h) = (a phi(g)(b) xi(g, h), gh) on A x G.  Since each
    phi(g) is an automorphism, the triple ((a, g), (b, h), (e, k))
    associates for every a, b, e exactly when the pair law at (g, h) and
    the factor-set law at (g, h, k) hold, so c is a cocycle exactly when
    the product is associative.  The middles m with (xm)y = x(my) for all
    x, y are closed under the product, since (x m1 m2)y = (x m1)(m2 y) =
    x(m1 m2 y).  Normalization makes (1, 1) a two-sided identity, so a
    middle (a, 1) always associates (both its laws read xi(g, k) =
    xi(g, k) and phi(g) = phi(g)); a middle (1, s) unfolds to exactly the
    two laws above.  And (a, 1)(1, s1)...(1, sr) runs over all of A x G,
    as the s run over the words in the generators, so every middle
    associates.

    When that check fails, or c is not normalized, every pair and then
    every triple is scanned in order, so the witness is the first failing
    one.
    """
    sched = _schedule(c.G)
    if c.is_normalized() and _first_failure(c, sched.gen_pairs, sched.gen_laws) is None:
        return Report(True)
    failure = _first_failure(c, sched.pairs, sched.laws)
    return Report(True) if failure is None else failure


def is_neutral(c: Cochain2) -> bool:
    """True iff xi is identically 1; phi is then necessarily a homomorphism
    (the tests check this on every enumerated cocycle)."""
    return all(v == 0 for row in c.xi for v in row)


def coboundary_twist(c: Cochain2, zeta: Tuple[int, ...]) -> Cochain2:
    """Twist the cochain c by zeta, given as one A-index per G element; the
    one place the twist formula is written.  Only the twist map is checked
    here.  Twisting maps cocycles to cocycles (the tests validate every
    normalized twist of every enumerated cocycle), so c is not validated:
    callers holding a cochain from outside check it once, as the CLI verbs
    and `cohomologous` (for c1) do.  phi~(g) is the Aut(A) product of
    ad(zeta(g)) and phi(g), read on Aut indexes, and xi~ is read from the
    rows of the A and G tables, with each zeta(g)^-1 computed once."""
    G, A = c.G, c.A
    if len(zeta) != G.order or any(not (0 <= z < A.order) for z in zeta):
        raise ValueError("twist map is not total on G")
    mul, perms, times, inner = A.table, c.perms, c.aut.mul, c.aut.inner
    phi = tuple([times(inner[z], p) for z, p in zip(zeta, c.phi)])
    inverses = [A.inv(z) for z in zeta]
    xi = []
    for g1, row in enumerate(c.xi):
        left, p, products = mul[zeta[g1]], perms[g1], G.table[g1]
        xi.append(tuple([mul[mul[left[p[z0]]][x]][inverses[g]]
                         for z0, x, g in zip(zeta, row, products)]))
    return Cochain2(G, A, tuple(xi), phi)


def _twist_candidates(c: Cochain2, xi, phi=None) -> list:
    """The sorted maps zeta that may twist the cocycle c to one with factor
    set xi and, when given, phi-part phi; every witness is among them.
    zeta(1) = xi(1, 1) xi_c(1, 1)^-1.  On a generating sequence zeta(s) runs
    over the Z(A) coset `aut.preimages` of phi(s) . phi_c(s)^-1 (|Z(A)|^d
    candidates), or over A when phi is free (|A|^d), and `generator_maps`
    fills in zeta(g*s) = xi(g, s)^-1 zeta(g) phi_c(g)(zeta(s)) xi_c(g, s)."""
    A, aut, perms, gens = c.A, c.aut, c.perms, generating_sequence(c.G)
    options = ([A.elements()] * len(gens) if phi is None else
               [aut.preimages[aut.mul(phi[s], aut.inv(c.phi[s]))] for s in gens])

    def step(zeta, g, s):
        return A.mul(A.inv(xi[g][s]), A.mul(A.mul(zeta[g], perms[g][zeta[s]]), c.xi[g][s]))
    return sorted(generator_maps(c.G, options, step, A.mul(xi[0][0], A.inv(c.xi[0][0]))))


def _first_twist(c1: Cochain2, c2: Cochain2) -> Optional[Tuple[int, ...]]:
    """The lexicographically first zeta twisting c1 into c2, or None.  The
    |Z(A)|^d `_twist_candidates` for c2's phi, each checked by twisting c1,
    are complete when c1 is a cocycle, which the caller has checked."""
    return next((zeta for zeta in _twist_candidates(c1, c2.xi, c2.phi)
                 if coboundary_twist(c1, zeta) == c2), None)


def cohomologous(c1: Cochain2, c2: Cochain2) -> Optional[Tuple[int, ...]]:
    """The lexicographically first witness that c1 ~ c2, or None, among
    |Z(A)|^d maps.  Only c1 is validated: `_first_twist` is complete for a
    cocycle c1, and no twist of one is a non-cocycle c2."""
    if c1.G != c2.G or c1.A != c2.A:
        raise ValueError("cochains live over different (G, A)")
    validate_cocycle(c1).require("cocycle")
    return _first_twist(c1, c2)


# ---------------------------------------------------------------------------
# classification

class H2Class(NamedTuple):
    representative: Cochain2
    size: int
    distinguished: bool
    neutral: bool


class H2Classification(NamedTuple):
    G: GroupTable
    A: GroupTable
    classes: Tuple[H2Class, ...]

    @property
    def count(self) -> int:
        return len(self.classes)


def enumerate_normalized_cocycles(G: GroupTable, A: GroupTable
                                  ) -> Tuple[Cochain2, ...]:
    """All normalized valid 2-cocycles over (G, A), in lexicographic order.

    A depth-first search.  For each phi tail, the pair law confines
    xi(g1, g0) to the a in A with ad(a) equal to the defect
    phi(g1) . phi(g0) . phi(g1*g0)^-1, computed on Aut(A) indexes, and a
    phi with a non-inner defect is dropped before any xi cell is set.  The
    free xi cells are set in row-major order, and each factor-set triple is
    checked as soon as its last cell is set.  validate_cocycle decides every
    leaf; a leaf is normalized, so it is decided on generator middles (n|S|
    pairs and n^2|S| triples) unless one of those fails.  The phi tails run
    over capped_product; the xi search counts the cell values it tries and
    raises SearchSpaceTooLarge once that count passes the cap.
    """
    limit = enum_cap()
    aut = compute_aut(A)
    n = G.order
    times, preimages = aut.mul, aut.preimages
    inverse = [aut.inv(p) for p in range(aut.order)]
    sched = _schedule(G)
    cells, checks = sched.cells, sched.checks
    mul = A.table
    found = []
    visited = 0
    xi = [0] * (n * n)

    def solve(k: int) -> None:
        # reads phi, perms and options, which the loop below sets per phi tail
        nonlocal visited
        if k == len(cells):
            leaf = Cochain2(G, A, tuple(tuple(xi[r * n:(r + 1) * n])
                                        for r in range(n)), phi)
            if validate_cocycle(leaf):
                found.append(leaf)
            return
        pos = cells[k]
        for v in options[k]:
            visited += 1
            if visited > limit:
                raise SearchSpaceTooLarge(visited, limit)
            xi[pos] = v
            for g2, l1, l2, r1, r2 in checks[k]:
                if mul[xi[l1]][xi[l2]] != mul[perms[g2][xi[r1]]][xi[r2]]:
                    break
            else:
                solve(k + 1)

    for tail in capped_product([range(aut.order)] * (n - 1)):
        phi = (0,) + tail
        options = []
        for g1, g0, g in sched.cell_pairs:
            xis = preimages[times(phi[g1], times(phi[g0], inverse[phi[g]]))]
            if not xis:
                break
            options.append(xis)
        else:
            perms = [aut.perms[p] for p in phi]
            solve(0)
    del solve  # the closure refers to itself: break the cycle, so no collector is needed
    found.sort(key=lambda c: (c.xi, c.phi))
    return tuple(found)


def _stabiliser(c: Cochain2) -> Tuple[Tuple[int, ...], ...]:
    """Stab(c) of the cocycle c: the normalized zeta with
    coboundary_twist(c, zeta) == c, as the `_twist_candidates` from c to
    itself (central on the generators) with zeta(g1 g0) = zeta(g1) *
    phi(g1)(zeta(g0)) on every pair, checked on the `gen_pairs`, g0 = s in
    `generating_sequence(G)`, alone.  That suffices.  Each candidate value
    is central: zeta(s) is, and the recurrence zeta(g s) = xi(g, s)^-1
    zeta(g) phi(g)(zeta(s)) xi(g, s) conjugates a central product.  On
    Z(A), phi(x) . phi(y) = ad(xi(x, y)) . phi(xy) agrees with phi(xy) by
    the pair law.  Induction on y as a word in the generators: the law
    holds at (x, 1), as zeta(1) = 1; and if it holds at every (x, y), it
    holds at (x, y s), by the law at (x y, s), at (x, y) and at (y, s):
    zeta(x y s) = zeta(x y) phi(x y)(zeta(s))
                = zeta(x) phi(x)(zeta(y)) phi(x)(phi(y)(zeta(s)))
                = zeta(x) phi(x)(zeta(y s))."""
    mul, perms = c.A.table, c.perms
    pairs = _schedule(c.G).gen_pairs
    return tuple(zeta for zeta in _twist_candidates(c, c.xi, c.phi)
                 if all(zeta[g] == mul[zeta[g1]][perms[g1][zeta[g0]]]
                        for g1, g0, g in pairs))


def classify_h2(G: GroupTable, A: GroupTable) -> H2Classification:
    """Partition all normalized valid cocycles into cohomology classes.

    The class of the trivial cocycle is flagged as the distinguished point.
    Canonical representatives are the lexicographically least (xi, phi)
    tables of each class; classes are listed in representative order.  The
    cocycles come sorted, so the first one a class meets is its least.

    Each class is the orbit of its representative c under the normalized
    twists, walked once per member.  Twisting composes pointwise:
    twist(twist(c, z1), z2) = twist(c, z2 z1), as ad(z2) ad(z1) = ad(z2 z1)
    and the xi factors nest.  So twist(c, z s) = twist(c, z) for s in the
    stabiliser Stab(c) = {s : twist(c, s) = c}.  The walk runs over the
    capped product of normalized maps, twists only the first zeta of each
    coset z Stab(c) and adds the whole coset to the class's set of covered
    maps, which it skips; a class has |A|^(n-1) / |Stab(c)| members, one
    twist each.

    Stab(c) is computed without twisting (`_stabiliser`).  Its members are
    witnesses from c to c, hence `_twist_candidates`, central on the
    generators; the law below makes them central on all of G.  Proof that
    Stab(c) is the normalized zeta with central values and zeta(g1 g0) =
    zeta(g1) phi(g1)(zeta(g0)): phi~(g) = ad(zeta(g)) . phi(g) equals
    phi(g) exactly when ad(zeta(g)) is the identity, that is when zeta(g)
    lies in Z(A).  Given that, phi(g1)(zeta(g0)) is central too, as
    automorphisms preserve Z(A), so every zeta factor of xi~ commutes with
    xi(g1, g0), and
    xi~(g1, g0) = zeta(g1) phi(g1)(zeta(g0)) zeta(g1 g0)^-1 xi(g1, g0),
    which equals xi(g1, g0) exactly when the identity above holds.
    """
    cocycles = enumerate_normalized_cocycles(G, A)
    index = {(c.xi, c.phi): i for i, c in enumerate(cocycles)}
    mul = A.table
    seen = [False] * len(cocycles)
    classes = []
    trivial = trivial_cochain(G, A)
    trivial_index = index[(trivial.xi, trivial.phi)]
    for i, c in enumerate(cocycles):
        if seen[i]:
            continue
        stab = _stabiliser(c)
        covered = set()
        orbit = set()
        for zeta in capped_product([(0,)] + [A.elements()] * (G.order - 1)):
            if zeta in covered:
                continue
            tw = coboundary_twist(c, zeta)
            orbit.add(index[(tw.xi, tw.phi)])
            covered.update(tuple([mul[z][t] for z, t in zip(zeta, s)]) for s in stab)
        for j in orbit:
            seen[j] = True
        classes.append(H2Class(
            representative=c,
            size=len(orbit),
            distinguished=trivial_index in orbit,
            neutral=any(is_neutral(cocycles[j]) for j in orbit),
        ))
    return H2Classification(G, A, tuple(classes))
