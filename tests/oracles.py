"""Brute-force references for the tests, on plain data and the standard
library alone.

A group is its multiplication table: a sequence of rows over the indices
0..n-1, with the identity at 0.  A 2-cochain on (G, A) is a pair
(xi, perms): xi is a |G| x |G| table of A-indices, and perms[g] is phi(g)
as a permutation of A, so perms[g][x] = phi(g)(x).  Permutations compose as
functions.

A category is the 4-tuple (objects, arrows, compose, identities): the
objects in order, {arrow: (dom, cod)} in order, {(f, g): f o g} and
{object: identity arrow}.  A theory functor is the 4-tuple
(source, target, obj_map, mor_map) of two categories and two dicts; a group
action on the source is one (obj_map, mor_map) pair per element of G, and
an implementation's eta is one {object: arrow} dict per element.

A matrix is a list of rows of `Qi` numbers, and a representation is one
matrix per group element, in element order.

The Wick references work on polynomials {exponents: Fraction}, the
exponents in `wickscale.Monomial` field order (phi, ricci, log, w, delta,
lam, c), with no zero coefficient.

Each reference enumerates or checks straight from that data and is written
once, here.  Nothing here imports `covlab`, so a defect in a library
helper cannot hide in the reference that checks it.
"""

import collections
import functools
import itertools
import math
import operator
import random
from dataclasses import dataclass
from fractions import Fraction


# ---------------------------------------------------------------------------
# groups

def inverse(table, a):
    """The b with a b = b a = 1, by a scan of a's row."""
    for b in range(len(table)):
        if table[a][b] == 0 and table[b][a] == 0:
            return b
    raise KeyError(f"element {a} has no two-sided inverse")


def _ad(table, a):
    """The inner automorphism x -> a x a^-1, as a permutation."""
    ai = inverse(table, a)
    return tuple(table[table[a][x]][ai] for x in range(len(table)))


def first_non_associative(table):
    """The first (x, y, z) in lexicographic order with (x y) z != x (y z),
    else None."""
    n = len(table)
    return next(((x, y, z) for x, y, z in itertools.product(range(n), repeat=3)
                 if table[table[x][y]][z] != table[x][table[y][z]]), None)


def cyclic(n):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def direct_product(a, b):
    """The pair (x, y) at index x |b| + y."""
    nb = len(b)
    size = len(a) * nb
    return tuple(tuple(a[x // nb][y // nb] * nb + b[x % nb][y % nb] for y in range(size))
                 for x in range(size))


def symmetric3():
    """The permutations of 0, 1, 2 in lexicographic order."""
    perms = sorted(itertools.permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(index[tuple(p[q[k]] for k in range(3))] for q in perms)
                 for p in perms)


def quaternion8():
    """The unit quaternions +-1, +-i, +-j, +-k: +q at index 2 * axis and -q
    just after it.  i, j and k square to -1, and for two different ones a b
    is the third, with sign + when b follows a cyclically (i j = k)."""
    def mul(x, y):
        (a, sa), (b, sb) = divmod(x, 2), divmod(y, 2)
        sign = sa ^ sb
        if a == 0 or b == 0:
            return 2 * (a + b) + sign
        if a == b:
            return sign ^ 1
        return 2 * (6 - a - b) + (sign ^ ((b - a) % 3 != 1))
    return tuple(tuple(mul(x, y) for y in range(8)) for x in range(8))


def subgroup(table, elems):
    """The table of the subgroup on elems, relabelled in element order."""
    elems = sorted(set(elems))
    return tuple(tuple(elems.index(table[x][y]) for y in elems) for x in elems)


def quotient(table, normal):
    """(table, projection) on the cosets x N, ordered by least member."""
    cosets = sorted({tuple(sorted(table[x][n] for n in normal)) for x in range(len(table))})
    proj = tuple(next(i for i, c in enumerate(cosets) if x in c) for x in range(len(table)))
    return tuple(tuple(proj[table[a[0]][b[0]]] for b in cosets) for a in cosets), proj


def closure(table, elems):
    """The subgroup generated by elems, sorted: products and inverses added
    until nothing new appears."""
    seen, new = set(), {0, *elems}
    while new:
        seen |= new
        new = {z for x in seen for y in seen for z in (table[x][y], inverse(table, x))} - seen
    return tuple(sorted(seen))


def generating_sequence(table):
    """Each element outside the closure of those taken before it, in
    element order."""
    gens = []
    for x in range(len(table)):
        if x not in closure(table, gens):
            gens.append(x)
    return tuple(gens)


def hom_failure(table, image, law):
    """The first (x, s), x in element order and then s in
    `generating_sequence(table)`, with image[x s] != law(image[x], image[s]),
    else None.  With image[1] the identity, None means a homomorphism."""
    gens = generating_sequence(table)
    return next(((x, s) for x in range(len(table)) for s in gens
                 if image[table[x][s]] != law(image[x], image[s])), None)


def automorphisms(table):
    """Every permutation that fixes 0 and keeps the table law, in
    lexicographic order: Aut by brute force over all (n-1)! candidates."""
    n = len(table)
    return [perm for perm in ((0,) + rest for rest in itertools.permutations(range(1, n)))
            if all(perm[table[x][y]] == table[perm[x]][perm[y]]
                   for x in range(n) for y in range(n))]


# ---------------------------------------------------------------------------
# 2-cochains, H^2 and extensions

def _pair_law(G, perms, g1, g0):
    """phi(g1) . phi(g0) . phi(g1 g0)^-1, which the pair law sets to
    ad(xi(g1, g0))."""
    back = perms[G[g1][g0]]
    return tuple(perms[g1][perms[g0][back.index(x)]] for x in range(len(back)))


def _factor_set_law(G, A, xi, perms, g2, g1, g0):
    """xi(g2, g1) xi(g2 g1, g0) == phi(g2)(xi(g1, g0)) xi(g2, g1 g0)."""
    return (A[xi[g2][g1]][xi[G[g2][g1]][g0]]
            == A[perms[g2][xi[g1][g0]]][xi[g2][G[g1][g0]]])


def cocycle_failure(G, A, xi, perms):
    """The first broken cocycle law as (violation, witness), else None.  The
    pair law is read over (g1, g0), then the factor-set law over
    (g2, g1, g0), each in lexicographic order."""
    n = len(G)
    for g1, g0 in itertools.product(range(n), repeat=2):
        if _pair_law(G, perms, g1, g0) != _ad(A, xi[g1][g0]):
            return "automorphism_condition", (g1, g0)
    for g2, g1, g0 in itertools.product(range(n), repeat=3):
        if not _factor_set_law(G, A, xi, perms, g2, g1, g0):
            return "factor_set_condition", (g2, g1, g0)
    return None


def normalized_cocycles(G, A):
    """Every normalized cocycle (xi, perms), sorted: phi(1) = id and
    xi(1, g) = xi(g, 1) = 1, with the other phi values over Aut(A) and the
    other xi cells over A.  The cells are filled in row-major order, each
    over the A-values its pair law allows; a partial table is dropped as
    soon as a factor-set law whose cells are all filled fails, and each
    complete table is checked in full by `cocycle_failure`."""
    n, m = len(G), len(A)
    auts, ads = automorphisms(A), [_ad(A, a) for a in range(m)]
    cells = [(g1, g0) for g1 in range(1, n) for g0 in range(1, n)]
    position = {cell: k for k, cell in enumerate(cells)}
    laws_at = [[] for _ in cells]  # each law, at the last of its cells filled
    for g2, g1, g0 in itertools.product(range(n), repeat=3):
        read = [(g2, g1), (G[g2][g1], g0), (g1, g0), (g2, G[g1][g0])]
        filled = [position[cell] for cell in read if cell in position]
        if filled:
            laws_at[max(filled)].append((g2, g1, g0))
    found = []
    for tail in itertools.product(auts, repeat=n - 1):
        perms = (auts[0],) + tail
        options = [[a for a in range(m) if ads[a] == law]
                   for law in (_pair_law(G, perms, *cell) for cell in cells)]
        xi = [[0] * n for _ in range(n)]

        def fill(k):
            if k == len(cells):
                table = tuple(map(tuple, xi))
                if cocycle_failure(G, A, table, perms) is None:
                    found.append((table, perms))
                return
            g1, g0 = cells[k]
            for a in options[k]:
                xi[g1][g0] = a
                if all(_factor_set_law(G, A, xi, perms, *law) for law in laws_at[k]):
                    fill(k + 1)
        fill(0)
    return sorted(found)


def extension_table(G, A, xi, perms):
    """The pair product (a1, g1)(a0, g0) = (a1 phi(g1)(a0) xi(g1, g0), g1 g0)
    on A x G, with the pair (a, g) at index a |G| + g."""
    n = len(G)
    return tuple(tuple(A[A[a1][perms[g1][a0]]][xi[g1][g0]] * n + G[g1][g0]
                       for a0 in range(len(A)) for g0 in range(n))
                 for a1 in range(len(A)) for g1 in range(n))


def trivial(G, A):
    """The trivial cocycle: xi = 1 and every phi(g) the identity."""
    return ((0,) * len(G),) * len(G), (tuple(range(len(A))),) * len(G)


def _normalized_maps(G, A):
    """Every zeta: G -> A with zeta(1) = 1, in product order."""
    return [(0,) + tail for tail in itertools.product(range(len(A)), repeat=len(G) - 1)]


def twist(G, A, xi, perms, zeta):
    """(xi, perms) twisted by zeta, one A-index per element of G:
    xi~(g1, g0) = zeta(g1) phi(g1)(zeta(g0)) xi(g1, g0) zeta(g1 g0)^-1 and
    phi~(g) = ad(zeta(g)) . phi(g)."""
    inv = [inverse(A, z) for z in zeta]
    return (tuple(tuple(A[A[A[zeta[g1]][perms[g1][zeta[g0]]]][xi[g1][g0]]][inv[g]]
                        for g0, g in enumerate(row)) for g1, row in enumerate(G)),
            tuple(tuple(map(_ad(A, z).__getitem__, p)) for z, p in zip(zeta, perms)))


def first_twist(G, A, xi, perms, target, normalized):
    """The first zeta in product order that twists (xi, perms) into the
    cochain target, else None; with normalized, only those with
    zeta(1) = 1 are tried."""
    values = range(len(A))
    return next((zeta for zeta in itertools.product((0,) if normalized else values,
                                                    *[values] * (len(G) - 1))
                 if twist(G, A, xi, perms, zeta) == target), None)


def h2_classes(G, A):
    """The classes of normalized cocycles under the normalized twists, as
    (representative, size, distinguished, neutral) in representative order:
    each cocycle not yet reached is twisted by every normalized zeta.  The
    representative is the class's least (xi, perms); distinguished marks the
    class of the trivial cocycle, and neutral a class holding a cocycle whose
    xi is identically 1."""
    zetas = _normalized_maps(G, A)
    seen, classes = set(), []
    for c in normalized_cocycles(G, A):
        if c in seen:
            continue
        orbit = {twist(G, A, *c, zeta) for zeta in zetas}
        seen |= orbit
        classes.append((c, len(orbit), trivial(G, A) in orbit,
                        any(not any(map(any, xi)) for xi, _ in orbit)))
    return classes


def type_flags(G, A, xi, perms):
    """(direct product, semidirect) for the extension of (xi, perms): some
    normalized twist gives the trivial cocycle, or kills xi."""
    twists = [twist(G, A, xi, perms, zeta) for zeta in _normalized_maps(G, A)]
    return trivial(G, A) in twists, any(not any(map(any, xi2)) for xi2, _ in twists)


def extension_equivalence(G, A, E1, E2):
    """The first (iso, zeta), zeta normalized and in product order, with
    iso: (a, g) -> (a zeta(g), g) a homomorphism from the extension table E1
    to E2 (the pair (a, g) at index a |G| + g), else None."""
    n, size = len(G), len(E1)
    for zeta in _normalized_maps(G, A):
        iso = tuple(A[e // n][zeta[e % n]] * n + e % n for e in range(size))
        if all(iso[E1[x][y]] == E2[iso[x]][iso[y]] for x in range(size) for y in range(size)):
            return iso, zeta
    return None


# ---------------------------------------------------------------------------
# categories, theory functors and implementations

def hom(cat, x, y):
    """The arrows x -> y, sorted."""
    return tuple(sorted(m for m, ends in cat[1].items() if ends == (x, y)))


def arrow_inverse(cat, m):
    """The first two-sided inverse of m in the sorted hom(cod m, dom m),
    else None."""
    _, arrows, compose, identities = cat
    d, c = arrows[m]
    return next((k for k in hom(cat, c, d)
                 if compose.get((k, m)) == identities[d]
                 and compose.get((m, k)) == identities[c]), None)


def invertible_endos(cat, x):
    return tuple(m for m in hom(cat, x, x) if arrow_inverse(cat, m) is not None)


def functor_failure(theory):
    """The first broken functor law as (violation, witness), else None:
    the object map total, then the arrow map total and on the right ends,
    then identities and composites kept."""
    (objects, arrows, compose, identities), target, obj_map, mor_map = theory
    for x in objects:
        if obj_map.get(x) not in target[0]:
            return "ObjectMapNotTotal", (x,)
    for m, (d, c) in arrows.items():
        fm = mor_map.get(m)
        if fm not in target[1]:
            return "MorphismMapNotTotal", (m,)
        if target[1][fm] != (obj_map[d], obj_map[c]):
            return "DomCodNotPreserved", (m,)
    for x in objects:
        if mor_map[identities[x]] != target[3].get(obj_map[x]):
            return "IdentityNotPreserved", (x,)
    for (f, g), h in compose.items():
        if target[2].get((mor_map[f], mor_map[g])) != mor_map[h]:
            return "CompositionNotPreserved", (f, g)
    return None


def unnatural(theory, fam, image):
    """The first source arrow m: d -> c whose square
    fam[c] o F(m) == image[m] o fam[d] fails, else None."""
    source, (_, _, compose, _), _, mor_map = theory
    for m, (d, c) in source[1].items():
        if compose[fam[c], mor_map[m]] != compose[image[m], fam[d]]:
            return m
    return None


def implementation_failure(theory, G, action, eta, acted_on):
    """The first broken implementation law as (violation, witness), else
    None; acted_on is the category the action acts on."""
    source, target, obj_map, mor_map = theory
    objects = source[0]
    if acted_on != source:
        return "ActionCategoryMismatch", ()
    if len(eta) != len(G):
        return "FamilyPerElementMissing", (len(eta),)
    for x in objects:
        if eta[0].get(x) != target[3][obj_map[x]]:
            return "IdentityFamilyNotIdentity", (x,)
    for g, fam in enumerate(eta):
        for x in objects:
            m = fam.get(x)
            if m is None:
                return "FamilyNotTotal", (g, x)
            if target[1][m] != (obj_map[x], obj_map[action[g][0][x]]):
                return "ComponentShape", (g, x)
            if arrow_inverse(target, m) is None:
                return "ComponentNotInvertible", (g, x)
        if len(fam) != len(objects):
            return "FamilyAtUnknownObject", (g, next(x for x in fam if x not in objects))
        m = unnatural(theory, fam, {m: mor_map[action[g][1][m]] for m in source[1]})
        if m is not None:
            return "NotNatural", (g, m)
    return None


def gauge_group(theory):
    """(families, table): each natural family of invertible endos, one per
    source object in order, identity family first and then lexicographic;
    the table by a lookup of each product in the family list."""
    source, target, obj_map, mor_map = theory
    objects, compose = source[0], target[2]
    families = [combo for combo in itertools.product(
                    *[invertible_endos(target, obj_map[x]) for x in objects])
                if unnatural(theory, dict(zip(objects, combo)), mor_map) is None]
    ident = tuple(target[3][obj_map[x]] for x in objects)
    families.sort(key=lambda fam: (fam != ident, fam))
    table = tuple(tuple(families.index(tuple(compose[p, q] for p, q in zip(a, b)))
                        for b in families) for a in families)
    return families, table


def cocycle(theory, G, action, eta):
    """The implementation's normalized cocycle (xi, perms) over its gauge
    group, object by object:
    xi(g1, g0)_d = eta(g1)_{g0.c} o eta(g0)_c o eta(g1 g0)_c^-1 and
    phi(g)(alpha)_d = eta(g)_c o alpha_c o eta(g)_c^-1, with c the object
    that g1 g0, or g, moves to d: c = at[d]."""
    source, target, _, _ = theory
    objects, compose = source[0], target[2]
    families, _ = gauge_group(theory)

    def xi_family(g1, g0):
        g = G[g1][g0]
        at = action[inverse(G, g)][0]
        return tuple(compose[eta[g1][action[g0][0][at[d]]],
                             compose[eta[g0][at[d]], arrow_inverse(target, eta[g][at[d]])]]
                     for d in objects)

    def phi_perm(g):
        at = action[inverse(G, g)][0]
        return tuple(families.index(tuple(
            compose[eta[g][at[d]], compose[alpha[objects.index(at[d])],
                                           arrow_inverse(target, eta[g][at[d]])]]
            for d in objects)) for alpha in families)

    xi = tuple(tuple(families.index(xi_family(g1, g0)) for g0 in range(len(G)))
               for g1 in range(len(G)))
    return xi, tuple(phi_perm(g) for g in range(len(G)))


def comparison(theory, G, action, eta1, eta2):
    """The gauge indices of zeta(g)_{g.c} = eta2(g)_c o eta1(g)_c^-1."""
    source, target, _, _ = theory
    families, _ = gauge_group(theory)
    ats = [action[inverse(G, g)][0] for g in range(len(G))]  # at[d] = g^-1.d
    return tuple(families.index(tuple(
        target[2][eta2[g][at[d]], arrow_inverse(target, eta1[g][at[d]])] for d in source[0]))
        for g, at in enumerate(ats))


def gauged(theory, action, eta, pairs):
    """For each (a, g) of pairs, {x: alpha_{g.x} o eta(g)_x} for the gauge
    family alpha of index a."""
    (objects, *_), target, _, _ = theory
    families, _ = gauge_group(theory)
    return [{x: target[2][families[a][objects.index(action[g][0][x])], eta[g][x]]
             for x in objects} for a, g in pairs]


# ---------------------------------------------------------------------------
# Gaussian rationals, matrices and representations

@dataclass(frozen=True)
class Qi:
    """The Gaussian rational re + im i, as two Fractions."""
    re: Fraction
    im: Fraction = Fraction(0)

    def __add__(self, o):
        return Qi(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return Qi(self.re - o.re, self.im - o.im)

    def __neg__(self):
        return Qi(-self.re, -self.im)

    def __mul__(self, o):
        return Qi(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return Qi((self.re * o.re + self.im * o.im) / n, (self.im * o.re - self.re * o.im) / n)

    def __pow__(self, n):
        base = _ONE / self if n < 0 else self
        return functools.reduce(Qi.__mul__, [base] * abs(n), _ONE)

    def conjugate(self):
        return Qi(self.re, -self.im)

    def is_zero(self):
        return self.re == 0 and self.im == 0

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        sign = "+" if self.im > 0 else "-"
        return f"{self.im}i" if self.re == 0 else f"{self.re}{sign}{abs(self.im)}i"


_ZERO = Qi(Fraction(0))
_ONE = Qi(Fraction(1))


def mat_identity(d):
    return [[_ONE if i == j else _ZERO for j in range(d)] for i in range(d)]


def mat_product(x, y):
    return [[sum((a * b for a, b in zip(row, col)), _ZERO) for col in zip(*y)] for row in x]


def mat_det(rows):
    """The determinant by cofactor expansion along the first row."""
    if not rows:
        return _ONE
    return sum(((-a if j % 2 else a) * mat_det([r[:j] + r[j + 1:] for r in rows[1:]])
                for j, a in enumerate(rows[0])), _ZERO)


def mat_rref(rows):
    """(reduced row echelon form, pivot columns)."""
    a, pivots = [list(r) for r in rows], []
    for c in range(len(a[0])):
        r = len(pivots)
        piv = next((i for i in range(r, len(a)) if not a[i][c].is_zero()), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        a[r] = [x / a[r][c] for x in a[r]]
        for i in range(len(a)):
            f = a[i][c]
            if i != r and not f.is_zero():
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
    return a, pivots


def mat_null_space(rows, ncols):
    """The echelon basis of the null space: one vector per free column."""
    a, pivots = mat_rref(rows)
    return [[-a[pivots.index(c)][f] if c in pivots else _ONE if c == f else _ZERO
             for c in range(ncols)] for f in range(ncols) if f not in pivots]


def mat_inverse(rows):
    """The inverse by reducing [rows | 1], else None when rows is singular."""
    n = len(rows)
    a, pivots = mat_rref([list(r) + mat_identity(n)[i] for i, r in enumerate(rows)])
    return None if pivots != list(range(n)) else [row[n:] for row in a]


def rep_violation(table, mats):
    """The first broken representation law of mats on the group table, as
    (violation, witness), else None: mats[1] the identity, every matrix
    invertible, then the homomorphism law at `hom_failure`'s pair."""
    if mats[0] != mat_identity(len(mats[0])):
        return "IdentityNotIdentityMatrix", (0,)
    singular = next((g for g, m in enumerate(mats) if mat_det(m).is_zero()), None)
    if singular is not None:
        return "NotInvertible", (singular,)
    witness = hom_failure(table, mats, mat_product)
    return None if witness is None else ("NotAHomomorphism", witness)


def field_violation(G, A, xi, perms, dot, star):
    """The first broken field-action law of dot (a representation of A) and
    star (one matrix per element of G) over the cochain (xi, perms), as
    (violation, witness), else None; the compatibility and twisted-action
    laws are read on all pairs."""
    rep = rep_violation(A, dot)
    if rep is not None:
        return f"DotRep:{rep[0]}", rep[1]
    if star[0] != mat_identity(len(dot[0])):
        return "StarIdentity", (0,)
    for g, m in enumerate(star):
        if mat_det(m).is_zero():
            return "StarNotInvertible", (g,)
    for g, alpha in itertools.product(range(len(G)), range(len(A))):
        if mat_product(star[g], dot[alpha]) != mat_product(dot[perms[g][alpha]], star[g]):
            return "CompatibilityLaw", (g, alpha)
    for g1, g0 in itertools.product(range(len(G)), repeat=2):
        if mat_product(star[g1], star[g0]) != mat_product(dot[xi[g1][g0]], star[G[g1][g0]]):
            return "TwistedActionLaw", (g1, g0)
    return None


def intertwiners(mats1, mats2):
    """A basis of {R : R mats1[g] == mats2[g] R for all g}, from the null
    space of the linear system on the entries of R."""
    d1, d2 = len(mats1[0]), len(mats2[0])
    rows = []
    for m1, m2 in zip(mats1, mats2):
        for i, j in itertools.product(range(d2), range(d1)):
            row = [_ZERO] * (d2 * d1)
            for k in range(d1):  # (R m1)[i][j] = sum_k R[i][k] m1[k][j]
                row[i * d1 + k] += m1[k][j]
            for k in range(d2):  # (m2 R)[i][j] = sum_k m2[i][k] R[k][j]
                row[k * d1 + j] -= m2[i][k]
            rows.append(row)
    return [[vec[i * d1:(i + 1) * d1] for i in range(d2)]
            for vec in mat_null_space(rows, d2 * d1)]


def equivalent(mats1, mats2):
    """Whether the intertwiner space of two representations holds an
    invertible matrix: tried on 64 seeded random combinations of a basis,
    then on the whole grid {0..d}^dim(space), which decides it (a nonzero
    polynomial of total degree d cannot vanish on all of it)."""
    d = len(mats1[0])
    if len(mats2[0]) != d:
        return False
    basis = intertwiners(mats1, mats2)

    def invertible(coeffs):
        terms = [(q, b) for q, b in zip(coeffs, basis) if q]
        m = [[sum((Qi(q * b[i][j].re, q * b[i][j].im) for q, b in terms), _ZERO)
              for j in range(d)] for i in range(d)]
        return not mat_det(m).is_zero()
    rng = random.Random(0xC0C)
    draws = [[rng.randrange(-3, 4) for _ in basis] for _ in range(64)]
    grid = itertools.product(range(d + 1), repeat=len(basis))
    return bool(basis) and any(map(invertible, itertools.chain(draws, grid)))


# ---------------------------------------------------------------------------
# Wick powers
#
# A field series is sum_m i^m h^m Phi^m / m!.  Each relation multiplies such
# series by an exponential, and a coefficient is read off after removing the
# i^(total degree) it carries; what is left is an even power of i.

_FIELDS = ("phi", "ricci", "log", "w", "delta", "lam", "c")

# the printed name of each field, in the order the text form writes them
SYMBOLS = (("lam", "lam"), ("c", "c"), ("L", "log"), ("R", "ricci"),
           ("W", "w"), ("D", "delta"), ("Phi", "phi"))


def _real(power_of_i, q):
    """i^power_of_i * q, for an even power."""
    if power_of_i % 2:
        raise ValueError("odd residual power of i in a real coefficient")
    return q if power_of_i % 4 == 0 else -q


def _poly(terms):
    """{exponents: coefficient} from (exponents by field name, coefficient)
    pairs, like terms summed and zero sums dropped."""
    out = {}
    for exps, q in terms:
        key = tuple(exps.get(name, 0) for name in _FIELDS)
        out[key] = out.get(key, 0) + q
    return {key: q for key, q in out.items() if q}


def _named(key):
    return dict(zip(_FIELDS, key))


def star_power(k, l):
    """Phi^k * Phi^l: k! l! times the coefficient of f^k g^l in
    G[f] G[g] = G[f + g] exp(-W f g)."""
    terms = []
    for j in range(min(k, l) + 1):
        m = k + l - 2 * j
        # (f+g)^m gives C(m, k-j) f^(k-j) g^(l-j); exp gives (-W)^j f^j g^j / j!
        q = (Fraction(math.comb(m, k - j), math.factorial(m))
             * Fraction((-1) ** j, math.factorial(j))
             * math.factorial(k) * math.factorial(l))
        terms.append(({"phi": m, "w": j}, _real(m - k - l, q)))
    return _poly(terms)


def change_of_ordering_power(k):
    """Phi^k reordered against K + D: k! times the coefficient of h^k in
    H_K[h] = H_{K+D}[h] exp(-D h^2 / 2)."""
    terms = []
    for j in range(k // 2 + 1):
        m = k - 2 * j
        q = (Fraction(1, math.factorial(m))
             * Fraction((-1) ** j, math.factorial(j) * 2 ** j) * math.factorial(k))
        terms.append(({"phi": m, "delta": j}, _real(m - k, q)))
    return _poly(terms)


def scale_power(k):
    """The scaled Wick power Phi^k: k! times the coefficient of h^k in
    H[lam h] exp(-c L R lam^2 h^2)."""
    terms = []
    for j in range(k // 2 + 1):
        m = k - 2 * j
        q = (Fraction(1, math.factorial(m))
             * Fraction((-1) ** j, math.factorial(j)) * math.factorial(k))
        terms.append(({"phi": m, "ricci": j, "log": j, "lam": k, "c": j}, _real(m - k, q)))
    return _poly(terms)


def poly_add(*polys):
    return _poly((_named(key), q) for p in polys for key, q in p.items())


def poly_mul(*polys):
    return functools.reduce(lambda a, b: _poly(
        (_named(tuple(map(operator.add, k1, k2))), q1 * q2)
        for k1, q1 in a.items() for k2, q2 in b.items()), polys, {(0,) * len(_FIELDS): 1})


def poly_set_symbol(a, field, value):
    """a with the field set to the value."""
    i = _FIELDS.index(field)
    return _poly((_named(key[:i] + (0,) + key[i + 1:]), q * Fraction(value) ** key[i])
                 for key, q in a.items())


def poly_wick_product(p, q):
    """The star product, bilinear over `star_power` of each pair of Phi
    powers."""
    return poly_add(*(poly_mul({(0,) + k1[1:]: q1}, {(0,) + k2[1:]: q2}, star_power(k1[0], k2[0]))
                      for k1, q1 in p.items() for k2, q2 in q.items()))


def poly_change_of_ordering(p, delta):
    """p reordered against K + delta: each Phi^k expanded by
    `change_of_ordering_power`, with D^j read as delta^j."""
    return poly_add(*(poly_mul({(power[0],) + key[1:]: q * c}, *[delta] * _named(power)["delta"])
                      for key, q in p.items()
                      for power, c in change_of_ordering_power(key[0]).items()))


def parse_poly(text):
    """The text form read back: terms joined by '+', each a coefficient and
    name^exponent factors joined by '*'."""
    names, terms = dict(SYMBOLS), []
    for chunk in text.split("+"):
        coeff, *factors = chunk.strip().split("*")
        exps = collections.Counter()
        for name, e in (factor.split("^") for factor in factors):
            exps[names[name]] += int(e)
        terms.append((exps, Fraction(coeff)))
    return _poly(terms)


def poly_str(p):
    """The text form: terms by descending Phi power, then ascending in the
    other exponents; each the coefficient, then each nonzero exponent in
    `SYMBOLS` order."""
    return " + ".join("*".join([str(q)] + [f"{name}^{_named(key)[field]}"
                                           for name, field in SYMBOLS if _named(key)[field]])
                      for key, q in sorted(p.items(), key=lambda t: ((-t[0][0],) + t[0][1:])))\
        or "0"
