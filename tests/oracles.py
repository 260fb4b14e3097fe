"""Brute-force references for the tests, on plain tables and the standard
library alone.

A group is its multiplication table: a sequence of rows over the indices
0..n-1, with the identity at 0.  A 2-cochain on (G, A) is a pair
(xi, perms): xi is a |G| x |G| table of A-indices, and perms[g] is phi(g)
as a permutation of A, so perms[g][x] = phi(g)(x).  Permutations compose as
functions.  Each reference enumerates or checks straight from those tables
and is written once, here.  Nothing here imports `covlab`, so a defect in a
library helper cannot hide in the reference that checks it.

The Wick references expand generating functions and return
{exponents: Fraction}, the exponents in `wickscale.Monomial` field order
(phi, ricci, log, w, delta, lam, c), with no zero coefficient.
"""

import itertools
import math
import operator
from fractions import Fraction


# ---------------------------------------------------------------------------
# groups and 2-cochains

def _inverse(table, a):
    """The b with a b = 1."""
    return table[a].index(0)


def _ad(table, a):
    """The inner automorphism x -> a x a^-1, as a permutation."""
    ai = _inverse(table, a)
    return tuple(table[table[a][x]][ai] for x in range(len(table)))


def automorphisms(table):
    """Every permutation that fixes 0 and keeps the table law, in
    lexicographic order: Aut by brute force over all (n-1)! candidates."""
    n = len(table)
    return [perm for perm in ((0,) + rest for rest in itertools.permutations(range(1, n)))
            if all(perm[table[x][y]] == table[perm[x]][perm[y]]
                   for x in range(n) for y in range(n))]


def cocycle_failure(G, A, xi, perms):
    """The first broken cocycle law as (violation, witness), else None.  The
    pair law phi(g1) . phi(g0) . phi(g1 g0)^-1 == ad(xi(g1, g0)) is read over
    (g1, g0), then the factor-set law
    xi(g2, g1) xi(g2 g1, g0) == phi(g2)(xi(g1, g0)) xi(g2, g1 g0) over
    (g2, g1, g0), each in lexicographic order."""
    n, m = len(G), len(A)
    for g1 in range(n):
        for g0 in range(n):
            back = perms[G[g1][g0]]
            lhs = tuple(perms[g1][perms[g0][back.index(x)]] for x in range(m))
            if lhs != _ad(A, xi[g1][g0]):
                return "automorphism_condition", (g1, g0)
    for g2, g1, g0 in itertools.product(range(n), repeat=3):
        if (A[xi[g2][g1]][xi[G[g2][g1]][g0]]
                != A[perms[g2][xi[g1][g0]]][xi[g2][G[g1][g0]]]):
            return "factor_set_condition", (g2, g1, g0)
    return None


def normalized_cocycles(G, A):
    """Every normalized cocycle (xi, perms), sorted: phi(1) = id and
    xi(1, g) = xi(g, 1) = 1, with the other phi values over Aut(A) and the
    other xi cells over A, each candidate checked in full."""
    n, m = len(G), len(A)
    free = n - 1
    auts = automorphisms(A)
    found = []
    for tail in itertools.product(auts, repeat=free):
        perms = (auts[0],) + tail
        for cells in itertools.product(range(m), repeat=free * free):
            xi = ((0,) * n,) + tuple((0,) + cells[r * free:(r + 1) * free]
                                     for r in range(free))
            if cocycle_failure(G, A, xi, perms) is None:
                found.append((xi, perms))
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
    n = len(G)
    return ((0,) * n,) * n, (tuple(range(len(A))),) * n


def twist(G, A, xi, perms, zeta):
    """(xi, perms) twisted by zeta, one A-index per element of G:
    xi~(g1, g0) = zeta(g1) phi(g1)(zeta(g0)) xi(g1, g0) zeta(g1 g0)^-1 and
    phi~(g) = ad(zeta(g)) . phi(g)."""
    twist_rows, twist_perms = _twist_parts(G, A, xi, perms)
    return tuple(twist_rows(zeta)), twist_perms(zeta)


def _twist_parts(G, A, xi, perms):
    """The halves of `twist` on (xi, perms) as functions of zeta: the rows
    of xi~, yielded one by one, and phi~; ad(a) and a^-1 are computed once
    per a."""
    ads = [_ad(A, a) for a in range(len(A))]
    inverses = [_inverse(A, a) for a in range(len(A))]

    def twist_rows(zeta):
        return (tuple(A[A[A[zeta[g1]][perms[g1][zeta[g0]]]][xi[g1][g0]]][inverses[zeta[g]]]
                      for g0, g in enumerate(G[g1]))
                for g1 in range(len(G)))

    def twist_perms(zeta):
        return tuple(tuple(map(ads[z].__getitem__, p)) for z, p in zip(zeta, perms))
    return twist_rows, twist_perms


def first_twist(G, A, xi, perms, target, normalized):
    """The first zeta in product order that twists (xi, perms) into the
    cochain target, else None; with normalized, only those with
    zeta(1) = 1 are tried.  Each twist is compared on phi, then row by
    row on xi."""
    twist_rows, twist_perms = _twist_parts(G, A, xi, perms)
    values = range(len(A))
    first = (0,) if normalized else values
    return next((zeta for zeta in itertools.product(first, *[values] * (len(G) - 1))
                 if twist_perms(zeta) == target[1]
                 and all(map(operator.eq, twist_rows(zeta), target[0]))), None)


# ---------------------------------------------------------------------------
# Wick powers
#
# A field series is sum_m i^m h^m Phi^m / m!.  Each relation multiplies such
# series by an exponential, and a coefficient is read off after removing the
# i^(total degree) it carries; what is left is an even power of i.

_FIELDS = ("phi", "ricci", "log", "w", "delta", "lam", "c")


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
