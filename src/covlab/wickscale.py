"""Single-point Wick calculus: star products, reordering, and the scaling law.

Everything is a WickPoly: a finite sum of monomials

    q * lam^a * c^b * L^m * R^j * W^w * D^d * Phi^k

with exact rational q.  Symbols: Phi (the field), R (curvature scalar
multiplier), L (the logarithm of the squared scale factor), W (the two-point
contraction kernel at a point), D (a generic kernel shift), lam (the scale
factor), c (the curvature-coupling constant, an atomic symbol standing for
(6*xi - 1)/(96*pi^2)).  All symbols commute; no numeric logarithms anywhere.

The star product of field powers is

    Phi^k * Phi^l = sum_j  j! C(k,j) C(l,j)  W^j  Phi^(k+l-2j)

and rewriting a power ordered against a kernel K in the basis ordered
against K + D is

    Phi^k_K = sum_j  k! / (j! (k-2j)! 2^j)  D^j  Phi^(k-2j)_{K+D},

the sign fixed by the generating identity  H_K[h] = H_{K+D}[h] e^{-D h^2/2}
(the i^2 from the field series cancels the minus).  The almost-homogeneous
scaling of a Wick power composes the scale weights with the ordering shift
D = 2 c L R, which collapses the 2^j and yields

    lam*Phi^k = lam^k sum_j  k!/(j!(k-2j)!)  c^j L^j R^j Phi^(k-2j).
"""

from __future__ import annotations

import math
import operator
import re
from fractions import Fraction
from functools import lru_cache
from typing import Dict, Iterable, NamedTuple, Optional, Tuple


class Monomial(NamedTuple):
    phi: int = 0
    ricci: int = 0
    log: int = 0
    w: int = 0
    delta: int = 0
    lam: int = 0  # may be negative
    c: int = 0

    def times(self, other: "Monomial") -> "Monomial":
        return Monomial._make(map(operator.add, self, other))


_FACTORS = (("lam", "lam"), ("c", "c"), ("L", "log"), ("R", "ricci"),
            ("W", "w"), ("D", "delta"), ("Phi", "phi"))
_NAME_TO_FIELD = dict(_FACTORS)
_PRINTED = tuple((f"*{sym}^", Monomial._fields.index(field)) for sym, field in _FACTORS)


class WickPoly:
    """Immutable polynomial in the commuting symbol monoid above: one
    denominator `den` > 0 and `nums`, the sorted (monomial, integer numerator)
    pairs, none zero, with gcd(den, *nums) = 1, so equal polys have equal
    forms.  The constructor is where like terms are summed: it takes unsummed
    (monomial, coefficient) pairs over `den` and sums them on integers, over
    the lcm of the denominators of any Fractions among them.  A coefficient
    is an int or a Fraction, anything else a TypeError.  `den` is a nonzero
    int: 0 is a ValueError, anything else (a bool included) a TypeError.
    `terms` is the (monomial, Fraction) view, built on first read.
    """

    __slots__ = ("den", "nums", "_terms")

    def __init__(self, terms: Dict[Monomial, Fraction] | Iterable = (),
                 den: int = 1) -> None:
        if type(den) is not int:
            raise TypeError(f"den must be an int, got {type(den).__name__} {den!r}")
        if not den:
            raise ValueError("den must be nonzero")
        acc, lift = {}, 1  # every sum in acc is over den * lift
        for mono, n in terms.items() if isinstance(terms, dict) else terms:
            if type(mono) is not Monomial:
                mono = _monomial(Monomial(*mono))
            if type(n) is not int:
                b = _rational(n).denominator
                if lift % b:
                    step = b // math.gcd(lift, b)
                    lift *= step
                    acc = {m: v * step for m, v in acc.items()}
                n = n.numerator * (lift // b)
            elif lift != 1:
                n *= lift
            acc[mono] = acc[mono] + n if mono in acc else n
        for m in acc:  # zero sums too; only lam may be negative
            if min(m) < 0 and min(m.phi, m.ricci, m.log, m.w, m.delta, m.c) < 0:
                raise ValueError(f"negative exponent in {m}")
        # Phi powers falling, then the order of the monomial tuples
        nums = sorted([t for t in acc.items() if t[1]], key=lambda t: (-t[0].phi, t[0]))
        den *= lift
        g = math.gcd(den, *[n for _, n in nums]) * (1 if den > 0 else -1)
        self.den = den // g
        self.nums = tuple([(m, n // g) for m, n in nums] if g != 1 else nums)
        self._terms = None

    @property
    def terms(self) -> Tuple[Tuple[Monomial, Fraction], ...]:
        if self._terms is None:
            self._terms = tuple((m, Fraction(n, self.den)) for m, n in self.nums)
        return self._terms

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero() -> "WickPoly":
        return WickPoly()

    @staticmethod
    def scalar(q) -> "WickPoly":
        return WickPoly({Monomial(): q})

    @staticmethod
    def symbol(**exps) -> "WickPoly":
        return WickPoly({_monomial(Monomial(**exps)): 1})

    @staticmethod
    def phi_power(k: int) -> "WickPoly":
        return WickPoly.symbol(phi=k)

    # -- ring operations ----------------------------------------------------
    def __add__(self, other: "WickPoly") -> "WickPoly":
        g = math.gcd(self.den, other.den)
        a, b = other.den // g, self.den // g
        return WickPoly([(m, n * a) for m, n in self.nums]
                        + [(m, n * b) for m, n in other.nums], self.den * a)

    def __sub__(self, other: "WickPoly") -> "WickPoly":
        return self + other.scale(-1)

    def __neg__(self) -> "WickPoly":
        return self.scale(-1)

    def scale(self, q) -> "WickPoly":
        q = _rational(q)
        return WickPoly(((m, n * q.numerator) for m, n in self.nums),
                        self.den * q.denominator)

    def __mul__(self, other: "WickPoly") -> "WickPoly":
        return WickPoly(((m1.times(m2), n1 * n2) for m1, n1 in self.nums
                         for m2, n2 in other.nums), self.den * other.den)

    def is_zero(self) -> bool:
        return not self.nums

    def __eq__(self, other) -> bool:
        return (isinstance(other, WickPoly) and self.den == other.den
                and self.nums == other.nums)

    def __hash__(self) -> int:
        return hash((self.den, self.nums))

    def set_symbol(self, name: str, value: Fraction) -> "WickPoly":
        """Substitute a numeric value for one of the commuting symbols.

        With value a/b and the symbol's exponents e in [lo, hi] (lo <= 0 <=
        hi), the term's factor (a/b)^e is a^(e-lo) b^(hi-e) over a^-lo b^hi.
        """
        field, value = _NAME_TO_FIELD[name], _rational(value)
        exps = [getattr(m, field) for m, _ in self.nums]
        lo, hi = min(exps + [0]), max(exps + [0])
        a, b = value.numerator, value.denominator
        if lo < 0 and a == 0:
            raise ValueError(f"cannot set {name} to 0 in a term with {name}^{lo}")
        return WickPoly(((m._replace(**{field: 0}), n * a ** (e - lo) * b ** (hi - e))
                         for (m, n), e in zip(self.nums, exps)),
                        self.den * a ** -lo * b ** hi)

    # -- text form -----------------------------------------------------------
    def __str__(self) -> str:
        d, parts = self.den, []
        for m, n in self.nums:
            g = math.gcd(n, d)  # each coefficient as Fraction prints it
            parts.append(f" + {n // g}" if g == d else f" + {n // g}/{d // g}")
            for factor, i in _PRINTED:
                if m[i]:
                    parts += factor, str(m[i])
        return "".join(parts)[3:] or "0"

    __repr__ = __str__


def _monomial(mono: Monomial) -> Monomial:
    """mono itself if every exponent is an int; a float or a bool would
    print as one (Phi^1.5, lam^True), so it is refused.  The kernels build
    their monomials from ints and do not come through here."""
    if any(type(e) is not int for e in mono):
        raise TypeError(f"exponents must be ints, got {mono}")
    return mono


def _rational(q):
    """q itself if it is an int or a Fraction; a float, a bool or anything
    else would be coerced silently, so it is refused."""
    if type(q) is not int and type(q) is not Fraction:
        raise TypeError(f"expected an int or a Fraction, got {type(q).__name__} {q!r}")
    return q


_TERM_RE = re.compile(r"^(-?\d+(?:/\d+)?)((?:\*[A-Za-z]+\^-?\d+)*)$")
_FACTOR_RE = re.compile(r"\*([A-Za-z]+)\^(-?\d+)")


def parse_wickpoly(text: str) -> WickPoly:
    """Parse the canonical text form; str(parse(s)) round-trips canonically."""
    terms = []
    for chunk in text.split("+"):
        chunk = chunk.strip().replace(" ", "")
        m = _TERM_RE.match(chunk)
        if not m:
            raise ValueError(f"cannot parse term {chunk!r}")
        num, _, den = m.group(1).partition("/")
        try:
            q = Fraction(int(num), int(den or 1))
        except ZeroDivisionError:
            raise ValueError(f"zero denominator in term {chunk!r}") from None
        exps = {}
        for name, e in _FACTOR_RE.findall(m.group(2)):
            if name not in _NAME_TO_FIELD:
                raise ValueError(f"unknown symbol {name!r}")
            field = _NAME_TO_FIELD[name]
            exps[field] = exps.get(field, 0) + int(e)
        terms.append((Monomial(**exps), q))
    return WickPoly(terms)


# ---------------------------------------------------------------------------
# the star product

@lru_cache(maxsize=256)
def _contraction_row(k: int, l: int) -> tuple:
    """j! C(k,j) C(l,j) for j = 0..min(k,l), each entry from the one before:
    the next is (k-j)(l-j)/(j+1) times it, an exact integer division."""
    row = [1]
    for j in range(min(k, l)):
        row.append(row[-1] * (k - j) * (l - j) // (j + 1))
    return tuple(row)


def wick_product(p: WickPoly, q: WickPoly) -> WickPoly:
    """Star product: bilinear extension of the contraction expansion."""
    def terms():
        for m1, n1 in p.nums:
            for m2, n2 in q.nums:
                # m1 m2 with j field pairs contracted: Phi^-2j W^j
                phi, ricci, log, w, delta, lam, c = map(operator.add, m1, m2)
                n12 = n1 * n2
                for j, count in enumerate(_contraction_row(m1.phi, m2.phi)):
                    yield (tuple.__new__(Monomial, (phi - 2 * j, ricci, log, w + j,
                                                    delta, lam, c)), n12 * count)
    return WickPoly(terms(), p.den * q.den)


# ---------------------------------------------------------------------------
# change of Wick ordering

def _matching_row(k: int) -> list:
    """k!/(j!(k-2j)! 2^j), the number of j-edge matchings of k points, for
    j = 0..k//2; the next entry is (k-2j)(k-2j-1)/(2(j+1)) times the last."""
    row = [1]
    for j in range(k // 2):
        row.append(row[-1] * (k - 2 * j) * (k - 2 * j - 1) // (2 * (j + 1)))
    return row


def change_of_ordering(p: WickPoly, delta: WickPoly) -> WickPoly:
    """Rewrite powers ordered against K in the basis ordered against K+delta.

    delta must be a field-free kernel shift (no Phi, no W gradings).
    Round-trips with -delta to the identity.
    """
    for m, _ in delta.nums:
        if m.phi or m.w:
            raise ValueError("kernel shift must not carry Phi or W gradings")
    # delta = shift/dd, shift integral, so a term's delta^j is shift^j *
    # dd^(h-j) over dd^h, h = k//2 its largest j, with j field pairs spent
    dd = delta.den
    shift, power = WickPoly(delta.nums), WickPoly.scalar(1)
    powers = [power.nums]  # shift^j as integer terms (den 1), each built once
    out = WickPoly.zero()
    for m, n in p.nums:
        k, h = m.phi, m.phi // 2
        while len(powers) <= h:
            power = power * shift
            powers.append(power.nums)
        _, r, lg, w, d, lam, c = m
        out = out + WickPoly(
            ((tuple.__new__(Monomial, (k - 2 * j, r + r2, lg + lg2, w, d + d2, lam + lam2,
                                       c + c2)), n * n2 * count * dd ** (h - j))
             for j, count in enumerate(_matching_row(k))
             for (_, r2, lg2, _, d2, lam2, c2), n2 in powers[j]),
            p.den * dd ** h)
    return out


# ---------------------------------------------------------------------------
# scaling

def scale_wick_power(k: int) -> WickPoly:
    """The scaled Wick power lam*Phi^k in closed form,

        lam^k sum_j k!/(j!(k-2j)!) c^j L^j R^j Phi^(k-2j),

    each coefficient the matching number k!/(j!(k-2j)! 2^j) times 2^j.
    `ordering_route` derives it from the ordering shift instead; the
    scale-power verdict compares the two.
    """
    if k < 1:
        raise ValueError("field power must be >= 1")
    return WickPoly({Monomial(phi=k - 2 * j, ricci=j, log=j, lam=k, c=j): count << j
                     for j, count in enumerate(_matching_row(k))})


def ordering_route(k: int) -> WickPoly:
    """lam*Phi^k composed from the scale weights and the ordering shift
    D = 2 c L R: Phi^k rewritten against K + D, times lam^k."""
    shift = WickPoly.symbol(c=1, log=1, ricci=1).scale(2)
    # lam^1 net per smeared field factor: field weight -3, test weight -4
    return change_of_ordering(WickPoly.phi_power(k), shift) * WickPoly.symbol(lam=k)


class ScalingMultiplet(NamedTuple):
    """Action of a sample scale factor on span{R^j Phi^(k-2j)}.

    Entries are exact polynomials in the coupling symbol c and the log
    symbol L; the sample lam enters numerically.
    """

    k: int
    lam: Fraction
    matrix: Tuple[Tuple[WickPoly, ...], ...]
    verdict: str  # "diagonal" or "reducible-indecomposable"

    @property
    def dim(self) -> int:
        return self.k // 2 + 1


def scaling_multiplet(k: int, coupling: str = "generic",
                      lam: Fraction = Fraction(2)) -> ScalingMultiplet:
    """Generator matrix of the scale action on the Wick-power multiplet.

    coupling is "generic" (c symbolic and nonzero) or "conformal" (c = 0).
    The verdict reads off the structure: for k >= 2 at nonzero c the matrix
    has the single eigenvalue lam^k with a full nilpotent chain (no invariant
    complement); at conformal coupling or k = 1 it is diagonal.  The tests
    check the nilpotent structure.  Entry (i, j) is lam^k times
    (k-2j)!/((i-j)! (k-2i)!), the matching number
    `_matching_row(k - 2j)[i - j]` times 2^(i-j), as in `scale_wick_power`.
    lam must be an int or a Fraction (`_rational`).
    """
    if k < 1:
        raise ValueError("field power must be >= 1")
    if coupling not in ("generic", "conformal"):
        raise ValueError(f"unknown coupling {coupling!r}")
    lam = Fraction(_rational(lam))
    if lam <= 0 or lam == 1:
        raise ValueError("sample scale factor must be positive and != 1")
    dim = k // 2 + 1
    entries = [[WickPoly.zero()] * dim for _ in range(dim)]
    for j in range(dim):
        counts = _matching_row(k - 2 * j)
        # at conformal coupling (c = 0) only the diagonal survives
        for i in range(j, j + 1 if coupling == "conformal" else dim):
            step = i - j
            entries[i][j] = WickPoly({Monomial(log=step, c=step):
                                      (counts[step] << step) * lam ** k})
    matrix = tuple(tuple(row) for row in entries)
    verdict = ("diagonal" if coupling == "conformal" or k == 1
               else "reducible-indecomposable")
    return ScalingMultiplet(k, lam, matrix, verdict)


# ---------------------------------------------------------------------------
# the rigid-scaling gauge group Z2 |x R and its scaling automorphisms

class GaugeElement:
    """(sigma, mu) with sigma the int +1 or -1 and mu rational, kept as a
    Fraction; equal by value."""

    def __init__(self, sigma: int, mu: Fraction = Fraction(0)) -> None:
        if type(sigma) is not int:
            raise TypeError(f"sigma must be the int +1 or -1, got "
                            f"{type(sigma).__name__} {sigma!r}")
        if sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1")
        self.sigma = sigma
        self.mu = Fraction(_rational(mu))

    def __eq__(self, other) -> bool:
        return isinstance(other, GaugeElement) and (self.sigma, self.mu) == (other.sigma, other.mu)

    def __repr__(self) -> str:
        return f"GaugeElement(sigma={self.sigma!r}, mu={self.mu!r})"


def gauge_mul(a: GaugeElement, b: GaugeElement) -> GaugeElement:
    return GaugeElement(a.sigma * b.sigma, a.mu * b.sigma + b.mu)


def gauge_inv(a: GaugeElement) -> GaugeElement:
    return GaugeElement(a.sigma, -a.sigma * a.mu)


def gauge_ad(a: GaugeElement, x: GaugeElement) -> GaugeElement:
    return gauge_mul(gauge_mul(a, x), gauge_inv(a))


def gauge_scaling_action(lam: Fraction, el: GaugeElement) -> GaugeElement:
    """The scaling automorphism (sigma, mu) -> (sigma, mu/lam).  That the
    map is an automorphism is checked in the tests."""
    lam = Fraction(_rational(lam))
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    return GaugeElement(el.sigma, el.mu / lam)


class ScalingCocycleCertificate(NamedTuple):
    nontrivial: bool
    lam: Optional[Fraction] = None
    element: Optional[GaugeElement] = None
    reachable_mus: Optional[Tuple[Fraction, ...]] = None
    required_mu: Optional[Fraction] = None
    reason: str = ""


def scaling_cocycle_nontrivial(xi_nonzero: bool = False) -> ScalingCocycleCertificate:
    """Certificate that no inner twist realizes the scaling action.

    Inner automorphisms move (1, mu) to (1, sigma'*mu), so mu is only ever
    flipped in sign, whereas the scaling automorphism sends mu to mu/lam.
    At lam = 2 and element (1, 1) the required value 1/2 is unreachable.
    With nonzero coupling the gauge group is Z2 and the restriction of the
    scaling action is the identity, hence trivial.
    """
    if xi_nonzero:
        return ScalingCocycleCertificate(
            nontrivial=False,
            reason="gauge group is Z2 and the scaling action restricts to the "
                   "identity; the cocycle is trivial",
        )
    lam = Fraction(2)
    el = GaugeElement(1, Fraction(1))
    reachable = [gauge_ad(GaugeElement(sigma, Fraction(5, 3)), el).mu
                 for sigma in (1, -1)]
    required = gauge_scaling_action(lam, el).mu
    return ScalingCocycleCertificate(
        nontrivial=required not in reachable, lam=lam, element=el,
        reachable_mus=tuple(sorted(reachable)), required_mu=required,
        reason="inner automorphisms act on the mu-line only by a sign, "
               "but scaling divides mu by lambda",
    )
