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
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, NamedTuple, Optional, Tuple


class JTooLarge(Exception):
    def __init__(self, k: int, l: int, j: int) -> None:
        super().__init__(f"j={j} exceeds min({k},{l})")


class NonPositiveLambda(Exception):
    pass


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

    def contracted(self, j: int) -> "Monomial":
        """This monomial with j field pairs contracted: Phi^-2j W^j."""
        phi, ricci, log, w, delta, lam, c = self
        return Monomial(phi - 2 * j, ricci, log, w + j, delta, lam, c)

    def sort_key(self):
        return (-self.phi, self.ricci, self.log, self.w, self.delta,
                self.lam, self.c)


_FACTORS = (("lam", "lam"), ("c", "c"), ("L", "log"), ("R", "ricci"),
            ("W", "w"), ("D", "delta"), ("Phi", "phi"))
_NAME_TO_FIELD = dict(_FACTORS)


class WickPoly:
    """Immutable polynomial in the commuting symbol monoid above.

    The constructor is where like terms are summed: it takes (monomial,
    coefficient) pairs, adds the coefficients of repeated monomials, drops
    zero sums and sorts.  Every operation hands it its pairs unsummed.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, Fraction] | Iterable = ()) -> None:
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = terms
        acc: Dict[Monomial, Fraction] = {}
        for mono, q in items:
            if type(mono) is not Monomial:
                mono = Monomial(*mono)
            if min(mono.phi, mono.ricci, mono.log, mono.w, mono.delta, mono.c) < 0:
                raise ValueError(f"negative exponent in {mono}")
            if type(q) is not Fraction:
                q = Fraction(q)
            if q:
                acc[mono] = acc.get(mono, Fraction(0)) + q
        object.__setattr__(self, "terms",
                           tuple(sorted(((m, q) for m, q in acc.items() if q),
                                        key=lambda t: t[0].sort_key())))

    # -- constructors -------------------------------------------------------
    @staticmethod
    def zero() -> "WickPoly":
        return WickPoly()

    @staticmethod
    def scalar(q) -> "WickPoly":
        return WickPoly({Monomial(): Fraction(q)})

    @staticmethod
    def symbol(**exps) -> "WickPoly":
        return WickPoly({Monomial(**exps): Fraction(1)})

    @staticmethod
    def phi_power(k: int) -> "WickPoly":
        return WickPoly.symbol(phi=k)

    # -- ring operations ----------------------------------------------------
    def __add__(self, other: "WickPoly") -> "WickPoly":
        return WickPoly(self.terms + other.terms)

    def __sub__(self, other: "WickPoly") -> "WickPoly":
        return self + other.scale(-1)

    def __neg__(self) -> "WickPoly":
        return self.scale(-1)

    def scale(self, q) -> "WickPoly":
        q = Fraction(q)
        return WickPoly({m: c * q for m, c in self.terms})

    def __mul__(self, other: "WickPoly") -> "WickPoly":
        return WickPoly((m1.times(m2), q1 * q2)
                        for m1, q1 in self.terms for m2, q2 in other.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, WickPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def set_symbol(self, name: str, value: Fraction) -> "WickPoly":
        """Substitute a numeric value for one of the commuting symbols."""
        field, value = _NAME_TO_FIELD[name], Fraction(value)
        return WickPoly((m._replace(**{field: 0}), q * value ** getattr(m, field))
                        for m, q in self.terms)

    # -- text form -----------------------------------------------------------
    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for m, q in self.terms:
            fs = [str(q)]
            for sym, field in _FACTORS:
                e = getattr(m, field)
                if e != 0:
                    fs.append(f"{sym}^{e}")
            parts.append("*".join(fs))
        return " + ".join(parts)

    __repr__ = __str__


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
        try:
            q = Fraction(m.group(1))
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

def contraction_coeff(k: int, l: int, j: int) -> int:
    """Number of j-fold contractions between a k-fold and an l-fold power."""
    if j > min(k, l):
        raise JTooLarge(k, l, j)
    return math.factorial(j) * math.comb(k, j) * math.comb(l, j)


def wick_product(p: WickPoly, q: WickPoly) -> WickPoly:
    """Star product: bilinear extension of the contraction expansion."""
    def terms():
        for m1, q1 in p.terms:
            for m2, q2 in q.terms:
                m12, q12 = m1.times(m2), q1 * q2
                for j in range(min(m1.phi, m2.phi) + 1):
                    yield (m12.contracted(j),
                           q12 * contraction_coeff(m1.phi, m2.phi, j))
    return WickPoly(terms())


# ---------------------------------------------------------------------------
# change of Wick ordering

def change_of_ordering(p: WickPoly, delta: WickPoly) -> WickPoly:
    """Rewrite powers ordered against K in the basis ordered against K+delta.

    delta must be a field-free kernel shift (no Phi, no W gradings).
    Round-trips with -delta to the identity.
    """
    for m, _ in delta.terms:
        if m.phi or m.w:
            raise ValueError("kernel shift must not carry Phi or W gradings")
    powers = [WickPoly.scalar(1)]  # delta^j, each built once per call
    out = WickPoly.zero()
    for m, q in p.terms:
        k = m.phi
        while len(powers) <= k // 2:
            powers.append(powers[-1] * delta)
        out = out + WickPoly(
            (m.times(dm)._replace(phi=k - 2 * j),
             q * dq * Fraction(math.factorial(k),
                               math.factorial(j) * math.factorial(k - 2 * j) * 2 ** j))
            for j in range(k // 2 + 1) for dm, dq in powers[j].terms)
    return out


# ---------------------------------------------------------------------------
# scaling

def scale_wick_power(k: int) -> WickPoly:
    """The scaled Wick power lam*Phi^k in closed form,

        lam^k sum_j k!/(j!(k-2j)!) c^j L^j R^j Phi^(k-2j).

    `ordering_route` derives it from the ordering shift instead; the
    scale-power verdict compares the two.
    """
    if k < 1:
        raise ValueError("field power must be >= 1")
    return WickPoly({
        Monomial(phi=k - 2 * j, ricci=j, log=j, lam=k, c=j):
        Fraction(math.factorial(k), math.factorial(j) * math.factorial(k - 2 * j))
        for j in range(k // 2 + 1)})


def ordering_route(k: int) -> WickPoly:
    """lam*Phi^k composed from the scale weights and the ordering shift
    D = 2 c L R: Phi^k rewritten against K + D, times lam^k."""
    shift = WickPoly.symbol(c=1, log=1, ricci=1).scale(2)
    # lam^1 net per smeared field factor: field weight -3, test weight -4
    return change_of_ordering(WickPoly.phi_power(k), shift) * WickPoly.symbol(lam=k)


def coupling_constant_value(xi: Fraction) -> Fraction:
    """The coupling symbol c as an exact rational multiple of 1/pi^2."""
    return (6 * Fraction(xi) - 1) / 96


# ---------------------------------------------------------------------------
# the rigid-scaling gauge group Z2 |x R and its scaling automorphisms

@dataclass(frozen=True)
class GaugeElement:
    sigma: int           # +1 or -1
    mu: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if self.sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1")
        object.__setattr__(self, "mu", Fraction(self.mu))


def gauge_mul(a: GaugeElement, b: GaugeElement) -> GaugeElement:
    return GaugeElement(a.sigma * b.sigma, a.mu * b.sigma + b.mu)


def gauge_inv(a: GaugeElement) -> GaugeElement:
    return GaugeElement(a.sigma, -a.sigma * a.mu)


def gauge_ad(a: GaugeElement, x: GaugeElement) -> GaugeElement:
    return gauge_mul(gauge_mul(a, x), gauge_inv(a))


def gauge_scaling_action(lam: Fraction, el: GaugeElement,
                         xi_nonzero: bool = False) -> GaugeElement:
    """The scaling automorphism (sigma, mu) -> (sigma, mu/lam).

    With xi_nonzero the gauge group is just Z2 (mu must vanish).  That the
    map is an automorphism is checked in the tests.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise NonPositiveLambda(f"lambda must be positive, got {lam}")
    if xi_nonzero and el.mu != 0:
        raise ValueError("mu must vanish when the coupling is nonzero")
    return GaugeElement(el.sigma, el.mu / lam)


@dataclass(frozen=True)
class ScalingCocycleCertificate:
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
