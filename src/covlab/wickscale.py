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
    zero sums and sorts.  Every operation hands it its pairs unsummed: the
    kernels hand over integer numerators over one common denominator `den`,
    so the sums run on integers and each surviving term gets one Fraction.
    A coefficient is an int or a Fraction; anything else is a TypeError.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Monomial, Fraction] | Iterable = (),
                 den: int = 1) -> None:
        if isinstance(terms, dict):
            items = terms.items()
        else:
            items = terms
        acc: Dict[Monomial, int | Fraction] = {}
        for mono, n in items:
            if type(mono) is not Monomial:
                mono = _monomial(Monomial(*mono))
            if min(mono.phi, mono.ricci, mono.log, mono.w, mono.delta, mono.c) < 0:
                raise ValueError(f"negative exponent in {mono}")
            if type(n) is not int:
                _rational(n)
            if n:
                # a first Fraction is kept as given (0 + q would build two more)
                acc[mono] = acc[mono] + n if mono in acc else n
        # a Fraction sum over den = 1 is already the coefficient
        object.__setattr__(self, "terms", tuple(sorted(
            ((m, n if den == 1 and type(n) is Fraction else Fraction(n, den))
             for m, n in acc.items() if n),
            key=lambda t: t[0].sort_key())))

    def _numerators(self) -> Tuple[int, list]:
        """(d, [(monomial, n), ...]): each coefficient as an integer
        numerator n over d, the lcm of the denominators."""
        d = math.lcm(*(q.denominator for _, q in self.terms))
        return d, [(m, q.numerator * (d // q.denominator)) for m, q in self.terms]

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
        return WickPoly(self.terms + other.terms)

    def __sub__(self, other: "WickPoly") -> "WickPoly":
        return self + other.scale(-1)

    def __neg__(self) -> "WickPoly":
        return self.scale(-1)

    def scale(self, q) -> "WickPoly":
        q = _rational(q)
        d, terms = self._numerators()
        return WickPoly(((m, n * q.numerator) for m, n in terms), d * q.denominator)

    def __mul__(self, other: "WickPoly") -> "WickPoly":
        d1, terms1 = self._numerators()
        d2, terms2 = other._numerators()
        return WickPoly(((m1.times(m2), n1 * n2)
                         for m1, n1 in terms1 for m2, n2 in terms2), d1 * d2)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return isinstance(other, WickPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(self.terms)

    def set_symbol(self, name: str, value: Fraction) -> "WickPoly":
        """Substitute a numeric value for one of the commuting symbols.

        With value a/b and the symbol's exponents e in [lo, hi] (lo <= 0 <=
        hi), the term's factor (a/b)^e is a^(e-lo) b^(hi-e) over a^-lo b^hi.
        """
        field, value = _NAME_TO_FIELD[name], _rational(value)
        d, terms = self._numerators()
        exps = [getattr(m, field) for m, _ in terms]
        lo, hi = min(exps + [0]), max(exps + [0])
        a, b = value.numerator, value.denominator
        if lo < 0 and a == 0:
            raise ValueError(f"cannot set {name} to 0 in a term with {name}^{lo}")
        return WickPoly(((m._replace(**{field: 0}), n * a ** (e - lo) * b ** (hi - e))
                         for (m, n), e in zip(terms, exps)), d * a ** -lo * b ** hi)

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

def _contraction_row(k: int, l: int) -> list:
    """j! C(k,j) C(l,j) for j = 0..min(k,l), each entry from the one before:
    the next is (k-j)(l-j)/(j+1) times it, an exact integer division."""
    row = [1]
    for j in range(min(k, l)):
        row.append(row[-1] * (k - j) * (l - j) // (j + 1))
    return row


def contraction_coeff(k: int, l: int, j: int) -> int:
    """Number of j-fold contractions between a k-fold and an l-fold power."""
    if j > min(k, l):
        raise ValueError(f"j={j} exceeds min({k},{l})")
    if j < 0:
        raise ValueError(f"j={j} is negative")
    return _contraction_row(k, l)[j]


def wick_product(p: WickPoly, q: WickPoly) -> WickPoly:
    """Star product: bilinear extension of the contraction expansion."""
    dp, p_terms = p._numerators()
    dq, q_terms = q._numerators()

    def terms():
        for m1, n1 in p_terms:
            for m2, n2 in q_terms:
                m12, n12 = m1.times(m2), n1 * n2
                for j, count in enumerate(_contraction_row(m1.phi, m2.phi)):
                    yield m12.contracted(j), n12 * count
    return WickPoly(terms(), dp * dq)


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
    for m, _ in delta.terms:
        if m.phi or m.w:
            raise ValueError("kernel shift must not carry Phi or W gradings")
    # delta = shift/dd with integer coefficients in shift, so a term's
    # delta^j is shift^j * dd^(h-j) over dd^h, h = k//2 its largest j
    dd, shift_terms = delta._numerators()
    shift, power = WickPoly(shift_terms), WickPoly.scalar(1)
    powers = [power._numerators()[1]]  # shift^j as integer terms, each built once
    dp, p_terms = p._numerators()
    out = WickPoly.zero()
    for m, n in p_terms:
        k, h = m.phi, m.phi // 2
        while len(powers) <= h:
            power = power * shift
            powers.append(power._numerators()[1])
        out = out + WickPoly(
            ((m.times(dm)._replace(phi=k - 2 * j), n * dn * count * dd ** (h - j))
             for j, count in enumerate(_matching_row(k)) for dm, dn in powers[j]),
            dp * dd ** h)
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


@dataclass(frozen=True)
class ScalingMultiplet:
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


def coupling_constant_value(xi: Fraction) -> Fraction:
    """The coupling symbol c as an exact rational multiple of 1/pi^2; xi
    must be an int or a Fraction (`_rational`)."""
    return (6 * Fraction(_rational(xi)) - 1) / 96


# ---------------------------------------------------------------------------
# the rigid-scaling gauge group Z2 |x R and its scaling automorphisms

@dataclass(frozen=True)
class GaugeElement:
    sigma: int           # +1 or -1
    mu: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        if type(self.sigma) is not int:
            raise TypeError(f"sigma must be the int +1 or -1, got "
                            f"{type(self.sigma).__name__} {self.sigma!r}")
        if self.sigma not in (1, -1):
            raise ValueError("sigma must be +1 or -1")
        object.__setattr__(self, "mu", Fraction(_rational(self.mu)))


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
    lam = Fraction(_rational(lam))
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
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
