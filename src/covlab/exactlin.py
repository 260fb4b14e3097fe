"""Exact linear algebra over the Gaussian rationals Q(i).

A Gaussian rational is held as three Python integers, (a + b*i)/d, kept
reduced: d > 0 and gcd(a, b, d) = 1.  Each number then has exactly one
triple, so equality and hashing compare the triples, and the arithmetic
runs on integers alone (the gcd is skipped when d = 1, as it is for most
entries).  `re` and `im` give the two parts as `Fraction`s.

Everything here is exact; there is no floating point and no tolerance.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import List, Sequence, Tuple, Union

Rat = Union[int, Fraction]

_new = object.__new__


def _gauss(a: int, b: int, d: int) -> "GaussRat":
    """The reduced GaussRat (a + b*i)/d, for integers a, b and d > 0 (every
    caller's d is a product of denominators and norms, all positive)."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    z = _new(GaussRat)
    z.a, z.b, z.d = a, b, d
    return z


class GaussRat:
    """re + im*i, stored reduced as (a + b*i)/d; treated as immutable."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re: Rat = 0, im: Rat = 0) -> None:
        if type(re) is int and type(im) is int:
            self.a, self.b, self.d = re, im, 1
            return
        for x in (re, im):
            # Fraction would take a float or a bool silently (0.1 as
            # 3602879701896397/36028797018963968, True as 1)
            if type(x) is not int and type(x) is not Fraction:
                raise TypeError(f"expected an int or a Fraction, got {type(x).__name__} {x!r}")
        re, im = Fraction(re), Fraction(im)
        p, q = re.denominator, im.denominator
        # d = lcm(p, q) leaves the triple reduced: a prime r of d divides p
        # (say) as often as d, so r divides neither d // p nor re's numerator
        d = p * q // gcd(p, q)
        self.a, self.b, self.d = re.numerator * (d // p), im.numerator * (d // q), d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    @staticmethod
    def of(x) -> "GaussRat":
        if type(x) is GaussRat:
            return x
        if type(x) is int:
            return _gauss(x, 0, 1)
        return GaussRat(x)

    def __add__(self, o) -> "GaussRat":
        o = GaussRat.of(o)
        return _gauss(self.a * o.d + o.a * self.d, self.b * o.d + o.b * self.d,
                      self.d * o.d)

    def __sub__(self, o) -> "GaussRat":
        o = GaussRat.of(o)
        return _gauss(self.a * o.d - o.a * self.d, self.b * o.d - o.b * self.d,
                      self.d * o.d)

    def __neg__(self) -> "GaussRat":
        return _gauss(-self.a, -self.b, self.d)

    def __mul__(self, o) -> "GaussRat":
        o = GaussRat.of(o)
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        return _gauss(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * o.d)

    def __truediv__(self, o) -> "GaussRat":
        o = GaussRat.of(o)
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        n = a2 * a2 + b2 * b2
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _gauss(o.d * (a1 * a2 + b1 * b2), o.d * (b1 * a2 - a1 * b2),
                      self.d * n)

    __radd__ = __add__
    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GaussRat":
        if n < 0:
            return (ONE / self) ** (-n)
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, o) -> bool:
        if type(o) is not GaussRat:
            return NotImplemented
        return self.a == o.a and self.b == o.b and self.d == o.d

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.d))

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __repr__(self) -> str:
        return f"GaussRat(re={self.re!r}, im={self.im!r})"

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return f"{im}i"
        sign = "+" if im > 0 else "-"
        return f"{re}{sign}{abs(im)}i"


ZERO = GaussRat(0)
ONE = GaussRat(1)
I = GaussRat(0, 1)


def _dot(xs: Sequence[GaussRat], ys: Sequence[GaussRat]) -> GaussRat:
    """sum(x * y), accumulated as one integer triple and reduced once."""
    re = im = 0
    den = 1
    for x, y in zip(xs, ys):
        a1, b1, a2, b2 = x.a, x.b, y.a, y.b
        if (a1 or b1) and (a2 or b2):
            p, q, d = a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, x.d * y.d
            if d == den:
                re, im = re + p, im + q
            else:
                re, im, den = re * d + p * den, im * d + q * den, den * d
    return _gauss(re, im, den)


def _mat(rows: Tuple[Tuple[GaussRat, ...], ...]) -> "Mat":
    """A Mat on rows that are already tuples of GaussRat."""
    m = _new(Mat)
    m.rows = rows
    return m


class Mat:
    """Immutable exact matrix."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]) -> None:
        self.rows = tuple(tuple(GaussRat.of(v) for v in r) for r in rows)
        if len({len(r) for r in self.rows}) > 1:
            raise ValueError("ragged matrix")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    def __getitem__(self, ij: Tuple[int, int]) -> GaussRat:
        return self.rows[ij[0]][ij[1]]

    def __eq__(self, other) -> bool:
        return isinstance(other, Mat) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(v) for v in r) for r in self.rows)
        return f"Mat[{body}]"

    @staticmethod
    def identity(n: int) -> "Mat":
        return _mat(tuple(tuple(ONE if i == j else ZERO for j in range(n))
                          for i in range(n)))

    def __mul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        cols = tuple(zip(*other.rows))
        return _mat(tuple(tuple(_dot(row, col) for col in cols)
                          for row in self.rows))

    def __add__(self, other: "Mat") -> "Mat":
        return _mat(tuple(tuple(a + b for a, b in zip(r1, r2))
                          for r1, r2 in zip(self.rows, other.rows)))

    def __sub__(self, other: "Mat") -> "Mat":
        return _mat(tuple(tuple(a - b for a, b in zip(r1, r2))
                          for r1, r2 in zip(self.rows, other.rows)))

    def __neg__(self) -> "Mat":
        return _mat(tuple(tuple(-v for v in r) for r in self.rows))

    def scale(self, s) -> "Mat":
        s = GaussRat.of(s)
        return _mat(tuple(tuple(s * v for v in r) for r in self.rows))

    def is_zero(self) -> bool:
        return all(v.is_zero() for r in self.rows for v in r)

    def det(self) -> GaussRat:
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        _, pivots, product = rref(self.rows)
        return product if len(pivots) == self.nrows else ZERO

    def inverse(self) -> "Mat":
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        a, pivots, _ = rref([list(r) + [ONE if i == j else ZERO for j in range(n)]
                             for i, r in enumerate(self.rows)])
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return _mat(tuple(tuple(row[n:]) for row in a))


def rref(rows: Sequence[Sequence[GaussRat]]
         ) -> Tuple[List[List[GaussRat]], List[int], GaussRat]:
    """Reduced row echelon form (in place on a copy) with pivot columns, and
    the product of the pivots, negated once per row swap.  Scaling a pivot
    row to 1 divides the determinant by its pivot, and a swap negates it,
    so on a square matrix whose every column is a pivot the product is the
    determinant."""
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    pivots = []
    product = ONE
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if not a[i][c].is_zero()), None)
        if piv is None:
            continue
        if piv != r:
            a[r], a[piv] = a[piv], a[r]
            product = -product
        product = product * a[r][c]
        inv = ONE / a[r][c]
        a[r] = [x * inv for x in a[r]]
        for i in range(nr):
            if i != r and not a[i][c].is_zero():
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return a, pivots, product


def null_space(rows: List[List[GaussRat]], ncols: int) -> List[Tuple[GaussRat, ...]]:
    """Deterministic echelon basis of the right null space."""
    if not rows:
        return [tuple(ONE if j == k else ZERO for j in range(ncols))
                for k in range(ncols)]
    a, pivots, _ = rref(rows)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [ZERO] * ncols
        vec[f] = ONE
        for r, c in enumerate(pivots):
            vec[c] = -a[r][f]
        basis.append(tuple(vec))
    return basis
