"""Exact linear algebra over Gaussian rationals (a + b*i with a, b rational).

Everything here is exact; there is no floating point and no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple, Union

Rat = Union[int, Fraction]


@dataclass(frozen=True)
class GaussRat:
    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def of(x) -> "GaussRat":
        if isinstance(x, GaussRat):
            return x
        return GaussRat(Fraction(x))

    def __add__(self, o) -> "GaussRat":
        o = GaussRat.of(o)
        return GaussRat(self.re + o.re, self.im + o.im)

    def __sub__(self, o) -> "GaussRat":
        o = GaussRat.of(o)
        return GaussRat(self.re - o.re, self.im - o.im)

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.re, -self.im)

    def __mul__(self, o) -> "GaussRat":
        o = GaussRat.of(o)
        return GaussRat(self.re * o.re - self.im * o.im,
                        self.re * o.im + self.im * o.re)

    def __truediv__(self, o) -> "GaussRat":
        o = GaussRat.of(o)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussRat((self.re * o.re + self.im * o.im) / n,
                        (self.im * o.re - self.re * o.im) / n)

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

    def conjugate(self) -> "GaussRat":
        return GaussRat(self.re, -self.im)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


ZERO = GaussRat(Fraction(0))
ONE = GaussRat(Fraction(1))
I = GaussRat(Fraction(0), Fraction(1))


class Mat:
    """Immutable exact matrix."""

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Sequence]) -> None:
        object.__setattr__(self, "rows",
                           tuple(tuple(GaussRat.of(v) for v in r) for r in rows))
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
        return Mat([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def zeros(r: int, c: int) -> "Mat":
        return Mat([[ZERO] * c for _ in range(r)])

    def __mul__(self, other: "Mat") -> "Mat":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ot = list(zip(*other.rows))
        return Mat([[sum((a * b for a, b in zip(row, col)), ZERO)
                     for col in ot] for row in self.rows])

    def __add__(self, other: "Mat") -> "Mat":
        return Mat([[a + b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other: "Mat") -> "Mat":
        return Mat([[a - b for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self) -> "Mat":
        return Mat([[-v for v in r] for r in self.rows])

    def scale(self, s) -> "Mat":
        s = GaussRat.of(s)
        return Mat([[s * v for v in r] for r in self.rows])

    def conjugate(self) -> "Mat":
        return Mat([[v.conjugate() for v in r] for r in self.rows])

    def is_zero(self) -> bool:
        return all(v.is_zero() for r in self.rows for v in r)

    def det(self) -> GaussRat:
        if self.nrows != self.ncols:
            raise ValueError("determinant of non-square matrix")
        a = [list(r) for r in self.rows]
        n = self.nrows
        out = ONE
        for col in range(n):
            piv = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
            if piv is None:
                return ZERO
            if piv != col:
                a[col], a[piv] = a[piv], a[col]
                out = -out
            out = out * a[col][col]
            inv = ONE / a[col][col]
            for r in range(col + 1, n):
                f = a[r][col] * inv
                if not f.is_zero():
                    a[r] = [x - f * y for x, y in zip(a[r], a[col])]
        return out

    def inverse(self) -> "Mat":
        if self.nrows != self.ncols:
            raise ValueError("inverse of non-square matrix")
        n = self.nrows
        a, pivots = rref([list(r) + [ONE if i == j else ZERO for j in range(n)]
                          for i, r in enumerate(self.rows)])
        if pivots != list(range(n)):
            raise ValueError("matrix is singular")
        return Mat([row[n:] for row in a])


def rref(rows: List[List[GaussRat]]) -> Tuple[List[List[GaussRat]], List[int]]:
    """Reduced row echelon form (in place on a copy) with pivot columns."""
    a = [list(r) for r in rows]
    nr = len(a)
    nc = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(nc):
        piv = next((i for i in range(r, nr) if not a[i][c].is_zero()), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
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
    return a, pivots


def null_space(rows: List[List[GaussRat]], ncols: int) -> List[Tuple[GaussRat, ...]]:
    """Deterministic echelon basis of the right null space."""
    if not rows:
        return [tuple(ONE if j == k else ZERO for j in range(ncols))
                for k in range(ncols)]
    a, pivots = rref(rows)
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
