"""`GaussRat` and `Mat` against a reference built on two `Fraction`s.

`oracles.Qi` is the Fraction-pair Gaussian rational, and the `oracles.mat_*`
functions are the echelon algorithms written on it.  Seeded draws of small
Gaussian rationals (zero, reals, pure imaginaries and non-unit
denominators among them) must give the same values, strings and
exceptions in both, and every result of the integer-triple class must be
reduced.
"""

import math
import random
from fractions import Fraction

import pytest

import oracles
from covlab.exactlin import GaussRat, Mat, ONE, ZERO, null_space


def draw(rng):
    """A small Gaussian rational as (re, im), often zero, real or imaginary."""
    re = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6]))
    im = Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2, 3, 4, 6]))
    kind = rng.randrange(6)
    if kind == 0:
        return Fraction(0), Fraction(0)
    if kind == 1:
        return Fraction(0), im
    if kind == 2:
        return re, Fraction(0)
    return re, im


def pair(rng):
    """The same drawn number as a GaussRat and as an `oracles.Qi`; integer
    parts are sometimes passed as ints, the constructor's fast path."""
    re, im = draw(rng)
    if re.denominator == im.denominator == 1 and rng.randrange(2):
        return GaussRat(int(re), int(im)), oracles.Qi(re, im)
    return GaussRat(re, im), oracles.Qi(re, im)


def conjugate(z):
    return GaussRat(z.re, -z.im)


def check(z, ref):
    """z is reduced and has ref's value and string."""
    assert type(z) is GaussRat and type(z.re) is Fraction and type(z.im) is Fraction
    assert all(type(v) is int for v in (z.a, z.b, z.d))
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1, (z.a, z.b, z.d)
    assert (z.re, z.im) == (ref.re, ref.im)
    assert str(z) == str(ref)
    assert z.is_zero() == ref.is_zero() == (not z)


def test_gaussrat_arithmetic_matches_the_fraction_pair_reference():
    rng = random.Random(1604)
    for _ in range(2000):
        (x, rx), (y, ry) = pair(rng), pair(rng)
        check(x, rx)
        check(x + y, rx + ry)
        check(x - y, rx - ry)
        check(x * y, rx * ry)
        check(-x, -rx)
        check(conjugate(x), rx.conjugate())
        if ry.is_zero():
            with pytest.raises(ZeroDivisionError):
                x / y
        else:
            check(x / y, rx / ry)
        n = rng.randint(-4, 4)
        if rx.is_zero() and n < 0:
            with pytest.raises(ZeroDivisionError):
                x ** n
        else:
            check(x ** n, rx ** n)
        k = rng.randint(-3, 3)
        check(x + k, rx + oracles.Qi(Fraction(k)))
        check(k * x, oracles.Qi(Fraction(k)) * rx)
        assert (x == y) == (rx == ry)
        if not y.is_zero():
            z = x * y / y  # the same value reached another way
            assert z == x and hash(z) == hash(x)
    assert GaussRat(Fraction(2, 4), Fraction(-3, 6)) == GaussRat(Fraction(1, 2),
                                                                 Fraction(-1, 2))
    assert hash(GaussRat(Fraction(4, 2))) == hash(GaussRat(2)) == hash(ONE + ONE)
    assert GaussRat(1) != 1  # no silent coercion in comparisons


def test_division_by_zero_raises():
    for zero in (ZERO, GaussRat(0, 0), GaussRat(Fraction(0), Fraction(0))):
        with pytest.raises(ZeroDivisionError):
            ONE / zero
        with pytest.raises(ZeroDivisionError):
            zero ** -1
        with pytest.raises(ZeroDivisionError):
            GaussRat(Fraction(1, 3), 2) / zero
    with pytest.raises(ZeroDivisionError):
        ONE / 0


def test_parts_are_ints_or_fractions_only():
    refused = [GaussRat, lambda x: GaussRat(Fraction(1, 2), x),
               lambda x: GaussRat(x, 1), lambda x: Mat([[Fraction(1, 2), x]])]
    for make in refused:
        for x in (0.1, 0.5, 2.0, True, "1/2", None):
            with pytest.raises(TypeError, match="expected an int or a Fraction"):
                make(x)
    z = GaussRat(Fraction(1, 2), Fraction(-2, 3))
    assert (z.a, z.b, z.d) == (3, -4, 6)
    assert GaussRat(Fraction(3, 1), 2) == GaussRat(3, 2)
    assert str(Mat([[Fraction(1, 2), 1]])) == "Mat[1/2 1]"


def random_rows(rng, nr, nc):
    pairs = [[pair(rng) for _ in range(nc)] for _ in range(nr)]
    return ([[z for z, _ in row] for row in pairs],
            [[r for _, r in row] for row in pairs])


def check_rows(rows, ref_rows):
    assert len(rows) == len(ref_rows)
    for row, ref_row in zip(rows, ref_rows):
        assert len(row) == len(ref_row)
        for z, ref in zip(row, ref_row):
            check(z, ref)


def test_matrix_kernels_match_the_reference():
    rng = random.Random(1605)
    singular = inverted = 0
    for _ in range(150):
        n = rng.randint(2, 4)
        rows, ref_rows = random_rows(rng, n, n)
        if rng.randrange(4) == 0:  # a repeated row: singular
            rows[-1], ref_rows[-1] = list(rows[0]), list(ref_rows[0])
        m = Mat(rows)
        check(m.det(), oracles.mat_det(ref_rows))
        want = oracles.mat_inverse(ref_rows)
        if want is None:
            singular += 1
            with pytest.raises(ValueError, match="matrix is singular"):
                m.inverse()
        else:
            inverted += 1
            check_rows(m.inverse().rows, want)
        other, ref_other = random_rows(rng, n, rng.randint(1, 4))
        check_rows((m * Mat(other)).rows, oracles.mat_product(ref_rows, ref_other))
        nr, nc = rng.randint(1, 4), rng.randint(2, 4)
        rows, ref_rows = random_rows(rng, nr, nc)
        check_rows(null_space(rows, nc), oracles.mat_null_space(ref_rows, nc))
    assert singular >= 10 and inverted >= 10
