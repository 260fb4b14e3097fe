import itertools
import math
import random
from fractions import Fraction

import pytest

import oracles
from covlab.wickscale import (GaugeElement, Monomial, WickPoly, change_of_ordering,
                              contraction_coeff, coupling_constant_value,
                              gauge_ad, gauge_inv, gauge_mul,
                              gauge_scaling_action, ordering_route,
                              parse_wickpoly, scale_wick_power,
                              scaling_cocycle_nontrivial, wick_product)

PHI = WickPoly.phi_power
W = WickPoly.symbol(w=1)
D = WickPoly.symbol(delta=1)
CLR = WickPoly.symbol(c=1, log=1, ricci=1)


# ---------------------------------------------------------------------------
# contraction coefficients and the star product

def test_contraction_coeff_values():
    assert contraction_coeff(2, 2, 0) == 1
    assert contraction_coeff(2, 2, 1) == 4
    assert contraction_coeff(2, 2, 2) == 2
    with pytest.raises(ValueError, match=r"j=3 exceeds min\(2,3\)"):
        contraction_coeff(2, 3, 3)
    with pytest.raises(ValueError, match="^j=-1 is negative$"):
        contraction_coeff(2, 3, -1)


def test_unit_field_is_the_star_unit():
    p = PHI(3) + W * PHI(1).scale(Fraction(5, 2))
    assert wick_product(PHI(0), p) == p
    assert wick_product(p, PHI(0)) == p


def test_phi1_star_phi1():
    assert wick_product(PHI(1), PHI(1)) == PHI(2) + W


def test_phi2_star_phi2():
    expected = PHI(4) + (W * PHI(2)).scale(4) + (W * W).scale(2)
    assert wick_product(PHI(2), PHI(2)) == expected


def test_star_matches_generating_oracle():
    for k in range(0, 6):
        for l in range(0, 6):
            assert dict(wick_product(PHI(k), PHI(l)).terms) == oracles.star_power(k, l), \
                (k, l)


def test_star_commutative_and_associative_up_to_5():
    powers = [PHI(k) for k in range(6)]
    for p, q in itertools.combinations_with_replacement(powers, 2):
        assert wick_product(p, q) == wick_product(q, p)
    for p, q, r in itertools.combinations_with_replacement(powers, 3):
        lhs = wick_product(wick_product(p, q), r)
        rhs = wick_product(p, wick_product(q, r))
        assert lhs == rhs


# ---------------------------------------------------------------------------
# change of ordering

def test_change_of_ordering_zero_shift_is_identity():
    p = PHI(6) + PHI(3).scale(2)
    assert change_of_ordering(p, WickPoly.zero()) == p


def test_change_of_ordering_k2():
    out = change_of_ordering(PHI(2), D)
    assert out == PHI(2) + D  # + Delta * Phi^0, oracle-fixed plus sign


def test_change_of_ordering_matches_oracle():
    for k in range(0, 11):
        assert dict(change_of_ordering(PHI(k), D).terms) \
            == oracles.change_of_ordering_power(k), k


def test_change_of_ordering_round_trip():
    for k in range(0, 11):
        there = change_of_ordering(PHI(k), D)
        back = change_of_ordering(there, -D)
        assert back == PHI(k), k


def test_change_of_ordering_rejects_field_valued_shift():
    for shift in (PHI(1), W, D + W.scale(3)):
        with pytest.raises(ValueError, match="^kernel shift must not carry Phi or W gradings$"):
            change_of_ordering(PHI(2), shift)


# ---------------------------------------------------------------------------
# the scaling law

def test_scale_power_refuses_powers_below_one():
    for k in (0, -2):
        with pytest.raises(ValueError, match="^field power must be >= 1$"):
            scale_wick_power(k)


def test_scale_power_k1():
    assert scale_wick_power(1) == WickPoly.symbol(phi=1, lam=1)


def test_scale_power_k2():
    expected = WickPoly.symbol(phi=2, lam=2) \
        + WickPoly({Monomial(phi=0, ricci=1, log=1, lam=2, c=1): Fraction(2)})
    assert scale_wick_power(2) == expected


def test_scale_power_k4_coefficients():
    out = scale_wick_power(4)
    coeffs = {m: q for m, q in out.terms}
    assert coeffs[Monomial(phi=4, lam=4)] == 1
    assert coeffs[Monomial(phi=2, ricci=1, log=1, lam=4, c=1)] == 12
    assert coeffs[Monomial(phi=0, ricci=2, log=2, lam=4, c=2)] == 12
    assert len(coeffs) == 3


def test_scale_power_matches_oracle_up_to_8():
    for k in range(1, 9):
        assert dict(scale_wick_power(k).terms) == oracles.scale_power(k), k


def test_closed_form_matches_ordering_route():
    # the scale-power verdict, up to the benchmark's k (16, 32, 64, 96, 128),
    # with each closed-form coefficient checked against k!/(j!(k-2j)!) and
    # the text form round-tripped at those sizes
    for k in list(range(1, 33)) + [64, 96, 128]:
        out = scale_wick_power(k)
        assert out == ordering_route(k), k
        assert out.terms == tuple(
            (Monomial(phi=k - 2 * j, ricci=j, log=j, lam=k, c=j),
             Fraction(math.factorial(k), math.factorial(j) * math.factorial(k - 2 * j)))
            for j in range(k // 2 + 1)), k
        assert parse_wickpoly(str(out)) == out, k


def test_conformal_coupling_collapses_to_homogeneous():
    for k in range(1, 9):
        collapsed = scale_wick_power(k).set_symbol("c", Fraction(0))
        assert collapsed == WickPoly.symbol(phi=k, lam=k), k


def test_coupling_constant_value():
    assert coupling_constant_value(Fraction(0)) == Fraction(-1, 96)
    assert coupling_constant_value(Fraction(1, 6)) == 0
    assert coupling_constant_value(1) == Fraction(5, 96)


def test_gauge_element_sigma_is_the_int_plus_or_minus_one():
    for sigma in (True, False, 1.0, Fraction(-1), "1", None):
        with pytest.raises(TypeError, match="sigma must be the int"):
            GaugeElement(sigma, 1)
    with pytest.raises(ValueError, match="sigma must be"):
        GaugeElement(0, 1)
    assert GaugeElement(-1, 1).sigma == -1


def test_wickpoly_den_is_a_nonzero_int():
    # den 0 would make a poly that prints as -1/0 and fails on `terms`
    terms = {Monomial(phi=1): 1}
    with pytest.raises(ValueError, match="den must be nonzero"):
        WickPoly(terms, 0)
    for den in (True, 1.0, Fraction(2), None):
        with pytest.raises(TypeError, match="den must be an int"):
            WickPoly(terms, den)
    assert WickPoly(terms, -2) == WickPoly({Monomial(phi=1): Fraction(-1, 2)})


# ---------------------------------------------------------------------------
# text form

def test_text_form_round_trip():
    polys = [
        wick_product(PHI(2), PHI(2)),
        scale_wick_power(4),
        change_of_ordering(PHI(5), D.scale(Fraction(-3, 7))),
        WickPoly.zero(),
        WickPoly.symbol(lam=-2) * PHI(1),
    ]
    for p in polys:
        assert parse_wickpoly(str(p)) == p


def test_parse_refuses_malformed_terms_and_unknown_symbols():
    for text, message in (("1*Phi^2 + x", "cannot parse term 'x'"),
                          ("2*Phi^1*", "cannot parse term '2*Phi^1*'"),
                          ("1*Phi^2 + 2*Q^1", "unknown symbol 'Q'")):
        with pytest.raises(ValueError) as err:
            parse_wickpoly(text)
        assert str(err.value) == message, text


def test_text_form_example_shape():
    txt = str(WickPoly({Monomial(phi=2, ricci=1, log=1, c=1): Fraction(12)}))
    assert txt == "12*c^1*L^1*R^1*Phi^2"


# ---------------------------------------------------------------------------
# WickPoly arithmetic against the dict-accumulator references of `oracles`,
# which sum their coefficients in dicts of their own; the library hands the
# constructor its pairs unsummed.  The two must agree term for term.

def _poly(p: WickPoly):
    """A poly as the oracles read it: {exponents: Fraction}."""
    return dict(p.terms)


# The sizes the references run at: small Phi powers and denominators, then
# the Phi powers (up to 12) and denominators (up to 6) of the benchmark's
# wick-product calls.
SIZES = ({"phi_max": 7, "den_max": 4}, {"phi_max": 13, "den_max": 7})


def random_pairs(rng, n, field_free=False, phi_max=7, den_max=4):
    """n (monomial, coefficient) pairs over few exponents, so that monomials
    repeat; each third pair is followed by its negative, which cancels.  A
    coefficient with denominator 1 is an int, any other a Fraction."""
    pairs = []
    for _ in range(n):
        mono = Monomial(phi=0 if field_free else rng.randrange(phi_max),
                        ricci=rng.randrange(2), log=rng.randrange(2),
                        w=0 if field_free else rng.randrange(2),
                        delta=rng.randrange(2), lam=rng.randrange(-1, 2),
                        c=rng.randrange(2))
        num, den = rng.randrange(-4, 5), rng.randrange(1, den_max)
        q = num if den == 1 else Fraction(num, den)
        pairs.append((mono, q))
        if len(pairs) % 3 == 0:
            pairs.append((mono, -q))
    return pairs


def random_poly(rng, n, field_free=False, **size):
    return WickPoly(random_pairs(rng, n, field_free, **size))


def test_arithmetic_matches_dict_accumulator_reference():
    rng = random.Random(0)
    refused = 0
    for size in SIZES:
        for _ in range(40):
            p = random_poly(rng, rng.randrange(8), **size)
            q = random_poly(rng, rng.randrange(8), **size)
            for a, b in ((p, q), (p, p.scale(-1)), (p + q, p - q)):
                assert _poly(a + b) == oracles.poly_add(_poly(a), _poly(b))
                assert _poly(a * b) == oracles.poly_mul(_poly(a), _poly(b))
                assert _poly(wick_product(a, b)) \
                    == oracles.poly_wick_product(_poly(a), _poly(b))
            for name, field in oracles.SYMBOLS:
                value = Fraction(rng.randrange(-3, 4) or 1, rng.randrange(1, 4))
                assert _poly(p.set_symbol(name, value)) \
                    == oracles.poly_set_symbol(_poly(p), field, value)
                if any(getattr(m, field) < 0 for m, _ in p.terms):
                    # only lam takes negative powers; 0^-1 has no value
                    with pytest.raises(ValueError, match=rf"{name}\^-1"):
                        p.set_symbol(name, Fraction(0))
                    refused += 1
                else:
                    assert _poly(p.set_symbol(name, Fraction(0))) \
                        == oracles.poly_set_symbol(_poly(p), field, Fraction(0))
    assert refused >= 10


def test_change_of_ordering_matches_dict_accumulator_reference():
    rng = random.Random(1)
    reused = 0
    for size in SIZES:
        for _ in range(25):
            p = random_poly(rng, rng.randrange(1, 9), **size)
            delta = random_poly(rng, rng.randrange(4), field_free=True, **size)
            assert _poly(change_of_ordering(p, delta)) \
                == oracles.poly_change_of_ordering(_poly(p), _poly(delta))
            # several Phi powers >= 2 in one p: one call reuses delta^j
            reused += len({m.phi for m, _ in p.terms if m.phi >= 2}) > 1
    assert reused >= 20


def test_set_symbol_refuses_zero_at_a_negative_power():
    p = WickPoly.symbol(lam=-2) * WickPoly.phi_power(1)
    with pytest.raises(ValueError, match=r"lam to 0 in a term with lam\^-2"):
        p.set_symbol("lam", 0)
    assert p.set_symbol("lam", Fraction(-1, 2)) == PHI(1).scale(4)
    assert (p + PHI(2)).set_symbol("lam", 2) == PHI(1).scale(Fraction(1, 4)) + PHI(2)


def test_coefficients_are_ints_or_fractions_only():
    poly = WickPoly.symbol(lam=1) * PHI(2)
    refused = [WickPoly.scalar, lambda x: WickPoly({Monomial(): x}),
               lambda x: WickPoly([((0,) * 7, 1), ((0,) * 7, x)]),
               poly.scale, lambda x: poly.set_symbol("lam", x),
               lambda x: GaugeElement(1, x),
               lambda x: gauge_scaling_action(x, GaugeElement(1)),
               coupling_constant_value]
    for make in refused:
        for x in (0.1, 2.0, True, "1/2", None):
            with pytest.raises(TypeError, match="expected an int or a Fraction"):
                make(x)
    assert str(WickPoly.scalar(Fraction(1, 10))) == "1/10"
    mu = GaugeElement(1, 3).mu
    assert mu == 3 and type(mu) is Fraction


def test_equal_rationals_in_any_form_give_equal_polys():
    m = Monomial(phi=3, c=1)
    forms = [WickPoly({m: Fraction(1, 2)}), WickPoly({m: Fraction(2, 4)}),
             WickPoly([(m, 1), (m, Fraction(-1, 2))]),
             WickPoly([(tuple(m), Fraction(1, 6)), (m, Fraction(2, 6))]),
             WickPoly({m: 1}).scale(Fraction(3, 6)),
             (WickPoly.symbol(c=1) * PHI(3).scale(Fraction(-4, 8))).scale(-1),
             WickPoly({m._replace(lam=1): 3}).set_symbol("lam", Fraction(2, 12))]
    for p in forms:
        assert p == forms[0] and hash(p) == hash(forms[0])
        assert [type(q) for _, q in p.terms] == [Fraction]
    assert WickPoly({m: 2}) == WickPoly({m: Fraction(4, 2)})
    assert hash(WickPoly({m: 2})) == hash(WickPoly({m: Fraction(4, 2)}))


def test_sums_cancel_to_zero():
    rng = random.Random(3)
    for _ in range(20):
        p = random_poly(rng, rng.randrange(1, 9), **SIZES[1])
        q = random_poly(rng, rng.randrange(1, 9), **SIZES[1])
        assert (p - p).is_zero() and (p - p) == WickPoly.zero()
        assert p.scale(0).is_zero()
        assert (wick_product(p, q) + wick_product(p, q.scale(-1))).is_zero()
        assert (p * q - q * p).is_zero()
    c_phi = WickPoly.symbol(c=1) * PHI(1)
    assert (c_phi - PHI(1)).set_symbol("c", 1).is_zero()
    m = Monomial(phi=12)
    assert str(WickPoly([(m, Fraction(5, 6)), (m, Fraction(-10, 12))])) == "0"


def test_parse_sums_repeated_and_cancelling_terms():
    assert str(parse_wickpoly("1*Phi^2 + 2*Phi^2")) == "3*Phi^2"
    assert parse_wickpoly("1*Phi^2 + -1*Phi^2") == WickPoly.zero()
    assert str(parse_wickpoly("1/2*c^1*Phi^1*c^1 + 1/2*c^2*Phi^1")) == "1*c^2*Phi^1"
    rng = random.Random(2)
    for size in SIZES:
        for _ in range(40):
            text = " + ".join(str(WickPoly([pair]))
                              for pair in random_pairs(rng, rng.randrange(1, 9), **size))
            assert _poly(parse_wickpoly(text)) == oracles.parse_poly(text)


def assert_canonical(p: WickPoly) -> None:
    assert type(p.den) is int and p.den > 0, p.den
    assert math.gcd(p.den, *[n for _, n in p.nums]) == 1, p
    assert all(type(n) is int and n != 0 for _, n in p.nums), p
    keys = [(-m.phi, m.ricci, m.log, m.w, m.delta, m.lam, m.c) for m, _ in p.nums]
    assert keys == sorted(set(keys)), p
    assert p.terms == tuple((m, Fraction(n, p.den)) for m, n in p.nums)
    assert str(p) == oracles.poly_str(_poly(p))


def test_a_negative_value_puts_its_sign_on_the_numerator():
    p = WickPoly.symbol(lam=-1) * PHI(1)
    for value, text in ((Fraction(-2), "-1/2*Phi^1"), (-2, "-1/2*Phi^1"),
                        (Fraction(-1, 3), "-3*Phi^1"), (Fraction(-2, 3), "-3/2*Phi^1")):
        out = p.set_symbol("lam", value)
        assert_canonical(out)
        assert str(out) == text
        direct = WickPoly({Monomial(phi=1): 1 / Fraction(value)})
        assert out == direct and hash(out) == hash(direct)


def test_every_result_is_in_canonical_form():
    rng = random.Random(4)
    polys = [WickPoly.zero(), PHI(3), PHI(2).scale(-4), scale_wick_power(128),
             ordering_route(128), change_of_ordering(PHI(128), D.scale(Fraction(-3, 7)))]
    for size in SIZES:
        for _ in range(30):
            p = random_poly(rng, rng.randrange(9), **size)
            q = random_poly(rng, rng.randrange(9), **size)
            delta = random_poly(rng, rng.randrange(4), field_free=True, **size)
            value = Fraction(rng.randrange(-3, 4) or -1, rng.randrange(1, 4))
            polys += [p, p + q, p - p, p * q, wick_product(p, q), -p,
                      p.scale(value), p.set_symbol("lam", value),
                      change_of_ordering(p, delta)]
    assert sum(p.is_zero() for p in polys) >= 30
    assert sum(p.den == 1 and not p.is_zero() for p in polys) >= 30
    assert sum(any(n < 0 for _, n in p.nums) for p in polys) >= 100
    for p in polys:
        assert_canonical(p)
        # the same poly built again, from its Fraction view and by arithmetic
        for again in (WickPoly(p.terms), WickPoly(list(p.terms)[::-1]),
                      p.scale(3).scale(Fraction(1, 3)), p + WickPoly.zero(),
                      parse_wickpoly(str(p))):
            assert again == p and hash(again) == hash(p), p


def test_constructor_takes_plain_tuples_and_refuses_negative_exponents():
    assert WickPoly([((2, 0, 0, 1, 0, -1, 0), 3)]).terms \
        == ((Monomial(phi=2, w=1, lam=-1), Fraction(3)),)
    for field in ("phi", "ricci", "log", "w", "delta", "c"):
        with pytest.raises(ValueError, match="negative exponent"):
            WickPoly({Monomial(**{field: -1}): Fraction(1)})
        with pytest.raises(ValueError, match="negative exponent"):
            WickPoly([(tuple(Monomial(**{field: -1})), 1)])
        # refused even where the coefficient is zero and the term would drop
        with pytest.raises(ValueError, match="negative exponent"):
            WickPoly({Monomial(**{field: -1}): 0})


def test_exponents_from_outside_are_ints_only():
    refused = [lambda x: WickPoly.symbol(phi=x), lambda x: WickPoly.symbol(lam=x),
               WickPoly.phi_power, lambda x: WickPoly([((x,), 1)]),
               lambda x: WickPoly([((0, 0, 0, 0, 0, x), Fraction(1, 2))])]
    for make in refused:
        for x in (1.5, 2.0, True, Fraction(2), "2", None):
            with pytest.raises(TypeError, match="exponents must be ints"):
                make(x)
    assert str(WickPoly.symbol(lam=-1, phi=2)) == "1*lam^-1*Phi^2"
    assert WickPoly([((2,), 1)]) == PHI(2)


# ---------------------------------------------------------------------------
# the rigid-scaling gauge group

# where the automorphism law of the scaling action is checked: the lam
# values the CLI and these tests use, and the element pairs with sigma in
# {1, -1} and mu among _SAMPLE_MUS (mu = 0 only, at nonzero coupling)
_ACTION_LAMS = [Fraction(2), Fraction(1, 2), Fraction(3), Fraction(5, 7),
                Fraction(10), Fraction(1, 10), Fraction(9, 4), Fraction(6),
                Fraction(13, 5), Fraction(1)]
_SAMPLE_MUS = [Fraction(0), Fraction(1), Fraction(-1), Fraction(3, 2),
               Fraction(-2, 7)]


def test_gauge_group_law():
    a = GaugeElement(-1, Fraction(3))
    b = GaugeElement(-1, Fraction(1, 2))
    assert gauge_mul(a, b) == GaugeElement(1, Fraction(-5, 2))
    assert gauge_mul(a, gauge_inv(a)) == GaugeElement(1)
    assert gauge_mul(gauge_inv(a), a) == GaugeElement(1)


def test_gauge_scaling_action_examples():
    assert gauge_scaling_action(Fraction(1), GaugeElement(-1, Fraction(3))) \
        == GaugeElement(-1, Fraction(3))
    assert gauge_scaling_action(Fraction(2), GaugeElement(-1, Fraction(3))) \
        == GaugeElement(-1, Fraction(3, 2))
    with pytest.raises(ValueError, match="lambda must be positive"):
        gauge_scaling_action(Fraction(-1), GaugeElement(1))


def test_gauge_scaling_is_automorphism_at_sampled_rationals():
    assert len(_ACTION_LAMS) == 10
    mus = [Fraction(0), Fraction(1), Fraction(-2, 3)]
    for lam in _ACTION_LAMS:
        for s in (1, -1):
            for mu in mus:
                out = gauge_scaling_action(lam, GaugeElement(s, mu))
                assert out == GaugeElement(s, mu / lam)


def test_gauge_scaling_is_automorphism_on_sample_pairs():
    for xi_nonzero in (False, True):
        samples = [GaugeElement(s, Fraction(0) if xi_nonzero else m)
                   for s in (1, -1) for m in _SAMPLE_MUS]
        for lam in _ACTION_LAMS:
            def act(x):
                return gauge_scaling_action(lam, x, xi_nonzero=xi_nonzero)
            assert act(GaugeElement(1)) == GaugeElement(1), lam
            for x in samples:
                for y in samples:
                    assert act(gauge_mul(x, y)) == gauge_mul(act(x), act(y)), \
                        (lam, x, y)


def test_inner_automorphisms_only_flip_mu():
    # ad(sigma, nu) maps (1, mu) to (1, sigma*mu): the reachable set of the
    # scaling certificate
    for sigma in (1, -1):
        for nu in _SAMPLE_MUS + [Fraction(5, 3)]:
            for mu in _SAMPLE_MUS:
                assert gauge_ad(GaugeElement(sigma, nu), GaugeElement(1, mu)) \
                    == GaugeElement(1, sigma * mu), (sigma, nu, mu)


def test_scaling_cocycle_certificate():
    cert = scaling_cocycle_nontrivial()
    assert cert.nontrivial
    assert cert.lam == 2
    assert cert.element == GaugeElement(1, Fraction(1))
    assert cert.reachable_mus == (Fraction(-1), Fraction(1))
    assert cert.required_mu == Fraction(1, 2)
    assert cert.required_mu not in cert.reachable_mus


def test_scaling_cocycle_trivial_for_nonzero_coupling():
    cert = scaling_cocycle_nontrivial(xi_nonzero=True)
    assert not cert.nontrivial
    with pytest.raises(ValueError):
        gauge_scaling_action(Fraction(2), GaugeElement(1, Fraction(1)),
                             xi_nonzero=True)
