"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Every check is exact (integer/rational arithmetic); there are no numeric
tolerances anywhere.  Run with `pytest -s tests/test_acceptance.py` to see
the per-criterion lines, or `python3 tests/test_acceptance.py` standalone.

The claims of the paper's abstract (arXiv:1609.02705), each with the verb
and report field that state it, its criterion, its demo, and the ROADMAP
item that closes its gap (the README holds the same table):

  claim                        verb: report field               crit.  demo  gap
  canonical class in H^2       extract-cocycle: data.cochain;   1-3    01 03 -
                               compare-impls:
                               cocycles-cohomologous;
                               classify-h2: data.classes
  trivial for S                extract-cocycle --model          -      03    6, 13
                               SpinFrame: data.class_trivial
  direct-product extended      build-extension: data.labels;    3, 4   02 03 17, 19
  group                        lift-extension:
                               lifted-cocycle-neutral
  multiplets of S              verify-multiplet:                5      04    8
                               extended-rep-true
  no mixing across spins       detect-mixing: no-mixing         6      04    8
  noninteger spin controlled   cover-z: data.class_trivial;     7      05    6, 8
  by the centre                spin-obstruction: descends
  rigid scale covariance       scale-power: data.scaled_power;  8-10   06    7
                               scaling-cocycle: data.certificate
  n >= 2 and interacting       -                                -      -     13
  theories
"""

import itertools
import random
import sys
from contextlib import contextmanager
from fractions import Fraction

import oracles
from covlab import fingroup as fg
from covlab import models
from covlab.cohomology2 import (classify_h2, coboundary_twist,
                                cohomologous, enumerate_normalized_cocycles,
                                trivial_cochain, validate_cocycle)
from covlab.covariance import (compare_implementations, compute_gauge_group,
                               extract_cocycle, lift_to_extension,
                               twist_implementation)
from covlab.covering import all_sections, q8_cover, spin_obstruction, z_cocycle
from covlab.extension import build_extension, extensions_equivalent
from covlab.fingroup import GroupHom
from covlab.multiplet import build_rho, detect_mixing, verify_field_action
from covlab.wickscale import (GaugeElement, Monomial, WickPoly,
                              gauge_scaling_action, scale_wick_power,
                              scaling_cocycle_nontrivial, wick_product)


@contextmanager
def criterion(num: int, text: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num:2d}: FAIL  {text}")
        raise
    print(f"ACCEPTANCE {num:2d}: PASS  {text}")


# ---------------------------------------------------------------------------

def _generated_cochains():
    """Cochains produced by coboundary_twist and extract_cocycle."""
    rng = random.Random(1234)
    out = []
    pairs = [(fg.cyclic(2), fg.cyclic(2)), (fg.cyclic(2), fg.cyclic(3)),
             (fg.cyclic(3), fg.cyclic(3)), (fg.cyclic(2), fg.cyclic(4)),
             (fg.cyclic(4), fg.cyclic(4)), (fg.cyclic(2), fg.standard_group("Z2xZ2")),
             (fg.standard_group("Z2xZ2"), fg.cyclic(2)),
             (fg.cyclic(2), fg.quaternion8()), (fg.cyclic(8), fg.cyclic(2)),
             (fg.symmetric3(), fg.cyclic(3))]
    for G, A in pairs:
        base = trivial_cochain(G, A)
        for _ in range(4):
            zeta = tuple([0] + [rng.randrange(A.order)
                                for _ in range(G.order - 1)])
            out.append(coboundary_twist(base, zeta))
    for G, A in [(fg.cyclic(2), fg.cyclic(2)), (fg.cyclic(2), fg.cyclic(4))]:
        for cls in classify_h2(G, A).classes:
            c = cls.representative
            out.append(c)
            for _ in range(2):
                zeta = tuple([0] + [rng.randrange(A.order)
                                    for _ in range(G.order - 1)])
                out.append(coboundary_twist(c, zeta))
    for impl in (models.one_object_cyclic_model(1),
                 models.one_object_cyclic_model(2),
                 models.one_object_cyclic_model(3), models.swap_model(),
                 models.spin_frame_model(), models.frame_rotation_model()[0]):
        out.append(extract_cocycle(impl))
    return out


def test_criterion_1_cocycle_laws():
    with criterion(1, "twisted and extracted cochains all satisfy the "
                      "cocycle laws exactly"):
        cochains = _generated_cochains()
        assert len(cochains) >= 50
        assert all(c.G.order <= 8 and c.A.order <= 8 for c in cochains)
        for c in cochains:
            assert validate_cocycle(c).valid


def test_criterion_2_implementation_cocycles_cohomologous():
    with criterion(2, "randomly twisted implementation pairs have "
                      "cohomologous cocycles with exact recovered witnesses"):
        rng = random.Random(99)
        pairs = 0
        for make in (models.one_object_cyclic_model, lambda: models.swap_model(),
                     models.spin_frame_model):
            base = make() if make is not models.one_object_cyclic_model \
                else models.one_object_cyclic_model(rng.randrange(4))
            gauge = compute_gauge_group(base.functor)
            n = base.action.group.order
            for _ in range(8):
                zeta = tuple([0] + [rng.randrange(gauge.order)
                                    for _ in range(n - 1)])
                other = twist_implementation(base, zeta)
                w = compare_implementations(base, other)
                c1 = extract_cocycle(base)
                c2 = extract_cocycle(other)
                assert coboundary_twist(c1, w) == c2
                assert cohomologous(c1, c2) is not None
                pairs += 1
        assert pairs >= 20


# ---------------------------------------------------------------------------
# criterion 3: the brute-force oracle, on plain tables, fixes the class
# counts before comparing the two library routes

def test_criterion_3_extension_correspondence():
    with criterion(3, "H^2 class counts equal extension-equivalence class "
                      "counts (frozen oracle values 2, 2, 3, 4)"):
        frozen = {("Z2", "Z2"): 2, ("Z2", "Z3"): 2, ("Z3", "Z3"): 3,
                  ("Z2", "Z4"): 4}
        for (gn, an), expected in frozen.items():
            G, A = fg.standard_group(gn), fg.standard_group(an)
            oracle = len(oracles.h2_classes(G.table, A.table))
            assert oracle == expected, (gn, an, oracle)
            res = classify_h2(G, A)
            assert res.count == expected, (gn, an, res.count)
            cocycles = enumerate_normalized_cocycles(G, A)
            exts = [build_extension(c) for c in cocycles]
            reps = []
            for e in exts:
                if not any(extensions_equivalent(e, r) is not None
                           for r in reps):
                    reps.append(e)
            assert len(reps) == expected, (gn, an, len(reps))
        # the (Z2, Z2) classes realize exactly Z4 and Z2 x Z2
        z2 = fg.cyclic(2)
        profiles = sorted(
            build_extension(cls.representative).E.order_profile()
            for cls in classify_h2(z2, z2).classes)
        assert profiles == [(1, 2, 2, 2), (1, 2, 4, 4)]


def test_criterion_4_lift_neutrality():
    with criterion(4, "every lifted implementation has identically neutral "
                      "extension cocycle over all pairs"):
        fixtures = {f"Z4Rot[p={p}]": models.one_object_cyclic_model(p) for p in range(4)}
        fixtures.update(SwapIso=models.swap_model(), SpinFrame=models.spin_frame_model(),
                        FrameRot=models.frame_rotation_model()[0])
        for label, impl in fixtures.items():
            lifted = lift_to_extension(impl)
            ec = extract_cocycle(lifted)
            n = lifted.action.group.order
            for e1 in range(n):
                for e0 in range(n):
                    assert ec.xi[e1][e0] == 0, (label, e1, e0)


def _field_fixtures():
    out = [models.vector_multiplet_action(), models.equivalent_blocks_action(),
           models.central_z4_mixing_action(), models.q8_mixing_action()]
    out.extend(models.block_diagonal_fixtures())
    return out


def test_criterion_5_extended_group_representation():
    with criterion(5, "field-action laws hold and rho is a true extension "
                      "representation on all |E|^2 pairs, exactly"):
        for a in _field_fixtures():
            assert verify_field_action(a).valid
            rho = build_rho(a)
            for e1 in rho.group.elements():
                for e0 in rho.group.elements():
                    assert rho(e1) * rho(e0) == rho(rho.group.mul(e1, e0))


def test_criterion_6_no_mixing_corollary():
    with criterion(6, "no mixing on direct-product/inequivalent fixtures; "
                      "witnesses on the engineered fixtures"):
        sub1, sub2 = models.standard_submultiplets()
        for a in models.block_diagonal_fixtures():
            res = detect_mixing(a, sub1, sub2)
            assert res.witness is None
            assert res.no_mixing_asserted

        a = models.equivalent_blocks_action()
        res = detect_mixing(a, sub1, sub2)
        assert res.witness_pair == (1, 0)

        a = models.central_z4_mixing_action()
        res = detect_mixing(a, sub1, sub2)
        assert res.witness_pair == (1, 0)

        a = models.q8_mixing_action()
        e1, e2 = models.eigenline_submultiplets()
        res = detect_mixing(a, e1, e2)
        assert res.witness_pair == (1, 0)


def test_criterion_7_covering_obstruction():
    with criterion(7, "Q8 cover: z nontrivial for all sections and twists; "
                      "2-dim rep obstructed by -1; 1-dim reps descend; "
                      "z class section-independent"):
        cov = q8_cover()
        S, L = cov.S, cov.L
        sections = all_sections(cov)
        assert len(sections) == 8
        kernel = cov.kernel_elements

        # independent raw check over every section and all 2^4 twist maps
        ktable = tuple(tuple(kernel.index(S.mul(a, b)) for b in kernel) for a in kernel)
        trivial = oracles.trivial(L.table, ktable)
        for sec in sections:
            z = [[S.mul(S.mul(sec.lift[l1], sec.lift[l0]), S.inv(sec.lift[L.mul(l1, l0)]))
                  for l0 in L.elements()] for l1 in L.elements()]
            assert all(v in kernel for row in z for v in row)
            xi = [[kernel.index(v) for v in row] for row in z]
            assert oracles.first_twist(L.table, ktable, xi, trivial[1], trivial,
                                       normalized=False) is None

        for s1 in sections:
            for s2 in sections:
                assert cohomologous(z_cocycle(s1), z_cocycle(s2)) is not None

        zeta = GroupHom(cov.K, fg.cyclic(2), (0, 1))
        verdict = spin_obstruction(cov, zeta, models.q8_two_dim_rep())
        assert not verdict.descends and verdict.obstruction_witness == 1
        for axis in "1ijk":
            v = spin_obstruction(cov, zeta, models.q8_sign_rep(axis))
            assert v.descends and v.descended is not None


def test_criterion_8_almost_homogeneous_scaling():
    with criterion(8, "scaled Wick powers match the generating-function "
                      "oracle for k <= 8; k=1 and conformal coupling "
                      "collapse; k=4 coefficients are (1, 12, 12)"):
        for k in range(1, 9):
            assert dict(scale_wick_power(k).terms) == oracles.scale_power(k)
        assert scale_wick_power(1) == WickPoly.symbol(phi=1, lam=1)
        for k in range(1, 9):
            assert scale_wick_power(k).set_symbol("c", Fraction(0)) \
                == WickPoly.symbol(phi=k, lam=k)
        coeffs = dict(scale_wick_power(4).terms)
        assert coeffs[Monomial(phi=4, lam=4)] == 1
        assert coeffs[Monomial(phi=2, ricci=1, log=1, lam=4, c=1)] == 12
        assert coeffs[Monomial(phi=0, ricci=2, log=2, lam=4, c=2)] == 12


def test_criterion_9_scaling_gauge_cocycle():
    with criterion(9, "scaling acts by automorphisms at 10 sampled scale "
                      "factors; the nontriviality certificate is emitted; "
                      "the nonzero-coupling branch is trivial"):
        lams = [Fraction(2), Fraction(1, 2), Fraction(3), Fraction(5, 7),
                Fraction(10), Fraction(1, 10), Fraction(9, 4), Fraction(6),
                Fraction(13, 5), Fraction(7, 3)]
        assert len(lams) == 10
        for lam in lams:
            out = gauge_scaling_action(lam, GaugeElement(-1, Fraction(3)))
            assert out == GaugeElement(-1, Fraction(3) / lam)
        cert = scaling_cocycle_nontrivial()
        assert cert.nontrivial
        assert cert.required_mu == Fraction(1, 2)
        assert cert.reachable_mus == (Fraction(-1), Fraction(1))
        assert not scaling_cocycle_nontrivial(xi_nonzero=True).nontrivial


def test_criterion_10_wick_product():
    with criterion(10, "Phi^2 * Phi^2 = Phi^4 + 4 W Phi^2 + 2 W^2; the star "
                       "product commutes and associates for powers <= 5"):
        PHI = WickPoly.phi_power
        W = WickPoly.symbol(w=1)
        assert wick_product(PHI(2), PHI(2)) \
            == PHI(4) + (W * PHI(2)).scale(4) + (W * W).scale(2)
        powers = [PHI(k) for k in range(6)]
        for p, q in itertools.product(powers, repeat=2):
            assert wick_product(p, q) == wick_product(q, p)
        for p, q, r in itertools.combinations_with_replacement(powers, 3):
            assert wick_product(wick_product(p, q), r) \
                == wick_product(p, wick_product(q, r))


if __name__ == "__main__":
    tests = [(int(name.split("_")[2]), fn) for name, fn in globals().items()
             if name.startswith("test_criterion_")]
    failures = 0
    for _, fn in sorted(tests):
        try:
            fn()
        except BaseException as err:
            failures += 1
            print(f"  error: {err}")
    sys.exit(1 if failures else 0)
