import itertools
import random

import pytest

import oracles
from covlab import fingroup as fg
from covlab import models
from covlab.cohomology2 import (Cochain2, coboundary_twist,
                                cohomologous, enumerate_normalized_cocycles,
                                trivial_cochain, validate_cocycle)
from covlab.extension import (ExtensionEquivalence, build_extension,
                              classify_type, extensions_equivalent)

Z2 = fg.cyclic(2)
Z3 = fg.cyclic(3)
Z4 = fg.cyclic(4)
S3 = fg.symmetric3()


z4_producing = models.COCHAIN_FIXTURES["z4-producing"]
s3_producing = models.COCHAIN_FIXTURES["s3-producing"]


def test_trivial_cocycle_gives_direct_product():
    ext = build_extension(trivial_cochain(Z2, Z2))
    assert ext.E.order == 4
    assert ext.E.order_profile() == (1, 2, 2, 2)
    labels = classify_type(ext).labels
    assert set(labels) == {"central", "direct_product", "semidirect"}
    assert classify_type(ext).preferred == "direct_product"


def test_z4_extension():
    ext = build_extension(z4_producing())
    # (1,g) = index 1*2+1 = 3 has order 4
    assert ext.E.element_order(ext.pair_index(1, 1)) == 4
    assert ext.E.order_profile() == (1, 2, 4, 4)
    t = classify_type(ext)
    assert t.labels == ("central",)
    assert t.preferred == "central"


def test_s3_extension_is_semidirect_only():
    ext = build_extension(s3_producing())
    assert ext.E.order == 6
    assert len(fg.centre(ext.E)) < ext.E.order  # nonabelian
    assert ext.E.order_profile() == fg.symmetric3().order_profile()
    t = classify_type(ext)
    assert t.labels == ("semidirect",)


def test_equal_cochains_share_one_extension():
    c1, c2 = z4_producing(), z4_producing()
    assert c1 == c2 and c1 is not c2
    assert build_extension(c1) is build_extension(c2)


def test_invalid_cocycle_rejected_with_witness():
    # xi violating the factor-set condition over (Z2, Z4): xi(g,1)=0 ok but
    # break the three-fold consistency by hand
    bad = Cochain2(Z4, Z2, tuple(
        tuple(1 if (g1, g0) == (1, 1) else 0 for g0 in range(4))
        for g1 in range(4)), (0, 0, 0, 0))
    with pytest.raises(fg.CheckFailed) as exc:
        build_extension(bad)
    assert len(exc.value.report.witness) == 3


def test_non_normalized_cochain_is_refused():
    # xi(0, 0) = 1: not normalized, refused before the cocycle laws are checked
    shifted = Cochain2(Z2, Z2, ((1, 0), (0, 0)), (0, 0))
    with pytest.raises(ValueError, match="^extension construction requires a normalized cochain$"):
        build_extension(shifted)


def test_exactness_elementwise():
    # build_extension neither runs make_group nor checks exactness; this
    # checks both on every cocycle of the small pairs and every CLI fixture
    cocycles = [c for G, A in [(Z2, Z2), (Z2, Z3), (Z2, Z4), (Z3, Z3), (Z2, S3)]
                for c in enumerate_normalized_cocycles(G, A)]
    cocycles += [build() for build in models.COCHAIN_FIXTURES.values()]
    for c in cocycles:
        ext = build_extension(c)
        assert fg.make_group(ext.E.table).table == ext.E.table
        inc, proj = ext.inclusion, ext.projection
        assert fg.check_hom(inc).valid and fg.check_hom(proj).valid
        assert fg.is_injective(inc) and fg.is_surjective(proj)
        incl_image = set(inc.map)
        proj_kernel = {e for e in ext.E.elements() if proj.map[e] == 0}
        assert incl_image == proj_kernel
        # projection o inclusion is trivial
        assert all(proj.map[m] == 0 for m in inc.map)


def _normalized_cochains(G, A):
    n, free = G.order, G.order - 1
    naut = fg.compute_aut(A).order
    for combo in itertools.product(*([range(naut)] * free
                                     + [A.elements()] * (free * free))):
        xi_flat = combo[free:]
        xi = ((0,) * n,) + tuple((0,) + xi_flat[r * free:(r + 1) * free]
                                 for r in range(free))
        yield Cochain2(G, A, xi, (0,) + combo[:free])


def test_pair_product_is_a_group_exactly_for_cocycles():
    # why build_extension needs only validate_cocycle: on a normalized
    # cochain, the pair product is associative iff both cocycle laws hold
    seen = 0
    for G, A in [(Z2, Z3), (Z3, Z2), (Z2, Z4), (Z3, Z3), (Z2, S3)]:
        for c in _normalized_cochains(G, A):
            seen += 1
            table = oracles.extension_table(G.table, A.table, c.xi, c.perms)
            if validate_cocycle(c).valid:
                fg.make_group(table)
            else:
                with pytest.raises(fg.CheckFailed) as exc:
                    fg.make_group(table)
                assert exc.value.report.violation == "NotAssociative"
    assert seen == 390


def test_invalid_cocycle_names_the_failing_law():
    bad = Cochain2(Z3, Z3, ((0, 0, 0), (0, 1, 0), (0, 0, 0)), (0, 0, 0))
    with pytest.raises(fg.CheckFailed) as exc:
        build_extension(bad)
    res = validate_cocycle(bad)
    assert res.violation == "factor_set_condition"
    assert (exc.value.report, exc.value.subject) == (res, "cocycle")
    assert str(exc.value) == f"cocycle invalid: factor_set_condition {res.witness}"


def test_equivalence_reflexive_identity_witness():
    ext = build_extension(z4_producing())
    eq = extensions_equivalent(ext, ext)
    assert eq is not None
    assert eq.iso == tuple(range(4))
    other = build_extension(trivial_cochain(Z2, Z4))
    with pytest.raises(ValueError, match=r"^extensions are not over the same \(G, A\)$"):
        extensions_equivalent(ext, other)


def test_cohomologous_cocycles_give_equivalent_extensions():
    base = trivial_cochain(Z2, Z4)
    twisted = coboundary_twist(base, (0, 1))
    e1, e2 = build_extension(base), build_extension(twisted)
    eq = extensions_equivalent(e1, e2)
    assert eq is not None
    # the witness is (a,g) -> (a*zeta(g), g) for the twisting zeta
    w = cohomologous(base, twisted)
    assert w is not None
    assert extensions_equivalent(e1, e2).zeta in (w, eq.zeta)


def test_extensions_equivalent_does_not_revalidate(monkeypatch):
    # build_extension validated both cochains; the equivalence search only
    # scans twists
    from covlab import cohomology2, extension
    calls = []

    def counting(c):
        calls.append(c)
        return validate_cocycle(c)

    exts = [build_extension(c) for c in enumerate_normalized_cocycles(Z2, Z4)]
    monkeypatch.setattr(cohomology2, "validate_cocycle", counting)
    monkeypatch.setattr(extension, "validate_cocycle", counting)
    found = [extensions_equivalent(e1, e2) is not None
             for e1 in exts for e2 in exts]
    assert any(found) and not all(found)
    assert calls == []


SMALL_PAIRS = [("Z2", "Z2"), ("Z2", "Z3"), ("Z2", "Z4"), ("Z3", "Z3"),
               ("Z2", "S3"), ("Z2", "Z2xZ2"), ("Z3", "Z2"), ("Z4", "Z2"),
               ("Z2", "Q8"), ("S3", "Z2"), ("Z2xZ2", "Z2")]


def test_equivalence_matches_reference_homomorphism_scan():
    pairs = 0
    for gn, an in SMALL_PAIRS:
        G, A = fg.standard_group(gn), fg.standard_group(an)
        exts = [build_extension(c) for c in enumerate_normalized_cocycles(G, A)]
        for e1 in exts:
            for e2 in exts:
                want = oracles.extension_equivalence(G.table, A.table, e1.E.table, e2.E.table)
                assert extensions_equivalent(e1, e2) \
                    == (None if want is None else ExtensionEquivalence(*want)), \
                    (gn, an, e1.cochain, e2.cochain)
                pairs += 1
    assert pairs == 1377 + 32 ** 2 + 16 ** 2


def test_classify_type_matches_reference_twist_loop():
    # every cocycle of S3/Z2, Z2xZ2/Z2 and Z2xZ2/Z3 (where phi can be
    # trivial on one generator only), and a seeded sample of the 128 of
    # Q8/Z2 and the 324 of S3/Z3, whose reference loops take 2^7 and 3^5
    # twists per cocycle
    rng = random.Random(3)
    seen = set()
    for gn, an, sample in [("S3", "Z2", None), ("Z2xZ2", "Z2", None),
                           ("Z2xZ2", "Z3", None), ("Q8", "Z2", 16), ("S3", "Z3", 16)]:
        G, A = fg.standard_group(gn), fg.standard_group(an)
        cocycles = enumerate_normalized_cocycles(G, A)
        if sample is not None:
            cocycles = rng.sample(cocycles, sample)
        for c in cocycles:
            ext = build_extension(c)
            labels = classify_type(ext).labels
            flags = ("direct_product" in labels, "semidirect" in labels)
            assert flags == oracles.type_flags(G.table, A.table, c.xi, c.perms), (gn, an, c)
            seen.add(flags)
    assert seen == {(True, True), (False, True), (False, False)}


def test_central_label_matches_a_centre_scan():
    # classify_type reads the label from the cochain (A abelian, phi
    # trivial); here Z(E) is scanned on the extension's own table
    seen = set()
    for gn, an in SMALL_PAIRS:
        G, A = fg.standard_group(gn), fg.standard_group(an)
        abelian = all(A.mul(a, b) == A.mul(b, a) for a in A.elements() for b in A.elements())
        for c in enumerate_normalized_cocycles(G, A):
            ext = build_extension(c)
            E = ext.E
            centre = {z for z in E.elements()
                      if all(E.mul(z, x) == E.mul(x, z) for x in E.elements())}
            central = set(ext.inclusion.map) <= centre
            assert ("central" in classify_type(ext).labels) == central, (gn, an, c)
            seen.add((central, abelian, any(c.phi)))
    assert seen == {(True, True, False), (False, True, True), (False, False, False),
                    (False, False, True)}


def test_z4_vs_z2xz2_not_equivalent():
    e1 = build_extension(z4_producing())
    e2 = build_extension(trivial_cochain(Z2, Z2))
    assert extensions_equivalent(e1, e2) is None


def eilenberg_maclane_pairs(G, A):
    cocycles = enumerate_normalized_cocycles(G, A)
    exts = [build_extension(c) for c in cocycles]
    for (c1, e1), (c2, e2) in itertools.combinations(list(zip(cocycles, exts)), 2):
        coh = cohomologous(c1, c2) is not None
        eqv = extensions_equivalent(e1, e2) is not None
        assert coh == eqv, (c1, c2)


def test_cohomologous_iff_equivalent_small_pairs():
    for G, A in [(Z2, Z2), (Z2, Z3), (Z2, Z4), (Z3, Z3),
                 (Z2, fg.standard_group("Z2xZ2"))]:
        eilenberg_maclane_pairs(G, A)
