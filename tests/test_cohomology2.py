import gc
import importlib.util
import itertools
import random
import sys
from pathlib import Path

import pytest

import oracles
from covlab import cohomology2
from covlab import fingroup as fg
from covlab import models
from covlab.config import capped_product
from covlab.cohomology2 import (Cochain2, _stabiliser,
                                classify_h2, coboundary_twist, cohomologous,
                                enumerate_normalized_cocycles, is_neutral,
                                trivial_cochain, validate_cocycle,
                                SearchSpaceTooLarge)

Z2 = fg.cyclic(2)
Z3 = fg.cyclic(3)
Z4 = fg.cyclic(4)

# the benchmark's H^2 grid, bench/workloads.py (standard library only)
_spec = importlib.util.spec_from_file_location(
    "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
workloads = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)


# G = A = Z2, phi trivial, xi(g,g) = a: the extension will be Z4
z4_producing_cochain = models.COCHAIN_FIXTURES["z4-producing"]
# G = Z2, A = Z3, xi trivial, phi(g) = inversion
inversion_cochain = models.COCHAIN_FIXTURES["s3-producing"]


def _cochain(c):
    """The cochain c as the oracles read it: (G table, A table, xi, perms)."""
    return c.G.table, c.A.table, c.xi, c.perms


def test_trivial_cochain_is_valid_over_assorted_pairs():
    for G, A in [(Z2, Z2), (Z2, Z3), (Z4, Z4), (Z3, fg.quaternion8())]:
        assert validate_cocycle(trivial_cochain(G, A)).valid


def test_z4_producing_cochain_valid():
    report = validate_cocycle(z4_producing_cochain())
    assert report.valid


def test_inversion_cochain_valid_and_neutral():
    c = inversion_cochain()
    assert validate_cocycle(c).valid
    assert is_neutral(c)


def test_invalid_cochain_reports_witness():
    # xi(1,0) nonzero breaks normalization-compatible factor set over Z2,Z2
    c = Cochain2(Z2, Z2, ((0, 1), (0, 0)), (0, 0))
    report = validate_cocycle(c)
    assert not report.valid
    assert report.violation in ("automorphism_condition", "factor_set_condition")
    assert report.witness is not None


def test_is_neutral_examples():
    assert is_neutral(trivial_cochain(Z2, Z2))
    assert not is_neutral(z4_producing_cochain())
    assert is_neutral(inversion_cochain())


def test_twist_by_identity_is_identity():
    c = z4_producing_cochain()
    assert coboundary_twist(c, (0, 0)) == c


def test_twist_trivial_over_z2_z4_by_order_four_element():
    c = trivial_cochain(Z2, Z4)
    tw = coboundary_twist(c, (0, 1))  # zeta(g) = r
    assert tw.xi[1][1] == 2  # r^2
    assert tw.phi == (0, 0)  # ad on abelian A is trivial


def test_double_twist_returns_original_exactly():
    rng = random.Random(7)
    for G, A in [(Z2, Z4), (Z3, Z3), (Z2, fg.standard_group("Z2xZ2"))]:
        base = trivial_cochain(G, A)
        for _ in range(5):
            zeta = tuple([0] + [rng.randrange(A.order)
                                for _ in range(G.order - 1)])
            c = coboundary_twist(base, zeta)
            zinv = tuple(A.inv(z) for z in zeta)
            back = coboundary_twist(c, zinv)
            assert back == base


def test_twist_is_defined_on_every_cochain():
    # coboundary_twist checks the twist map only: a non-cocycle twists to a
    # non-cocycle, and twisting back recovers it exactly.
    c = Cochain2(Z2, Z4, ((1, 0), (0, 0)), (0, 0))
    assert not validate_cocycle(c)
    tw = coboundary_twist(c, (0, 1))
    assert not validate_cocycle(tw)
    assert coboundary_twist(tw, (0, 3)) == c
    for bad in ((0,), (0, 4)):
        with pytest.raises(ValueError, match="twist map"):
            coboundary_twist(c, bad)


def test_cohomologous_reflexive_with_identity_witness():
    c = z4_producing_cochain()
    w = cohomologous(c, c)
    assert w == (0, 0)


def test_z4_producing_not_cohomologous_to_trivial():
    assert cohomologous(z4_producing_cochain(), trivial_cochain(Z2, Z2)) is None


def test_cohomologous_refuses_cochains_over_different_pairs():
    for other in (trivial_cochain(Z2, Z4), trivial_cochain(Z4, Z2)):
        with pytest.raises(ValueError, match=r"^cochains live over different \(G, A\)$"):
            cohomologous(trivial_cochain(Z2, Z2), other)


def test_cohomologous_places_no_non_cocycle_in_a_class():
    # every twist of the cocycle c1 is a cocycle, so a corrupted c2 lies in
    # no class of c1
    trivial = trivial_cochain(Z2, Z2)
    corrupted = Cochain2(Z2, Z2, ((0, 1), (0, 0)), (0, 0))
    assert validate_cocycle(corrupted) == fg.Report(False, "factor_set_condition", (0, 0, 1))
    assert cohomologous(trivial, corrupted) is None


def test_twist_roundtrip_recovers_witness():
    rng = random.Random(21)
    for G, A in [(Z2, Z4), (Z3, Z3)]:
        base = trivial_cochain(G, A)
        for _ in range(6):
            zeta = tuple([0] + [rng.randrange(A.order)
                                for _ in range(G.order - 1)])
            c = coboundary_twist(base, zeta)
            w = cohomologous(base, c)
            assert w is not None
            assert coboundary_twist(base, w) == c


def test_cohomologous_symmetric_and_transitive_on_enumerated_set():
    cocycles = enumerate_normalized_cocycles(Z2, Z4)
    for c1, c2 in itertools.combinations(cocycles, 2):
        w12 = cohomologous(c1, c2)
        w21 = cohomologous(c2, c1)
        assert (w12 is None) == (w21 is None)
    # transitivity via witness composition: zeta13 = zeta23 * zeta12 pointwise
    A = Z4
    for c1 in cocycles:
        for c2 in cocycles:
            w12 = cohomologous(c1, c2)
            if w12 is None:
                continue
            for c3 in cocycles:
                w23 = cohomologous(c2, c3)
                if w23 is None:
                    continue
                composed = tuple(A.mul(w23[g], w12[g]) for g in Z2.elements())
                assert coboundary_twist(c1, composed) == c3


def test_classify_h2_z2_z2_two_classes():
    res = classify_h2(Z2, Z2)
    assert res.count == 2
    assert sum(cls.distinguished for cls in res.classes) == 1


def test_classify_h2_z2_z3_two_classes_split_by_phi():
    res = classify_h2(Z2, Z3)
    assert res.count == 2
    # both classes have trivializable xi-part: every class is neutral
    assert all(cls.neutral for cls in res.classes)
    phis = sorted(cls.representative.phi for cls in res.classes)
    assert phis[0] != phis[1]


def test_classify_h2_z3_z3_three_classes():
    res = classify_h2(Z3, Z3)
    assert res.count == 3


def test_classify_h2_z2_z4_four_classes():
    res = classify_h2(Z2, Z4)
    assert res.count == 4


def test_class_representatives_are_normalized_and_least():
    # classify_h2 does not re-check its representatives; this is the check
    for G, A in [(Z2, Z3), (Z2, Z4), (Z3, Z3), (Z2, fg.standard_group("Z2xZ2")),
                 (Z2, fg.standard_group("S3"))]:
        for cls in classify_h2(G, A).classes:
            assert cls.representative.is_normalized()


def test_each_class_is_listed_once_under_its_least_member():
    # classify_h2 takes the first cocycle of each orbit as its least; this
    # checks that against every normalized twist of every cocycle
    for G, A in [(Z2, Z3), (Z2, Z4), (Z3, Z3), (Z2, fg.standard_group("Z2xZ2")),
                 (Z2, fg.standard_group("S3")), (Z4, Z2)]:
        def least(c):
            return min((tw.xi, tw.phi) for tw in (
                coboundary_twist(c, (0,) + zeta)
                for zeta in itertools.product(A.elements(), repeat=G.order - 1)))

        sizes = {}
        for c in enumerate_normalized_cocycles(G, A):
            key = least(c)
            sizes[key] = sizes.get(key, 0) + 1
        classes = classify_h2(G, A).classes
        reps = [(cls.representative.xi, cls.representative.phi) for cls in classes]
        assert reps == sorted(sizes), (G, A)
        assert [cls.size for cls in classes] == [sizes[r] for r in reps], (G, A)
        trivial = least(trivial_cochain(G, A))
        assert [cls.distinguished for cls in classes] == [r == trivial for r in reps]


def test_abelian_sector_count_equals_cocycles_over_coboundaries():
    # for abelian A and phi == id, xi tables form a group under pointwise
    # product and the class count is |Z^2| / |B^2|
    for G, A in [(Z2, Z2), (Z2, Z4), (Z3, Z3)]:
        cocycles = [c for c in enumerate_normalized_cocycles(G, A)
                    if all(p == 0 for p in c.phi)]
        base = trivial_cochain(G, A)
        coboundaries = set()
        for zeta in itertools.product(A.elements(), repeat=G.order - 1):
            tw = coboundary_twist(base, (0,) + zeta)
            coboundaries.add(tw.xi)
        classes = {cls for cls in classify_h2(G, A).classes
                   if all(p == 0 for p in cls.representative.phi)}
        assert len(cocycles) % len(coboundaries) == 0
        assert len(cocycles) // len(coboundaries) == len(classes)


def test_twist_preserves_cocycle_property_randomized():
    rng = random.Random(2024)
    groups = [Z2, Z3, Z4, fg.standard_group("Z2xZ2")]
    for _ in range(20):
        G = rng.choice(groups)
        A = rng.choice(groups)
        c = trivial_cochain(G, A)
        for _ in range(3):
            zeta = tuple([0] + [rng.randrange(A.order)
                                for _ in range(G.order - 1)])
            c = coboundary_twist(c, zeta)
            assert validate_cocycle(c).valid


def test_every_normalized_twist_of_every_cocycle_is_a_cocycle():
    # coboundary_twist does not re-validate its output; this is the check,
    # with each twist also read against the brute-force twist formula
    for G, A in [(Z2, Z2), (Z2, Z3), (Z2, Z4), (Z3, Z3)]:
        for c in enumerate_normalized_cocycles(G, A):
            for zeta in itertools.product(A.elements(), repeat=G.order - 1):
                tw = coboundary_twist(c, (0,) + zeta)
                assert (tw.xi, tw.perms) \
                    == oracles.twist(*_cochain(c), (0,) + zeta), \
                    (G.name, A.name, c, zeta)
                assert validate_cocycle(tw).valid, (G.name, A.name, c, zeta)
                assert tw.is_normalized()


def test_neutral_cocycles_have_homomorphic_phi():
    # is_neutral reads xi only; that phi is then a homomorphism is checked here
    for G, A in [(Z2, Z2), (Z2, Z3), (Z2, Z4), (Z3, Z3),
                 (Z2, fg.standard_group("Z2xZ2")), (Z2, fg.standard_group("S3"))]:
        aut = fg.compute_aut(A)
        for c in enumerate_normalized_cocycles(G, A):
            if not is_neutral(c):
                continue
            for g1 in G.elements():
                for g0 in G.elements():
                    assert aut.index[fg.compose_perm(c.perms[g1],
                                                     c.perms[g0])] \
                        == c.phi[G.mul(g1, g0)], (G.name, A.name, c.phi)


def test_cohomologous_matches_reference_twist_loop():
    # cyclic G has one generator; on S3 and Z2xZ2 (two generators) the
    # solve fills the rest of each witness along the generator recipes.
    # Z2xZ2/S3 is a single class of 216 cocycles, so every sampled pair is
    # cohomologous.  Q8 has a centre that is a proper nontrivial subgroup, so
    # a witness there has two choices at each generator
    rng = random.Random(8)
    for gn, an, sample in [("Z2", "Z4", None), ("Z2", "Z2xZ2", None),
                           ("Z3", "Z3", None), ("Z2", "S3", None),
                           ("S3", "Z2", None), ("Z2xZ2", "Z2", None),
                           ("Z2xZ2", "S3", 20), ("Z2", "Q8", None),
                           ("Z3", "Q8", 20)]:
        G, A = fg.standard_group(gn), fg.standard_group(an)
        cocycles = enumerate_normalized_cocycles(G, A)
        pairs = list(itertools.product(cocycles, repeat=2))
        if sample is not None:
            pairs = rng.sample(pairs, sample)
        for c1, c2 in pairs:
            # every witness between normalized cocycles has zeta(1) = 1
            w = cohomologous(c1, c2)
            assert w == oracles.first_twist(*_cochain(c1), (c2.xi, c2.perms), True) \
                == oracles.first_twist(*_cochain(c1), (c2.xi, c2.perms), False), \
                (gn, an, c1, c2)
            # an unnormalized cocycle is searched over every twist
            c2u = coboundary_twist(c2, (1,) + (0,) * (G.order - 1))
            wu = cohomologous(c1, c2u)
            assert not c2u.is_normalized()
            assert wu == oracles.first_twist(*_cochain(c1), (c2u.xi, c2u.perms), False), \
                (gn, an, c1, c2u)
            assert (wu is None) == (w is None)


def test_cohomologous_twists_only_the_centre_coset(monkeypatch):
    # a counted guard: phi fixes each generator value of a witness up to
    # Z(A), so a search twists at most |Z(A)|^d maps, where walking every
    # generator value made up to |A|^d (36 on Z2xZ2/S3)
    calls = []

    def counted(c, zeta):
        calls.append(zeta)
        return coboundary_twist(c, zeta)

    monkeypatch.setattr(cohomology2, "coboundary_twist", counted)
    rng = random.Random(29)
    for gn, an in [("Z2", "S3"), ("Z2xZ2", "S3"), ("Z2", "Q8"), ("Z3", "Q8")]:
        G, A = fg.standard_group(gn), fg.standard_group(an)
        bound = len(fg.compute_aut(A).preimages[0]) ** len(fg.generating_sequence(G))
        cocycles = enumerate_normalized_cocycles(G, A)
        for _ in range(40):
            c1, c2 = rng.choice(cocycles), rng.choice(cocycles)
            calls.clear()
            cohomologous(c1, c2)
            assert len(calls) <= bound, (gn, an, c1, c2, len(calls))


def test_witnesses_at_order_8_with_nonabelian_coefficients():
    # |G| = 8 and nonabelian A, where a search over every twist is out of
    # reach (Q8/Q8 has 8^8 maps, past the default bound): twist a cocycle by
    # a random zeta and solve for it back.  The witness found reproduces the
    # twisted cochain and is lexicographically no later than the zeta used
    rng = random.Random(88)
    for gn, an in [("Q8", "S3"), ("S3", "Q8"), ("Q8", "Q8"), ("Z8", "Z8")]:
        G, A = fg.standard_group(gn), fg.standard_group(an)

        def random_zeta():
            return tuple(rng.randrange(A.order) for _ in G.elements())

        base = coboundary_twist(trivial_cochain(G, A), random_zeta())
        for _ in range(3):
            zeta = random_zeta()
            twisted = coboundary_twist(base, zeta)
            w = cohomologous(base, twisted)
            assert w is not None, (gn, an, zeta)
            assert coboundary_twist(base, w) == twisted, (gn, an, zeta)
            assert w <= zeta, (gn, an, zeta)


def test_capped_product_refuses_above_cap(monkeypatch):
    monkeypatch.setenv("COVLAB_ENUM_CAP", "6")
    assert list(capped_product([range(3), (7, 8)])) \
        == list(itertools.product(range(3), (7, 8)))
    monkeypatch.setenv("COVLAB_ENUM_CAP", "5")
    with pytest.raises(SearchSpaceTooLarge) as err:
        capped_product([range(3), (7, 8)])
    assert (err.value.size, err.value.cap) == (6, 5)
    assert str(err.value) == "enumeration of size 6 exceeds cap 5"


def test_search_space_cap(monkeypatch):
    # Z8 has one generator, so the witness search has 8^1 candidates
    trivial = trivial_cochain(fg.cyclic(8), fg.cyclic(8))
    monkeypatch.setenv("COVLAB_ENUM_CAP", "8")
    assert cohomologous(trivial, trivial) == (0,) * 8
    monkeypatch.setenv("COVLAB_ENUM_CAP", "7")
    with pytest.raises(SearchSpaceTooLarge) as err:
        cohomologous(trivial, trivial)
    assert err.value.size == 8


def _naive_size(G, A):
    return fg.compute_aut(A).order ** (G.order - 1) * A.order ** ((G.order - 1) ** 2)


def test_solver_matches_reference_enumeration_on_the_h2_grid():
    checked = 0
    for gn, an in workloads.H2_PAIRS:
        G, A = fg.standard_group(gn), fg.standard_group(an)
        if _naive_size(G, A) > 10 ** 4:
            continue
        assert [(c.xi, c.perms) for c in enumerate_normalized_cocycles(G, A)] \
            == oracles.normalized_cocycles(G.table, A.table), (gn, an)
        checked += 1
    assert checked == 15


def _trivial_phi_class_count(G, A):
    return sum(all(p == 0 for p in cls.representative.phi)
               for cls in classify_h2(G, A).classes)


def test_cyclic_trivial_action_classes_number_a_mod_na():
    # H^2(Z_n, A) = A / nA for abelian A acting trivially
    for n, an, expected in [(3, "Z6", 3), (4, "Z2", 2), (4, "Z3", 1),
                            (4, "Z4", 4), (4, "Z2xZ2", 4), (8, "Z2", 2)]:
        A = fg.standard_group(an)
        n_a = set()
        for a in A.elements():
            x = 0
            for _ in range(n):
                x = A.mul(x, a)
            n_a.add(x)
        assert A.order // len(n_a) == expected, (n, an)
        assert _trivial_phi_class_count(fg.cyclic(n), A) == expected, (n, an)


def test_pairs_beyond_the_naive_cap_classify():
    # known H^2 for the trivial action: H^2(S3, Z2) = Z2, H^2(Q8, Z2) = Z2^2,
    # H^2(Z2xZ2, Z2xZ2) = H^2(Z2xZ2, Z2)^2 = Z2^6; Aut(Z2) is trivial
    S3, Q8, V4 = (fg.standard_group(x) for x in ("S3", "Q8", "Z2xZ2"))
    for G, A in [(S3, Z2), (Q8, Z2), (V4, V4)]:
        assert _naive_size(G, A) > 10 ** 7
    assert classify_h2(S3, Z2).count == 2
    assert classify_h2(Q8, Z2).count == 4
    assert _trivial_phi_class_count(V4, V4) == 64


def test_cap_counts_solver_work(monkeypatch):
    # S3/Z2 has one phi tail, which fits under the cap; the xi search does not
    assert fg.compute_aut(Z2).order == 1
    monkeypatch.setenv("COVLAB_ENUM_CAP", "1000")
    with pytest.raises(SearchSpaceTooLarge) as err:
        enumerate_normalized_cocycles(fg.standard_group("S3"), Z2)
    assert (err.value.size, err.value.cap) == (1001, 1000)


def _normalized_failures(rng, c):
    """Normalized cochains near the cocycle c that the generator-middle check
    must reject before the full scan: xi changed at one cell off the
    normalization border, phi changed at one g != 1 (when Aut(A) has more
    than the identity), and a random normalized cochain."""
    G, A, aut = c.G, c.A, c.aut
    n, m = G.order, A.order
    xi = [list(row) for row in c.xi]
    g1, g0 = rng.randrange(1, n), rng.randrange(1, n)
    xi[g1][g0] = (xi[g1][g0] + rng.randrange(1, m)) % m
    out = [Cochain2(G, A, tuple(map(tuple, xi)), c.phi)]
    if aut.order > 1:
        phi = list(c.phi)
        g = rng.randrange(1, n)
        phi[g] = (phi[g] + rng.randrange(1, aut.order)) % aut.order
        out.append(Cochain2(G, A, c.xi, tuple(phi)))
    rows = tuple((0,) + tuple(rng.randrange(m) for _ in range(n - 1)) for _ in range(n - 1))
    out.append(Cochain2(G, A, ((0,) * n,) + rows,
                        (0,) + tuple(rng.randrange(aut.order) for _ in range(n - 1))))
    return out


def test_schedule_lists_each_law_once_in_the_order_the_kernels_read():
    for name in fg._STANDARD:
        G = fg.standard_group(name)
        n, elems, gens = G.order, list(G.elements()), fg.generating_sequence(G)
        schedule = cohomology2._schedule(G)
        pairs, laws = [], []
        for g1 in elems:
            for g0 in elems:
                pairs.append((g1, g0, G.mul(g1, g0)))
        for g2 in elems:
            for g1 in elems:
                for g0 in elems:
                    laws.append((g2, g2 * n + g1, G.mul(g2, g1) * n + g0, g1 * n + g0,
                                 g2 * n + G.mul(g1, g0)))
        assert (list(schedule.pairs), list(schedule.laws)) == (pairs, laws), name
        assert list(schedule.gen_pairs) == [p for p in pairs if p[1] in gens], name
        assert list(schedule.gen_laws) == [law for law in laws
                                           if law[3] // n in gens], name
        # each law with a free cell is checked once, at its last free cell
        cells = [g1 * n + g0 for g1 in elems[1:] for g0 in elems[1:]]
        assert list(schedule.cells) == cells, name
        assert list(schedule.cell_pairs) == [pairs[pos] for pos in cells], name
        assert len(schedule.checks) == len(cells), name
        for law in laws:
            free = [cells.index(pos) for pos in law[1:] if pos in cells]
            homes = [k for k, checks in enumerate(schedule.checks) if law in checks]
            assert homes == ([max(free)] if free else []), (name, law)
        # the generator recurrence reaches each element beyond 1 and the
        # generators once, as y = x s from an element x reached before it
        reached = [0] + list(gens)
        for y, x, s in fg.generator_recurrence(G):
            assert s in gens and x in reached and y not in reached, (name, y)
            assert y == G.mul(x, s), (name, y)
            reached.append(y)
        assert sorted(reached) == elems, name


def test_law_table_matches_the_nested_loop_validation_on_the_h2_grid():
    # each cocycle, an unnormalized twist of it, a one-cell corruption of the
    # twist, and the `_normalized_failures` near it, over the benchmark's
    # grid and two pairs beyond it
    rng, near = random.Random(18), random.Random(20)
    verdicts, normalized = set(), set()
    for gn, an in workloads.H2_PAIRS + [("S3", "Z2"), ("Q8", "Z2")]:
        G, A = fg.standard_group(gn), fg.standard_group(an)
        for c in enumerate_normalized_cocycles(G, A):
            twisted = coboundary_twist(c, tuple(rng.randrange(A.order)
                                                for _ in G.elements()))
            g1, g0 = rng.randrange(G.order), rng.randrange(G.order)
            xi = [list(row) for row in twisted.xi]
            xi[g1][g0] = (xi[g1][g0] + rng.randrange(1, A.order)) % A.order
            corrupted = Cochain2(G, A, tuple(map(tuple, xi)), twisted.phi)
            for v in [c, twisted, corrupted] + _normalized_failures(near, c):
                got = validate_cocycle(v)
                failure = oracles.cocycle_failure(*_cochain(v))
                assert got == (fg.Report(True) if failure is None
                               else fg.Report(False, *failure)), (gn, an, v)
                verdicts.add(got.violation)
                if v.is_normalized():
                    normalized.add(got.violation)
    assert verdicts == {None, "automorphism_condition", "factor_set_condition"}
    assert normalized == verdicts


# pairs beyond the benchmark's grid that classify in well under a second
EXTRA_PAIRS = [("S3", "Z2"), ("Z4", "Z4"), ("Z3", "Q8"), ("Q8", "Z2"),
               ("Z2xZ2", "Z2xZ2"), ("Z4", "Q8"), ("Z8", "Z2"), ("S3", "Z4"),
               ("Z2xZ2", "Z4"), ("Z6", "Z2"), ("Z2xZ2", "S3"), ("Z4", "S3")]


def _grid_and_extra_pairs():
    for gn, an in workloads.H2_PAIRS + EXTRA_PAIRS:
        yield gn, an, fg.standard_group(gn), fg.standard_group(an)


def test_stabiliser_orbit_loop_matches_the_reference_classification():
    for gn, an, G, A in _grid_and_extra_pairs():
        got = classify_h2(G, A)
        assert (got.G, got.A) == (G, A)
        assert [((cls.representative.xi, cls.representative.perms), cls.size,
                 cls.distinguished, cls.neutral) for cls in got.classes] \
            == oracles.h2_classes(G.table, A.table), (gn, an)


def test_stabiliser_formula_matches_the_brute_force_stabiliser():
    # Stab(c) = Z^1(G, Z(A)) for the action phi, and size * |Stab| = |A|^(n-1)
    nontrivial = 0
    for gn, an, G, A in _grid_and_extra_pairs():
        twists = list(capped_product([(0,)] + [A.elements()] * (G.order - 1)))
        for cls in classify_h2(G, A).classes:
            c = cls.representative
            stab = _stabiliser(c)
            assert stab == tuple(z for z in twists if coboundary_twist(c, z) == c), \
                (gn, an, c)
            assert cls.size * len(stab) == len(twists), (gn, an, c)
            nontrivial += len(stab) > 1
    assert nontrivial > 0


def test_classify_h2_twists_each_cocycle_once(monkeypatch):
    # a counted guard: one coboundary_twist per cocycle, where twisting each
    # representative by every map made #classes * |A|^(n-1)
    calls = []

    def counted(c, zeta):
        calls.append(zeta)
        return coboundary_twist(c, zeta)

    monkeypatch.setattr(cohomology2, "coboundary_twist", counted)
    fewer = 0
    for gn, an in workloads.H2_PAIRS:
        G, A = fg.standard_group(gn), fg.standard_group(an)
        calls.clear()
        classes = classify_h2(G, A).classes
        assert len(calls) == sum(cls.size for cls in classes) \
            == len(enumerate_normalized_cocycles(G, A)), (gn, an)
        fewer += len(calls) < len(classes) * A.order ** (G.order - 1)
    assert fewer > 0


def test_classification_leaves_no_cyclic_garbage():
    # the search's recursive closure is released when the search ends, so
    # its cocycles and buffers are freed by reference counts alone
    gc.collect()
    gc.disable()
    try:
        classify_h2(Z3, fg.cyclic(6))
        assert gc.collect() == 0
    finally:
        gc.enable()
