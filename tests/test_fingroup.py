import itertools
import random

import pytest

import oracles
from covlab import fingroup as fg
from covlab import models
from covlab.config import SearchSpaceTooLarge, enum_cap
from covlab.cohomology2 import enumerate_normalized_cocycles
from covlab.covariance import extract_cocycle, lift_to_extension
from covlab.exactlin import Mat
from covlab.extension import build_extension
from covlab.multiplet import MatrixRep


def is_automorphism(g, perm):
    return (sorted(perm) == list(g.elements())
            and fg.check_hom(fg.GroupHom(g, g, tuple(perm))).valid)


def test_make_group_z2():
    g = fg.make_group([[0, 1], [1, 0]])
    assert g.order == 2
    assert g.mul(1, 1) == 0


def test_make_group_rejects_non_permutation_row():
    with pytest.raises(fg.CheckFailed) as exc:
        fg.make_group([[0, 1], [1, 1]])
    assert exc.value.report == fg.Report(False, "NotInvertible", (1,))


def test_make_group_rejects_out_of_range():
    with pytest.raises(fg.CheckFailed) as exc:
        fg.make_group([[0, 2], [2, 0]])
    assert exc.value.report == fg.Report(False, "IndexOutOfRange", (0, 1, 2))
    # a bool is no index, even where its int value would be in range
    for table, witness in (([[False]], (0, 0, False)), ([[0, True], [True, 0]], (0, 1, True))):
        with pytest.raises(fg.CheckFailed) as exc:
            fg.make_group(table)
        assert exc.value.report == fg.Report(False, "IndexOutOfRange", witness)


def test_make_group_rejects_no_identity():
    # each row is a permutation of {0,1} but no two-sided identity exists;
    # the empty table has no element to be one
    for table in ([[1, 0], [1, 0]], []):
        with pytest.raises(fg.CheckFailed) as exc:
            fg.make_group(table)
        assert exc.value.report == fg.Report(False, "NoIdentity", ())


# an order-5 loop: a Latin square with identity that is not a group (no such
# thing exists at order 3); its generator walk has 2 elements
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_make_group_rejects_non_associative():
    with pytest.raises(fg.CheckFailed) as exc:
        fg.make_group(LOOP5)
    assert exc.value.report.violation == "NotAssociative"
    x, y, z = exc.value.report.witness
    g = LOOP5
    assert g[g[x][y]][z] != g[x][g[y][z]]


def test_make_group_accepts_orders_whose_cube_exceeds_the_cap():
    # Light's test costs n^2 products here (Z_n has a one-element walk); the
    # n^3 scan would be refused
    for n in (216, 336):
        assert n ** 3 > enum_cap()
        assert fg.make_group(fg.cyclic(n).table) == fg.cyclic(n)


def test_make_group_caps_light_triples_then_the_full_scan(monkeypatch):
    # Q8 has n^2|S| = 8^2 * 3 = 192 Light triples and n^3 = 512; LOOP5 has
    # 5^2 * 2 = 50 Light triples, and fails them, then n^3 = 125
    q8 = fg.quaternion8()
    monkeypatch.setenv("COVLAB_ENUM_CAP", "191")
    with pytest.raises(SearchSpaceTooLarge) as err:
        fg.make_group(q8.table)
    assert err.value.size == 192
    monkeypatch.setenv("COVLAB_ENUM_CAP", "192")
    assert fg.make_group(q8.table) == q8
    monkeypatch.setenv("COVLAB_ENUM_CAP", "124")
    with pytest.raises(SearchSpaceTooLarge) as err:
        fg.make_group(LOOP5)
    assert err.value.size == 125
    monkeypatch.setenv("COVLAB_ENUM_CAP", "125")
    with pytest.raises(fg.CheckFailed) as exc:
        fg.make_group(LOOP5)
    assert exc.value.report == fg.Report(False, "NotAssociative",
                                         oracles.first_non_associative(LOOP5))


def _central_loop(rng, G, m, kind):
    """(a, g)(c, h) = (a + c + theta(g, h) mod m, gh) on Z_m x G, relabelled
    at random.  It is a loop for every theta with theta(1, h) = theta(g, 1)
    = 0, and a group exactly when theta is a 2-cocycle: so for theta zero
    or a coboundary, and seldom for a random theta."""
    n = G.order
    f = [0] + [rng.randrange(m) for _ in range(n - 1)]
    theta = [[{"zero": 0, "coboundary": (f[g] + f[h] - f[G.mul(g, h)]) % m,
               "random": rng.randrange(m) if g and h else 0}[kind]
              for h in G.elements()] for g in G.elements()]
    table = fg.table_on([(a, g) for a in range(m) for g in G.elements()],
                        lambda x, y: ((x[0] + y[0] + theta[x[1]][y[1]]) % m,
                                      G.mul(x[1], y[1])))
    lab = list(range(m * n))
    rng.shuffle(lab)
    out = [[0] * (m * n) for _ in lab]
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            out[lab[i]][lab[j]] = lab[v]
    return out, lab[0]


def test_light_associativity_test_matches_the_full_scan_on_loops():
    rng = random.Random(20)
    groups = [fg.standard_group(name) for name in sorted(fg._STANDARD) if name != "1"]
    shapes = [(G, m) for G in groups for m in (2, 3, 4) if 4 <= m * G.order <= 24]
    outcomes = set()
    for _ in range(240):
        G, m = rng.choice(shapes)
        table, e = _central_loop(rng, G, m, rng.choice(["zero", "coboundary", "random"]))
        if e != 0:  # the loop's identity is e; a table must list it first
            with pytest.raises(fg.CheckFailed) as exc:
                fg.make_group(table)
            assert exc.value.report == fg.Report(False, "IdentityNotFirst", (e,))
        lab = list(range(len(table)))  # the same loop with the labels 0 and e swapped
        lab[0], lab[e] = e, 0
        rows = [[lab[table[lab[i]][lab[j]]] for j in range(len(lab))]
                for i in range(len(lab))]
        witness = oracles.first_non_associative(rows)
        if witness is None:
            assert [list(row) for row in fg.make_group(rows).table] == rows
        else:
            with pytest.raises(fg.CheckFailed) as exc:
                fg.make_group(rows)
            assert exc.value.report == fg.Report(False, "NotAssociative", witness)
        outcomes.add(witness is None)
    assert outcomes == {True, False}


def test_make_group_refuses_an_identity_off_index_zero():
    # Z2 and Z3 written with the identity at index 1 and 2: their labels are
    # not the group's, so they are refused rather than relabelled
    for table, e in (([[1, 0], [0, 1]], 1), ([[1, 2, 0], [2, 0, 1], [0, 1, 2]], 2)):
        with pytest.raises(fg.CheckFailed) as exc:
            fg.make_group(table)
        assert exc.value.report == fg.Report(False, "IdentityNotFirst", (e,))
    # a table without an identity is still NoIdentity
    with pytest.raises(fg.CheckFailed) as exc:
        fg.make_group([[1, 0], [1, 0]])
    assert exc.value.report == fg.Report(False, "NoIdentity", ())


def test_z4_element_orders():
    g = fg.cyclic(4)
    assert g.element_order(1) == 4
    assert g.order_profile() == (1, 2, 4, 4)


def test_group_axioms_by_exhaustive_scan():
    for name in ("Z2", "Z3", "Z4", "Z2xZ2", "S3", "Q8"):
        g = fg.standard_group(name)
        n = g.order
        assert all(g.mul(0, x) == x and g.mul(x, 0) == x for x in range(n))
        for x, y, z in itertools.product(range(n), repeat=3):
            assert g.mul(g.mul(x, y), z) == g.mul(x, g.mul(y, z))
        for x in range(n):
            assert g.mul(x, g.inv(x)) == 0 and g.mul(g.inv(x), x) == 0


def test_q8_structure():
    q8 = fg.quaternion8()
    assert q8.order_profile() == (1, 2, 4, 4, 4, 4, 4, 4)
    assert len(fg.centre(q8)) < q8.order  # nonabelian
    # i*j = k with the element order 1,-1,i,-i,j,-j,k,-k
    assert q8.mul(2, 4) == 6
    assert q8.mul(4, 2) == 7


def test_centre_examples():
    assert fg.centre(fg.cyclic(4)) == (0, 1, 2, 3)
    assert fg.centre(fg.symmetric3()) == (0,)
    assert fg.centre(fg.quaternion8()) == (0, 1)


def test_centre_is_subgroup():
    for name in ("Z4", "S3", "Q8", "Z2xZ2"):
        g = fg.standard_group(name)
        z = fg.centre(g)
        sub, elems = fg.subgroup(g, z)
        assert elems == z


def test_aut_orders():
    assert fg.compute_aut(fg.cyclic(2)).order == 1
    assert fg.compute_aut(fg.cyclic(3)).order == 2
    assert fg.compute_aut(fg.standard_group("Z2xZ2")).order == 6
    # products with more than one generator: GL(3,2), GL(2,3), Aut(D6) = D6,
    # Aut(Z4 x Z2) = D4 and Aut(Q8 x Z2) of order 192; every perm found
    # must be an automorphism
    z2 = fg.cyclic(2)
    for g, order in [(fg.direct_product(fg.standard_group("Z2xZ2"), z2), 168),
                     (fg.direct_product(fg.cyclic(3), fg.cyclic(3)), 48),
                     (fg.direct_product(fg.symmetric3(), z2), 12),
                     (fg.direct_product(fg.cyclic(4), z2), 8),
                     (fg.direct_product(fg.quaternion8(), z2), 192)]:
        aut = fg.compute_aut(g)
        assert aut.order == order, g.name
        assert all(is_automorphism(g, p) for p in aut.perms), g.name


def test_aut_is_a_group_and_composition_matches_table():
    for name in ("Z3", "Z4", "Z2xZ2", "S3", "Q8"):
        g = fg.standard_group(name)
        aut = fg.compute_aut(g)
        for p in aut.perms:
            assert is_automorphism(g, p)
        assert aut.index == {p: i for i, p in enumerate(aut.perms)}
        for p in aut.perms:
            for q in aut.perms:
                assert fg.compose_perm(p, q) in aut.index
            assert fg.invert_perm(p) in aut.index


def test_aut_record_carries_its_products_and_inner_automorphisms():
    # mul is Aut(A) on its indexes, inner is the hom a -> ad(a) into it,
    # and preimages are its fibres: Z(A) over the identity, cosets of Z(A)
    for name in sorted(fg._STANDARD):
        g = fg.standard_group(name)
        aut = fg.compute_aut(g)
        table = fg.GroupTable(fg.table_on(range(aut.order), aut.mul))
        assert fg.make_group(table.table) == table, name
        for p in range(aut.order):
            assert aut.mul(p, aut.inv(p)) == 0, (name, p)
            for q in range(aut.order):
                assert (aut.perms[aut.mul(p, q)]
                        == fg.compose_perm(aut.perms[p], aut.perms[q])), (name, p, q)
        assert fg.check_hom(fg.GroupHom(g, table, aut.inner)).valid, name
        assert [aut.perms[p] for p in aut.inner] == [fg.inner_perm(g, a)
                                                     for a in g.elements()], name
        centre = fg.centre(g)
        assert aut.preimages[0] == centre, name
        assert len(aut.preimages) == aut.order, name
        for p, fibre in enumerate(aut.preimages):
            assert fibre == tuple(a for a in g.elements() if aut.inner[a] == p), (name, p)
            if fibre:
                assert fibre == tuple(sorted(g.mul(fibre[0], z) for z in centre)), (name, p)


def test_aut_deterministic_ordering():
    g = fg.standard_group("Z2xZ2")
    aut = fg.compute_aut(g)
    assert list(aut.perms) == sorted(aut.perms)
    assert aut.perms[0] == (0, 1, 2, 3)
    assert aut.index_of([0, 1, 2, 3]) == 0
    # 1 -> 0 moves the identity, so it is no automorphism
    with pytest.raises(KeyError) as err:
        aut.index_of((1, 0, 2, 3))
    assert err.value.args == ("(1, 0, 2, 3) is not an automorphism of the group",)


def test_aut_q8_order_24():
    # Aut(Q8) permutes the three axis pairs and twists signs: order 24
    assert fg.compute_aut(fg.quaternion8()).order == 24


def test_aut_s3_is_inner():
    s3 = fg.symmetric3()
    aut = fg.compute_aut(s3)
    assert aut.order == 6
    inner = {fg.inner_perm(s3, a) for a in s3.elements()}
    assert inner == set(aut.perms)


def test_check_hom_examples():
    z2, z4 = fg.cyclic(2), fg.cyclic(4)
    ident = fg.GroupHom(z2, z2, (0, 1))
    assert fg.check_hom(ident).valid

    mod2 = fg.GroupHom(z4, z2, (0, 1, 0, 1))
    assert fg.check_hom(mod2).valid

    bad = fg.GroupHom(z4, z2, (0, 1, 1, 1))
    report = fg.check_hom(bad)
    assert not report.valid
    assert (report.violation, report.witness) == ("NotAHomomorphism", (1, 1))

    moved = fg.check_hom(fg.GroupHom(z2, z2, (1, 0)))
    assert (moved.violation, moved.witness) == ("IdentityNotIdentity", (0, 0))

    for partial in ((0,), (0, 2), (0, -1)):
        with pytest.raises(ValueError, match="^map is not total on the source group$"):
            fg.check_hom(fg.GroupHom(z2, z2, partial))


def test_hom_law_witness_reads_x_major():
    # on Z2xZ2 (generators 1, 2), 3 -> 0 breaks the law at (1, 2), (2, 1),
    # (3, 1) and (3, 2): x-major the first is (1, 2), s-major (2, 1)
    v4 = fg.standard_group("Z2xZ2")
    assert fg.generating_sequence(v4) == oracles.generating_sequence(v4.table) == (1, 2)
    image = (0, 1, 2, 0)
    assert oracles.hom_failure(v4.table, image, v4.mul) == (1, 2)
    report = fg.check_hom(fg.GroupHom(v4, v4, image))
    assert (report.violation, report.witness) == ("NotAHomomorphism", (1, 2))


def test_quotient_q8_by_centre():
    q8 = fg.quaternion8()
    q, proj = fg.quotient(q8, fg.centre(q8))
    assert q.order == 4
    assert q.order_profile() == (1, 2, 2, 2)  # Z2 x Z2
    assert fg.check_hom(proj).valid


def test_subgroup_and_quotient_refuse_subsets_that_are_not_normal_subgroups():
    z4, v4, s3 = fg.cyclic(4), fg.standard_group("Z2xZ2"), fg.symmetric3()
    transposition = next(x for x in s3.elements() if s3.element_order(x) == 2)
    cases = [(z4, (1, 3), "subgroup must contain the identity"),
             (z4, (0, 1), "subset not inverse-closed at 1"),
             (v4, (0, 1, 2), "subset not closed at (1,2)")]
    for g, elems, message in cases:
        for build in (fg.subgroup, fg.quotient):
            with pytest.raises(ValueError) as err:
                build(g, elems)
            assert str(err.value) == message, (build.__name__, elems)
    assert fg.subgroup(s3, (0, transposition))[1] == (0, transposition)
    with pytest.raises(ValueError) as err:
        fg.quotient(s3, (0, transposition))
    assert str(err.value) == "subgroup is not normal"


def test_direct_product_encoding():
    z2, z3 = fg.cyclic(2), fg.cyclic(3)
    g = fg.direct_product(z2, z3)
    assert g.order == 6
    assert len(fg.centre(g)) == g.order  # abelian
    # pair (a, b) encoded as a*3 + b
    assert g.mul(1 * 3 + 2, 1 * 3 + 2) == ((0) * 3 + 1)


def test_cap_exceeded(monkeypatch):
    # Q8's generating sequence is -1, i, j: 1 x 6 x 6 images of equal order
    fg.compute_aut.cache_clear()
    monkeypatch.setenv("COVLAB_ENUM_CAP", "35")
    with pytest.raises(SearchSpaceTooLarge) as err:
        fg.compute_aut(fg.quaternion8())
    assert (err.value.size, err.value.cap) == (36, 35)
    monkeypatch.setenv("COVLAB_ENUM_CAP", "36")
    assert fg.compute_aut(fg.quaternion8()).order == 24


def test_compute_aut_lists_the_identity_first():
    for name in sorted(fg._STANDARD):
        g = fg.standard_group(name)
        assert fg.compute_aut(g).perms[0] == tuple(range(g.order)), name


def test_compute_aut_finds_every_automorphism():
    groups = [fg.standard_group(name) for name in sorted(fg._STANDARD)]
    groups.append(fg.direct_product(fg.cyclic(4), fg.cyclic(2)))
    for g in groups:
        assert list(fg.compute_aut(g).perms) == oracles.automorphisms(g.table), g.name



def test_inverse_table_matches_row_scan():
    for name in sorted(fg._STANDARD):
        g = fg.standard_group(name)
        assert [g.inv(a) for a in g.elements()] \
            == [oracles.inverse(g.table, a) for a in g.elements()], name
    # 1 * 2 = 0 but 2 * 1 = 1: 2 is a right inverse of 1, not a two-sided one
    monoid = fg.GroupTable(((0, 1, 2), (1, 1, 0), (2, 1, 2)))
    assert monoid.inv(0) == oracles.inverse(monoid.table, 0) == 0
    for a in (1, 2):
        for inv in (monoid.inv, lambda x: oracles.inverse(monoid.table, x)):
            with pytest.raises(KeyError) as err:
                inv(a)
            assert err.value.args == (f"element {a} has no two-sided inverse",)


def test_permutation_primitives_match_the_element_loops():
    # compose_perm and inner_perm read table rows; the reference loops index
    # every x and multiply through mul
    for name in sorted(fg._STANDARD):
        g = fg.standard_group(name)
        perms = fg.compute_aut(g).perms
        for p in perms:
            for q in perms:
                assert fg.compose_perm(p, q) == tuple(p[q[x]] for x in range(len(p)))
        for a in g.elements():
            assert fg.inner_perm(g, a) == tuple(g.mul(g.mul(a, x), g.inv(a))
                                                for x in g.elements()), (name, a)


_SHARED_BUILDERS = ("cyclic", "_direct_product", "symmetric3", "quaternion8")


def uncached_standard_group(name):
    """standard_group(name) built afresh: every shared group builder, bound
    in fingroup or held in its registry, is the function it caches for the
    length of the call."""
    uncached = {getattr(fg, b): getattr(fg, b).__wrapped__ for b in _SHARED_BUILDERS}
    with pytest.MonkeyPatch.context() as m:
        for cached, build in uncached.items():
            m.setattr(fg, cached.__name__, build)
        for key, build in fg._STANDARD.items():
            m.setitem(fg._STANDARD, key, uncached.get(build, build))
        return fg.standard_group(name)


def test_group_tables_hash_and_compare_by_table():
    for name in sorted(fg._STANDARD):
        g, fresh = fg.standard_group(name), uncached_standard_group(name)
        assert g is not fresh and g == fresh and hash(g) == hash(fresh) == hash(g.table)
        renamed = fg.GroupTable(g.table, "other")
        assert renamed == g and hash(renamed) == hash(g)
        assert g != g.table
        assert (g == fg.trivial_group()) == (g.order == 1)


def test_shared_groups_equal_their_uncached_builds():
    # each standard group, cover and cover representation is built once per
    # process; an uncached build of the same value equals it and hashes the
    # same, so value caches keyed on it hit
    pairs = [(fg.standard_group(name), uncached_standard_group(name))
             for name in sorted(fg._STANDARD)]
    pairs += [(fg.cyclic(n), fg.cyclic.__wrapped__(n)) for n in range(1, 9)]
    with pytest.raises(TypeError):
        fg.cyclic(2.0)  # as uncached, not the shared Z2
    pairs += [(build(), build.__wrapped__())
              for registry in (models.COVERS, *models.REPS.values())
              for build in registry.values()]
    for shared, fresh in pairs:
        assert fresh is not shared and fresh == shared and hash(fresh) == hash(shared)
    for name in fg._STANDARD:
        assert fg.standard_group(name) is fg.standard_group(name)
    for registry in (models.COVERS, *models.REPS.values()):
        assert all(build() is build() for build in registry.values())
    # tables compare without names, so a product's derived name is fixed
    # before the cache is read, whichever product is built first
    z2, a, b = fg.cyclic(2), fg.cyclic(2, "A"), fg.cyclic(2, "B")
    for first, second in (((z2, z2), (a, b)), ((a, b), (z2, z2))):
        fg._direct_product.cache_clear()
        p1, p2 = fg.direct_product(*first), fg.direct_product(*second)
        assert p1 == p2 and p1 is not p2
        assert (p1.name, p2.name) == tuple(f"{x.name}x{y.name}" for x, y in (first, second))
    assert fg.direct_product(b, a).name == "BxA"
    assert fg.direct_product(a, b) is fg.direct_product(a, b)


def test_direct_product_names_an_unnamed_factor_by_its_order():
    # a product spells an unnamed factor by its order; a quotient has no name
    q, _ = fg.quotient(fg.cyclic(4), (0, 2))
    assert q.name is None
    assert fg.direct_product(q, q).name == "2x2"
    assert fg.direct_product(fg.cyclic(3), q).name == "Z3x2"


def test_cyclic_refuses_orders_below_one_and_non_ints():
    # Z0 would be a table with no identity, and a bool is not an order
    for build in (fg.cyclic, fg.cyclic.__wrapped__):
        for n in (0, -1, -4):
            with pytest.raises(ValueError, match="at least 1"):
                build(n)
        for n in (True, False, 2.0, "2", None):
            with pytest.raises(TypeError, match="must be an int"):
                build(n)


# ---------------------------------------------------------------------------
# the homomorphism law, checked on generators

def checked_witness(g, image, compose):
    """hom_law_witness, required to return the oracle's first pair, to agree
    with a scan of all pairs on validity, and to return only a pair (x, s),
    s a generator, that breaks the law."""
    witness = fg.hom_law_witness(g, image, compose)
    assert witness == oracles.hom_failure(g.table, list(map(image, g.elements())), compose)
    assert (witness is None) == all(image(g.mul(x, y)) == compose(image(x), image(y))
                                    for x in g.elements() for y in g.elements())
    if witness is not None:
        x, s = witness
        assert s in fg.generating_sequence(g)
        assert image(g.mul(x, s)) != compose(image(x), image(s))
    return witness


def test_hom_law_witness_matches_all_pairs_on_random_maps():
    rng = random.Random(1609)
    names = ("1", "Z2", "Z3", "Z4", "Z6", "Z8", "Z2xZ2", "S3", "Q8")
    verdicts = []
    for gn, hn in itertools.product(names, repeat=2):
        g, h = fg.standard_group(gn), fg.standard_group(hn)
        maps = [(0,) * g.order] + [
            (0,) + tuple(rng.randrange(h.order) for _ in range(g.order - 1))
            for _ in range(20)]
        if gn == hn:
            maps += list(fg.compute_aut(g).perms)
            maps += [(0,) + tuple(rng.sample(range(1, g.order), g.order - 1))
                     for _ in range(10)]
        for m in maps:
            hom = checked_witness(g, m.__getitem__, h.mul) is None
            verdicts.append(hom)
            if gn == hn:
                assert is_automorphism(g, m) == (
                    hom and sorted(m) == list(g.elements())), (gn, m)
    assert True in verdicts and False in verdicts


def perturbed(rep, rng):
    """A copy of rep with one entry of one non-identity matrix changed."""
    mats = list(rep.matrices)
    g = rng.randrange(1, rep.group.order)
    rows = [list(r) for r in mats[g].rows]
    i, j = rng.randrange(rep.dim), rng.randrange(rep.dim)
    rows[i][j] = rows[i][j] + 1
    mats[g] = Mat(rows)
    return MatrixRep(rep.group, rep.dim, tuple(mats))


def test_hom_law_witness_matches_all_pairs_on_shipped_reps():
    rng = random.Random(1609)
    reps = [build() for build in models.REPS["q8"].values()]
    reps += [build().dot for build in models.FIELD_FIXTURES.values()]
    verdicts = []
    for rep in reps:
        assert checked_witness(rep.group, rep, Mat.__mul__) is None
        if rep.group.order > 1:
            bad = perturbed(rep, rng)
            verdicts.append(checked_witness(bad.group, bad, Mat.__mul__) is None)
    assert False in verdicts


def _compose_maps(t, u):
    """The (object map, morphism map) of T o U."""
    return ({x: t[0][y] for x, y in u[0].items()},
            {m: t[1][f] for m, f in u[1].items()})


def test_hom_law_witness_matches_all_pairs_on_model_actions():
    # each named model's action and its lift's action, and the same functors
    # reshuffled over the non-identity elements
    rng = random.Random(1609)
    verdicts = []
    for name in sorted(models.NAMED_MODELS):
        impl = models.NAMED_MODELS[name]()
        lifted = lift_to_extension(impl)
        for act in (impl.action, lifted.action):
            maps = [(F.obj_map, F.mor_map) for F in act.functors]
            assert checked_witness(act.group, maps.__getitem__, _compose_maps) is None
            rest = maps[1:]
            rng.shuffle(rest)
            shuffled = [maps[0]] + rest
            verdicts.append(checked_witness(act.group, shuffled.__getitem__,
                                            _compose_maps) is None)
    assert False in verdicts


# ---------------------------------------------------------------------------
# every group table, against the hand-indexed builders `table_on` replaced

HAND_BUILT = {"1": ((0,),), **{f"Z{n}": oracles.cyclic(n) for n in (2, 3, 4, 6, 8)},
              "Z2xZ2": oracles.direct_product(oracles.cyclic(2), oracles.cyclic(2)),
              "S3": oracles.symmetric3(), "Q8": oracles.quaternion8()}


def normal_closures(g):
    """The distinct normal closures of single elements, in element order."""
    found = []
    for x in g.elements():
        sub = fg.closure(g, {g.mul(g.mul(y, x), g.inv(y)) for y in g.elements()})
        if sub not in found:
            found.append(sub)
    return found


def test_table_on_builds_standard_groups_as_the_hand_indexed_builders():
    assert sorted(HAND_BUILT) == sorted(fg._STANDARD)
    for name, table in HAND_BUILT.items():
        assert fg.standard_group(name).table == table, name
    assert fg.trivial_group().name == "1"


def test_table_on_builds_products_subgroups_and_quotients_as_before():
    groups = [fg.standard_group(name) for name in sorted(fg._STANDARD)]
    products = [fg.direct_product(a, b) for a in groups for b in groups]
    for p, (a, b) in zip(products, itertools.product(groups, groups)):
        assert p.table == oracles.direct_product(a.table, b.table), p
    z2q8 = fg.direct_product(fg.cyclic(2), fg.quaternion8())
    assert z2q8.name == "Z2xQ8" and z2q8 in products
    quotients = 0
    for g in groups + products:
        for normal in normal_closures(g):
            sub, elems = fg.subgroup(g, normal)
            assert (sub.table, elems) == (oracles.subgroup(g.table, normal), normal)
            q, proj = fg.quotient(g, normal)
            assert (q.table, proj.map) == oracles.quotient(g.table, normal), (g, normal)
            quotients += 1
    assert quotients == 832


def test_table_on_builds_extensions_as_the_pair_loop():
    cochains = [c for G, A in (("Z2", "Z4"), ("Z2", "S3"), ("Z3", "Z3"))
                for c in enumerate_normalized_cocycles(fg.standard_group(G),
                                                       fg.standard_group(A))]
    cochains += [build().cocycle for build in models.FIELD_FIXTURES.values()]
    cochains += [extract_cocycle(models.NAMED_MODELS[name]())
                 for name in sorted(models.NAMED_MODELS)]
    assert len(cochains) == 6 + 6 + 9 + 6 + 5
    for c in cochains:
        ext = build_extension(c)
        ng, size = c.G.order, c.A.order * c.G.order
        assert (ext.E.table, ext.inclusion.map, ext.projection.map) \
            == (oracles.extension_table(c.G.table, c.A.table, c.xi, c.perms),
                tuple(a * ng for a in c.A.elements()), tuple(e % ng for e in range(size))), c


def test_table_on_raises_key_error_off_the_list():
    assert fg.table_on((0, 1), lambda x, y: x ^ y) == ((0, 1), (1, 0))
    with pytest.raises(KeyError):
        fg.table_on((0, 1), lambda x, y: x + y)


def test_closure_and_generating_sequence_match_the_closing_loop():
    for name in sorted(fg._STANDARD):
        g = fg.standard_group(name)
        for k in range(3):
            for elems in itertools.combinations(g.elements(), k):
                assert fg.closure(g, elems) == oracles.closure(g.table, elems), (name, elems)
        assert fg.generating_sequence(g) == oracles.generating_sequence(g.table), name
