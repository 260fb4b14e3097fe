import itertools

import pytest

import oracles
from covlab import fingroup as fg
from covlab import models
from covlab.cohomology2 import (SearchSpaceTooLarge, coboundary_twist,
                                cohomologous, trivial_cochain, validate_cocycle)
from covlab.covering import (CentralCover, all_sections,
                             check_centre_hom, cyclic_cover, extended_quotient,
                             induced_gauge_cocycle, q8_cover, section_twist,
                             spin_obstruction, split_cover, z_class_trivial,
                             z_cocycle)
from covlab.covariance import compute_gauge_group
from covlab.exactlin import Mat
from covlab.fingroup import GroupHom
from covlab.multiplet import MatrixRep, validate_rep


def test_q8_cover_well_formed():
    cov = q8_cover()
    assert cov.kernel_elements == (0, 1)
    assert cov.K.order == 2


def test_non_central_kernel_rejected():
    s3 = fg.symmetric3()
    z2 = fg.cyclic(2)
    # sign homomorphism S3 -> Z2 has kernel A3, not central
    sign = tuple(0 if s3.element_order(x) in (1, 3) else 1 for x in s3.elements())
    with pytest.raises(ValueError):
        CentralCover(s3, z2, GroupHom(s3, z2, sign))


def test_cover_map_must_run_from_s_onto_l():
    z2, z4 = fg.cyclic(2), fg.cyclic(4)
    cases = [(GroupHom(z2, z2, (0, 1)), "pi must map S onto L"),
             (GroupHom(z4, z4, (0, 1, 2, 3)), "pi must map S onto L"),
             (GroupHom(z4, z2, (0, 0, 0, 0)), "pi is not surjective")]
    for pi, message in cases:
        with pytest.raises(ValueError) as err:
            CentralCover(z4, z2, pi)
        assert str(err.value) == message


def test_section_invariants():
    # all_sections does not re-check what it enumerates; this is the check:
    # every lift is a section with lift(1) = 1, and one is listed for each
    # choice of a kernel coset over every l != 1
    covers = [build() for build in models.COVERS.values()] + [cyclic_cover(8, 2)]
    for cov in covers:
        lifts = all_sections(cov)
        assert len(set(lifts)) == len(lifts) == cov.K.order ** (cov.L.order - 1), cov.S.name
        for lift in lifts:
            assert len(lift) == cov.L.order, (cov.S.name, lift)
            assert lift[0] == 0, (cov.S.name, lift)
            assert all(cov.pi.map[lift[l]] == l for l in cov.L.elements()), (cov.S.name, lift)


def test_all_sections_count():
    cov = q8_cover()
    assert len(all_sections(cov)) == 8
    cov2 = cyclic_cover(4, 2)
    assert len(all_sections(cov2)) == 2


def test_cyclic_cover_refuses_orders_below_one():
    # d = 0 would divide by zero, and m = 0 would build Z0
    for m, d in [(4, 0), (0, 0), (4, -2)]:
        with pytest.raises(ValueError, match="d must be at least 1"):
            cyclic_cover(m, d)
    for m in (0, -4):
        with pytest.raises(ValueError, match="at least 1"):
            cyclic_cover(m, 2)
    with pytest.raises(ValueError, match="d must divide m"):
        cyclic_cover(4, 3)


def test_split_cover_homomorphic_section_gives_trivial_z():
    cov = split_cover(2, fg.cyclic(3))
    lift = tuple(range(cov.L.order))  # l -> (0, l) has index l
    assert lift in all_sections(cov)
    z = z_cocycle(cov, lift)
    assert all(v == 0 for row in z.xi for v in row)
    assert z_class_trivial(z) is not None


def test_cyclic_cover_z4_over_z2():
    cov = cyclic_cover(4, 2)
    for lift in all_sections(cov):
        z = z_cocycle(cov, lift)
        # z(g,g) = lift(g)^2 in the kernel
        g = 1
        expected = cov.S.mul(lift[g], lift[g])
        assert cov.kernel_elements[z.xi[g][g]] == expected
        assert z_class_trivial(z) is None  # nontrivial class


def test_q8_every_section_gives_nontrivial_class():
    cov = q8_cover()
    for lift in all_sections(cov):
        z = z_cocycle(cov, lift)
        assert z_class_trivial(z) is None


def test_z_class_trivial_matches_reference_twist_loop():
    # also: the section twist carries the first section's factor set to
    # every other one, and the twist search agrees they are cohomologous
    covers = [q8_cover(), cyclic_cover(4, 2), cyclic_cover(8, 2),
              cyclic_cover(6, 3), cyclic_cover(9, 3),
              split_cover(2, fg.cyclic(3)), split_cover(3, fg.cyclic(2))]
    trivial = 0
    for cov in covers:
        lifts = all_sections(cov)
        z0 = z_cocycle(cov, lifts[0])
        for lift in lifts:
            z = z_cocycle(cov, lift)
            got = z_class_trivial(z)
            # the first zeta: L -> K in product order that kills z
            assert got == oracles.first_twist(z.G.table, z.A.table, z.xi, z.perms,
                                              oracles.trivial(z.G.table, z.A.table),
                                              normalized=False), (cov.S.name, lift)
            trivial += got is not None
            assert coboundary_twist(z0, section_twist(cov, lifts[0], lift)) == z, \
                (cov.S.name, lift)
            assert cohomologous(z0, z) is not None, (cov.S.name, lift)
    assert trivial > 0


def test_section_twist_names_the_kernel_element_between_lifts():
    cov = q8_cover()
    s0, s = all_sections(cov)[0], all_sections(cov)[-1]
    k = section_twist(cov, s0, s)
    assert k[0] == 0
    assert all(cov.S.mul(cov.kernel_elements[k[l]], s0[l]) == s[l]
               for l in cov.L.elements())
    assert section_twist(cov, s, s) == (0,) * cov.L.order


def test_factor_sets_and_induced_cochains_are_cocycles():
    # z_cocycle and induced_gauge_cocycle do not re-validate their output;
    # this is the check (z is a kernel-valued cocycle), on every shipped
    # cover and both kernel maps of models.KERNEL_MAPS, which cover-z reads
    for name, build in models.COVERS.items():
        cov = build()
        homs = [kernel_map(cov.K) for kernel_map in models.KERNEL_MAPS.values()]
        S, L = cov.S, cov.L
        for lift in all_sections(cov):
            z = z_cocycle(cov, lift)
            assert validate_cocycle(z).valid, (name, lift)
            # each K-index names the kernel element s(l1) s(l0) s(l1 l0)^-1
            assert all(cov.kernel_elements[z.xi[l1][l0]]
                       == S.mul(S.mul(lift[l1], lift[l0]), S.inv(lift[L.mul(l1, l0)]))
                       for l1 in L.elements() for l0 in L.elements()), (name, lift)
            for zeta in homs:
                out = induced_gauge_cocycle(z, zeta)
                assert validate_cocycle(out).valid, (name, lift, zeta.map)


def test_extended_quotient_identifies_the_kernel_involution_with_its_image():
    # the orders in (A x S) / <(zeta(-1), -1)>, read on A x S: (a, s) has
    # the least n with (a, s)^n in {(0, 1), (zeta(-1), -1)}, and each coset
    # holds two pairs of one order
    for name, build in models.COVERS.items():
        cov = build()
        S, amb = cov.S, cov.kernel_elements[1]
        for kernel_map in models.KERNEL_MAPS.values():
            zeta = kernel_map(cov.K)
            A = zeta.target
            kept = {(0, 0), (zeta.map[1], amb)}
            orders = []
            for a in A.elements():
                for s in S.elements():
                    x, n = (a, s), 1
                    while x not in kept:
                        x, n = (A.mul(x[0], a), S.mul(x[1], s)), n + 1
                    orders.append(n)
            q = extended_quotient(cov, zeta)
            assert q.order_profile() == tuple(sorted(orders)[::2]), (name, zeta.map)
    q = extended_quotient(q8_cover(), models.KERNEL_MAPS["flip"](q8_cover().K))
    assert q.order_profile() == fg.quaternion8().order_profile()
    # no distinguished involution in a kernel of order 4
    wide = cyclic_cover(8, 4)
    assert extended_quotient(wide, models.KERNEL_MAPS["flip"](wide.K)) is None
    with pytest.raises(ValueError):
        extended_quotient(q8_cover(), models.KERNEL_MAPS["flip"](wide.K))


def test_section_and_twist_searches_are_capped(monkeypatch):
    cov = q8_cover()
    z = z_cocycle(cov, all_sections(cov)[0])
    monkeypatch.setenv("COVLAB_ENUM_CAP", "4")
    assert z_class_trivial(z) is None
    monkeypatch.setenv("COVLAB_ENUM_CAP", "3")
    with pytest.raises(SearchSpaceTooLarge) as err:
        z_class_trivial(z)  # 2^2 values of zeta on the two generators of L
    assert err.value.size == 4
    monkeypatch.setenv("COVLAB_ENUM_CAP", "8")
    assert len(all_sections(cov)) == 8
    monkeypatch.setenv("COVLAB_ENUM_CAP", "7")
    with pytest.raises(SearchSpaceTooLarge) as err:
        all_sections(cov)  # 2^3 lifts of the three non-identity elements
    assert err.value.size == 8


def test_q8_all_raw_lift_choices_nontrivial():
    # all 2^4 raw lift maps (identity lift unconstrained) still produce
    # kernel-valued factor sets that no twist map kills
    cov = q8_cover()
    S, L = cov.S, cov.L
    kernel = cov.kernel_elements
    fibers = [tuple(s for s in S.elements() if cov.pi.map[s] == l)
              for l in L.elements()]
    ktable = tuple(tuple(kernel.index(S.mul(a, b)) for b in kernel) for a in kernel)
    trivial = oracles.trivial(L.table, ktable)
    count = 0
    for lift in itertools.product(*fibers):
        count += 1
        z = [[S.mul(S.mul(lift[l1], lift[l0]), S.inv(lift[L.mul(l1, l0)]))
              for l0 in L.elements()] for l1 in L.elements()]
        assert all(v in kernel for row in z for v in row)
        xi = [[kernel.index(v) for v in row] for row in z]
        assert oracles.first_twist(L.table, ktable, xi, trivial[1], trivial,
                                   normalized=False) is None
    assert count == 16


def test_q8_z_class_is_section_independent():
    cov = q8_cover()
    lifts = all_sections(cov)
    for s1, s2 in itertools.combinations(lifts, 2):
        c1, c2 = z_cocycle(cov, s1), z_cocycle(cov, s2)
        assert cohomologous(c1, c2) is not None


def test_z_class_section_independent_across_cover_types():
    covers = [cyclic_cover(8, 2), cyclic_cover(6, 3),
              split_cover(2, fg.standard_group("Z2xZ2"))]
    for cov in covers:
        assert cov.L.order <= 8
        lifts = all_sections(cov)
        for s1, s2 in itertools.combinations(lifts, 2):
            assert cohomologous(z_cocycle(cov, s1), z_cocycle(cov, s2)) is not None


def test_induced_cocycle_trivial_zeta():
    cov = q8_cover()
    k = cov.K
    a = fg.cyclic(2)
    zeta = GroupHom(k, a, (0, 0))
    for lift in all_sections(cov):
        out = induced_gauge_cocycle(z_cocycle(cov, lift), zeta)
        assert validate_cocycle(out).valid
        assert cohomologous(out, trivial_cochain(out.G, out.A)) is not None


def test_induced_cocycle_q8_univalence_nontrivial():
    cov = q8_cover()
    k = cov.K
    a = fg.cyclic(2)
    zeta = GroupHom(k, a, (0, 1))  # -1 -> the gauge flip
    for lift in all_sections(cov):
        out = induced_gauge_cocycle(z_cocycle(cov, lift), zeta)
        assert cohomologous(out, trivial_cochain(out.G, out.A)) is None


def test_induced_cocycle_split_cover_trivial_regardless_of_zeta():
    cov = split_cover(2, fg.standard_group("Z2xZ2"))
    k = cov.K
    a = fg.cyclic(2)
    lift = tuple(range(cov.L.order))
    assert lift in all_sections(cov)
    for zeta_map in [(0, 0), (0, 1)]:
        out = induced_gauge_cocycle(z_cocycle(cov, lift),
                                    GroupHom(k, a, zeta_map))
        assert cohomologous(out, trivial_cochain(out.G, out.A)) is not None


def test_induced_cocycle_rejects_noncentral_zeta():
    cov = q8_cover()
    k = cov.K
    s3 = fg.symmetric3()
    transposition = next(x for x in s3.elements() if s3.element_order(x) == 2)
    zeta = GroupHom(k, s3, (0, transposition))
    with pytest.raises(fg.CheckFailed) as exc:
        induced_gauge_cocycle(z_cocycle(cov, all_sections(cov)[0]), zeta)
    assert exc.value.report == check_centre_hom(zeta)
    assert exc.value.report.violation == "NotCentral"


def test_check_centre_hom():
    k = fg.cyclic(2)
    assert check_centre_hom(GroupHom(k, fg.cyclic(4), (0, 2))).valid
    assert check_centre_hom(GroupHom(k, fg.cyclic(4), (0, 0))).valid
    bad_hom = check_centre_hom(GroupHom(k, fg.cyclic(4), (0, 1)))
    assert not bad_hom.valid and bad_hom.violation == "NotAHomomorphism"
    assert bad_hom.witness is not None
    s3 = fg.symmetric3()
    transposition = next(x for x in s3.elements() if s3.element_order(x) == 2)
    noncentral = check_centre_hom(GroupHom(k, s3, (0, transposition)))
    assert not noncentral.valid
    assert noncentral.violation == "NotCentral"
    assert noncentral.witness is not None


def spin_frame_kernel_restriction():
    """The gauge elements implementing the kernel of Z4 -> Z2 in the
    spin-frame model, as a homomorphism from the kernel subgroup."""
    impl = models.spin_frame_model()
    gauge = compute_gauge_group(impl.functor)
    kernel_elems = (0, 2)
    k_table, _ = fg.subgroup(impl.action.group, kernel_elems)
    mapping = []
    for k in kernel_elems:
        fam = tuple(impl.eta[k][x] for x in gauge.objects)
        mapping.append(gauge.index_of(fam))
    return k_table, gauge, GroupHom(k_table, gauge.table, tuple(mapping))


def test_spin_frame_model_kernel_restriction_is_central_hom():
    k_table, gauge, mapping = spin_frame_kernel_restriction()
    report = check_centre_hom(mapping)
    assert report.valid
    # the nonidentity kernel element lands on an involutive central element
    img = mapping.map[1]
    assert img != 0
    assert gauge.table.mul(img, img) == 0


def test_spin_obstruction_q8():
    cov = q8_cover()
    zeta = GroupHom(cov.K, fg.cyclic(2), (0, 1))
    two_dim = models.q8_two_dim_rep()
    verdict = spin_obstruction(cov, zeta, two_dim)
    assert not verdict.descends
    assert verdict.obstruction_witness == 1  # the central -1
    assert verdict.model_consistent

    for axis in "1ijk":
        v = spin_obstruction(cov, zeta, models.q8_sign_rep(axis))
        assert v.descends
        assert v.descended is not None and v.descended.group == cov.L


def test_descended_maps_are_representations():
    # spin_obstruction does not re-validate what it descends; this is the check
    cov = q8_cover()
    descended = 0
    for name, build in models.REPS["q8"].items():
        for zeta_map in ((0, 0), (0, 1)):
            zeta = GroupHom(cov.K, fg.cyclic(2), zeta_map)
            verdict = spin_obstruction(cov, zeta, build())
            if verdict.descends:
                descended += 1
                assert validate_rep(verdict.descended).valid, (name, zeta_map)
    assert descended == 4 * 2  # the four sign reps


def test_descent_matches_the_lift_of_every_section():
    # spin_obstruction descends along the least preimages; once the kernel
    # acts trivially, the lift of every section gives the same matrices
    split = split_cover(2, fg.standard_group("Z2xZ2"))
    n = split.L.order
    characters = [lambda e: 1, lambda e: (-1) ** (e % n // 2),
                  lambda e: (-1) ** (e % 2), lambda e: (-1) ** (e // n)]
    cases = [(q8_cover(), build()) for build in models.REPS["q8"].values()]
    cases += [(split, MatrixRep(split.S, 1, tuple(Mat([[chi(e)]])
                                                  for e in split.S.elements())))
              for chi in characters]
    checked = 0
    for cov, rep in cases:
        zeta = GroupHom(cov.K, fg.cyclic(2), (0,) * cov.K.order)
        verdict = spin_obstruction(cov, zeta, rep)
        if not verdict.descends:
            continue
        for lift in all_sections(cov):
            assert verdict.descended.matrices == tuple(
                rep(lift[l]) for l in cov.L.elements()), (cov.S.name, lift)
            checked += 1
    assert checked == 4 * 8 + 3 * 8  # the sign reps of Q8; the K-trivial characters


def test_spin_obstruction_trivial_zeta_inconsistency_flag():
    cov = q8_cover()
    trivial_zeta = GroupHom(cov.K, fg.cyclic(2), (0, 0))
    verdict = spin_obstruction(cov, trivial_zeta, models.q8_two_dim_rep())
    assert not verdict.descends
    assert not verdict.model_consistent  # trivial univalence but no descent


def test_spin_obstruction_refuses_zeta_off_the_kernel_group():
    zeta = GroupHom(fg.cyclic(3), fg.cyclic(2), (0, 0, 0))
    with pytest.raises(ValueError, match="zeta is not defined on the kernel group"):
        spin_obstruction(q8_cover(), zeta, models.q8_two_dim_rep())


def test_maps_and_representations_on_another_group_are_refused():
    cov = q8_cover()
    z = z_cocycle(cov, all_sections(cov)[0])
    off_kernel = GroupHom(fg.cyclic(3), fg.cyclic(2), (0, 0, 0))
    with pytest.raises(ValueError, match="^zeta is not defined on the kernel group$"):
        induced_gauge_cocycle(z, off_kernel)
    zeta = GroupHom(cov.K, fg.cyclic(2), (0, 1))
    on_base = MatrixRep(cov.L, 1, tuple(Mat([[1]]) for _ in cov.L.elements()))
    with pytest.raises(ValueError,
                       match="^representation is not defined on the covering group$"):
        spin_obstruction(cov, zeta, on_base)


def test_descends_iff_kernel_in_rep_kernel():
    cov = q8_cover()
    zeta = GroupHom(cov.K, fg.cyclic(2), (0, 1))
    reps = [models.q8_two_dim_rep()] + [models.q8_sign_rep(a) for a in "1ijk"]
    for rep in reps:
        verdict = spin_obstruction(cov, zeta, rep)
        kernel_trivial = all(rep(amb) == Mat.identity(rep.dim)
                             for amb in cov.kernel_elements)
        assert verdict.descends == kernel_trivial


def test_split_cover_descent():
    cov = split_cover(2, fg.cyclic(2))
    zeta = GroupHom(cov.K, fg.cyclic(2), (0, 0))
    # rep of K x L trivial on K descends
    mats = tuple(Mat([[1 if (e % 2 == 0) else -1]]) for e in range(cov.S.order))
    rep = MatrixRep(cov.S, 1, mats)
    verdict = spin_obstruction(cov, zeta, rep)
    assert verdict.descends
