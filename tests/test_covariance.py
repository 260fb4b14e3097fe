import collections
import itertools
import random

import pytest

import oracles
from covlab import fingroup as fg
from covlab import covariance, fincat
from covlab import models
from covlab.cohomology2 import (SearchSpaceTooLarge, coboundary_twist,
                                cohomologous, validate_cocycle)
from covlab.covariance import (Implementation, _unnatural,
                               active_passive_compose, compare_implementations,
                               compute_gauge_group, extract_cocycle,
                               lift_to_extension, twist_implementation,
                               validate_implementation)
from covlab.extension import build_extension
from covlab.fincat import (FinCat, GAction, TheoryFunctor, decorated_frames_category,
                           frame_mid, group_as_category, identity_functor,
                           validate_fincat, validate_functor, validate_gaction)
from covlab.fingroup import Report


def _gauge_component(gauge, idx, obj):
    """The component at obj of the gauge element idx."""
    return gauge.families[idx][gauge.position[obj]]


def _cat(cat):
    """A category as the oracles read it."""
    return (tuple(cat.objects), {m: (d, c) for m, d, c in cat.morphisms},
            dict(cat.compose_table), dict(cat.identities))


def _functor(F):
    """A theory functor as the oracles read it."""
    return _cat(F.source), _cat(F.target), dict(F.obj_map), dict(F.mor_map)


def _implementation(impl):
    """An implementation as the oracles read it: (functor, G, action, eta)."""
    return (_functor(impl.functor), impl.action.group.table,
            [(T.obj_map, T.mor_map) for T in impl.action.functors],
            [dict(fam) for fam in impl.eta])


def test_one_object_category_valid():
    cat = group_as_category(fg.cyclic(4))
    assert validate_fincat(cat).valid
    assert oracles.invertible_endos(_cat(cat), "*") == ("r0", "r1", "r2", "r3")


def test_category_ids_are_kept_as_given():
    # an int id is not turned into a string, in a record or anywhere else
    cat = FinCat(["a"], [(0, "a", "a")], {(0, 0): 0}, {"a": 0})
    assert cat.morphisms == ((0, "a", "a"),)
    assert validate_fincat(cat) == Report(True)
    cat = FinCat([0], [("i", 0, 0)], {("i", "i"): "i"}, {0: "i"})
    assert (cat.dom, cat.cod) == ({"i": 0}, {"i": 0})
    assert validate_fincat(cat) == Report(True)
    # the tables are sorted by id, so the object ids share one type, and so
    # do the arrow ids
    with pytest.raises(ValueError, match="^object ids mix types: int, str$"):
        FinCat(["a", 0], [(0, "a", "a"), ("x", 0, 0)], {}, {"a": 0, 0: "x"})
    with pytest.raises(ValueError, match="^arrow ids mix types: int, str$"):
        FinCat(["a"], [(0, "a", "a"), ("x", "a", "a")], {}, {"a": 0})


def test_missing_composite_detected():
    cat = group_as_category(fg.cyclic(2))
    broken = FinCat(cat.objects, cat.morphisms,
                    {k: v for k, v in cat.compose_table.items()
                     if k != ("r1", "r1")},
                    cat.identities)
    rep = validate_fincat(broken)
    assert not rep.valid
    assert rep.violation == "MissingComposite"
    assert rep.witness == ("r1", "r1")


def test_shipped_categories_satisfy_the_category_laws():
    cats = [(name, cat) for name in sorted(models.NAMED_MODELS)
            for F in [models.NAMED_MODELS[name]().functor] for cat in (F.source, F.target)]
    cats += [((n, deco.name), decorated_frames_category(n, deco))
             for n, deco in ((4, fg.trivial_group()), (4, fg.cyclic(2)), (2, fg.cyclic(4)))]
    for label, cat in cats:
        assert validate_fincat(cat) == Report(True), label


def test_each_category_law_names_its_first_witness():
    # one edit each to the frames category on F0, F1 with Z2 decorations:
    # a composite set, added or (None) deleted, or the identities replaced;
    # `loop` is the decorated loop at F0 twice, whose composite is m0<0:0
    cat = decorated_frames_category(2, fg.cyclic(2))
    comp, ids = cat.compose_table, cat.identities
    loop = (frame_mid(0, 0, 1), frame_mid(0, 0, 1))
    cases = [
        ({}, {"F0": "m0<0:0"}, "MissingIdentity", ("F1",)),
        ({}, {**ids, "F1": "m1<0:0"}, "BadIdentity", ("F1", "m1<0:0")),
        ({loop: "zz"}, ids, "UnknownMorphism", loop + ("zz",)),
        ({("m0<0:0", "m1<1:0"): "m0<1:0"}, ids, "NotComposable", ("m0<0:0", "m1<1:0")),
        ({loop: "m1<0:0"}, ids, "BadCompositeShape", loop + ("m1<0:0",)),
        ({("m1<0:1", "m0<1:1"): None}, ids, "MissingComposite", ("m1<0:1", "m0<1:1")),
        ({("m0<0:1", "m0<0:0"): "m0<0:0"}, ids, "IdentityLaw", ("m0<0:1", "m0<0:0")),
        ({("m0<0:0", "m0<0:1"): "m0<0:0"}, ids, "IdentityLaw", ("m0<0:0", "m0<0:1")),
        ({loop: "m0<0:1"}, ids, "NotAssociative", ("m0<0:1", "m0<0:1", "m0<1:0")),
    ]
    assert validate_fincat(cat) == Report(True)
    for edit, identities, violation, witness in cases:
        table = {k: v for k, v in {**comp, **edit}.items() if v is not None}
        broken = FinCat(cat.objects, cat.morphisms, table, identities)
        assert validate_fincat(broken) == Report(False, violation, witness), violation


def test_functor_into_a_target_that_is_no_category_is_refused():
    # a target missing the composite s1 o s1, or every identity, is refused
    # with the first failing functor law, not a bare KeyError
    source = group_as_category(fg.cyclic(2))
    target = group_as_category(fg.cyclic(2), prefix="s")
    maps = ({"*": "*"}, {"r0": "s0", "r1": "s1"})
    no_composite = FinCat(target.objects, target.morphisms,
                          {k: v for k, v in target.compose_table.items()
                           if k != ("s1", "s1")}, target.identities)
    no_identities = FinCat(target.objects, target.morphisms, target.compose_table, {})
    for broken, report in (
            (no_composite, Report(False, "CompositionNotPreserved", ("r1", "r1"))),
            (no_identities, Report(False, "IdentityNotPreserved", ("*",)))):
        with pytest.raises(fg.CheckFailed) as exc:
            TheoryFunctor(source, broken, *maps)
        assert exc.value.report == report


def test_arrow_ending_off_the_objects_is_refused():
    # built, such a category made validate_functor raise a bare KeyError
    with pytest.raises(ValueError, match="'f' ends off the objects: 'a' -> 'b'"):
        FinCat(["a"], [("ida", "a", "a"), ("f", "a", "b")],
               {("ida", "ida"): "ida"}, {"a": "ida"})
    with pytest.raises(ValueError, match="'f' ends off the objects: 'b' -> 'a'"):
        FinCat(["a"], [("ida", "a", "a"), ("f", "b", "a")],
               {("ida", "ida"): "ida"}, {"a": "ida"})


def test_repeated_ids_are_refused():
    ident = [("ida", "a", "a")]
    with pytest.raises(ValueError, match="^duplicate morphism ids$"):
        FinCat(["a"], ident + [("ida", "a", "a")], {("ida", "ida"): "ida"}, {"a": "ida"})
    with pytest.raises(ValueError, match="^duplicate object ids$"):
        FinCat(["a", "a"], ident, {("ida", "ida"): "ida"}, {"a": "ida"})


def test_hom_index_matches_morphism_scan():
    # two parallel arrows a -> b, listed out of id order, and nothing b -> a
    arrows = FinCat(["a", "b"],
                    [("z", "a", "b"), ("ida", "a", "a"), ("idb", "b", "b"),
                     ("f", "a", "b")],
                    {("ida", "ida"): "ida", ("idb", "idb"): "idb",
                     ("f", "ida"): "f", ("z", "ida"): "z",
                     ("idb", "f"): "f", ("idb", "z"): "z"},
                    {"a": "ida", "b": "idb"})
    assert validate_fincat(arrows).valid
    cats = [("arrows", arrows)]
    for name in sorted(models.NAMED_MODELS):
        functor = models.NAMED_MODELS[name]().functor
        cats += [(name, functor.source), (name, functor.target)]
    for label, cat in cats:
        plain = _cat(cat)
        for x in cat.objects:
            for y in cat.objects:
                assert cat.hom(x, y) == oracles.hom(plain, x, y), (label, x, y)
        for m, _, _ in cat.morphisms:
            assert cat.inverse(m) == oracles.arrow_inverse(plain, m), (label, m)
    assert arrows.hom("a", "b") == ("f", "z")
    assert arrows.hom("b", "a") == ()
    assert arrows.inverse("f") is None


def test_swap_action_is_valid_gaction():
    impl = models.swap_model()
    assert validate_gaction(impl.action).valid
    assert validate_implementation(impl).valid


def test_gauge_group_one_object_z4():
    impl = models.one_object_cyclic_model()
    gauge = compute_gauge_group(impl.functor)
    assert gauge.order == 4
    assert gauge.table.order_profile() == (1, 2, 4, 4)


def test_gauge_group_search_is_capped(monkeypatch):
    compute_gauge_group.cache_clear()
    functor = models.one_object_cyclic_model().functor
    monkeypatch.setenv("COVLAB_ENUM_CAP", "3")
    with pytest.raises(SearchSpaceTooLarge) as err:
        compute_gauge_group(functor)
    assert err.value.size == 4
    # the same bound covers make_group's 4^3 associativity triples
    monkeypatch.setenv("COVLAB_ENUM_CAP", "63")
    with pytest.raises(SearchSpaceTooLarge) as err:
        compute_gauge_group(functor)
    assert err.value.size == 64
    monkeypatch.setenv("COVLAB_ENUM_CAP", "64")
    assert compute_gauge_group(functor).order == 4


def test_shared_categories_equal_their_uncached_builds():
    # each category value is built once per process; an uncached build of the
    # same value equals it and hashes the same, so value caches keyed on it hit
    builds = [(group_as_category, (fg.cyclic(4),), {"prefix": "r"}),
              (group_as_category, (fg.symmetric3(),), {"prefix": "s"}),
              (decorated_frames_category, (4, fg.trivial_group()), {}),
              (decorated_frames_category, (4, fg.cyclic(2)), {}),
              (decorated_frames_category, (2, fg.cyclic(4)), {})]
    for build, args, kwargs in builds:
        shared = build(*args, **kwargs)
        assert build(*args, **kwargs) is shared
        fresh = build.__wrapped__(*args, **kwargs)
        assert fresh is not shared and fresh == shared and hash(fresh) == hash(shared)


def test_separate_builds_share_one_functor_value_and_gauge_group():
    for name in sorted(models.NAMED_MODELS):
        f1 = models.NAMED_MODELS[name]().functor
        f2 = models.NAMED_MODELS[name]().functor
        assert f1 is not f2, name
        assert f1 == f2 and hash(f1) == hash(f2), name
        # SwapIso writes its category out in its builder; the others share one
        assert (f1.source is f2.source) == (name != "SwapIso"), name
        assert f1.source == f2.source and hash(f1.source) == hash(f2.source), name
        assert compute_gauge_group(f1) is compute_gauge_group(f2), name


@pytest.mark.parametrize("name", sorted(models.NAMED_MODELS))
def test_each_build_checks_its_functor_and_implementation(name, monkeypatch):
    # the shared categories and frame-shift actions are checked once per
    # process; a model's own functor and implementation on every build
    models.NAMED_MODELS[name]()
    calls = collections.Counter()

    def count(module, fn):
        real = getattr(module, fn)
        monkeypatch.setattr(module, fn, lambda *args: calls.update((fn,)) or real(*args))
    count(fincat, "validate_functor")
    count(fincat, "validate_gaction")
    count(covariance, "validate_implementation")
    models.NAMED_MODELS[name]()
    assert calls["validate_functor"] >= 1
    assert calls["validate_implementation"] == 1
    if name in ("FrameRot", "SpinFrame"):
        assert calls["validate_gaction"] == 0


def test_category_differing_in_one_composite_is_unequal():
    cat = group_as_category(fg.cyclic(3))
    same = FinCat(cat.objects, cat.morphisms, cat.compose_table, cat.identities)
    assert same == cat and hash(same) == hash(cat)
    table = dict(cat.compose_table)
    table[("r1", "r1")] = "r0"
    changed = FinCat(cat.objects, cat.morphisms, table, cat.identities)
    assert changed != cat
    functor = identity_functor(cat)
    maps = (functor.obj_map, functor.mor_map)
    assert TheoryFunctor(cat, cat, *maps) == functor
    assert TheoryFunctor(changed, changed, *maps) != functor


def test_gauge_group_discrete_source_naturality_vacuous():
    # one object, no nonidentity arrows in the source: every invertible endo
    # of the image object is natural, so the gauge group is the full Z4
    target = group_as_category(fg.cyclic(4))
    source = FinCat(["pt"], [("idpt", "pt", "pt")],
                    {("idpt", "idpt"): "idpt"}, {"pt": "idpt"})
    assert validate_fincat(source).valid
    functor = TheoryFunctor(source, target, {"pt": "*"}, {"idpt": "r0"})
    gauge = compute_gauge_group(functor)
    assert gauge.order == 4
    assert gauge.table.order_profile() == (1, 2, 4, 4)


def test_gauge_families_list_the_identity_first_then_lexicographically():
    # two points, both sent to the one object of B(Z4): all 16 families are
    # natural, and ordering them by the reversed tuple would differ
    target = group_as_category(fg.cyclic(4))
    source = FinCat(["p", "q"], [("idp", "p", "p"), ("idq", "q", "q")],
                    {("idp", "idp"): "idp", ("idq", "idq"): "idq"},
                    {"p": "idp", "q": "idq"})
    functor = TheoryFunctor(source, target, {"p": "*", "q": "*"},
                            {"idp": "r0", "idq": "r0"})
    gauge = compute_gauge_group(functor)
    families, table = oracles.gauge_group(_functor(functor))
    assert len(families) == 16 and families[:3] == [("r0", "r0"), ("r0", "r1"), ("r0", "r2")]
    assert (gauge.families, gauge.table.table) == (tuple(families), table)


def test_gauge_group_trivial_for_nonabelian_endos():
    # natural automorphisms of the identity functor on B(S3) = centre(S3) = 1
    cat = group_as_category(fg.symmetric3(), prefix="s")
    gauge = compute_gauge_group(identity_functor(cat))
    assert gauge.order == 1


def test_gauge_group_centralizer_constrained_across_isomorphic_objects():
    # two frames joined by invertible arrows with Z4 decorations: any natural
    # family must take equal decorations on both objects
    impl = models.spin_frame_model()
    gauge = compute_gauge_group(impl.functor)
    assert gauge.order == 4
    for fam in gauge.families:
        decos = {m.split(":")[1] for m in fam}
        assert len(decos) == 1


def test_identity_implementation_extracts_trivial_cocycle():
    impl = models.one_object_cyclic_model(power=0)
    c = extract_cocycle(impl)
    assert all(v == 0 for row in c.xi for v in row)
    assert all(p == 0 for p in c.phi)


def test_z4_model_extraction():
    impl = models.one_object_cyclic_model(power=1)
    c = extract_cocycle(impl)
    assert validate_cocycle(c).valid and c.is_normalized()
    # xi(g,g) = r^2, phi = ad(r) = id on the abelian gauge group
    assert c.xi[1][1] == 2
    assert c.phi == (0, 0)
    # the class is trivial, witness zeta(g) = r
    from covlab.cohomology2 import trivial_cochain
    w = cohomologous(trivial_cochain(c.G, c.A), c)
    assert w == (0, 1)


def test_naturality_violation_detected():
    impl = models.swap_model()
    with pytest.raises(ValueError, match="implementation invalid"):
        Implementation(impl.functor, impl.action,
                              [impl.eta[0], {"X": "u", "Y": "u"}])


def test_implementation_with_eta_not_identity_at_1_rejected():
    impl = models.one_object_cyclic_model()
    with pytest.raises(ValueError, match="IdentityFamilyNotIdentity"):
        Implementation(impl.functor, impl.action,
                              [{"*": "r1"}, {"*": "r1"}])


def test_naturality_violation_names_the_element_and_morphism():
    # eta(1) = s1 on B(S3) under a trivial Z2 action: s1 commutes with no
    # other transposition, so the square at s2 is the first that fails
    ident = identity_functor(group_as_category(fg.symmetric3(), prefix="s"))
    with pytest.raises(ValueError) as err:
        Implementation(ident, GAction(fg.cyclic(2), (ident, ident)),
                       [{"*": "s0"}, {"*": "s1"}])
    assert str(err.value) == "implementation invalid: NotNatural (1, 's2')"


def test_index_of_refuses_a_family_that_is_not_natural():
    gauge = compute_gauge_group(
        identity_functor(group_as_category(fg.symmetric3(), prefix="s")))
    assert gauge.index_of(("s0",)) == 0
    with pytest.raises(KeyError, match="not a natural automorphism"):
        gauge.index_of(("s1",))


def _identity_family_impl(functor, group):
    """eta(g) = id for every g of `group`, acting trivially on the source."""
    ident = identity_functor(functor.source)
    fam = {x: functor.target.identities[functor.obj_map[x]] for x in functor.source.objects}
    return Implementation(functor, GAction(group, (ident,) * group.order),
                          [fam] * group.order)


def test_implementations_of_different_theories_are_refused():
    swap = models.swap_model()
    cat = swap.functor.source
    ident = identity_functor(cat)
    flip = TheoryFunctor(cat, cat, {"X": "Y", "Y": "X"},
                         {"idX": "idY", "idY": "idX", "u": "v", "v": "u"})
    z2 = fg.cyclic(2)
    cases = [
        (models.one_object_cyclic_model(), swap, "live on different categories"),
        (_identity_family_impl(ident, z2), _identity_family_impl(flip, z2),
         "are of different theory functors"),
        (_identity_family_impl(ident, fg.trivial_group()),
         _identity_family_impl(ident, z2), "are for different acting groups"),
        (_identity_family_impl(ident, z2), swap, "are for different group actions"),
    ]
    for i1, i2, message in cases:
        with pytest.raises(ValueError) as err:
            compare_implementations(i1, i2)
        assert str(err.value) == f"implementations {message}"


def test_implementation_of_an_action_on_another_category_rejected():
    impl = models.swap_model()
    z2 = fg.cyclic(2)
    elsewhere = GAction(z2, (identity_functor(group_as_category(z2)),) * 2)
    with pytest.raises(ValueError) as err:
        Implementation(impl.functor, elsewhere, impl.eta)
    assert str(err.value) == "implementation invalid: ActionCategoryMismatch ()"


def test_component_at_an_object_the_source_lacks_is_refused():
    swap = models.swap_model()
    for g in (0, 1):
        eta = list(swap.eta)
        eta[g] = dict(eta[g], Z="junk")
        with pytest.raises(ValueError) as err:
            Implementation(swap.functor, swap.action, eta)
        assert str(err.value) == (
            f"implementation invalid: FamilyAtUnknownObject ({g}, 'Z')")


def test_family_missing_an_element_or_an_object_is_refused():
    swap = models.swap_model()
    cases = [(swap.eta[:1], "FamilyPerElementMissing (1,)"),
             ((swap.eta[0], {"Y": "v"}), "FamilyNotTotal (1, 'X')")]
    for eta, failure in cases:
        with pytest.raises(ValueError) as err:
            Implementation(swap.functor, swap.action, eta)
        assert str(err.value) == f"implementation invalid: {failure}"


def test_component_that_names_no_morphism_is_refused():
    m = models.NAMED_MODELS["Z4Rot"]()
    with pytest.raises(ValueError) as err:
        Implementation(m.functor, m.action, [{"*": "r0"}, {"*": "bogus"}])
    assert str(err.value) == "implementation invalid: ComponentShape (1, '*')"


def test_compare_implementations_identity():
    impl = models.one_object_cyclic_model()
    w = compare_implementations(impl, impl)
    assert w == (0, 0)


def test_compare_r_and_r3_models():
    i1 = models.one_object_cyclic_model(power=1)
    i2 = models.one_object_cyclic_model(power=3)
    w = compare_implementations(i1, i2)
    # zeta(g) = r^3 * r^-1 = r^2
    assert w == (0, 2)
    c1, c2 = extract_cocycle(i1), extract_cocycle(i2)
    assert coboundary_twist(c1, w) == c2


def test_random_gauge_twists_recover_witness():
    rng = random.Random(11)
    impls = [models.one_object_cyclic_model(), models.swap_model(),
             models.spin_frame_model()]
    for base in impls:
        gauge = compute_gauge_group(base.functor)
        for _ in range(6):
            zeta = tuple([0] + [rng.randrange(gauge.order)
                                for _ in range(base.action.group.order - 1)])
            other = twist_implementation(base, zeta)
            assert validate_implementation(other).valid
            w = compare_implementations(base, other)
            assert coboundary_twist(extract_cocycle(base), w) \
                == extract_cocycle(other)


def test_lift_to_extension_neutral():
    for impl in (models.one_object_cyclic_model(),
                 models.one_object_cyclic_model(power=2),
                 models.spin_frame_model()):
        lifted = lift_to_extension(impl)
        ec = extract_cocycle(lifted)
        assert all(v == 0 for row in ec.xi for v in row)


def _point_into_s3_model(eta1: int):
    """One object whose only morphism is its identity, mapped into B(S3);
    Z2 acts trivially and eta(1) is the S3 element `eta1`.  The gauge group
    is S3, so a lift that composes with a^-1 in place of a shows."""
    point = group_as_category(fg.trivial_group(), prefix="e")
    bs3 = group_as_category(fg.symmetric3(), prefix="s")
    functor = TheoryFunctor(point, bs3, {"*": "*"}, {"e0": "s0"})
    action = GAction(fg.cyclic(2), (identity_functor(point),) * 2)
    return Implementation(functor, action, [{"*": "s0"}, {"*": f"s{eta1}"}])


def _criterion_4_fixtures():
    """Z4Rot at each power, the other named models and the two B(S3) point
    models, by label."""
    fixtures = {f"Z4Rot[p={p}]": models.one_object_cyclic_model(p) for p in range(4)}
    return {**fixtures, "SwapIso": models.swap_model(), "SpinFrame": models.spin_frame_model(),
            "FrameRot": models.frame_rotation_model()[0],
            "PtS3[eta1=3]": _point_into_s3_model(3),   # eta(1) a 3-cycle
            "PtS3[eta1=1]": _point_into_s3_model(1)}   # eta(1) a transposition


def test_point_into_s3_model_has_a_nonabelian_gauge_group():
    for impl in (_point_into_s3_model(3), _point_into_s3_model(1)):
        gauge = compute_gauge_group(impl.functor)
        assert gauge.order == 6 and len(fg.centre(gauge.table)) < 6  # nonabelian
        assert build_extension(extract_cocycle(impl)).E.order == 12


def test_gauge_table_is_named_aut_id_exactly_for_an_identity_functor():
    # the label is read off the functor's maps: extract-cocycle reports it
    bz4 = group_as_category(fg.cyclic(4))
    swap = models.swap_model().action.functors[1]
    functors = {name: (models.NAMED_MODELS[name]().functor, name != "FrameRot")
                for name in sorted(models.NAMED_MODELS)}
    functors.update({
        "PtS3": (_point_into_s3_model(1).functor, False),
        "swap": (swap, False),
        "built": (TheoryFunctor(bz4, bz4, {"*": "*"}, {m: m for m in bz4.dom}), True)})
    for label, (F, identity) in functors.items():
        assert fincat.is_identity_functor(F) is identity, label
        assert compute_gauge_group(F).table.name == ("Aut(Id)" if identity else "Aut(A)"), label


def test_extracted_cocycles_are_valid_and_normalized():
    # extract_cocycle does not re-validate its output; this is the check
    for label, impl in _criterion_4_fixtures().items():
        c = extract_cocycle(impl)
        assert validate_cocycle(c).valid, label
        assert c.is_normalized(), label


def test_lift_is_valid_with_phi_ad_a_after_phi_g():
    # lift_to_extension does not re-check its output; this is the check
    for label, impl in _criterion_4_fixtures().items():
        gauge = compute_gauge_group(impl.functor)
        A = gauge.table
        aut = fg.compute_aut(A)
        c = extract_cocycle(impl)
        ext = build_extension(c)
        lifted = lift_to_extension(impl)
        assert validate_implementation(lifted).valid, label
        ec = extract_cocycle(lifted)
        assert validate_cocycle(ec).valid and ec.is_normalized(), label
        for e in ext.E.elements():
            a, g = ext.unpair(e)
            expected = tuple(A.mul(A.mul(a, x), A.inv(a)) for x in c.perms[g])
            assert aut.perms[ec.phi[e]] == expected, (label, e)


def _spin_frame_active_passive():
    # in the spin-frame model, s=2 acts trivially on objects; psi_s is the
    # undecorated frame jump, so psi_2 is the identity of F0
    impl = models.spin_frame_model()
    psi = {}
    for s in range(4):
        target = impl.action.functors[(4 - s) % 4].obj_map["F0"]
        jump = int(target[1:])
        psi[s] = f"m{jump}<0:0"
    return impl, psi, "F0"


def test_active_passive_composite_is_a_homomorphism():
    # active_passive_compose does not re-check Xi; this is the check
    for label, (impl, psi, base) in {
            "FrameRot": models.frame_rotation_model(twist_parity=True),
            "FrameRot[plain]": models.frame_rotation_model(twist_parity=False),
            "SpinFrame": _spin_frame_active_passive()}.items():
        res = active_passive_compose(psi, impl, base)
        G = impl.action.group
        src, tgt = impl.functor.source, impl.functor.target
        xi = res.components
        assert xi[0] == tgt.identities[impl.functor.obj_map[base]], label
        for g1 in G.elements():
            for g0 in G.elements():
                assert tgt.compose_table[xi[g1], xi[g0]] == xi[G.mul(g1, g0)], \
                    (label, g1, g0)
        assert [k for k, _ in res.kernel_checks] \
            == [k for k in G.elements() if psi[k] == src.identities[base]]
        for k, zk in res.kernel_checks:
            assert xi[k] == zk == impl.eta[k][base], (label, k)


def test_active_passive_frame_rotation():
    impl, psi, base = models.frame_rotation_model(twist_parity=True)
    res = active_passive_compose(psi, impl, base)
    # Xi is the parity homomorphism Z4 -> Z2 realized on decorations
    decos = [m.split(":")[1] for m in res.components]
    assert decos == ["0", "1", "0", "1"]


def test_active_passive_trivial_for_plain_lift():
    impl, psi, base = models.frame_rotation_model(twist_parity=False)
    res = active_passive_compose(psi, impl, base)
    assert all(m == res.components[0] for m in res.components)


def test_active_passive_kernel_element():
    # with psi_2 = id the composite must equal the gauge component of eta(2)
    impl, psi, base = _spin_frame_active_passive()
    res = active_passive_compose(psi, impl, base)
    assert (2, impl.eta[2]["F0"]) in res.kernel_checks
    assert impl.eta[2]["F0"] == "m0<0:2"


def test_active_passive_eq18_violation():
    # in the spin-frame model psi decorations must be additive in g; a
    # non-additive choice has the right shapes but breaks the composition law
    impl = models.spin_frame_model()
    psi = {}
    for s in range(4):
        jump = int(impl.action.functors[(4 - s) % 4].obj_map["F0"][1:])
        psi[s] = f"m{jump}<0:{1 if s == 1 else 0}"
    with pytest.raises(fg.CheckFailed) as exc:
        active_passive_compose(psi, impl, "F0")
    assert exc.value.report == Report(False, "Eq18Violated", (1, 1))


def test_active_passive_refuses_a_psi_that_is_no_frame_family():
    impl, psi, base = _spin_frame_active_passive()
    # m0<0:1 is an arrow of the decorated target, not of the plain source
    rotation, rotation_psi, _ = models.frame_rotation_model(twist_parity=True)
    # e o e = e on one object: an endomorphism of the right shape, not invertible
    idempotent = FinCat(["a"], [("ida", "a", "a"), ("e", "a", "a")],
                        {("ida", "ida"): "ida", ("ida", "e"): "e", ("e", "ida"): "e",
                         ("e", "e"): "e"}, {"a": "ida"})
    cases = [
        (models.NAMED_MODELS["Z4Rot"](), psi, "*", "implementation cocycle must be trivial"),
        (impl, {g: m for g, m in psi.items() if g != 3}, base,
         "psi not total: missing element 3"),
        (impl, {**psi, 1: psi[0]}, base, "psi_1 has the wrong shape"),
        (rotation, {**rotation_psi, 0: "m0<0:1"}, "F0", "psi_0 has the wrong shape"),
        (_identity_family_impl(identity_functor(idempotent), fg.trivial_group()),
         {0: "e"}, "a", "psi_0 is not invertible"),
        (impl, {**psi, 0: "m0<0:1"}, base, "psi at the identity must be the identity morphism"),
    ]
    for implementation, family, obj, message in cases:
        with pytest.raises(ValueError) as err:
            active_passive_compose(family, implementation, obj)
        assert str(err.value) == message


def test_trivial_implementations_satisfy_trivial_relations():
    # implementations flagged trivial satisfy both trivial-cocycle identities
    for impl in (models.one_object_cyclic_model(power=0),
                 models.swap_model(), models.spin_frame_model(),
                 models.frame_rotation_model()[0]):
        c = extract_cocycle(impl)
        gauge = compute_gauge_group(impl.functor)
        if any(v != 0 for row in c.xi for v in row) or any(c.phi):
            continue
        G = impl.action.group
        tgt = impl.functor.target
        act = impl.action
        # eta(g1 g0)_C = eta(g1)_{g0.C} o eta(g0)_C
        for g1 in G.elements():
            for g0 in G.elements():
                for x in impl.functor.source.objects:
                    lhs = impl.eta[G.mul(g1, g0)][x]
                    rhs = tgt.compose_table[impl.eta[g1][act.functors[g0].obj_map[x]],
                                            impl.eta[g0][x]]
                    assert lhs == rhs
        # eta(g)_C o alpha_C = alpha_{g.C} o eta(g)_C
        for g in G.elements():
            for a in range(gauge.order):
                for x in impl.functor.source.objects:
                    gx = act.functors[g].obj_map[x]
                    lhs = tgt.compose_table[impl.eta[g][x], _gauge_component(gauge, a, x)]
                    rhs = tgt.compose_table[_gauge_component(gauge, a, gx), impl.eta[g][x]]
                    assert lhs == rhs


def _swap_category():
    return models.swap_model().functor.source


def test_functor_violations_are_refused_when_built():
    bz2 = group_as_category(fg.cyclic(2))
    bz4 = group_as_category(fg.cyclic(4))
    swap = _swap_category()
    same = {"idX": "idX", "idY": "idY"}
    cases = [
        ((bz2, bz2, {}, {"r0": "r0", "r1": "r1"}), "ObjectMapNotTotal", ("*",)),
        ((bz2, bz2, {"*": "*"}, {"r0": "r0"}), "MorphismMapNotTotal", ("r1",)),
        ((swap, swap, {"X": "X", "Y": "Y"}, {**same, "u": "v", "v": "u"}),
         "DomCodNotPreserved", ("u",)),
        # u: X -> Y sent to idX keeps its domain and loses its codomain
        ((swap, swap, {"X": "X", "Y": "Y"}, {**same, "u": "idX", "v": "v"}),
         "DomCodNotPreserved", ("u",)),
        ((bz2, bz2, {"*": "*"}, {"r0": "r1", "r1": "r0"}),
         "IdentityNotPreserved", ("*",)),
        # r1 o r1 is r0 in Z2 but r2 in Z4
        ((bz2, bz4, {"*": "*"}, {"r0": "r0", "r1": "r1"}),
         "CompositionNotPreserved", ("r1", "r1")),
        # entries at ids the source lacks; the first in sorted order is named
        ((bz2, bz2, {"*": "*", "Z": "*"}, {"r0": "r0", "r1": "r1"}),
         "ObjectMapAtUnknownObject", ("Z",)),
        ((bz2, bz2, {"*": "*"}, {"r0": "r0", "r1": "r1", "zz": "r1", "yy": "r0"}),
         "MorphismMapAtUnknownMorphism", ("yy",)),
    ]
    for args, violation, witness in cases:
        with pytest.raises(ValueError) as err:
            TheoryFunctor(*args)
        assert str(err.value) == f"functor invalid: {violation} {witness}"


def test_action_violations_are_refused_when_built():
    cat = _swap_category()
    ident = identity_functor(cat)
    swap = TheoryFunctor(cat, cat, {"X": "Y", "Y": "X"},
                         {"idX": "idY", "idY": "idX", "u": "v", "v": "u"})
    to_x = TheoryFunctor(cat, cat, {"X": "X", "Y": "X"},
                         {"idX": "idX", "idY": "idX", "u": "idX", "v": "idX"})
    other = identity_functor(group_as_category(fg.cyclic(2)))
    bz3, bz4 = group_as_category(fg.cyclic(3)), group_as_category(fg.cyclic(4))
    # r -> r^-1 fixes the one object, so only the morphism maps tell it apart
    inverse = TheoryFunctor(bz3, bz3, {"*": "*"}, {"r0": "r0", "r1": "r2", "r2": "r1"})
    z2, z3 = fg.cyclic(2), fg.cyclic(3)
    cases = [
        ((z2, (ident,)), "FunctorPerElementMissing", (1,)),
        ((z2, (ident, to_x)), "FunctorNotInvertible", (1,)),
        ((z2, (ident, other)), "FunctorNotInvertible", (1,)),  # another category
        ((z2, (swap, ident)), "IdentityElementNotIdentityFunctor", (0,)),
        # the trivial group's one functor must be Id on arrows too; with no
        # other element, no homomorphism law forces it
        ((fg.trivial_group(), (TheoryFunctor(bz4, bz4, {"*": "*"},
                                             {"r0": "r0", "r1": "r3", "r2": "r2", "r3": "r1"}),)),
         "IdentityElementNotIdentityFunctor", (0,)),
        # swap o swap = Id, but 1 + 1 = 2 in Z3 acts by swap
        ((z3, (ident, swap, swap)), "NotAHomomorphism", (1, 1)),
        ((z3, (identity_functor(bz3), inverse, inverse)), "NotAHomomorphism", (1, 1)),
    ]
    for args, violation, witness in cases:
        with pytest.raises(ValueError) as err:
            GAction(*args)
        assert str(err.value) == f"action invalid: {violation} {witness}"
    assert validate_gaction(GAction(z2, (ident, swap))).valid


def test_lift_builds_no_functor(monkeypatch):
    # the lifted action reuses the base functors, checked when they were built
    calls = []
    counted = fincat.validate_functor
    monkeypatch.setattr(fincat, "validate_functor",
                        lambda F: calls.append(F) or counted(F))
    for name in sorted(models.NAMED_MODELS):
        impl = models.NAMED_MODELS[name]()
        ext = build_extension(extract_cocycle(impl))
        calls.clear()
        lifted = lift_to_extension(impl)
        assert calls == [], name
        assert lifted.action.group.order == ext.E.order, name
    models.NAMED_MODELS["SwapIso"]()
    assert calls, "a model build checks its functors"


# ---------------------------------------------------------------------------
# the gauge groups, cocycles, twists, lifts and comparisons against the
# object-by-object loops of `oracles`

def _bases():
    """Every named model, Z4Rot at each power, and the two B(S3) point models,
    by label."""
    base = {name: models.NAMED_MODELS[name]() for name in sorted(models.NAMED_MODELS)}
    base.update({f"Z4Rot[p={p}]": models.one_object_cyclic_model(p) for p in range(4)})
    return {**base, "PtS3[eta1=3]": _point_into_s3_model(3),
            "PtS3[eta1=1]": _point_into_s3_model(1)}


def _models():
    """The bases, then the lift of each to its extension group, by label."""
    base = _bases()
    return {**base, **{f"lift({label})": lift_to_extension(impl)
                       for label, impl in base.items()}}


def _kernel_cases():
    """Every base and its lift, each followed by a seeded twist, by label."""
    rng = random.Random(21)
    out = {}
    for label, impl in _bases().items():
        for key, base in ((label, impl), (f"lift({label})", lift_to_extension(impl))):
            order = compute_gauge_group(base.functor).order
            zeta = (0,) + tuple(rng.randrange(order)
                                for _ in range(base.action.group.order - 1))
            out[key] = base
            out[f"twist({key})"] = twist_implementation(base, zeta)
    return out


def test_gauge_groups_match_the_reference_loop():
    for label, impl in _models().items():
        gauge = compute_gauge_group(impl.functor)
        families, table = oracles.gauge_group(_functor(impl.functor))
        assert gauge.families == tuple(families), label
        assert gauge.table.table == table, label
        for i, fam in enumerate(families):
            assert gauge.index_of(fam) == i
            for k, x in enumerate(impl.functor.source.objects):
                assert _gauge_component(gauge, i, x) == fam[k]


def test_extracted_cocycles_match_the_reference_loop():
    for label, impl in _kernel_cases().items():
        c = extract_cocycle(impl)
        assert (c.xi, c.perms) == oracles.cocycle(*_implementation(impl)), label


def test_twists_lifts_and_comparisons_match_the_reference_loops():
    def comparison(i1, i2):
        return oracles.comparison(*_implementation(i1), _implementation(i2)[3])

    rng = random.Random(15)
    for label, impl in _models().items():
        G = impl.action.group
        functor, _, action, eta = _implementation(impl)
        gauge = compute_gauge_group(impl.functor)
        for _ in range(3):
            zeta = (0,) + tuple(rng.randrange(gauge.order) for _ in range(G.order - 1))
            twisted = twist_implementation(impl, zeta)
            assert list(twisted.eta) == oracles.gauged(
                functor, action, eta, [(zeta[g], g) for g in G.elements()]), label
            for i1, i2 in ((impl, twisted), (twisted, impl), (impl, impl)):
                assert compare_implementations(i1, i2) == comparison(i1, i2)
    for label, impl in _bases().items():
        functor, _, action, eta = _implementation(impl)
        ext = build_extension(extract_cocycle(impl))
        lifted = lift_to_extension(impl)
        assert list(lifted.eta) == oracles.gauged(
            functor, action, eta, [ext.unpair(e) for e in ext.E.elements()]), label
    cyclic = [models.one_object_cyclic_model(p) for p in range(4)]
    for i1 in cyclic:
        for i2 in cyclic:
            assert compare_implementations(i1, i2) == comparison(i1, i2)


# ---------------------------------------------------------------------------
# the functor and implementation checks against the plain loops of `oracles`

def _report(failure):
    """The `fingroup.Report` an oracle's (violation, witness) or None stands for."""
    return Report(True) if failure is None else Report(False, *failure)


def _unchecked_functor(source, target, obj_map, mor_map):
    """A TheoryFunctor built without its constructor's check."""
    F = TheoryFunctor.__new__(TheoryFunctor)
    F.source, F.target, F.obj_map, F.mor_map = \
        source, target, dict(obj_map), dict(mor_map)
    return F


def _unchecked_implementation(functor, action, eta):
    """An Implementation built without its constructor's check."""
    impl = Implementation.__new__(Implementation)
    impl.functor, impl.action, impl.eta = \
        functor, action, tuple(dict(e) for e in eta)
    return impl


def _corrupt_targets(rng, F):
    """F over copies of its target with k = 1, 2, 3 composites each changed
    to another arrow of the same hom (or to any other arrow, when the hom
    has only one), so the first of several failures is named; none when the
    target has a single arrow."""
    tgt = F.target
    out = []
    for k in range(1, 4) if len(tgt.morphisms) > 1 else ():
        table = dict(tgt.compose_table)
        for key in rng.sample(sorted(table), k):
            old = table[key]
            table[key] = rng.choice(
                [m for m in tgt.hom(tgt.dom[old], tgt.cod[old]) if m != old]
                or [m for m, _, _ in tgt.morphisms if m != old])
        broken = FinCat(tgt.objects, tgt.morphisms, table, tgt.identities)
        out.append(_unchecked_functor(F.source, broken, F.obj_map, F.mor_map))
    return out


def _corrupt_eta(rng, impl):
    """Implementations with one eta component replaced: by another arrow of
    its hom, by an arrow with the same domain or the same codomain only, and
    (with two objects or more) by the component at another object."""
    F, objects = impl.functor, impl.functor.source.objects
    tgt = F.target
    out = []

    def replaced(g, x, m):
        eta = [dict(e) for e in impl.eta]
        eta[g][x] = m
        out.append(_unchecked_implementation(F, impl.action, eta))

    for _ in range(3):
        g, x = rng.randrange(len(impl.eta)), rng.choice(objects)
        m = impl.eta[g][x]
        dm, cm = tgt.dom[m], tgt.cod[m]
        for choices in ([k for k in tgt.hom(dm, cm) if k != m],
                        [k for k, d, c in tgt.morphisms if d == dm and c != cm],
                        [k for k, d, c in tgt.morphisms if d != dm and c == cm]):
            if choices:
                replaced(g, x, rng.choice(choices))
        if len(objects) > 1:
            replaced(g, x, impl.eta[g][rng.choice([y for y in objects if y != x])])
    return out


def test_functor_and_implementation_checks_match_the_reference_kernels():
    rng = random.Random(22)
    verdicts = set()
    for label, impl in _kernel_cases().items():
        F = impl.functor
        functors = [F] + list(dict.fromkeys(impl.action.functors, None))
        for T in functors + [B for T in functors for B in _corrupt_targets(rng, T)]:
            rep = validate_functor(T)
            assert rep == _report(oracles.functor_failure(_functor(T))), label
            verdicts.add(rep.violation)
        implementations = [impl] + _corrupt_eta(rng, impl) + [
            _unchecked_implementation(B, impl.action, impl.eta)
            for B in _corrupt_targets(rng, F)]
        for cand in implementations:
            rep = validate_implementation(cand)
            assert rep == _report(oracles.implementation_failure(
                *_implementation(cand), _cat(cand.action.category))), label
            verdicts.add(rep.violation)
        functor = _functor(F)
        per_object = [oracles.invertible_endos(functor[1], F.obj_map[x])
                      for x in F.source.objects]
        for combo in itertools.product(*per_object):
            fam = dict(zip(F.source.objects, combo))
            assert _unnatural(F, fam, F.mor_map) \
                == oracles.unnatural(functor, fam, F.mor_map), label
    # the corruptions reach the composition, shape, inverse and naturality verdicts
    assert {None, "CompositionNotPreserved", "IdentityFamilyNotIdentity",
            "ComponentShape", "ComponentNotInvertible", "NotNatural"} <= verdicts
