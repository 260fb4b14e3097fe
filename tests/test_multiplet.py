import itertools
import random
from fractions import Fraction

import pytest

import oracles
from covlab import fingroup as fg
from covlab import models
from covlab.cohomology2 import trivial_cochain
from covlab.exactlin import I as IU, GaussRat, Mat, ONE, ZERO
from covlab.extension import build_extension, classify_type
from covlab.multiplet import (FieldSpaceAction, MatrixRep, SubMultiplet,
                              build_rho, detect_mixing, equivalent,
                              intertwiners, irreducible, validate_rep,
                              verify_field_action)
from covlab.wickscale import Monomial, WickPoly, scaling_multiplet

Z2 = fg.cyclic(2)
Z4 = fg.cyclic(4)


def _mats(mats):
    """Matrices as the oracles read them: lists of rows of `oracles.Qi`."""
    return [[[oracles.Qi(v.re, v.im) for v in row] for row in m.rows] for m in mats]


def zeros(r: int, c: int) -> Mat:
    return Mat([[ZERO] * c for _ in range(r)])


def conjugate_rep(r: MatrixRep) -> MatrixRep:
    """Entrywise conjugation; the identity map on rational matrices."""
    return MatrixRep(r.group, r.dim, tuple(
        Mat([[GaussRat(v.re, -v.im) for v in row] for row in m.rows])
        for m in r.matrices))


def is_self_conjugate(r: MatrixRep) -> bool:
    return equivalent(r, conjugate_rep(r))


def z2_reps():
    triv = MatrixRep(Z2, 1, (Mat([[1]]), Mat([[1]])))
    sign = MatrixRep(Z2, 1, (Mat([[1]]), Mat([[-1]])))
    return triv, sign


def z4_rotation_rep():
    j = Mat(models._J)
    return MatrixRep(Z4, 2, (Mat.identity(2), j, j * j, j * j * j))


# ---------------------------------------------------------------------------
# representation validation

def test_validate_rep():
    triv, sign = z2_reps()
    assert validate_rep(triv).valid and validate_rep(sign).valid
    bad = MatrixRep(Z2, 1, (Mat([[1]]), Mat([[2]])))
    rep = validate_rep(bad)
    assert not rep.valid and rep.violation == "NotAHomomorphism"


def test_q8_two_dim_rep_is_a_rep():
    r = models.q8_two_dim_rep()
    assert validate_rep(r).valid
    assert irreducible(r)


def test_q8_sign_reps_are_reps():
    for axis in "1ijk":
        assert validate_rep(models.q8_sign_rep(axis)).valid


# ---------------------------------------------------------------------------
# field actions and the extended representation

def test_vector_multiplet_action_valid():
    a = models.vector_multiplet_action()
    assert verify_field_action(a).valid


def test_field_action_sign_violation_detected():
    a = models.vector_multiplet_action()
    bad_star = list(a.star)
    bad_star[1] = bad_star[1].scale(-ONE)
    with pytest.raises(ValueError) as err:
        FieldSpaceAction(a.dot, tuple(bad_star), a.cocycle)
    assert str(err.value) == "field action invalid: TwistedActionLaw (1, 2)"


def test_field_action_violations_are_refused_when_built():
    # each case breaks one law of the equivalent-blocks fixture (G = A = Z2,
    # dot(1) = swap, star = identity, trivial cocycle)
    a = models.equivalent_blocks_action()
    ident = a.dot.matrices[0]
    z2_on_trivial = trivial_cochain(Z2, fg.trivial_group())
    cases = [
        ((a.dot, a.star, z2_on_trivial), "DotGroupMismatch ()"),
        ((MatrixRep(Z2, 2, (ident, ident.scale(2))), a.star, a.cocycle),
         "DotRep:NotAHomomorphism (1, 1)"),
        ((a.dot, (ident,), a.cocycle), "StarPerElementMissing (1,)"),
        ((a.dot, (-ident, ident), a.cocycle), "StarIdentity (0,)"),
        ((a.dot, (ident, zeros(2, 2)), a.cocycle), "StarNotInvertible (1,)"),
        ((a.dot, (ident, Mat([[1, 0], [0, -1]])), a.cocycle), "CompatibilityLaw (1, 1)"),
        ((a.dot, (ident, ident.scale(2)), a.cocycle), "TwistedActionLaw (1, 1)"),
    ]
    for args, message in cases:
        with pytest.raises(ValueError) as err:
            FieldSpaceAction(*args)
        assert str(err.value) == f"field action invalid: {message}"
    assert FieldSpaceAction(a.dot, a.star, a.cocycle) == a


def perturbed(mats, rng):
    """mats with one entry of one non-identity matrix replaced."""
    mats = list(mats)
    g = rng.randrange(1, len(mats))
    rows = [list(r) for r in mats[g].rows]
    i, j = rng.randrange(mats[g].nrows), rng.randrange(mats[g].ncols)
    rows[i][j] = rng.choice([v for v in (ZERO, ONE, -ONE, ONE + ONE, IU)
                             if v != rows[i][j]])
    mats[g] = Mat(rows)
    return tuple(mats)


def test_rep_and_field_checks_match_all_pairs_reference():
    rng = random.Random(1609)
    seen = set()
    for build in models.REPS["q8"].values():
        r = build()
        for mats in [r.matrices] + [perturbed(r.matrices, rng) for _ in range(12)]:
            bad = MatrixRep(r.group, r.dim, mats)
            expected = oracles.rep_violation(bad.group.table, _mats(bad.matrices))
            report = validate_rep(bad)
            assert (report.valid, report.violation, report.witness) == (
                (True, None, None) if expected is None else (False, *expected))
            seen.add(report.violation)
    for build in models.FIELD_FIXTURES.values():
        a = build()
        cases = [(a.dot, a.star)]
        if a.dot.group.order > 1:
            cases += [(MatrixRep(a.dot.group, a.dim, perturbed(a.dot.matrices, rng)),
                       a.star) for _ in range(6)]
        cases += [(a.dot, perturbed(a.star, rng)) for _ in range(12)]
        for dot, star in cases:
            c = a.cocycle
            expected = oracles.field_violation(c.G.table, c.A.table, c.xi, c.perms,
                                               _mats(dot.matrices), _mats(star))
            if expected is None:
                FieldSpaceAction(dot, star, a.cocycle)
            else:
                with pytest.raises(ValueError) as err:
                    FieldSpaceAction(dot, star, a.cocycle)
                violation, witness = expected
                assert str(err.value) == f"field action invalid: {violation} {witness}"
            seen.add(expected[0] if expected else None)
    assert {None, "NotInvertible", "NotAHomomorphism", "DotRep:NotAHomomorphism",
            "CompatibilityLaw", "TwistedActionLaw"} <= seen, seen


def test_compatibility_witness_is_the_first_failing_element_of_a():
    # star(1) swaps the two sign lines of A = Z2xZ2, so the compatibility
    # law breaks at both generators of A for g = 1; the generator scan must
    # name the witness a scan of all of A names
    A = fg.standard_group("Z2xZ2")
    dot = MatrixRep(A, 2, tuple(Mat([[(-1) ** (e // 2), 0], [0, (-1) ** (e % 2)]])
                                for e in A.elements()))
    star = (Mat.identity(2), Mat([[0, 1], [1, 0]]))
    c = trivial_cochain(Z2, A)
    expected = oracles.field_violation(c.G.table, A.table, c.xi, c.perms,
                                       _mats(dot.matrices), _mats(star))
    assert expected == ("CompatibilityLaw", (1, 1))
    assert [star[1] * dot(a) == dot(a) * star[1] for a in A.elements()] == [
        True, False, False, True]
    with pytest.raises(ValueError) as err:
        FieldSpaceAction(dot, star, c)
    assert str(err.value) == "field action invalid: CompatibilityLaw (1, 1)"


def test_build_rho_direct_product_block_fixture():
    for a in models.block_diagonal_fixtures():
        assert verify_field_action(a).valid
        rho = build_rho(a)
        assert validate_rep(rho).valid


def test_build_rho_central_z4_model():
    a = models.central_z4_mixing_action()
    assert verify_field_action(a).valid
    ext = build_extension(a.cocycle)
    rho = build_rho(a)
    # (1,g)^4 closes on the identity exactly
    e = ext.pair_index(0, 1)
    acc = 0
    for _ in range(4):
        acc = ext.E.mul(acc, e)
    assert rho(acc) == Mat.identity(2)


def test_build_rho_q8_model_is_quaternion():
    a = models.q8_mixing_action()
    assert verify_field_action(a).valid
    rho = build_rho(a)
    assert rho.group.order_profile() == fg.quaternion8().order_profile()
    assert validate_rep(rho).valid


def test_inequivalent_one_and_two_dim_blocks_preserved():
    # a 2-dim rotation block next to a 1-dim sign block stays block-diagonal
    j = Mat(models._J)

    def embed(m, s):
        return Mat([[m[0, 0], m[0, 1], 0],
                    [m[1, 0], m[1, 1], 0],
                    [0, 0, s]])

    star = []
    rot = Mat.identity(2)
    for g in range(4):
        star.append(embed(rot, (-1) ** g))
        rot = rot * j
    dot = MatrixRep(Z2, 3, (Mat.identity(3), Mat.identity(3)))
    a = FieldSpaceAction(dot, tuple(star), trivial_cochain(Z4, Z2))
    assert verify_field_action(a).valid
    sub1 = SubMultiplet(Mat([[1, 0], [0, 1], [0, 0]]), Mat([[1, 0, 0], [0, 1, 0]]))
    sub2 = SubMultiplet(Mat([[0], [0], [1]]), Mat([[0, 0, 1]]))
    res = detect_mixing(a, sub1, sub2)
    assert res.witness is None


# ---------------------------------------------------------------------------
# intertwiners, equivalence, conjugates

def test_schur_zero_for_inequivalent_irreducibles():
    triv, sign = z2_reps()
    assert intertwiners(triv, sign) == ()
    assert not equivalent(triv, sign)


def test_self_intertwiners_of_irreducible_are_scalars():
    triv, _ = z2_reps()
    basis = intertwiners(triv, triv)
    assert len(basis) == 1
    r = models.q8_two_dim_rep()
    basis = intertwiners(r, r)
    assert len(basis) == 1


def test_conjugated_rep_contains_witness():
    r = z4_rotation_rep()
    s = Mat([[1, 2], [0, 1]])
    conj = MatrixRep(Z4, 2, tuple(s * m * s.inverse() for m in r.matrices))
    basis = intertwiners(r, conj)
    # the space contains s (up to scale): check s satisfies the relation
    for g in Z4.elements():
        assert s * r(g) == conj(g) * s
    assert equivalent(r, conj)


def test_rotation_rep_not_irreducible_over_gaussian_field():
    # the commutant of the rotation rep is two-dimensional (eigenlines exist)
    r = z4_rotation_rep()
    assert len(intertwiners(r, r)) == 2
    assert not irreducible(r)


def test_conjugate_rep_examples():
    r = z4_rotation_rep()
    assert conjugate_rep(r) == r  # rational entries
    assert is_self_conjugate(r)

    chi = MatrixRep(Z4, 1, tuple(Mat([[IU ** g]]) for g in range(4)))
    chibar = conjugate_rep(chi)
    assert chibar(1) == Mat([[-IU]])
    assert not equivalent(chi, chibar)
    assert not is_self_conjugate(chi)

    # direct sum of chi and its conjugate is self-conjugate (block swap)
    direct = MatrixRep(Z4, 2, tuple(
        Mat([[(IU ** g), 0], [0, ((-IU) ** g)]]) for g in range(4)))
    assert is_self_conjugate(direct)


def test_trivial_reps_of_equal_dim_are_equivalent():
    # intertwiner space is all matrices; the identity is found immediately
    t2 = MatrixRep(Z2, 2, (Mat.identity(2), Mat.identity(2)))
    assert equivalent(t2, t2)


def test_equivalent_grid_fallback_decides_singular_span():
    # trivial+sign vs trivial+trivial: the intertwiner space is the rank-one
    # matrices [[a,0],[b,0]], so no combination is invertible; the exhaustive
    # grid decides the question completely
    r1 = MatrixRep(Z2, 2, (Mat.identity(2), Mat([[1, 0], [0, -1]])))
    r2 = MatrixRep(Z2, 2, (Mat.identity(2), Mat.identity(2)))
    basis = intertwiners(r1, r2)
    assert len(basis) == 2
    assert all(b.det().is_zero() for b in basis)
    assert not equivalent(r1, r2)


def direct_sum(*reps: MatrixRep) -> MatrixRep:
    dim = sum(r.dim for r in reps)
    mats = []
    for g in reps[0].group.elements():
        rows, off = [], 0
        for r in reps:
            for i in range(r.dim):
                row = [0] * dim
                row[off:off + r.dim] = [r(g)[i, j] for j in range(r.dim)]
                rows.append(row)
            off += r.dim
        mats.append(Mat(rows))
    return MatrixRep(reps[0].group, dim, tuple(mats))


def similar(r: MatrixRep, rng: random.Random) -> MatrixRep:
    """s r(g) s^-1 for a random invertible s with Gaussian-integer entries."""
    while True:
        s = Mat([[GaussRat(Fraction(rng.randrange(-2, 3)),
                           Fraction(rng.randrange(-2, 3)))
                  for _ in range(r.dim)] for _ in range(r.dim)])
        if not s.det().is_zero():
            break
    s_inv = s.inverse()
    return MatrixRep(r.group, r.dim, tuple(s * m * s_inv for m in r.matrices))


def _rep_families():
    """Per group: irreducibles, sums of two, and sums up to dimension 3."""
    t, s = z2_reps()
    z2 = [t, s, direct_sum(t, t), direct_sum(t, s), direct_sum(s, s),
          direct_sum(t, t, s), direct_sum(t, s, s)]
    chi = [MatrixRep(Z4, 1, tuple(Mat([[IU ** (k * g)]]) for g in range(4)))
           for k in range(4)]
    rot = z4_rotation_rep()  # equivalent to chi[1] + chi[3] over Q(i)
    z4 = chi + [rot] + [direct_sum(a, b) for i, a in enumerate(chi)
                        for b in chi[i:]]
    z4 += [direct_sum(rot, c) for c in chi]
    z4 += [direct_sum(chi[1], chi[k], chi[3]) for k in (0, 2)]
    two = models.q8_two_dim_rep()
    signs = [models.q8_sign_rep(axis) for axis in "1ijk"]
    q8 = [two] + signs + [direct_sum(a, b) for i, a in enumerate(signs)
                          for b in signs[i:]]
    q8 += [direct_sum(two, c) for c in signs] + [direct_sum(signs[1], two)]
    return z2, z4, q8


def test_character_test_matches_intertwiner_search():
    rng = random.Random(1609)
    verdicts = []
    for family in _rep_families():
        assert all(validate_rep(r) for r in family)
        pairs = list(itertools.combinations_with_replacement(family, 2))
        pairs += [(v, r) for r in family
                  for v in (similar(r, rng), conjugate_rep(r))]
        for r1, r2 in pairs:
            want = oracles.equivalent(_mats(r1.matrices), _mats(r2.matrices))
            assert equivalent(r1, r2) == want, (r1, r2)
            verdicts.append(want)
    assert True in verdicts and False in verdicts


def test_equivalent_rejects_different_groups():
    t, _ = z2_reps()
    with pytest.raises(ValueError):
        equivalent(t, MatrixRep(Z4, 1, tuple(Mat([[1]]) for _ in range(4))))


# ---------------------------------------------------------------------------
# mixing detection

def test_no_mixing_on_direct_product_inequivalent_fixtures():
    sub1, sub2 = models.standard_submultiplets()
    for a in models.block_diagonal_fixtures():
        res = detect_mixing(a, sub1, sub2)
        assert res.witness is None
        assert res.no_mixing_asserted


def test_no_mixing_sweep_over_generated_direct_product_models():
    # direct products with every unordered pair of distinct one-dimensional
    # characters as blocks: the corollary branch must arm and hold on all
    z2 = fg.cyclic(2)
    groups = {
        "Z2": (Z2, [(ONE, ONE), (ONE, -ONE)]),
        "Z4": (Z4, [(ONE, ONE, ONE, ONE), (ONE, -ONE, ONE, -ONE),
                    (ONE, IU, -ONE, -IU), (ONE, -IU, -ONE, IU)]),
        "Z2xZ2": (fg.standard_group("Z2xZ2"),
                  [(ONE, ONE, ONE, ONE), (ONE, ONE, -ONE, -ONE),
                   (ONE, -ONE, ONE, -ONE), (ONE, -ONE, -ONE, ONE)]),
    }
    sub1, sub2 = models.standard_submultiplets()
    checked = 0
    for _, (G, chars) in groups.items():
        for i in range(len(chars)):
            for j in range(i + 1, len(chars)):
                for dot_char in ((ONE, ONE), (ONE, -ONE)):
                    star = tuple(
                        Mat([[chars[i][g], 0], [0, chars[j][g]]])
                        for g in G.elements())
                    dot = MatrixRep(z2, 2, tuple(
                        Mat([[dot_char[a], 0], [0, dot_char[a]]])
                        for a in z2.elements()))
                    action = FieldSpaceAction(dot, star, trivial_cochain(G, z2))
                    assert verify_field_action(action).valid
                    res = detect_mixing(action, sub1, sub2)
                    assert res.witness is None
                    assert res.no_mixing_asserted
                    checked += 1
    assert checked == 26


def test_equivalent_blocks_witness():
    a = models.equivalent_blocks_action()
    sub1, sub2 = models.standard_submultiplets()
    res = detect_mixing(a, sub1, sub2)
    assert res.witness_pair == (1, 0)  # (alpha, identity of G)
    assert not res.no_mixing_asserted


def test_central_z4_mixing_witness():
    a = models.central_z4_mixing_action()
    sub1, sub2 = models.standard_submultiplets()
    res = detect_mixing(a, sub1, sub2)
    assert res.witness_pair == (1, 0)  # (r, identity of G)


def test_q8_mixing_witness_between_inequivalent_multiplier_lines():
    a = models.q8_mixing_action()
    sub1, sub2 = models.eigenline_submultiplets()
    res = detect_mixing(a, sub1, sub2)
    assert res.witness_pair == (1, 0)
    assert "direct_product" not in classify_type(build_extension(a.cocycle)).labels


def test_detect_mixing_precondition_failures():
    a = models.equivalent_blocks_action()
    bad = SubMultiplet(Mat([[1], [0]]), Mat([[0, 1]]))  # proj o inj == 0
    with pytest.raises(fg.CheckFailed) as exc:
        detect_mixing(a, bad, bad)
    assert exc.value.report == fg.Report(False, "projection_section", (0,))

    vec = models.vector_multiplet_action()
    sub1, sub2 = models.standard_submultiplets()
    with pytest.raises(fg.CheckFailed) as exc:
        detect_mixing(vec, sub1, sub2)  # lines not rotation-invariant
    assert exc.value.report == fg.Report(False, "not_invariant", (0, 1))


# ---------------------------------------------------------------------------
# scaling multiplets

def test_scaling_multiplet_k1():
    m = scaling_multiplet(1)
    assert m.dim == 1
    assert m.matrix[0][0] == WickPoly.scalar(2)
    assert m.verdict == "diagonal"


def test_scaling_multiplet_k2_generic():
    m = scaling_multiplet(2)
    assert m.dim == 2
    lam2 = WickPoly.scalar(4)
    assert m.matrix[0][0] == lam2 and m.matrix[1][1] == lam2
    assert m.matrix[0][1].is_zero()
    corner = WickPoly({Monomial(log=1, c=1): Fraction(8)})  # 2 c L * lam^2
    assert m.matrix[1][0] == corner
    assert m.verdict == "reducible-indecomposable"


def test_scaling_multiplet_k2_conformal():
    m = scaling_multiplet(2, coupling="conformal")
    assert m.verdict == "diagonal"
    assert m.matrix[1][0].is_zero()


def _sym_matmul(a, b):
    n = len(a)
    return tuple(tuple(
        sum((a[i][k] * b[k][j] for k in range(n)), WickPoly.zero())
        for j in range(n)) for i in range(n))


def _stretch_log(poly: WickPoly, factor: Fraction) -> WickPoly:
    """Substitute L -> factor * L, keeping L symbolic."""
    return WickPoly({m: q * Fraction(factor) ** m.log for m, q in poly.terms})


def test_scaling_multiplet_group_law_on_cyclic_powers():
    # the n-th matrix power at lam equals the matrix at lam^n once the
    # latter's log symbol (log lam^(2n)) is rewritten as n * log lam^2
    for k in (2, 3, 4, 5):
        base = scaling_multiplet(k, lam=Fraction(2))
        power = base.matrix
        for n in (2, 3):
            power = _sym_matmul(power, base.matrix)
            direct = scaling_multiplet(k, lam=Fraction(2) ** n).matrix
            stretched = tuple(tuple(_stretch_log(c, Fraction(n)) for c in row)
                              for row in direct)
            assert power == stretched, (k, n)


def test_scaling_multiplet_takes_an_int_or_a_fraction_scale():
    for lam in (2.5, 2.0, True, "5/2", None):
        with pytest.raises(TypeError, match="expected an int or a Fraction"):
            scaling_multiplet(2, lam=lam)
    assert scaling_multiplet(2, lam=3).lam == Fraction(3)
    assert scaling_multiplet(2, lam=Fraction(5, 2)).lam == Fraction(5, 2)


def test_scaling_multiplet_refuses_unknown_couplings():
    for coupling in ("minimal", "bogus"):
        with pytest.raises(ValueError, match="unknown coupling"):
            scaling_multiplet(2, coupling=coupling)


def test_scaling_multiplet_nilpotent_structure():
    # N = M - lam^k is nilpotent; N = 0 exactly for the "diagonal" verdict,
    # and otherwise the chain is full length: N^(dim-1) != 0
    def all_zero(mat):
        return all(c.is_zero() for row in mat for c in row)

    for coupling in ("generic", "conformal"):
        for k in range(1, 7):
            m = scaling_multiplet(k, coupling=coupling)
            dim = m.dim
            lamk = WickPoly.scalar(Fraction(2) ** k)
            nil = tuple(tuple(m.matrix[i][j] - (lamk if i == j else WickPoly.zero())
                              for j in range(dim)) for i in range(dim))
            powers = [nil]  # powers[i] == N^(i+1)
            for _ in range(dim - 1):
                powers.append(_sym_matmul(powers[-1], nil))
            assert all_zero(powers[dim - 1]), (coupling, k)
            diagonal = coupling == "conformal" or k == 1
            assert (m.verdict == "diagonal") == diagonal, (coupling, k)
            if diagonal:
                assert all_zero(nil), (coupling, k)
            else:
                assert not all_zero(powers[dim - 2]), (coupling, k)


def test_inverse_is_exact_and_refuses_singular_matrices():
    rng = random.Random(7)

    def entry():
        return GaussRat(Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
                        Fraction(rng.randint(-4, 4), rng.randint(1, 3)))

    inverted = 0
    for n in range(1, 5):
        for _ in range(6):
            m = Mat([[entry() for _ in range(n)] for _ in range(n)])
            if m.det().is_zero():
                with pytest.raises(ValueError, match="matrix is singular"):
                    m.inverse()
                continue
            assert m * m.inverse() == Mat.identity(n) == m.inverse() * m
            inverted += 1
    assert inverted >= 20
    # ranks 1 and 2 (in the second, the third column repeats the first)
    for singular in (Mat([[1, 2], [2, 4]]),
                     Mat([[1, 0, 1], [0, 1, 0], [IU, 2, IU]])):
        with pytest.raises(ValueError, match="matrix is singular"):
            singular.inverse()
