"""Field-space actions, intertwiners and mixing detection.

All matrix representations are exact (Gaussian-rational entries); every
identity below is asserted with zero tolerance.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Tuple

from .cohomology2 import Cochain2
from .exactlin import Mat, null_space, ZERO
from .fingroup import GroupTable, Report, generating_sequence, hom_law_witness


class MatrixRep(NamedTuple):
    group: GroupTable
    dim: int
    matrices: Tuple[Mat, ...]

    def __call__(self, g: int) -> Mat:
        return self.matrices[g]


def validate_rep(r: MatrixRep) -> Report:
    """The first violated representation law with its witness, or valid;
    the homomorphism law is checked by `hom_law_witness`.  With r(1) = I
    a map obeying the law has r(g) r(g^-1) = I, so the determinants are
    computed only when it fails, to name the first singular matrix."""
    if len(r.matrices) != r.group.order:
        return Report(False, "MatrixPerElementMissing", (len(r.matrices),))
    for g, m in enumerate(r.matrices):
        if m.nrows != r.dim or m.ncols != r.dim:
            return Report(False, "BadShape", (g,))
    if r.matrices[0] != Mat.identity(r.dim):
        return Report(False, "IdentityNotIdentityMatrix", (0,))
    witness = hom_law_witness(r.group, r, Mat.__mul__)
    if witness is None:
        return Report(True)
    singular = next((g for g, m in enumerate(r.matrices) if m.det().is_zero()), None)
    if singular is not None:
        return Report(False, "NotInvertible", (singular,))
    return Report(False, "NotAHomomorphism", witness)


# ---------------------------------------------------------------------------
# field-space actions and the extended-group representation

class FieldSpaceAction:
    """dot: a representation of A = Aut(Af); star: one invertible matrix per
    G element; cocycle: the (G, A) cochain linking them.  Checked when built,
    and equal by (dot, star, cocycle)."""

    def __init__(self, dot: MatrixRep, star: Tuple[Mat, ...], cocycle: Cochain2) -> None:
        self.dot = dot
        self.star = star
        self.cocycle = cocycle
        self.dim = dot.dim
        verify_field_action(self).require("field action")

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpaceAction) and (self.dot, self.star, self.cocycle) == (
            other.dot, other.star, other.cocycle)


def verify_field_action(a: FieldSpaceAction) -> Report:
    """The field-action check, run by FieldSpaceAction's constructor:

    (dot functorial)   dot(a1) dot(a0) == dot(a1 a0)     (on generators)
    (compatibility)    star(g) dot(a) == dot(phi(g)(a)) star(g)
    (twisted action)   star(g1) star(g0) == dot(xi(g1,g0)) star(g1 g0)

    For fixed g both sides of the compatibility law are homomorphisms in a
    (dot a representation, star(g) invertible, phi(g) an automorphism), so
    it holds on the subgroup generated by the elements before the first
    failing a.  `generating_sequence` scans A in order and takes each
    element not yet generated, so it takes that a: checking the generators
    alone reports the witness a scan of all of A would.
    """
    c = a.cocycle
    G, A = c.G, c.A
    if a.dot.group != A:
        return Report(False, "DotGroupMismatch", ())
    rep = validate_rep(a.dot)
    if not rep:
        return Report(False, f"DotRep:{rep.violation}", rep.witness)
    if len(a.star) != G.order:
        return Report(False, "StarPerElementMissing", (len(a.star),))
    if a.star[0] != Mat.identity(a.dim):
        return Report(False, "StarIdentity", (0,))
    for g, m in enumerate(a.star):
        if m.nrows != a.dim or m.ncols != a.dim or m.det().is_zero():
            return Report(False, "StarNotInvertible", (g,))
    for g in G.elements():
        for alpha in generating_sequence(A):
            if a.star[g] * a.dot(alpha) != a.dot(c.perms[g][alpha]) * a.star[g]:
                return Report(False, "CompatibilityLaw", (g, alpha))
    for g1 in G.elements():
        for g0 in G.elements():
            lhs = a.star[g1] * a.star[g0]
            rhs = a.dot(c.xi[g1][g0]) * a.star[G.mul(g1, g0)]
            if lhs != rhs:
                return Report(False, "TwistedActionLaw", (g1, g0))
    return Report(True)


def build_rho(a: FieldSpaceAction) -> MatrixRep:
    """The true representation rho(a, g) = dot(a) star(g) of the extension E
    of the action's cocycle.

    The field laws, checked when the action was built, make rho a
    homomorphism on E; acceptance criterion 5 checks that on all |E|^2
    pairs of every shipped fixture."""
    from .extension import build_extension
    ext = build_extension(a.cocycle)
    mats = []
    for e in ext.E.elements():
        alpha, g = ext.unpair(e)
        mats.append(a.dot(alpha) * a.star[g])
    return MatrixRep(ext.E, a.dim, tuple(mats))


# ---------------------------------------------------------------------------
# intertwiners, equivalence, irreducibility

def intertwiners(r1: MatrixRep, r2: MatrixRep) -> Tuple[Mat, ...]:
    """Echelon basis of { R : R r1(g) == r2(g) R for all g }."""
    if r1.group != r2.group:
        raise ValueError("representations of different groups")
    d1, d2 = r1.dim, r2.dim
    nunk = d2 * d1
    rows = []
    for g in r1.group.elements():
        m1, m2 = r1(g), r2(g)
        for i in range(d2):
            for j in range(d1):
                row = [ZERO] * nunk
                for k in range(d1):
                    row[i * d1 + k] = row[i * d1 + k] + m1[k, j]
                for k in range(d2):
                    row[k * d1 + j] = row[k * d1 + j] - m2[i, k]
                rows.append(row)
    basis = null_space(rows, nunk)
    return tuple(Mat([vec[i * d1:(i + 1) * d1] for i in range(d2)])
                 for vec in basis)


def equivalent(r1: MatrixRep, r2: MatrixRep) -> bool:
    """True iff the two representations are isomorphic: equal dimensions and
    equal characters.  In characteristic 0 the character decides
    isomorphism over C, and by Noether-Deuring an isomorphism over C
    descends to the Gaussian rationals."""
    if r1.group != r2.group:
        raise ValueError("representations of different groups")
    return r1.dim == r2.dim and all(
        _trace(r1(g)) == _trace(r2(g)) for g in r1.group.elements())


def _trace(m: Mat):
    return sum((m[i, i] for i in range(m.nrows)), ZERO)


def irreducible(r: MatrixRep) -> bool:
    """Irreducibility over the working field: the self-intertwiner space is
    one-dimensional (the level at which the Schur argument is exact)."""
    return len(intertwiners(r, r)) == 1


# ---------------------------------------------------------------------------
# mixing detection

class SubMultiplet(NamedTuple):
    """A subspace given by injection (dim x d_i) and projection (d_i x dim)."""

    injection: Mat
    projection: Mat

    @property
    def dim(self) -> int:
        return self.injection.ncols


class MixingResult(NamedTuple):
    witness: Optional[int]          # element of E, or None
    witness_pair: Optional[Tuple[int, int]]
    no_mixing_asserted: bool        # the corollary branch was armed and held
    corollary_violated: bool        # armed, yet a witness was found


def detect_mixing(a: FieldSpaceAction,
                  sub1: SubMultiplet, sub2: SubMultiplet) -> MixingResult:
    """Scan all e in E for a cross-block component between two submultiplets
    under rho = build_rho(a), E the extension of the action's cocycle.

    Preconditions: projection o injection is the identity on each
    submultiplet, and each subspace is invariant under the restricted
    action rho(1, g).  A failed one raises `CheckFailed`: projection_section
    (i,), or not_invariant or not_corestriction (i, g), for submultiplet i.
    When the extension is a direct product and the two restrictions are
    verified inequivalent irreducible true representations, the no-mixing
    corollary is armed: a witness then violates it, and the result says so
    in `corollary_violated`.
    """
    from .extension import build_extension, classify_type
    ext = build_extension(a.cocycle)
    rho = build_rho(a)
    G, E = a.cocycle.G, ext.E
    subs = (sub1, sub2)
    sigmas = []
    for i, sub in enumerate(subs):
        if sub.projection * sub.injection != Mat.identity(sub.dim):
            Report(False, "projection_section", (i,)).require("submultiplet")
        mats = []
        for g in G.elements():
            m = rho(ext.pair_index(0, g))
            sigma_g = sub.projection * m * sub.injection
            if m * sub.injection != sub.injection * sigma_g:
                Report(False, "not_invariant", (i, g)).require("submultiplet")
            if sub.projection * m != sigma_g * sub.projection:
                Report(False, "not_corestriction", (i, g)).require("submultiplet")
            mats.append(sigma_g)
        sigmas.append(mats)

    armed = False
    if "direct_product" in classify_type(ext).labels:
        reps = []
        for mats, sub in zip(sigmas, subs):
            cand = MatrixRep(G, sub.dim, tuple(mats))
            if not validate_rep(cand):
                reps = []
                break
            reps.append(cand)
        if len(reps) == 2 and irreducible(reps[0]) and irreducible(reps[1]) \
                and not equivalent(reps[0], reps[1]):
            armed = True

    witness = None
    for e in E.elements():
        q = sub1.projection * rho(e) * sub2.injection
        r = sub2.projection * rho(e) * sub1.injection
        if not q.is_zero() or not r.is_zero():
            witness = e
            break
    return MixingResult(
        witness=witness,
        witness_pair=None if witness is None else ext.unpair(witness),
        no_mixing_asserted=armed and witness is None,
        corollary_violated=armed and witness is not None,
    )
