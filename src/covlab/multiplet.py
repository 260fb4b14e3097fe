"""Field-space actions, intertwiners, mixing detection and scaling multiplets.

All matrix representations are exact (Gaussian-rational entries); every
identity below is asserted with zero tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Tuple

from .cohomology2 import Cochain2
from .exactlin import Mat, null_space, ZERO
from .extension import ExtensionGroup, classify_type
from .fingroup import GroupTable, hom_law_witness
from .fincat import Report
from .wickscale import Monomial, WickPoly


class PreconditionFailed(Exception):
    def __init__(self, check: str, witness=None) -> None:
        self.check, self.witness = check, witness
        super().__init__(f"precondition {check} failed ({witness})")


class CorollaryViolation(AssertionError):
    """A no-mixing assertion failed where the theory forbids mixing."""


@dataclass(frozen=True)
class MatrixRep:
    group: GroupTable
    dim: int
    matrices: Tuple[Mat, ...]

    def __call__(self, g: int) -> Mat:
        return self.matrices[g]


def validate_rep(r: MatrixRep) -> Report:
    """The first violated representation law with its witness, or valid;
    the homomorphism law is checked by `hom_law_witness`."""
    if len(r.matrices) != r.group.order:
        return Report(False, "MatrixPerElementMissing", (len(r.matrices),))
    for g, m in enumerate(r.matrices):
        if m.nrows != r.dim or m.ncols != r.dim:
            return Report(False, "BadShape", (g,))
    if r.matrices[0] != Mat.identity(r.dim):
        return Report(False, "IdentityNotIdentityMatrix", (0,))
    for g in r.group.elements():
        if r.matrices[g].det().is_zero():
            return Report(False, "NotInvertible", (g,))
    witness = hom_law_witness(r.group, r, Mat.__mul__)
    if witness is not None:
        return Report(False, "NotAHomomorphism", witness)
    return Report(True)


# ---------------------------------------------------------------------------
# field-space actions and the extended-group representation

@dataclass(frozen=True)
class FieldSpaceAction:
    """dot: a representation of A = Aut(Af); star: one invertible matrix per
    G element; cocycle: the (G, A) cochain linking them.  Checked when built."""

    dot: MatrixRep
    star: Tuple[Mat, ...]
    cocycle: Cochain2

    def __post_init__(self) -> None:
        rep = verify_field_action(self)
        if not rep:
            raise ValueError(f"field action invalid: {rep.violation} {rep.witness}")

    @property
    def dim(self) -> int:
        return self.dot.dim


def verify_field_action(a: FieldSpaceAction) -> Report:
    """The field-action check, run by FieldSpaceAction's constructor:

    (dot functorial)   dot(a1) dot(a0) == dot(a1 a0)     (on generators)
    (compatibility)    star(g) dot(a) == dot(phi(g)(a)) star(g)
    (twisted action)   star(g1) star(g0) == dot(xi(g1,g0)) star(g1 g0)
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
        perm = c.phi_perm(g)
        for alpha in A.elements():
            if a.star[g] * a.dot(alpha) != a.dot(perm[alpha]) * a.star[g]:
                return Report(False, "CompatibilityLaw", (g, alpha))
    for g1 in G.elements():
        for g0 in G.elements():
            lhs = a.star[g1] * a.star[g0]
            rhs = a.dot(c.xi[g1][g0]) * a.star[G.mul(g1, g0)]
            if lhs != rhs:
                return Report(False, "TwistedActionLaw", (g1, g0))
    return Report(True)


def build_rho(a: FieldSpaceAction, ext: ExtensionGroup) -> MatrixRep:
    """The true extended-group representation rho(a, g) = dot(a) star(g).

    The field laws, checked when the action was built, make rho a
    homomorphism on E; acceptance criterion 5 checks that on all |E|^2
    pairs of every shipped fixture."""
    if ext.cochain != a.cocycle:
        raise ValueError("extension was not built from this action's cocycle")
    E = ext.E
    mats = []
    for e in E.elements():
        alpha, g = ext.unpair(e)
        mats.append(a.dot(alpha) * a.star[g])
    return MatrixRep(E, a.dim, tuple(mats))


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


def conjugate_rep(r: MatrixRep) -> MatrixRep:
    """Entrywise conjugation; the identity map on rational matrices."""
    return MatrixRep(r.group, r.dim, tuple(m.conjugate() for m in r.matrices))


def is_self_conjugate(r: MatrixRep) -> bool:
    return equivalent(r, conjugate_rep(r))


# ---------------------------------------------------------------------------
# mixing detection

@dataclass(frozen=True)
class SubMultiplet:
    """A subspace given by injection (dim x d_i) and projection (d_i x dim)."""

    injection: Mat
    projection: Mat

    @property
    def dim(self) -> int:
        return self.injection.ncols


@dataclass(frozen=True)
class MixingResult:
    witness: Optional[int]          # element of E, or None
    witness_pair: Optional[Tuple[int, int]]
    no_mixing_asserted: bool        # the corollary branch was armed and held


def detect_mixing(rho: MatrixRep, ext: ExtensionGroup,
                  sub1: SubMultiplet, sub2: SubMultiplet) -> MixingResult:
    """Scan all e in E for a cross-block component between two submultiplets.

    Preconditions: projection o injection is the identity on each
    submultiplet, and each subspace is invariant under the restricted
    action rho(1, g).  When the extension is a direct product and the two
    restrictions are verified inequivalent irreducible true representations,
    absence of a witness is asserted; a witness would be a violation of the
    no-mixing corollary and raises CorollaryViolation.
    """
    G = ext.cochain.G
    E = ext.E
    subs = (sub1, sub2)
    sigmas = []
    for i, sub in enumerate(subs):
        if sub.projection * sub.injection != Mat.identity(sub.dim):
            raise PreconditionFailed("projection_section", i)
        mats = []
        for g in G.elements():
            m = rho(ext.pair_index(0, g))
            sigma_g = sub.projection * m * sub.injection
            if m * sub.injection != sub.injection * sigma_g:
                raise PreconditionFailed("not_invariant", (i, g))
            if sub.projection * m != sigma_g * sub.projection:
                raise PreconditionFailed("not_corestriction", (i, g))
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
    if witness is not None and armed:
        raise CorollaryViolation(
            f"mixing witness {ext.unpair(witness)} found although the extension "
            "is a direct product and the submultiplets are inequivalent "
            "irreducibles")
    return MixingResult(
        witness=witness,
        witness_pair=None if witness is None else ext.unpair(witness),
        no_mixing_asserted=armed and witness is None,
    )


# ---------------------------------------------------------------------------
# the scaling multiplet of a Wick power

@dataclass(frozen=True)
class ScalingMultiplet:
    """Action of a sample scale factor on span{R^j Phi^(k-2j)}.

    Entries are exact polynomials in the coupling symbol c and the log
    symbol L; the sample lam enters numerically.
    """

    k: int
    lam: Fraction
    matrix: Tuple[Tuple[WickPoly, ...], ...]
    verdict: str  # "diagonal" or "reducible-indecomposable"

    @property
    def dim(self) -> int:
        return self.k // 2 + 1


def scaling_multiplet(k: int, coupling: str = "generic",
                      lam: Fraction = Fraction(2)) -> ScalingMultiplet:
    """Generator matrix of the scale action on the Wick-power multiplet.

    coupling is one of "generic", "minimal" (both keep c symbolic and
    nonzero) or "conformal" (c = 0).  The verdict reads off the structure:
    for k >= 2 at nonzero c the matrix has the single eigenvalue lam^k with
    a full nilpotent chain (no invariant complement); at conformal coupling
    or k = 1 it is diagonal.  The tests check the nilpotent structure.
    """
    if k < 1:
        raise ValueError("field power must be >= 1")
    if coupling not in ("generic", "minimal", "conformal"):
        raise ValueError(f"unknown coupling {coupling!r}")
    lam = Fraction(lam)
    if lam <= 0 or lam == 1:
        raise ValueError("sample scale factor must be positive and != 1")
    m = k // 2
    dim = m + 1
    lam_k = WickPoly.scalar(lam ** k)
    entries = [[WickPoly.zero()] * dim for _ in range(dim)]
    for j in range(dim):
        kk = k - 2 * j
        for i in range(j, dim):
            step = i - j
            if k - 2 * i < 0:
                continue
            coeff = Fraction(math.factorial(kk),
                             math.factorial(step) * math.factorial(k - 2 * i))
            cell = WickPoly({Monomial(ricci=0, log=step, c=step): coeff}) * lam_k
            if coupling == "conformal" and step > 0:
                cell = WickPoly.zero()
            entries[i][j] = cell
    matrix = tuple(tuple(row) for row in entries)
    verdict = ("diagonal" if coupling == "conformal" or k == 1
               else "reducible-indecomposable")
    return ScalingMultiplet(k, lam, matrix, verdict)
