"""Shipped finite models: categories, actions, implementations and fixtures.

These are the small worked models every report and test runs on; none of
them needs external data.

The registries at the end name every shipped model and fixture and which
of them go together, and the CLI's choices read their keys.  Importing this module loads only `fingroup`
and `cohomology2`: each builder imports the layers it builds with in its own
body, so a verb loads only the layers of what it builds.
"""

from __future__ import annotations

from functools import cache, lru_cache, partial
from typing import TYPE_CHECKING

from . import fingroup as fg
from .cohomology2 import Cochain2, trivial_cochain

if TYPE_CHECKING:
    from .fincat import FinCat, GAction
    from .multiplet import FieldSpaceAction


@lru_cache(maxsize=None)
def _frame_shift_action(group: fg.GroupTable, cat: FinCat, decos) -> GAction:
    """The cyclic `group` acting on the `decorated_frames_category` cat: on n
    frames g sends F_i to F_(i+g mod n), and each arrow keeps its decoration.
    Built and checked once per process for each (group, cat, decos) value."""
    from .fincat import GAction, TheoryFunctor, frame_mid
    n = len(cat.objects)
    functors = []
    for g in group.elements():
        obj_map = {f"F{i}": f"F{(i + g) % n}" for i in range(n)}
        mor_map = {frame_mid(j, i, u): frame_mid((j + g) % n, (i + g) % n, u)
                   for j in range(n) for i in range(n) for u in decos}
        functors.append(TheoryFunctor(cat, cat, obj_map, mor_map))
    return GAction(group, tuple(functors))


# ---------------------------------------------------------------------------
# one-object model: trivial Z2 action, gauge group Z4

def one_object_cyclic_model(power: int = 1):
    """One object with endomorphism group Z4; G = Z2 acts trivially;
    eta(g) is the `power`-th rotation.  Gauge group: Z4."""
    from .covariance import Implementation
    from .fincat import GAction, group_as_category, identity_functor
    cat = group_as_category(fg.cyclic(4), prefix="r")
    functor = identity_functor(cat)
    action = GAction(fg.cyclic(2), (functor, functor))
    eta = [{"*": "r0"}, {"*": f"r{power % 4}"}]
    return Implementation(functor, action, eta)


# ---------------------------------------------------------------------------
# two isomorphic objects swapped by Z2; trivial gauge group

def swap_model():
    from .covariance import Implementation
    from .fincat import FinCat, GAction, TheoryFunctor, identity_functor
    objects = ["X", "Y"]
    mors = [("idX", "X", "X"), ("idY", "Y", "Y"), ("u", "X", "Y"), ("v", "Y", "X")]
    compose = {
        ("idX", "idX"): "idX", ("idY", "idY"): "idY",
        ("u", "idX"): "u", ("idY", "u"): "u",
        ("v", "idY"): "v", ("idX", "v"): "v",
        ("v", "u"): "idX", ("u", "v"): "idY",
    }
    cat = FinCat(objects, mors, compose, {"X": "idX", "Y": "idY"})
    swap = TheoryFunctor(cat, cat, {"X": "Y", "Y": "X"},
                         {"idX": "idY", "idY": "idX", "u": "v", "v": "u"})
    functor = identity_functor(cat)
    action = GAction(fg.cyclic(2), (functor, swap))
    eta = [{"X": "idX", "Y": "idY"}, {"X": "u", "Y": "v"}]
    return Implementation(functor, action, eta)


# ---------------------------------------------------------------------------
# frame rotation model: Z4 relabelling 4 frames, Z2-decorated arrows

def frame_rotation_model(twist_parity: bool = True):
    """G = Z4 cyclically relabels 4 frame objects; arrows carry a Z2 decoration.

    The theory functor embeds the plain frame groupoid into the decorated one.
    With twist_parity the implementation picks the decorated lift of parity
    g mod 2 (still a trivial cocycle, since parity is a homomorphism).
    """
    from .covariance import Implementation
    from .fincat import TheoryFunctor, decorated_frames_category, frame_mid
    n = 4
    plain = decorated_frames_category(n, fg.trivial_group())
    deco = decorated_frames_category(n, fg.cyclic(2))

    functor = TheoryFunctor(plain, deco, {f"F{i}": f"F{i}" for i in range(n)},
                            {frame_mid(j, i, 0): frame_mid(j, i, 0)
                             for j in range(n) for i in range(n)})

    action = _frame_shift_action(fg.cyclic(4), plain, (0,))

    eta = []
    for g in range(4):
        s = (g % 2) if twist_parity else 0
        eta.append({f"F{i}": frame_mid((i + g) % n, i, s) for i in range(n)})
    impl = Implementation(functor, action, eta)
    psi = {g: frame_mid((-g) % n, 0, 0) for g in range(4)}
    return impl, psi, "F0"


# ---------------------------------------------------------------------------
# spin-frame model: Z4 double-covering a Z2 frame flip, gauge group Z4

def spin_frame_model():
    """S = Z4 acts on 2 frames through its quotient Z2; arrows carry a Z4
    decoration and eta(s) lifts the frame jump with decoration s.

    The cocycle is trivial, the gauge group is Z4, and the kernel element
    s = 2 is implemented by the central gauge involution (decoration 2).
    """
    from .covariance import Implementation
    from .fincat import decorated_frames_category, frame_mid, identity_functor
    z4 = fg.cyclic(4)
    n = 2
    cat = decorated_frames_category(n, z4)
    functor = identity_functor(cat)
    action = _frame_shift_action(z4, cat, z4.elements())
    eta = [{f"F{i}": frame_mid((i + s) % n, i, s) for i in range(n)}
           for s in range(4)]
    return Implementation(functor, action, eta)


# ---------------------------------------------------------------------------
# field-space fixtures

_J = ((0, -1), (1, 0))  # quarter rotation


def vector_multiplet_action():
    """A two-component field transforming in the vector pattern
    star(g) = (rotation by g)^-1 under the finite rotation subgroup Z4;
    trivial gauge group and trivial cocycle."""
    from .exactlin import Mat
    from .multiplet import FieldSpaceAction, MatrixRep
    z4 = fg.cyclic(4)
    triv = fg.trivial_group()
    j = Mat(_J)
    jinv = j.inverse()
    star = [Mat.identity(2)]
    for _ in range(3):
        star.append(star[-1] * jinv)
    dot = MatrixRep(triv, 2, (Mat.identity(2),))
    return FieldSpaceAction(dot, tuple(star), trivial_cochain(z4, triv))


# (n, dot sign, k1, k2): G = Z_n, star(g) = diag(i^(k1 g), i^(k2 g))
_BLOCK_SPECS = (
    (2, 1, 0, 2),    # trivial vs sign block
    (2, -1, 0, 2),
    (4, -1, 0, 2),
    (4, -1, 1, 3),   # the Gaussian character pair (i, -i)
)


def block_diagonal_action(row: int) -> FieldSpaceAction:
    """The direct-product fixture of `_BLOCK_SPECS[row]`, with A = Z2."""
    from .exactlin import I as IU, Mat
    from .multiplet import FieldSpaceAction, MatrixRep
    n, sign, k1, k2 = _BLOCK_SPECS[row]
    z2 = fg.cyclic(2)
    dot = MatrixRep(z2, 2, (Mat.identity(2), Mat([[sign, 0], [0, sign]])))
    star = tuple(Mat([[IU ** (k1 * g), 0], [0, IU ** (k2 * g)]]) for g in range(n))
    return FieldSpaceAction(dot, star, trivial_cochain(fg.cyclic(n), z2))


def block_diagonal_fixtures():
    """Every direct-product fixture with two inequivalent irreducible one-
    dimensional G-blocks; the no-mixing assertion is armed on all of them."""
    return [block_diagonal_action(row) for row in range(len(_BLOCK_SPECS))]


def standard_submultiplets():
    """Coordinate-line injections/projections for two-dimensional fixtures."""
    from .exactlin import Mat
    from .multiplet import SubMultiplet
    sub1 = SubMultiplet(Mat([[1], [0]]), Mat([[1, 0]]))
    sub2 = SubMultiplet(Mat([[0], [1]]), Mat([[0, 1]]))
    return sub1, sub2


def equivalent_blocks_action():
    """Two copies of the trivial G-representation swapped by the gauge
    element: the mixing witness is (alpha, 1)."""
    from .exactlin import Mat
    from .multiplet import FieldSpaceAction, MatrixRep
    z2 = fg.cyclic(2)
    swap = Mat([[0, 1], [1, 0]])
    dot = MatrixRep(z2, 2, (Mat.identity(2), swap))
    star = (Mat.identity(2), Mat.identity(2))
    return FieldSpaceAction(dot, star, trivial_cochain(z2, z2))


def central_z4_mixing_action():
    """The central Z4-model cocycle (A = Z4, xi(g,g) = r^2, phi = id) with a
    genuinely twisted star action: star(g) = i*identity squares to dot(r^2),
    and dot(r) is a rotation mixing the two copies of the multiplier block."""
    from .exactlin import I as IU, Mat
    from .multiplet import FieldSpaceAction, MatrixRep
    z2, z4 = fg.cyclic(2), fg.cyclic(4)
    j = Mat(_J)
    dot = MatrixRep(z4, 2, (Mat.identity(2), j, j * j, j * j * j))
    star = (Mat.identity(2), Mat.identity(2).scale(IU))
    cochain = Cochain2(z2, z4, ((0, 0), (0, 2)), (0, 0))
    return FieldSpaceAction(dot, star, cochain)


def q8_mixing_action():
    """The nontrivial-class cocycle (A = Z4, phi = inversion, xi(g,g) = r^2)
    whose extension is the quaternion group; the standard two-dimensional
    representation mixes the two inequivalent multiplier lines."""
    from .exactlin import I as IU, Mat
    from .multiplet import FieldSpaceAction, MatrixRep
    z2, z4 = fg.cyclic(2), fg.cyclic(4)
    d = Mat([[IU, 0], [0, -IU]])
    dot = MatrixRep(z4, 2, (Mat.identity(2), d, d * d, d * d * d))
    star = (Mat.identity(2), Mat(_J))
    aut4 = fg.compute_aut(z4)
    inv_idx = aut4.index_of((0, 3, 2, 1))
    cochain = Cochain2(z2, z4, ((0, 0), (0, 2)), (0, inv_idx))
    return FieldSpaceAction(dot, star, cochain)


def eigenline_submultiplets():
    """The two rotation eigenlines (1, -i) and (1, i) with dual projections."""
    from fractions import Fraction
    from .exactlin import I as IU, Mat
    from .multiplet import SubMultiplet
    half = Fraction(1, 2)
    sub1 = SubMultiplet(Mat([[1], [-IU]]), Mat([[half, IU * half]]))
    sub2 = SubMultiplet(Mat([[1], [IU]]), Mat([[half, -IU * half]]))
    return sub1, sub2


def q8_two_dim_rep():
    """The faithful two-dimensional representation of the quaternion group."""
    from .exactlin import I as IU, Mat, ONE
    from .multiplet import MatrixRep
    q8 = fg.quaternion8()
    d = Mat([[IU, 0], [0, -IU]])
    j = Mat([[0, 1], [-1, 0]])
    mats = {0: Mat.identity(2), 1: Mat.identity(2).scale(-ONE),
            2: d, 3: -d, 4: j, 5: -j, 6: d * j, 7: -(d * j)}
    return MatrixRep(q8, 2, tuple(mats[e] for e in range(8)))


def q8_sign_rep(axis: str):
    """A one-dimensional character of Q8: trivial for axis "1", otherwise the
    character whose kernel is the cyclic subgroup spanned by the axis."""
    from .exactlin import Mat
    from .multiplet import MatrixRep
    kernel = {"1": range(8), "i": (0, 1, 2, 3), "j": (0, 1, 4, 5), "k": (0, 1, 6, 7)}[axis]
    return MatrixRep(fg.quaternion8(), 1,
                     tuple(Mat([[1 if e in kernel else -1]]) for e in range(8)))


NAMED_MODELS = {
    "Z4Rot": lambda: one_object_cyclic_model(1),
    "Z4Rot3": lambda: one_object_cyclic_model(3),
    "SwapIso": swap_model,
    "FrameRot": lambda: frame_rotation_model()[0],
    "SpinFrame": spin_frame_model,
}


# ---------------------------------------------------------------------------
# fixture registries: name -> builder, of no argument except in KERNEL_MAPS

COCHAIN_FIXTURES = {
    "trivial-z2z2": lambda: trivial_cochain(fg.cyclic(2), fg.cyclic(2)),
    "z4-producing": lambda: Cochain2(fg.cyclic(2), fg.cyclic(2),
                                     ((0, 0), (0, 1)), (0, 0)),
    "s3-producing": lambda: Cochain2(
        fg.cyclic(2), fg.cyclic(3), ((0, 0), (0, 0)),
        (0, fg.compute_aut(fg.cyclic(3)).index_of((0, 2, 1)))),
}

FIELD_FIXTURES = {
    "vector": vector_multiplet_action,
    "blocks": lambda: block_diagonal_action(0),
    "blocks-z4": lambda: block_diagonal_action(2),
    "equivalent-blocks": equivalent_blocks_action,
    "central-z4": central_z4_mixing_action,
    "q8": q8_mixing_action,
}

# the submultiplet pair `detect-mixing` scans on each field fixture
SUBMULTIPLETS = {**dict.fromkeys(FIELD_FIXTURES, standard_submultiplets),
                 "q8": eigenline_submultiplets}


def _covering():
    from . import covering
    return covering


# Each cover and representation is built once per process and shared by
# every caller: a cover's own checks, in its constructor, run at that first
# build, while `spin_obstruction` still validates the representation it is
# given on every call.
COVERS = {
    "q8": cache(lambda: _covering().q8_cover()),
    "z4-z2": cache(lambda: _covering().cyclic_cover(4, 2)),
    "split-z2-z3": cache(lambda: _covering().split_cover(2, fg.cyclic(3))),
}

# cover -> representation name -> builder of a representation of its S
REPS = {"q8": {"2d": cache(q8_two_dim_rep),
               **{f"sign-{axis}": cache(partial(q8_sign_rep, axis)) for axis in "1ijk"}}}

# a cover's kernel group K -> a map from K to Z2; `flip` sends K's element e to e mod 2
KERNEL_MAPS = {
    "flip": lambda k: fg.GroupHom(k, fg.cyclic(2), tuple(e % 2 for e in k.elements())),
    "trivial": lambda k: fg.GroupHom(k, fg.cyclic(2), (0,) * k.order),
}
