"""The benchmark's three workloads, each as one pass of `covlab` CLI calls.

Everything here is generated from the seed with the standard library alone:
the seeded cochains are built and checked with closed-form cyclic-group
arithmetic, never with `covlab` itself, so the expected exit code of every
call is known before the program runs.  NOTES.md says why each workload
exists.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, List, Optional, Tuple

WORKLOADS = ("h2-grid", "model-pipeline", "exact-algebra")

INPUT = "@input"  # argv placeholder for the path of the call's --input file


@dataclass(frozen=True)
class Call:
    """One `covlab.cli.main` invocation and what it must return."""

    argv: Tuple[str, ...]
    expect: FrozenSet[int]          # exit codes the call may return
    input: Optional[str] = None     # text of the --input file, if any
    corrupted: bool = False         # input is a cochain broken on purpose

    @property
    def key(self) -> str:
        """Identifies the call across runs: its argv and its input text."""
        blob = json.dumps([list(self.argv), self.input]).encode()
        return hashlib.sha256(blob).hexdigest()

    @property
    def label(self) -> str:
        return " ".join(a for a in self.argv if a != "--json")


def _call(*argv: str, expect=(0,), **kw) -> Call:
    return Call(("--json",) + argv, frozenset(expect), **kw)


# ---------------------------------------------------------------------------
# h2-grid

# Every built-in pair whose naive search has at most about 50k candidates.
# Pairs the enumeration cap refuses are left out (NOTES.md).
H2_PAIRS = ([("Z2", a) for a in ("Z2", "Z3", "Z4", "Z2xZ2", "S3", "Q8", "Z6", "Z8")]
            + [("Z3", a) for a in ("Z2", "Z3", "Z4", "Z2xZ2", "Z6", "S3")]
            + [("Z4", "Z2"), ("Z2xZ2", "Z2")])


def h2_grid(rng: random.Random, tiny: bool) -> List[Call]:
    pairs = [p for p in H2_PAIRS if p[0] == "Z2"] if tiny else H2_PAIRS
    return [_call("classify-h2", "--G", g, "--A", a) for g, a in pairs]


# ---------------------------------------------------------------------------
# model-pipeline

MODELS = ("FrameRot", "SpinFrame", "SwapIso", "Z4Rot", "Z4Rot3")
COCHAIN_FIXTURES = ("s3-producing", "trivial-z2z2", "z4-producing")


def _units(m: int) -> List[int]:
    """Units of Z_m in increasing order.  Multiplication by u is the
    automorphism (0, u, 2u, ...), so this is also the lexicographic order of
    Aut(Z_m), which is how a cochain's phi indexes automorphisms."""
    return [u for u in range(1, m) if math.gcd(u, m) == 1] or [1]


def _cyclic_obj(n: int) -> dict:
    return {"name": f"Z{n}", "table": [[(i + j) % n for j in range(n)] for i in range(n)]}


@dataclass(frozen=True)
class _CyclicCochain:
    """A normalized cochain on (Z_n, Z_m) whose phi sends g to
    multiplication by u**g."""

    n: int
    m: int
    u: int
    xi: Tuple[Tuple[int, ...], ...]

    def act(self, g: int, a: int) -> int:
        return pow(self.u, g, self.m) * a % self.m

    def is_cocycle(self) -> bool:
        n, m, xi = self.n, self.m, self.xi
        return all(
            (xi[g2][g1] + xi[(g2 + g1) % n][g0]) % m
            == (self.act(g2, xi[g1][g0]) + xi[g2][(g1 + g0) % n]) % m
            for g2 in range(n) for g1 in range(n) for g0 in range(n))

    def twisted(self, zeta: List[int]) -> "_CyclicCochain":
        n, m = self.n, self.m
        xi = tuple(tuple((zeta[g1] + self.act(g1, zeta[g0]) + self.xi[g1][g0]
                          - zeta[(g1 + g0) % n]) % m for g0 in range(n))
                   for g1 in range(n))
        return _CyclicCochain(n, m, self.u, xi)

    def to_json(self) -> str:
        units = _units(self.m)
        phi = [units.index(pow(self.u, g, self.m)) for g in range(self.n)]
        return json.dumps({"G": _cyclic_obj(self.n), "A": _cyclic_obj(self.m),
                           "xi": [list(r) for r in self.xi], "phi": phi})


def _carry_cocycle(n: int, m: int, u: int, c: int) -> _CyclicCochain:
    """c times the carry cocycle on Z_n, with Z_n acting on Z_m through the
    unit u.  A cocycle by the carry identity when u**n = 1 and u*c = c."""
    assert pow(u, n, m) == 1 % m and u * c % m == c
    xi = tuple(tuple(c if g1 + g0 >= n else 0 for g0 in range(n)) for g1 in range(n))
    return _CyclicCochain(n, m, u, xi)


# Fixed bases, so every seed does about the same work; the seed picks the
# twist and the corrupted cell.  As (n, m, u, c): Z8 and Z9 (nonsplit
# central), Q8 (nonsplit, Z2 inverting Z4), S3 (split, Z2 inverting Z3).
TWIST_BASES = ((4, 2, 1, 1), (3, 3, 1, 1), (2, 4, 3, 2), (2, 3, 2, 0))
CORRUPTION_BASES = ((4, 3, 2, 0), (3, 4, 1, 2))


def _random_twist(rng: random.Random, base: _CyclicCochain) -> _CyclicCochain:
    zeta = [0] + [rng.randrange(base.m) for _ in range(base.n - 1)]
    return base.twisted(zeta)


def _corrupt(rng: random.Random, c: _CyclicCochain) -> _CyclicCochain:
    """Change one xi cell off the normalization border so that the cocycle
    law fails."""
    while True:
        g1, g0 = rng.randrange(1, c.n), rng.randrange(1, c.n)
        v = rng.randrange(1, c.m)
        xi = [list(r) for r in c.xi]
        xi[g1][g0] = (xi[g1][g0] + v) % c.m
        bad = _CyclicCochain(c.n, c.m, c.u, tuple(tuple(r) for r in xi))
        if not bad.is_cocycle():
            return bad


def model_pipeline(rng: random.Random, tiny: bool) -> List[Call]:
    calls = []
    for m in MODELS:
        calls += [_call("gauge-group", "--model", m),
                  _call("extract-cocycle", "--model", m),
                  _call("lift-extension", "--model", m),
                  _call("compare-impls", "--model", m, "--other", m)]
    calls.append(_call("compare-impls", "--model", "Z4Rot", "--other", "Z4Rot3"))
    for f in COCHAIN_FIXTURES:
        calls += [_call("validate-cocycle", "--fixture", f),
                  _call("build-extension", "--fixture", f)]

    for base in TWIST_BASES:
        text = _random_twist(rng, _carry_cocycle(*base)).to_json()
        calls += [_call("validate-cocycle", "--input", INPUT, input=text),
                  _call("build-extension", "--input", INPUT, input=text)]
    for base in CORRUPTION_BASES:
        text = _corrupt(rng, _random_twist(rng, _carry_cocycle(*base))).to_json()
        # validate-cocycle must name the broken law (exit 1); build-extension
        # must refuse the cochain as a verdict or an input error, never crash.
        calls += [_call("validate-cocycle", "--input", INPUT, input=text,
                        expect=(1,), corrupted=True),
                  _call("build-extension", "--input", INPUT, input=text,
                        expect=(1, 2), corrupted=True)]
    return calls


# ---------------------------------------------------------------------------
# exact-algebra

# Exit codes at the commit that defined the benchmark: 1 is a negative
# verdict (mixing found, or a rep that does not descend), 2 is the vector
# fixture's failed invariance precondition.
FIELD_FIXTURES = {  # fixture: (verify-multiplet exit, detect-mixing exit)
    "blocks": (0, 0), "blocks-z4": (0, 0), "central-z4": (0, 1),
    "equivalent-blocks": (0, 1), "q8": (0, 1), "vector": (0, 2),
}
COVERS = ("q8", "split-z2-z3", "z4-z2")
Q8_REPS = {"2d": 1, "sign-1": 0, "sign-i": 0, "sign-j": 0, "sign-k": 0}  # rep: exit
SCALE_POWERS = (16, 32, 64, 96, 128)
WICK_PRODUCTS_PER_PASS = 6
# Six terms with these Phi powers, in seeded order: the product's cost
# depends on the powers, so a fixed set keeps the work the same on every seed.
WICK_PHI_POWERS = (0, 2, 5, 7, 10, 12)
WICK_SYMBOLS = ("c", "L", "R", "W", "D")


def _random_wickpoly(rng: random.Random) -> str:
    terms = []
    for phi in rng.sample(WICK_PHI_POWERS, len(WICK_PHI_POWERS)):
        q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 6))
        factors = [str(q)]
        for sym in WICK_SYMBOLS:
            e = rng.randint(0, 2)
            if e:
                factors.append(f"{sym}^{e}")
        factors.append(f"Phi^{phi}")
        terms.append("*".join(factors))
    return " + ".join(terms)


def exact_algebra(rng: random.Random, tiny: bool) -> List[Call]:
    calls = []
    for f, (verify_exit, mixing_exit) in FIELD_FIXTURES.items():
        calls += [_call("verify-multiplet", "--fixture", f, expect=(verify_exit,)),
                  _call("detect-mixing", "--fixture", f, expect=(mixing_exit,))]
    for zeta in ("flip", "trivial"):
        calls += [_call("cover-z", "--cover", c, "--zeta", zeta) for c in COVERS]
        calls += [_call("spin-obstruction", "--cover", "q8", "--rep", rep,
                        "--zeta", zeta, expect=(code,))
                  for rep, code in Q8_REPS.items()]
    calls += [_call("scale-power", "--k", str(k)) for k in SCALE_POWERS]
    calls += [_call("scaling-cocycle"), _call("scaling-cocycle", "--xi-nonzero")]
    for _ in range(WICK_PRODUCTS_PER_PASS):
        calls.append(_call("wick-product", "--p", _random_wickpoly(rng),
                           "--q", _random_wickpoly(rng)))
    return calls


_BUILDERS = {"h2-grid": h2_grid, "model-pipeline": model_pipeline,
             "exact-algebra": exact_algebra}


def build(workload: str, seed: int, tiny: bool = False) -> List[Call]:
    """One pass of the workload, in canonical order."""
    return _BUILDERS[workload](random.Random(f"{workload}/{seed}"), tiny)


def pass_orders(calls: List[Call], seed: int):
    """Yield the calls of pass 0, 1, 2, ... each in a seeded shuffled order."""
    rng = random.Random(f"order/{seed}")
    while True:
        order = list(calls)
        rng.shuffle(order)
        yield order
