"""Command-line front end: thin adapters over the library, nothing more.

Exit codes: 0 all verdicts pass, 1 a mathematical verdict is negative
(with witness), 2 input error.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from . import __version__
from . import models
from .cohomology2 import (SearchSpaceTooLarge, classify_h2, coboundary_twist,
                          cohomologous, is_neutral, trivial_cochain,
                          validate_cocycle)
from .fingroup import check_hom, image, is_injective, is_surjective, kernel
from .schemas import (ParseError, SchemaError, cochain_from_obj, cochain_to_obj,
                      group_from_obj, group_to_obj, loads)

# Only the layers every verb shares are imported here.  Each handler imports
# what it calls from `covariance`, `covering`, `extension`, `multiplet` and
# `wickscale` in its own body, so a fresh process loads only the layers its
# verb runs.


class RunReport:
    """One verb's report: its input digests, its verdicts in order and its
    data, with the wall-clock time when asked."""

    def __init__(self, command: str) -> None:
        self.command = command
        self.inputs: Dict[str, str] = {}
        self.verdicts: List[Dict[str, Any]] = []
        self.data: Dict[str, Any] = {}
        self.timing_ms: Optional[float] = None
        self.version = __version__

    def verdict(self, check: str, ok: bool, **detail) -> None:
        entry = {"check": check, "ok": bool(ok)}
        entry.update(detail)
        self.verdicts.append(entry)

    def digest(self, name: str, payload: Any) -> None:
        blob = json.dumps(payload, sort_keys=True).encode()
        self.inputs[name] = hashlib.sha256(blob).hexdigest()

    @property
    def all_ok(self) -> bool:
        return all(v["ok"] for v in self.verdicts)

    def to_json(self) -> str:
        body = {
            "command": self.command,
            "inputs": self.inputs,
            "verdicts": self.verdicts,
            "data": self.data,
            "timing_ms": self.timing_ms,
            "version": self.version,
        }
        return json.dumps(body, sort_keys=True, indent=2)

    def to_human(self) -> str:
        lines = [f"covlab {self.command} (v{self.version})"]
        for name, dig in sorted(self.inputs.items()):
            lines.append(f"  input {name}: sha256:{dig[:16]}")
        for v in self.verdicts:
            mark = "ok " if v["ok"] else "FAIL"
            extra = {k: val for k, val in v.items() if k not in ("check", "ok")}
            tail = f"  {extra}" if extra else ""
            lines.append(f"  [{mark}] {v['check']}{tail}")
        for k, val in self.data.items():
            lines.append(f"  {k}: {val}")
        if self.timing_ms is not None:
            lines.append(f"  timing_ms: {self.timing_ms:.1f}")
        return "\n".join(lines)


def _read_cochain(args, report: RunReport):
    if args.input is not None:
        if args.fixture is not None:
            raise SchemaError("input", "give --input or --fixture, not both")
        try:
            if args.input == "-":
                text = sys.stdin.read()
            else:
                with open(args.input) as f:
                    text = f.read()
        except OSError as err:
            raise SchemaError("input", str(err)) from None
        obj = loads(text)
        report.digest("cochain", obj)
        return cochain_from_obj(obj)
    c = models.COCHAIN_FIXTURES[args.fixture or "trivial-z2z2"]()
    report.digest("cochain", cochain_to_obj(c))
    return c


# ---------------------------------------------------------------------------
# verb handlers; each fills a RunReport and returns nothing, and `verb`
# registers it in HANDLERS with its help line and flags for build_parser

Flag = Tuple[Tuple[str, ...], Dict[str, Any]]
HANDLERS: Dict[str, Callable[[argparse.Namespace, RunReport], None]] = {}
_VERB_FLAGS: Dict[str, Tuple[str, Tuple[Flag, ...]]] = {}


def _flag(*names: str, **options: Any) -> Flag:
    return names, options


def verb(name: str, help: str, *flags: Flag):
    """Register the decorated handler as verb `name`, with its help line and
    its flags in declaration order."""
    def register(handler):
        HANDLERS[name] = handler
        _VERB_FLAGS[name] = (help, flags)
        return handler
    return register


COCHAIN = (_flag("--input", help="cochain JSON file ('-' for stdin)"),
           _flag("--fixture", choices=sorted(models.COCHAIN_FIXTURES),
                 help="built-in cochain"))
MODEL = _flag("--model", default="Z4Rot", choices=sorted(models.NAMED_MODELS))
COVER = _flag("--cover", default="q8", choices=sorted(models.COVERS))
ZETA = _flag("--zeta", default="flip", choices=sorted(models.KERNEL_MAPS))


@verb("validate-cocycle", "check the two cocycle laws", *COCHAIN)
def cmd_validate_cocycle(args, report: RunReport) -> None:
    c = _read_cochain(args, report)
    res = validate_cocycle(c)
    report.verdict("cocycle-laws", res.valid,
                   **({} if res.valid else
                      {"law": res.violation, "witness": list(res.witness)}))
    report.data["normalized"] = c.is_normalized()


@verb("classify-h2", "classify H^2(G, A)",
      _flag("--G", required=True), _flag("--A", required=True))
def cmd_classify_h2(args, report: RunReport) -> None:
    G = group_from_obj(args.G, "G")
    A = group_from_obj(args.A, "A")
    report.digest("G", group_to_obj(G))
    report.digest("A", group_to_obj(A))
    res = classify_h2(G, A)
    report.verdict("classification-complete", True, classes=res.count)
    report.data["classes"] = [
        {"size": cls.size, "distinguished": cls.distinguished,
         "neutral": cls.neutral, "xi": [list(r) for r in cls.representative.xi],
         "phi": list(cls.representative.phi)}
        for cls in res.classes
    ]


@verb("build-extension", "build the extension group", *COCHAIN)
def cmd_build_extension(args, report: RunReport) -> None:
    from .extension import build_extension, classify_type
    c = _read_cochain(args, report)
    ext = build_extension(c)
    t = classify_type(ext)
    inc, proj = ext.inclusion, ext.projection
    exact = (check_hom(inc).valid and check_hom(proj).valid
             and is_injective(inc) and is_surjective(proj)
             and image(inc) == kernel(proj))
    report.verdict("extension-built", True, order=ext.E.order)
    report.verdict("exact-sequence", exact)
    report.data["labels"] = list(t.labels)
    report.data["preferred"] = t.preferred
    report.data["order_profile"] = list(ext.E.order_profile())
    report.data["table"] = [list(r) for r in ext.E.table]


@verb("gauge-group", "natural automorphisms of a model", MODEL)
def cmd_gauge_group(args, report: RunReport) -> None:
    from .covariance import compute_gauge_group
    impl = models.NAMED_MODELS[args.model]()
    report.digest("model", args.model)
    gauge = compute_gauge_group(impl.functor)
    report.verdict("gauge-group-computed", True, order=gauge.order)
    report.data["order_profile"] = list(gauge.table.order_profile())
    report.data["families"] = [list(f) for f in gauge.families]


@verb("extract-cocycle", "canonical cocycle of a model", MODEL)
def cmd_extract_cocycle(args, report: RunReport) -> None:
    from .covariance import extract_cocycle
    impl = models.NAMED_MODELS[args.model]()
    report.digest("model", args.model)
    c = extract_cocycle(impl)
    report.verdict("cocycle-valid", validate_cocycle(c).valid)
    report.verdict("normalized", c.is_normalized())
    report.data["cochain"] = cochain_to_obj(c)
    w = cohomologous(trivial_cochain(c.G, c.A), c)
    report.data["class_trivial"] = w is not None
    if w is not None:
        report.data["trivializing_twist"] = list(w)


@verb("compare-impls", "twist relating two implementations", MODEL,
      _flag("--other", default="Z4Rot3", choices=sorted(models.NAMED_MODELS)))
def cmd_compare_impls(args, report: RunReport) -> None:
    from .covariance import compare_implementations, extract_cocycle
    i1 = models.NAMED_MODELS[args.model]()
    i2 = models.NAMED_MODELS[args.other]()
    report.digest("model", args.model)
    report.digest("other", args.other)
    w = compare_implementations(i1, i2)
    report.verdict("witness-found", True, zeta=list(w))
    report.verdict("cocycles-cohomologous",
                   coboundary_twist(extract_cocycle(i1), w) == extract_cocycle(i2))


@verb("lift-extension", "lift a model to its extension group", MODEL)
def cmd_lift_extension(args, report: RunReport) -> None:
    from .covariance import extract_cocycle, lift_to_extension
    impl = models.NAMED_MODELS[args.model]()
    report.digest("model", args.model)
    lifted = lift_to_extension(impl)
    report.verdict("lifted-cocycle-neutral", is_neutral(extract_cocycle(lifted)),
                   extension_order=lifted.action.group.order)


@verb("verify-multiplet", "check the field-action laws",
      _flag("--fixture", default="vector", choices=sorted(models.FIELD_FIXTURES)))
def cmd_verify_multiplet(args, report: RunReport) -> None:
    from .multiplet import build_rho
    # an action that breaks a field law is refused when it is built (exit 2)
    a = models.FIELD_FIXTURES[args.fixture]()
    report.digest("fixture", args.fixture)
    report.verdict("field-action-laws", True)
    rho = build_rho(a)
    report.verdict("extended-rep-true", True, extension_order=rho.group.order)


@verb("detect-mixing", "scan for submultiplet mixing",
      _flag("--fixture", default="blocks", choices=sorted(models.FIELD_FIXTURES)))
def cmd_detect_mixing(args, report: RunReport) -> None:
    from .multiplet import detect_mixing
    a = models.FIELD_FIXTURES[args.fixture]()
    report.digest("fixture", args.fixture)
    res = detect_mixing(a, *models.SUBMULTIPLETS[args.fixture]())
    report.verdict("no-mixing", res.witness is None,
                   **({} if res.witness is None else
                      {"witness": list(res.witness_pair)}))
    if res.corollary_violated:
        report.verdict("no-mixing-corollary", False, witness=list(res.witness_pair))
    report.data["no_mixing_asserted"] = res.no_mixing_asserted


@verb("cover-z", "factor set of a central cover section", COVER, ZETA)
def cmd_cover_z(args, report: RunReport) -> None:
    from .covering import (all_sections, extended_quotient, induced_gauge_cocycle,
                           section_twist, z_class_trivial, z_cocycle)
    cover = models.COVERS[args.cover]()
    report.digest("cover", args.cover)
    sections = all_sections(cover)
    z = z_cocycle(sections[0])
    report.verdict("factor-set-valid", validate_cocycle(z).valid)
    report.data["z_values"] = [[cover.kernel_elements[v] for v in row]
                               for row in z.xi]
    report.data["class_trivial"] = z_class_trivial(z) is not None
    # z(s) is z(s0) twisted by the central map l -> s(l) s0(l)^-1; the verdict
    # checks that named witness, as compare-impls checks its own
    same_class = all(
        coboundary_twist(z, section_twist(sections[0], s)) == z_cocycle(s)
        for s in sections)
    report.verdict("section-independent-class", same_class,
                   sections=len(sections))

    zeta = models.KERNEL_MAPS[args.zeta](cover.K)
    # a kernel map that is not a central hom is refused here (exit 2)
    induced = induced_gauge_cocycle(z, zeta)
    report.verdict("kernel-restriction-central-hom", True)
    report.data["induced_cocycle_trivial"] = z_class_trivial(induced) is not None

    # worked example: the extended group of the base, for a kernel of order 2
    q = extended_quotient(cover, zeta)
    if q is not None:
        report.data["quotient_extended_group"] = {
            "order": q.order, "order_profile": list(q.order_profile())}


@verb("spin-obstruction", "descent of a cover representation", COVER,
      _flag("--rep", default="2d", choices=sorted(set().union(*models.REPS.values()))),
      ZETA)
def cmd_spin_obstruction(args, report: RunReport) -> None:
    from .covering import spin_obstruction
    reps = models.REPS.get(args.cover)
    if reps is None:
        raise SchemaError("rep", "built-in representations exist for the "
                          f"{' and '.join(sorted(models.REPS))} cover")
    if args.rep not in reps:
        raise SchemaError("rep", f"the {args.cover} cover has no representation {args.rep!r}")
    cover = models.COVERS[args.cover]()
    report.digest("cover", args.cover)
    rep = reps[args.rep]()
    report.digest("rep", args.rep)
    zeta = models.KERNEL_MAPS[args.zeta](cover.K)
    verdict = spin_obstruction(cover, zeta, rep)
    report.verdict("descends", verdict.descends,
                   **({} if verdict.descends else
                      {"witness": verdict.obstruction_witness}))
    report.data["model_consistent"] = verdict.model_consistent
    report.data["zeta_trivial"] = verdict.zeta_trivial


@verb("wick-product", "star product of two polynomials",
      _flag("--p", required=True), _flag("--q", required=True))
def cmd_wick_product(args, report: RunReport) -> None:
    from .wickscale import parse_wickpoly, wick_product
    p = parse_wickpoly(args.p)
    q = parse_wickpoly(args.q)
    report.digest("p", str(p))
    report.digest("q", str(q))
    out = wick_product(p, q)
    other = wick_product(q, p)
    report.verdict("commutes", out == other)
    report.data["product"] = str(out)


@verb("scale-power", "almost-homogeneous scaling of Phi^k",
      _flag("--k", type=int, required=True),
      _flag("--conformal", action="store_true",
            help="evaluate at conformal coupling (c = 0)"))
def cmd_scale_power(args, report: RunReport) -> None:
    from fractions import Fraction
    from .wickscale import ordering_route, scale_wick_power
    report.digest("k", args.k)
    out = scale_wick_power(args.k)
    report.verdict("closed-form-matches-ordering-route",
                   out == ordering_route(args.k))
    if args.conformal:
        out = out.set_symbol("c", Fraction(0))
    report.data["scaled_power"] = str(out)


@verb("scaling-cocycle", "rigid-scaling cocycle certificate",
      _flag("--xi-nonzero", action="store_true"))
def cmd_scaling_cocycle(args, report: RunReport) -> None:
    from fractions import Fraction
    from .wickscale import (GaugeElement, gauge_scaling_action,
                            scaling_cocycle_nontrivial)
    report.digest("xi_nonzero", bool(args.xi_nonzero))
    cert = scaling_cocycle_nontrivial(xi_nonzero=args.xi_nonzero)
    report.verdict("certificate-emitted", True, nontrivial=cert.nontrivial)
    report.data["certificate"] = {
        "nontrivial": cert.nontrivial,
        "lambda": str(cert.lam) if cert.lam is not None else None,
        "element": None if cert.element is None else
        {"sigma": cert.element.sigma, "mu": str(cert.element.mu)},
        "reachable_mus": None if cert.reachable_mus is None else
        [str(m) for m in cert.reachable_mus],
        "required_mu": str(cert.required_mu) if cert.required_mu is not None else None,
        "reason": cert.reason,
    }
    if not args.xi_nonzero:
        action = gauge_scaling_action(Fraction(2), GaugeElement(-1, Fraction(3)))
        report.data["sample_action"] = {"sigma": action.sigma, "mu": str(action.mu)}


# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """Built once per process; every parse_args call fills a fresh Namespace."""
    parser = argparse.ArgumentParser(
        prog="covlab",
        description="exact group-cohomology / covariance / Wick-scaling workbench")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable report")
    parser.add_argument("--timing", action="store_true",
                        help="include wall-clock timing in the report")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (summary, flags) in _VERB_FLAGS.items():
        p = sub.add_parser(name, help=summary)
        for names, options in flags:
            p.add_argument(*names, **options)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    report = RunReport(command=args.verb)
    start = time.monotonic()
    try:
        HANDLERS[args.verb](args, report)
    except (ParseError, SchemaError, SearchSpaceTooLarge, ValueError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    if args.timing:
        report.timing_ms = (time.monotonic() - start) * 1000.0
    try:
        print(report.to_json() if args.json else report.to_human(), flush=True)
    except BrokenPipeError:
        # the reader has gone: point stdout at devnull so the interpreter's
        # final flush does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
