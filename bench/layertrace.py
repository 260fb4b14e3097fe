"""Per-layer tracing from outside the program.

`Tracer.install` wraps the public functions of every `covlab` module (and
the few methods named in FUNCTIONS) in place: in the defining module, in
every `covlab` module that bound the function with `from .x import f`, and
in module-level registries such as `cli.HANDLERS` that hold it.  Each call
records a span (name, start, end, parent span, index of the `cli.main`
call); spans stay in memory until `write_spans`.  A layer's self time is
its span time minus the time of its child spans.

No `covlab` file changes; `GroupTable.mul` is left unwrapped because the
wrapper would cost more than the one-line table lookup it times.
"""

from __future__ import annotations

import array
import gzip
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Tuple

# Each layer is one covlab module.
LAYERS = ("cli", "models", "schemas", "fingroup", "cohomology2", "extension",
          "fincat", "covariance", "multiplet", "exactlin", "covering", "wickscale")

# Functions reported one by one: metric prefix -> attribute path in the
# module named by the prefix's first component.
FUNCTIONS: Dict[str, str] = {
    "cli.build_parser": "build_parser",
    "cli.main": "main",
    "fingroup.make_group": "make_group",
    "fingroup.compute_aut": "compute_aut",
    "fingroup.compose_perm": "compose_perm",
    "fingroup.inner_perm": "inner_perm",
    "fingroup.GroupTable.inv": "GroupTable.inv",
    "cohomology2.validate_cocycle": "validate_cocycle",
    "cohomology2.enumerate_normalized_cocycles": "enumerate_normalized_cocycles",
    "cohomology2.classify_h2": "classify_h2",
    "cohomology2.coboundary_twist": "coboundary_twist",
    "cohomology2.cohomologous": "cohomologous",
    "cohomology2.Cochain2": "Cochain2.__init__",
    "extension.build_extension": "build_extension",
    "extension.classify_type": "classify_type",
    "fincat.validate_functor": "validate_functor",
    "fincat.FinCat.inverse": "FinCat.inverse",
    "fincat.FinCat.hom": "FinCat.hom",
    "covariance.compute_gauge_group": "compute_gauge_group",
    "covariance.extract_cocycle": "extract_cocycle",
    "covariance.validate_implementation": "validate_implementation",
    "covariance.lift_to_extension": "lift_to_extension",
    "covariance.compare_implementations": "compare_implementations",
    "multiplet.verify_field_action": "verify_field_action",
    "multiplet.build_rho": "build_rho",
    "multiplet.detect_mixing": "detect_mixing",
    "multiplet.intertwiners": "intertwiners",
    "multiplet.equivalent": "equivalent",
    "multiplet.validate_rep": "validate_rep",
    "exactlin.Mat.mul": "Mat.__mul__",
    "exactlin.Mat.det": "Mat.det",
    "exactlin.null_space": "null_space",
    "covering.all_sections": "all_sections",
    "covering.z_cocycle": "z_cocycle",
    "covering.z_class_trivial": "z_class_trivial",
    "covering.spin_obstruction": "spin_obstruction",
    "wickscale.WickPoly.mul": "WickPoly.__mul__",
    "wickscale.WickPoly.add": "WickPoly.__add__",
    "wickscale.WickPoly.init": "WickPoly.__init__",
    "wickscale.wick_product": "wick_product",
    "wickscale.change_of_ordering": "change_of_ordering",
    "wickscale.scale_wick_power": "scale_wick_power",
}

ENUMERATE = "cohomology2.enumerate_normalized_cocycles"
CLASSIFY = "cohomology2.classify_h2"
VALIDATE = "cohomology2.validate_cocycle"
TWIST = "cohomology2.coboundary_twist"

# What a call's result contributes to the useful-work ratios.
RESULT_COUNTS: Dict[str, Callable] = {
    ENUMERATE: len,                                           # cocycles found
    CLASSIFY: lambda res: sum(cls.size for cls in res.classes),  # cocycles covered
}

RATIOS = ("cohomology2.enumerate.useful_ratio", "cohomology2.orbit.useful_ratio",
          "fingroup.compute_aut.hit_ratio", "trace.overhead_ratio")


def _in_layers(*layers: str) -> Tuple[str, ...]:
    return tuple(f for f in FUNCTIONS if f.split(".")[0] in layers)


# Functions each workload is known to run, tiny passes included; a traced
# run fails when one of them records no calls.
_EVERY_WORKLOAD = ("cli.build_parser", "cli.main", "fingroup.compute_aut",
                   "fingroup.compose_perm", "fingroup.inner_perm",
                   "fingroup.GroupTable.inv", "cohomology2.validate_cocycle",
                   "cohomology2.coboundary_twist", "cohomology2.Cochain2")
_NO_ENUMERATION = ("fingroup.make_group", "cohomology2.cohomologous") + _in_layers("extension")
EXPECTED_CALLS = {
    "h2-grid": _EVERY_WORKLOAD + (ENUMERATE, CLASSIFY),
    "model-pipeline": _EVERY_WORKLOAD + _NO_ENUMERATION
    + _in_layers("fincat", "covariance"),
    "exact-algebra": _EVERY_WORKLOAD + _NO_ENUMERATION
    + _in_layers("multiplet", "exactlin", "covering", "wickscale"),
}


def metric_names() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    out = []
    for prefix in list(FUNCTIONS) + list(LAYERS):
        out += [(f"{prefix}.calls", "count", "lower"), (f"{prefix}.self_s", "s", "lower")]
    out += [(name, "ratio", "lower" if name.startswith("trace.") else "higher")
            for name in RATIOS]
    return out


def _public_functions(module) -> List[str]:
    """Public functions (lru-cached ones too) defined in the module itself."""
    return [attr for attr, obj in vars(module).items()
            if not attr.startswith("_")
            and getattr(obj, "__module__", None) == module.__name__
            and (inspect.isfunction(obj) or hasattr(obj, "cache_info"))]


class Tracer:
    """Span recorder; install() patches covlab, uninstall() restores it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.calls: List[int] = []
        self.self_s: List[float] = []
        self.returned: Dict[str, int] = {name: 0 for name in RESULT_COUNTS}
        self.call_id = 0
        # one entry per span, indexed by span id
        self.span_name = array.array("l")
        self.span_parent = array.array("l")
        self.span_call = array.array("l")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._stack: List[list] = []   # open spans: [span id, child time]
        self._undo: List[Tuple[object, str, object]] = []
        self.originals: Dict[str, object] = {}

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        targets = []  # (span name, owner, attribute)
        for layer in LAYERS:
            mod = importlib.import_module(f"covlab.{layer}")
            targets += [(f"{layer}.{attr}", mod, attr) for attr in _public_functions(mod)]
        # A listed function the program no longer has records no calls, and
        # the completeness check in run.py reports it.
        for name, path in FUNCTIONS.items():
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(sys.modules[f"covlab.{name.split('.')[0]}"], cls_name, None)
                if cls is not None and attr in vars(cls):
                    targets.append((name, cls, attr))
        covlab_modules = [m for n, m in sorted(sys.modules.items())
                          if n == "covlab" or n.startswith("covlab.")]
        for name, owner, attr in targets:
            original = owner.__dict__[attr]
            wrapper = self._wrap(name, original)
            self.originals[name] = original
            if inspect.isclass(owner):
                self._set(owner, attr, wrapper)
                continue
            for mod in covlab_modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
                    elif isinstance(value, dict):
                        for k, v in list(value.items()):
                            if v is original:
                                self._set(value, k, wrapper)

    def _set(self, owner, key, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, key, owner[key]))
            owner[key] = value
        else:
            self._undo.append((owner, key, getattr(owner, key)))
            setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._undo.clear()

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        self.calls.append(0)
        self.self_s.append(0.0)
        calls, self_s, stack = self.calls, self.self_s, self._stack
        sp_name, sp_parent, sp_call = self.span_name, self.span_parent, self.span_call
        sp_start, sp_end = self.span_start, self.span_end
        count = RESULT_COUNTS.get(name)
        returned = self.returned
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            sid = len(sp_name)
            sp_name.append(idx)
            sp_parent.append(stack[-1][0] if stack else -1)
            sp_call.append(tracer.call_id)
            sp_start.append(0.0)
            sp_end.append(0.0)
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                sp_start[sid] = start
                sp_end[sid] = end
                dur = end - start
                calls[idx] += 1
                self_s[idx] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if count is not None:
                returned[name] += count(result)
            return result

        return traced

    # -- results -------------------------------------------------------------
    def _count_inside(self, child: str, ancestor: str) -> int:
        """Spans named `child` that have an open `ancestor` span above them."""
        if child not in self.names or ancestor not in self.names:
            return 0
        c, a = self.names.index(child), self.names.index(ancestor)
        names, parents = self.span_name, self.span_parent
        hits = 0
        for sid, n in enumerate(names):
            if n != c:
                continue
            p = parents[sid]
            while p >= 0:
                if names[p] == a:
                    hits += 1
                    break
                p = parents[p]
        return hits

    def layer_metrics(self) -> Dict[str, float]:
        """calls and self_s for every function in FUNCTIONS and every layer."""
        per_name = {n: (c, s) for n, c, s in zip(self.names, self.calls, self.self_s)}
        out: Dict[str, float] = {}
        for prefix in FUNCTIONS:
            c, s = per_name.get(prefix, (0, 0.0))
            out[f"{prefix}.calls"], out[f"{prefix}.self_s"] = c, s
        for layer in LAYERS:
            members = [v for n, v in per_name.items() if n.split(".")[0] == layer]
            out[f"{layer}.calls"] = sum(c for c, _ in members)
            out[f"{layer}.self_s"] = sum(s for _, s in members)
        return out

    def ratio_bases(self) -> Dict[str, Tuple[int, int]]:
        """Numerator and denominator of the useful-work and cache ratios."""
        # (0, 0) if compute_aut is gone or no longer lru-cached
        cache_info = getattr(self.originals.get("fingroup.compute_aut"), "cache_info", None)
        hits, misses = cache_info()[:2] if cache_info else (0, 0)
        return {
            "cohomology2.enumerate.useful_ratio":
                (self.returned[ENUMERATE], self._count_inside(VALIDATE, ENUMERATE)),
            "cohomology2.orbit.useful_ratio":
                (self.returned[CLASSIFY], self._count_inside(TWIST, CLASSIFY)),
            "fingroup.compute_aut.hit_ratio": (hits, hits + misses),
        }

    def write_spans(self, path, origin: float) -> int:
        """Write every span as gzip CSV, times in seconds from `origin`."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span,name,start_s,end_s,parent,call\n")
            for sid in range(len(self.span_name)):
                f.write(f"{sid},{self.names[self.span_name[sid]]},"
                        f"{self.span_start[sid] - origin:.7f},"
                        f"{self.span_end[sid] - origin:.7f},"
                        f"{self.span_parent[sid]},{self.span_call[sid]}\n")
        return len(self.span_name)
