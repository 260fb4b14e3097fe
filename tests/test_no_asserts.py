"""Verdicts rest on explicit checks, never on `assert`: the library has no
assert statement, and the README examples report the same under python -O.
Every exhaustive search runs over `config.capped_product`, bounded by
COVLAB_ENUM_CAP alone: no other module calls `itertools.product`, and no
function takes a per-call bound or a flag that narrows or cuts short a
search (`normalized`, `expect`).  A functor, a group action, an
implementation and a field-space action are each validated in their own
constructor, `__init__`, and nowhere else.  Records are `NamedTuple`s or
plain classes: no module imports `dataclasses`.
Every check returns the one verdict type, `fingroup.Report`: the only other
class named `...Report` is the CLI's `RunReport`.  A failed check raises the
one failure type, `fingroup.CheckFailed`, only from `Report.require`; the
library's other exception classes are `SearchSpaceTooLarge`, a refused
search, and the JSON boundary's `ParseError` and `SchemaError`.  `WickPoly.__init__` is the
one place that sums coefficients: besides it, only `parse_wickpoly` sums
values into a dict (the exponents of one written term), and the Wick kernels
(`WickPoly.__add__`, `__mul__`, `scale`, `set_symbol`, `__eq__`, `__hash__`
and `__str__`, `wick_product`, `change_of_ordering`, `scale_wick_power`)
call no `Fraction(...)`, so they run on a poly's integer numerators over its
one denominator, and `Fraction`s are built only in the `terms` view.
Every group table is built from an element
list and a law by `fingroup.table_on`: each `GroupTable(...)` and
`make_group(...)` call takes a `table_on(...)` call as its first argument,
except the one inside `make_group` and the one on ingested JSON in
`schemas.group_from_obj`.  In `covariance`, only `_unnatural` reads a
category's `.morphisms`, so the naturality square is written once; and no
module looks a gauge family or an object up by `families.index` or
`objects.index`, since `GaugeGroup` keeps both as dicts.  In `exactlin`,
`Fraction(...)` is called only in `GaussRat.__init__` and the `re`/`im`
properties, so the matrix kernels run on the integer triples alone.  In
`covering`, `subgroup(...)` is called only inside `CentralCover.__init__`,
so the kernel group is built once per cover.  Each algorithm is written
once: no `phi_perm` in `src/covlab`, a cochain's phi is read as
`aut.perms[...]` only in `Cochain2.__init__`, the factor-set laws are
listed only in `cohomology2._schedule`, which also cuts from that list
the generator-middle laws that `validate_cocycle` reads and keeps no
generator walk of its own, `fingroup.generator_maps` is the one loop that
fills a map along `generator_recurrence`, and `compute_aut` and
`_twist_candidates` take their maps from it, only
`coboundary_twist` builds a `Cochain2` from another cochain's phi,
`inner_perm` is called only in `compute_aut` and the pair-law check
`_first_failure`, no module but `fingroup` (whose `AutGroup` holds the
`preimages`) maps ad(a) back to a, `Mat.det` calls `rref`,
`fingroup.closure` calls `_bfs_recipes`, the star product's coefficients
come from `_contraction_row` and the ordering, scaling and scaling-multiplet
ones from `_matching_row`, and no Wick kernel calls `factorial`.  The
categorical layer is its tables: `FinCat`, `TheoryFunctor`, `GAction` and
`Implementation` define no accessor beside them (`compose`, `on_mor`,
`act_obj`, `component` and the rest), `FinCat.dom` and `cod` are built as
dicts, no module but `fincat` reads a private `FinCat` attribute, and
`decorated_frames_category` calls `frame_mid` only to build its grid of
arrow ids.  The category constructors hand one shared object to every
caller, so outside `FinCat.__init__` no module assigns, augments or deletes
a `compose_table`, `identities`, `dom` or `cod` attribute or an entry of
one, or calls `update`, `pop`, `setdefault` or `clear` on it.  No library
handler catches `Exception`, which would turn a defect into an input error.
The CLI reads which shipped inputs go together from the `models`
registries: no `cli` comparison names a registry key, and `cli` calls no
`GroupHom`, `direct_product`, `closure` or `quotient`.
The tests' brute-force references, `tests/oracles.py`, import the standard
library alone, so no library defect can reach the reference that checks it,
and no other test module defines a function named as a reference
(`reference_*`, `_reference_*`, `oracle_*`, `_oracle_*` or `ref_*`).
Every module-level public function of the library is referenced in the
library outside its own body, by a name or an attribute, unless `verb`
registers it as a CLI handler or `UNREFERENCED` names it with its reason;
an entry of `UNREFERENCED` that the scan does not find is stale and fails.

Run as a script, this module prints the exit code and stdout of each
command given as a JSON list of argv lists; the -O test runs it that way.
"""

import ast
import builtins
import collections
import contextlib
import functools
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@functools.lru_cache(maxsize=None)
def _library():
    """Each `covlab` module's name -> its syntax tree, in name order; each
    source file is parsed once per process, and no test changes a tree."""
    return {path.stem: ast.parse(path.read_text())
            for path in sorted((ROOT / "src" / "covlab").glob("*.py"))}


def test_library_has_no_assert_statements():
    found = [f"{module}.py:{node.lineno}"
             for module, tree in _library().items() for node in ast.walk(tree)
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_does_not_import_dataclasses():
    # a record is a NamedTuple or a plain class whose __init__ checks it, so
    # no process generates record code at import or loads `inspect` for it
    found = [f"{module}.py:{node.lineno}"
             for module, tree in _library().items() for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
             or isinstance(node, ast.ImportFrom)
             and (node.module or "").split(".")[0] == "dataclasses"]
    assert found == []


def test_oracles_import_only_the_standard_library():
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    found = [name for name in imported if name.split(".")[0] not in sys.stdlib_module_names]
    found += [f"{_called(node)}()" for node in ast.walk(tree)
              if _called(node) in ("__import__", "import_module")]
    assert imported and found == []


def test_references_are_defined_only_in_the_oracles():
    prefixes = ("reference_", "_reference_", "oracle_", "_oracle_", "ref_")
    found = [f"{path.name}:{node.lineno}: {node.name}"
             for path in sorted((ROOT / "tests").glob("*.py")) if path.name != "oracles.py"
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             and node.name.startswith(prefixes)]
    assert found == []


def test_library_catches_no_bare_exception():
    # a catch-all handler would turn a library defect into an input error
    found = [f"{module}.py:{node.lineno}"
             for module, tree in _library().items() for node in ast.walk(tree)
             if isinstance(node, ast.ExceptHandler)
             and (node.type is None or any(isinstance(n, ast.Name)
                                           and n.id in ("Exception", "BaseException")
                                           for n in ast.walk(node.type)))]
    assert found == []


def test_searches_have_one_bound():
    found = []
    for module, tree in _library().items():
        for node in ast.walk(tree):
            if module != "config" and (
                    isinstance(node, ast.Attribute) and node.attr == "product"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "itertools"
                    or isinstance(node, ast.ImportFrom)
                    and node.module == "itertools"
                    and any(a.name == "product" for a in node.names)):
                found.append(f"{module}.py:{node.lineno}: itertools.product")
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                for arg in a.posonlyargs + a.args + a.kwonlyargs:
                    if arg.arg in ("cap", "normalized_only", "normalized", "expect"):
                        found.append(f"{module}.py:{node.lineno}: {arg.arg}")
    assert found == []


def _called(node):
    """The name called by a call node (`f(...)` or `x.f(...)`), else None."""
    if isinstance(node, ast.Call):
        func = node.func
        return func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    return None


def test_structures_are_checked_once_when_built():
    owners = {"validate_functor": "TheoryFunctor", "validate_gaction": "GAction",
              "validate_implementation": "Implementation",
              "verify_field_action": "FieldSpaceAction"}
    found, checked = [], set()
    for module, tree in _library().items():
        allowed = {id(node): cls.name
                   for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for init in cls.body
                   if isinstance(init, ast.FunctionDef) and init.name == "__init__"
                   for node in ast.walk(init) if owners.get(_called(node)) == cls.name}
        checked.update(allowed.values())
        found += [f"{module}.py:{node.lineno}: {_called(node)}"
                  for node in ast.walk(tree)
                  if _called(node) in owners and id(node) not in allowed]
    assert found == []
    assert checked == set(owners.values())


def test_checks_share_one_report_type():
    found = sorted(f"{module}.{node.name}"
                   for module, tree in _library().items() for node in ast.walk(tree)
                   if isinstance(node, ast.ClassDef) and node.name.endswith("Report"))
    assert found == ["cli.RunReport", "fingroup.Report"]


def test_library_defines_four_exception_classes():
    bases, owner, outside_require = {}, {}, []
    for module, tree in _library().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [ast.unparse(b).split(".")[-1] for b in node.bases]
                owner[node.name] = module
        inside = ({id(node) for node in ast.walk(_function(tree, "require", "Report"))}
                  if module == "fingroup" else set())
        outside_require += [f"{module}.py:{node.lineno}" for node in ast.walk(tree)
                            if _called(node) == "CheckFailed" and id(node) not in inside]

    def is_exception(name):
        if name in bases:
            return any(is_exception(base) for base in bases[name])
        builtin = getattr(builtins, name, None)
        return isinstance(builtin, type) and issubclass(builtin, BaseException)

    assert sorted(f"{owner[name]}.{name}" for name in bases if is_exception(name)) == [
        "config.SearchSpaceTooLarge", "fingroup.CheckFailed",
        "schemas.ParseError", "schemas.SchemaError"]
    assert outside_require == []


def _dict_sums(tree):
    """Nodes that sum values into a dict: `d[k] = ...` with a sum that reads
    `d.get(...)` or is guarded by `k in d`, and every `defaultdict(...)` or
    `Counter(...)`, whose missing keys start a sum."""
    for node in ast.walk(tree):
        if _called(node) in ("defaultdict", "Counter"):
            yield node
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Subscript)
              and any(isinstance(n, ast.BinOp) and isinstance(n.op, (ast.Add, ast.Sub))
                      for n in ast.walk(node.value))):
            d = ast.unparse(node.targets[0].value)
            if any(_called(n) == "get" and ast.unparse(n.func.value) == d
                   or isinstance(n, ast.Compare) and isinstance(n.ops[0], ast.In)
                   and ast.unparse(n.comparators[0]) == d
                   for n in ast.walk(node.value)):
                yield node


_WICK_KERNELS = (("WickPoly", "__add__"), ("WickPoly", "__mul__"), ("WickPoly", "scale"),
                 ("WickPoly", "set_symbol"), ("WickPoly", "__eq__"),
                 ("WickPoly", "__hash__"), ("WickPoly", "__str__"), (None, "wick_product"),
                 (None, "change_of_ordering"), (None, "scale_wick_power"))


def test_wickpoly_constructor_is_the_one_coefficient_accumulator():
    wickscale = _library()["wickscale"]
    owners = {"WickPoly.__init__": _function(wickscale, "__init__", "WickPoly"),
              "parse_wickpoly": _function(wickscale, "parse_wickpoly")}
    inside = {id(node): label for label, fn in owners.items() for node in ast.walk(fn)}
    found = sorted(inside.get(id(node), f"{module}.py:{node.lineno}")
                   for module, tree in _library().items() for node in _dict_sums(tree))
    # parse_wickpoly's sum is over the exponents of one term, not coefficients
    assert found == ["WickPoly.__init__", "parse_wickpoly"]
    assert [f"{name}:{node.lineno}" for cls, name in _WICK_KERNELS
            for node in ast.walk(_function(wickscale, name, cls))
            if _called(node) == "Fraction"] == []


def test_group_tables_are_built_from_element_lists():
    exempt = {("fingroup", "make_group"), ("schemas", "group_from_obj")}
    found = []
    for module, tree in _library().items():
        inside = {id(node): f"{module}.{fn.name}"
                  for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and (module, fn.name) in exempt
                  for node in ast.walk(fn)}
        found += [inside.get(id(node), f"{module}.py:{node.lineno}")
                  for node in ast.walk(tree)
                  if _called(node) in ("GroupTable", "make_group")
                  and not (node.args and _called(node.args[0]) == "table_on")]
    assert sorted(found) == ["fingroup.make_group", "schemas.group_from_obj"]


def test_naturality_square_is_written_once_and_families_are_indexed():
    found = []
    for module, tree in _library().items():
        inside = {id(node) for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn.name == "_unnatural"
                  for node in ast.walk(fn)}
        for node in ast.walk(tree):
            if (module == "covariance" and isinstance(node, ast.Attribute)
                    and node.attr == "morphisms" and id(node) not in inside):
                found.append(f"{module}.py:{node.lineno}: .morphisms")
            if (_called(node) == "index" and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr in ("families", "objects")):
                found.append(f"{module}.py:{node.lineno}: "
                             f"{node.func.value.attr}.index")
    assert found == []


def test_exactlin_builds_fractions_only_at_its_boundary():
    tree = _library()["exactlin"]
    inside = {id(node): f"GaussRat.{fn.name}"
              for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "GaussRat"
              for fn in cls.body
              if isinstance(fn, ast.FunctionDef) and fn.name in ("__init__", "re", "im")
              for node in ast.walk(fn)}
    found = {inside.get(id(node), f"exactlin.py:{node.lineno}")
             for node in ast.walk(tree) if _called(node) == "Fraction"}
    assert sorted(found) == ["GaussRat.__init__", "GaussRat.im", "GaussRat.re"]


def test_cover_kernel_group_is_built_once_per_cover():
    tree = _library()["covering"]
    inside = {id(node): f"{cls.name}.{fn.name}"
              for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == "CentralCover"
              for fn in cls.body
              if isinstance(fn, ast.FunctionDef) and fn.name == "__init__"
              for node in ast.walk(fn)}
    found = [inside.get(id(node), f"covering.py:{node.lineno}")
             for node in ast.walk(tree) if _called(node) == "subgroup"]
    assert found == ["CentralCover.__init__"]


def _class(tree, name):
    """The module-level class `name` in tree."""
    return next(node for node in tree.body
                if isinstance(node, ast.ClassDef) and node.name == name)


def _function(tree, name, cls=None):
    """The function `name` (a method of class `cls` if given) in tree."""
    scope = tree if cls is None else _class(tree, cls)
    return next(node for node in scope.body
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _reads_phi(node):
    return any(isinstance(n, ast.Attribute) and n.attr == "phi" for n in ast.walk(node))


def _aut_perms_over_phi(fn):
    """Lines of fn reading `aut.perms[i]` with i taken from a `.phi`: read
    there, or bound by a loop or comprehension over one."""
    bound = {n.id for loop in ast.walk(fn)
             if isinstance(loop, (ast.For, ast.comprehension)) and _reads_phi(loop.iter)
             for n in ast.walk(loop.target) if isinstance(n, ast.Name)}
    return {node.lineno for node in ast.walk(fn)
            if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
            and node.value.attr == "perms"
            and "aut" in (getattr(node.value.value, "id", None),
                          getattr(node.value.value, "attr", None))
            and (_reads_phi(node.slice) or any(isinstance(n, ast.Name) and n.id in bound
                                               for n in ast.walk(node.slice)))}


def _bound(target):
    """The names a target binds: its plain names, and the container of a
    subscript it stores to, not the subscript's index."""
    if isinstance(target, ast.Subscript):
        return _bound(target.value)
    if isinstance(target, ast.Name):
        return {target.id}
    return set().union(*map(_bound, ast.iter_child_nodes(target)))


def _names_from(fn, source):
    """The names fn binds from a value `source(value, names)` accepts,
    followed through assignments, loops and `append` calls."""
    flows = []
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign):
            flows += [(target, node.value) for target in node.targets]
        elif isinstance(node, (ast.For, ast.comprehension)):
            flows.append((node.target, node.iter))
        elif _called(node) == "append" and isinstance(node.func, ast.Attribute):
            flows.append((node.func.value, node))
    names = set()
    while True:
        new = {name for target, value in flows if source(value, names)
               for name in _bound(target)} - names
        if not new:
            return names
        names |= new


def _twisted_builds(fn):
    """Lines of fn calling `Cochain2(...)` on values computed from another
    cochain's phi (a `.phi` or `.perms` read, not the `aut.perms` list)."""
    def from_phi(node, names):
        return any(isinstance(n, ast.Attribute) and n.attr in ("phi", "perms")
                   and getattr(n.value, "id", None) != "aut"
                   or isinstance(n, ast.Name) and n.id in names for n in ast.walk(node))
    names = _names_from(fn, from_phi)
    return {node.lineno for node in ast.walk(fn) if _called(node) == "Cochain2"
            and any(from_phi(arg, names) for arg in node.args + node.keywords)}


def _maps_back_from_ad(fn):
    """Lines of fn that key a lookup by ad(a): a dict display,
    comprehension, `dict(...)` or `setdefault` call, a subscript stored to
    or appended to, or an `.index` call on a sequence, each keyed by a
    value computed from an `inner_perm` call or from an Aut(A) record's
    `inner` or `perms`."""
    def from_ad(node, names):
        return any(_called(n) == "inner_perm"
                   or isinstance(n, ast.Attribute) and n.attr in ("inner", "perms")
                   and "aut" in (getattr(n.value, "id", None), getattr(n.value, "attr", None))
                   or isinstance(n, ast.Name) and n.id in names
                   for n in ast.walk(node))
    names = _names_from(fn, from_ad)
    found = set()
    for node in ast.walk(fn):
        keys = []
        if isinstance(node, ast.Dict):
            keys = [key for key in node.keys if key is not None]
        elif isinstance(node, ast.DictComp):
            keys = [node.key]
        elif _called(node) in ("dict", "setdefault"):
            keys = node.args[:1]
        elif _called(node) == "index" and isinstance(node.func, ast.Attribute):
            keys = [node.func.value]
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store):
            keys = [node.slice]
        elif (_called(node) in ("append", "add", "extend")
              and isinstance(node.func.value, ast.Subscript)):
            keys = [node.func.value.slice]
        if any(from_ad(key, names) for key in keys):
            found.add(node.lineno)
    return found


def test_each_algorithm_is_written_once():
    found = set()
    for module, tree in _library().items():
        if "phi_perm" in (ROOT / "src" / "covlab" / f"{module}.py").read_text():
            found.add(f"{module}.py: phi_perm")
        owner = (_function(tree, "__init__", "Cochain2")
                 if module == "cohomology2" else None)
        found |= {f"{module}.py:{line}: aut.perms over phi"
                  for fn in ast.walk(tree)
                  if isinstance(fn, ast.FunctionDef) and fn is not owner
                  for line in _aut_perms_over_phi(fn)}
    cohomology2 = _library()["cohomology2"]
    if not _aut_perms_over_phi(_function(cohomology2, "__init__", "Cochain2")):
        found.add("Cochain2.__init__ does not build perms")
    # the factor-set laws are listed once, the generator-middle laws that
    # validate_cocycle reads are cut from that list, and G is walked there
    if {fn.name for fn in ast.walk(cohomology2) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if len(getattr(node, "generators", ())) >= 3} != {"_schedule"}:
        found.add("a factor-set law list besides cohomology2._schedule")
    for name, callees in (("validate_cocycle", {"_schedule"}),
                          ("_schedule", {"generating_sequence"})):
        missing = callees - {_called(node) for node in ast.walk(_function(cohomology2, name))}
        if missing:
            found.add(f"cohomology2.{name} does not call {sorted(missing)}")
    functions = [(f"{module}.{fn.name}", fn)
                 for module, tree in _library().items() for fn in ast.walk(tree)
                 if isinstance(fn, ast.FunctionDef)]
    # a map fixed by its generator values is filled along the generator
    # recurrence in one loop, `generator_maps`, which Aut(A) and the twist
    # witnesses share; the breadth-first walk is read only by the closure,
    # the generating sequence and the recurrence, and the schedule keeps
    # no walk of its own
    for callee, callers in (("_bfs_recipes", {"fingroup.closure", "fingroup._walk_generators",
                                              "fingroup.generator_recurrence"}),
                            ("generator_recurrence", {"fingroup.generator_maps"}),
                            ("generator_maps", {"fingroup.compute_aut",
                                                "cohomology2._twist_candidates"})):
        calling = {name for name, fn in functions
                   if any(_called(node) == callee for node in ast.walk(fn))}
        if calling != callers:
            found.add(f"{callee} called in {sorted(calling)}")
    fields = {node.target.id for node in _class(cohomology2, "_Schedule").body
              if isinstance(node, ast.AnnAssign)}
    if not fields or {"gens", "recurrence"} & fields:
        found.add("_Schedule keeps the generators or their recurrence")
    twists = {name for name, fn in functions if _twisted_builds(fn)}
    if twists != {"cohomology2.coboundary_twist"}:
        found.add(f"twisted Cochain2 built in {sorted(twists)}")
    # Inn(A) lives in the compute_aut record: ad(a) is computed there and in
    # the pair-law check, and only the record maps ad(a) back to a
    inner = {name for name, fn in functions
             if any(_called(node) == "inner_perm" for node in ast.walk(fn))}
    if inner != {"fingroup.compute_aut", "cohomology2._first_failure"}:
        found.add(f"inner_perm called in {sorted(inner)}")
    found |= {f"{name}:{line}: a map from ad(a) back to a"
              for name, fn in functions if not name.startswith("fingroup.")
              for line in _maps_back_from_ad(fn)}
    fingroup = _library()["fingroup"]
    if not _maps_back_from_ad(_function(fingroup, "compute_aut")):
        found.add("fingroup.compute_aut does not build preimages")
    for module, name, cls, callee in (("exactlin", "det", "Mat", "rref"),
                                      ("fingroup", "closure", None, "_bfs_recipes")):
        fn = _function(_library()[module], name, cls)
        if not any(_called(node) == callee for node in ast.walk(fn)):
            found.add(f"{module}.{name} does not call {callee}")
    for module, name, row in (("wickscale", "wick_product", "_contraction_row"),
                              ("wickscale", "change_of_ordering", "_matching_row"),
                              ("wickscale", "scale_wick_power", "_matching_row"),
                              ("wickscale", "scaling_multiplet", "_matching_row")):
        called = {_called(node) for node in ast.walk(_function(_library()[module], name))}
        if row not in called:
            found.add(f"{module}.{name} does not call {row}")
        if "factorial" in called:
            found.add(f"{module}.{name} calls factorial")
    assert sorted(found) == []


_ACCESSORS = {"dom", "cod", "identity", "compose", "endos", "invertible_endos",
              "on_obj", "on_mor", "act_obj", "act_mor", "component"}


def test_model_kernels_read_the_tables():
    trees = _library()
    fincat = trees["fincat"]
    classes = {(module, node.name): node for module in ("fincat", "covariance")
               for node in trees[module].body if isinstance(node, ast.ClassDef)}
    found = []
    for key in (("fincat", "FinCat"), ("fincat", "TheoryFunctor"), ("fincat", "GAction"),
                ("covariance", "Implementation")):
        body = classes[key].body
        defined = {node.name for node in body if isinstance(node, ast.FunctionDef)}
        defined |= {t.id for node in body if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name)}
        found += [f"{key[1]}.{name}" for name in sorted(defined & _ACCESSORS)]
    built = {ast.unparse(t): type(node.value).__name__
             for node in ast.walk(_function(fincat, "__init__", "FinCat"))
             if isinstance(node, ast.Assign) for t in node.targets}
    found += [f"FinCat.{name} is not a dict" for name in ("dom", "cod")
              if built.get(f"self.{name}") != "DictComp"]
    # FinCat's private attributes are read only inside fincat
    cat = classes["fincat", "FinCat"]
    private = {node.name for node in cat.body if isinstance(node, ast.FunctionDef)}
    private |= {t.attr for node in ast.walk(cat) if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Attribute)}
    private = {name for name in private if name.startswith("_") and not name.endswith("__")}
    found += [f"{module}.py:{node.lineno}: .{node.attr}"
              for module, tree in trees.items() if module != "fincat"
              for node in ast.walk(tree) if isinstance(node, ast.Attribute)
              and node.attr in private
              and not (isinstance(node.value, ast.Name) and node.value.id == "self")]
    build = _function(fincat, "decorated_frames_category")
    grid = [node for node in build.body if isinstance(node, ast.Assign)
            and [ast.unparse(t) for t in node.targets] == ["ids"]]
    in_grid = {id(node) for assign in grid for node in ast.walk(assign)}
    calls = [node for node in ast.walk(build) if _called(node) == "frame_mid"]
    if not calls:
        found.append("decorated_frames_category builds no id grid")
    found += [f"fincat.decorated_frames_category:{node.lineno}: frame_mid outside the grid"
              for node in calls if id(node) not in in_grid]
    assert found == []


# every attribute of a value shared for the life of the process, as (the
# class that owns it, its name); only that class's constructor may write it:
# the category tables, a group's table, a gauge group's table, a
# representation's matrices and a cover's projection and kernel
_SHARED_ATTRIBUTES = {("FinCat", "compose_table"), ("FinCat", "identities"),
                      ("FinCat", "dom"), ("FinCat", "cod"), ("GroupTable", "table"),
                      ("GaugeGroup", "table"), ("MatrixRep", "matrices"),
                      ("CentralCover", "pi"), ("CentralCover", "K"),
                      ("CentralCover", "kernel_elements")}
_SHARED_NAMES = {name for _, name in _SHARED_ATTRIBUTES}
_DICT_WRITES = {"update", "pop", "setdefault", "clear"}


def _is_self(node):
    return isinstance(node, ast.Name) and node.id == "self"


def _written(node):
    """The shared attribute node writes, as (its name, whether it is
    `self`'s), else None: by assigning, augmenting or deleting it or one of
    its entries, by a writing dict method on it, or by name through setattr
    or object.__setattr__."""
    def shared(n):
        if isinstance(n, ast.Attribute) and n.attr in _SHARED_NAMES:
            return n.attr, _is_self(n.value)
        return None
    if (isinstance(node, (ast.Attribute, ast.Subscript))
            and isinstance(node.ctx, (ast.Store, ast.Del))):
        return shared(node) or (shared(node.value) if isinstance(node, ast.Subscript) else None)
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr in _DICT_WRITES:
        return shared(node.func.value)
    if _called(node) in ("setattr", "__setattr__") and len(node.args) > 1 \
            and isinstance(node.args[1], ast.Constant) \
            and node.args[1].value in _SHARED_NAMES:
        return node.args[1].value, _is_self(node.args[0])
    return None


def test_shared_categories_are_never_written():
    # the category constructors, the group builders, the gauge group cache and
    # the cover and cover rep registries hand one object to every caller in a
    # process: a shared attribute is written only on `self` in the
    # constructor of the class that owns it, and object.__setattr__ only in
    # a constructor
    found, written = [], set()
    for module, tree in _library().items():
        owner = {id(node): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                 for init in cls.body
                 if isinstance(init, ast.FunctionDef) and init.name == "__init__"
                 for node in ast.walk(init)}
        for node in ast.walk(tree):
            write = _written(node)
            key = None if write is None else (owner.get(id(node)), write[0])
            if write is not None and write[1] and key in _SHARED_ATTRIBUTES:
                written.add(key)
            elif write is not None or (_called(node) == "__setattr__"
                                       and id(node) not in owner):
                found.append(f"{module}.py:{node.lineno}: {ast.unparse(node)}")
    assert found == []
    # the constructors that fill these attributes are seen doing it, but for
    # the fields of the NamedTuple `MatrixRep`, which can be written nowhere
    assert written == _SHARED_ATTRIBUTES - {("MatrixRep", "matrices")}


def test_cli_names_no_shipped_fixture():
    # which shipped inputs go together is read from the `models` registries:
    # no cli comparison names a registry key, and cli builds no map, product
    # or quotient group of its own
    from covlab import models
    keys = set()
    for name, registry in vars(models).items():
        if name.isupper() and isinstance(registry, dict):
            keys |= set(registry)
            keys |= {key for inner in registry.values() if isinstance(inner, dict)
                     for key in inner}
    cli = _library()["cli"]
    found = [f"cli.py:{node.lineno}: {ast.unparse(node)}" for node in ast.walk(cli)
             if isinstance(node, ast.Compare)
             and any(isinstance(n, ast.Constant) and n.value in keys
                     for operand in (node.left, *node.comparators)
                     for n in ast.walk(operand))]
    found += [f"cli.py:{node.lineno}: {_called(node)}()" for node in ast.walk(cli)
              if _called(node) in ("GroupHom", "direct_product", "closure", "quotient")]
    assert {"q8", "z4-z2", "2d", "flip", "trivial", "blocks", "Z4Rot"} <= keys
    assert found == []


# The public functions that nothing in `src/covlab` references, each with the
# reason it stays in the library; ROADMAP item 27 gives each a library caller
# or removes it.
UNREFERENCED = {
    "covariance.twist_implementation":
        "acceptance criterion 2 and ROADMAP item 15's differential test use it",
    "covariance.active_passive_compose":
        "a paper result that demo 03 prints; ROADMAP item 27 gives it a verb",
    "extension.extensions_equivalent":
        "a paper result that demo 02 prints; ROADMAP item 27 gives it a verb",
    "wickscale.scaling_multiplet":
        "a paper result that demo 04 prints; ROADMAP item 27 gives it a verb",
    "models.block_diagonal_fixtures":
        "the acceptance criteria run all four block specs; FIELD_FIXTURES registers two",
    "fincat.validate_fincat": "ROADMAP item 26 gives it a caller",
}


def test_every_library_function_has_a_library_reference():
    # a reference is a name or an attribute outside the function's own body,
    # so a call or a registry entry counts and a docstring mention does not;
    # the CLI handlers are reached through the `verb` registry
    def references(tree):
        return collections.Counter(node.id if isinstance(node, ast.Name) else node.attr
                                   for node in ast.walk(tree)
                                   if isinstance(node, (ast.Name, ast.Attribute)))
    everywhere = sum(map(references, _library().values()), collections.Counter())
    unreferenced = [f"{module}.{fn.name}" for module, tree in _library().items()
                    for fn in tree.body
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
                    and not any(_called(d) == "verb" for d in fn.decorator_list)
                    and everywhere[fn.name] == references(fn)[fn.name]]
    missing = sorted(set(unreferenced) - set(UNREFERENCED))
    stale = sorted(set(UNREFERENCED) - set(unreferenced))
    assert (missing, stale) == ([], [])
    assert all(UNREFERENCED.values())


def readme_commands():
    """Every `covlab ...` example line of the README, as argv with --json."""
    return [["--json"] + shlex.split(line, comments=True)[1:]
            for line in (ROOT / "README.md").read_text().splitlines()
            if line.startswith("covlab ")]


def run_all(commands):
    """[exit code, stdout] of each command, run through cli.main."""
    from covlab.cli import main
    out = []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        out.append([code, buf.getvalue()])
    return out


def test_readme_examples_report_the_same_under_python_O(tmp_path, monkeypatch):
    (tmp_path / "my_cochain.json").write_text(json.dumps(
        {"G": "Z2", "A": "Z2", "xi": [[0, 0], [0, 1]], "phi": [0, 0]}))
    commands = readme_commands()
    assert len(commands) == 14
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-O", __file__, json.dumps(commands)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    monkeypatch.chdir(tmp_path)
    assert json.loads(proc.stdout) == run_all(commands)


if __name__ == "__main__":
    print(json.dumps(run_all(json.loads(sys.argv[1]))))
