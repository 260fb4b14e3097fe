"""JSON ingestion for groups and cochains.

Every reference slot accepts either an inline record, a {"name": ...}
stub, or a bare name string resolved against the built-in constructors.
"""

from __future__ import annotations

import json
from typing import Any, Tuple

from .cohomology2 import Cochain2
from .fingroup import CheckFailed, GroupTable, make_group, standard_group


class ParseError(Exception):
    def __init__(self, line: int, col: int, msg: str) -> None:
        self.line, self.col = line, col
        super().__init__(f"parse error at {line}:{col}: {msg}")


class SchemaError(Exception):
    def __init__(self, field: str, msg: str = "") -> None:
        self.field = field
        super().__init__(f"schema error in field {field!r}: {msg}")


def loads(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise ParseError(err.lineno, err.colno, err.msg) from None
    except RecursionError:
        raise ParseError(1, 1, "nesting exceeds the recursion limit") from None


def _known_fields(obj: dict, fields: Tuple[str, ...], prefix: str = "") -> None:
    """Refuse the first key outside fields, so no misspelling is ignored."""
    for key in obj:
        if key not in fields:
            raise SchemaError(prefix + key, f"unknown field; expected one of {list(fields)}")


def _check_order(obj: dict, size: int, field: str) -> None:
    order = obj.get("order", size)
    if type(order) is not int or order != size:
        raise SchemaError(f"{field}.order", f"expected {size}, got {json.dumps(order)}")


def group_from_obj(obj: Any, field: str = "group") -> GroupTable:
    if isinstance(obj, str):
        try:
            return standard_group(obj)
        except KeyError as err:
            raise SchemaError(field, err.args[0]) from None
    if not isinstance(obj, dict):
        raise SchemaError(field, "expected a name or a group record")
    _known_fields(obj, ("name", "order", "table"), f"{field}.")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise SchemaError(f"{field}.name", f"expected a string, got {json.dumps(name)}")
    if "table" not in obj:
        if name is None:
            raise SchemaError(field, "record has neither table nor name")
        group = group_from_obj(name, field)
        _check_order(obj, group.order, field)
        return group
    table = obj["table"]
    if not isinstance(table, list):
        raise SchemaError(f"{field}.table",
                          f"expected a list of rows, got {json.dumps(table)}")
    _check_order(obj, len(table), field)
    rows = [_ints(row, f"{field}.table") for row in table]
    try:
        return make_group(rows, name)
    except CheckFailed as err:
        raise SchemaError(f"{field}.table", str(err)) from None


def _ints(seq: Any, field: str) -> tuple:
    """A JSON list of integers, taken as is: floats, booleans, nested lists
    and anything else are refused rather than coerced."""
    if not isinstance(seq, list) or any(type(v) is not int for v in seq):
        raise SchemaError(field, f"expected a list of integers, got {json.dumps(seq)}")
    return tuple(seq)


def cochain_from_obj(obj: Any) -> Cochain2:
    if not isinstance(obj, dict):
        raise SchemaError("cochain", "expected an object")
    _known_fields(obj, ("G", "A", "xi", "phi"))
    for key in ("G", "A", "xi", "phi"):
        if key not in obj:
            raise SchemaError(key, "missing")
    g = group_from_obj(obj["G"], "G")
    a = group_from_obj(obj["A"], "A")
    if not isinstance(obj["xi"], list):
        raise SchemaError("xi", f"expected a list of rows, got {json.dumps(obj['xi'])}")
    xi = tuple(_ints(row, "xi") for row in obj["xi"])
    phi = _ints(obj["phi"], "phi")
    try:
        return Cochain2(g, a, xi, phi)
    except ValueError as err:
        raise SchemaError("xi/phi", str(err)) from None


def group_to_obj(g: GroupTable) -> dict:
    out = {"order": g.order, "table": [list(r) for r in g.table]}
    if g.name:
        out["name"] = g.name
    return out


def cochain_to_obj(c: Cochain2) -> dict:
    return {"G": group_to_obj(c.G), "A": group_to_obj(c.A),
            "xi": [list(r) for r in c.xi], "phi": list(c.phi)}
