"""Instance file format.

Instances are stored as UTF-8 JSON text: a top-level map whose "form" key
is one of ilp-cf, bilp-cf, ilp-sf, bilp-sf, group.  Integer matrices are
arrays of row arrays; an empty matrix is the empty array.  Infinite bounds
are spelled as the strings "-inf" and "+inf".

Schema per form (all keys required unless noted):

* ilp-cf / bilp-cf: A, b_l (entries int or "-inf"; ilp-cf forces all
  "-inf"), b_r, c.
* ilp-sf / bilp-sf: A (empty array when there are no equality rows), G, S
  (empty arrays for the classic standard form), b, g, u (entries int or
  "+inf"; ilp-sf forces all "+inf"), c.
* group: moduli, generators, target, costs, bounds (entries int or "+inf").

Parsers reject unknown and missing keys and every value of the wrong JSON
type; matrix entries are checked by :class:`IntMat` itself.  The instance
is then refused on the first of :func:`model.structural_issues`: the
dimensions of the form, G and S both present or both empty, S diagonal
with entries >= 1, u and bounds >= 0, and moduli >= 1.
"""

from __future__ import annotations

import json
from typing import Any

from .intlinalg import DimensionError, IntMat
from .model import (
    NEG_INF,
    POS_INF,
    CanonicalInstance,
    GroupInstance,
    GroupSpec,
    Instance,
    StandardInstance,
    _Infinity,
    is_finite,
    structural_issues,
)


class FormatError(ValueError):
    """Raised when an instance file violates the schema."""


_CF_KEYS = {"form", "A", "b_l", "b_r", "c"}
_SF_KEYS = {"form", "A", "G", "S", "b", "g", "u", "c"}
_KEYS = {
    "ilp-cf": _CF_KEYS,
    "bilp-cf": _CF_KEYS,
    "ilp-sf": _SF_KEYS,
    "bilp-sf": _SF_KEYS,
    "group": {"form", "moduli", "generators", "target", "costs", "bounds"},
}


def _int(v: Any, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise FormatError(f"{where}: expected an integer, got {v!r}")
    return v


def _ext(v: Any, where: str, allow: str) -> Any:
    if v == allow:
        return NEG_INF if allow == "-inf" else POS_INF
    return _int(v, where)


def _matrix(v: Any, where: str) -> IntMat | None:
    if not isinstance(v, list) or not all(isinstance(row, list) for row in v):
        raise FormatError(f"{where}: expected an array of row arrays")
    if not v:
        return None
    try:
        return IntMat.from_rows(v)
    except DimensionError:
        # name the first entry that is not an integer; a matrix of
        # integers keeps IntMat's own message ("ragged rows")
        for row in v:
            for e in row:
                _int(e, where)
        raise


def _vector(v: Any, where: str, allow: str | None = None) -> tuple:
    if not isinstance(v, list):
        raise FormatError(f"{where}: expected an array")
    if allow is None:
        return tuple(_int(e, where) for e in v)
    return tuple(_ext(e, where, allow) for e in v)


def _build(form: str, data: dict) -> Instance:
    """The instance a file spells, with every value type-checked."""
    if form in ("ilp-cf", "bilp-cf"):
        a = _matrix(data["A"], "A")
        if a is None:
            raise FormatError("A must be nonempty")
        b_l = _vector(data["b_l"], "b_l", allow="-inf")
        if form == "ilp-cf" and any(is_finite(v) for v in b_l):
            raise FormatError("ilp-cf requires every b_l entry to be \"-inf\"")
        return CanonicalInstance(
            A=a, b_l=b_l, b_r=_vector(data["b_r"], "b_r"), c=_vector(data["c"], "c")
        )
    if form in ("ilp-sf", "bilp-sf"):
        a = _matrix(data["A"], "A")
        g_mat = _matrix(data["G"], "G")
        s_mat = _matrix(data["S"], "S")
        u = _vector(data["u"], "u", allow="+inf")
        if form == "ilp-sf" and any(is_finite(v) for v in u):
            raise FormatError("ilp-sf requires every u entry to be \"+inf\"")
        c = _vector(data["c"], "c")
        return StandardInstance(
            n=len(c),
            m=a.rows if a is not None else 0,
            A=a,
            G=g_mat,
            S=s_mat,
            b=_vector(data["b"], "b"),
            g=_vector(data["g"], "g"),
            u=u,
            c=c,
        )
    moduli = _vector(data["moduli"], "moduli")
    gens = data["generators"]
    if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
        raise FormatError("generators: expected an array of element arrays")
    return GroupInstance(
        group=GroupSpec(moduli=moduli),
        generators=tuple(_vector(g, "generators") for g in gens),
        target=_vector(data["target"], "target"),
        costs=_vector(data["costs"], "costs"),
        bounds=_vector(data["bounds"], "bounds", allow="+inf"),
    )


def parse_instance(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError("top level must be a map")
    form = data.get("form")
    keys = _KEYS.get(form) if isinstance(form, str) else None
    if keys is None:
        raise FormatError("form must be one of ilp-cf, bilp-cf, ilp-sf, bilp-sf, group")
    unknown = set(data) - keys
    if unknown:
        raise FormatError(f"unknown keys: {sorted(unknown)}")
    missing = keys - set(data)
    if missing:
        raise FormatError(f"missing keys: {sorted(missing)}")
    instance = _build(form, data)
    issues = structural_issues(instance)
    if issues:
        raise FormatError(issues[0])
    return instance


def _enc(v) -> Any:
    if isinstance(v, _Infinity):
        return "+inf" if v.sign > 0 else "-inf"
    return v


def serialize_instance(instance: Instance) -> str:
    if isinstance(instance, CanonicalInstance):
        data = {
            "form": "ilp-cf" if instance.one_sided else "bilp-cf",
            "A": instance.A.to_lists(),
            "b_l": [_enc(v) for v in instance.b_l],
            "b_r": list(instance.b_r),
            "c": list(instance.c),
        }
    elif isinstance(instance, StandardInstance):
        data = {
            "form": "ilp-sf"
            if all(not is_finite(v) for v in instance.u)
            else "bilp-sf",
            "A": instance.A.to_lists() if instance.A is not None else [],
            "G": instance.G.to_lists() if instance.G is not None else [],
            "S": instance.S.to_lists() if instance.S is not None else [],
            "b": list(instance.b),
            "g": list(instance.g),
            "u": [_enc(v) for v in instance.u],
            "c": list(instance.c),
        }
    elif isinstance(instance, GroupInstance):
        data = {
            "form": "group",
            "moduli": list(instance.group.moduli),
            "generators": [list(g) for g in instance.generators],
            "target": list(instance.target),
            "costs": list(instance.costs),
            "bounds": [_enc(v) for v in instance.bounds],
        }
    else:
        raise TypeError(f"unknown instance type: {type(instance)!r}")
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def load_instance(path: str) -> Instance:
    with open(path, encoding="utf-8") as fh:
        return parse_instance(fh.read())
