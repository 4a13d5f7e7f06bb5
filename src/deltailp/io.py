"""Instance file format.

Instances are stored as UTF-8 JSON text: a top-level map whose "form" key
is one of ilp-cf, bilp-cf, ilp-sf, bilp-sf, group.  Integer matrices are
arrays of row arrays; an empty matrix is the empty array.  Infinite bounds
are spelled as the strings "-inf" and "+inf".  Parsers reject unknown keys.

Schema per form (all keys required unless noted):

* ilp-cf / bilp-cf: A, b_l (entries int or "-inf"; ilp-cf forces all
  "-inf"), b_r, c.
* ilp-sf / bilp-sf: A (empty array when there are no equality rows), G, S
  (diagonal, entries >= 1), b, g, u (entries int >= 0 or "+inf"; ilp-sf
  forces all "+inf"), c.
* group: moduli (entries >= 1), generators, target, costs, bounds (entries
  int >= 0 or "+inf").

Every dimension must agree, or the file is refused: in ilp-cf / bilp-cf,
|b_l| = |b_r| = the rows of A and |c| = its columns; in ilp-sf / bilp-sf,
with n = |c| and m the rows of A (0 when A is empty), A and G have n
columns, G has n - m rows unless it is empty, |u| = n, |b| = m and |g| =
the rows of G = the rows of S; in group, every
generator and the target have one entry per modulus, and |costs| =
|bounds| = the number of generators.
"""

from __future__ import annotations

import json
from typing import Any

from .intlinalg import IntMat
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
)


class FormatError(ValueError):
    """Raised when an instance file violates the schema."""


_CF_KEYS = {"form", "A", "b_l", "b_r", "c"}
_SF_KEYS = {"form", "A", "G", "S", "b", "g", "u", "c"}
_GROUP_KEYS = {"form", "moduli", "generators", "target", "costs", "bounds"}


def _int(v: Any, where: str) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise FormatError(f"{where}: expected an integer, got {v!r}")
    return v


def _ext(v: Any, where: str, allow: str) -> Any:
    if v == allow:
        return NEG_INF if allow == "-inf" else POS_INF
    return _int(v, where)


def _matrix(v: Any, where: str) -> IntMat | None:
    if not isinstance(v, list):
        raise FormatError(f"{where}: expected an array of row arrays")
    if not v:
        return None
    if not all(isinstance(row, list) for row in v):
        raise FormatError(f"{where}: expected an array of row arrays")
    return IntMat.from_rows([[_int(e, where) for e in row] for row in v])


def _vector(v: Any, where: str, allow: str | None = None) -> tuple:
    if not isinstance(v, list):
        raise FormatError(f"{where}: expected an array")
    if allow is None:
        return tuple(_int(e, where) for e in v)
    return tuple(_ext(e, where, allow) for e in v)


def _at_least(v: tuple, low: int, where: str) -> tuple:
    if any(is_finite(e) and e < low for e in v):
        raise FormatError(f"{where}: entries must be >= {low}")
    return v


def _sizes(*checks: tuple[str, int, int]) -> None:
    """Raise FormatError at the first (what, size, expected) that differ."""
    for what, size, expected in checks:
        if size != expected:
            raise FormatError(f"{what} is {size}, expected {expected}")


def parse_instance(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise FormatError("top level must be a map")
    form = data.get("form")
    if form in ("ilp-cf", "bilp-cf"):
        unknown = set(data) - _CF_KEYS
        if unknown:
            raise FormatError(f"unknown keys: {sorted(unknown)}")
        missing = _CF_KEYS - set(data)
        if missing:
            raise FormatError(f"missing keys: {sorted(missing)}")
        a = _matrix(data["A"], "A")
        if a is None:
            raise FormatError("A must be nonempty")
        b_l = _vector(data["b_l"], "b_l", allow="-inf")
        if form == "ilp-cf" and any(is_finite(v) for v in b_l):
            raise FormatError("ilp-cf requires every b_l entry to be \"-inf\"")
        cf = CanonicalInstance(
            A=a,
            b_l=b_l,
            b_r=_vector(data["b_r"], "b_r"),
            c=_vector(data["c"], "c"),
        )
        _sizes(("length of b_l", len(b_l), a.rows), ("length of b_r", len(cf.b_r), a.rows),
               ("length of c", len(cf.c), a.cols))
        return cf
    if form in ("ilp-sf", "bilp-sf"):
        unknown = set(data) - _SF_KEYS
        if unknown:
            raise FormatError(f"unknown keys: {sorted(unknown)}")
        missing = _SF_KEYS - set(data)
        if missing:
            raise FormatError(f"missing keys: {sorted(missing)}")
        a = _matrix(data["A"], "A")
        g_mat = _matrix(data["G"], "G")
        s_mat = _matrix(data["S"], "S")
        if (g_mat is None) != (s_mat is None):
            raise FormatError("G and S must both be present or both empty")
        if s_mat is not None and (s_mat.rows != s_mat.cols or any(
            row[i] < 1 or row.count(0) != len(row) - 1 for i, row in enumerate(s_mat.entries)
        )):
            raise FormatError("S must be diagonal with entries >= 1")
        u = _at_least(_vector(data["u"], "u", allow="+inf"), 0, "u")
        if form == "ilp-sf" and any(is_finite(v) for v in u):
            raise FormatError("ilp-sf requires every u entry to be \"+inf\"")
        c = _vector(data["c"], "c")
        n = len(c)
        m = a.rows if a is not None else 0
        sf = StandardInstance(
            n=n,
            m=m,
            A=a,
            G=g_mat,
            S=s_mat,
            b=_vector(data["b"], "b"),
            g=_vector(data["g"], "g"),
            u=u,
            c=c,
        )
        d = g_mat.rows if g_mat is not None else 0
        _sizes(
            ("row count of G", d, n - m if g_mat is not None else 0),
            ("column count of A", a.cols if a is not None else n, n),
            ("length of u", len(u), n),
            ("length of b", len(sf.b), m),
            ("column count of G", g_mat.cols if g_mat is not None else n, n),
            ("row count of S", s_mat.rows if s_mat is not None else 0, d),
            ("length of g", len(sf.g), d),
        )
        return sf
    if form == "group":
        unknown = set(data) - _GROUP_KEYS
        if unknown:
            raise FormatError(f"unknown keys: {sorted(unknown)}")
        missing = _GROUP_KEYS - set(data)
        if missing:
            raise FormatError(f"missing keys: {sorted(missing)}")
        gens = data["generators"]
        if not isinstance(gens, list) or not all(isinstance(g, list) for g in gens):
            raise FormatError("generators: expected an array of element arrays")
        grp = GroupInstance(
            group=GroupSpec(moduli=_at_least(_vector(data["moduli"], "moduli"), 1, "moduli")),
            generators=tuple(_vector(g, "generators") for g in gens),
            target=_vector(data["target"], "target"),
            costs=_vector(data["costs"], "costs"),
            bounds=_at_least(_vector(data["bounds"], "bounds", allow="+inf"), 0, "bounds"),
        )
        k = len(grp.group.moduli)
        _sizes(
            *(("length of a generator", len(g), k) for g in grp.generators),
            ("length of target", len(grp.target), k),
            ("length of costs", len(grp.costs), grp.n),
            ("length of bounds", len(grp.bounds), grp.n),
        )
        return grp
    raise FormatError(
        "form must be one of ilp-cf, bilp-cf, ilp-sf, bilp-sf, group"
    )


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
