"""Independent answer checks for the solve benchmark.

Nothing here calls ``deltailp``.  :func:`reference` computes the expected
status and optimal value of a case from its instance data by a method of
its own (enumeration, shortest path or a right-hand-side DP), and
:func:`check` judges what ``delta-ilp solve`` printed: the exit code, the
status, the witness's feasibility and objective, and optimality.

Semantics follow the CLI: standard-form and group files minimise, canonical
files maximise, ``--algo knapsack`` reads the single row as
``max c'x s.t. w'x <= b`` and ``--algo subset-sum`` as ``w'x = b``.
"""

from __future__ import annotations

import heapq
import itertools
import math
from fractions import Fraction

import numpy as np

from intmath import adjugate, det

EXIT = {"optimal": 0, "infeasible": 2, "unbounded": 3}
_CHUNK = 1 << 14  # box points per numpy batch, so the checks add little to peak RSS


def parse_output(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out[key] = value
    return out


# -- instance semantics ----------------------------------------------------------


def _dot(row, x):
    return sum(r * v for r, v in zip(row, x))


def _sf_feasible(d: dict, x) -> bool:
    if len(x) != len(d["c"]) or any(v < 0 for v in x):
        return False
    if any(u != "+inf" and v > u for v, u in zip(x, d["u"])):
        return False
    if any(_dot(r, x) != bi for r, bi in zip(d["A"], d["b"])):
        return False
    return all(
        (_dot(r, x) - gi) % s[i] == 0
        for i, (r, gi, s) in enumerate(zip(d["G"], d["g"], d["S"]))
    )


def _cf_feasible(d: dict, x) -> bool:
    if len(x) != len(d["c"]):
        return False
    return all(
        (lo == "-inf" or lo <= v) and v <= hi
        for lo, v, hi in zip(d["b_l"], (_dot(r, x) for r in d["A"]), d["b_r"])
    )


def _group_feasible(d: dict, x) -> bool:
    if len(x) != len(d["costs"]) or any(v < 0 for v in x):
        return False
    return all(
        (sum(xi * gen[k] for xi, gen in zip(x, d["generators"])) - d["target"][k]) % q == 0
        for k, q in enumerate(d["moduli"])
    )


def feasible(case, x) -> bool:
    d = case.data
    if case.kind in ("sf", "unb"):
        return _sf_feasible(d, x)
    if case.kind == "classic":
        k = case.extra["classic"]
        return (
            _sf_feasible(d, x)
            and _dot(k["w"], x) == k["b"]
            and all(v <= u for v, u in zip(x, k["u"]))
        )
    if case.kind in ("cf", "local"):
        return _cf_feasible(d, x)
    if case.kind == "group":
        return _group_feasible(d, x)
    w, cap = d["A"][0], d["b"][0]
    if len(x) != len(w) or any(v < 0 for v in x):
        return False
    if case.kind == "knapsack":
        return _dot(w, x) <= cap
    return _dot(w, x) == cap  # subset-sum


def objective(case, x) -> int:
    d = case.data
    if case.kind == "group":
        return _dot(d["costs"], x)
    if case.kind == "subset-sum":
        return _dot(d["A"][0], x)
    return _dot(d["c"], x)


# -- references ----------------------------------------------------------------


def _box_best(lo, hi, ok, cost, sense):
    """Best cost over the integer points of the box [lo, hi] that pass
    ``ok``, or None.  Trailing coordinates are enumerated as one numpy batch
    of at most _CHUNK points, leading ones in a Python loop.  Family bounds
    keep every product far inside int64."""
    n = len(lo)
    split, size = n, 1
    while split > 0 and size * (hi[split - 1] - lo[split - 1] + 1) <= _CHUNK:
        split -= 1
        size *= hi[split] - lo[split] + 1
    axes = [np.arange(lo[k], hi[k] + 1, dtype=np.int64) for k in range(split, n)]
    tail = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(size, n - split)
    cost = np.asarray(cost, dtype=np.int64)
    best = None
    for head in itertools.product(*(range(lo[k], hi[k] + 1) for k in range(split))):
        pts = np.concatenate(
            [np.broadcast_to(np.asarray(head, dtype=np.int64), (size, split)), tail], axis=1
        )
        mask = ok(pts)
        if not mask.any():
            continue
        vals = pts[mask] @ cost
        v = int(vals.min() if sense == "min" else vals.max())
        if best is None or (v < best if sense == "min" else v > best):
            best = v
    return best


def _sf_ok(d: dict):
    a = np.asarray(d["A"], dtype=np.int64).reshape(len(d["A"]), len(d["c"]))
    g = np.asarray(d["G"], dtype=np.int64).reshape(len(d["G"]), len(d["c"]))
    b = np.asarray(d["b"], dtype=np.int64)
    gt = np.asarray(d["g"], dtype=np.int64)
    s = np.asarray([d["S"][i][i] for i in range(len(d["S"]))], dtype=np.int64)

    def ok(pts):
        mask = np.all(pts @ a.T == b, axis=1)
        return mask & np.all((pts @ g.T - gt) % s == 0, axis=1)

    return ok


def _ref_sf(d: dict):
    n = len(d["c"])
    v = _box_best([0] * n, list(d["u"]), _sf_ok(d), d["c"], "min")
    return ("infeasible", None) if v is None else ("optimal", v)


def _cf_box(d: dict) -> tuple[list[int], list[int]]:
    """Integer box around {b_l <= Ax <= b_r} by Cramer's rule: for every
    nonsingular n-row subset B, x = adj(A_B) y / det(A_B) with y in the box
    [b_l_B, b_r_B]; the tightest range per coordinate wins."""
    a, n = d["A"], len(d["c"])
    lo, hi = [None] * n, [None] * n
    for rows in itertools.combinations(range(len(a)), n):
        sub = [a[r] for r in rows]
        dt = det(sub)
        if dt == 0:
            continue
        adj = adjugate(sub)
        for k in range(n):
            num_lo = sum(min(adj[k][j] * d["b_l"][r], adj[k][j] * d["b_r"][r]) for j, r in enumerate(rows))
            num_hi = sum(max(adj[k][j] * d["b_l"][r], adj[k][j] * d["b_r"][r]) for j, r in enumerate(rows))
            if dt < 0:
                num_lo, num_hi = -num_hi, -num_lo
            klo, khi = math.ceil(Fraction(num_lo, abs(dt))), math.floor(Fraction(num_hi, abs(dt)))
            lo[k] = klo if lo[k] is None else max(lo[k], klo)
            hi[k] = khi if hi[k] is None else min(hi[k], khi)
    return lo, hi


def _ref_cf(d: dict):
    lo, hi = _cf_box(d)
    if any(l > h for l, h in zip(lo, hi)):
        return "infeasible", None
    a = np.asarray(d["A"], dtype=np.int64)
    bl = np.asarray(d["b_l"], dtype=np.int64)
    br = np.asarray(d["b_r"], dtype=np.int64)

    def ok(pts):
        ax = pts @ a.T
        return np.all((bl <= ax) & (ax <= br), axis=1)

    v = _box_best(lo, hi, ok, d["c"], "max")
    return ("infeasible", None) if v is None else ("optimal", v)


def _ref_local(d: dict):
    """max c'x, Ax <= b for square A with c = A^T y, y >= 0.  Put s = b - Ax:
    then c'x = y'b - y's, and s - |det A| e_i stays in b - A Z^n, so some
    optimal slack lies in [0, |det A| - 1]^n."""
    a, b, c = d["A"], d["b_r"], d["c"]
    n = len(c)
    dt = det(a)
    adj = adjugate(a)
    y = [Fraction(sum(adj[i][j] * c[i] for i in range(n)), dt) for j in range(n)]
    if any(v < 0 for v in y):
        raise ValueError("local family needs c in cone(A^T)")
    adj_np = np.asarray(adj, dtype=np.int64)
    b_np = np.asarray(b, dtype=np.int64)
    c_np = np.asarray(c, dtype=np.int64)
    best = None
    size = abs(dt)
    for s in itertools.product(range(size), repeat=n):
        num = adj_np @ (b_np - np.asarray(s, dtype=np.int64))
        if np.all(num % dt == 0):
            v = int(c_np @ (num // dt))
            best = v if best is None else max(best, v)
    return "optimal", best


def _ref_group(d: dict):
    """Dijkstra from 0 over the group elements, one arc per generator."""
    moduli = d["moduli"]
    start = tuple(0 for _ in moduli)
    target = tuple(t % q for t, q in zip(d["target"], moduli))
    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        du, u = heapq.heappop(heap)
        if du > dist[u]:
            continue
        if u == target:
            return "optimal", du
        for gen, cost in zip(d["generators"], d["costs"]):
            v = tuple((e + g) % q for e, g, q in zip(u, gen, moduli))
            if v not in dist or du + cost < dist[v]:
                dist[v] = du + cost
                heapq.heappush(heap, (du + cost, v))
    return "infeasible", None


def _ref_knapsack(d: dict):
    """Capacity DP: best[q] = max c'x over w'x <= q."""
    w, c, cap = d["A"][0], d["c"], d["b"][0]
    best = [0] * (cap + 1)
    for q in range(1, cap + 1):
        best[q] = max([best[q - 1]] + [best[q - wi] + ci for wi, ci in zip(w, c) if wi <= q])
    return "optimal", best[cap]


def _ref_subset_sum(d: dict):
    w, cap = d["A"][0], d["b"][0]
    reach = [True] + [False] * cap
    for t in range(1, cap + 1):
        reach[t] = any(t >= wi and reach[t - wi] for wi in w)
    return ("optimal", cap) if reach[cap] else ("infeasible", None)


def _ref_classic(k: dict):
    """min c'x, w'x = b, 0 <= x <= u by a DP over the right-hand side, each
    bounded item split into 0/1 items of 1, 2, 4, ... copies."""
    b = k["b"]
    inf = np.int64(1) << 60
    dp = np.full(b + 1, inf, dtype=np.int64)
    dp[0] = 0
    for w, c, u in zip(k["w"], k["c"], k["u"]):
        left, part = u, 1
        while left > 0:
            t = min(part, left)
            step = w * t
            if step <= b:
                dp[step:] = np.minimum(dp[step:], dp[: b + 1 - step] + c * t)
            left -= t
            part *= 2
    return ("infeasible", None) if dp[b] >= inf else ("optimal", int(dp[b]))


def _lp_vertices_m1(a: list[int], b: int, c: list[int]) -> list[list[Fraction]]:
    """All optimal vertices of min c'x, a'x = b, x >= 0, for c >= 0.  A basic
    solution has one basic variable, so the vertices are (b / a_k) e_k."""
    n = len(a)
    if b == 0:
        return [[Fraction(0)] * n]
    verts = [k for k in range(n) if a[k] != 0 and Fraction(b, a[k]) > 0]
    if not verts:
        return []
    cost = {k: c[k] * Fraction(b, a[k]) for k in verts}
    low = min(cost.values())
    return [
        [Fraction(b, a[k]) if j == k else Fraction(0) for j in range(n)]
        for k in verts
        if cost[k] == low
    ]


def unbounded_box(d: dict) -> list[tuple[int, int]] | None:
    """The box criterion 02 enumerates, or None when the LP is empty.

    m = 0: [0, |det S| - 1]^n, since a copy count of |det S| adds 0 in the
    group.  m = 1: [0, max(0, ceil(x*_k)) + chi] with chi = (m+1)(n+1)
    Delta |det S|, merged over every optimal LP vertex x*."""
    n, m = len(d["c"]), len(d["A"])
    det_s = math.prod(d["S"][i][i] for i in range(len(d["S"])))
    if m == 0:
        return [(0, det_s - 1)] * n
    a = d["A"][0]
    verts = _lp_vertices_m1(a, d["b"][0], d["c"])
    if not verts:
        return None
    chi = (m + 1) * (n + 1) * max(abs(v) for v in a) * det_s
    return [(0, max(max(0, math.ceil(v[k])) for v in verts) + chi) for k in range(n)]


def _has_ray(d: dict) -> bool:
    """A ray r in {0, 1, 2}^n \\ {0} with Ar = 0, Gr = 0 (mod S), c'r < 0."""
    n = len(d["c"])
    zero = dict(d, b=[0] * len(d["b"]), g=[0] * len(d["g"]))
    ok = _sf_ok(zero)
    pts = np.asarray(list(itertools.product(range(3), repeat=n))[1:], dtype=np.int64)
    return bool(np.any(ok(pts) & (pts @ np.asarray(d["c"], dtype=np.int64) < 0)))


def _ref_unbounded(d: dict):
    if _has_ray(d):
        return "unbounded", None
    box = unbounded_box(d)
    if box is None:
        return "infeasible", None
    v = _box_best([lo for lo, _ in box], [hi for _, hi in box], _sf_ok(d), d["c"], "min")
    return ("infeasible", None) if v is None else ("optimal", v)


def reference(case) -> tuple[str, int | None]:
    """Expected (status, optimal value) of a case."""
    d = case.data
    if case.kind == "sf":
        return _ref_sf(d)
    if case.kind == "cf":
        return _ref_cf(d)
    if case.kind == "local":
        return _ref_local(d)
    if case.kind == "group":
        return _ref_group(d)
    if case.kind == "knapsack":
        return _ref_knapsack(d)
    if case.kind == "subset-sum":
        return _ref_subset_sum(d)
    if case.kind == "classic":
        return _ref_classic(case.extra["classic"])
    if case.kind == "unb":
        return _ref_unbounded(d)
    raise ValueError(f"unknown case kind {case.kind!r}")


# -- the check -----------------------------------------------------------------


def check(case, ref, code: int, text: str) -> str | None:
    """None when the printed answer is right, else the reason it is not."""
    status, value = ref
    if code != EXIT[status]:
        return f"exit code {code}, expected {EXIT[status]}"
    out = parse_output(text)
    if out.get("status") != status:
        return f"status {out.get('status')!r}, expected {status!r}"
    if status != "optimal":
        return None
    try:
        x = [int(t) for t in out["x"].split()]
        reported = int(out["value"])
    except (KeyError, ValueError):
        return "missing or malformed x/value"
    if not feasible(case, x):
        return "witness is infeasible"
    if objective(case, x) != reported:
        return f"value {reported} is not the witness objective {objective(case, x)}"
    if reported != value:
        return f"value {reported}, optimum is {value}"
    return None
