"""Seeded instance families of the solve benchmark.

Every generator draws from its own ``random.Random`` stream, keyed by the
run seed and a label, so the same seed always yields the same instances and
one family never shifts another's draws.  Instances are plain JSON objects
in the ``deltailp.io`` file schema; only the classic knapsack embedding
calls into ``deltailp`` (see :func:`embed_knapsacks`).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

from intmath import det, rank

POS = "+inf"
NEG = "-inf"


@dataclass
class Case:
    """One instance file plus the ``delta-ilp solve`` flags it runs with.

    ``kind`` selects the reference and the answer semantics in ``checks``;
    ``extra`` carries data the file does not hold (the classic knapsack a
    generalized instance was embedded from).
    """

    kind: str
    data: dict
    flags: tuple[str, ...] = ()
    extra: dict = field(default_factory=dict)


def rng(seed: int, label: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{label}")


def random_unimodular(rnd: random.Random, n: int, ops: int = 5) -> list[list[int]]:
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        if n > 1:
            i, j = rnd.sample(range(n), 2)
            f = rnd.randint(-2, 2)
            rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
        if rnd.random() < 0.3:
            k = rnd.randrange(n)
            rows[k] = [-a for a in rows[k]]
    return rows


def _sf(a_rows, g_rows, s_diag, b, g, u, c) -> dict:
    d = len(s_diag)
    return {
        "form": "bilp-sf" if all(v != POS for v in u) else "ilp-sf",
        "A": a_rows,
        "G": g_rows,
        "S": [[s_diag[i] if i == j else 0 for j in range(d)] for i in range(d)],
        "b": b,
        "g": g,
        "u": u,
        "c": c,
    }


def _dot(row, x):
    return sum(r * v for r, v in zip(row, x))


# -- desk-mix parts ----------------------------------------------------------
#
# Each part fixes the shape of its i-th instance (n, m, group, regime) from i
# alone and draws only the entries from the seed, so every seed gets the
# same make-up and per-seed figures stay comparable.

_S_PATTERNS = ([8], [6], [4], [2, 2], [2, 4], [2, 2, 2], [1], [3], [5], [7])


def bounded_sf(rnd: random.Random, n: int, m: int, tail: list[int]) -> dict:
    """Criterion-01 bounded generalized standard form with m <= 1: |A|_max
    <= 4, S = diag(1, ..., 1, *tail), u <= 6, box volume <= 20000,
    sum(u) <= 24."""
    d = n - m
    s_diag = [1] * (d - len(tail)) + tail
    while True:
        stack = random_unimodular(rnd, n)
        if max(abs(e) for r in stack for e in r) <= 4:
            break
    a_rows, g_rows = stack[:m], stack[m:]
    u = [rnd.randint(0, 6) for _ in range(n)]
    while math.prod(v + 1 for v in u) > 20000 or sum(u) > 24:
        u[rnd.randrange(n)] //= 2
    x0 = [rnd.randint(0, ui) for ui in u]
    if m and rnd.random() < 0.8:
        b = [_dot(r, x0) for r in a_rows]
    else:
        b = [rnd.randint(-3, 3) for _ in range(m)]
    if d and rnd.random() < 0.8:
        g = [_dot(r, x0) % s for r, s in zip(g_rows, s_diag)]
    else:
        g = [rnd.randrange(s) for s in s_diag]
    c = [rnd.randint(0, 5) for _ in range(n)]
    return _sf(a_rows, g_rows, s_diag, b, g, u, c)


def bounded_cf(rnd: random.Random, n: int) -> dict:
    """Two-sided canonical instance with m = 1 around an integer point:
    entries in [-3, 3], Delta <= 6, slacks in [0, 4]."""
    while True:
        a = [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(n + 1)]
        if rank(a) != n:
            continue
        subsets = [[r for k, r in enumerate(a) if k != skip] for skip in range(n + 1)]
        if max(abs(det(s)) for s in subsets) > 6:
            continue
        x0 = [rnd.randint(-2, 2) for _ in range(n)]
        ax0 = [_dot(r, x0) for r in a]
        return {
            "form": "bilp-cf",
            "A": a,
            "b_l": [v - rnd.randint(0, 4) for v in ax0],
            "b_r": [v + rnd.randint(0, 4) for v in ax0],
            "c": [rnd.randint(-3, 3) for _ in range(n)],
        }


_NONCYCLIC = (
    [2, 2], [2, 4], [2, 6], [2, 8], [3, 3], [4, 4],
    [2, 2, 2], [2, 2, 4], [2, 4, 8], [2, 2, 2, 2],
)


def group(rnd: random.Random, moduli: list[int], n: int) -> dict:
    """Criterion-03 group instance: random generators and target, costs in
    [0, 9]."""
    return {
        "form": "group",
        "moduli": moduli,
        "generators": [[rnd.randrange(q) for q in moduli] for _ in range(n)],
        "target": [rnd.randrange(q) for q in moduli],
        "costs": [rnd.randint(0, 9) for _ in range(n)],
        "bounds": [POS] * n,
    }


def knapsack_row(rnd: random.Random, n: int, large: bool) -> dict:
    """Criterion-09 single-row instance w'x (<=|=) cap: w <= 50, c in
    [1, 30]; a large cap sits in the group-reduction regime."""
    w = [rnd.randint(1, 50) for _ in range(n)]
    c = [rnd.randint(1, 30) for _ in range(n)]
    cap = rnd.randint(min(v * v for v in w), 2500) if large else rnd.randint(0, 300)
    return _sf([w], [], [], [cap], [], [POS] * n, c)


def local_corner(rnd: random.Random, n: int) -> dict:
    """Square one-sided canonical system with c = A^T y, y >= 0, so the
    corner optimum exists: entries in [-3, 3], 1 <= |det A| <= 6."""
    while True:
        a = [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if not 1 <= abs(det(a)) <= 6:
            continue
        y = [rnd.randint(0, 3) for _ in range(n)]
        return {
            "form": "ilp-cf",
            "A": a,
            "b_l": [NEG] * n,
            "b_r": [rnd.randint(-5, 5) for _ in range(n)],
            "c": [sum(a[i][j] * y[i] for i in range(n)) for j in range(n)],
        }


def desk_mix(seed: int, count: int) -> list[Case]:
    """``count`` instances, one fifth per part, in shuffled order."""
    per = count // 5
    cases = []
    rnd = rng(seed, "desk-mix:bounded-sf")
    for i in range(per):
        n, m = 1 + i % 8, (i // 16) % 2
        tails = [p for p in _S_PATTERNS if len(p) <= n - m] or [[]]
        variant = ("queue", "binarized")[(i // 8) % 2]
        data = bounded_sf(rnd, n, m, tails[(i // 32) % len(tails)])
        cases.append(Case("sf", data, ("--variant", variant)))
    rnd = rng(seed, "desk-mix:bounded-cf")
    cases += [Case("cf", bounded_cf(rnd, 2 + i % 2)) for i in range(per)]
    rnd = rng(seed, "desk-mix:group")
    for i in range(per):
        j = i // 2
        moduli = [2 + (37 * j) % 63] if i % 2 == 0 else _NONCYCLIC[j % len(_NONCYCLIC)]
        cases.append(Case("group", group(rnd, list(moduli), 1 + j % 8)))
    rnd = rng(seed, "desk-mix:knapsack")
    for i in range(per):
        algo = ("knapsack", "subset-sum")[(i // 6) % 2]
        data = knapsack_row(rnd, 1 + i % 6, large=(i // 12) % 2 == 0)
        cases.append(Case(algo, data, ("--algo", algo)))
    rnd = rng(seed, "desk-mix:local")
    cases += [Case("local", local_corner(rnd, 2 + i % 2)) for i in range(per)]
    rng(seed, "desk-mix:order").shuffle(cases)
    return cases


# -- knapsack-dp and lp-wide ---------------------------------------------------


def knapsacks(seed: int, label: str, count: int, n: int, wmax: int, umax: int) -> list[dict]:
    """Classic equality knapsacks min c'x, w'x = b, 0 <= x <= u, with b drawn
    from a random box point so every instance is feasible; the largest
    weight is exactly ``wmax``."""
    rnd = rng(seed, label)
    out = []
    for _ in range(count):
        w = [rnd.randint(1, wmax) for _ in range(n)]
        w[rnd.randrange(n)] = wmax
        u = [umax] * n
        x0 = [rnd.randint(0, umax) for _ in range(n)]
        c = [rnd.randint(0, 9) for _ in range(n)]
        out.append({"w": w, "b": _dot(w, x0), "c": c, "u": u})
    return out


def embed_knapsacks(classic: list[dict], flags: tuple[str, ...]) -> list[Case]:
    """Generalized standard form files via ``reductions.classic_to_generalized``."""
    from deltailp.intlinalg import IntMat
    from deltailp.io import serialize_instance
    from deltailp.reductions import classic_to_generalized

    cases = []
    for k in classic:
        inst, _ = classic_to_generalized(IntMat.from_rows([k["w"]]), (k["b"],), k["c"], k["u"])
        cases.append(Case("classic", json.loads(serialize_instance(inst)), flags, {"classic": k}))
    return cases


# -- unbounded -----------------------------------------------------------------


def unbounded(rnd: random.Random, n: int, m: int, tail: list[int], delta: int) -> dict:
    """Criterion-02 instance with all bounds +inf: stack entries <= 3,
    S = diag(1, ..., 1, *tail), c in [0, 4]; for m = 1 the row's largest
    entry (its Delta) is ``delta``, its LP is feasible and the proximity box
    of ``checks.unbounded_box`` has at most 500 000 points."""
    from checks import unbounded_box

    s_diag = [1] * (n - m - len(tail)) + tail
    while True:
        stack = random_unimodular(rnd, n)
        if max(abs(e) for r in stack for e in r) > 3:
            continue
        a_rows, g_rows = stack[:m], stack[m:]
        if m and max(abs(v) for v in a_rows[0]) != delta:
            continue
        x0 = [rnd.randint(0, 2) for _ in range(n)]
        b = [_dot(r, x0) for r in a_rows]
        g = [
            _dot(r, x0) % s if rnd.random() < 0.8 else rnd.randrange(s)
            for r, s in zip(g_rows, s_diag)
        ]
        c = [rnd.randint(0, 4) for _ in range(n)]
        data = _sf(a_rows, g_rows, s_diag, b, g, [POS] * n, c)
        box = unbounded_box(data)
        if box is not None and math.prod(hi - lo + 1 for lo, hi in box) <= 500_000:
            return data


# Shapes (n, m, S tail, Delta) of one unbounded round.  m = 0: every n in
# 2..7 with |det S| in {2, 6}.  m = 1: six (n, |det S|, Delta) strata, four
# instances each.  Left out at m = 1: |det S| = 6, where one solve takes
# 1-5 s, and the strata (2, 2, 1), (3, 2, 1), (3, 3, 1) and (3, 1, 2), whose
# solve time swung by more than 30 % with the entries; either would make a
# round's figures depend on the seed.  Two m = 1 solves per m = 0 solve put
# the median among the light m = 1 strata rather than at the edge between
# the two groups.
_M0 = [[2], [6]]
_M1 = [(3, [], 1), (4, [], 1), (5, [], 1), (2, [3], 1), (4, [2], 1), (4, [], 2)]
UNBOUNDED_SHAPES = [(n, 0, tail, 1) for n in range(2, 8) for tail in _M0] + [
    (n, 1, tail, delta) for _ in range(4) for n, tail, delta in _M1
]


def unbounded_round(seed: int) -> list[Case]:
    rnd = rng(seed, "unbounded")
    cases = [Case("unb", unbounded(rnd, *shape)) for shape in UNBOUNDED_SHAPES]
    rng(seed, "unbounded:order").shuffle(cases)
    return cases
