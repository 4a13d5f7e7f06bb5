"""Brute-force ground truth.

Exhaustive solvers over explicit boxes, integer hull vertex enumeration at
tiny scale, and brute-force group minimization.  Results are exact; the
point cap ``_POINT_CAP`` (10^7 points) guards against accidental blowups.

Enumeration is vectorized with 64-bit integer arrays when an a priori bound
shows that no intermediate value can overflow; otherwise a pure-Python path
with arbitrary precision is used, so the outcome is exact either way.
Hull membership is decided by the module's own dense two-phase Fraction
simplex, so the oracle shares no LP code with the solvers it checks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Sequence

import numpy as np

from .model import (
    CanonicalInstance,
    CapExceeded,
    GroupInstance,
    SolveOutcome,
    is_feasible,
    is_finite,
)

Box = Sequence[tuple[int, int]]


_POINT_CAP = 10**7


def _box_volume(box: Box) -> int:
    vol = 1
    for lo, hi in box:
        if hi < lo:
            return 0
        vol *= hi - lo + 1
    return vol


def _check_cap(count: int) -> None:
    if count > _POINT_CAP:
        raise CapExceeded(f"enumeration of {count} points exceeds cap {_POINT_CAP}")


def _int64_safe(mat_rows: list[list[int]], box: Box) -> bool:
    big = max((abs(lo) for lo, _ in box), default=0)
    big = max(big, max((abs(hi) for _, hi in box), default=0))
    coef = max((abs(e) for row in mat_rows for e in row), default=0)
    width = max((len(row) for row in mat_rows), default=1)
    return coef * big * width < 2**60


def _grid(box: Box) -> "np.ndarray":
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in box]
    pts = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    return pts.reshape(-1, len(box))


def _feasible_points_np(instance, box: Box) -> list[tuple[int, ...]]:
    pts = _grid(box)
    if isinstance(instance, CanonicalInstance):
        a = np.array(instance.A.to_lists(), dtype=np.int64)
        ax = pts @ a.T
        mask = np.ones(len(pts), dtype=bool)
        for i in range(a.shape[0]):
            mask &= ax[:, i] <= instance.b_r[i]
            if is_finite(instance.b_l[i]):
                mask &= ax[:, i] >= instance.b_l[i]
    else:
        mask = np.ones(len(pts), dtype=bool)
        for j, uj in enumerate(instance.u):
            mask &= pts[:, j] >= 0
            if is_finite(uj):
                mask &= pts[:, j] <= uj
        if instance.A is not None:
            a = np.array(instance.A.to_lists(), dtype=np.int64)
            ax = pts @ a.T
            for i in range(a.shape[0]):
                mask &= ax[:, i] == instance.b[i]
        if instance.G is not None:
            g = np.array(instance.G.to_lists(), dtype=np.int64)
            gx = pts @ g.T
            for i in range(g.shape[0]):
                d = instance.S.entries[i][i]
                mask &= (gx[:, i] - instance.g[i]) % d == 0
    sel = pts[mask]
    order = np.lexsort(sel.T[::-1])
    return [tuple(int(v) for v in row) for row in sel[order]]


def feasible_points(instance, box: Box) -> list[tuple[int, ...]]:
    """All integer feasible points inside the box, lexicographically sorted."""
    vol = _box_volume(box)
    _check_cap(vol)
    if vol == 0:
        return []
    rows: list[list[int]] = []
    if isinstance(instance, CanonicalInstance):
        rows = instance.A.to_lists()
    else:
        if instance.A is not None:
            rows += instance.A.to_lists()
        if instance.G is not None:
            rows += instance.G.to_lists()
    if vol <= 4 * 10**6 and _int64_safe(rows, box):
        return _feasible_points_np(instance, box)
    out = []
    for x in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        if is_feasible(instance, x):
            out.append(x)
    return out


def brute_force_ilp(instance, box: Box) -> SolveOutcome:
    """Exact optimum over the box by full enumeration.

    Canonical instances maximize, standard instances minimize; ties are
    broken toward the lexicographically smallest solution.  The box must be
    known by the caller to contain an optimum for the verdict to be global.
    """
    pts = feasible_points(instance, box)
    if not pts:
        return SolveOutcome.infeasible()
    sign = 1 if isinstance(instance, CanonicalInstance) else -1
    cost = instance.c
    best = None
    best_val = None
    for x in pts:
        v = sum(ci * xi for ci, xi in zip(cost, x))
        if best_val is None or sign * v > sign * best_val:
            best, best_val = x, v
    return SolveOutcome.optimal(best, best_val)


def _pivot(tab: list[list[Fraction]], basis: list[int], row: int, col: int) -> None:
    piv = tab[row][col]
    tab[row] = [v / piv for v in tab[row]]
    for i, r in enumerate(tab):
        if i != row and r[col] != 0:
            f = r[col]
            tab[i] = [a - f * b for a, b in zip(r, tab[row])]
    basis[row] = col


def _run_simplex(
    tab: list[list[Fraction]], basis: list[int], ncols: int, allowed: int
) -> str:
    """Maximize the objective in the last tableau row over columns
    0..allowed-1; returns 'optimal' or 'unbounded'."""
    obj = len(tab) - 1
    while True:
        col = next(
            (j for j in range(allowed) if tab[obj][j] > 0), None
        )  # Bland: smallest improving index
        if col is None:
            return "optimal"
        best = None
        for i in range(obj):
            if tab[i][col] > 0:
                ratio = tab[i][ncols] / tab[i][col]
                if best is None or ratio < best[0] or (
                    ratio == best[0] and basis[i] < basis[best[1]]
                ):
                    best = (ratio, i)
        if best is None:
            return "unbounded"
        _pivot(tab, basis, best[1], col)


def _dense_ineq_lp(
    c: Sequence[Fraction], D: Sequence[Sequence[Fraction]], d: Sequence[Fraction]
) -> tuple[str, Fraction | None]:
    """max c'y  s.t.  D y <= d,  y >= 0, exactly: (status, optimal value).

    A dense two-phase Fraction tableau with one slack and one artificial
    per row, independent of the solver's LP engine in ``deltailp.lp``.
    """
    m = len(D)
    n = len(c)
    # equality system [D I] (x, s) = d with artificial variables where the
    # right side is negative after slack insertion
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(m):
        row = [Fraction(v) for v in D[i]] + [
            Fraction(1) if j == i else Fraction(0) for j in range(m)
        ]
        r = Fraction(d[i])
        if r < 0:
            row = [-v for v in row]
            r = -r
        rows.append(row)
        rhs.append(r)
    total = n + m
    # phase 1: artificial variable per row
    tab = []
    for i in range(m):
        tab.append(
            rows[i]
            + [Fraction(1) if j == i else Fraction(0) for j in range(m)]
            + [rhs[i]]
        )
    basis = [total + i for i in range(m)]
    ncols = total + m
    # phase-1 objective: maximize -sum(artificials) expressed in non-basic terms
    objrow = [Fraction(0)] * (ncols + 1)
    for i in range(m):
        for j in range(ncols + 1):
            objrow[j] += tab[i][j]
    for i in range(m):
        objrow[total + i] = Fraction(0)
    tab.append(objrow)
    _run_simplex(tab, basis, ncols, allowed=total)
    if tab[-1][ncols] != 0:
        return "infeasible", None
    # drive remaining artificials out of the basis
    for i in range(m):
        if basis[i] >= total:
            col = next((j for j in range(total) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, basis, i, col)
    # phase 2
    obj = [Fraction(v) for v in c] + [Fraction(0)] * (m + m) + [Fraction(0)]
    for i in range(m):
        if basis[i] < total and obj[basis[i]] != 0:
            f = obj[basis[i]]
            obj = [a - f * b for a, b in zip(obj, tab[i])]
    tab[-1] = obj
    if _run_simplex(tab, basis, ncols, allowed=total) == "unbounded":
        return "unbounded", None
    y = [Fraction(0)] * total
    for i in range(m):
        if basis[i] < total:
            y[basis[i]] = tab[i][ncols]
    return "optimal", sum(Fraction(ci) * yi for ci, yi in zip(c, y[:n]))


def _is_convex_combination(
    p: tuple[int, ...], others: list[tuple[int, ...]], up_closure: bool = False
) -> bool:
    """Exact test whether p lies in conv(others) (plus the nonnegative
    orthant cone when up_closure is set)."""
    if not others:
        return False
    n = len(p)
    nvars = len(others)
    D: list[list[Fraction]] = []
    d: list[Fraction] = []
    for i in range(n):
        row = [Fraction(q[i]) for q in others]
        if up_closure:
            # sum lambda_q q_i <= p_i
            D.append(row)
            d.append(Fraction(p[i]))
        else:
            D.append(row)
            d.append(Fraction(p[i]))
            D.append([-v for v in row])
            d.append(Fraction(-p[i]))
    ones = [Fraction(1)] * nvars
    D.append(ones)
    d.append(Fraction(1))
    D.append([-v for v in ones])
    d.append(Fraction(-1))
    return _dense_ineq_lp([Fraction(0)] * nvars, D, d)[0] == "optimal"


def hull_vertices(instance: CanonicalInstance, box: Box) -> list[tuple[int, ...]]:
    """Vertices of the convex hull of the integer feasible points in the box.

    A point is reported iff it is not a convex combination of the other
    feasible points (exact rational feasibility test).
    """
    pts = feasible_points(instance, box)
    out = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1 :]
        if not _is_convex_combination(p, others):
            out.append(p)
    return out


def group_feasible_points(
    instance: GroupInstance, radius: int
) -> list[tuple[int, ...]]:
    """All group-equation solutions with l1 norm at most radius (and within
    the instance bounds), lexicographically sorted."""
    n = instance.n
    grp = instance.group
    target = grp.reduce(instance.target)
    out: list[tuple[int, ...]] = []
    counter = [0]

    def rec(idx: int, remaining: int, acc, prefix: list[int]) -> None:
        counter[0] += 1
        if counter[0] > _POINT_CAP:
            raise CapExceeded(f"group enumeration exceeds cap {_POINT_CAP}")
        if idx == n:
            if acc == target:
                out.append(tuple(prefix))
            return
        hi = remaining
        if is_finite(instance.bounds[idx]):
            hi = min(hi, instance.bounds[idx])
        elem = grp.zero
        for t in range(hi + 1):
            if t > 0:
                elem = grp.add(elem, instance.generators[idx])
            rec(idx + 1, remaining - t, grp.add(acc, elem), prefix + [t])

    rec(0, radius, grp.zero, [])
    return out


def brute_force_group(instance: GroupInstance, radius: int) -> SolveOutcome:
    """Exact minimum over solutions with l1 norm at most radius."""
    pts = group_feasible_points(instance, radius)
    if not pts:
        return SolveOutcome.infeasible()
    best = None
    best_val = None
    for x in pts:
        v = sum(ci * xi for ci, xi in zip(instance.costs, x))
        if best_val is None or v < best_val:
            best, best_val = x, v
    return SolveOutcome.optimal(best, best_val)


def group_hull_vertices(instance: GroupInstance) -> list[tuple[int, ...]]:
    """Vertices of the (unbounded) hull of all group-equation solutions.

    The hull equals conv(solutions with l1 norm < |G|) plus the nonnegative
    orthant as recession cone, because every hull vertex has l1 norm at
    most |G| - 1 and adding the order of a generator to its variable maps
    solutions to solutions.  A candidate is a vertex iff it is not in the
    convex hull of the remaining candidates plus the cone.
    """
    radius = instance.group.order - 1
    pts = group_feasible_points(instance, radius)
    out = []
    for i, p in enumerate(pts):
        others = pts[:i] + pts[i + 1 :]
        if not _is_convex_combination(p, others, up_closure=True):
            out.append(p)
    return out
