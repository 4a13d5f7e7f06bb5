"""Seeded random generators of valid instances for ``delta-ilp gen``."""

from __future__ import annotations

import random

from .intlinalg import IntMat, minor_stats, rank
from .model import POS_INF, CanonicalInstance, GroupInstance, GroupSpec
from .reductions import IntegralInfeasible, classic_to_generalized


def gen_cf(rnd, n, m, delta_max):
    """Canonical instance, n + m rows, entries in [-3, 3], Delta <= delta_max,
    both sides within 4 of A x0 for an integer x0."""
    while True:
        a = IntMat.from_rows(
            [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(n + m)]
        )
        if rank(a) != n:
            continue
        if minor_stats(a).delta > delta_max:
            continue
        x0 = [rnd.randint(-2, 2) for _ in range(n)]
        ax0 = a.matvec(x0)
        b_l = tuple(v - rnd.randint(0, 4) for v in ax0)
        b_r = tuple(v + rnd.randint(0, 4) for v in ax0)
        c = tuple(rnd.randint(-3, 3) for _ in range(n))
        return CanonicalInstance(A=a, b_l=b_l, b_r=b_r, c=c)


def gen_sf(rnd, n, m, delta_max):
    """Generalized standard form embedding of a feasible classic instance
    with m rows, entries in [-2, 2] and Delta <= delta_max."""
    while True:
        a = IntMat.from_rows(
            [[rnd.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        )
        if rank(a) != m or minor_stats(a).delta > delta_max:
            continue
        x0 = [rnd.randint(0, 2) for _ in range(n)]
        b = tuple(a.matvec(x0))
        u = tuple(x + rnd.randint(1, 3) for x in x0)
        c = tuple(rnd.randint(0, 4) for _ in range(n))
        try:
            dst, _ = classic_to_generalized(a, b, c, u)
        except IntegralInfeasible:
            continue
        return dst


def gen_group(rnd, n, delta_max):
    """Cyclic group instance of order at most max(2, delta_max)."""
    order = rnd.randint(2, max(2, delta_max))
    return GroupInstance(
        group=GroupSpec((order,)),
        generators=tuple((rnd.randrange(order),) for _ in range(n)),
        target=(rnd.randrange(order),),
        costs=tuple(rnd.randint(0, 6) for _ in range(n)),
        bounds=(POS_INF,) * n,
    )


def generate(kind: str, rnd: random.Random, n: int, m: int, delta_max: int):
    """One instance of kind cf, sf (at least one equality row) or group."""
    if kind == "cf":
        return gen_cf(rnd, n, m, delta_max)
    if kind == "sf":
        return gen_sf(rnd, n, max(1, m), delta_max)
    return gen_group(rnd, n, delta_max)
