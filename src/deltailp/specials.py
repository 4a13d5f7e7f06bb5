"""Corner-polyhedron specializations.

Everything here is built on one primitive: the integer program over a
nonsingular corner ``A_B x <= b_B`` is, after the slack substitution
``y = b_B - A_B x``, a group minimization over ``Z^n / A_B Z^n`` and is
solved exactly by the group DP.  On top of that primitive:

- :func:`locality_test` / :func:`solve_local` — a sufficient slack
  condition under which the corner optimum already solves the full
  inequality problem, and the corner solver with a sparsity/proximity
  report for its witness.
- :func:`simplex_feasibility` — integer feasibility of a simplex by
  minimizing the remaining row over the corner at the base of minimal
  absolute determinant.
- :func:`subset_sum_unbounded` / :func:`knapsack_unbounded` — the
  unbounded subset-sum and knapsack problems reduced modulo a single
  weight to cyclic group minimization, with a pseudo-polynomial capacity
  DP fallback for knapsacks with small capacity.
- :func:`locality_sampler` — empirical frequency of the locality
  condition over uniformly drawn right-hand sides.

The arithmetic is integral: A_B^{-1} = adj / |det A_B| comes from one
:func:`~deltailp.intlinalg.cramer` call, and the vertex, its slacks and
their bounds are all scaled by |det A_B|.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .groupmin import cyclic_minplus_solve, gomory_solve
from .intlinalg import (
    IntMat,
    RankError,
    cramer,
    det,
    minor_stats,
    rank,
    snf,
)
from .model import (
    POS_INF,
    CanonicalInstance,
    CertificateError,
    GroupInstance,
    GroupSpec,
    SolveOutcome,
    is_finite,
)
from .rng import stream


def _norms(vec: Sequence[int]):
    l0 = sum(1 for v in vec if v != 0)
    l1 = sum(abs(v) for v in vec)
    linf = max((abs(v) for v in vec), default=0)
    return l0, l1, linf


def _log2_at_most(count: int, bound: int, extra: int = 0) -> bool:
    """Exact check of  count <= log2(bound) + extra  for integers."""
    return bound >= 1 << max(0, count - extra)


def _require_one_sided(instance: CanonicalInstance) -> None:
    if any(is_finite(v) for v in instance.b_l):
        raise ValueError("corner analysis applies to the one-sided form only")


def _check_base(instance: CanonicalInstance, base: Sequence[int]) -> tuple[int, ...]:
    n = instance.n
    idx = tuple(sorted(base))
    if len(idx) != n or len(set(idx)) != n:
        raise ValueError("base must pick n distinct rows")
    if any(i < 0 or i >= instance.A.rows for i in idx):
        raise ValueError("base row index out of range")
    return idx


def _inverse(a_b: IntMat) -> tuple[IntMat, int]:
    """(adj, den) with A_B^{-1} = adj / den and den = |det A_B| > 0: the
    adjugate times the sign of the determinant.  Raises RankError, a
    ValueError, when A_B is singular."""
    try:
        adj, d = cramer(a_b, IntMat.identity(a_b.rows))
    except RankError:
        raise RankError("base rows are singular, no vertex") from None
    return (adj, d) if d > 0 else (adj.scale(-1), -d)


def _corner_max(a_b: IntMat, b_b: Sequence[int], c: Sequence[int]):
    """Exact  max c'x  s.t.  A_B x <= b_B,  x integer,  A_B nonsingular.

    Returns None when c lies outside cone(A_B^T), i.e. the corner problem
    is unbounded; otherwise (z, y, v, delta_b, group_value) where
    y = b_B - A_B z is the slack of the optimal witness, delta_b =
    |det A_B| and v = delta_b * A_B^{-1} b_B holds the numerators of the
    base vertex.
    """
    n = a_b.rows
    adj, delta_b = _inverse(a_b)
    # slack costs: max c'x = c'v - (A_B^{-T}c)'y, so minimize chat'y with
    # chat = delta_b * A_B^{-T} c = adj' c
    costs = tuple(sum(row[i] * ck for row, ck in zip(adj.entries, c)) for i in range(n))
    if any(q < 0 for q in costs):
        return None
    # integrality of x = A_B^{-1}(b_B - y) as a residue condition on y
    fact = snf(a_b)
    moduli = tuple(fact.S.entries[i][i] for i in range(n))
    inv_p = fact.P_inv
    grp = GroupSpec(moduli)
    gens = tuple(
        tuple(inv_p.entries[k][i] % moduli[k] for k in range(n)) for i in range(n)
    )
    target = tuple(t % d_ for t, d_ in zip(inv_p.matvec(list(b_b)), moduli))
    out = gomory_solve(
        GroupInstance(
            group=grp,
            generators=gens,
            target=target,
            costs=costs,
            bounds=(POS_INF,) * n,
        )
    )
    # unimodular columns generate the group, so an optimum exists
    if out.status != "optimal":
        raise CertificateError("the corner group problem reported no optimum")
    y = out.x
    z = []
    for q in adj.matvec([bi - yi for bi, yi in zip(b_b, y)]):
        zi, rem = divmod(q, delta_b)
        if rem:
            raise CertificateError("the corner witness is not integral")
        z.append(zi)
    return tuple(z), y, adj.matvec(list(b_b)), delta_b, out.value


def _slacks(instance: CanonicalInstance, idx: tuple[int, ...], av, den: int) -> list[int]:
    """den * (b_i - a_i x) on the non-base rows i, for the base vertex x
    with den * A x = av."""
    return [den * instance.b_r[i] - av[i] for i in range(instance.A.rows) if i not in idx]


def locality_test(instance: CanonicalInstance, base: Sequence[int]) -> bool:
    """Sufficient condition for the corner problem at ``base`` to solve the
    full one-sided problem for every objective in cone(A_B^T): every
    non-base slack at the base vertex is at least Delta - 1."""
    _require_one_sided(instance)
    idx = _check_base(instance, base)
    adj, den = _inverse(instance.A.take_rows(list(idx)))
    av = instance.A.matvec(adj.matvec([instance.b_r[i] for i in idx]))
    delta = minor_stats(instance.A).delta
    return all(s >= den * (delta - 1) for s in _slacks(instance, idx, av, den))


def solve_local(instance: CanonicalInstance, base: Sequence[int]) -> SolveOutcome:
    """Exact integer optimum of the corner problem A_B x <= b_B with a
    structural report on the witness.

    The outcome is a global optimum of the full problem whenever
    :func:`locality_test` passes and c lies in cone(A_B^T); otherwise it is
    the corner optimum only.  An optimal outcome's certificate carries that
    test's verdict at ``base`` as ``local``.
    """
    _require_one_sided(instance)
    idx = _check_base(instance, base)
    a = instance.A
    m = a.rows - instance.n
    a_b = a.take_rows(list(idx))
    b_b = [instance.b_r[i] for i in idx]
    res = _corner_max(a_b, b_b, instance.c)
    if res is None:
        return SolveOutcome(
            status="unbounded",
            certificate={"reason": "objective outside the base cone"},
        )
    z, y, v, delta_b, group_value = res
    delta = minor_stats(a).delta
    in_base = set(idx)
    notbase = [i for i in range(a.rows) if i not in in_base]

    # the move A (v / delta_b - z) from the base vertex to the witness and
    # the non-base slacks are scaled by delta_b, and so are their bounds
    av, az = a.matvec(v), a.matvec(list(z))
    move = [avi - delta_b * azi for avi, azi in zip(av, az)]
    resid = [instance.b_r[i] - az[i] for i in range(a.rows)]
    slack_n = _slacks(instance, idx, av, delta_b)
    # witness invariant of the group optimum: the move stays small on the
    # rows that were dropped
    if any(abs(move[i]) > delta_b * (delta - 1) for i in notbase):
        raise CertificateError("the corner witness moved too far on a dropped row")

    y_l0, y_l1, y_linf = _norms(y)
    m_l0, m_l1, m_linf = _norms(move)
    r_l0, r_l1, r_linf = _norms(resid)
    s_l1 = sum(abs(q) for q in slack_n)
    s_linf = max((abs(q) for q in slack_n), default=0)
    l1_bound = (delta_b - 1) + m * (delta - 1)
    checks = {
        "move_l0": _log2_at_most(m_l0, delta_b, extra=m),
        "move_l1": m_l1 <= delta_b * l1_bound,
        "move_linf": m_linf <= delta_b * (delta - 1),
        "residual_l0": _log2_at_most(r_l0, delta_b, extra=m),
        "residual_l1": delta_b * r_l1 <= delta_b * l1_bound + s_l1,
        "residual_linf": delta_b * r_linf <= delta_b * (delta - 1) + s_linf,
        "face_dimension": _log2_at_most(y_l0, delta_b),
    }
    report = {
        "base": idx,
        "delta": delta,
        "delta_base": delta_b,
        "group_value": group_value,
        "corner_slack": tuple(y),
        "slack_l0": y_l0,
        "slack_l1": y_l1,
        "slack_linf": y_linf,
        "local": all(s >= delta_b * (delta - 1) for s in slack_n),
        "checks": checks,
    }
    value = sum(ci * zi for ci, zi in zip(instance.c, z))
    return SolveOutcome(status="optimal", x=z, value=value, certificate=report)


def _simplex_kernel(a: IntMat) -> list[int]:
    """Signed cofactor kernel of the (n+1) x n matrix: lam'A = 0 with
    lam_i = (-1)^i det(A without row i)."""
    n = a.cols
    lam = []
    for i in range(n + 1):
        sub = a.take_rows([j for j in range(n + 1) if j != i])
        lam.append((-1) ** i * det(sub))
    return lam


def simplex_feasibility(a: IntMat, b: Sequence[int]) -> SolveOutcome:
    """Decide whether the simplex {x : A x <= b} contains an integer point.

    A must be (n+1) x n of rank n and the polyhedron must be a simplex
    (bounded with every base nonsingular); otherwise ValueError.  The
    remaining row is minimized over the corner at the base of minimal
    absolute determinant.  On the feasible verdict the outcome carries the
    corner witness, its value of the remaining row, and a sparsity report.
    """
    n = a.cols
    if a.rows != n + 1:
        raise ValueError("a simplex in dimension n needs exactly n + 1 rows")
    if len(b) != n + 1:
        raise ValueError("right-hand side length mismatch")
    if rank(a) != n:
        raise ValueError("matrix must have full column rank")
    lam = _simplex_kernel(a)
    if any(v == 0 for v in lam):
        raise ValueError("not a simplex: some base is singular")
    if not (all(v > 0 for v in lam) or all(v < 0 for v in lam)):
        raise ValueError("not a simplex: the polyhedron is unbounded")
    lam = [abs(v) for v in lam]
    delta = max(lam)
    i_star = min(range(n + 1), key=lambda i: (lam[i], i))
    base_rows = [i for i in range(n + 1) if i != i_star]
    a_b = a.take_rows(base_rows)
    b_b = [b[i] for i in base_rows]
    arow = a.entries[i_star]

    # min a'x over the corner == -max (-a)'x; -a is interior to cone(A_B^T)
    res = _corner_max(a_b, b_b, [-ai for ai in arow])
    if res is None:
        raise CertificateError("the remaining row lies outside the base cone")
    z, y, v, delta_b, _gval = res
    if delta_b != lam[i_star]:
        raise CertificateError("the base determinant differs from its kernel entry")
    min_val = sum(ai * zi for ai, zi in zip(arow, z))

    az = a.matvec(list(z))
    resid = [b[i] - az[i] for i in range(n + 1)]
    # the move A (v / delta_b - z), scaled by delta_b like its bounds
    move = [avi - delta_b * azi for avi, azi in zip(a.matvec(v), az)]
    m_l0, m_l1, m_linf = _norms(move)
    r_l0, _r_l1, _r_linf = _norms(resid)
    report = {
        "base": tuple(base_rows),
        "remaining_row": i_star,
        "delta": delta,
        "delta_base": delta_b,
        "corner_minimum": min_val,
        "threshold": b[i_star],
        "checks": {
            "move_l0": _log2_at_most(m_l0, delta_b, extra=1),
            "move_l1": m_l1 <= delta_b * (delta_b + delta - 2),
            "move_linf": m_linf <= delta_b * (delta - 1),
            "residual_l0": _log2_at_most(r_l0, delta_b, extra=1),
        },
    }
    if min_val > b[i_star]:
        return SolveOutcome(status="infeasible", certificate=report)
    if any(q < 0 for q in resid) or not _log2_at_most(r_l0, delta_b, extra=1):
        raise CertificateError("the corner witness violates the simplex or its sparsity bound")
    return SolveOutcome(status="optimal", x=z, value=min_val, certificate=report)


def subset_sum_unbounded(w: Sequence[int], target: int) -> SolveOutcome:
    """Feasibility of  w'x = target,  x >= 0 integer, all weights positive.

    Reduced modulo the minimal weight to a cyclic group minimization of
    the remaining weighted sum; feasible iff the group minimum is at most
    the target.  The witness inherits the group-vertex sparsity, reported
    in the certificate.
    """
    n = len(w)
    if n == 0 or any(wi <= 0 for wi in w):
        raise ValueError("weights must be positive")
    if target < 0:
        raise ValueError("target must be nonnegative")
    if target == 0:
        return SolveOutcome(
            status="optimal", x=(0,) * n, value=0, certificate={"modulus": None}
        )
    j = min(range(n), key=lambda i: (w[i], i))
    r = w[j]
    others = [i for i in range(n) if i != j]
    w_max = max(w)
    if not others:
        if target % r != 0:
            return SolveOutcome(status="infeasible", certificate={"modulus": r})
        x = [0] * n
        x[j] = target // r
        return SolveOutcome(
            status="optimal", x=tuple(x), value=target, certificate={"modulus": r}
        )
    inst = GroupInstance(
        group=GroupSpec((r,)),
        generators=tuple((w[i] % r,) for i in others),
        target=(target % r,),
        costs=tuple(w[i] for i in others),
        bounds=(POS_INF,) * len(others),
    )
    out = cyclic_minplus_solve(inst)
    if out.status != "optimal" or out.value > target:
        return SolveOutcome(
            status="infeasible",
            certificate={
                "modulus": r,
                "group_minimum": out.value if out.status == "optimal" else None,
            },
        )
    x = [0] * n
    for i, t in zip(others, out.x):
        x[i] = t
    x[j] = (target - out.value) // r
    l0, l1, linf = _norms(x)
    report = {
        "modulus": r,
        "group_minimum": out.value,
        "witness_l0": l0,
        "witness_l1": l1,
        "witness_linf": linf,
        "bound_l0": 1 + math.log2(r),
        "bound_l1": r + w_max - 2,
        "bound_linf": w_max - 1,
    }
    if sum(wi * xi for wi, xi in zip(w, x)) != target:
        raise CertificateError("subset-sum witness misses the target")
    return SolveOutcome(
        status="optimal", x=tuple(x), value=target, certificate=report
    )


def _knapsack_capacity_dp(
    w: Sequence[int], c: Sequence[int], cap: int
) -> SolveOutcome:
    """Classic O(n * cap) unbounded knapsack over capacities 0..cap."""
    n = len(w)
    best = [0] * (cap + 1)
    choice = [-1] * (cap + 1)
    for q in range(1, cap + 1):
        best[q] = best[q - 1]
        for i in range(n):
            if w[i] <= q and best[q - w[i]] + c[i] > best[q]:
                best[q] = best[q - w[i]] + c[i]
                choice[q] = i
    x = [0] * n
    q = cap
    while q > 0:
        i = choice[q]
        if i < 0:
            q -= 1
        else:
            x[i] += 1
            q -= w[i]
    if sum(ci * xi for ci, xi in zip(c, x)) != best[cap]:
        raise CertificateError("capacity DP witness differs from its value")
    return SolveOutcome(
        status="optimal",
        x=tuple(x),
        value=best[cap],
        certificate={"path": "capacity-dp"},
    )


def knapsack_unbounded(
    w: Sequence[int], c: Sequence[int], cap: int, method: str = "auto"
) -> SolveOutcome:
    """Exact  max c'x  s.t.  w'x <= cap,  x >= 0 integer, w, c positive.

    When the capacity is at least the square of the weight of the best
    cost-per-weight item, the problem is reduced modulo that weight (with
    a unit slack generator for the unused capacity) to a cyclic group
    minimization; otherwise a classic O(n * cap) capacity DP runs.  Pass
    method="group" or method="capacity" to force one path.
    """
    n = len(w)
    if n == 0 or len(c) != n:
        raise ValueError("weights and costs must have equal positive length")
    if any(wi <= 0 for wi in w) or any(ci <= 0 for ci in c):
        raise ValueError("weights and costs must be positive")
    if cap < 0:
        raise ValueError("capacity must be nonnegative")
    if method not in ("auto", "group", "capacity"):
        raise ValueError("unknown method")
    usable = [i for i in range(n) if w[i] <= cap]
    if not usable:
        return SolveOutcome(
            status="optimal", x=(0,) * n, value=0, certificate={"path": "trivial"}
        )
    j = max(range(n), key=lambda i: (Fraction(c[i], w[i]), -i))
    r = w[j]
    group_ok = cap >= r * r
    if method == "group" and not group_ok:
        raise ValueError("group path requires capacity >= w_opt^2")
    use_group = group_ok if method == "auto" else (method == "group")
    if not use_group:
        out = _knapsack_capacity_dp(
            [w[i] for i in usable], [c[i] for i in usable], cap
        )
        x = [0] * n
        for i, t in zip(usable, out.x):
            x[i] = t
        cert = dict(out.certificate)
        cert["w_opt"] = r
        return SolveOutcome(
            status="optimal", x=tuple(x), value=out.value, certificate=cert
        )
    # group path: substitute the best-ratio item out; a unit generator with
    # the item's cost accounts for unused capacity
    others = [i for i in usable if i != j]
    gens = [(w[i] % r,) for i in others] + [(1 % r,)]
    costs = [c[j] * w[i] - r * c[i] for i in others] + [c[j]]
    if any(q < 0 for q in costs):
        raise CertificateError("the substituted item does not have the best ratio")
    inst = GroupInstance(
        group=GroupSpec((r,)),
        generators=tuple(gens),
        target=(cap % r,),
        costs=tuple(costs),
        bounds=(POS_INF,) * len(gens),
    )
    out = cyclic_minplus_solve(inst)
    # the unit generator spans the group, so an optimum exists
    if out.status != "optimal":
        raise CertificateError("the knapsack group problem reported no optimum")
    slack = out.x[-1]
    used = sum(w[i] * t for i, t in zip(others, out.x))
    top, rem = divmod(cap - slack - used, r)
    if rem:
        raise CertificateError("the group witness misses the capacity residue")
    if top < 0:
        # the group relaxation pulled the substituted item negative; the
        # capacity DP stays exact
        fallback = knapsack_unbounded(w, c, cap, method="capacity")
        cert = dict(fallback.certificate)
        cert["path"] = "capacity-dp-fallback"
        return SolveOutcome(
            status="optimal",
            x=fallback.x,
            value=fallback.value,
            certificate=cert,
        )
    x = [0] * n
    for i, t in zip(others, out.x):
        x[i] = t
    x[j] = top
    value = sum(ci * xi for ci, xi in zip(c, x))
    if r * value != c[j] * (cap - slack) - (out.value - c[j] * slack):
        raise CertificateError("knapsack value differs from the group value")
    return SolveOutcome(
        status="optimal",
        x=tuple(x),
        value=value,
        certificate={"path": "group", "w_opt": r, "group_value": out.value},
    )


def locality_sampler(
    a: IntMat, t_grid: Sequence[int], samples: int, seed: int
) -> list[dict]:
    """Empirical locality frequency over uniform right-hand sides.

    For each radius t, draws ``samples`` vectors b uniformly from
    [-t, t]^{rows}, decides feasibility of {x : A x <= b} exactly (a full
    column rank system is feasible iff some base vertex is feasible), and
    counts the feasible draws whose every feasible base passes
    :func:`locality_test`.  Deterministic for a fixed seed.
    """
    n = a.cols
    if rank(a) != n:
        raise ValueError("matrix must have full column rank")
    delta = minor_stats(a).delta
    # Per nonsingular base B: A adj and den, with A A_B^{-1} = A adj / den and
    # den = |det A_B|, and the non-base row indices.
    bases = []
    for cmb in combinations(range(a.rows), n):
        try:
            adj, den = _inverse(a.take_rows(list(cmb)))
        except RankError:
            continue
        outside = [i for i in range(a.rows) if i not in cmb]
        bases.append((cmb, a.mul(adj).entries, den, outside))
    rows = []
    for t in t_grid:
        rnd = stream(seed, f"locality-sampler:t={t}")
        feasible = local = 0
        for _ in range(samples):
            b = [rnd.randint(-t, t) for _ in range(a.rows)]
            any_feasible = False
            all_local = True
            for cmb, a_adj, den, outside in bases:
                b_b = [b[j] for j in cmb]
                # den * A v at the base vertex v = A_B^{-1} b_B
                av = [sum(q * bj for q, bj in zip(row, b_b)) for row in a_adj]
                if any(av[i] > den * b[i] for i in range(a.rows)):
                    continue  # base vertex infeasible
                any_feasible = True
                if any(den * b[i] - av[i] < den * (delta - 1) for i in outside):
                    all_local = False
                    break
            if not any_feasible:
                continue
            feasible += 1
            if all_local:
                local += 1
        rows.append(
            {
                "t": t,
                "samples": samples,
                "feasible": feasible,
                "local": local,
                "fraction": Fraction(local, feasible) if feasible else None,
            }
        )
    return rows


def locality_table(rows: Sequence[dict]) -> str:
    """Plain-text table (t, feasible, local, fraction) for sampler rows."""
    out = [f"{'t':>10} {'feasible':>10} {'local':>10} {'fraction':>12}"]
    for r in rows:
        frac = "-" if r["fraction"] is None else f"{float(r['fraction']):.4f}"
        out.append(
            f"{r['t']:>10} {r['feasible']:>10} {r['local']:>10} {frac:>12}"
        )
    return "\n".join(out)
