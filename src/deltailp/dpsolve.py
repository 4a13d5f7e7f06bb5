"""Dynamic-programming solvers for generalized standard form instances.

- :func:`solve_bilp_sf` — bounded instances.  After recentering at an
  optimal LP vertex, a layered shortest-path DP over states
  (layer, residual right side, group residue) finds the exact optimum.
  Two equivalent variants: "queue" processes each layer along the
  path/cycle decomposition of the layer graph with sliding-window minima
  (:func:`sliding_min_path` / :func:`sliding_min_cycle`); "binarized"
  explores states lazily and compresses each per-variable window into
  O(log) 0/1 arcs via :func:`binary_decomposition`.
- :func:`solve_ilp_sf_unbounded` — unbounded instances with c >= 0.  A
  doubling DP over discrepancy-sized state windows combines two half
  solutions per level; level i covers solutions with l1 norm up to
  (6/5)^i.
- :func:`detect_unbounded` — decides unboundedness of an instance with
  arbitrary costs by solving the homogeneous problem restricted to the
  recession-cone norm budget (m+1) * |det S| * Delta with an extra
  l1-budget row, and returns a ray certificate when a negative-objective
  homogeneous solution exists.  :func:`solve_ilp_sf_unbounded` does not
  call it: it requires c >= 0, and with x >= 0 that bounds the objective
  below by 0, so no such ray exists there.

DP values are (cost, l1) pairs compared lexicographically in the queue
variant, so witnesses are deterministic; the binarized variant tracks
costs only (both variants return equal objective values).
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .intlinalg import (
    IntMat,
    enumerate_parallelepiped,
    inverse_times,
    max_det_submatrix,
    minor_stats,
)
from .lp import solve_lp
from .model import (
    GroupInstance,
    GroupSpec,
    POS_INF,
    SolveOutcome,
    StandardInstance,
    is_feasible,
    is_finite,
    objective_value,
)

INF = None  # unreachable DP value
_DENSE_BIG = 1 << 60  # unreachable entry of the int64 doubling tables
_PAD_CELLS = 1 << 16  # block budget of the dense doubling step, in entries


@dataclass(frozen=True)
class DpState:
    """One vertex of the layered shortest-path graph."""

    layer: int
    residual: tuple[int, ...]
    residue: tuple[int, ...]
    budget: int | None = None


@dataclass(frozen=True)
class MuParams:
    """Discrepancy-window parameters of the unbounded doubling DP."""

    base: tuple[int, ...]
    base_det: int
    kappa: Fraction
    eta_m_sq: int  # eta_m = 12 * sqrt(m), stored squared to stay exact
    mu: int

    @property
    def radius(self) -> int:
        return 4 * self.mu


def _min2(a, b):
    """None-aware minimum (None acts as +infinity)."""
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


def _combine(v, cost_shift, l1_shift):
    """Shift a DP value: tuples componentwise, plain numbers by cost only."""
    if v is None:
        return None
    if isinstance(v, tuple):
        return (v[0] + cost_shift, v[1] + l1_shift)
    return v + cost_shift


class SlidingWindowQueue:
    """FIFO queue with amortized O(1) minimum via the two-stack trick."""

    def __init__(self) -> None:
        self._in: list = []  # (value, running min)
        self._out: list = []

    def __len__(self) -> int:
        return len(self._in) + len(self._out)

    def enqueue(self, v) -> None:
        best = v if not self._in else _min2(v, self._in[-1][1])
        self._in.append((v, best))

    def dequeue(self):
        if not self._out:
            while self._in:
                v, _ = self._in.pop()
                best = v if not self._out else _min2(v, self._out[-1][1])
                self._out.append((v, best))
        return self._out.pop()[0]

    def get_extremum(self):
        best = None
        if self._in:
            best = _min2(best, self._in[-1][1])
        if self._out:
            best = _min2(best, self._out[-1][1])
        return best


def sliding_min_cycle(values: list, cost, capacity: int) -> list:
    """out[i] = min over t in [0, capacity] of values[(i - t) mod l] + cost*t.

    values entries are numbers, (cost, l1) pairs, or None (+infinity); the
    l1 component of pair values grows by t.  Linear time via a min-queue;
    t is clamped to the cycle length - 1, which is exact for cost >= 0.
    """
    if cost < 0:
        raise ValueError("cycle relaxation requires a nonnegative cost")
    if capacity < 0:
        raise ValueError("capacity must be nonnegative")
    l = len(values)
    w = min(capacity, l - 1)
    q = SlidingWindowQueue()
    heads: deque[int] = deque()

    def key(j):
        return _combine(values[j % l], -cost * j, -j)

    for j in range(-w, 0):
        q.enqueue(key(j))
        heads.append(j)
    out: list = [None] * l
    for i in range(l):
        q.enqueue(key(i))
        heads.append(i)
        while heads[0] < i - w:
            q.dequeue()
            heads.popleft()
        out[i] = _combine(q.get_extremum(), cost * i, i)
    return out


def sliding_min_path(values: list, cost, lower: int, upper: int) -> list:
    """out[i] = min over t in [lower, upper], i - l < t <= i, of
    values[i - t] + cost*t; value conventions as in sliding_min_cycle
    (pair values gain |t| on the l1 component)."""
    if lower > upper:
        raise ValueError("empty variable window")
    l = len(values)
    out: list = [None] * l

    # t >= 0: indices j = i - t scanned forward
    lb1 = max(lower, 0)
    if upper >= lb1:
        q = SlidingWindowQueue()
        heads: deque[int] = deque()
        nxt = 0
        for i in range(l):
            while nxt <= min(i - lb1, l - 1):
                q.enqueue(_combine(values[nxt], -cost * nxt, -nxt))
                heads.append(nxt)
                nxt += 1
            while heads and heads[0] < i - upper:
                q.dequeue()
                heads.popleft()
            out[i] = _combine(q.get_extremum(), cost * i, i)

    # t < 0: indices j = i - t > i scanned forward
    if lower < 0:
        gap = max(1, -upper)  # j >= i + gap enforces t <= min(upper, -1)
        q = SlidingWindowQueue()
        heads = deque()
        nxt = gap
        for i in range(l):
            while nxt <= min(i - lower, l - 1):
                q.enqueue(_combine(values[nxt], -cost * nxt, nxt))
                heads.append(nxt)
                nxt += 1
            while heads and heads[0] < i + gap:
                q.dequeue()
                heads.popleft()
            cand = _combine(q.get_extremum(), cost * i, -i)
            out[i] = _min2(out[i], cand)
    return out


def binary_decomposition(alpha: int, beta: int) -> list[int]:
    """Nonnegative weights s(i) such that alpha + subset sums of s(i) cover
    every integer of [alpha, beta] and nothing outside it.

    The list has O(log(beta - alpha + 2)) entries: powers of two plus one
    remainder weight.  Representations are unique exactly when
    beta - alpha + 1 is a power of two (a counting argument shows that no
    0/1 scheme whose combinations all stay inside the range can be unique
    otherwise).
    """
    if alpha > beta:
        raise ValueError("empty range")
    r = beta - alpha
    if r == 0:
        return []
    k = (r + 1).bit_length() - 1
    weights = [1 << i for i in range(k)]
    rest = r + 1 - (1 << k)
    if rest > 0:
        weights.append(rest)
    return weights


def _residue_list(instance: StandardInstance) -> list[tuple[int, ...]]:
    if instance.S is None:
        return [()]
    diag = [instance.S.entries[i][i] for i in range(instance.S.rows)]
    return list(itertools.product(*(range(d) for d in diag)))


def _sdiag(instance: StandardInstance) -> list[int]:
    if instance.S is None:
        return []
    return [instance.S.entries[i][i] for i in range(instance.S.rows)]


def _res_add(a, b, diag):
    return tuple((x + y) % d for x, y, d in zip(a, b, diag))


def _res_sub(a, b, diag):
    return tuple((x - y) % d for x, y, d in zip(a, b, diag))


def _res_scale(k, a, diag):
    return tuple((k * x) % d for x, d in zip(a, diag))


def _column_steps(instance: StandardInstance, k: int):
    """(A-column, reduced G-column) of variable k."""
    a = tuple(instance.A.col(k)) if instance.A is not None else ()
    diag = _sdiag(instance)
    g = (
        tuple(v % d for v, d in zip(instance.G.col(k), diag))
        if instance.G is not None
        else ()
    )
    return a, g


def _default_chi(instance: StandardInstance) -> int:
    from .bounds import chi_bound

    delta = minor_stats(instance.A).delta if instance.A is not None else 1
    val = chi_bound(
        instance.m, "delta", delta=delta, det_s=abs(instance.det_s)
    )
    return max(1, val)


def _recenter(instance: StandardInstance, chi: int):
    """LP-vertex recentering shared by both bounded variants.

    Returns None when the LP relaxation is already infeasible, otherwise
    (shift, windows, H, b_target, g_target) where windows[k] = (alpha_k,
    beta_k) is the recentered variable range clipped to [-H, H].  Columns
    that do not touch the equality rows keep shift 0; the state radius H
    is enlarged by |det S| - 1 per such column because their optimal
    values can always be reduced below the order of the group element.
    """
    n, m = instance.n, instance.m
    lp = solve_lp(instance)
    if lp.status == "infeasible":
        return None
    assert lp.status == "optimal"
    diag = _sdiag(instance)
    zero_cols = []
    shift = []
    for k in range(n):
        a_col, _ = _column_steps(instance, k)
        if all(v == 0 for v in a_col):
            zero_cols.append(k)
            if instance.c[k] < 0:
                raise ValueError(
                    "columns outside the equality rows need nonnegative cost"
                )
            shift.append(0)
        else:
            v = math.floor(lp.vertex[k])
            shift.append(max(0, min(v, instance.u[k])))
    h = chi + m + len(zero_cols) * (abs(instance.det_s) - 1)
    windows = []
    for k in range(n):
        alpha = max(-shift[k], -h)
        beta = min(instance.u[k] - shift[k], h)
        windows.append((alpha, beta))
    b_target = (
        tuple(
            bi - vi
            for bi, vi in zip(instance.b, instance.A.matvec(shift))
        )
        if instance.A is not None
        else ()
    )
    g_target = (
        tuple(
            (gi - vi) % d
            for gi, vi, d in zip(instance.g, instance.G.matvec(shift), diag)
        )
        if instance.G is not None
        else ()
    )
    return shift, windows, h, b_target, g_target


def _column_base(A: IntMat) -> tuple[tuple[int, ...], int]:
    """Maximum-determinant m x m column submatrix (indices, |det|)."""
    cols, absdet = max_det_submatrix(A.transpose(), mode="exact")
    return cols, absdet


def _state_points(instance: StandardInstance, radius: int) -> list[tuple[int, ...]]:
    """Superset of {A x : ||x||_1 <= radius} via the max-det column base."""
    if instance.A is None:
        return [()]
    m = instance.m
    cols, _ = _column_base(instance.A)
    b_mat = instance.A.submatrix(list(range(m)), list(cols))
    return enumerate_parallelepiped(b_mat, [0] * m, radius)


def _queue_dp(instance, windows, b_target, g_target, radius):
    """Eager layered DP; returns (layers, value) with per-layer value dicts."""
    n = instance.n
    diag = _sdiag(instance)
    m_list = _state_points(instance, radius)
    m_set = set(m_list)
    if b_target not in m_set:
        return None, None
    residues = _residue_list(instance)
    res_orbits_cache: dict[tuple[int, ...], list[list[tuple[int, ...]]]] = {}

    layers: list[dict] = [{((0,) * instance.m, (0,) * len(diag)): (0, 0)}]
    for k in range(n):
        a_col, g_col = _column_steps(instance, k)
        prev = layers[-1]
        cur: dict = {}
        alpha, beta = windows[k]
        if all(v == 0 for v in a_col):
            # layer graph is a union of residue cycles; window is [0, beta]
            if g_col not in res_orbits_cache:
                seen = set()
                orbits = []
                for r in residues:
                    if r in seen:
                        continue
                    orbit = []
                    cur_r = r
                    while cur_r not in seen:
                        seen.add(cur_r)
                        orbit.append(cur_r)
                        cur_r = _res_add(cur_r, g_col, diag)
                    orbits.append(orbit)
                res_orbits_cache[g_col] = orbits
            bs = sorted({b for b, _ in prev})
            for b in bs:
                for orbit in res_orbits_cache[g_col]:
                    vals = [prev.get((b, r)) for r in orbit]
                    outs = sliding_min_cycle(vals, instance.c[k], beta)
                    for r, v in zip(orbit, outs):
                        if v is not None:
                            cur[(b, r)] = v
        else:
            # layer graph decomposes into paths along the column step
            visited = set()
            for b0 in m_list:
                for r0 in residues:
                    s = (b0, r0)
                    if s in visited:
                        continue
                    pred = (
                        tuple(x - y for x, y in zip(b0, a_col)),
                        _res_sub(r0, g_col, diag),
                    )
                    if pred[0] in m_set:
                        continue  # not a chain start
                    chain = []
                    while s[0] in m_set:
                        visited.add(s)
                        chain.append(s)
                        s = (
                            tuple(x + y for x, y in zip(s[0], a_col)),
                            _res_add(s[1], g_col, diag),
                        )
                    vals = [prev.get(t) for t in chain]
                    outs = sliding_min_path(vals, instance.c[k], alpha, beta)
                    for t, v in zip(chain, outs):
                        if v is not None:
                            cur[t] = v
        layers.append(cur)
    return layers, layers[-1].get((b_target, g_target))


def _queue_witness(instance, layers, windows, b_target, g_target):
    diag = _sdiag(instance)
    y = [0] * instance.n
    state = (b_target, g_target)
    val = layers[-1][state]
    for k in range(instance.n - 1, -1, -1):
        a_col, g_col = _column_steps(instance, k)
        alpha, beta = windows[k]
        if all(v == 0 for v in a_col):
            alpha = 0
        prev = layers[k]
        found = False
        for t in range(alpha, beta + 1):
            pred = (
                tuple(x - t * y2 for x, y2 in zip(state[0], a_col)),
                _res_sub(state[1], _res_scale(t, g_col, diag), diag),
            )
            pv = prev.get(pred)
            if pv is not None and (
                pv[0] + instance.c[k] * t,
                pv[1] + abs(t),
            ) == val:
                y[k] = t
                state, val = pred, pv
                found = True
                break
        assert found, "witness reconstruction failed"
    assert val == (0, 0)
    return y


def _binarized_dp(instance, windows, b_target, g_target, radius):
    """Lazy memoized DP; per-layer windows compressed to 0/1 arcs."""
    n, m = instance.n, instance.m
    diag = _sdiag(instance)
    steps = [_column_steps(instance, k) for k in range(n)]
    if instance.A is not None:
        cols, _ = _column_base(instance.A)
        b_mat = instance.A.submatrix(list(range(m)), list(cols))

        def in_window(b):
            return all(
                abs(f) <= radius for f in inverse_times(b_mat, list(b))
            )

    else:

        def in_window(b):
            return True

    weightings = []
    for k in range(n):
        alpha, beta = windows[k]
        weightings.append((alpha, binary_decomposition(alpha, beta)))

    memo: dict = {}
    bit_memo: dict = {}

    def rec(k, b, g):
        if not in_window(b):
            return None
        key = (k, b, g)
        if key in memo:
            return memo[key]
        if k == 0:
            out = 0 if (all(v == 0 for v in b) and all(v == 0 for v in g)) else None
            memo[key] = out
            return out
        alpha, weights = weightings[k - 1]
        out = bits(k, len(weights), b, g)
        memo[key] = out
        return out

    def bits(k, i, b, g):
        key = (k, i, b, g)
        if key in bit_memo:
            return bit_memo[key]
        a_col, g_col = steps[k - 1]
        cost = instance.c[k - 1]
        alpha, weights = weightings[k - 1]
        if i == 0:
            pred_b = tuple(x - alpha * y for x, y in zip(b, a_col))
            pred_g = _res_sub(g, _res_scale(alpha, g_col, diag), diag)
            sub = rec(k - 1, pred_b, pred_g)
            out = None if sub is None else sub + cost * alpha
        else:
            s = weights[i - 1]
            skip = bits(k, i - 1, b, g)
            take_b = tuple(x - s * y for x, y in zip(b, a_col))
            take_g = _res_sub(g, _res_scale(s, g_col, diag), diag)
            take = bits(k, i - 1, take_b, take_g)
            out = _min2(skip, None if take is None else take + cost * s)
        bit_memo[key] = out
        return out

    value = rec(n, b_target, g_target)
    if value is None:
        return None, None

    y = [0] * n
    state = (b_target, g_target)
    val = value
    for k in range(n - 1, -1, -1):
        a_col, g_col = steps[k]
        alpha, beta = windows[k]
        found = False
        for t in range(alpha, beta + 1):
            pred_b = tuple(x - t * v for x, v in zip(state[0], a_col))
            pred_g = _res_sub(state[1], _res_scale(t, g_col, diag), diag)
            sub = rec(k, pred_b, pred_g)
            if sub is not None and sub + instance.c[k] * t == val:
                y[k] = t
                state, val = (pred_b, pred_g), sub
                found = True
                break
        assert found, "witness reconstruction failed"
    assert val == 0
    return value, y


def solve_bilp_sf(
    instance: StandardInstance, chi: int | None = None, variant: str = "queue"
) -> SolveOutcome:
    """Exact optimum of a bounded generalized standard form instance.

    chi must dominate the true l1 proximity between optimal LP vertices
    and optimal integer solutions (default: the Delta-based closed-form
    bound); variant selects the eager path/cycle decomposition ("queue")
    or the lazy 0/1-compressed state graph ("binarized").
    """
    if variant not in ("queue", "binarized"):
        raise ValueError(f"unknown variant {variant!r}")
    if not all(is_finite(v) for v in instance.u):
        raise ValueError("bounded solver requires finite upper bounds")
    if chi is None:
        chi = _default_chi(instance)
    if chi <= 0:
        raise ValueError("proximity bound chi must be positive")
    pre = _recenter(instance, chi)
    if pre is None:
        return SolveOutcome.infeasible(certificate={"stage": "lp"})
    shift, windows, radius, b_target, g_target = pre

    if variant == "queue":
        layers, val = _queue_dp(instance, windows, b_target, g_target, radius)
        if val is None:
            return SolveOutcome.infeasible(
                certificate={"variant": variant, "radius": radius}
            )
        y = _queue_witness(instance, layers, windows, b_target, g_target)
    else:
        val_scalar, y = _binarized_dp(
            instance, windows, b_target, g_target, radius
        )
        if y is None:
            return SolveOutcome.infeasible(
                certificate={"variant": variant, "radius": radius}
            )
    x = [yi + si for yi, si in zip(y, shift)]
    assert is_feasible(instance, x), "DP produced an infeasible witness"
    value = objective_value(instance, x)
    return SolveOutcome.optimal(
        x,
        value,
        certificate={"variant": variant, "chi": chi, "radius": radius},
    )


def _as_group_instance(instance: StandardInstance) -> GroupInstance:
    diag = _sdiag(instance)
    return GroupInstance(
        group=GroupSpec(tuple(diag)),
        generators=tuple(
            tuple(v % d for v, d in zip(instance.G.col(j), diag))
            for j in range(instance.n)
        ),
        target=tuple(v % d for v, d in zip(instance.g, diag)),
        costs=instance.c,
        bounds=(POS_INF,) * instance.n,
    )


def mu_params(A: IntMat) -> MuParams:
    """Window parameters mu = ceil(eta_m * Delta_1(U)) with eta_m = 12*sqrt(m)
    and A = B (I U) for the exact maximum-determinant column base B."""
    m = A.rows
    cols, absdet = _column_base(A)
    b_mat = A.submatrix(list(range(m)), list(cols))
    delta1 = Fraction(0)
    for j in range(A.cols):
        for f in inverse_times(b_mat, list(A.col(j))):
            delta1 = max(delta1, abs(f))
    kappa = Fraction(minor_stats(A).delta, absdet)
    # smallest integer mu with mu^2 >= 144 * m * delta1^2
    target = 144 * m * delta1 * delta1
    mu = max(1, math.isqrt(math.ceil(target)))
    while Fraction(mu * mu) < target:
        mu += 1
    return MuParams(
        base=tuple(cols),
        base_det=absdet,
        kappa=kappa,
        eta_m_sq=144 * m,
        mu=mu,
    )


def detect_unbounded(
    instance: StandardInstance,
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide unboundedness of an unbounded-variable instance.

    Solves min c'x over A x = 0, G x = 0 (mod S), ||x||_1 <= (m+1) *
    |det S| * Delta(A), x >= 0 (the recession-cone budget) by adding an
    l1-budget row with a slack variable and running the bounded solver.
    Returns (True, ray) when the optimum is negative, else (False, None).
    """
    if any(is_finite(v) for v in instance.u):
        raise ValueError("detection requires the unbounded variant")
    n, m = instance.n, instance.m
    delta = minor_stats(instance.A).delta if instance.A is not None else 1
    budget = (m + 1) * abs(instance.det_s) * delta
    rows = instance.A.to_lists() if instance.A is not None else []
    a_ext = IntMat.from_rows(
        [r + [0] for r in rows] + [[1] * n + [1]]
    )
    g_ext = (
        IntMat.from_rows([list(instance.G.row(i)) + [0] for i in range(n - m)])
        if instance.G is not None
        else None
    )
    ext = StandardInstance(
        n=n + 1,
        m=m + 1,
        A=a_ext,
        G=g_ext,
        S=instance.S,
        b=(0,) * m + (budget,),
        g=tuple(0 for _ in range(n - m)),
        u=(budget,) * (n + 1),
        c=instance.c + (0,),
    )
    out = solve_bilp_sf(ext, chi=(n + 1) * budget + 1, variant="queue")
    assert out.status == "optimal"  # x = 0 with full slack is feasible
    if out.value >= 0:
        return False, None
    ray = out.x[:n]
    if instance.A is not None:
        assert all(v == 0 for v in instance.A.matvec(ray))
    if instance.G is not None:
        diag = _sdiag(instance)
        assert all(
            v % d == 0 for v, d in zip(instance.G.matvec(ray), diag)
        )
    assert sum(ray) <= budget
    return True, ray


def _doubling_rho(l1_bound: int) -> int:
    rho = 1
    while 6**rho < l1_bound * 5**rho:
        rho += 1
    return rho


def _level_points(b_mat, binv_b, i, rho, radius):
    center = [Fraction(2**i, 2**rho) * f for f in binv_b]
    return enumerate_parallelepiped(b_mat, center, radius)


def _unbounded_dp_generic(instance, b_target, g_target, rho, params):
    """Dict-based doubling DP for any m >= 1; returns (value, witness)."""
    n, m = instance.n, instance.m
    diag = _sdiag(instance)
    b_mat = instance.A.submatrix(list(range(m)), list(params.base))
    binv_b = inverse_times(b_mat, list(b_target))
    levels: list[dict] = []
    pts_sets = []
    for i in range(rho + 1):
        pts_sets.append(set(_level_points(b_mat, binv_b, i, rho, params.radius)))

    zero_b = (0,) * m
    zero_g = (0,) * len(diag)
    d0: dict = {}
    if zero_b in pts_sets[0]:
        d0[(zero_b, zero_g)] = (0, None)  # (value, column index)
    for j in range(n):
        a_col, g_col = _column_steps(instance, j)
        if a_col in pts_sets[0]:
            key = (a_col, g_col)
            if key not in d0 or instance.c[j] < d0[key][0]:
                d0[key] = (instance.c[j], j)
    levels.append(d0)

    for i in range(1, rho + 1):
        prev = levels[-1]
        cur: dict = {}
        items = sorted(prev.items())
        for (b1, g1), (v1, _) in items:
            for (b2, g2), (v2, _) in items:
                b = tuple(x + y for x, y in zip(b1, b2))
                if b not in pts_sets[i]:
                    continue
                g = _res_add(g1, g2, diag)
                v = v1 + v2
                key = (b, g)
                if key not in cur or v < cur[key][0]:
                    cur[key] = (v, None)
        levels.append(cur)

    top = levels[rho].get((b_target, g_target))
    if top is None:
        return None, None

    memo: dict = {}

    def rec(i, b, g):
        key = (i, b, g)
        if key in memo:
            return memo[key]
        val, col = levels[i][(b, g)]
        if i == 0:
            x = [0] * n
            if col is not None:
                x[col] = 1
            memo[key] = x
            return x
        for (b1, g1), (v1, _) in sorted(levels[i - 1].items()):
            b2 = tuple(x - y for x, y in zip(b, b1))
            g2 = _res_sub(g, g1, diag)
            rest = levels[i - 1].get((b2, g2))
            if rest is not None and v1 + rest[0] == val:
                x1 = rec(i - 1, b1, g1)
                x2 = rec(i - 1, b2, g2)
                x = [a + b_ for a, b_ in zip(x1, x2)]
                memo[key] = x
                return x
        raise AssertionError("doubling table admits no consistent split")

    return top[0], rec(rho, b_target, g_target)


def _unbounded_dp_dense(instance, b_target, g_target, rho, params):
    """numpy-accelerated doubling DP for m = 1 (contiguous state windows)."""
    import numpy as np

    n = instance.n
    diag = _sdiag(instance)
    residues = _residue_list(instance)
    r_count = len(residues)
    r_index = {r: i for i, r in enumerate(residues)}
    radd = [
        [r_index[_res_add(a, b, diag)] for b in residues] for a in residues
    ]
    rsub = [
        [r_index[_res_sub(a, b, diag)] for b in residues] for a in residues
    ]
    b_mat = instance.A.submatrix([0], list(params.base))
    binv_b = inverse_times(b_mat, list(b_target))

    big = _DENSE_BIG
    lo: list[int] = []
    arrays: list = []
    for i in range(rho + 1):
        pts = _level_points(b_mat, binv_b, i, rho, params.radius)
        assert pts[-1][0] - pts[0][0] == len(pts) - 1, "window not contiguous"
        lo.append(pts[0][0])
        arrays.append(np.full((len(pts), r_count), big, dtype=np.int64))

    zero_g = (0,) * len(diag)
    a0 = arrays[0]
    if lo[0] <= 0 <= lo[0] + a0.shape[0] - 1:
        a0[-lo[0], r_index[zero_g]] = 0
    col_of: dict = {}
    for j in range(n):
        a_col, g_col = _column_steps(instance, j)
        y = a_col[0]
        if lo[0] <= y <= lo[0] + a0.shape[0] - 1:
            ri = r_index[g_col]
            if instance.c[j] < a0[y - lo[0], ri]:
                a0[y - lo[0], ri] = instance.c[j]
                col_of[(y, ri)] = j

    for i in range(1, rho + 1):
        prev, cur = arrays[i - 1], arrays[i]
        p_len, c_len = prev.shape[0], cur.shape[0]
        # sum index s maps to y = 2 * lo[i - 1] + s in the cur window
        s0 = max(0, lo[i] - 2 * lo[i - 1])
        s1 = min(2 * p_len - 1, lo[i] + c_len - 2 * lo[i - 1])
        if s0 >= s1:
            continue
        # min-plus over blocks of k rows i2: the skew view puts
        # prev[j + t, r2] + prev[i3, r3] at pad[t, t + i3], so column q of
        # pad holds the anti-diagonal i2 + i3 = j + q of the block; entries
        # off that band stay big.  The pad holds at most 2 * _PAD_CELLS
        # entries, or p_len + 1 when one row exceeds the budget.
        # Only columns q0:q1 map into the cur window, and they read band
        # entries with i3 in t0:t1 alone, so only those are written.  The
        # pairs (r2, r3) and (r3, r2) give the same minima, so r2 <= r3.
        k = max(1, min(p_len, _PAD_CELLS // p_len))
        pad = np.full((k, p_len + k), big, dtype=np.int64)
        step = pad.strides[1]
        prev_t = np.ascontiguousarray(prev.T)
        for j in range(0, p_len, k):
            kk = min(k, p_len - j)
            q0, q1 = max(0, s0 - j), min(p_len + kk - 1, s1 - j)
            if q0 >= q1:
                continue
            t0, t1 = max(0, q0 - kk + 1), min(p_len, q1)
            skew = np.lib.stride_tricks.as_strided(
                pad, shape=(kk, p_len), strides=(pad.strides[0] + step, step)
            )[:, t0:t1]
            base = 2 * lo[i - 1] + j - lo[i]
            rows = slice(base + q0, base + q1)
            for r2 in range(r_count):
                left = prev_t[r2, j : j + kk, None]
                for r3 in range(r2, r_count):
                    np.add(left, prev_t[r3, t0:t1], out=skew)
                    col = cur[rows, radd[r2][r3]]
                    np.minimum(col, pad[:kk, q0:q1].min(axis=0), out=col)

    y_t = b_target[0]
    if not (lo[rho] <= y_t <= lo[rho] + arrays[rho].shape[0] - 1):
        return None, None
    top = int(arrays[rho][y_t - lo[rho], r_index[g_target]])
    if top >= big:
        return None, None

    memo: dict = {}

    def split(i, y, ri, v):
        # first (y2, r2) in (y2, r2) scan order with
        # prev[y2, r2] + prev[y - y2, ri - r2] == v; values are >= 0 and
        # v < big, so a sum that hits v never involves an unreachable entry.
        # Its temporaries die here, not on the stack of the recursion.
        prev, p_lo = arrays[i - 1], lo[i - 1]
        off = y - 2 * p_lo  # index of y2 plus index of y - y2
        a = max(0, off - prev.shape[0] + 1)
        b = min(prev.shape[0] - 1, off)
        if a > b:
            return None
        right = prev[off - b : off - a + 1][::-1][:, rsub[ri]]
        hits = (prev[a : b + 1] + right == v).ravel()
        first = int(hits.argmax())
        if not hits[first]:
            return None
        i2, r2 = divmod(first, r_count)
        return p_lo + a + i2, r2

    def rec(i, y, ri):
        key = (i, y, ri)
        if key in memo:
            return memo[key]
        v = int(arrays[i][y - lo[i], ri])
        if i == 0:
            x = [0] * n
            if (y, ri) in col_of:
                x[col_of[(y, ri)]] = 1
            else:
                assert y == 0 and ri == r_index[zero_g] and v == 0
            memo[key] = x
            return x
        found = split(i, y, ri, v)
        if found is None:
            raise AssertionError("doubling table admits no consistent split")
        y2, r2 = found
        x1 = rec(i - 1, y2, r2)
        x2 = rec(i - 1, y - y2, rsub[ri][r2])
        x = [s + t for s, t in zip(x1, x2)]
        memo[key] = x
        return x

    return top, rec(rho, y_t, r_index[g_target])


def solve_ilp_sf_unbounded(
    instance: StandardInstance,
    rho: int | None = None,
    dense: bool | None = None,
) -> SolveOutcome:
    """Exact optimum of an unbounded generalized standard form instance.

    Requires all upper bounds +inf and nonnegative costs.  With c >= 0
    and x >= 0 the objective is bounded below by 0, so the instance is
    never unbounded and no recession-cone test is run.  rho overrides the
    doubling depth (the default is derived from the proximity-based
    recentering); dense forces or forbids the numpy-dense m = 1 code path,
    which by default runs only when max(c) * 2^rho < 2^60, so that its
    int64 tables cannot overflow; otherwise the Python-int generic path runs.
    """
    if any(is_finite(v) for v in instance.u):
        raise ValueError("unbounded solver requires all upper bounds +inf")
    if any(ci < 0 for ci in instance.c):
        raise ValueError("unbounded solver requires nonnegative costs")
    n, m = instance.n, instance.m

    if m == 0:
        from .groupmin import gomory_solve

        out = gomory_solve(_as_group_instance(instance))
        return out

    lp = solve_lp(instance)
    if lp.status == "infeasible":
        return SolveOutcome.infeasible(certificate={"stage": "lp"})
    assert lp.status == "optimal"  # c >= 0 bounds the relaxation below

    delta = minor_stats(instance.A).delta
    chi = (m + 1) * (n - m + 1 + m) * delta * abs(instance.det_s)
    shift = []
    for k in range(n):
        ceil_k = math.ceil(lp.vertex[k])
        shift.append(max(0, ceil_k - chi))
    nonzero = sum(1 for v in lp.vertex if v != 0)
    l1_bound = chi * (1 + nonzero) + nonzero + 1
    if rho is None:
        rho = _doubling_rho(max(l1_bound, 2))

    diag = _sdiag(instance)
    b_target = tuple(
        bi - vi for bi, vi in zip(instance.b, instance.A.matvec(shift))
    )
    g_target = (
        tuple(
            (gi - vi) % d
            for gi, vi, d in zip(instance.g, instance.G.matvec(shift), diag)
        )
        if instance.G is not None
        else ()
    )
    params = mu_params(instance.A)
    # A level-i value costs at most 2^i columns, so every finite value of
    # the dense int64 tables, and every sum of two level-(i-1) values, is
    # <= max(c) * 2^rho; below the "unreachable" mark 2^60 it stays exact
    # and apart from it, and big + big = 2^61 cannot overflow int64.
    fits = max(instance.c) * 2**rho < _DENSE_BIG
    use_dense = dense if dense is not None else (m == 1 and fits)
    if use_dense and m != 1:
        raise ValueError("dense code path supports m = 1 only")
    if use_dense and not fits:
        raise ValueError("costs too large for the int64 dense code path")
    runner = _unbounded_dp_dense if use_dense else _unbounded_dp_generic
    value, xprime = runner(instance, b_target, g_target, rho, params)
    if value is None:
        return SolveOutcome.infeasible(
            certificate={"rho": rho, "mu": params.mu}
        )
    x = [a + b for a, b in zip(xprime, shift)]
    assert is_feasible(instance, x), "DP produced an infeasible witness"
    total = objective_value(instance, x)
    assert total == value + sum(
        ci * si for ci, si in zip(instance.c, shift)
    )
    return SolveOutcome.optimal(
        x, total, certificate={"rho": rho, "mu": params.mu}
    )
