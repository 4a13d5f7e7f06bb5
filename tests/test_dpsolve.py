import itertools
import math
import os
import random
import subprocess
import sys
import textwrap
from collections import deque
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from deltailp import cli, dpsolve, intlinalg, solver
from deltailp.dpsolve import (
    _default_chi,
    _doubling_window,
    _lattice_rows,
    _layer_dp,
    _layer_step,
    _recenter,
    _shift,
    _steps,
    _window_min,
    _witness,
    binary_decomposition,
    detect_unbounded,
    solve_bilp_sf,
    solve_ilp_sf_unbounded,
)
from deltailp.intlinalg import (
    IntMat,
    ParallelepipedLattice,
    RankError,
    det,
    max_det_submatrix,
    minor_stats,
    rank,
)
from deltailp.lp import solve_lp
from deltailp.model import (
    POS_INF,
    NEG_INF,
    CanonicalInstance,
    CapExceeded,
    GroupSpec,
    StandardInstance,
    is_feasible,
    objective_value,
)
from deltailp.oracle import brute_force_ilp, feasible_points
from deltailp.reductions import classic_to_generalized
from test_intlinalg import inverse_times, ref_points


def sf(n, m, a_rows, g_rows, s_diag, b, g, u, c):
    return StandardInstance(
        n=n,
        m=m,
        A=IntMat.from_rows(a_rows) if m > 0 else None,
        G=IntMat.from_rows(g_rows) if m < n else None,
        S=IntMat.from_rows(
            [[s_diag[i] if i == j else 0 for j in range(n - m)] for i in range(n - m)]
        )
        if m < n
        else None,
        b=tuple(b),
        g=tuple(g),
        u=tuple(u),
        c=tuple(c),
    )


def brute_min(inst):
    best = None
    pts = feasible_points(inst, [(0, ui) for ui in inst.u])
    for p in pts:
        v = objective_value(inst, p)
        if best is None or v < best:
            best = v
    return best


def random_unimodular(rng, n, ops=4):
    rows = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(ops):
        i, j = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if i != j:
            f = rng.randint(-2, 2)
            rows[i] = [a + f * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.3:
            k = rng.randrange(n)
            rows[k] = [-a for a in rows[k]]
    return rows


def random_sf(rng, n, m):
    stack = random_unimodular(rng, n)
    a_rows = stack[:m]
    g_rows = stack[m:]
    d = n - m
    base = rng.choice([1, 2, 3])
    s_diag = [base * rng.choice([1, 2]) if i == d - 1 else base for i in range(d)]
    s_diag = sorted(s_diag)
    u = [rng.randint(0, 3) for _ in range(n)]
    x0 = [rng.randint(0, ui) for ui in u]
    if m > 0 and rng.random() < 0.8:
        b = [sum(r[j] * x0[j] for j in range(n)) for r in a_rows]
    else:
        b = [rng.randint(-2, 2) for _ in range(m)]
    g = [
        sum(r[j] * x0[j] for j in range(n)) % s_diag[i]
        if rng.random() < 0.8
        else rng.randrange(s_diag[i])
        for i, r in enumerate(g_rows)
    ]
    c = [rng.randint(0, 5) for _ in range(n)]
    return sf(n, m, a_rows, g_rows, s_diag, b, g, u, c)


def column_base(instance):
    """Columns of the maximum-|det| m x m base of A; () when m = 0."""
    if instance.A is None:
        return ()
    return max_det_submatrix(instance.A.transpose())[0]


def state_points(instance, radius):
    """Superset of {A x : ||x||_1 <= radius}: the reference enumeration of
    the lattice of the max-det column base (all of Z^0 when m = 0)."""
    if instance.A is None:
        return [()]
    cols = column_base(instance)
    b_mat = instance.A.submatrix(list(range(instance.m)), list(cols))
    return ref_points(b_mat, [0] * instance.m, radius)


def level_points(b_mat, binv_b, i, rho, radius):
    """The reference enumeration of level i's window of the doubling DP."""
    return ref_points(b_mat, [Fraction(2**i, 2**rho) * f for f in binv_b], radius)


# -- reference: the queue DP on per-layer dicts of tuple states -------------
#
# Monotone-deque window minima and dict layers, one Python step per state:
# an independent reference for the dense layers of dpsolve._layer_dp.


def ref_min2(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a if a <= b else b


def ref_combine(v, cost_shift, l1_shift):
    if v is None:
        return None
    if isinstance(v, tuple):
        return (v[0] + cost_shift, v[1] + l1_shift)
    return v + cost_shift


def ref_window_min(keys, w):
    """out[e] = min(keys[e - w + 1 .. e]) over the indices >= 0, None acting
    as +infinity; a monotone deque (Lemire 2006)."""
    out = [None] * len(keys)
    live = deque()
    for e, k in enumerate(keys):
        if k is not None:
            while live and keys[live[-1]] >= k:
                live.pop()
            live.append(e)
        if live and live[0] <= e - w:
            live.popleft()
        if live:
            out[e] = keys[live[0]]
    return out


def ref_sliding_min_cycle(values, cost, capacity):
    l = len(values)
    w = min(capacity, l - 1)
    keys = [ref_combine(values[j % l], -cost * j, -j) for j in range(-w, l)]
    mins = ref_window_min(keys, w + 1)
    return [ref_combine(mins[i + w], cost * i, i) for i in range(l)]


def ref_sliding_min_path(values, cost, lower, upper):
    l = len(values)
    out = [None] * l
    lb1 = max(lower, 0)
    if upper >= lb1:
        keys = [ref_combine(values[j], -cost * j, -j) for j in range(l)]
        mins = ref_window_min(keys, upper - lb1 + 1)
        for i in range(lb1, l):
            out[i] = ref_combine(mins[i - lb1], cost * i, i)
    lo, gap = max(lower, 1 - l), max(1, -upper)
    if gap <= -lo:
        keys = [ref_combine(values[j], -cost * j, j) for j in range(l)]
        mins = ref_window_min(keys + [None] * -lo, -lo - gap + 1)
        for i in range(l):
            out[i] = ref_min2(out[i], ref_combine(mins[i - lo], cost * i, -i))
    return out


def ref_queue_dp(instance, steps, windows, target, radius):
    """The dict-based queue DP: per-layer dicts over tuple states."""
    grp = instance.group
    m_list = state_points(instance, radius)
    m_set = set(m_list)
    if target[0] not in m_set:
        return None, None
    residues = grp.elements()
    layers = [{((0,) * instance.m, grp.zero): (0, 0)}]
    for k, (a_col, g_col) in enumerate(steps):
        prev = layers[-1]
        cur = {}
        alpha, beta = windows[k]
        if all(v == 0 for v in a_col):
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
                    cur_r = grp.add(cur_r, g_col)
                orbits.append(orbit)
            for b in sorted({b for b, _ in prev}):
                for orbit in orbits:
                    vals = [prev.get((b, r)) for r in orbit]
                    outs = ref_sliding_min_cycle(vals, instance.c[k], beta)
                    for r, v in zip(orbit, outs):
                        if v is not None:
                            cur[(b, r)] = v
        else:
            visited = set()
            for b0 in m_list:
                for r0 in residues:
                    s = (b0, r0)
                    if s in visited:
                        continue
                    pred = (tuple(x - y for x, y in zip(b0, a_col)), grp.sub(r0, g_col))
                    if pred[0] in m_set:
                        continue
                    chain = []
                    while s[0] in m_set:
                        visited.add(s)
                        chain.append(s)
                        s = (tuple(x + y for x, y in zip(s[0], a_col)), grp.add(s[1], g_col))
                    vals = [prev.get(t) for t in chain]
                    outs = ref_sliding_min_path(vals, instance.c[k], alpha, beta)
                    for t, v in zip(chain, outs):
                        if v is not None:
                            cur[t] = v
        layers.append(cur)
    return (lambda k, s: layers[k].get(s)), layers[-1].get(target)


DTYPES = (np.int64, object)


def read_states(lookup, grp, k, states):
    """_layer_dp's lookup on a list of (point, residue) states."""
    points = np.array([p for p, _ in states], dtype=object).reshape(len(states), -1)
    return lookup(k, points, np.array([grp.encode(r) for _, r in states], dtype=np.int64))


def ref_witness(instance, steps, windows, target, value, lookup):
    """The scalar backward walk on a per-state lookup(k, (point, residue)):
    at column k the first t in [alpha_k, beta_k] whose predecessor value
    plus the arc's (c_k * t, |t|) equals the current value."""
    grp = instance.group
    y = [0] * instance.n
    for k in range(instance.n - 1, -1, -1):
        a_col, g_col = steps[k]
        alpha, beta = windows[k]
        for t in range(alpha, beta + 1):
            pred = (
                tuple(x - t * v for x, v in zip(target[0], a_col)),
                grp.sub(target[1], grp.scale(t, g_col)),
            )
            pv = lookup(k, pred)
            if pv is not None and ref_combine(pv, instance.c[k] * t, abs(t)) == value:
                y[k], target, value = t, pred, pv
                break
        else:
            raise AssertionError("no predecessor matches")
    return y


def chain_graph(chains, cyclic, dtype, offsets=None):
    """The state graph of chains side by side, for the window kernels:
    (shift, states, n_pts, grp).  One path is the m = 1 lattice of
    its offsets under the step a = 1; several paths are the columns of an
    m = 2 lattice under a = (0, 1), column i starting at offsets[i].  One
    cycle of length l is Z_l at m = 0 under g = 1; several equal cycles are
    the points of an m = 1 lattice, each with its own Z_l.  states[i][j] is
    the state index of element j of chain i."""
    if cyclic:
        l = len(chains[0])
        m = 0 if len(chains) == 1 else 1
        coords = np.arange(len(chains))[:, None][:, :m]
        grp, a, g = GroupSpec((l,)), (0,) * m, (1,)
        states = [[i * l + j for j in range(l)] for i in range(len(chains))]
    else:
        offsets = offsets or [0] * len(chains)
        if len(chains) == 1:
            coords = offsets[0] + np.arange(len(chains[0]))[:, None]
            a = (1,)
        else:
            coords = np.array(
                [(i, off + j) for i, (ch, off) in enumerate(zip(chains, offsets))
                 for j in range(len(ch))]
            )
            a = (0, 1)
        grp, g = GroupSpec(()), ()
        firsts = np.cumsum([0] + [len(ch) for ch in chains])
        states = [[int(f) + j for j in range(len(ch))] for f, ch in zip(firsts, chains)]
    coords = coords.astype(dtype)
    rows = _lattice_rows(coords)
    a, g = np.array(a, dtype=dtype), np.array(g, dtype=np.int64)
    return (lambda j: _shift(coords, rows, grp, a, g, j)), states, len(coords), grp


def chains_min(chains, cost, lower, upper, cyclic, dtype, queue=True, offsets=None, K=256):
    """The chains through _layer_step: out[i] = min over t in [lower, upper]
    of values[i - t] + cost * t, None being +infinity.  A path reads only
    i - l < t <= i; a cycle (lower = 0) reads values[(i - t) mod l] with t
    clamped to l - 1, as _layer_dp clips it.  (cost, l1) pairs gain |t| on
    l1 (packed as cost * K + l1 with l1w = 1), plain costs are packed alone
    (l1w = 0).  Returns the unpacked outputs chain by chain."""
    pairs = any(isinstance(v, tuple) for ch in chains for v in ch)
    K, lim = (K if pairs else 1), 1 << 61  # l1 + |t| < K in these tests
    shift, states, n_pts, grp = chain_graph(chains, cyclic, dtype, offsets)
    size = (n_pts + 1) * grp.order
    prev = np.full(size, 2 * lim, dtype=dtype)
    for ch, ids in zip(chains, states):
        for v, sid in zip(ch, ids):
            if v is not None:
                prev[sid] = v[0] * K + v[1] if pairs else v
    if cyclic:
        upper = min(upper, len(chains[0]) - 1)
    out = np.full(size, 2 * lim, dtype=dtype)
    _layer_step(prev, shift, lower, upper, cost * K, 1 if pairs else 0, lim, queue, out)
    assert out.dtype == np.dtype(dtype) and (out[-grp.order :] == 2 * lim).all()
    vals = [None if v >= lim else (divmod(v, K) if pairs else v) for v in out.tolist()]
    return [[vals[sid] for sid in ids] for ids in states]


def chain_min(values, cost, lower, upper, cyclic, dtype=np.int64, queue=True):
    return chains_min([values], cost, lower, upper, cyclic, dtype, queue)[0]


def cycle_min(values, cost, capacity):
    outs = [
        chain_min(values, cost, 0, capacity, True, dtype, queue)
        for dtype in DTYPES
        for queue in (True, False)
    ]
    assert all(o == outs[0] for o in outs)
    return outs[0]


def path_min(values, cost, lower, upper):
    outs = [
        chain_min(values, cost, lower, upper, False, dtype, queue)
        for dtype in DTYPES
        for queue in (True, False)
    ]
    assert all(o == outs[0] for o in outs)
    return outs[0]


class TestSlidingMin:
    # every case runs both kernels (queue's sparse-table reads, binarized's
    # remainder arc) on int64 and on dtype object
    def test_cycle_capacity_zero(self):
        vals = [3, None, 1]
        assert cycle_min(vals, 5, 0) == vals

    def test_cycle_example(self):
        assert cycle_min([0, 10, 10], 1, 2) == [0, 1, 2]

    def test_cycle_all_equal(self):
        assert cycle_min([4, 4, 4, 4], 2, 3) == [4, 4, 4, 4]

    def test_path_identity_window(self):
        vals = [2, 0, None, 5]
        assert path_min(vals, 3, 0, 0) == vals

    def test_path_example(self):
        assert path_min([0, None, None], 2, 0, 2) == [0, 2, 4]

    def test_path_negative_window(self):
        # value at i may come from later indices via negative t
        vals = [None, None, None, 0]
        out = path_min(vals, 1, -3, 3)
        assert out == [-3, -2, -1, 0]

    def naive(self, vals, cost, lower, upper, cyclic):
        l = len(vals)
        out = []
        for i in range(l):
            best = None
            for t in range(lower, upper + 1):
                if cyclic:
                    j = (i - t) % l
                else:
                    j = i - t
                    if not (0 <= j < l and i - l < t):
                        continue
                v = vals[j]
                if v is None:
                    continue
                cand = (
                    (v[0] + cost * t, v[1] + abs(t))
                    if isinstance(v, tuple)
                    else v + cost * t
                )
                if best is None or cand < best:
                    best = cand
            out.append(best)
        return out

    def test_random_against_naive(self):
        # lengths up to 40 against small windows take the doubling arcs
        # past the chain's ends; upper < 0 runs the t < 0 window alone
        rng = random.Random(7)
        for _ in range(600):
            l = rng.randint(1, 40)
            pairs = rng.random() < 0.5
            vals = [
                None
                if rng.random() < 0.3
                else ((rng.randint(0, 9), rng.randint(0, 9)) if pairs else rng.randint(0, 9))
                for _ in range(l)
            ]
            cost = rng.randint(0, 4)
            if rng.random() < 0.5:
                cap = rng.randint(0, 2 * l if rng.random() < 0.5 else 3)
                assert cycle_min(vals, cost, cap) == self.naive(
                    vals, cost, 0, min(cap, l - 1), True
                )
            else:
                lo = rng.randint(-l - 2, 2)
                hi = rng.randint(lo, lo + 6 if rng.random() < 0.5 else l + 2)
                assert path_min(vals, cost, lo, hi) == self.naive(
                    vals, cost, lo, hi, False
                )


class TestWindowMin:
    LIM = 1 << 61

    def test_matches_window_min(self):
        # every width 1..L on every length up to 24, both directions: with
        # step 0 a window [0, w - 1] is the trailing window min of the
        # deque reference and [-w, -1] the leading one; sentinels (None) mix
        # in, and for every third length fill the whole array
        rng = random.Random(3)
        sent = 2 * self.LIM
        for l in range(1, 25):
            keys = [
                None if l % 3 == 0 or rng.random() < 0.3 else rng.randint(-50, 50)
                for _ in range(l)
            ]
            for dtype in DTYPES:
                shift = chain_graph([keys], False, dtype)[0]
                arr = np.array([sent if k is None else k for k in keys] + [sent], dtype=dtype)
                for w in range(1, l + 2):
                    back = ref_window_min(keys[::-1], w)[::-1][1:] + [None]
                    for lo, want in ((0, ref_window_min(keys, w)), (-w, back)):
                        for queue in (True, False):
                            got = _window_min(arr, shift, lo, lo + w - 1, 0, queue).tolist()
                            assert [None if v >= self.LIM else v for v in got[:-1]] == want

    def random_values(self, rng, l, dead):
        return [
            None if dead or rng.random() < 0.3 else (rng.randint(-9, 9), rng.randint(0, 9))
            for _ in range(l)
        ]

    def test_path_segments(self):
        # several chains of different lengths side by side, the columns of an
        # m = 2 lattice starting at different heights, some with no finite
        # value at all: no window may read across a chain boundary
        rng = random.Random(4)
        for i in range(300):
            chains = [
                self.random_values(rng, rng.randint(1, 9), rng.random() < 0.2)
                for _ in range(rng.randint(1, 5))
            ]
            offsets = [rng.randint(-4, 4) for _ in chains]
            cost = rng.randint(-3, 4)
            lower = rng.randint(-11, 3)
            upper = rng.randint(lower, lower + 12)
            got = chains_min(
                chains, cost, lower, upper, False, DTYPES[i % 2], i % 3 > 0, offsets
            )
            want = [ref_sliding_min_path(ch, cost, lower, upper) for ch in chains]
            assert got == want

    def test_cycle_segments(self):
        # equal-length cycles, one per lattice point
        rng = random.Random(5)
        for i in range(200):
            l = rng.randint(1, 8)
            chains = [
                self.random_values(rng, l, rng.random() < 0.2)
                for _ in range(rng.randint(1, 5))
            ]
            cost = rng.randint(0, 4)
            cap = rng.randint(0, 2 * l)
            got = chains_min(chains, cost, 0, cap, True, DTYPES[i % 2], i % 3 > 0)
            want = [ref_sliding_min_cycle(ch, cost, cap) for ch in chains]
            assert got == want


class TestLatticeRows:
    def check(self, coords, far, dtypes=DTYPES):
        # every lattice point, its neighbours at distance 1 and far along
        # each axis, and far diagonals: rows agrees with a dict of the rows
        table = {tuple(p): i for i, p in enumerate(coords.tolist())}
        m = coords.shape[1]
        queries = [tuple(p) for p in coords.tolist()]
        for p in coords.tolist():
            for i in range(m):
                for d in (-1, 1, -far, far):
                    queries.append(tuple(v + d * (j == i) for j, v in enumerate(p)))
            queries.append(tuple(v + far for v in p))
        want = [table.get(q, -1) for q in queries]
        assert any(w < 0 for w in want) or m == 0
        for dtype in dtypes:
            rows = _lattice_rows(coords.astype(dtype))
            for qdtype in dtypes:
                Y = np.array(queries, dtype=qdtype).reshape(len(queries), m)
                got = rows(Y)
                assert got.dtype == np.int64 and got.tolist() == want

    def test_m0(self):
        self.check(np.zeros((1, 0), dtype=np.int64), 1)

    def test_random_bases(self):
        # m = 1, 2, 3 bases with |det| up to a few, negative entries and
        # offsets of 2^40 (past the int32 range, inside int64)
        rng = random.Random(17)
        seen = set()
        for i in range(24):
            m = 1 + i % 3
            while True:
                b = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(m)]
                if det(IntMat.from_rows(b)) != 0:
                    break
            coords = ParallelepipedLattice(IntMat.from_rows(b)).points((0,) * m, rng.randint(1, 3))
            if i % 4 == 3:
                coords = coords + (1 << 40)
            far = 2 * int(abs(coords).max()) + 1
            self.check(coords, far)
            seen.add(m)
        assert seen == {1, 2, 3}

    def test_huge_prefix_box(self):
        # prefixes spanning more than 2^62 points: the keys are Python ints
        coords = np.array(
            [(0, 0, 0), (0, 0, 1), (0, 2**62, 5), (2**62, 0, -1), (2**62, 0, 0)], dtype=object
        )
        self.check(coords, 2**63, (object,))


class TestBinaryDecomposition:
    def check(self, alpha, beta):
        w = binary_decomposition(alpha, beta)
        sums = {alpha + sum(comb) for r in range(len(w) + 1)
                for comb in itertools.combinations(w, r)}
        full = [alpha + sum(picks) for picks in itertools.product(*[(0, wi) for wi in w])]
        assert all(alpha <= s <= beta for s in full)
        assert sums == set(range(alpha, beta + 1))

    def test_empty_range(self):
        assert binary_decomposition(0, 0) == []

    def test_zero_to_six(self):
        self.check(0, 6)

    def test_negative_offset(self):
        self.check(-2, 3)

    def test_various_ranges(self):
        for a, b in [(0, 1), (0, 7), (0, 12), (-5, -1), (-3, 8), (2, 2)]:
            self.check(a, b)

    def test_length_logarithmic(self):
        import math

        for r in [1, 10, 100, 1000, 10**6]:
            w = binary_decomposition(0, r)
            assert len(w) <= math.log2(r + 2) + 1


class TestBoundedSolver:
    def test_group_only(self):
        inst = sf(1, 0, [], [[2]], [5], [], [1], [4], [1])
        for variant in ("queue", "binarized"):
            out = solve_bilp_sf(inst, variant=variant)
            assert out.status == "optimal"
            assert out.value == 3 and out.x == (3,)

    def test_bounded_knapsack(self):
        inst = sf(2, 1, [[2, 3]], [[1, 1]], [1], [7], [0], [3, 2], [3, 5])
        for variant in ("queue", "binarized"):
            out = solve_bilp_sf(inst, variant=variant)
            assert out.value == 11 and out.x == (2, 1)

    def test_infeasible_box(self):
        inst = sf(2, 1, [[1, 1]], [[0, 1]], [2], [5], [0], [2, 2], [1, 1])
        for variant in ("queue", "binarized"):
            assert solve_bilp_sf(inst, variant=variant).status == "infeasible"

    def test_group_residue_steering(self):
        # x1 + x2 = 3 with x2 odd forces (2, 1)
        inst = sf(2, 1, [[1, 1]], [[0, 1]], [2], [3], [1], [2, 2], [1, 1])
        out = solve_bilp_sf(inst)
        assert out.status == "optimal" and out.x == (2, 1)

    def test_chi_must_be_positive(self):
        inst = sf(2, 1, [[1, 1]], [[0, 1]], [2], [3], [1], [2, 2], [1, 1])
        with pytest.raises(ValueError):
            solve_bilp_sf(inst, chi=0)

    def test_requires_finite_bounds(self):
        inst = sf(2, 1, [[1, 1]], [[0, 1]], [2], [3], [1], [POS_INF, 2], [1, 1])
        with pytest.raises(ValueError):
            solve_bilp_sf(inst)

    def test_variants_match_brute_force(self):
        rng = random.Random(11)
        for _ in range(30):
            n = rng.randint(1, 4)
            m = rng.randint(0, min(1, n))
            inst = random_sf(rng, n, m)
            chi = sum(inst.u) + 1
            a = solve_bilp_sf(inst, chi=chi, variant="queue")
            b = solve_bilp_sf(inst, chi=chi, variant="binarized")
            ref = brute_min(inst)
            if ref is None:
                assert a.status == "infeasible" and b.status == "infeasible"
            else:
                assert a.status == "optimal" and b.status == "optimal"
                assert a.value == ref and b.value == ref
                assert is_feasible(inst, a.x) and is_feasible(inst, b.x)

    def test_deterministic_witness(self):
        rng = random.Random(23)
        inst = random_sf(rng, 3, 1)
        outs = [solve_bilp_sf(inst, chi=sum(inst.u) + 1) for _ in range(2)]
        assert outs[0] == outs[1]

    def test_deep_chain_without_recursion(self):
        # n = 150, u = 50, w <= 5 (radius 16): a memoized recursion with one
        # frame per layer and per 0/1 arc runs deeper than the recursion
        # limit; both variants are iterative and must agree
        rng = random.Random(1)
        n = 150
        w = [rng.randint(1, 5) for _ in range(n)]
        w[0] = 5
        x0 = [rng.randint(0, 50) for _ in range(n)]
        c = [rng.randint(0, 9) for _ in range(n)]
        inst, _ = classic_to_generalized(
            IntMat.from_rows([w]), (sum(a * b for a, b in zip(w, x0)),), c, [50] * n
        )
        assert n * (len(binary_decomposition(-16, 16)) + 2) > sys.getrecursionlimit()
        queue = solve_bilp_sf(inst, variant="queue")
        binarized = solve_bilp_sf(inst, variant="binarized")
        assert queue.status == binarized.status == "optimal"
        assert queue.value == binarized.value
        assert is_feasible(inst, queue.x) and is_feasible(inst, binarized.x)

    def test_state_set_cardinality(self):
        inst = sf(2, 1, [[2, 3]], [[1, 1]], [1], [7], [0], [3, 2], [3, 5])
        radius = 5
        pts = state_points(inst, radius)
        delta = minor_stats(inst.A).delta
        assert len(pts) <= (2 * radius + 1) ** inst.m * delta
        assert all(
            (v,) in set(pts)
            for v in range(-2 * radius, 2 * radius)
            if any(p[0] == v for p in pts)
        )


def layer_instance(rng, n, m, moduli, zero_cols):
    """Bounded instance with free-form group moduli; the columns in
    zero_cols get A-column 0.  Columns with A-column 0 get a nonnegative
    cost."""
    stack = random_unimodular(rng, n)
    a_rows = [[0 if j in zero_cols else v for j, v in enumerate(r)] for r in stack[:m]]
    zero_cols = {j for j in range(n) if all(r[j] == 0 for r in a_rows)}
    s_diag = [1] * (n - m - len(moduli)) + list(moduli)
    g_rows = stack[m:]
    u = [rng.randint(0, 4) for _ in range(n)]
    x0 = [rng.randint(0, ui) for ui in u]
    b = [sum(r[j] * x0[j] for j in range(n)) for r in a_rows]
    g = [sum(r[j] * x0[j] for j in range(n)) % d for r, d in zip(g_rows, s_diag)]
    if rng.random() < 0.3 and g:
        g[-1] = rng.randrange(s_diag[-1])
    c = [rng.randint(0, 6) if j in zero_cols else rng.randint(-4, 6) for j in range(n)]
    return sf(n, m, a_rows, g_rows, s_diag, b, g, u, c)


class TestLayerReference:
    # moduli: trivial, cyclic, non-cyclic
    GROUPS = [(), (3,), (6,), (2, 2), (2, 4)]

    def compare(self, inst, chi):
        steps = _steps(inst)
        pre = _recenter(inst, chi, steps)
        if pre is None:
            return None
        _, windows, radius, target = pre
        ref_lookup, ref_val = ref_queue_dp(inst, steps, windows, target, radius)
        cols = column_base(inst)
        lookup, val = _layer_dp(inst, cols, steps, windows, target, radius, "queue")
        bin_lookup, bin_val = _layer_dp(
            inst, cols, steps, windows, target, radius, "binarized"
        )
        assert val == ref_val
        assert bin_val == (None if ref_val is None else ref_val[0])
        if lookup is None:  # the target is off the lattice
            assert target[0] not in set(state_points(inst, radius))
            return windows
        states = [(p, r) for p in state_points(inst, radius) for r in inst.group.elements()]
        for k in range(inst.n + 1):
            want = [ref_lookup(k, s) for s in states]
            assert read_states(lookup, inst.group, k, states) == want, k
            assert read_states(bin_lookup, inst.group, k, states) == [
                None if v is None else v[0] for v in want
            ]
        if ref_val is not None:
            y = _witness(inst, steps, windows, target, val, lookup)
            assert y == ref_witness(inst, steps, windows, target, ref_val, ref_lookup)
        return windows

    def test_layers_match_reference(self):
        rng = random.Random(8)
        seen = set()
        for i in range(90):
            m = i % 3
            n = rng.randint(max(1, m), 5)
            moduli = self.GROUPS[(i // 3) % len(self.GROUPS)]
            if len(moduli) > n - m:
                moduli = moduli[-(n - m):] if n > m else ()
            zero_cols = {j for j in range(n) if rng.random() < 0.25} if m else set()
            inst = layer_instance(rng, n, m, moduli, zero_cols)
            if m and rank(inst.A) < m:
                continue
            chi = rng.choice([1, 2, sum(inst.u) + 1])
            windows = self.compare(inst, chi)
            if windows is None:
                continue
            seen.add(("m", m))
            seen.add(("group", len(moduli)))
            if zero_cols:
                seen.add("zero column")
            if any(alpha < 0 for alpha, _ in windows):
                seen.add("negative window")
        assert seen >= {
            ("m", 0), ("m", 1), ("m", 2), ("group", 0), ("group", 1), ("group", 2),
            "zero column", "negative window",
        }

    def test_negative_base_determinant(self):
        # A row negated in A and b flips the sign of the max-det column
        # base's determinant and changes no solution; layers, values and
        # witnesses must still match the reference, and the optimum the
        # brute force
        rng = random.Random(31)
        seen = set()
        for i in range(30):
            m = 1 + i % 2
            n = rng.randint(m + 1, 4)
            moduli = self.GROUPS[(i // 2) % len(self.GROUPS)][: n - m]
            inst = layer_instance(rng, n, m, moduli, set())
            if rank(inst.A) < m:
                continue
            cols, absdet = max_det_submatrix(inst.A.transpose())
            if det(inst.A.submatrix(list(range(m)), list(cols))) > 0:
                rows = inst.A.to_lists()
                rows[0] = [-v for v in rows[0]]
                inst = replace(inst, A=IntMat.from_rows(rows), b=(-inst.b[0],) + inst.b[1:])
            assert det(inst.A.submatrix(list(range(m)), list(cols))) == -absdet
            chi = rng.choice([1, 2, sum(inst.u) + 1])
            if self.compare(inst, chi) is None:
                continue
            ref = brute_min(inst)
            for variant in ("queue", "binarized"):
                out = solve_bilp_sf(inst, chi=sum(inst.u) + 1, variant=variant)
                assert out.value == ref
            seen.add(("m", m))
            if absdet > 1:
                seen.add(("det", m))
        assert seen >= {("m", 1), ("m", 2), ("det", 1), ("det", 2)}

    def test_off_lattice_states_read_none(self):
        # m = 3: a lookup finds a point through the run of y_2 that its
        # prefix (y_0, y_1) heads; states next to the lattice's points, past
        # the ends of their runs and under other prefixes, must read None
        rng = random.Random(5)
        checked = 0
        while checked < 3:
            inst = layer_instance(rng, 4, 3, (2,), set())
            if rank(inst.A) < 3:
                continue
            steps = _steps(inst)
            pre = _recenter(inst, 1, steps)
            if pre is None:
                continue
            _, windows, radius, target = pre
            lookup, _ = _layer_dp(
                inst, column_base(inst), steps, windows, target, radius, "queue"
            )
            if lookup is None:
                continue
            pts = state_points(inst, radius)
            on = set(pts)
            w = 2 * max(abs(v) for p in pts for v in p) + 1
            shifts = [(-1, w, 0), (1, -w, 0), (0, -1, w), (0, 0, 1), (0, 0, -1), (w, 0, 0)]
            off = [
                (q, r)
                for p in pts
                for shift in shifts
                for q in [tuple(a + b for a, b in zip(p, shift))]
                if q not in on
                for r in inst.group.elements()
            ]
            for k in (0, inst.n):
                assert read_states(lookup, inst.group, k, off) == [None] * len(off)
            assert read_states(lookup, inst.group, 0, [((0, 0, 0), inst.group.zero)]) == [(0, 0)]
            checked += 1

    def test_target_off_the_lattice(self):
        inst = sf(2, 1, [[2, 3]], [[1, 1]], [1], [7], [0], [3, 2], [3, 5])
        steps = _steps(inst)
        _, windows, radius, _ = _recenter(inst, 4, steps)
        far = ((10**6,), ())
        for variant in ("queue", "binarized"):
            assert _layer_dp(
                inst, column_base(inst), steps, windows, far, radius, variant
            ) == (None, None)
        assert ref_queue_dp(inst, steps, windows, far, radius) == (None, None)

    def test_huge_lattice_coordinates(self):
        # a unimodular base with entries near 2^62 puts lattice coordinates
        # past int64, so coordinates and chain labels are Python ints;
        # layers, values and witnesses must not change
        big = 2**62
        inst = sf(
            3, 2, [[big + 1, big, 0], [1, 1, 0]], [[0, 0, 1]], [3],
            [5 * big + 3, 5], [1], [4, 4, 2], [1, 2, 3],
        )
        self.compare(inst, 12)
        for variant in ("queue", "binarized"):
            out = solve_bilp_sf(inst, chi=12, variant=variant)
            assert out.value == brute_min(inst)

    def test_python_int_path(self, monkeypatch):
        # costs near 2^60 push the packed range past int64: the same code
        # runs on dtype object, with values and witnesses equal to the
        # reference's exact Python ints
        dtypes = []
        value_range = dpsolve._value_range

        def spy(top, reach):
            out = value_range(top, reach)
            dtypes.append(out[1])
            return out

        monkeypatch.setattr(dpsolve, "_value_range", spy)
        rng = random.Random(12)
        big = 2**60
        for i in range(12):
            m = i % 3
            n = rng.randint(max(1, m) + 1, 4)
            inst = layer_instance(rng, n, m, self.GROUPS[i % len(self.GROUPS)][: n - m], set())
            if m and rank(inst.A) < m:
                continue
            inst = sf(
                n, m, inst.A.to_lists() if m else [], inst.G.to_lists(),
                [inst.S.entries[j][j] for j in range(n - m)], inst.b, inst.g, inst.u,
                [big + c for c in inst.c],
            )
            self.compare(inst, sum(inst.u) + 1)
            out = solve_bilp_sf(inst, chi=sum(inst.u) + 1)
            ref = brute_min(inst)
            assert out.value == ref
        assert dtypes and all(d is object for d in dtypes)


class TestDefaultChi:
    def test_exact_above_float_precision(self):
        # chi = 3 * Delta * |det S| for m = 1; a float would round it
        big = 2**53 + 1
        inst = sf(2, 1, [[1, 1]], [[0, 1]], [big], [0], [0], [1, 1], [1, 1])
        chi = _default_chi(inst, minor_stats(inst.A).delta)
        assert chi == 3 * big and isinstance(chi, int)


def ref_mu(A):
    """mu = ceil(eta_m * Delta_1(U)), eta_m = 12 * sqrt(m), for A = B (I U)
    and B the exact maximum-|det| column base, evaluated with Fractions."""
    m = A.rows
    cols, _ = max_det_submatrix(A.transpose())
    b_mat = A.submatrix(range(m), cols)
    delta1 = max(abs(f) for j in range(A.cols) for f in inverse_times(b_mat, A.col(j)))
    target = 144 * m * delta1 * delta1  # mu^2 >= eta_m^2 * Delta_1(U)^2
    mu = max(1, math.isqrt(math.ceil(target)))
    while mu * mu < target:
        mu += 1
    return mu


class TestMuParams:
    def test_small_row(self):
        assert ref_mu(IntMat.from_rows([[2, 3]])) == dpsolve._MU == 12
        inst = sf(2, 1, [[2, 3]], [[1, 1]], [1], [12], [0], [POS_INF] * 2, [1, 1])
        assert solve_ilp_sf_unbounded(inst).certificate["mu"] == 12

    def test_one_row_mu_is_twelve(self):
        # the 1 x 1 base is an entry of largest |a_j|, so |a_j / a_B| <= 1
        # with equality at the base: mu = 12 on every nonzero row, with
        # mixed signs and with ties in |a_j| between different signs
        rng = random.Random(41)
        seen, checked = set(), 0
        for _ in range(240):
            n = rng.randint(1, 6)
            row = [rng.choice([-1, 1]) * rng.randint(0, 4) for _ in range(n)]
            if rng.random() < 0.5:
                row[rng.randrange(n)] = -max(row, key=abs)
            if not any(row):
                continue
            top = max(map(abs, row))
            if min(row) < 0 < max(row):
                seen.add("mixed signs")
            if sum(abs(v) == top for v in row) > 1:
                seen.add("tie")
            if top in row and -top in row:
                seen.add("signed tie")
            assert ref_mu(IntMat.from_rows([row])) == dpsolve._MU
            checked += 1
        assert checked >= 200
        assert seen == {"mixed signs", "tie", "signed tie"}


class TestDetectUnbounded:
    def test_trivial_kernel(self):
        inst = sf(2, 2, [[1, 0], [0, 1]], [], [], [3, 3], [], [POS_INF] * 2, [1, 1])
        assert detect_unbounded(inst) == (False, None)

    def test_zero_cost_no(self):
        inst = sf(2, 1, [[1, -1]], [[0, 1]], [1], [0], [0], [POS_INF] * 2, [0, 0])
        assert detect_unbounded(inst) == (False, None)

    def test_negative_cost_ray(self):
        inst = sf(2, 1, [[1, -1]], [[0, 1]], [1], [0], [0], [POS_INF] * 2, [0, -1])
        yes, ray = detect_unbounded(inst)
        assert yes
        assert ray is not None and any(ray)
        assert inst.A.matvec(ray) == (0,)
        budget = 2 * 1 * minor_stats(inst.A).delta
        assert sum(ray) <= budget

    def test_requires_unbounded_variant(self):
        inst = sf(2, 1, [[1, 1]], [[0, 1]], [2], [3], [1], [2, 2], [1, 1])
        with pytest.raises(ValueError):
            detect_unbounded(inst)


def brute_min_unbounded(inst, l1_cap):
    best = None
    n = inst.n
    for total in range(l1_cap + 1):
        for x in itertools.product(range(total + 1), repeat=n):
            if sum(x) != total:
                continue
            if is_feasible(inst, x):
                v = objective_value(inst, x)
                if best is None or v < best:
                    best = v
    return best


# -- reference: the doubling DP on dicts of (right side, residue) states ----
#
# Every pair of level-(i-1) entries is summed in Python, and the witness
# takes the first split in sorted key order: an independent reference for
# the numpy level arrays of dpsolve._unbounded_dp, any m >= 1.  It is
# quadratic per level, so the tests run it at a shallow rho.


def ref_unbounded_dp(instance, b_target, g_target, rho, base, radius):
    n, m = instance.n, instance.m
    grp = instance.group
    b_mat = instance.A.submatrix(list(range(m)), list(base))
    binv_b = inverse_times(b_mat, list(b_target))
    levels: list[dict] = []
    pts_sets = []
    for i in range(rho + 1):
        pts_sets.append(set(level_points(b_mat, binv_b, i, rho, radius)))

    zero_b = (0,) * m
    d0: dict = {}
    if zero_b in pts_sets[0]:
        d0[(zero_b, grp.zero)] = (0, None)  # (value, column index)
    for j, (a_col, g_col) in enumerate(_steps(instance)):
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
                g = grp.add(g1, g2)
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
            g2 = grp.sub(g, g1)
            rest = levels[i - 1].get((b2, g2))
            if rest is not None and v1 + rest[0] == val:
                x1 = rec(i - 1, b1, g1)
                x2 = rec(i - 1, b2, g2)
                x = [a + b_ for a, b_ in zip(x1, x2)]
                memo[key] = x
                return x
        raise AssertionError("doubling table admits no consistent split")

    return top[0], rec(rho, b_target, g_target)


def ref_solve_unbounded(inst, rho):
    """solve_ilp_sf_unbounded with the reference in place of the level arrays."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dpsolve, "_unbounded_dp", ref_unbounded_dp)
        return solve_ilp_sf_unbounded(inst, rho=rho)


def spy_level_dtypes(monkeypatch):
    """Record the dtype of every array np.full allocates; in an m = 1
    unbounded solve those are the doubling DP's level arrays and pads."""
    seen = []
    full = np.full

    def spy(*args, **kwargs):
        out = full(*args, **kwargs)
        seen.append(out.dtype.name)
        return out

    monkeypatch.setattr(np, "full", spy)
    return seen


def test_doubling_window_is_the_lattice_box():
    # level i of the m = 1 doubling DP holds the y of the lattice of [a] in
    # the box |y / a - c / (2^rho a)| <= 48, c = b * 2^i: the window formula
    # counts exactly those points, and its ends are the outermost ones
    radius = 48
    for a in (*range(1, 8), *range(-7, 0)):
        lattice = ParallelepipedLattice(IntMat.from_rows([[a]]))
        reach = radius * abs(a)
        for b in range(-60, 61):
            for rho in range(1, 9):
                for i in range(rho + 1):
                    c = b << i
                    first, last = _doubling_window(c, rho, reach)
                    assert last - first + 1 == lattice.count(
                        [Fraction(c, a << rho)], radius
                    )
                    inside = [abs((y << rho) - c) <= reach << rho for y in
                              (first - 1, first, last, last + 1)]
                    assert inside == [False, True, True, False]


class TestUnboundedSolver:
    def test_knapsack(self):
        inst = sf(2, 1, [[2, 3]], [[1, 1]], [1], [12], [0], [POS_INF] * 2, [1, 1])
        out = solve_ilp_sf_unbounded(inst)
        assert out.status == "optimal" and out.value == 4 and out.x == (0, 4)

    def test_zero_target(self):
        inst = sf(2, 1, [[2, 3]], [[1, 1]], [1], [0], [0], [POS_INF] * 2, [1, 1])
        out = solve_ilp_sf_unbounded(inst)
        assert out.value == 0 and out.x == (0, 0)

    def test_infeasible_residue(self):
        inst = sf(1, 0, [], [[2]], [2], [], [1], [POS_INF], [1])
        assert solve_ilp_sf_unbounded(inst).status == "infeasible"

    def test_group_delegation(self):
        inst = sf(1, 0, [], [[2]], [5], [], [1], [POS_INF], [1])
        out = solve_ilp_sf_unbounded(inst)
        assert out.value == 3 and out.x == (3,)

    def test_rejects_negative_cost(self):
        inst = sf(2, 1, [[2, 3]], [[1, 1]], [1], [4], [0], [POS_INF] * 2, [1, -1])
        with pytest.raises(ValueError):
            solve_ilp_sf_unbounded(inst)

    def test_rejects_finite_bounds(self):
        inst = sf(2, 1, [[2, 3]], [[1, 1]], [1], [4], [0], [3, POS_INF], [1, 1])
        with pytest.raises(ValueError):
            solve_ilp_sf_unbounded(inst)

    def test_matches_brute_force(self):
        cases = [
            sf(2, 1, [[2, 3]], [[1, 1]], [1], [7], [0], [POS_INF] * 2, [3, 5]),
            sf(2, 1, [[2, 3]], [[1, 1]], [2], [8], [1], [POS_INF] * 2, [1, 2]),
            sf(3, 1, [[1, 2, 3]], [[0, 1, 1], [0, 0, 1]], [1, 2], [6], [0, 1],
               [POS_INF] * 3, [2, 1, 3]),
        ]
        for inst in cases:
            out = solve_ilp_sf_unbounded(inst)
            ref = brute_min_unbounded(inst, 10)
            if ref is None:
                assert out.status == "infeasible"
            else:
                assert out.status == "optimal" and out.value == ref
                assert is_feasible(inst, out.x)

    def test_generic_matches_dense(self):
        inst = sf(2, 1, [[2, 3]], [[1, 1]], [2], [8], [1], [POS_INF] * 2, [1, 2])
        got = solve_ilp_sf_unbounded(inst, rho=8)
        ref = ref_solve_unbounded(inst, rho=8)
        assert got.status == ref.status == "optimal"
        assert got.value == ref.value

    def test_value_stable_in_rho(self):
        inst = sf(2, 1, [[2, 3]], [[1, 1]], [1], [7], [0], [POS_INF] * 2, [3, 5])
        v1 = solve_ilp_sf_unbounded(inst, rho=9).value
        v2 = solve_ilp_sf_unbounded(inst, rho=12).value
        assert v1 == v2


def random_unbounded_m1(rng, n, det_s):
    stack = random_unimodular(rng, n)
    a_rows, g_rows = stack[:1], stack[1:]
    s_diag = [1] * (n - 2) + [det_s]
    x0 = [rng.randint(0, 3) for _ in range(n)]
    b = [sum(r[j] * x0[j] for j in range(n)) for r in a_rows]
    g = [
        sum(r[j] * x0[j] for j in range(n)) % d
        if rng.random() < 0.8
        else rng.randrange(d)
        for r, d in zip(g_rows, s_diag)
    ]
    c = [rng.randint(0, 5) for _ in range(n)]
    return sf(n, 1, a_rows, g_rows, s_diag, b, g, [POS_INF] * n, c)


class TestUnboundedPaths:
    def test_never_calls_detect_unbounded(self, monkeypatch):
        # c >= 0 rules out a recession ray, so the detector must not run
        def fail(*args, **kwargs):
            raise AssertionError("detect_unbounded called")

        monkeypatch.setattr(dpsolve, "detect_unbounded", fail)
        m0 = sf(1, 0, [], [[2]], [5], [], [1], [POS_INF], [1])
        m1 = sf(2, 1, [[2, 3]], [[1, 1]], [1], [12], [0], [POS_INF] * 2, [1, 1])
        assert solve_ilp_sf_unbounded(m0).value == 3
        assert solve_ilp_sf_unbounded(m1).value == 4

    def test_dense_matches_generic_seeded(self):
        # the reference can take over a minute at the default rho, so both
        # run the same shallower doubling; their tables must then agree
        rng = random.Random(2024)
        for det_s in (1, 2, 3):
            for n in (2, 3, 3):
                inst = random_unbounded_m1(rng, n, det_s)
                assert inst.det_s == det_s
                got = solve_ilp_sf_unbounded(inst, rho=6)
                ref = ref_solve_unbounded(inst, rho=6)
                assert got.status == ref.status
                assert got.value == ref.value
                assert got.x == ref.x

    def test_small_blocks_match_one_block(self, monkeypatch):
        # a budget of 500 entries splits each level of these instances into
        # blocks of 1-5 rows i2 with a partial last block; the tables, and so
        # value and witness, must not depend on the split
        rng = random.Random(2024)
        insts = [
            random_unbounded_m1(rng, n, det_s)
            for det_s in (1, 2, 3)
            for n in (2, 3, 3)
        ]
        ref = [ref_solve_unbounded(i, rho=6) for i in insts]
        one = [solve_ilp_sf_unbounded(i, rho=6) for i in insts]
        monkeypatch.setattr(dpsolve, "_PAD_CELLS", 500)
        for inst, want, whole in zip(insts, ref, one):
            got = solve_ilp_sf_unbounded(inst, rho=6)
            assert (got.status, got.value, got.x) == (
                want.status, want.value, want.x
            ) == (whole.status, whole.value, whole.x)

    def test_large_costs_leave_the_int64_path(self, monkeypatch):
        # max(c) * 2^rho >= 2^60 puts the level arrays on Python ints
        scale = 2**55
        small = sf(2, 1, [[2, 3]], [[1, 1]], [2], [8], [1], [POS_INF] * 2, [1, 2])
        large = sf(
            2, 1, [[2, 3]], [[1, 1]], [2], [8], [1], [POS_INF] * 2,
            [scale, 2 * scale + 1],
        )
        want = solve_ilp_sf_unbounded(small, rho=8)
        ref = ref_solve_unbounded(large, rho=8)
        seen = spy_level_dtypes(monkeypatch)
        got = solve_ilp_sf_unbounded(large, rho=8)
        assert len(seen) >= 9 and set(seen) == {"object"}
        assert got.status == ref.status == "optimal"
        assert got.value == ref.value
        assert got.x == ref.x == want.x
        assert got.value == objective_value(large, got.x)
        assert got.value == want.value * scale + want.x[1]

    def test_costs_just_under_the_limit_stay_dense(self, monkeypatch):
        # rho = 8: max(c) = 2^52 - 1 gives max(c) * 2^rho = 2^60 - 2^8, the
        # largest int64 run; max(c) = 2^52 is the smallest Python-int run.
        # Both must equal the reference.
        for c_max, dtype in ((2**52 - 1, "int64"), (2**52, "object")):
            inst = sf(
                2, 1, [[2, 3]], [[1, 1]], [2], [8], [1], [POS_INF] * 2,
                [c_max - 1, c_max],
            )
            ref = ref_solve_unbounded(inst, rho=8)
            with monkeypatch.context() as mp:
                seen = spy_level_dtypes(mp)
                got = solve_ilp_sf_unbounded(inst, rho=8)
            assert len(seen) >= 9 and set(seen) == {dtype}
            assert got.status == ref.status == "optimal"
            assert (got.value, got.x) == (ref.value, ref.x)
            assert got.value == objective_value(inst, got.x)

    def test_scaled_costs_keep_the_witness(self):
        # costs x 2^58 at the default rho (15-26 here) need Python-int
        # levels; the witness must not move and the value scales exactly
        scale = 2**58
        rng = random.Random(2024)
        for det_s in (1, 2, 3):
            for n in (2, 3, 3):
                inst = random_unbounded_m1(rng, n, det_s)
                big = replace(inst, c=tuple(ci * scale for ci in inst.c))
                want = solve_ilp_sf_unbounded(inst)
                got = solve_ilp_sf_unbounded(big)
                assert got.status == want.status
                assert got.x == want.x
                if want.status == "optimal":
                    assert got.value == want.value * scale
                    assert got.certificate == want.certificate


def random_unbounded_m2(rng):
    """n = 3, m = 2 unbounded instance with Delta(A) = 1 and c >= 0, so its
    proximity box stays small enough for brute force."""
    while True:
        stack = random_unimodular(rng, 3)
        a_rows, g_rows = stack[:2], stack[2:]
        if minor_stats(IntMat.from_rows(a_rows)).delta == 1:
            break
    det_s = rng.choice([1, 2])
    x0 = [rng.randint(0, 3) for _ in range(3)]
    b = [sum(r[j] * x0[j] for j in range(3)) for r in a_rows]
    g = [sum(g_rows[0][j] * x0[j] for j in range(3)) % det_s]
    c = [rng.randint(0, 5) for _ in range(3)]
    return sf(3, 2, a_rows, g_rows, [det_s], b, g, [POS_INF] * 3, c)


def proximity_box(inst):
    """The box criterion 02 enumerates: [0, max(0, ceil(x*_k)) + chi]."""
    lp = solve_lp(inst)
    delta = minor_stats(inst.A).delta
    chi = (inst.m + 1) * (inst.n + 1) * delta * abs(inst.det_s)
    return [(0, max(0, math.ceil(v)) + chi) for v in lp.vertex]


class TestUnboundedBoxRoute:
    def test_m2_matches_brute_force_on_the_box(self):
        rng = random.Random(11)
        statuses = []
        for _ in range(5):
            inst = random_unbounded_m2(rng)
            out = solve_ilp_sf_unbounded(inst)
            ref = brute_force_ilp(inst, proximity_box(inst))
            assert out.status == ref.status
            statuses.append(out.status)
            if ref.status == "optimal":
                assert out.value == ref.value
                assert is_feasible(inst, out.x)
                assert out.certificate["box"] > 0
                # the bounded DP runs with the smaller valid chi: the default
                # bound or the box's l1 diameter sum(u) + 1
                box = replace(inst, u=tuple(hi for _, hi in proximity_box(inst)))
                default = _default_chi(box, minor_stats(inst.A).delta)
                chi = min(default, sum(box.u) + 1)
                assert out.certificate["chi"] == chi < default
        assert statuses.count("optimal") >= 4

    def test_m2_cap_exceeded_propagates(self, monkeypatch):
        inst = random_unbounded_m2(random.Random(11))
        monkeypatch.setattr(dpsolve, "_DP_CELLS", 10)
        with pytest.raises(CapExceeded):
            solve_ilp_sf_unbounded(inst)


def count_calls(monkeypatch, names=("max_det_submatrix", "minor_stats")):
    """Count the calls of intlinalg functions through every deltailp module
    that binds them; returns the live {name: calls} dict."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        orig = getattr(intlinalg, name)

        def counted(*args, _name=name, _orig=orig, **kwargs):
            counts[_name] += 1
            return _orig(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("deltailp") and getattr(mod, name, None) is orig:
                monkeypatch.setattr(mod, name, counted)
    return counts


class TestBaseOnce:
    # Delta(A) is the |det| of the max-det column base, so each solve finds
    # that base once and enumerates no minors besides
    def test_bounded_default_chi(self, monkeypatch):
        rng = random.Random(19)
        counts = count_calls(monkeypatch)
        solved = 0
        for i in range(24):
            m = 1 + i % 2
            inst = layer_instance(rng, rng.randint(m, 4), m, (), set())
            if rank(inst.A) < m:
                continue
            for key in counts:
                counts[key] = 0
            try:  # the default chi of m = 2 often exceeds the cell cap
                out = solve_bilp_sf(inst, variant=("queue", "binarized")[i % 4 // 2])
                solved += out.status == "optimal"
            except CapExceeded:
                pass
            assert counts == {"max_det_submatrix": 1, "minor_stats": 0}
        assert solved >= 8

    def test_unbounded_m1(self, monkeypatch):
        rng = random.Random(2024)
        counts = count_calls(monkeypatch)
        for det_s in (1, 2, 3):
            inst = random_unbounded_m1(rng, 3, det_s)
            for key in counts:
                counts[key] = 0
            out = solve_ilp_sf_unbounded(inst, rho=6)
            if out.certificate.get("stage") != "lp":
                assert counts == {"max_det_submatrix": 1, "minor_stats": 0}

    def test_unbounded_m2(self, monkeypatch):
        # the proximity-box DP keeps A, so it reuses the base of the solve
        rng = random.Random(2025)
        counts = count_calls(monkeypatch)
        solved = 0
        for _ in range(3):
            inst = random_unbounded_m2(rng)
            for key in counts:
                counts[key] = 0
            out = solve_ilp_sf_unbounded(inst)
            if out.certificate.get("stage") != "lp":
                assert counts == {"max_det_submatrix": 1, "minor_stats": 0}
                solved += 1
        assert solved >= 1

    def test_local_corner(self, monkeypatch):
        counts = count_calls(monkeypatch)

        def corner(rows, b, c):
            a = IntMat.from_rows(rows)
            return CanonicalInstance(A=a, b_l=(NEG_INF,) * a.rows, b_r=tuple(b), c=tuple(c))

        tall = [[1, 0], [0, 1], [1, 2]]  # Delta = 2, corner at the LP base
        square = [[2, 0], [1, 3]]  # the base is every row
        cases = [  # (instance, require_local, outcome, minor_stats calls)
            (corner(tall, (0, 0, 1), (1, 1)), True, "optimal", 1),  # local
            (corner(tall, (0, 0, 0), (1, 1)), True, ValueError, 1),  # not local
            (corner(tall, (0, 0, 0), (1, 1)), False, "optimal", 1),
            (corner(tall, (0, 0, 0), (-1, 1)), True, "unbounded", 0),  # LP ray
            (corner(square, (1, 2), (-1, 1)), True, "unbounded", 1),  # c off the cone
            (corner(square, (1, 2), (-1, 1)), False, "unbounded", 0),
        ]
        for inst, require_local, want, calls in cases:
            counts["minor_stats"] = 0
            if want is ValueError:
                with pytest.raises(ValueError, match="locality condition fails"):
                    solver._solve_cf_local(inst, require_local)
            else:
                assert solver._solve_cf_local(inst, require_local).status == want
            assert counts["minor_stats"] == calls


class TestRankDeficient:
    # a rank-deficient A is invalid input; the base enumeration refuses it
    def test_explicit_chi_empty_lp(self):
        inst = sf(2, 1, [[0, 0]], [[0, 1]], [1], [1], [0], [1, 1], [1, 1])
        assert solve_lp(inst).status == "infeasible"
        with pytest.raises(RankError, match="matrix does not have full column rank"):
            solve_bilp_sf(inst, chi=3)

    def test_cli_default_chi(self, capsys, tmp_path):
        from deltailp.io import serialize_instance

        inst = sf(3, 2, [[1, 1, 0], [2, 2, 0]], [[0, 0, 1]], [1], [2, 4], [0], [2, 2, 2], [1, 1, 1])
        path = tmp_path / "r.json"
        path.write_text(serialize_instance(inst))
        assert cli.main(["solve", str(path)]) == cli.EXIT_INPUT
        out = capsys.readouterr().out.splitlines()
        assert out[-2:] == ["error: input", "error.detail: matrix does not have full column rank"]


class TestCertificates:
    # The witness and objective re-checks are explicit checks, so they must
    # still refuse a rejected witness when python -O strips asserts.
    SCRIPT = textwrap.dedent(
        """
        import sys
        from deltailp import dpsolve
        from deltailp.intlinalg import IntMat
        from deltailp.model import POS_INF, CertificateError, SolveOutcome, StandardInstance

        def knapsack(u):
            return StandardInstance(
                n=2, m=1, A=IntMat.from_rows([[2, 3]]), G=IntMat.from_rows([[1, 1]]),
                S=IntMat.from_rows([[1]]), b=(12,), g=(0,), u=u, c=(1, 1),
            )

        def refused(solve, inst):
            try:
                out = solve(inst)
            except CertificateError as exc:
                return str(exc)
            return f"accepted: {out.status}"

        dpsolve.is_feasible = lambda inst, x: False
        print(refused(dpsolve.solve_bilp_sf, knapsack((6, 4))))
        print(refused(dpsolve.solve_ilp_sf_unbounded, knapsack((POS_INF, POS_INF))))
        dpsolve.is_feasible = lambda inst, x: True
        dpsolve.objective_value = lambda inst, x: -1
        print(refused(dpsolve.solve_ilp_sf_unbounded, knapsack((POS_INF, POS_INF))))
        # a budget optimum whose ray leaves ker A
        dpsolve.solve_bilp_sf = lambda inst, **kw: SolveOutcome.optimal((1, 0, 0), -1)
        print(refused(dpsolve.detect_unbounded, knapsack((POS_INF, POS_INF))))
        print("optimize", sys.flags.optimize)
        """
    )

    def test_rejected_witness_raises_under_optimize(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        assert run.stdout.splitlines() == [
            "DP produced an infeasible witness",
            "DP produced an infeasible witness",
            "witness cost differs from the DP value",
            "ray leaves the kernel of A",
            "optimize 1",
        ]
