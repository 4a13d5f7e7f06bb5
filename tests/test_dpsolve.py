import itertools
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from deltailp import dpsolve
from deltailp.dpsolve import (
    _default_chi,
    binary_decomposition,
    detect_unbounded,
    mu_params,
    sliding_min_cycle,
    sliding_min_path,
    solve_bilp_sf,
    solve_ilp_sf_unbounded,
)
from deltailp.intlinalg import IntMat, det, minor_stats
from deltailp.model import POS_INF, StandardInstance, is_feasible, objective_value
from deltailp.oracle import feasible_points


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


class TestSlidingMin:
    def test_cycle_capacity_zero(self):
        vals = [3, None, 1]
        assert sliding_min_cycle(vals, 5, 0) == vals

    def test_cycle_example(self):
        assert sliding_min_cycle([0, 10, 10], 1, 2) == [0, 1, 2]

    def test_cycle_all_equal(self):
        assert sliding_min_cycle([4, 4, 4, 4], 2, 3) == [4, 4, 4, 4]

    def test_path_identity_window(self):
        vals = [2, 0, None, 5]
        assert sliding_min_path(vals, 3, 0, 0) == vals

    def test_path_example(self):
        assert sliding_min_path([0, None, None], 2, 0, 2) == [0, 2, 4]

    def test_path_negative_window(self):
        # value at i may come from later indices via negative t
        vals = [None, None, None, 0]
        out = sliding_min_path(vals, 1, -3, 3)
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
        # lengths up to 40 against small windows make the deque pop from
        # the back and expire from the front; upper < 0 runs the padded
        # tail of the t < 0 pass
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
                assert sliding_min_cycle(vals, cost, cap) == self.naive(
                    vals, cost, 0, min(cap, l - 1), True
                )
            else:
                lo = rng.randint(-l - 2, 2)
                hi = rng.randint(lo, lo + 6 if rng.random() < 0.5 else l + 2)
                assert sliding_min_path(vals, cost, lo, hi) == self.naive(
                    vals, cost, lo, hi, False
                )


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

    def test_state_set_cardinality(self):
        from deltailp.dpsolve import _state_points

        inst = sf(2, 1, [[2, 3]], [[1, 1]], [1], [7], [0], [3, 2], [3, 5])
        radius = 5
        pts = _state_points(inst, radius)
        delta = minor_stats(inst.A).delta
        assert len(pts) <= (2 * radius + 1) ** inst.m * delta
        assert all(
            (v,) in set(pts)
            for v in range(-2 * radius, 2 * radius)
            if any(p[0] == v for p in pts)
        )


class TestDefaultChi:
    def test_exact_above_float_precision(self):
        # chi = 3 * Delta * |det S| for m = 1; a float would round it
        big = 2**53 + 1
        inst = sf(2, 1, [[1, 1]], [[0, 1]], [big], [0], [0], [1, 1], [1, 1])
        chi = _default_chi(inst)
        assert chi == 3 * big and isinstance(chi, int)


class TestMuParams:
    def test_small_row(self):
        p = mu_params(IntMat.from_rows([[2, 3]]))
        assert p.base == (1,) and p.base_det == 3
        assert p.kappa == 1
        assert p.mu == 12 and p.radius == 48


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
        dense = solve_ilp_sf_unbounded(inst, rho=8, dense=True)
        generic = solve_ilp_sf_unbounded(inst, rho=8, dense=False)
        assert dense.status == generic.status == "optimal"
        assert dense.value == generic.value

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
        # the generic path can take over a minute at the default rho, so both
        # paths run the same shallower doubling; their tables must then agree
        rng = random.Random(2024)
        for det_s in (1, 2, 3):
            for n in (2, 3, 3):
                inst = random_unbounded_m1(rng, n, det_s)
                assert inst.det_s == det_s
                dense = solve_ilp_sf_unbounded(inst, rho=6, dense=True)
                generic = solve_ilp_sf_unbounded(inst, rho=6, dense=False)
                assert dense.status == generic.status
                assert dense.value == generic.value
                assert dense.x == generic.x

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
        ref = [solve_ilp_sf_unbounded(i, rho=6, dense=True) for i in insts]
        monkeypatch.setattr(dpsolve, "_PAD_CELLS", 500)
        for inst, want in zip(insts, ref):
            got = solve_ilp_sf_unbounded(inst, rho=6, dense=True)
            assert (got.status, got.value, got.x) == (
                want.status, want.value, want.x
            )

    def test_large_costs_leave_the_int64_path(self):
        # max(c) * 2^rho >= 2^60 routes auto to the Python-int path
        scale = 2**55
        small = sf(2, 1, [[2, 3]], [[1, 1]], [2], [8], [1], [POS_INF] * 2, [1, 2])
        large = sf(
            2, 1, [[2, 3]], [[1, 1]], [2], [8], [1], [POS_INF] * 2,
            [scale, 2 * scale + 1],
        )
        ref = solve_ilp_sf_unbounded(small, rho=8, dense=True)
        auto = solve_ilp_sf_unbounded(large, rho=8)
        generic = solve_ilp_sf_unbounded(large, rho=8, dense=False)
        assert auto.status == generic.status == "optimal"
        assert auto.value == generic.value
        assert auto.x == generic.x == ref.x
        assert auto.value == objective_value(large, auto.x)
        assert auto.value == ref.value * scale + ref.x[1]
        with pytest.raises(ValueError):
            solve_ilp_sf_unbounded(large, rho=8, dense=True)

    def test_costs_just_under_the_limit_stay_dense(self, monkeypatch):
        # max(c) * 2^rho = 2^60 - 2^8: auto keeps the int64 path, whose
        # values must equal the Python-int ones
        rho, top = 8, 2**52 - 1
        inst = sf(
            2, 1, [[2, 3]], [[1, 1]], [2], [8], [1], [POS_INF] * 2,
            [top - 1, top],
        )
        generic = solve_ilp_sf_unbounded(inst, rho=rho, dense=False)

        def fail(*args, **kwargs):
            raise AssertionError("generic path used")

        monkeypatch.setattr(dpsolve, "_unbounded_dp_generic", fail)
        auto = solve_ilp_sf_unbounded(inst, rho=rho)
        assert auto.status == generic.status == "optimal"
        assert auto.value == generic.value
        assert auto.x == generic.x
        assert auto.value == objective_value(inst, auto.x)


class TestCertificates:
    # The witness and objective re-checks are explicit checks, so they must
    # still refuse a rejected witness when python -O strips asserts.
    SCRIPT = textwrap.dedent(
        """
        import sys
        from deltailp import dpsolve
        from deltailp.intlinalg import IntMat
        from deltailp.model import POS_INF, CertificateError, StandardInstance

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
            "optimize 1",
        ]
