"""End-to-end acceptance gate: twelve randomized cross-check suites, one
test (and one pass/fail line under ``pytest -v``) per criterion.

Every expected value comes from an independent oracle: exhaustive
enumeration, a classic textbook DP, or an exact identity checked per
instance.  Instance families are shaped so each oracle stays exact and the
whole gate runs in minutes; the shaping never relaxes a checked bound.
"""

import math
import time
from fractions import Fraction
from itertools import combinations, product

import pytest
from mpmath import iv

from deltailp.bounds import (
    mcmullen_xi,
    proximity_bound_bounded,
    rough_sparsity_coeffs,
    sparsity_bound,
    sparsity_constants,
)
from deltailp.cli import bench_knapsack_delta
from deltailp.dpsolve import detect_unbounded, solve_bilp_sf, solve_ilp_sf_unbounded
from deltailp.groupmin import cyclic_minplus_solve, gomory_solve, vertex_certificate
from deltailp.intlinalg import (
    IntMat,
    delta_gcd,
    det,
    hnf,
    minor_stats,
    rank,
    snf,
)
from deltailp.lp import solve_lp
from deltailp.model import (
    POS_INF,
    CanonicalInstance,
    GroupInstance,
    GroupSpec,
    StandardInstance,
    is_feasible,
)
from deltailp.oracle import (
    brute_force_group,
    brute_force_ilp,
    feasible_points,
    group_hull_vertices,
    hull_vertices,
)
from deltailp.reductions import IntegralInfeasible, cf_to_sf, classic_to_generalized, sf_to_cf
from deltailp.rng import stream
from deltailp.specials import knapsack_unbounded, locality_sampler, subset_sum_unbounded
from test_intlinalg import ref_adjugate


# ---------------------------------------------------------------------------
# shared generators


def random_unimodular(rnd, n, ops=5):
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


# per-m cap on sum(u): the DP state lattice is exponential in m, so large
# boxes are only affordable when few equality rows are present
_SUM_CAP = {0: 24, 1: 24, 2: 8, 3: 4}
_S_PATTERNS = ([8], [6], [4], [2, 2], [2, 4], [2, 2, 2], [1], [3], [5], [7])


def random_bounded_sf(rnd):
    """Random bounded generalized standard form instance within the
    criterion-1 family: n <= 8, m <= 3, |A|_max <= 4, |det S| <= 8, u <= 6,
    unimodular (A; G) stack, nonnegative costs."""
    while True:
        n = rnd.randint(1, 8)
        m = min(rnd.choice([0, 0, 0, 1, 1, 1, 2, 2, 3]), n)
        stack = random_unimodular(rnd, n)
        if max(abs(e) for r in stack for e in r) > 4:
            continue
        a_rows, g_rows = stack[:m], stack[m:]
        d = n - m
        if d:
            tail = rnd.choice([p for p in _S_PATTERNS if len(p) <= d])
            s_diag = [1] * (d - len(tail)) + tail
        else:
            s_diag = []
        u = [rnd.randint(0, 6) for _ in range(n)]
        while math.prod(v + 1 for v in u) > 20000 or sum(u) > _SUM_CAP[m]:
            u[rnd.randrange(n)] //= 2
        det_s = math.prod(s_diag) if s_diag else 1
        if m:
            zc = sum(1 for j in range(n) if all(r[j] == 0 for r in a_rows))
            h = sum(u) + 1 + m + zc * (det_s - 1)
            a_mat = IntMat.from_rows(a_rows)
            if m >= 2 and (2 * h + 1) ** m * minor_stats(a_mat).delta > 4000:
                continue
        x0 = [rnd.randint(0, ui) for ui in u]
        if m and rnd.random() < 0.8:
            b = [sum(r[j] * x0[j] for j in range(n)) for r in a_rows]
        else:
            b = [rnd.randint(-3, 3) for _ in range(m)]
        if d and rnd.random() < 0.8:
            g = [
                sum(r[j] * x0[j] for j in range(n)) % s_diag[i]
                for i, r in enumerate(g_rows)
            ]
        else:
            g = [rnd.randrange(s_diag[i]) for i in range(d)]
        c = [rnd.randint(0, 5) for _ in range(n)]
        return StandardInstance(
            n=n,
            m=m,
            A=IntMat.from_rows(a_rows) if m else None,
            G=IntMat.from_rows(g_rows) if d else None,
            S=IntMat.from_rows(
                [[s_diag[i] if i == j else 0 for j in range(d)] for i in range(d)]
            )
            if d
            else None,
            b=tuple(b),
            g=tuple(g),
            u=tuple(u),
            c=tuple(c),
        )


@pytest.fixture(scope="module")
def bounded_suite():
    """500 bounded instances shared by the bounded-oracle and proximity
    criteria."""
    rnd = stream(0, "acceptance:bounded")
    return [random_bounded_sf(rnd) for _ in range(500)]


def random_group_instance(rnd, work_cap=200_000):
    """Random group-minimization instance with |G| <= 64 and n <= 8, shaped
    so brute force over l1 radius |G| - 1 stays under the enumeration cap."""
    cyclic_orders = list(range(2, 65))
    noncyclic = (
        [2, 2],
        [2, 4],
        [2, 6],
        [2, 8],
        [3, 3],
        [4, 4],
        [2, 2, 2],
        [2, 2, 4],
        [2, 4, 8],
        [2, 2, 2, 2],
    )
    while True:
        if rnd.random() < 0.5:
            moduli = [rnd.choice(cyclic_orders)]
        else:
            moduli = list(rnd.choice(noncyclic))
        order = math.prod(moduli)
        n = rnd.randint(1, 8)
        if math.comb(order - 1 + n, n) > work_cap:
            continue
        gens = tuple(
            tuple(rnd.randrange(q) for q in moduli) for _ in range(n)
        )
        target = tuple(rnd.randrange(q) for q in moduli)
        costs = tuple(rnd.randint(0, 9) for _ in range(n))
        return GroupInstance(
            group=GroupSpec(tuple(moduli)),
            generators=gens,
            target=target,
            costs=costs,
            bounds=(POS_INF,) * n,
        )


@pytest.fixture(scope="module")
def group_suite():
    """320 group instances shared by the group-solver and certificate
    criteria, plus corner cases at the size limits."""
    rnd = stream(0, "acceptance:group")
    insts = [random_group_instance(rnd) for _ in range(314)]
    # force the |G| = 64 (cyclic and non-cyclic) and n = 8 extremes
    insts.append(
        GroupInstance(
            group=GroupSpec((64,)),
            generators=((3,), (10,), (17,)),
            target=(5,),
            costs=(2, 3, 1),
            bounds=(POS_INF,) * 3,
        )
    )
    insts.append(
        GroupInstance(
            group=GroupSpec((2, 4, 8)),
            generators=((1, 1, 1), (0, 3, 5)),
            target=(1, 2, 6),
            costs=(1, 2),
            bounds=(POS_INF,) * 2,
        )
    )
    rnd8 = stream(1, "acceptance:group:n8")
    for _ in range(4):
        insts.append(
            GroupInstance(
                group=GroupSpec((4,)),
                generators=tuple((rnd8.randrange(4),) for _ in range(8)),
                target=(rnd8.randrange(4),),
                costs=tuple(rnd8.randint(0, 9) for _ in range(8)),
                bounds=(POS_INF,) * 8,
            )
        )
    return insts


# ---------------------------------------------------------------------------
# criteria


def test_criterion_01_bounded_dp_matches_oracle(bounded_suite):
    t0 = time.monotonic()
    for i, inst in enumerate(bounded_suite):
        chi = sum(inst.u) + 1
        a = solve_bilp_sf(inst, chi=chi, variant="queue")
        b = solve_bilp_sf(inst, chi=chi, variant="binarized")
        ref = brute_force_ilp(inst, [(0, ui) for ui in inst.u])
        assert a.status == b.status == ref.status, f"instance {i}"
        if ref.status == "optimal":
            assert a.value == b.value == ref.value, f"instance {i}"
            assert is_feasible(inst, a.x) and is_feasible(inst, b.x)
    elapsed = time.monotonic() - t0
    assert elapsed <= 300.0, f"bounded suite took {elapsed:.1f}s (> 5 minutes)"


def test_criterion_02_unbounded_dp_matches_oracle():
    rnd = stream(0, "acceptance:unbounded")
    done = 0
    while done < 200:
        n = rnd.randint(2, 7)
        # m = 1 needs an enumerable proximity box, which caps it at n = 5;
        # m = 2 (the bounded DP on that box) is cross-checked in
        # test_dpsolve.py::TestUnboundedBoxRoute
        m = rnd.choice([0, 1]) if n <= 5 else 0
        while True:
            stack = random_unimodular(rnd, n)
            if max(abs(e) for r in stack for e in r) > 3:
                continue
            a_rows, g_rows = stack[:m], stack[m:]
            d = n - m
            s_diag = sorted(rnd.choice([1, 1, 2, 3, 6]) for _ in range(d))
            x0 = [rnd.randint(0, 2) for _ in range(n)]
            b = [sum(r[j] * x0[j] for j in range(n)) for r in a_rows]
            g = [
                sum(r[j] * x0[j] for j in range(n)) % s_diag[i]
                if rnd.random() < 0.8
                else rnd.randrange(s_diag[i])
                for i, r in enumerate(g_rows)
            ]
            c = [rnd.randint(0, 4) for _ in range(n)]
            inst = StandardInstance(
                n=n,
                m=m,
                A=IntMat.from_rows(a_rows) if m else None,
                G=IntMat.from_rows(g_rows) if d else None,
                S=IntMat.from_rows(
                    [
                        [s_diag[i] if i == j else 0 for j in range(d)]
                        for i in range(d)
                    ]
                )
                if d
                else None,
                b=tuple(b),
                g=tuple(g),
                u=(POS_INF,) * n,
                c=tuple(c),
            )
            if abs(inst.det_s) > 6:
                continue
            if m:
                lp = solve_lp(inst)
                if lp.status != "optimal":
                    continue
                delta = minor_stats(inst.A).delta
                chi = (m + 1) * (n + 1) * delta * abs(inst.det_s)
                box = [
                    (0, max(0, math.ceil(lp.vertex[k])) + chi) for k in range(n)
                ]
            else:
                box = [(0, abs(inst.det_s) - 1)] * n
            if math.prod(hi - lo + 1 for lo, hi in box) > 500_000:
                continue
            break
        out = solve_ilp_sf_unbounded(inst)
        ref = brute_force_ilp(inst, box)
        assert out.status == ref.status, f"instance {done}"
        if ref.status == "optimal":
            assert out.value == ref.value, f"instance {done}"
            assert is_feasible(inst, out.x)
        # unboundedness verdict vs an explicit recession-ray brute force
        assert out.status != "unbounded"
        has_ray = False
        for r in product(range(3), repeat=n):
            if not any(r):
                continue
            if inst.A is not None and any(v != 0 for v in inst.A.matvec(list(r))):
                continue
            if inst.G is not None and any(
                v % inst.S.entries[i][i]
                for i, v in enumerate(inst.G.matvec(list(r)))
            ):
                continue
            if sum(ci * ri for ci, ri in zip(inst.c, r)) < 0:
                has_ray = True
        assert has_ray is False
        assert detect_unbounded(inst)[0] is False
        done += 1


def test_criterion_03_group_solvers_match_brute_force(group_suite):
    assert len(group_suite) >= 300
    cyclic_seen = 0
    for i, inst in enumerate(group_suite):
        order = inst.group.order
        assert order <= 64 and inst.n <= 8
        out = gomory_solve(inst)
        ref = brute_force_group(inst, order - 1)
        assert out.status == ref.status, f"instance {i}"
        if ref.status == "optimal":
            assert out.value == ref.value, f"instance {i}"
        if len(inst.group.moduli) == 1:
            cyclic_seen += 1
            cyc = cyclic_minplus_solve(inst)
            assert cyc.status == out.status
            if out.status == "optimal":
                assert cyc.value == out.value
    assert cyclic_seen >= 100


def test_criterion_04_hull_vertices_pass_certificate(group_suite):
    polyhedra = 0
    vertices = 0
    from deltailp.oracle import group_feasible_points

    for inst in group_suite:
        order = inst.group.order
        if math.comb(order - 1 + inst.n, inst.n) > 20_000:
            continue
        # the exact convex-combination LP is quadratic in the candidate
        # count, so skip polyhedra with large enumerations
        if len(group_feasible_points(inst, order - 1)) > 40:
            continue
        verts = group_hull_vertices(inst)
        polyhedra += 1
        for v in verts:
            vertices += 1
            ok, prod = vertex_certificate(v, order)
            assert ok, (v, prod, order)
        if polyhedra >= 40:
            break
    assert polyhedra >= 30 and vertices >= 30


def test_criterion_05_proximity_bound_holds(bounded_suite):
    checked = 0
    for inst in bounded_suite:
        lp = solve_lp(inst)
        if lp.status != "optimal":
            continue
        pts = feasible_points(inst, [(0, ui) for ui in inst.u])
        if not pts:
            continue
        values = [sum(ci * xi for ci, xi in zip(inst.c, p)) for p in pts]
        best = min(values)
        optima = [p for p, v in zip(pts, values) if v == best]
        dist = min(
            sum(abs(Fraction(zi) - xi) for zi, xi in zip(z, lp.vertex))
            for z in optima
        )
        det_s = abs(inst.det_s)
        if inst.m == 0:
            bound = det_s - 1
        else:
            delta = minor_stats(inst.A).delta
            bound = proximity_bound_bounded(inst.m, delta, det_s)
        assert dist <= bound, (inst, dist, bound)
        checked += 1
    assert checked >= 400


def test_criterion_06_sparsity_bounds_on_hull_vertices():
    from deltailp.bounds import verify_instance_bounds

    rnd = stream(0, "acceptance:sparsity")
    done = 0
    lattice_checks = 0
    while done < 200:
        n = rnd.randint(2, 6)
        m = rnd.randint(1, 2)
        a = IntMat.from_rows(
            [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(n + m)]
        )
        if rank(a) != n:
            continue
        x0 = [rnd.randint(-2, 2) for _ in range(n)]
        ax0 = a.matvec(x0)
        b_l = tuple(v - rnd.randint(0, 3) for v in ax0)
        b_r = tuple(v + rnd.randint(0, 3) for v in ax0)
        c = tuple(rnd.randint(-3, 3) for _ in range(n))
        inst = CanonicalInstance(A=a, b_l=b_l, b_r=b_r, c=c)
        # crude exact enclosing box: for any base B, x = B^-1 (Bx) and
        # b_l <= Ax <= b_r bounds every |x_k| by the scaled adjugate row sums
        base = None
        for cmb in combinations(range(n + m), n):
            sub = a.take_rows(list(cmb))
            dsub = det(sub)
            if dsub != 0:
                base, sub_det = list(cmb), dsub
                break
        adj = ref_adjugate(a.take_rows(base))
        bigm = [max(abs(b_l[i]), abs(b_r[i])) for i in base]
        half = max(
            math.ceil(
                sum(abs(adj.entries[k][j]) * bigm[j] for j in range(n))
                / abs(sub_det)
            )
            for k in range(n)
        )
        box = [(-half, half)] * n
        if math.prod(hi - lo + 1 for lo, hi in box) > 4_000_000:
            continue
        pts = feasible_points(inst, box)
        if not 1 <= len(pts) <= 40:
            continue
        verts = hull_vertices(inst, box)
        report = verify_instance_bounds(inst, verts)
        sparsity = [
            e
            for e in report.entries
            if e.name in ("sparsity-lattice", "sparsity-closed-form")
        ]
        assert sparsity and all(e.passed for e in sparsity), report.as_table()
        lattice_checks += len(sparsity)
        done += 1
    assert lattice_checks >= 400


def test_criterion_07_normal_form_algebra():
    rnd = stream(0, "acceptance:normalform")
    done = 0
    kernel_pairs = 0
    while done < 1000:
        r = rnd.randint(1, 6)
        c = rnd.randint(1, r)
        a = IntMat.from_rows(
            [[rnd.randint(-9, 9) for _ in range(c)] for _ in range(r)]
        )
        if rank(a) != c:
            continue
        hres = hnf(a)
        assert hres.T.mul(hres.Q) == a
        assert abs(det(hres.Q)) == 1
        sres = snf(a)
        padded = IntMat.from_rows(
            sres.S.to_lists() + [[0] * c for _ in range(r - c)]
        )
        assert sres.P.mul(padded).mul(sres.Q) == a
        assert abs(det(sres.P)) == 1 and abs(det(sres.Q)) == 1
        diag = [sres.S.entries[i][i] for i in range(c)]
        for i in range(c - 1):
            assert diag[i + 1] % diag[i] == 0
        prod = 1
        for k in range(1, c + 1):
            prod *= diag[k - 1]
            assert prod == minor_stats(a, order=k).delta_gcd
        if r > c and kernel_pairs < 150:
            # kernel basis of a^T from the Smith form; the complementary
            # maximal minors of the pair satisfy the perpendicular identity
            p_inv = ref_adjugate(sres.P).scale(det(sres.P))
            bmat = IntMat.from_rows(
                [[p_inv.entries[i][j] for i in range(c, r)] for j in range(r)]
            )
            at_b = a.transpose().mul(bmat)
            assert all(e == 0 for row in at_b.entries for e in row)
            dg_a, dg_b = delta_gcd(a), delta_gcd(bmat)
            for rows_i in combinations(range(r), c):
                rows_j = tuple(sorted(set(range(r)) - set(rows_i)))
                lhs = dg_b * abs(det(a.take_rows(rows_i)))
                rhs = dg_a * abs(det(bmat.take_rows(rows_j)))
                assert lhs == rhs
            kernel_pairs += 1
        done += 1
    assert kernel_pairs >= 100


def test_criterion_08_reduction_round_trip():
    rnd = stream(0, "acceptance:reductions")

    def check_bijection(src, dst, rmap, src_pts, dst_pts):
        images = set()
        for x in src_pts:
            y = rmap.forward(x)
            assert y in dst_pts
            assert rmap.backward(y) == tuple(x)
            v = sum(ci * xi for ci, xi in zip(src.c, x))
            vhat = sum(ci * yi for ci, yi in zip(dst.c, y))
            assert Fraction(vhat) == rmap.objective_scale * v + rmap.objective_offset
            images.add(y)
        assert images == set(dst_pts)
        assert rmap.objective_scale != 0  # objective order is preserved

    done_cf = 0
    while done_cf < 100:
        n, m = rnd.randint(1, 3), rnd.randint(0, 2)
        while True:
            a = IntMat.from_rows(
                [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(n + m)]
            )
            if rank(a) == n:
                break
        x0 = [rnd.randint(-2, 2) for _ in range(n)]
        ax0 = a.matvec(x0)
        inst = CanonicalInstance(
            A=a,
            b_l=tuple(v - rnd.randint(0, 4) for v in ax0),
            b_r=tuple(v + rnd.randint(0, 4) for v in ax0),
            c=tuple(rnd.randint(-3, 3) for _ in range(n)),
        )
        dst, rmap = cf_to_sf(inst)
        stats = minor_stats(inst.A)
        assert dst.det_s == stats.delta_gcd
        if dst.A is not None:
            assert minor_stats(dst.A).delta == stats.delta // stats.delta_gcd
        # exact enclosing box of the source polytope via a nonsingular base
        base = next(
            cmb
            for cmb in combinations(range(n + m), n)
            if det(a.take_rows(list(cmb))) != 0
        )
        sub = a.take_rows(list(base))
        adj, sub_det = ref_adjugate(sub), det(sub)
        bigm = [
            max(abs(inst.b_l[i]), abs(inst.b_r[i])) for i in base
        ]
        half = max(
            math.ceil(
                sum(abs(adj.entries[k][j]) * bigm[j] for j in range(n))
                / abs(sub_det)
            )
            for k in range(n)
        )
        if (2 * half + 1) ** n > 4_000_000:
            continue
        src_pts = feasible_points(inst, [(-half, half)] * n)
        dst_pts = feasible_points(dst, [(0, ui) for ui in dst.u])
        check_bijection(inst, dst, rmap, src_pts, dst_pts)
        done_cf += 1

    done_sf = 0
    while done_sf < 100:
        n = rnd.randint(2, 4)
        a = IntMat.from_rows([[rnd.randint(0, 3) for _ in range(n)]])
        if rank(a) < 1:
            continue
        x0 = [rnd.randint(0, 2) for _ in range(n)]
        b = a.matvec(x0)
        u = tuple(x + rnd.randint(1, 3) for x in x0)
        c = tuple(rnd.randint(0, 4) for _ in range(n))
        try:
            inst, _ = classic_to_generalized(a, b, c, u)
        except IntegralInfeasible:
            continue
        dst, rmap = sf_to_cf(inst)
        if dst is None:
            continue
        src_delta = minor_stats(inst.A).delta if inst.A is not None else 1
        stats = minor_stats(dst.A)
        assert stats.delta == src_delta * inst.det_s
        assert stats.delta_gcd == inst.det_s
        src_pts = feasible_points(inst, [(0, ui) for ui in inst.u])
        half = (
            1
            + max((abs(v) for v in dst.b_r), default=1)
            + sum(sum(abs(e) for e in r) for r in dst.A.entries)
        )
        dst_pts = feasible_points(dst, [(-half, half)] * dst.n)
        check_bijection(inst, dst, rmap, src_pts, dst_pts)
        done_sf += 1


def test_criterion_09_knapsack_matches_capacity_dp():
    rnd = stream(0, "acceptance:knapsack")
    group_path = 0
    for i in range(250):
        n = rnd.randint(1, 6)
        w = tuple(rnd.randint(1, 50) for _ in range(n))
        c = tuple(rnd.randint(1, 30) for _ in range(n))
        if rnd.random() < 0.5:
            # bias toward the group-reduction regime W >= w_opt^2
            cap = rnd.randint(min(v * v for v in w), 2500)
        else:
            cap = rnd.randint(0, 300)
        auto = knapsack_unbounded(w, c, cap, method="auto")
        ref = knapsack_unbounded(w, c, cap, method="capacity")
        assert auto.value == ref.value, (w, c, cap)
        assert auto.status == ref.status == "optimal"
        if auto.certificate["path"] == "group":
            group_path += 1
    assert group_path >= 50

    for i in range(250):
        n = rnd.randint(1, 6)
        w = tuple(rnd.randint(1, 50) for _ in range(n))
        target = rnd.randint(0, 2500)
        out = subset_sum_unbounded(w, target)
        # reachability DP oracle
        reach = [True] + [False] * target
        for t in range(1, target + 1):
            reach[t] = any(t >= wi and reach[t - wi] for wi in w)
        assert (out.status == "optimal") == reach[target], (w, target)
        if out.status == "optimal":
            assert sum(wi * xi for wi, xi in zip(w, out.x)) == target


def test_criterion_10_knapsack_delta_runtime_trend():
    res = bench_knapsack_delta(n=50, deltas=(50, 100), repeats=20, seed=0)
    assert res["ratio"] <= 6.0, res


def test_criterion_11_locality_fraction_non_decreasing():
    a = IntMat.from_rows(
        [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3]]
    )
    assert minor_stats(a).delta <= 6
    rows = locality_sampler(a, [10, 100, 1000], samples=2000, seed=0)
    fractions = [r["fraction"] for r in rows]
    assert all(f is not None for f in fractions)
    assert fractions[0] <= fractions[1] <= fractions[2], fractions


# The published rough forms c1'*m + c2'*log2(delta) of the closed-form
# sparsity bound, for k = 3 and k = 100, as written.
PUBLISHED_ROUGH_SPARSITY = {
    3: (Fraction("2.81"), Fraction("1.18")),
    100: (Fraction(15), 1 + Fraction(1, 138)),
}


def _exact(x):
    man, exp = x.man_exp
    return man * Fraction(2) ** exp


def _iv(q):
    return iv.mpf(q.numerator) / q.denominator


def test_criterion_12_formula_fixtures():
    assert mcmullen_xi(3, 4) == 4
    for n in range(1, 9):
        assert mcmullen_xi(n, n + 1) == n + 1
    # No k makes rough_sparsity_coeffs equal a published pair: c2' = 1.18
    # needs k ~ 2.786, which gives c1' ~ 2.547, and at c2' = 1 + 1/138 even
    # the smallest valid c1' is ~4.873.  The pairs are loosened bounds.  What
    # each statement needs is that n <= c1'*m + c2'*log2(delta) follows from
    # the closed form for all m >= 1, delta >= 1, and that the pair is at
    # least the displayed one for its k.  Intervals are 128-bit (set by
    # deltailp.bounds) and only lower endpoints of a - need are trusted.
    c1, c2 = sparsity_constants()
    ln4 = iv.log(4)
    for k, (a, b) in PUBLISHED_ROUGH_SPARSITY.items():
        # with t = c2 + log2(delta)/m the closed form is at most
        # a*m + b*log2(delta) iff c1 + log2(t)/2 - (b-1)*(t-c2) <= a for
        # all t >= c2; the left side peaks at t0 = 1/((b-1)*ln 4)
        t0 = 1 / ((_iv(b) - 1) * ln4)
        assert (t0 - c2).a >= 0, (k, t0)
        need = c1 + iv.log(t0) / iv.log(2) / 2 - 1 / ln4 + (_iv(b) - 1) * c2
        assert (_iv(a) - need).a > 0, (k, a, need)
        for m in (1, 2, 3, 5, 8):
            jstar = int((m * (t0 - c2)).mid)
            for j in (0, 1, jstar - 1, jstar, jstar + 1, 2 * jstar):
                assert _exact(sparsity_bound(m, 2**j)) <= a * m + b * j, (k, m, j)
        ra, rb = rough_sparsity_coeffs(c1, c2, k)
        assert a >= _exact(ra) and b >= _exact(rb), (k, ra, rb)
