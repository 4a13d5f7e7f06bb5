import math
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

from deltailp import specials
from deltailp.cli import _fmt
from deltailp.groupmin import gomory_solve
from deltailp.intlinalg import IntMat, det, minor_stats, rank, snf
from deltailp.model import (
    NEG_INF,
    POS_INF,
    CanonicalInstance,
    GroupInstance,
    GroupSpec,
    SolveOutcome,
)
from deltailp.oracle import brute_force_ilp
from deltailp.rng import stream
from deltailp.specials import (
    _corner_max,
    knapsack_unbounded,
    locality_sampler,
    locality_table,
    locality_test,
    simplex_feasibility,
    solve_local,
    subset_sum_unbounded,
)
from test_intlinalg import inverse_times, ref_adjugate


def one_sided(rows, b, c):
    a = IntMat.from_rows(rows)
    return CanonicalInstance(
        A=a, b_l=(NEG_INF,) * a.rows, b_r=tuple(b), c=tuple(c)
    )


class TestLocalityTest:
    def test_square_base_vacuous(self):
        inst = one_sided([[2, 0], [1, 3]], (1, 2), (1, 1))
        assert locality_test(inst, (0, 1))

    def test_unimodular_iff_vertex_feasible(self):
        rows = [[1, 0], [0, 1], [1, 1]]
        assert minor_stats(IntMat.from_rows(rows)).delta == 1
        assert locality_test(one_sided(rows, (0, 0, 5), (1, 1)), (0, 1))
        assert not locality_test(one_sided(rows, (0, 0, -1), (1, 1)), (0, 1))

    def test_boundary_slack(self):
        rows = [[1, 0], [0, 1], [1, 2]]
        assert minor_stats(IntMat.from_rows(rows)).delta == 2
        assert locality_test(one_sided(rows, (0, 0, 1), (1, 1)), (0, 1))
        assert not locality_test(one_sided(rows, (0, 0, 0), (1, 1)), (0, 1))

    def test_two_sided_rejected(self):
        inst = CanonicalInstance(
            A=IntMat.from_rows([[1, 0], [0, 1]]),
            b_l=(0, 0),
            b_r=(1, 1),
            c=(1, 1),
        )
        with pytest.raises(ValueError):
            locality_test(inst, (0, 1))

    def test_singular_base_rejected(self):
        inst = one_sided([[1, 0], [2, 0], [0, 1]], (1, 2, 3), (1, 1))
        with pytest.raises(ValueError):
            locality_test(inst, (0, 1))


class TestSolveLocal:
    def test_integer_vertex(self):
        inst = one_sided([[2, 0], [1, 3]], (4, 5), (1, 1))
        out = solve_local(inst, (0, 1))
        assert out.status == "optimal"
        assert out.x == (2, 1) and out.value == 3
        assert out.certificate["corner_slack"] == (0, 0)

    def test_corner_matches_brute_force(self):
        inst = one_sided([[2, 0], [1, 3]], (1, 2), (1, 1))
        out = solve_local(inst, (0, 1))
        ref = brute_force_ilp(inst, [(-10, 2), (-10, 2)])
        assert out.status == "optimal" == ref.status
        assert out.value == ref.value

    def test_outside_cone_unbounded(self):
        inst = one_sided([[1, 0], [0, 1]], (3, 3), (-1, 0))
        out = solve_local(inst, (0, 1))
        assert out.status == "unbounded"

    def test_singular_base_message(self):
        inst = one_sided([[1, 0], [2, 0], [0, 1]], (1, 2, 3), (1, 1))
        for check in (locality_test, solve_local):
            with pytest.raises(ValueError, match="^base rows are singular, no vertex$"):
                check(inst, (0, 1))

    def test_local_instances_solved_globally(self):
        rng = random.Random(77)
        done = 0
        while done < 10:
            a_rows = [[rng.randint(-2, 2) for _ in range(2)] for _ in range(3)]
            a = IntMat.from_rows(a_rows)
            if rank(a) != 2 or det(a.take_rows([0, 1])) == 0:
                continue
            a_b = a.take_rows([0, 1])
            mu = (rng.randint(0, 3), rng.randint(0, 3))
            if mu == (0, 0):
                continue
            c = tuple(
                mu[0] * a_rows[0][k] + mu[1] * a_rows[1][k] for k in range(2)
            )
            b_b = [rng.randint(-4, 4), rng.randint(-4, 4)]
            v = inverse_times(a_b, b_b)
            delta = minor_stats(a).delta
            av2 = sum(Fraction(a_rows[2][k]) * v[k] for k in range(2))
            b2 = math.ceil(av2) + delta
            inst = one_sided(a_rows, (b_b[0], b_b[1], b2), c)
            assert locality_test(inst, (0, 1))
            out = solve_local(inst, (0, 1))
            assert out.status == "optimal"
            assert all(out.certificate["checks"].values()), out.certificate
            box = [
                (math.floor(v[k]) - delta - 1, math.ceil(v[k]) + delta + 1)
                for k in range(2)
            ]
            ref = brute_force_ilp(inst, box)
            assert ref.status == "optimal"
            assert out.value == ref.value
            done += 1


class TestSimplexFeasibility:
    def test_origin_simplex(self):
        a = IntMat.from_rows([[-1, 0], [0, -1], [1, 1]])
        out = simplex_feasibility(a, (0, 0, 1))
        assert out.status == "optimal"
        az = a.matvec(list(out.x))
        assert all(q <= r for q, r in zip(az, (0, 0, 1)))

    def test_empty_triangle(self):
        a = IntMat.from_rows([[-2, 0], [0, -2], [2, 2]])
        out = simplex_feasibility(a, (-1, -1, 3))
        assert out.status == "infeasible"

    def test_unbounded_rejected(self):
        a = IntMat.from_rows([[1, 0], [0, 1], [1, 1]])
        with pytest.raises(ValueError):
            simplex_feasibility(a, (1, 1, 1))

    def test_singular_base_rejected(self):
        a = IntMat.from_rows([[1, 0], [0, 1], [-1, 0]])
        with pytest.raises(ValueError):
            simplex_feasibility(a, (1, 1, 1))

    def test_random_3d_matches_brute_force(self):
        rng = random.Random(131)
        done = 0
        while done < 8:
            rows = [[rng.randint(-2, 2) for _ in range(3)] for _ in range(4)]
            a = IntMat.from_rows(rows)
            if rank(a) != 3:
                continue
            try:
                b = tuple(rng.randint(-4, 6) for _ in range(4))
                out = simplex_feasibility(a, b)
            except ValueError:
                continue
            if minor_stats(a).delta > 6:
                continue
            # bounding box from the four simplex vertices
            los = [None] * 3
            his = [None] * 3
            for drop in range(4):
                sub = a.take_rows([i for i in range(4) if i != drop])
                v = inverse_times(sub, [b[i] for i in range(4) if i != drop])
                for k in range(3):
                    lo, hi = math.floor(v[k]), math.ceil(v[k])
                    los[k] = lo if los[k] is None else min(los[k], lo)
                    his[k] = hi if his[k] is None else max(his[k], hi)
            found = False
            for x0 in range(los[0], his[0] + 1):
                for x1 in range(los[1], his[1] + 1):
                    for x2 in range(los[2], his[2] + 1):
                        az = a.matvec([x0, x1, x2])
                        if all(q <= r for q, r in zip(az, b)):
                            found = True
            assert (out.status == "optimal") == found
            if found:
                az = a.matvec(list(out.x))
                assert all(q <= r for q, r in zip(az, b))
            done += 1


def force_corner_slack(monkeypatch, slack):
    """Make the corner group DP answer ``slack``: a feasible group solution,
    in the right residue class, that is not the optimum."""

    def corner_group(inst):
        value = sum(q * y for q, y in zip(inst.costs, slack))
        return SolveOutcome(status="optimal", x=slack, value=value)

    monkeypatch.setattr(specials, "gomory_solve", corner_group)


class TestChecksFail:
    # Each witness breaks its key's bound by so little that the bound with
    # the wrong |det A_B| scaling, or one unit looser, would accept it.
    LOCAL = {  # key: (A rows, b_r, c, corner slack) at the base (0, 1)
        "move_l0": ([[0, -1], [-3, 0], [2, 3]], (2, 1, -3), (-6, -1), (1, 1)),
        "move_l1": ([[1, -3], [0, 2], [3, -2]], (-4, 4, 0), (2, -6), (2, 0)),
        "move_linf": ([[-1, -1], [-1, 1], [1, 1]], (-3, 3, -3), (-3, 1), (0, 2)),
        "residual_l0": ([[0, 1], [3, -2], [-2, 2]], (-3, -3, -3), (3, 0), (1, 1)),
        "residual_l1": ([[2, -2], [-3, 1]], (2, 0), (-1, -1), (2, 2)),
        "residual_linf": ([[1, 0], [-1, -2], [1, 2]], (4, 4, -4), (0, -2), (2, 0)),
        "face_dimension": ([[0, 2], [-1, 0], [1, 2]], (1, 3, -2), (-1, 2), (1, 1)),
    }
    # key: (A rows, b, corner slack, verdict).  residual_l0 can only read
    # False on the infeasible verdict: on a feasible one the same bound
    # raises CertificateError.
    SIMPLEX = {
        "move_l0": ([[-1, 3], [2, 3], [-1, -3]], (2, 6, -3), (1, 1), "optimal"),
        "move_l1": ([[-2, 0], [3, 2], [0, -1]], (0, -2, 4), (2, 0), "optimal"),
        "move_linf": ([[2, 2], [2, -2], [-2, -1]], (6, 3, -3), (0, 2), "optimal"),
        "residual_l0": ([[2, 0], [-2, 3], [-3, -1]], (-3, -4, -3), (1, 1), "infeasible"),
    }

    @pytest.mark.parametrize("key", sorted(LOCAL))
    def test_solve_local(self, monkeypatch, key):
        rows, b, c, slack = self.LOCAL[key]
        inst = one_sided(rows, b, c)
        best = solve_local(inst, (0, 1))
        assert all(best.certificate["checks"].values())
        force_corner_slack(monkeypatch, slack)
        out = solve_local(inst, (0, 1))
        assert out.certificate["corner_slack"] == slack
        assert out.value < best.value
        assert out.certificate["checks"][key] is False

    @pytest.mark.parametrize("key", sorted(SIMPLEX))
    def test_simplex_feasibility(self, monkeypatch, key):
        rows, b, slack, verdict = self.SIMPLEX[key]
        a = IntMat.from_rows(rows)
        best = simplex_feasibility(a, b)
        assert all(best.certificate["checks"].values())
        force_corner_slack(monkeypatch, slack)
        out = simplex_feasibility(a, b)
        assert out.status == best.status == verdict
        assert out.certificate["corner_minimum"] > best.certificate["corner_minimum"]
        assert out.certificate["checks"][key] is False


class TestSubsetSum:
    def test_three_five_seven_infeasible(self):
        assert subset_sum_unbounded((3, 5), 7).status == "infeasible"

    def test_two_three_seven_feasible(self):
        out = subset_sum_unbounded((2, 3), 7)
        assert out.status == "optimal"
        assert 2 * out.x[0] + 3 * out.x[1] == 7

    def test_zero_target(self):
        out = subset_sum_unbounded((4, 9), 0)
        assert out.status == "optimal" and out.x == (0, 0)

    def test_single_item(self):
        assert subset_sum_unbounded((4,), 8).x == (2,)
        assert subset_sum_unbounded((4,), 6).status == "infeasible"

    def test_matches_brute_force(self):
        rng = random.Random(909)
        for _ in range(40):
            n = rng.randint(1, 3)
            w = tuple(rng.randint(1, 9) for _ in range(n))
            target = rng.randint(1, 40)
            reach = {0}
            for q in range(1, target + 1):
                if any(wi <= q and (q - wi) in reach for wi in w):
                    reach.add(q)
            out = subset_sum_unbounded(w, target)
            assert (out.status == "optimal") == (target in reach)
            if out.status == "optimal":
                assert sum(wi * xi for wi, xi in zip(w, out.x)) == target
                l0 = sum(1 for xi in out.x if xi)
                assert min(w) >= 1 << max(0, l0 - 1)


class TestKnapsack:
    def test_single_item(self):
        out = knapsack_unbounded((3,), (5,), 10)
        assert out.value == 15 and out.x == (3,)
        assert out.certificate["path"] == "group"

    def test_group_equals_capacity(self):
        a = knapsack_unbounded((2, 3), (3, 5), 100, method="group")
        b = knapsack_unbounded((2, 3), (3, 5), 100, method="capacity")
        assert a.value == b.value

    def test_tiny_capacity(self):
        out = knapsack_unbounded((4, 5), (7, 8), 3)
        assert out.value == 0 and out.x == (0, 0)

    def test_group_needs_large_capacity(self):
        with pytest.raises(ValueError):
            knapsack_unbounded((5, 7), (9, 11), 10, method="group")

    def test_matches_capacity_dp(self):
        rng = random.Random(515)
        for _ in range(40):
            n = rng.randint(1, 3)
            w = tuple(rng.randint(1, 8) for _ in range(n))
            c = tuple(rng.randint(1, 9) for _ in range(n))
            cap = rng.randint(1, 80)
            out = knapsack_unbounded(w, c, cap)
            ref = knapsack_unbounded(w, c, cap, method="capacity")
            assert out.value == ref.value
            assert sum(wi * xi for wi, xi in zip(w, out.x)) <= cap
            assert sum(ci * xi for ci, xi in zip(c, out.x)) == out.value


class TestSampler:
    def test_unimodular_all_local(self):
        a = IntMat.identity(2)
        rows = locality_sampler(a, [3], samples=25, seed=5)
        assert rows[0]["feasible"] == 25
        assert rows[0]["local"] == 25
        assert rows[0]["fraction"] == 1

    def test_deterministic(self):
        a = IntMat.from_rows([[1, 0], [0, 1], [1, 2]])
        r1 = locality_sampler(a, [2, 10], samples=20, seed=42)
        r2 = locality_sampler(a, [2, 10], samples=20, seed=42)
        assert r1 == r2

    def test_fraction_trend(self):
        a = IntMat.from_rows([[1, 0], [0, 1], [1, 2]])
        rows = locality_sampler(a, [2, 50], samples=40, seed=7)
        fracs = [r["fraction"] for r in rows if r["fraction"] is not None]
        assert len(fracs) == 2
        assert fracs[0] <= fracs[1]

    def test_table_format(self):
        a = IntMat.identity(2)
        rows = locality_sampler(a, [2], samples=5, seed=1)
        text = locality_table(rows)
        assert "feasible" in text and "fraction" in text
        assert len(text.splitlines()) == 2


def ref_corner(a_b, b_b, c):
    """Fraction reference for the corner optimum: A_B^{-1} applied as
    Fractions, and the same group problem.  None when c is outside
    cone(A_B^T); else (z, y, v = A_B^{-1} b_B, |det A_B|, group value)."""
    n = a_b.rows
    delta_b = abs(det(a_b))
    chat = inverse_times(a_b.transpose(), c)
    if any(q < 0 for q in chat):
        return None
    fact = snf(a_b)
    moduli = tuple(fact.S.entries[i][i] for i in range(n))
    inv_p = ref_adjugate(fact.P).scale(det(fact.P))
    out = gomory_solve(
        GroupInstance(
            group=GroupSpec(moduli),
            generators=tuple(
                tuple(inv_p.entries[k][i] % moduli[k] for k in range(n)) for i in range(n)
            ),
            target=tuple(t % q for t, q in zip(inv_p.matvec(list(b_b)), moduli)),
            costs=tuple(int(q * delta_b) for q in chat),
            bounds=(POS_INF,) * n,
        )
    )
    z = inverse_times(a_b, [bi - yi for bi, yi in zip(b_b, out.x)])
    assert all(q.denominator == 1 for q in z)
    return tuple(int(q) for q in z), out.x, inverse_times(a_b, b_b), delta_b, out.value


def ref_norms(vec):
    return (
        sum(1 for q in vec if q != 0),
        sum(abs(Fraction(q)) for q in vec),
        max((abs(Fraction(q)) for q in vec), default=Fraction(0)),
    )


def log2_at_most(count, bound, extra=0):
    return bound >= 1 << max(0, count - extra)


def ref_local(inst, base):
    """Fraction reference for locality_test: every non-base slack at the
    base vertex is at least Delta - 1."""
    idx = tuple(sorted(base))
    a = inst.A
    v = inverse_times(a.take_rows(list(idx)), [inst.b_r[i] for i in idx])
    delta = minor_stats(a).delta
    slack = [
        inst.b_r[i] - sum(aik * vk for aik, vk in zip(a.entries[i], v))
        for i in range(a.rows)
        if i not in idx
    ]
    return all(q >= delta - 1 for q in slack), slack


def ref_solve_local(inst, base):
    """Fraction reference for solve_local: the witness, its value and the
    certificate, every bound compared over the rationals."""
    idx = tuple(sorted(base))
    a = inst.A
    n, m = inst.n, a.rows - inst.n
    res = ref_corner(a.take_rows(list(idx)), [inst.b_r[i] for i in idx], inst.c)
    if res is None:
        return None
    z, y, v, delta_b, group_value = res
    delta = minor_stats(a).delta
    move = [sum(a.entries[i][k] * (v[k] - z[k]) for k in range(n)) for i in range(a.rows)]
    assert all(abs(move[i]) <= delta - 1 for i in range(a.rows) if i not in idx)
    az = a.matvec(list(z))
    resid = [inst.b_r[i] - az[i] for i in range(a.rows)]
    local, slack = ref_local(inst, idx)
    y_l0, y_l1, y_linf = ref_norms(y)
    m_l0, m_l1, m_linf = ref_norms(move)
    r_l0, r_l1, r_linf = ref_norms(resid)
    s_l1 = sum(abs(q) for q in slack)
    s_linf = max((abs(q) for q in slack), default=Fraction(0))
    cert = {
        "base": idx,
        "delta": delta,
        "delta_base": delta_b,
        "group_value": group_value,
        "corner_slack": tuple(y),
        "slack_l0": y_l0,
        "slack_l1": y_l1,
        "slack_linf": y_linf,
        "local": local,
        "checks": {
            "move_l0": log2_at_most(m_l0, delta_b, extra=m),
            "move_l1": m_l1 <= (delta_b - 1) + m * (delta - 1),
            "move_linf": m_linf <= delta - 1,
            "residual_l0": log2_at_most(r_l0, delta_b, extra=m),
            "residual_l1": r_l1 <= (delta_b - 1) + m * (delta - 1) + s_l1,
            "residual_linf": r_linf <= delta - 1 + s_linf,
            "face_dimension": log2_at_most(y_l0, delta_b),
        },
    }
    return z, sum(ci * zi for ci, zi in zip(inst.c, z)), cert


def random_corners(seed, count):
    """(instance, base) pairs: one-sided systems with n in {1, 2, 3} and up to
    two extra rows, a random nonsingular base, and c in cone(A_B^T) three
    times in four."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, m = rng.randint(1, 3), rng.randint(0, 2)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n + m)]
        a = IntMat.from_rows(rows)
        bases = [bs for bs in combinations(range(n + m), n) if det(a.take_rows(bs)) != 0]
        if not bases:
            continue
        base = rng.choice(bases)
        if rng.random() < 0.75:
            lam = [rng.randint(0, 3) for _ in range(n)]
            c = [sum(lj * rows[i][k] for lj, i in zip(lam, base)) for k in range(n)]
        else:
            c = [rng.randint(-3, 3) for _ in range(n)]
        b = [rng.randint(-6, 6) for _ in range(n + m)]
        out.append((one_sided(rows, b, c), base))
    return out


class TestIntegerCorner:
    # the corner solver works on integer numerators over |det A_B|; a
    # Fraction reference gives the same answers and the same certificate
    def test_corner_max_matches_reference(self):
        signs, dets, bounded = set(), set(), 0
        for inst, base in random_corners(3, 150):
            a_b = inst.A.take_rows(list(base))
            b_b = [inst.b_r[i] for i in base]
            got, want = _corner_max(a_b, b_b, inst.c), ref_corner(a_b, b_b, inst.c)
            if want is None:
                assert got is None
                continue
            z, y, v, delta_b, value = got
            assert (z, y, delta_b, value) == (want[0], want[1], want[3], want[4])
            assert tuple(Fraction(q, delta_b) for q in v) == want[2]
            signs.add(det(a_b) > 0)
            dets.add(delta_b)
            bounded += 1
        assert signs == {True, False} and max(dets) > 1 and bounded >= 80

    def test_solve_local_and_locality_match_reference(self):
        seen = set()
        for inst, base in random_corners(5, 150):
            out = solve_local(inst, base)
            want = ref_solve_local(inst, base)
            assert locality_test(inst, base) == ref_local(inst, base)[0]
            if want is None:
                assert out.status == "unbounded"
                seen.add("unbounded")
                continue
            x, value, cert = want
            assert out.status == "optimal"
            assert (out.x, out.value) == (x, value)
            assert out.certificate.keys() == cert.keys()
            for key, ref in cert.items():
                assert out.certificate[key] == ref, key
                assert _fmt(out.certificate[key]) == _fmt(ref), key
            seen.add(cert["local"])
        assert seen == {"unbounded", True, False}


def ref_locality_sampler(a, t_grid, samples, seed):
    """Fraction reference for locality_sampler: each base vertex as
    A_B^{-1} b_B over the rationals."""
    n = a.cols
    delta = minor_stats(a).delta
    bases = []
    for cmb in combinations(range(a.rows), n):
        sub = a.take_rows(list(cmb))
        d = det(sub)
        if d != 0:
            adj = ref_adjugate(sub)
            inv = [[Fraction(adj.entries[i][j], d) for j in range(n)] for i in range(n)]
            bases.append((cmb, inv, [i for i in range(a.rows) if i not in cmb]))
    rows = []
    for t in t_grid:
        rnd = stream(seed, f"locality-sampler:t={t}")
        feasible = local = 0
        for _ in range(samples):
            b = [rnd.randint(-t, t) for _ in range(a.rows)]
            any_feasible, all_local = False, True
            for cmb, inv, outside in bases:
                v = [sum(inv[k][j] * b[cmb[j]] for j in range(n)) for k in range(n)]
                av = [sum(a.entries[i][k] * v[k] for k in range(n)) for i in range(a.rows)]
                if any(av[i] > b[i] for i in range(a.rows)):
                    continue
                any_feasible = True
                if any(b[i] - av[i] < delta - 1 for i in outside):
                    all_local = False
                    break
            if any_feasible:
                feasible += 1
                local += all_local
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


class TestSamplerReference:
    def test_criterion_11_matrix(self):
        a = IntMat.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, 3]])
        args = (a, [1, 3, 10, 100, 1000], 60, 0)
        rows = locality_sampler(*args)
        assert rows == ref_locality_sampler(*args)
        assert 0 < rows[1]["local"] < rows[1]["feasible"]


class TestChecksUnderOptimize:
    # the corner and knapsack solvers check the group optimum explicitly, so
    # a failed group solve is refused when python -O strips asserts
    SCRIPT = textwrap.dedent(
        """
        import sys
        from deltailp import specials
        from deltailp.intlinalg import IntMat
        from deltailp.model import CertificateError, SolveOutcome

        def refused(solve, *args):
            try:
                out = solve(*args)
            except CertificateError as exc:
                return str(exc)
            return f"accepted: {out}"

        specials.gomory_solve = lambda inst: SolveOutcome.infeasible()
        specials.cyclic_minplus_solve = lambda inst: SolveOutcome.infeasible()
        print(refused(specials._corner_max, IntMat.from_rows([[2, 0], [1, 3]]), [1, 2], [1, 1]))
        print(refused(specials.knapsack_unbounded, [3, 5], [4, 7], 100, "group"))
        print("optimize", sys.flags.optimize)
        """
    )

    def test_failed_group_solve_raises_under_optimize(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        assert run.stdout.splitlines() == [
            "the corner group problem reported no optimum",
            "the knapsack group problem reported no optimum",
            "optimize 1",
        ]
