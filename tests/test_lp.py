import itertools
import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

from deltailp.intlinalg import IntMat, det, rank
from deltailp.model import (
    NEG_INF,
    POS_INF,
    CanonicalInstance,
    StandardInstance,
    is_finite,
)
from deltailp.lp import solve_lp
from deltailp.oracle import _dense_ineq_lp
from test_intlinalg import inverse_times


def feasible_cf(inst, x):
    ax = [
        sum(Fraction(inst.A.entries[i][j]) * x[j] for j in range(inst.n))
        for i in range(inst.A.rows)
    ]
    return all(
        (not is_finite(lo) or lo <= v) and v <= hi
        for lo, v, hi in zip(inst.b_l, ax, inst.b_r)
    )


def enumerate_basic_solutions(inst):
    """Oracle: every feasible basic solution of the canonical relaxation."""
    n = inst.n
    out = []
    for rows in itertools.combinations(range(inst.A.rows), n):
        sub = inst.A.take_rows(rows)
        if det(sub) == 0:
            continue
        sides = []
        for i in rows:
            opts = [inst.b_r[i]]
            if is_finite(inst.b_l[i]):
                opts.append(inst.b_l[i])
            sides.append(opts)
        for combo in itertools.product(*sides):
            v = inverse_times(sub, combo)
            if feasible_cf(inst, v):
                out.append(v)
    return out


class TestCanonical:
    def test_1d(self):
        inst = CanonicalInstance(
            A=IntMat.from_rows([[1]]), b_l=(NEG_INF,), b_r=(5,), c=(1,)
        )
        out = solve_lp(inst)
        assert out.status == "optimal"
        assert out.vertex == (Fraction(5),)
        assert out.base == (0,)

    def test_box_corner(self):
        inst = CanonicalInstance(
            A=IntMat.from_rows([[1, 0], [0, 1]]),
            b_l=(0, 0),
            b_r=(1, 1),
            c=(1, 1),
        )
        out = solve_lp(inst)
        assert out.vertex == (Fraction(1), Fraction(1))
        assert out.objective == 2

    def test_unbounded(self):
        inst = CanonicalInstance(
            A=IntMat.from_rows([[1]]), b_l=(0,), b_r=(10**6,), c=(-1,)
        )
        # minimize x over x >= 0 written as max -x: bounded; flip to get
        # a genuinely unbounded direction instead
        inst = CanonicalInstance(
            A=IntMat.from_rows([[-1]]), b_l=(NEG_INF,), b_r=(0,), c=(1,)
        )
        assert solve_lp(inst).status == "unbounded"

    def test_infeasible(self):
        inst = CanonicalInstance(
            A=IntMat.from_rows([[1], [-1]]), b_l=(NEG_INF, NEG_INF), b_r=(0, -1), c=(1,)
        )
        assert solve_lp(inst).status == "infeasible"

    def test_random_matches_basic_enumeration(self):
        rng = random.Random(31)
        done = 0
        while done < 40:
            n = rng.randint(1, 3)
            m = rng.randint(0, 2)
            a = IntMat.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n + m)]
            )
            if rank(a) < n:
                continue
            b_l = tuple(rng.randint(-6, 0) for _ in range(n + m))
            b_r = tuple(lo + rng.randint(0, 7) for lo in b_l)
            c = tuple(rng.randint(-3, 3) for _ in range(n))
            inst = CanonicalInstance(A=a, b_l=b_l, b_r=b_r, c=c)
            basics = enumerate_basic_solutions(inst)
            out = solve_lp(inst)
            if not basics:
                assert out.status == "infeasible"
            else:
                # bounded feasible region here (b_l finite everywhere)
                assert out.status == "optimal"
                best = max(
                    sum(Fraction(ci) * vi for ci, vi in zip(c, v)) for v in basics
                )
                assert out.objective == best
                assert feasible_cf(inst, out.vertex)
                # returned vertex is itself a basic solution
                assert tuple(out.vertex) in {tuple(v) for v in basics}
                # base rows are tight and independent
                sub = inst.A.take_rows(out.base)
                assert det(sub) != 0
                v = out.vertex
                for i in out.base:
                    axi = sum(
                        Fraction(inst.A.entries[i][j]) * v[j] for j in range(n)
                    )
                    assert axi == inst.b_r[i] or (
                        is_finite(inst.b_l[i]) and axi == inst.b_l[i]
                    )
            done += 1

    def test_deterministic(self):
        inst = CanonicalInstance(
            A=IntMat.from_rows([[2, 1], [1, 3], [-1, 0], [0, -1]]),
            b_l=(NEG_INF,) * 4,
            b_r=(7, 9, 0, 0),
            c=(1, 1),
        )
        outs = [solve_lp(inst) for _ in range(3)]
        assert all(o == outs[0] for o in outs)


class TestStandard:
    def test_small_min(self):
        inst = StandardInstance(
            n=2,
            m=1,
            A=IntMat.from_rows([[1, 1]]),
            G=IntMat.from_rows([[0, 1]]),
            S=IntMat.from_rows([[1]]),
            b=(4,),
            g=(0,),
            u=(3, 3),
            c=(1, 2),
        )
        out = solve_lp(inst)
        assert out.status == "optimal"
        # residue constraint is dropped: min x1 + 2 x2 with x1 + x2 = 4
        assert out.objective == 5  # x = (3, 1)
        assert out.vertex == (Fraction(3), Fraction(1))

    def test_relaxation_dominates_integer_points(self):
        rng = random.Random(55)
        done = 0
        while done < 25:
            n = rng.randint(2, 4)
            m = 1
            a = IntMat.from_rows([[rng.randint(0, 3) for _ in range(n)]])
            if all(v == 0 for v in a.entries[0]):
                continue
            u = tuple(rng.randint(1, 4) for _ in range(n))
            x0 = tuple(rng.randint(0, ui) for ui in u)
            b = a.matvec(x0)
            c = tuple(rng.randint(0, 4) for _ in range(n))
            inst = StandardInstance(
                n=n, m=m, A=a, G=None, S=None, b=b, g=(), u=u, c=c
            )
            # G/S omitted entirely: relaxation identical either way
            out = solve_lp(inst)
            assert out.status == "optimal"
            best = None
            for x in itertools.product(*(range(ui + 1) for ui in u)):
                if a.matvec(x) == b:
                    v = sum(ci * xi for ci, xi in zip(c, x))
                    best = v if best is None else min(best, v)
            assert best is not None
            assert out.objective <= best
            done += 1

    def test_infeasible(self):
        inst = StandardInstance(
            n=1,
            m=1,
            A=IntMat.from_rows([[1]]),
            G=None,
            S=None,
            b=(5,),
            g=(),
            u=(2,),
            c=(1,),
        )
        assert solve_lp(inst).status == "infeasible"


def dense_oracle(inst):
    """(status, min c'x) of a standard relaxation from the oracle's own
    dense inequality simplex: Ax <= b, -Ax <= -b, x_j <= u_j, x >= 0."""
    D, d = [], []
    for row, bi in zip(inst.A.entries if inst.A is not None else (), inst.b):
        D += [list(row), [-v for v in row]]
        d += [bi, -bi]
    for j, uj in enumerate(inst.u):
        if is_finite(uj):
            D.append([int(k == j) for k in range(inst.n)])
            d.append(uj)
    status, value = _dense_ineq_lp([-v for v in inst.c], D, d)
    return status, (None if value is None else -value)


def is_basic_solution(inst, x):
    """Feasible, and the columns strictly inside their bounds are independent."""
    if inst.A is not None and any(
        sum(a * v for a, v in zip(row, x)) != bi for row, bi in zip(inst.A.entries, inst.b)
    ):
        return False
    if any(v < 0 or (is_finite(u) and v > u) for v, u in zip(x, inst.u)):
        return False
    inner = [j for j, (v, u) in enumerate(zip(x, inst.u)) if v != 0 and v != u]
    if not inner:
        return True
    if inst.A is None:
        return False
    return rank(IntMat.from_rows([inst.A.col(j) for j in inner])) == len(inner)


def random_standard(rng, m):
    n = rng.randint(max(2, m), m + 4)
    rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(m)]
    u = [rng.choice([POS_INF, 0, 1, 2, 3, 5]) for _ in range(n)]
    ray = rng.random() < 0.25
    if ray:  # columns k = -j, both unbounded: e_j + e_k is a ray
        j, k = rng.sample(range(n), 2)
        u[j] = u[k] = POS_INF
        for row in rows:
            row[k] = -row[j]
    u = tuple(u)
    kind = rng.random()
    if kind < 0.2:
        b = (0,) * m  # degenerate right side
    elif kind < 0.7:
        x0 = [rng.randint(0, 3 if not is_finite(uj) else uj) for uj in u]
        b = tuple(sum(a * v for a, v in zip(row, x0)) for row in rows)
    else:
        b = tuple(rng.randint(-6, 6) for _ in range(m))  # often infeasible
    c = [rng.randint(-3, 4) for _ in range(n)]
    if ray:
        c[j] = -c[k] - rng.randint(1, 3)  # the ray has negative cost
    elif rng.random() < 0.3:
        free = [j for j in range(n) if not is_finite(u[j])]
        if free:
            c[rng.choice(free)] = -rng.randint(1, 3)  # a negative cost on an unbounded column
    return StandardInstance(
        n=n, m=m, A=IntMat.from_rows(rows) if m else None, G=None, S=None,
        b=b, g=(), u=u, c=tuple(c),
    )


class TestBoundedSimplex:
    def test_random_standard_matches_dense_oracle(self):
        rng = random.Random(8)
        seen = set()
        for m in (0, 1, 2, 3):
            for _ in range(60):
                inst = random_standard(rng, m)
                out = solve_lp(inst)
                status, value = dense_oracle(inst)
                assert out.status == status, inst
                seen.add((m, status))
                if status == "optimal":
                    assert out.objective == value, inst
                    assert sum(ci * xi for ci, xi in zip(inst.c, out.vertex)) == value
                    assert is_basic_solution(inst, out.vertex), (inst, out.vertex)
        # every row count reaches all three outcomes except m = 0 (always feasible)
        assert seen >= {(m, s) for m in (1, 2, 3) for s in ("optimal", "infeasible", "unbounded")}
        assert {(0, "optimal"), (0, "unbounded")} <= seen

    def test_canonical_vertex_is_lexmax_of_optimal_face(self):
        rng = random.Random(12)
        done = 0
        while done < 60:
            n = rng.randint(1, 3)
            a = IntMat.from_rows(
                [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n + rng.randint(0, 3))]
            )
            if rank(a) < n:
                continue
            b_l = tuple(rng.randint(-4, 0) for _ in range(a.rows))
            b_r = tuple(lo + rng.randint(0, 5) for lo in b_l)
            # few distinct costs, so optimal faces are often edges or facets
            c = tuple(rng.choice([0, 0, 1, -1]) for _ in range(n))
            inst = CanonicalInstance(A=a, b_l=b_l, b_r=b_r, c=c)
            basics = enumerate_basic_solutions(inst)
            if not basics:
                continue
            best = max(sum(ci * vi for ci, vi in zip(c, v)) for v in basics)
            optima = [tuple(v) for v in basics if sum(ci * vi for ci, vi in zip(c, v)) == best]
            out = solve_lp(inst)
            assert out.status == "optimal"
            assert out.vertex == max(optima), inst
            assert out.pivots >= 0
            done += 1

    def test_unbounded_optimal_face_is_refused(self):
        # max x0 s.t. x0 <= 0, x1 >= 0: the optimal face x0 = 0 has no
        # largest x1, so there is no lexicographically maximal vertex
        inst = CanonicalInstance(
            A=IntMat.from_rows([[1, 0], [0, -1]]), b_l=(NEG_INF, NEG_INF), b_r=(0, 0), c=(1, 0)
        )
        with pytest.raises(ValueError, match="optimal LP face is unbounded"):
            solve_lp(inst)

    def test_wide_knapsack_matches_dense_oracle(self):
        # the shape of the lp-wide benchmark at n = 150
        rng = random.Random(150)
        n = 150
        w = [rng.randint(1, 5) for _ in range(n)]
        x0 = [rng.randint(0, 50) for _ in range(n)]
        inst = StandardInstance(
            n=n, m=1, A=IntMat.from_rows([w]), G=None, S=None,
            b=(sum(a * v for a, v in zip(w, x0)),), g=(), u=(50,) * n,
            c=tuple(rng.randint(0, 9) for _ in range(n)),
        )
        out = solve_lp(inst)
        assert out.status == "optimal"
        assert ("optimal", out.objective) == dense_oracle(inst)
        assert is_basic_solution(inst, out.vertex)


class TestCertificate:
    # The optimality certificate is an explicit check, so a corrupted point
    # or dual must still be refused when python -O strips asserts.
    SCRIPT = textwrap.dedent(
        """
        import sys
        from deltailp import lp
        from deltailp.intlinalg import IntMat
        from deltailp.model import CanonicalInstance, CertificateError, StandardInstance

        std = StandardInstance(
            n=2, m=1, A=IntMat.from_rows([[1, 1]]), G=None, S=None,
            b=(4,), g=(), u=(3, 3), c=(1, 2),
        )
        cf = CanonicalInstance(
            A=IntMat.from_rows([[1, 0], [0, 1], [1, 1]]),
            b_l=(0, 0, 0), b_r=(3, 3, 4), c=(2, 1),
        )

        def refused(inst):
            try:
                out = lp.solve_lp(inst)
            except CertificateError as exc:
                return str(exc)
            return f"accepted: {out.status}"

        point, duals = lp._Tableau.point, lp._Tableau.duals
        print(refused(std), "|", refused(cf))
        lp._Tableau.point = lambda self: [v + self.den for v in point(self)]
        print(refused(std), "|", refused(cf))
        lp._Tableau.point = point
        lp._Tableau.duals = lambda self: [-v for v in duals(self)]
        print(refused(std), "|", refused(cf))
        print("optimize", sys.flags.optimize)
        """
    )

    def test_corrupted_outcome_raises_under_optimize(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        assert run.stdout.splitlines() == [
            "accepted: optimal | accepted: optimal",
            "LP point violates its equality rows | LP point violates its equality rows",
            "LP reduced cost has the wrong sign at its bound"
            " | LP reduced cost has the wrong sign at its bound",
            "optimize 1",
        ]
