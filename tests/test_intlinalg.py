import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltailp.intlinalg import (
    DimensionError,
    IntMat,
    RankError,
    adjugate,
    det,
    delta,
    delta_gcd,
    enumerate_parallelepiped,
    hnf,
    inverse_times,
    max_det_submatrix,
    minor_stats,
    rank,
    snf,
)


def det_cofactor(rows):
    """Independent determinant oracle: recursive cofactor expansion."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * rows[0][j] * det_cofactor(minor)
    return total


def random_mat(rng, rows, cols, bound):
    return IntMat.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


class TestDet:
    def test_identity(self):
        assert det(IntMat.identity(3)) == 1

    def test_triangular(self):
        assert det(IntMat.from_rows([[2, 0], [1, 3]])) == 6

    def test_matches_cofactor_oracle(self):
        rng = random.Random(101)
        for _ in range(200):
            m = random_mat(rng, 4, 4, 5)
            assert det(m) == det_cofactor(m.to_lists())

    def test_non_square_rejected(self):
        with pytest.raises(DimensionError):
            det(IntMat.from_rows([[1, 2, 3], [4, 5, 6]]))

    @given(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=3, max_size=3),
            min_size=3,
            max_size=3,
        )
    )
    @settings(max_examples=150, deadline=None)
    def test_hypothesis_cofactor(self, rows):
        m = IntMat.from_rows(rows)
        assert det(m) == det_cofactor(rows)


class TestAdjugate:
    def test_identity(self):
        assert adjugate(IntMat.identity(4)) == IntMat.identity(4)

    def test_closed_form_2x2(self):
        assert adjugate(IntMat.from_rows([[2, 0], [1, 3]])) == IntMat.from_rows(
            [[3, 0], [-1, 2]]
        )

    def test_defining_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            m = random_mat(rng, 3, 3, 6)
            prod = m.mul(adjugate(m))
            assert prod == IntMat.identity(3).scale(det(m))


class TestHnf:
    def check(self, a):
        res = hnf(a)
        n = a.cols
        assert res.T.mul(res.Q) == a
        assert abs(det(res.Q)) == 1
        top = res.T.submatrix(range(n), range(n))
        if det(top) != 0:
            for i in range(n):
                assert res.T.entries[i][i] > 0
                for j in range(n):
                    if j > i:
                        assert res.T.entries[i][j] == 0
                    elif j < i:
                        assert 0 <= res.T.entries[i][j] < res.T.entries[i][i]
        return res

    def test_identity(self):
        res = hnf(IntMat.identity(3))
        assert res.T == IntMat.identity(3)
        assert res.Q == IntMat.identity(3)

    def test_2x2_example(self):
        a = IntMat.from_rows([[2, 1], [0, 3]])
        res = self.check(a)
        assert abs(det(res.T)) == 6

    def test_1x1(self):
        res = hnf(IntMat.from_rows([[4]]))
        assert res.T == IntMat.from_rows([[4]])
        assert res.Q == IntMat.from_rows([[1]])

    def test_norm_bounded_by_max_minor(self):
        rng = random.Random(11)
        for _ in range(60):
            a = random_mat(rng, 4, 2, 4)
            if rank(a) < 2:
                continue
            res = self.check(a)
            assert res.T.norm_max() <= delta(a)

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            hnf(IntMat.from_rows([[1, 2], [2, 4], [3, 6]]))


class TestSnf:
    def check(self, a):
        res = snf(a)
        n = a.cols
        padded = IntMat.from_rows(
            res.S.to_lists() + [[0] * n for _ in range(a.rows - n)]
        )
        assert res.P.mul(padded).mul(res.Q) == a
        assert abs(det(res.P)) == 1
        assert abs(det(res.Q)) == 1
        diag = [res.S.entries[i][i] for i in range(n)]
        assert all(d > 0 for d in diag)
        for i in range(n - 1):
            assert diag[i + 1] % diag[i] == 0
        return diag

    def test_identity(self):
        res = snf(IntMat.identity(3))
        assert res.S == IntMat.identity(3)
        assert res.P == IntMat.identity(3)
        assert res.Q == IntMat.identity(3)

    def test_divisible_diagonal_kept(self):
        assert self.check(IntMat.from_rows([[2, 0], [0, 4]])) == [2, 4]

    def test_coprime_diagonal_merged(self):
        assert self.check(IntMat.from_rows([[2, 0], [0, 3]])) == [1, 6]

    def test_diag_products_match_minor_gcds(self):
        rng = random.Random(23)
        for _ in range(40):
            a = random_mat(rng, 4, 3, 5)
            if rank(a) < 3:
                continue
            diag = self.check(a)
            prod = 1
            for k in range(1, 4):
                prod *= diag[k - 1]
                assert prod == minor_stats(a, k).delta_gcd

    def test_rank_deficient_rejected(self):
        with pytest.raises(RankError):
            snf(IntMat.from_rows([[1, 2], [2, 4]]))


class TestMinorStats:
    def test_identity(self):
        s = minor_stats(IntMat.identity(4), 4)
        assert (s.delta, s.delta_gcd, s.delta_lcm) == (1, 1, 1)

    def test_enumerated_example(self):
        s = minor_stats(IntMat.from_rows([[1, 2], [3, 4], [5, 6]]), 2)
        assert (s.delta, s.delta_gcd, s.delta_lcm) == (4, 2, 4)

    def test_degenerate(self):
        s = minor_stats(IntMat.from_rows([[1, 2], [2, 4]]), 2)
        assert s.degenerate

    def test_gcd_divides_every_minor(self):
        rng = random.Random(3)
        import itertools

        for _ in range(30):
            a = random_mat(rng, 4, 3, 4)
            s = minor_stats(a, 2)
            if s.degenerate:
                continue
            for ri in itertools.combinations(range(4), 2):
                for ci in itertools.combinations(range(3), 2):
                    d = det(a.submatrix(ri, ci))
                    if d != 0:
                        assert d % s.delta_gcd == 0
                        assert s.delta_lcm % abs(d) == 0


class TestEnumerateParallelepiped:
    def brute(self, a, p, gamma):
        """Oracle: scan an enclosing integer box and test membership exactly."""
        n = a.cols
        bound = 0
        for i in range(n):
            bound = max(
                bound,
                sum(abs(a.entries[i][j]) * (abs(Fraction(p[j])) + Fraction(gamma)) for j in range(n)),
            )
        out = []
        import itertools

        lim = math.floor(bound)
        for y in itertools.product(range(-lim, lim + 1), repeat=n):
            x = inverse_times(a, y)
            if all(abs(x[i] - Fraction(p[i])) <= Fraction(gamma) for i in range(n)):
                out.append(tuple(y))
        return sorted(out)

    def test_identity_box(self):
        pts = enumerate_parallelepiped(IntMat.identity(2), [0, 0], 1)
        assert pts == sorted(
            (i, j) for i in (-1, 0, 1) for j in (-1, 0, 1)
        )

    def test_scaled_segment(self):
        pts = enumerate_parallelepiped(
            IntMat.from_rows([[2]]), [Fraction(1, 2)], Fraction(1, 2)
        )
        assert pts == [(0,), (1,), (2,)]

    def test_diagonal(self):
        pts = enumerate_parallelepiped(
            IntMat.from_rows([[2, 0], [0, 3]]), [0, 0], Fraction(1, 2)
        )
        assert pts == sorted((i, j) for i in (-1, 0, 1) for j in (-1, 0, 1))

    def test_matches_membership_oracle_and_cardinality(self):
        rng = random.Random(42)
        for _ in range(25):
            a = random_mat(rng, 2, 2, 3)
            d = det(a)
            if d == 0:
                continue
            p = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(2)]
            gamma = Fraction(rng.randint(1, 4), rng.randint(1, 2))
            pts = enumerate_parallelepiped(a, p, gamma)
            assert pts == self.brute(a, p, gamma)
            assert len(pts) <= (2 * gamma + 1) ** 2 * abs(d)


    def test_dyadic_centres_1x1(self):
        # centres (2^i / 2^rho) * b / a, as the unbounded doubling DP uses
        for a_val in (1, -2, 3, 5, -6):
            a = IntMat.from_rows([[a_val]])
            for b_val in (-7, 0, 4, 11):
                for rho in (1, 3, 5):
                    for i in range(rho + 1):
                        p = [Fraction(2**i, 2**rho) * Fraction(b_val, a_val)]
                        for gamma in (0, 1, Fraction(3, 2), 4):
                            pts = enumerate_parallelepiped(a, p, gamma)
                            assert pts == self.brute(a, p, gamma)

    def test_matches_membership_oracle_3x3(self):
        # integer form of the membership test: A^{-1} y = adj(A) y / det(A)
        # lies in the box iff each adj_i . y lies in an integer interval
        rng = random.Random(7)
        seen = set()
        while len(seen) < 8:
            a = random_mat(rng, 3, 3, 2)
            d = det(a)
            if not 1 <= abs(d) <= 12:
                continue
            seen.add(abs(d))
            p = [Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(3)]
            gamma = Fraction(rng.randint(1, 2), 2)
            adj = adjugate(a).entries
            ends = [sorted((d * (pi - gamma), d * (pi + gamma))) for pi in p]
            lims = [(math.ceil(lo), math.floor(hi)) for lo, hi in ends]
            bound = max(
                sum(abs(v) * (abs(pj) + gamma) for v, pj in zip(row, p))
                for row in a.entries
            )
            r = range(-math.floor(bound), math.floor(bound) + 1)
            expect = [
                y
                for y in itertools.product(r, repeat=3)
                if all(
                    lo <= sum(v * w for v, w in zip(row, y)) <= hi
                    for row, (lo, hi) in zip(adj, lims)
                )
            ]
            pts = enumerate_parallelepiped(a, p, gamma)
            assert pts == expect
            assert len(pts) <= (2 * gamma + 1) ** 3 * abs(d)


class TestMaxDetSubmatrix:
    def test_square_input(self):
        b, v = max_det_submatrix(IntMat.from_rows([[2, 1], [1, 1]]))
        assert b == (0, 1) and v == 1

    def test_tall_1col(self):
        b, v = max_det_submatrix(IntMat.from_rows([[1], [2]]))
        assert b == (1,) and v == 2

    def test_exact_equals_max_minor(self):
        rng = random.Random(5)
        for _ in range(20):
            a = random_mat(rng, 5, 3, 4)
            if rank(a) < 3:
                continue
            _, v = max_det_submatrix(a, "exact")
            assert v == minor_stats(a, 3).delta

    def test_greedy_returns_valid_base(self):
        rng = random.Random(6)
        for _ in range(20):
            a = random_mat(rng, 6, 3, 4)
            if rank(a) < 3:
                continue
            b, v = max_det_submatrix(a, "greedy")
            assert abs(det(a.take_rows(b))) == v > 0


class TestPerpendicularIdentity:
    def test_kernel_pairs(self):
        # For A (n x m) of full column rank and B an integer basis of the
        # kernel of A^T, the products delta_gcd(B) * |det A_I| and
        # delta_gcd(A) * |det B_J| agree for every complementary row split
        # (I, J) of {1..n}.
        import itertools

        rng = random.Random(9)
        checked = 0
        while checked < 25:
            n, m = 4, 2
            a = random_mat(rng, n, m, 3)
            if rank(a) < m:
                continue
            # kernel basis of A^T via the Smith form of A
            dec = snf(a)
            p_inv = adjugate(dec.P).scale(det(dec.P))
            # rows m.. of P^{-1} span ker(A^T); transpose to columns
            bmat = IntMat.from_rows(
                [[p_inv.entries[i][j] for i in range(m, n)] for j in range(n)]
            )
            at_b = a.transpose().mul(bmat)
            assert all(e == 0 for row in at_b.entries for e in row)
            dg_a = delta_gcd(a)
            dg_b = delta_gcd(bmat)
            for rows_i in itertools.combinations(range(n), m):
                rows_j = tuple(sorted(set(range(n)) - set(rows_i)))
                lhs = dg_b * abs(det(a.take_rows(rows_i)))
                rhs = dg_a * abs(det(bmat.take_rows(rows_j)))
                assert lhs == rhs
            checked += 1
