import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deltailp.intlinalg import (
    DimensionError,
    IntMat,
    ParallelepipedLattice,
    RankError,
    cramer,
    det,
    delta,
    delta_gcd,
    enumerate_parallelepiped,
    hnf,
    max_det_submatrix,
    minor_stats,
    rank,
    snf,
    unimodular_inverse,
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


def ref_adjugate(M: IntMat) -> IntMat:
    """Adjugate matrix: M * adjugate(M) = det(M) * I, valid also for
    singular M."""
    if M.rows != M.cols:
        raise DimensionError("adjugate of a non-square matrix")
    n = M.rows
    if n == 1:
        return IntMat.from_rows([[1]])
    idx = list(range(n))
    out = [[0] * n for _ in range(n)]
    for i in range(n):
        rows = idx[:i] + idx[i + 1 :]
        for j in range(n):
            cols = idx[:j] + idx[j + 1 :]
            minor = det(M.submatrix(rows, cols))
            # adjugate is the transposed cofactor matrix
            out[j][i] = (-1) ** (i + j) * minor
    return IntMat.from_rows(out)


def inverse_times(M: IntMat, y) -> tuple[Fraction, ...]:
    """Exact M^{-1} y as Fractions for nonsingular square M, via the
    cofactor adjugate."""
    d = det(M)
    if d == 0:
        raise RankError("singular matrix")
    adj = ref_adjugate(M)
    return tuple(
        Fraction(sum(adj.entries[i][j] * Fraction(y[j]) for j in range(M.cols)), 1) / d
        for i in range(M.rows)
    )


def random_mat(rng, rows, cols, bound):
    return IntMat.from_rows(
        [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
    )


def ref_points(A, p, gamma):
    """Reference for ParallelepipedLattice.points: all integer y with
    A^{-1} y in the box ||x - p||_inf <= gamma, lexicographically sorted.

    One tuple walk per residue: residues t = Q^{-1} S^{-1} r from the Smith
    form A = P [S; 0] Q, Fraction ranges ceil(p_j - gamma - t_j) <= u_j <=
    floor(p_j + gamma - t_j), and the points y = A t + A u built one tuple
    at a time.
    """
    n = A.cols
    dec = snf(A)
    s_diag = [dec.S.entries[i][i] for i in range(n)]
    q_inv = ref_adjugate(dec.Q).scale(det(dec.Q))
    gamma = Fraction(gamma)
    p = [Fraction(v) for v in p]
    cols = list(zip(*A.entries))
    out = []
    for r in itertools.product(*(range(si) for si in s_diag)):
        t = [
            sum(Fraction(q_inv.entries[i][j] * r[j], s_diag[j]) for j in range(n))
            for i in range(n)
        ]
        y0 = [sum(a * tj for a, tj in zip(row, t)) for row in A.entries]
        assert all(v.denominator == 1 for v in y0)
        pts = [tuple(int(v) for v in y0)]
        for j, col in enumerate(cols):
            lo, hi = math.ceil(p[j] - gamma - t[j]), math.floor(p[j] + gamma - t[j])
            nxt = []
            for y in pts:
                y = tuple(a + lo * v for a, v in zip(y, col))
                for _ in range(lo, hi + 1):
                    nxt.append(y)
                    y = tuple(a + v for a, v in zip(y, col))
            pts = nxt
        out.extend(pts)
    return sorted(out)


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
        # nor is a matrix built from anything but ints: no entry is coerced
        for bad in (2.5, True, "3", [4]):
            with pytest.raises(DimensionError):
                IntMat.from_rows([[1, bad], [3, 4]])

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


class TestRank:
    def test_matches_largest_nonzero_minor(self):
        # oracle: the largest k with a nonzero k x k minor (cofactor
        # expansion), on shapes with dependent rows and zero columns
        rng = random.Random(13)
        ranks = set()
        for _ in range(60):
            rows, cols = rng.randint(1, 4), rng.randint(1, 4)
            a = random_mat(rng, rows, cols, 3).to_lists()
            if rows > 1 and rng.random() < 0.5:  # a dependent row
                f = rng.randint(-2, 2)
                a[-1] = [f * v for v in a[0]]
            if rng.random() < 0.3:  # a zero column
                j = rng.randrange(cols)
                for row in a:
                    row[j] = 0
            want = max(
                (
                    k
                    for k in range(1, min(rows, cols) + 1)
                    for ri in itertools.combinations(range(rows), k)
                    for ci in itertools.combinations(range(cols), k)
                    if det_cofactor([[a[i][j] for j in ci] for i in ri]) != 0
                ),
                default=0,
            )
            assert rank(IntMat.from_rows(a)) == want
            ranks.add(want)
        assert ranks >= {0, 1, 2, 3}


class TestAdjugate:
    def test_identity(self):
        assert ref_adjugate(IntMat.identity(4)) == IntMat.identity(4)

    def test_closed_form_2x2(self):
        assert ref_adjugate(IntMat.from_rows([[2, 0], [1, 3]])) == IntMat.from_rows(
            [[3, 0], [-1, 2]]
        )

    def test_defining_identity(self):
        rng = random.Random(7)
        for _ in range(50):
            m = random_mat(rng, 3, 3, 6)
            prod = m.mul(ref_adjugate(m))
            assert prod == IntMat.identity(3).scale(det(m))


class TestCramer:
    # cramer(M, Y) = (adj(M) Y, det M) from one fraction-free Gauss-Jordan pass
    def test_identity_gives_adjugate_and_det(self):
        rng = random.Random(31)
        sizes, signs, big = set(), set(), 0
        for _ in range(400):
            n = rng.randint(1, 5)
            m = random_mat(rng, n, n, 4)
            d = det_cofactor(m.to_lists())
            if d == 0:
                continue
            assert cramer(m, IntMat.identity(n)) == (ref_adjugate(m), d)
            sizes.add(n)
            signs.add(d > 0)
            big += abs(d) > 1
        assert sizes == {1, 2, 3, 4, 5} and signs == {True, False} and big > 100

    def test_singular_raises(self):
        # the TestAdjugate draws: some are singular, where the cofactor
        # adjugate still exists but cramer refuses
        rng = random.Random(7)
        singular = 0
        for _ in range(50):
            m = random_mat(rng, 3, 3, 6)
            if det_cofactor(m.to_lists()) == 0:
                singular += 1
                with pytest.raises(RankError):
                    cramer(m, IntMat.identity(3))
            else:
                assert cramer(m, IntMat.identity(3)) == (ref_adjugate(m), det(m))
        assert singular >= 1
        for rows in ([[0]], [[1, 2], [2, 4]], [[0, 1], [0, 3]], [[1, 1, 0], [1, 1, 0], [0, 0, 1]]):
            m = IntMat.from_rows(rows)
            with pytest.raises(RankError):
                cramer(m, IntMat.identity(m.rows))

    def test_general_right_hand_side(self):
        rng = random.Random(43)
        checked = 0
        for _ in range(200):
            n, k = rng.randint(1, 4), rng.randint(1, 3)
            m = random_mat(rng, n, n, 5)
            d = det(m)
            if d == 0:
                continue
            y = random_mat(rng, n, k, 7)
            x, dd = cramer(m, y)
            assert dd == d and m.mul(x) == y.scale(d)
            assert x == ref_adjugate(m).mul(y)
            checked += 1
        assert checked > 100

    def test_shapes_rejected(self):
        with pytest.raises(DimensionError):
            cramer(IntMat.from_rows([[1, 2, 3], [4, 5, 6]]), IntMat.identity(2))
        with pytest.raises(DimensionError):
            cramer(IntMat.identity(2), IntMat.identity(3))


class TestUnimodularInverse:
    def test_inverts_both_signs(self):
        # det = +1 and det = -1 (one row negated)
        for rows in ([[2, 1], [1, 1]], [[-2, -1], [1, 1]], [[1, 2, 0], [0, 1, 3], [0, 0, 1]]):
            m = IntMat.from_rows(rows)
            inv = unimodular_inverse(m)
            assert m.mul(inv) == inv.mul(m) == IntMat.identity(m.rows)

    def test_smith_factors(self):
        rng = random.Random(9)
        for _ in range(20):
            a = random_mat(rng, 4, 3, 5)
            if rank(a) < 3:
                continue
            dec = snf(a)
            for f in (dec.P, dec.Q):
                assert f.mul(unimodular_inverse(f)) == IntMat.identity(f.rows)

    def test_rejects_non_unimodular(self):
        for rows in ([[2, 0], [0, 1]], [[1, 2], [2, 4]], [[3]]):
            with pytest.raises(ValueError, match="not unimodular"):
                unimodular_inverse(IntMat.from_rows(rows))


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
        assert res.P.mul(res.P_inv) == IntMat.identity(a.rows)
        assert res.Q.mul(res.Q_inv) == IntMat.identity(n)
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
        assert res.P_inv == res.Q_inv == IntMat.identity(3)

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
        # centres (2^i / 2^rho) * b / a, as the unbounded doubling DP uses;
        # its windows are runs of consecutive integers whose length the
        # lattice's count must give
        for a_val in (1, -2, 3, 5, -6):
            a = IntMat.from_rows([[a_val]])
            lattice = ParallelepipedLattice(a)
            for b_val in (-7, 0, 4, 11):
                for rho in (1, 3, 5):
                    for i in range(rho + 1):
                        p = [Fraction(2**i, 2**rho) * Fraction(b_val, a_val)]
                        for gamma in (0, 1, Fraction(3, 2), 4):
                            pts = enumerate_parallelepiped(a, p, gamma)
                            assert pts == self.brute(a, p, gamma)
                            assert lattice.count(p, gamma) == len(pts)
                            if pts:
                                assert pts == [(y,) for y in range(pts[0][0], pts[-1][0] + 1)]

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
            adj = ref_adjugate(a).entries
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


class TestLatticeArray:
    """ParallelepipedLattice.points (one numpy array) and count against the
    tuple reference ref_points and the membership oracle."""

    brute = TestEnumerateParallelepiped.brute

    def check(self, a, p, gamma, oracle=True):
        lattice = ParallelepipedLattice(a)
        want = ref_points(a, p, gamma)
        if oracle:
            assert want == self.brute(a, p, gamma)
        got = lattice.points(p, gamma)
        assert got.shape == (len(want), a.cols)
        assert list(map(tuple, got.tolist())) == want
        assert lattice.count(p, gamma) == len(want)
        return got

    def test_negative_determinants(self):
        cases = [
            [[-3]],
            [[-1]],
            [[0, 1], [1, 0]],
            [[1, 2], [3, 4]],
            [[2, 1], [1, -2]],
            [[-2, 0], [0, 3]],
            [[-1, -1, 0], [0, 1, 1], [1, 0, 1]],
        ]
        centres = [Fraction(0), Fraction(1, 3), Fraction(-5, 2), Fraction(7, 4)]
        for rows in cases:
            a = IntMat.from_rows(rows)
            assert det(a) < 0
            n = a.cols
            for k, gamma in enumerate((0, Fraction(1, 2), 1, Fraction(3, 2))):
                if n == 3 and gamma > Fraction(1, 2):
                    continue  # keeps the oracle's scan small
                p = [centres[(k + j) % len(centres)] for j in range(n)]
                self.check(a, p, gamma)

    def test_non_diagonal_smith_forms(self):
        # Smith forms (2, 4) and (2, 2, 4) of non-diagonal matrices: several
        # invariant factors above 1 and nontrivial transforms
        for rows, factors in (
            ([[6, 4], [4, 4]], [2, 4]),
            ([[2, 2, 0], [0, 2, 2], [2, 0, 2]], [2, 2, 4]),
            ([[4, 6], [4, 4]], [2, 4]),
        ):
            a = IntMat.from_rows(rows)
            dec = snf(a)
            assert [dec.S.entries[i][i] for i in range(a.cols)] == factors
            for p, gamma in (
                ([0] * a.cols, 1),
                ([Fraction(1, 2), Fraction(-1, 3), 2][: a.cols], Fraction(1, 2)),
                ([Fraction(5, 4), 0, Fraction(-3, 2)][: a.cols], 1),
            ):
                self.check(a, p, gamma, oracle=a.cols < 3 or gamma < 1)

    def test_gamma_zero_and_empty_boxes(self):
        a = IntMat.from_rows([[2, 1], [1, -2]])
        # x = A^{-1} (1, 0) = (2/5, 1/5): a zero-radius box holds one point
        got = self.check(a, [Fraction(2, 5), Fraction(1, 5)], 0)
        assert got.tolist() == [[1, 0]]
        for rows, p, gamma in (
            ([[2]], [Fraction(1, 4)], 0),
            ([[2, 0], [0, 2]], [Fraction(1, 2), Fraction(1, 3)], 0),
            ([[2, 1], [1, -2]], [Fraction(1, 10), Fraction(1, 10)], Fraction(1, 20)),
            ([[-3]], [Fraction(1, 7)], Fraction(1, 8)),
        ):
            got = self.check(IntMat.from_rows(rows), p, gamma)
            assert got.shape == (0, len(rows))

    def test_int64_limit(self):
        # bound_i = sum_j |A_ij| * (|p_j| + gamma + 1): int64 below 2^62,
        # dtype object from 2^62 on, exact either way
        eye = IntMat.identity(2)
        top = 2**62
        for p, gamma, dtype in (
            ([top - 2, 0], 0, np.int64),
            ([top - 1, 0], 0, object),
            ([top, -top], 1, object),
            ([-(top - 3), 5], 1, np.int64),
        ):
            got = self.check(eye, p, gamma, oracle=False)
            assert got.dtype == dtype
        # det -3 and an entry near 2^62, either side of the bound
        for entry, gamma, dtype in ((2**60, 1, np.int64), (2**61, 1, object)):
            a = IntMat.from_rows([[entry, 3], [1, 0]])
            assert det(a) == -3
            got = self.check(a, [0, 0], gamma, oracle=False)
            assert got.dtype == dtype and len(got) == 21
        unimodular = IntMat.from_rows([[top + 1, top], [1, 1]])
        got = self.check(unimodular, [Fraction(1, 3), 0], 1, oracle=False)
        assert got.dtype == object

    def test_rejects_bad_boxes(self):
        lattice = ParallelepipedLattice(IntMat.from_rows([[2, 1], [1, -2]]))
        for p, gamma in (([0], 1), ([0, 0], -1)):
            with pytest.raises(DimensionError):
                lattice.count(p, gamma)
            with pytest.raises(DimensionError):
                lattice.points(p, gamma)


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
            _, v = max_det_submatrix(a)
            assert v == minor_stats(a, 3).delta

    def test_rank_deficient_raises(self):
        # tall, with dependent columns or a zero column; and fewer rows than
        # columns, where no n-row subset exists
        for rows in ([[1, 2], [2, 4], [3, 6]], [[1, 0], [2, 0], [0, 0]], [[1, 2, 3]]):
            with pytest.raises(RankError, match="matrix does not have full column rank"):
                max_det_submatrix(IntMat.from_rows(rows))


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
            p_inv = ref_adjugate(dec.P).scale(det(dec.P))
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
