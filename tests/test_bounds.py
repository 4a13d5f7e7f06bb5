import math
import random

import pytest
from mpmath.libmp import mpf_cmp

from deltailp import bounds as bounds_mod
from deltailp.bounds import (
    chi_bound,
    mcmullen_xi,
    proximity_bound_bounded,
    proximity_bound_unbounded,
    rough_sparsity_coeffs,
    sparsity_bound,
    sparsity_constants,
    verify_instance_bounds,
    vertex_count_bound,
)
from deltailp.intlinalg import IntMat, rank
from deltailp.model import NEG_INF, CanonicalInstance
from deltailp.oracle import hull_vertices


def log2(x):
    return math.log2(x)


def c1_c2_float():
    # independent double-precision evaluation of the two constants
    e = math.e
    c1 = log2(math.sqrt(2 * e * e / (e - log2(e)))) + 0.5
    c2 = log2(math.sqrt(2 * e))
    return c1, c2


class TestSparsity:
    def test_constants(self):
        c1, c2 = sparsity_constants()
        f1, f2 = c1_c2_float()
        assert abs(float(c1.b) - f1) < 1e-12
        assert abs(float(c2.b) - f2) < 1e-12
        assert float(c1.b) < 2.27

    def test_m1_delta1(self):
        f1, f2 = c1_c2_float()
        expect = f1 + 0.5 * log2(f2)
        got = float(sparsity_bound(1, 1))
        assert abs(got - expect) < 1e-12
        assert abs(got - 2.41) < 0.01

    def test_upper_endpoint_dominates(self):
        f1, f2 = c1_c2_float()
        for m, d in [(1, 1), (2, 5), (3, 64), (7, 3)]:
            expect = f1 * m + log2(d) + m / 2 * log2(f2 + log2(d) / m)
            assert float(sparsity_bound(m, d)) >= expect - 1e-12

    def test_results_not_below_interval_upper_endpoint(self, monkeypatch):
        # record every interval whose upper endpoint a bound returns, then
        # compare the returned mpf with that endpoint exactly
        seen = []
        upper = bounds_mod._upper

        def spy(x):
            seen.append(x)
            return upper(x)

        monkeypatch.setattr(bounds_mod, "_upper", spy)
        for m in range(1, 8):
            for d in range(1, 300):
                got = sparsity_bound(m, d)
                assert mpf_cmp(got._mpf_, seen[-1]._mpi_[1]) >= 0, (m, d)
        c1, c2 = sparsity_constants()
        for k in (1, 3, 100):
            got = rough_sparsity_coeffs(c1, c2, k)
            for value, interval in zip(got, seen[-2:]):
                assert mpf_cmp(value._mpf_, interval._mpi_[1]) >= 0, k

    def test_rough_coeffs_match_float(self):
        f1, f2 = c1_c2_float()
        for k in (3, 100):
            c1p, c2p = rough_sparsity_coeffs(f1, f2, k)
            e1 = f1 + log2(math.sqrt(k + f2)) - 1 / math.log(4)
            e2 = 1 + 1 / ((k + f2) * math.log(4))
            assert abs(float(c1p) - e1) < 1e-9
            assert abs(float(c2p) - e2) < 1e-9

    def test_rough_coeffs_fixed_values(self):
        c1, c2 = sparsity_constants()
        a3, b3 = rough_sparsity_coeffs(c1, c2, 3)
        assert abs(float(a3) - 2.584619) < 1e-5
        assert abs(float(b3) - 1.170881) < 1e-5
        a100, b100 = rough_sparsity_coeffs(c1, c2, 100)
        assert abs(float(a100) - 4.876452) < 1e-5
        assert abs(float(b100) - 1.007126) < 1e-5

    def test_c2_prime_decreasing_in_k(self):
        c1, c2 = sparsity_constants()
        vals = [float(rough_sparsity_coeffs(c1, c2, k)[1]) for k in (1, 2, 5, 50)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_tangent_form_dominates_tight_hypothesis(self):
        # the linearization before the final constant simplification is
        # c1 + 0.5*log2(c2+k) - k/((c2+k)ln4) for the m coefficient; being a
        # tangent-line relaxation of a concave function, it dominates the
        # closed form everywhere.  The displayed coefficients subtract the
        # larger constant 1/ln4 and are smaller by exactly c2/((c2+k)ln4)
        # per unit of m, so they do NOT dominate pointwise.
        c1i, c2i = sparsity_constants()
        c1, c2 = float(c1i.b), float(c2i.b)
        for k in (1, 3, 10):
            a, b = rough_sparsity_coeffs(c1i, c2i, k)
            mid_c1 = c1 + 0.5 * log2(c2 + k) - k / ((c2 + k) * math.log(4))
            gap = c2 / ((c2 + k) * math.log(4))
            assert abs(mid_c1 - gap - float(a)) < 1e-9
            for m in range(1, 6):
                for d in (1, 2, 7, 64, 1000):
                    tight = c1 * m + log2(d) + m / 2 * log2(c2 + log2(d) / m)
                    mid = mid_c1 * m + float(b) * log2(d)
                    assert mid >= tight - 1e-9


class TestProximity:
    def test_bounded_fixtures(self):
        assert proximity_bound_bounded(0, 1, 7) == 6
        assert proximity_bound_bounded(1, 2, 1) == 6
        assert proximity_bound_bounded(2, 1, 1) == 50

    def test_unbounded_fixture(self):
        assert proximity_bound_unbounded(1, 0, 1) == 4

    def test_preconditions(self):
        with pytest.raises(ValueError):
            proximity_bound_unbounded(1, 0, 0)
        with pytest.raises(ValueError):
            proximity_bound_bounded(-1, 1, 1)


class TestChi:
    def test_delta_mode(self):
        assert chi_bound(1, "delta", delta=2, det_s=1) == 6

    def test_diffcol_mode(self):
        assert chi_bound(1, "diffcol", delta=2) == 36

    def test_delta1_m0_convention(self):
        assert chi_bound(0, "delta1", delta1=3, det_s=5) == 5

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            chi_bound(1, "nope", delta=1)


class TestXi:
    def test_tetrahedron(self):
        assert mcmullen_xi(3, 4) == 4

    def test_polygon(self):
        for k in range(2, 12):
            assert mcmullen_xi(2, k) == k

    def test_segment(self):
        assert mcmullen_xi(1, 2) == 2

    def test_simplices(self):
        for n in range(1, 9):
            assert mcmullen_xi(n, n + 1) == n + 1

    def test_monotone_in_k(self):
        for n in range(1, 6):
            vals = [mcmullen_xi(n, k) for k in range(n, n + 8)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            mcmullen_xi(3, 2)


class TestVertexCount:
    def test_s1_closed_form(self):
        # log-power term is 1; xi(1,1) = xi(1,2) = 2
        got = float(vertex_count_bound(3, 2, 1, 7))
        assert got == (3 + 2) * 4 * 1 * 2 * 2

    def test_monotone_in_delta(self):
        vals = [float(vertex_count_bound(4, 2, 3, d)) for d in (1, 2, 8, 100)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_dominates_oracle_count(self):
        inst = CanonicalInstance(
            A=IntMat.from_rows([[1, 0], [0, 1], [1, 1]]),
            b_l=(0, 0, NEG_INF),
            b_r=(3, 3, 5),
            c=(1, 1),
        )
        vs = hull_vertices(inst, [(-1, 4), (-1, 4)])
        s = 2
        assert float(vertex_count_bound(2, 1, s, 1)) >= len(vs)


class TestVerifier:
    def test_unimodular_box(self):
        inst = CanonicalInstance(
            A=IntMat.from_rows([[1, 0], [0, 1]]),
            b_l=(0, 0),
            b_r=(2, 2),
            c=(1, 1),
        )
        vs = hull_vertices(inst, [(-1, 3), (-1, 3)])
        rep = verify_instance_bounds(inst, vs)
        assert rep.ok
        assert "sparsity-lattice" in rep.as_table()

    def test_random_sweep(self):
        rng = random.Random(77)
        done = 0
        while done < 20:
            n = rng.randint(1, 3)
            m = rng.randint(1, 2)
            a = IntMat.from_rows(
                [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n + m)]
            )
            if rank(a) < n:
                continue
            b_l = tuple(rng.randint(-4, 0) for _ in range(n + m))
            b_r = tuple(lo + rng.randint(1, 6) for lo in b_l)
            c = tuple(rng.randint(-3, 3) for _ in range(n))
            inst = CanonicalInstance(A=a, b_l=b_l, b_r=b_r, c=c)
            vs = hull_vertices(inst, [(-8, 8)] * n)
            if not vs:
                continue
            rep = verify_instance_bounds(inst, vs)
            assert rep.ok, rep.as_table()
            done += 1
