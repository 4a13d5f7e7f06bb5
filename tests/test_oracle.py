import itertools

import pytest

from deltailp import oracle
from deltailp.intlinalg import IntMat
from deltailp.model import (
    NEG_INF,
    POS_INF,
    CanonicalInstance,
    GroupInstance,
    GroupSpec,
    StandardInstance,
)
from deltailp.oracle import (
    CapExceeded,
    brute_force_group,
    brute_force_ilp,
    feasible_points,
    group_hull_vertices,
    hull_vertices,
)


def box_cf(n, lo, hi):
    return [(lo, hi)] * n


class TestBruteForceIlp:
    def test_1d_max(self):
        inst = CanonicalInstance(
            A=IntMat.from_rows([[1]]), b_l=(NEG_INF,), b_r=(5,), c=(1,)
        )
        out = brute_force_ilp(inst, [(-10, 10)])
        assert out.status == "optimal" and out.x == (5,) and out.value == 5

    def test_empty(self):
        inst = CanonicalInstance(
            A=IntMat.from_rows([[2]]), b_l=(1,), b_r=(1,), c=(1,)
        )
        out = brute_force_ilp(inst, [(-10, 10)])
        assert out.status == "infeasible"

    def test_standard_min(self):
        inst = StandardInstance(
            n=2,
            m=1,
            A=IntMat.from_rows([[2, 3]]),
            G=None,
            S=None,
            b=(7,),
            g=(),
            u=(5, 5),
            c=(1, 1),
        )
        out = brute_force_ilp(inst, [(0, 5), (0, 5)])
        assert out.status == "optimal" and out.x == (2, 1) and out.value == 3

    def test_numpy_and_python_paths_agree(self):
        inst = CanonicalInstance(
            A=IntMat.from_rows([[1, 2], [3, -1], [1, 1]]),
            b_l=(NEG_INF, -4, 0),
            b_r=(6, 5, 4),
            c=(2, -1),
        )
        box = [(-5, 6), (-5, 6)]
        fast = feasible_points(inst, box)
        from deltailp.model import is_feasible

        slow = [
            x
            for x in itertools.product(range(-5, 7), repeat=2)
            if is_feasible(inst, x)
        ]
        assert fast == sorted(slow)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(oracle, "_POINT_CAP", 10)
        inst = CanonicalInstance(
            A=IntMat.from_rows([[1]]), b_l=(NEG_INF,), b_r=(5,), c=(1,)
        )
        with pytest.raises(CapExceeded):
            brute_force_ilp(inst, [(-10, 10)])


class TestHullVertices:
    def test_unit_box(self):
        inst = CanonicalInstance(
            A=IntMat.from_rows([[1, 0], [0, 1]]),
            b_l=(0, 0),
            b_r=(1, 1),
            c=(0, 0),
        )
        vs = hull_vertices(inst, box_cf(2, -2, 2))
        assert vs == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_collinear_segment(self):
        inst = CanonicalInstance(
            A=IntMat.from_rows([[1, -1], [1, 0]]),
            b_l=(0, 0),
            b_r=(0, 2),
            c=(0, 0),
        )
        vs = hull_vertices(inst, box_cf(2, -3, 3))
        assert vs == [(0, 0), (2, 2)]

    def test_triangle_interior_point_excluded(self):
        # feasible set {(0,0),(2,0),(0,2),(1,1),(1,0),(0,1)}: hull corners only
        inst = CanonicalInstance(
            A=IntMat.from_rows([[1, 1], [-1, 0], [0, -1]]),
            b_l=(NEG_INF,) * 3,
            b_r=(2, 0, 0),
            c=(0, 0),
        )
        vs = hull_vertices(inst, box_cf(2, -1, 3))
        assert vs == [(0, 0), (0, 2), (2, 0)]


class TestGroup:
    def z5(self):
        return GroupInstance(
            group=GroupSpec((5,)),
            generators=((2,), (3,)),
            target=(1,),
            costs=(1, 1),
            bounds=(POS_INF, POS_INF),
        )

    def test_target_identity(self):
        inst = GroupInstance(
            group=GroupSpec((5,)),
            generators=((2,),),
            target=(0,),
            costs=(1,),
            bounds=(POS_INF,),
        )
        out = brute_force_group(inst, 4)
        assert out.status == "optimal" and out.x == (0,) and out.value == 0

    def test_z5_example(self):
        out = brute_force_group(self.z5(), 4)
        assert out.value == 2

    def test_radius_zero_infeasible(self):
        out = brute_force_group(self.z5(), 0)
        assert out.status == "infeasible"

    def test_subgroup_infeasible(self):
        inst = GroupInstance(
            group=GroupSpec((4,)),
            generators=((2,),),
            target=(1,),
            costs=(1,),
            bounds=(POS_INF,),
        )
        assert brute_force_group(inst, 3).status == "infeasible"

    def test_group_hull_vertices_small(self):
        # Z_4 with generators 1 and 2, target 2: solutions include (2,0),
        # (0,1); both are vertices; (2,0) dominated? no: check exactness
        inst = GroupInstance(
            group=GroupSpec((4,)),
            generators=((1,), (2,)),
            target=(2,),
            costs=(1, 1),
            bounds=(POS_INF, POS_INF),
        )
        vs = group_hull_vertices(inst)
        assert (0, 1) in vs
        # (2, 0) is componentwise above nothing smaller; it is a vertex too
        assert (2, 0) in vs
        # any solution strictly dominating another is not a vertex
        sols = set(vs)
        for p in sols:
            for q in sols:
                if p != q:
                    assert not all(pi >= qi for pi, qi in zip(p, q))
