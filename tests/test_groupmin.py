import math
import random

import pytest

from deltailp.groupmin import (
    WitnessError,
    _doubling_rounds,
    cyclic_minplus_solve,
    face_support_witness,
    gomory_solve,
    independence_dimension,
    minplus_convolution,
    vertex_certificate,
)
from deltailp.model import POS_INF, GroupInstance, GroupSpec
from deltailp.oracle import brute_force_group, group_hull_vertices


def make(moduli, gens, target, costs):
    return GroupInstance(
        group=GroupSpec(tuple(moduli)),
        generators=tuple(tuple(g) for g in gens),
        target=tuple(target),
        costs=tuple(costs),
        bounds=(POS_INF,) * len(gens),
    )


def random_instance(rng, cyclic=False, max_order=24, max_n=6):
    if cyclic:
        moduli = [rng.randint(1, max_order)]
    else:
        d1 = rng.randint(1, 4)
        d2 = d1 * rng.randint(1, max(1, max_order // (4 * d1)))
        moduli = [d1, d2] if rng.random() < 0.5 else [rng.randint(1, max_order)]
    grp = GroupSpec(tuple(moduli))
    n = rng.randint(1, max_n)
    gens = [
        tuple(rng.randrange(d) for d in moduli) for _ in range(n)
    ]
    target = tuple(rng.randrange(d) for d in moduli)
    costs = [rng.randint(0, 6) for _ in range(n)]
    return make(moduli, gens, target, costs)


class TestGomory:
    def test_identity_target(self):
        inst = make([6], [(2,), (3,)], (0,), (1, 1))
        out = gomory_solve(inst)
        assert out.status == "optimal" and out.value == 0 and out.x == (0, 0)

    def test_z5_example(self):
        inst = make([5], [(2,), (3,)], (1,), (1, 1))
        out = gomory_solve(inst)
        assert out.value == 2

    def test_z4_subgroup_infeasible(self):
        inst = make([4], [(2,)], (1,), (1,))
        assert gomory_solve(inst).status == "infeasible"

    def test_requires_unbounded(self):
        inst = GroupInstance(
            group=GroupSpec((5,)),
            generators=((1,),),
            target=(3,),
            costs=(1,),
            bounds=(2,),
        )
        with pytest.raises(ValueError):
            gomory_solve(inst)

    def test_matches_brute_force(self):
        rng = random.Random(101)
        for _ in range(60):
            inst = random_instance(rng, max_order=12, max_n=4)
            out = gomory_solve(inst)
            ref = brute_force_group(inst, inst.group.order - 1)
            assert out.status == ref.status
            if out.status == "optimal":
                assert out.value == ref.value
                # witness really solves the instance within the norm bound
                grp = inst.group
                acc = grp.zero
                for t, g in zip(out.x, inst.generators):
                    acc = grp.add(acc, grp.scale(t, g))
                assert acc == grp.reduce(inst.target)
                assert sum(out.x) <= inst.group.order - 1

    def test_duplicate_generators_deduplicated(self):
        inst = make([7], [(3,), (3,), (3,)], (6,), (5, 1, 9))
        out = gomory_solve(inst)
        assert out.value == 2 and out.x == (0, 2, 0)
        assert out.certificate["deduplicated_generators"] == 1


class TestMinplusConvolution:
    def test_identity(self):
        assert minplus_convolution([0], [3, None, 1]) == [3, None, 1]

    def test_example(self):
        assert minplus_convolution([0, 1], [0, 2]) == [0, 1, 3]

    def test_all_infinite(self):
        assert minplus_convolution([None, None], [1, 2]) == [None] * 3

    def test_pairs(self):
        out = minplus_convolution([(0, 0), (1, 1)], [(1, 0), (0, 5)])
        assert out == [(1, 0), (0, 5), (1, 6)]

    def test_commutative(self):
        a, b = [2, None, 0], [1, 4]
        assert minplus_convolution(a, b) == minplus_convolution(b, a)


class TestCyclic:
    def test_z7_chain(self):
        inst = make([7], [(1,)], (5,), (1,))
        out = cyclic_minplus_solve(inst)
        assert out.value == 5 and out.x == (5,)

    def test_target_zero(self):
        inst = make([9], [(4,), (6,)], (0,), (2, 3))
        assert cyclic_minplus_solve(inst).value == 0

    def test_non_cyclic_rejected(self):
        inst = make([2, 2], [(1, 0), (0, 1)], (1, 1), (1, 1))
        with pytest.raises(ValueError):
            cyclic_minplus_solve(inst)

    def test_matches_gomory(self):
        rng = random.Random(202)
        for _ in range(200):
            inst = random_instance(rng, cyclic=True)
            a = cyclic_minplus_solve(inst)
            b = gomory_solve(inst)
            assert a.status == b.status
            if a.status == "optimal":
                assert a.value == b.value
                grp = inst.group
                acc = grp.zero
                for t, g in zip(a.x, inst.generators):
                    acc = grp.add(acc, grp.scale(t, g))
                assert acc == grp.reduce(inst.target)


    def test_doubling_rounds_match_log_formula(self):
        # the integer rule gives the round count the float logarithm gave
        assert _doubling_rounds(1) == 1
        for r in range(2, 10**5 + 1):
            expect = max(1, math.ceil(math.log(r) / math.log(1.5)))
            assert _doubling_rounds(r) == expect, r


class TestCertificates:
    def test_zero_passes(self):
        ok, prod = vertex_certificate((0, 0, 0), 2)
        assert ok and prod == 1

    def test_boundary(self):
        ok, prod = vertex_certificate((4,), 5)
        assert ok and prod == 5

    def test_failure(self):
        ok, prod = vertex_certificate((2, 2), 5)
        assert not ok and prod == 9

    def test_hull_vertices_certified(self):
        rng = random.Random(303)
        checked = 0
        while checked < 8:
            inst = random_instance(rng, max_order=7, max_n=3)
            vs = group_hull_vertices(inst)
            for v in vs:
                ok, _ = vertex_certificate(v, inst.group.order)
                assert ok, (inst, v)
            checked += 1 if vs else 0


class TestFaces:
    def test_vertex_is_zero_independent(self):
        inst = make([5], [(2,), (3,)], (1,), (1, 1))
        for v in group_hull_vertices(inst):
            assert independence_dimension(inst, v) == 0

    def test_zero_point(self):
        inst = make([4], [(1,), (2,)], (0,), (1, 1))
        assert face_support_witness(inst, (0, 0), 0) == (0, 1)

    def test_witness_on_faces(self):
        rng = random.Random(404)
        checked = 0
        while checked < 6:
            inst = random_instance(rng, max_order=6, max_n=3)
            vs = group_hull_vertices(inst)
            if not vs:
                continue
            grp = inst.group
            for p in vs:
                d = independence_dimension(inst, p)
                J = face_support_witness(inst, p, d)
                assert len(J) >= inst.n - d
                prod = 1
                for i in J:
                    prod *= 1 + p[i]
                assert prod <= grp.order
            checked += 1

    def test_witness_error(self):
        inst = make([2], [(1,), (1,)], (0,), (1, 1))
        with pytest.raises(WitnessError):
            face_support_witness(inst, (5, 5), 0)
