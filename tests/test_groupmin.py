import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import deltailp.groupmin as gm
from deltailp.groupmin import (
    WitnessError,
    _check_unbounded_instance,
    _dedup_generators,
    _doubling_rounds,
    _is_cyclic,
    cyclic_minplus_solve,
    face_support_witness,
    gomory_solve,
    independence_dimension,
    vertex_certificate,
)
from deltailp.model import POS_INF, GroupInstance, GroupSpec, SolveOutcome
from deltailp.oracle import brute_force_group, group_hull_vertices

SRC = Path(__file__).resolve().parents[1] / "src"


# -- reference: the tuple-based doubling solver the numpy kernel replaced ------


def _pair_add(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, tuple):
        return tuple(x + y for x, y in zip(a, b))
    return a + b


def minplus_convolution(a: list, b: list) -> list:
    """c_k = min_{i+j=k}(a_i + b_j) with None as the absorbing +infinity;
    entries are numbers or same-length tuples (lexicographic order)."""
    out: list = [None] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai is None:
            continue
        for j, bj in enumerate(b):
            if bj is None:
                continue
            v = _pair_add(ai, bj)
            k = i + j
            if out[k] is None or v < out[k]:
                out[k] = v
    return out


def ref_cyclic_minplus_solve(instance: GroupInstance) -> SolveOutcome:
    """(cost, l1) tuple levels, each the self-convolution of the doubled
    previous level read at r..2r-1; the witness takes the first split g2 in
    range(r) that reproduces each value."""
    _check_unbounded_instance(instance)
    grp = instance.group
    if not _is_cyclic(grp.moduli):
        raise ValueError("cyclic_minplus_solve requires a cyclic group")
    r = grp.order
    gens = _dedup_generators(instance)
    target = grp.encode(grp.reduce(instance.target))

    level1 = [None] * r
    level1[0] = (0, 0)
    for code, cost, _ in gens:
        level1[code] = (cost, 1)
    rounds = _doubling_rounds(r)
    levels = [level1]
    for _ in range(2, rounds + 1):
        doubled = levels[-1] + levels[-1]
        beta = minplus_convolution(doubled, doubled)
        levels.append([beta[s + r] for s in range(r)])
    if levels[-1][target] is None:
        return SolveOutcome.infeasible(certificate={"rounds": rounds})

    x = [0] * instance.n
    code_to_index = {code: idx for code, _, idx in gens}

    def reconstruct(k: int, g: int) -> None:
        val = levels[k][g]
        if val == (0, 0) and g == 0:
            return
        if k == 0:
            x[code_to_index[g]] += 1
            return
        for g2 in range(r):
            left = levels[k - 1][(g - g2) % r]
            right = levels[k - 1][g2]
            if _pair_add(left, right) == val:
                reconstruct(k - 1, (g - g2) % r)
                reconstruct(k - 1, g2)
                return
        raise WitnessError("doubling table admits no consistent split")

    reconstruct(rounds - 1, target)
    value = sum(c * t for c, t in zip(instance.costs, x))
    assert (value, sum(x)) == levels[-1][target]
    return SolveOutcome.optimal(x, value, certificate={"rounds": rounds})


def outcome_key(out: SolveOutcome):
    return out.status, out.x, out.value, out.certificate


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

    def test_witness_recheck_raises(self, monkeypatch):
        # the DP runs on costs that differ from the instance's, so the
        # witness cost cannot match its DP value
        dedup = gm._dedup_generators
        monkeypatch.setattr(
            gm, "_dedup_generators",
            lambda inst: [(code, c + 1, i) for code, c, i in dedup(inst)],
        )
        inst = make([5], [(2,), (3,)], (1,), (1, 1))
        with pytest.raises(WitnessError, match="differs from the DP value"):
            gomory_solve(inst)

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


def cyclic_cases(rng, count, r_max=130):
    """Seeded cyclic instances: r from 1 to r_max (mostly at most 40, since
    the reference is quadratic per level), with duplicate, zero and
    zero-cost generators, target 0 and gcd-infeasible targets."""
    for i in range(count):
        r = rng.randint(1, 40) if i % 25 else rng.randint(min(41, r_max), r_max)
        if i == 0:
            r = r_max
        n = rng.randint(1, 7)
        gens = [rng.randrange(r) for _ in range(n)]
        kind = i % 5
        if kind == 1 and n > 1:
            gens[rng.randrange(n)] = gens[0]  # duplicate generator
        if kind == 2:
            gens[rng.randrange(n)] = 0  # zero generator
        costs = [rng.randint(0, 9) for _ in range(n)]
        if kind == 3:
            costs[rng.randrange(n)] = 0  # zero-cost generator
        target = rng.randrange(r)
        if i % 7 == 0:
            target = 0
        divisors = [d for d in range(2, r + 1) if r % d == 0]
        if kind == 4 and divisors:
            d = rng.choice(divisors)  # every generator in dZ_r, target not
            gens = [d * rng.randrange(r // d) for _ in range(n)]
            target = d * rng.randrange(r // d) + rng.randint(1, d - 1)
        yield make([r], [(g,) for g in gens], (target,), costs)


def spy_doubling(monkeypatch):
    """Record the dtype of every level 1 handed to the doubling kernel."""
    seen = []
    kernel = gm._minplus_doubling

    def spy(level, rounds, big):
        seen.append(level.dtype)
        return kernel(level, rounds, big)

    monkeypatch.setattr(gm, "_minplus_doubling", spy)
    return seen


class TestCyclicKernel:
    def test_matches_reference(self):
        rng = random.Random(909)
        statuses = set()
        for inst in cyclic_cases(rng, 300):
            ref = ref_cyclic_minplus_solve(inst)
            assert outcome_key(cyclic_minplus_solve(inst)) == outcome_key(ref), inst
            statuses.add(ref.status)
        assert statuses == {"optimal", "infeasible"}

    def test_row_blocks_match_reference(self, monkeypatch):
        rng = random.Random(910)
        for block in (1, 5, 17, 64):
            monkeypatch.setattr(gm, "_BLOCK_CELLS", block)
            for inst in cyclic_cases(rng, 20, r_max=40):
                ref = ref_cyclic_minplus_solve(inst)
                assert outcome_key(cyclic_minplus_solve(inst)) == outcome_key(ref), inst

    def test_int64_bound_edge(self, monkeypatch):
        # the largest cost whose packed range fits int64, and the next one
        r = 23
        rounds = _doubling_rounds(r)
        K = 1 << rounds
        c_max = (((1 << 61) - 1 >> (rounds - 1)) - 1) // K
        seen = spy_doubling(monkeypatch)
        for cost, dtype in ((c_max, "int64"), (c_max + 1, "object")):
            inst = make([r], [(5,), (7,), (11,)], (19,), (cost, cost - 3, 2))
            assert outcome_key(cyclic_minplus_solve(inst)) == outcome_key(
                ref_cyclic_minplus_solve(inst)
            )
            assert seen[-1] == dtype

    def test_huge_costs_take_the_object_path(self, monkeypatch):
        seen = spy_doubling(monkeypatch)
        rng = random.Random(911)
        for _ in range(6):
            r = rng.randint(2, 30)
            n = rng.randint(1, 5)
            inst = make(
                [r],
                [(rng.randrange(r),) for _ in range(n)],
                (rng.randrange(r),),
                [(1 << 60) + rng.randint(-9, 9) for _ in range(n)],
            )
            out = cyclic_minplus_solve(inst)
            assert seen[-1] == object
            assert outcome_key(out) == outcome_key(ref_cyclic_minplus_solve(inst))

    def test_large_group_bounded_temporaries(self):
        r = 2000
        inst = make([r], [(997,), (1201,), (1999,), (64,)], (1234,), (3, 4, 7, 2))
        tracemalloc.start()
        try:
            out = cyclic_minplus_solve(inst)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one (r, r) int64 table is 32 MB; a row block is 8 * _BLOCK_CELLS bytes
        assert peak < 48 * gm._BLOCK_CELLS < 8 * r * r
        ref = gomory_solve(inst)
        assert out.status == ref.status == "optimal"
        assert (out.value, sum(out.x)) == (ref.value, sum(ref.x))

    def test_corrupt_level_raises(self, monkeypatch):
        kernel = gm._minplus_doubling

        def corrupt(level, rounds, big):
            level[2] -= 1 << rounds  # generator 2 now looks one unit cheaper
            return kernel(level, rounds, big)

        monkeypatch.setattr(gm, "_minplus_doubling", corrupt)
        inst = make([5], [(2,), (3,)], (1,), (1, 1))
        with pytest.raises(WitnessError):
            cyclic_minplus_solve(inst)

    def test_corrupt_level_exits_1_under_optimize(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(
            json.dumps(
                {
                    "form": "group",
                    "moduli": [5],
                    "generators": [[2], [3]],
                    "target": [1],
                    "costs": [1, 1],
                    "bounds": ["+inf", "+inf"],
                }
            )
        )
        script = (
            "import sys\n"
            "import deltailp.groupmin as gm\n"
            "from deltailp.cli import main\n"
            "kernel = gm._minplus_doubling\n"
            "def corrupt(level, rounds, big):\n"
            "    level[2] -= 1 << rounds\n"
            "    return kernel(level, rounds, big)\n"
            "gm._minplus_doubling = corrupt\n"
            "sys.exit(main(['solve', sys.argv[1]]))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        proc = subprocess.run(
            [sys.executable, "-O", "-c", script, str(path)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1, proc.stdout + proc.stderr
        assert "error: certificate" in proc.stdout
        assert "Traceback" not in proc.stdout + proc.stderr


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
