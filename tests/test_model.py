import math
import random
from fractions import Fraction

import numpy as np
import pytest

from deltailp.intlinalg import IntMat, det, delta, rank
from deltailp.io import FormatError, parse_instance, serialize_instance
from deltailp.model import (
    NEG_INF,
    POS_INF,
    CanonicalInstance,
    GroupInstance,
    GroupSpec,
    StandardInstance,
    is_feasible,
    normalize,
    objective_value,
    transform_point,
    validate,
)
from test_intlinalg import inverse_times, ref_adjugate


def make_standard(a_rows, g_rows, s_rows, b, g, u, c):
    a = IntMat.from_rows(a_rows) if a_rows else None
    gm = IntMat.from_rows(g_rows) if g_rows else None
    sm = IntMat.from_rows(s_rows) if s_rows else None
    m = len(a_rows)
    return StandardInstance(
        n=len(c), m=m, A=a, G=gm, S=sm, b=tuple(b), g=tuple(g), u=tuple(u), c=tuple(c)
    )


class TestValidate:
    def test_identity_canonical_valid(self):
        inst = CanonicalInstance(
            A=IntMat.identity(2),
            b_l=(NEG_INF, NEG_INF),
            b_r=(0, 0),
            c=(1, 1),
        )
        assert validate(inst) == []

    def test_non_unimodular_stack(self):
        inst = make_standard(
            [[2, 0]], [[0, 1]], [[1]], b=[1], g=[0], u=[3, 3], c=[1, 1]
        )
        assert "stack not unimodular" in validate(inst)

    def test_classic_standard_form_valid(self):
        # G, S and g empty: A x = b, x >= 0, which needs A of full row rank
        # and no unimodular stack; n = 1 makes the "stack" [w]
        for a_row in ([2, 3, 5], [7]):
            inst = make_standard(
                [a_row], [], [], b=[7], g=[], u=[POS_INF] * len(a_row), c=[1] * len(a_row)
            )
            assert validate(inst) == []
            assert validate(parse_instance(serialize_instance(inst))) == []

    def test_classic_standard_form_needs_full_row_rank(self):
        inst = make_standard(
            [[1, 2, 3], [2, 4, 6]], [], [], b=[1, 2], g=[], u=[POS_INF] * 3, c=[1, 1, 1]
        )
        assert validate(inst) == ["A does not have full row rank"]

    def test_broken_divisibility_chain(self):
        inst = make_standard(
            [], [[1, 0], [0, 1]], [[3, 0], [0, 2]], b=[], g=[0, 0], u=[3, 3], c=[1, 1]
        )
        assert "divisibility chain" in validate(inst)

    def test_unreduced_g(self):
        inst = make_standard(
            [], [[1, 0], [0, 1]], [[2, 0], [0, 4]], b=[], g=[0, 5], u=[3, 3], c=[1, 1]
        )
        assert "g not reduced into [0, diag(S))" in validate(inst)

    def test_group_valid(self):
        inst = GroupInstance(
            group=GroupSpec((5,)),
            generators=((2,), (3,)),
            target=(1,),
            costs=(1, 1),
            bounds=(POS_INF, POS_INF),
        )
        assert validate(inst) == []


class TestGroupView:
    def test_unit_factors_dropped(self):
        # S = diag(1, 2, 6): the Z_1 row constrains nothing
        inst = make_standard(
            [], [[1, 0, 0], [1, 1, 0], [0, 1, 1]], [[1, 0, 0], [0, 2, 0], [0, 0, 6]],
            [], [0, 1, 5], [POS_INF] * 3, [1, 1, 1],
        )
        assert validate(inst) == []
        assert inst.group.moduli == (2, 6)
        elems = inst.group.elements()
        assert len(elems) == 12
        assert elems[:3] == [(0, 0), (0, 1), (0, 2)] and elems[-1] == (1, 5)
        assert inst.group_target == (1, 5)
        assert inst.group_columns == ((1, 0), (1, 1), (0, 1))
        assert inst.residue((1, 2, 3)) == (1, 5)
        assert inst.residue((0, 0, 7)) == (0, 1)
        assert inst.group.sub((0, 1), (1, 5)) == (1, 2)

    def test_no_group_rows(self):
        inst = make_standard(
            [[1, 0], [1, 1]], [], [], [2, 3], [], [4, 4], [1, 1]
        )
        assert inst.S is None
        assert inst.group.moduli == ()
        assert inst.group.elements() == [()]
        assert inst.group_columns == ((), ())
        assert inst.group_target == () and inst.residue((2, 1)) == ()

    def test_classic_knapsack_has_trivial_group(self):
        from deltailp.reductions import classic_to_generalized

        inst, _ = classic_to_generalized(
            IntMat.from_rows([[3, 5, 7, 2]]), (10,), (1, 2, 3, 4), (1, 1, 1, 1)
        )
        assert inst.S.rows == 3
        assert inst.group.moduli == ()
        assert inst.group.elements() == [()]
        assert inst.group_columns == ((),) * 4
        assert inst.residue((1, 0, 1, 0)) == ()


class TestGroupCodes:
    GROUPS = [(), (5,), (2, 4), (2, 2, 6)]

    @pytest.mark.parametrize("moduli", GROUPS, ids=str)
    def test_digits_list_the_codes_in_order(self, moduli):
        grp = GroupSpec(moduli)
        digits = grp.digits
        assert digits.shape == (grp.order, len(moduli))
        assert [tuple(row) for row in digits.tolist()] == grp.elements()
        assert grp.codes(digits).tolist() == list(range(grp.order))

    @pytest.mark.parametrize("moduli", GROUPS, ids=str)
    def test_code_arithmetic_matches_tuples(self, moduli):
        grp = GroupSpec(moduli)
        digits, elems = grp.digits, grp.elements()
        plus = grp.codes(digits[:, None] + digits[None])
        minus = grp.codes(digits[:, None] - digits[None])
        for a, ea in enumerate(elems):
            for b, eb in enumerate(elems):
                assert plus[a, b] == grp.encode(grp.add(ea, eb))
                assert minus[a, b] == grp.encode(grp.sub(ea, eb))

    @pytest.mark.parametrize("moduli", GROUPS, ids=str)
    def test_codes_reduce_out_of_range_digits(self, moduli):
        grp = GroupSpec(moduli)
        rng = random.Random(len(moduli))
        raw = [[rng.randint(-3 * d, 3 * d) for d in moduli] for _ in range(40)]
        raw += [[-d for d in moduli], [d for d in moduli], [2 * d - 1 for d in moduli]]
        got = grp.codes(np.array(raw, dtype=np.int64).reshape(len(raw), len(moduli)))
        assert got.tolist() == [grp.encode(grp.reduce(r)) for r in raw]


class TestNormalize:
    def vertex(self, inst, base):
        a_base = inst.A.take_rows(base)
        ref = [inst.b_l[i] for i in base]
        return inverse_times(a_base, ref)

    def check_roundtrip(self, inst, base, points):
        normed, rec = normalize(inst, base)
        assert validate(normed) == []
        n = inst.A.cols
        # base block shape
        blk = normed.A.take_rows(range(n))
        for i in range(n):
            assert blk.entries[i][i] > 0
            for j in range(i + 1, n):
                assert blk.entries[i][j] == 0
            for j in range(i):
                assert 0 <= blk.entries[i][j] < blk.entries[i][i]
        # leading unit block, then entries >= 2
        s = rec.s
        for i in range(s):
            assert blk.entries[i][i] == 1
        for i in range(s, n):
            assert blk.entries[i][i] >= 2
        # product of non-unit diagonal entries
        prod = math.prod(blk.entries[i][i] for i in range(s, n))
        assert prod == rec.delta <= delta(inst.A)
        assert rec.t_diag <= math.log2(max(2, delta(inst.A))) + 1e-9
        # translated base bounds inside [0, diag)
        for i in range(n):
            lo = normed.b_l[i]
            assert 0 <= lo < blk.entries[i][i]
        # round trip on sample points; feasibility preserved and objective
        # shifted by a constant (translations change it by c't)
        offsets = set()
        for x in points:
            y = transform_point(rec, x, "forward")
            assert transform_point(rec, y, "inverse") == tuple(x)
            assert is_feasible(inst, x) == is_feasible(normed, y)
            offsets.add(objective_value(inst, x) - objective_value(normed, y))
        assert len(offsets) == 1
        return normed, rec

    def test_worked_example(self):
        a = IntMat.from_rows([[2, 0], [1, 3], [1, 1], [0, 1]])
        inst = CanonicalInstance(
            A=a, b_l=(5, 7, -10, -10), b_r=(20, 20, 20, 20), c=(1, 1)
        )
        pts = [(x1, x2) for x1 in range(-2, 8) for x2 in range(-2, 8)]
        normed, rec = self.check_roundtrip(inst, (0, 1), pts)
        assert rec.delta == 6

    def test_already_normalized_is_stable(self):
        a = IntMat.from_rows([[1, 0], [1, 2], [0, 1]])
        inst = CanonicalInstance(A=a, b_l=(0, 1, -5), b_r=(4, 9, 5), c=(2, 1))
        normed, rec = normalize(inst, (0, 1))
        assert normed.A == a
        assert normed.b_l == inst.b_l and normed.b_r == inst.b_r
        assert rec.t == (0, 0)
        assert rec.Q == IntMat.identity(2)

    def test_random_instances(self):
        rng = random.Random(77)
        done = 0
        while done < 30:
            n = rng.randint(1, 3)
            m = rng.randint(0, 2)
            a = IntMat.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n + m)]
            )
            if rank(a) < n or det(a.take_rows(range(n))) == 0:
                continue
            b_l = tuple(rng.randint(-6, 2) for _ in range(n + m))
            b_r = tuple(lo + rng.randint(0, 8) for lo in b_l)
            inst = CanonicalInstance(
                A=a, b_l=b_l, b_r=b_r, c=tuple(rng.randint(-3, 3) for _ in range(n))
            )
            pts = [
                tuple(rng.randint(-4, 4) for _ in range(n)) for _ in range(25)
            ]
            self.check_roundtrip(inst, tuple(range(n)), pts)
            done += 1

    def test_adjugate_structure_of_normalized_base(self):
        # the adjugate of the normalized base block keeps the documented
        # shape: leading rows (delta * I | 0), diagonal delta / blk[i][i],
        # and max entry at most delta^2 / 2
        rng = random.Random(123)
        done = 0
        while done < 30:
            n = rng.randint(2, 4)
            a = IntMat.from_rows(
                [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
            )
            if det(a) == 0:
                continue
            inst = CanonicalInstance(
                A=a,
                b_l=tuple(rng.randint(-5, 5) for _ in range(n)),
                b_r=tuple(20 for _ in range(n)),
                c=tuple(1 for _ in range(n)),
            )
            normed, rec = normalize(inst, tuple(range(n)))
            blk = normed.A
            adj = ref_adjugate(blk)
            d = rec.delta
            for i in range(rec.s):
                for j in range(n):
                    assert adj.entries[i][j] == (d if i == j else 0)
            for i in range(n):
                assert adj.entries[i][i] == d // blk.entries[i][i]
            if d >= 2:
                assert adj.norm_max() <= d * d / 2
            # support/magnitude growth of exact solves against the block
            for _ in range(5):
                y = [0] * n
                support = rng.sample(range(n), rng.randint(1, n))
                for i in support:
                    y[i] = rng.randint(-3, 3)
                alpha = sum(1 for v in y if v != 0)
                beta = sum(abs(v) for v in y)
                x = inverse_times(blk, y)
                nnz = sum(1 for v in x if v != 0)
                assert nnz <= alpha + math.log2(max(d, 1)) + 1e-9
                if d >= 1:
                    assert max(abs(v) for v in x) <= max(
                        Fraction(d * beta, 2), Fraction(beta)
                    )
            done += 1


class TestIO:
    def test_roundtrip_canonical(self):
        inst = CanonicalInstance(
            A=IntMat.from_rows([[2, 1], [0, 1], [1, 1]]),
            b_l=(NEG_INF, 0, NEG_INF),
            b_r=(5, 5, 5),
            c=(1, -2),
        )
        again = parse_instance(serialize_instance(inst))
        assert again == inst

    def test_roundtrip_standard(self):
        inst = make_standard(
            [[1, 0]], [[0, 1]], [[3]], b=[2], g=[1], u=[4, POS_INF], c=[1, 2]
        )
        again = parse_instance(serialize_instance(inst))
        assert again == inst

    def test_roundtrip_group(self):
        inst = GroupInstance(
            group=GroupSpec((2, 4)),
            generators=((1, 1), (0, 3)),
            target=(1, 2),
            costs=(1, 5),
            bounds=(POS_INF, 7),
        )
        assert parse_instance(serialize_instance(inst)) == inst

    def test_unknown_key_rejected(self):
        text = serialize_instance(
            CanonicalInstance(
                A=IntMat.identity(1), b_l=(NEG_INF,), b_r=(3,), c=(1,)
            )
        )
        import json

        data = json.loads(text)
        data["extra"] = 1
        with pytest.raises(FormatError):
            parse_instance(json.dumps(data))

    def test_ilp_cf_requires_all_neg_inf(self):
        import json

        data = {
            "form": "ilp-cf",
            "A": [[1]],
            "b_l": [0],
            "b_r": [3],
            "c": [1],
        }
        with pytest.raises(FormatError):
            parse_instance(json.dumps(data))

    def test_float_entries_rejected(self):
        with pytest.raises(FormatError):
            parse_instance(
                '{"form": "ilp-cf", "A": [[1.5]], "b_l": ["-inf"], "b_r": [3], "c": [1]}'
            )
