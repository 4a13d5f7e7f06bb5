"""Problem data types, validation, and system normalization.

Four integer programming forms are covered:

* canonical:  max c'x  subject to  b_l <= A x <= b_r,  x integer, with A of
  full column rank; the one-sided variant has every b_l entry equal to -inf.
* generalized standard:  min c'x  subject to  A x = b,  G x = g (mod S),
  0 <= x <= u,  x integer, where the stack [A; G] is square unimodular and S
  is a diagonal matrix with a divisibility chain.
* group minimization:  min c'x subject to sum x_i * g_i = g_0 in a finite
  Abelian group given by its cyclic factor moduli, x nonnegative integer,
  optionally bounded.

Infinite bounds are explicit tagged values (NEG_INF / POS_INF), never
sentinel numerics.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .intlinalg import IntMat, RankError, det, hnf, rank, unimodular_inverse


class _Infinity:
    """Tagged infinite bound value with total order against integers."""

    __slots__ = ("sign",)

    def __init__(self, sign: int) -> None:
        self.sign = sign

    def __repr__(self) -> str:
        return "+inf" if self.sign > 0 else "-inf"

    def __neg__(self) -> "_Infinity":
        return POS_INF if self.sign < 0 else NEG_INF

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Infinity) and other.sign == self.sign

    def __hash__(self) -> int:
        return hash(("_Infinity", self.sign))

    def __lt__(self, other) -> bool:
        if isinstance(other, _Infinity):
            return self.sign < other.sign
        return self.sign < 0

    def __le__(self, other) -> bool:
        return self == other or self < other

    def __gt__(self, other) -> bool:
        return not self <= other

    def __ge__(self, other) -> bool:
        return not self < other


POS_INF = _Infinity(1)
NEG_INF = _Infinity(-1)

ExtInt = int | _Infinity


def is_finite(v: ExtInt) -> bool:
    return not isinstance(v, _Infinity)


class CertificateError(RuntimeError):
    """A solver's answer failed its explicit re-check."""


class CapExceeded(RuntimeError):
    """Raised when an enumeration or a DP table would exceed its cap."""


@dataclass(frozen=True)
class CanonicalInstance:
    """max c'x  s.t.  b_l <= A x <= b_r,  x integer."""

    A: IntMat
    b_l: tuple[ExtInt, ...]
    b_r: tuple[int, ...]
    c: tuple[int, ...]

    @property
    def n(self) -> int:
        return self.A.cols

    @property
    def m(self) -> int:
        return self.A.rows - self.A.cols

    @property
    def one_sided(self) -> bool:
        """True when every lower bound is -inf."""
        return all(not is_finite(v) for v in self.b_l)


@dataclass(frozen=True)
class StandardInstance:
    """min c'x  s.t.  A x = b,  G x = g (mod S),  0 <= x <= u,  x integer.

    m may be 0 (no equality rows; A is None) and m may equal n (no group
    rows; G and S are None).
    """

    n: int
    m: int
    A: IntMat | None
    G: IntMat | None
    S: IntMat | None
    b: tuple[int, ...]
    g: tuple[int, ...]
    u: tuple[ExtInt, ...]
    c: tuple[int, ...]

    @property
    def det_s(self) -> int:
        if self.S is None:
            return 1
        out = 1
        for i in range(self.S.rows):
            out *= self.S.entries[i][i]
        return out

    @property
    def bounded(self) -> bool:
        return all(is_finite(v) for v in self.u)

    @cached_property
    def _group_rows(self) -> tuple[int, ...]:
        # a row with modulus 1 constrains nothing; the divisibility chain
        # puts the others last
        if self.S is None:
            return ()
        return tuple(i for i in range(self.S.rows) if self.S.entries[i][i] > 1)

    @cached_property
    def group(self) -> GroupSpec:
        """Group of the residues G x mod S: the factors of S with modulus > 1."""
        return GroupSpec(tuple(self.S.entries[i][i] for i in self._group_rows))

    @cached_property
    def group_target(self) -> tuple[int, ...]:
        """g reduced into group."""
        return self.group.reduce([self.g[i] for i in self._group_rows])

    @cached_property
    def group_columns(self) -> tuple[tuple[int, ...], ...]:
        """residue(e_k) for each column k, read off G's columns."""
        rows = [self.G.row(i) for i in self._group_rows]
        return tuple(self.group.reduce([r[k] for r in rows]) for k in range(self.n))

    def residue(self, x: Sequence[int]) -> tuple[int, ...]:
        """G x reduced into group."""
        return self.group.reduce(
            [sum(a * v for a, v in zip(self.G.row(i), x)) for i in self._group_rows]
        )


@dataclass(frozen=True)
class GroupSpec:
    """Finite Abelian group as a product of cyclic factors Z_d1 x ... x Z_dr
    with d1 | d2 | ... | dr."""

    moduli: tuple[int, ...]

    @property
    def order(self) -> int:
        return math.prod(self.moduli)

    def reduce(self, elem: Sequence[int]) -> tuple[int, ...]:
        return tuple(e % d for e, d in zip(elem, self.moduli))

    def add(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return tuple((x + y) % d for x, y, d in zip(a, b, self.moduli))

    def sub(self, a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
        return tuple((x - y) % d for x, y, d in zip(a, b, self.moduli))

    def scale(self, k: int, a: Sequence[int]) -> tuple[int, ...]:
        return tuple((k * x) % d for x, d in zip(a, self.moduli))

    def elements(self) -> list[tuple[int, ...]]:
        """Every element, in lexicographic (product) order."""
        return list(itertools.product(*(range(d) for d in self.moduli)))

    def encode(self, elem: Sequence[int]) -> int:
        """Mixed-radix integer encoding of a reduced element."""
        code = 0
        for e, d in zip(elem, self.moduli):
            code = code * d + (e % d)
        return code

    @cached_property
    def _radix(self):
        """(moduli, strides) as int64 arrays: a code is digits @ strides."""
        import numpy as np

        strides = [math.prod(self.moduli[i + 1 :]) for i in range(len(self.moduli))]
        return np.array(self.moduli, dtype=np.int64), np.array(strides, dtype=np.int64)

    @cached_property
    def digits(self):
        """(order, k) int64 array whose row r holds the digits of code r,
        so its rows run in :meth:`encode` / :meth:`elements` order."""
        import numpy as np

        moduli, strides = self._radix
        return np.arange(self.order, dtype=np.int64)[:, None] // strides % moduli

    def codes(self, digits):
        """Codes of an integer array whose last axis holds digits, each
        digit first reduced mod its modulus: residue arithmetic on codes is
        ``codes(digits[a] +/- digits[b])``."""
        moduli, strides = self._radix
        return (digits % moduli) @ strides

    @property
    def zero(self) -> tuple[int, ...]:
        return (0,) * len(self.moduli)


@dataclass(frozen=True)
class GroupInstance:
    """min c'x  s.t.  sum x_i * g_i = target in the group, x >= 0 integer,
    x <= bounds where finite."""

    group: GroupSpec
    generators: tuple[tuple[int, ...], ...]
    target: tuple[int, ...]
    costs: tuple[int, ...]
    bounds: tuple[ExtInt, ...]

    @property
    def n(self) -> int:
        return len(self.generators)

    @property
    def bounded(self) -> bool:
        return all(is_finite(v) for v in self.bounds)


Instance = CanonicalInstance | StandardInstance | GroupInstance


@dataclass(frozen=True)
class SolveOutcome:
    """Tagged solver result: optimal / infeasible / unbounded.

    For optimal outcomes x is the solution vector (lexicographically
    smallest among optimal solutions for deterministic solvers) and value
    the exact objective.  certificate carries optional extra data such as
    unbounded rays or structural reports.
    """

    status: str  # optimal | infeasible | unbounded
    x: tuple[int, ...] | None = None
    value: int | None = None
    certificate: dict | None = None

    @staticmethod
    def optimal(x: Sequence[int], value: int, certificate: dict | None = None) -> "SolveOutcome":
        return SolveOutcome(status="optimal", x=tuple(x), value=value, certificate=certificate)

    @staticmethod
    def infeasible(certificate: dict | None = None) -> "SolveOutcome":
        return SolveOutcome(status="infeasible", certificate=certificate)

    @staticmethod
    def unbounded(certificate: dict | None = None) -> "SolveOutcome":
        return SolveOutcome(status="unbounded", certificate=certificate)


def _size_issues(*checks: tuple[str, int, int]) -> list[str]:
    return [f"{what} is {size}, expected {expected}" for what, size, expected in checks
            if size != expected]


def structural_issues(instance: Instance) -> list[str]:
    """The rules every instance file must meet, in the order the parser
    applies them (its refusal is the first): the dimensions of each form
    agree; G and S are both present or both empty, and S is square and
    diagonal with entries >= 1; u and bounds are >= 0 and moduli >= 1.

    In ilp-cf / bilp-cf, |b_l| = |b_r| = the rows of A and |c| = its
    columns.  In ilp-sf / bilp-sf, |c| = n, A has m rows (none when it is
    empty) and n columns, G has n columns and n - m rows unless it is
    empty, |u| = n, |b| = m and |g| = the rows of G = the rows of S.  In
    group, every generator and the target have one entry per modulus, and
    |costs| = |bounds| = the number of generators.
    """
    if isinstance(instance, CanonicalInstance):
        a = instance.A
        return _size_issues(
            ("length of b_l", len(instance.b_l), a.rows),
            ("length of b_r", len(instance.b_r), a.rows),
            ("length of c", len(instance.c), a.cols),
        )
    if isinstance(instance, StandardInstance):
        n, m, a, g_mat, s_mat = instance.n, instance.m, instance.A, instance.G, instance.S
        issues = []
        if (g_mat is None) != (s_mat is None):
            issues.append("G and S must both be present or both empty")
        if s_mat is not None and (s_mat.rows != s_mat.cols or any(
            row[i] < 1 or row.count(0) != len(row) - 1 for i, row in enumerate(s_mat.entries)
        )):
            issues.append("S must be diagonal with entries >= 1")
        if any(v < 0 for v in instance.u):
            issues.append("u: entries must be >= 0")
        d = g_mat.rows if g_mat is not None else 0
        return issues + _size_issues(
            ("length of c", len(instance.c), n),
            ("row count of A", a.rows if a is not None else 0, m),
            ("row count of G", d, n - m if g_mat is not None else 0),
            ("column count of A", a.cols if a is not None else n, n),
            ("length of u", len(instance.u), n),
            ("length of b", len(instance.b), m),
            ("column count of G", g_mat.cols if g_mat is not None else n, n),
            ("row count of S", s_mat.rows if s_mat is not None else 0, d),
            ("length of g", len(instance.g), d),
        )
    if isinstance(instance, GroupInstance):
        k = len(instance.group.moduli)
        issues = []
        if any(d < 1 for d in instance.group.moduli):
            issues.append("moduli: entries must be >= 1")
        if any(v < 0 for v in instance.bounds):
            issues.append("bounds: entries must be >= 0")
        return issues + _size_issues(
            *(("length of a generator", len(g), k) for g in instance.generators),
            ("length of target", len(instance.target), k),
            ("length of costs", len(instance.costs), instance.n),
            ("length of bounds", len(instance.bounds), instance.n),
        )
    raise TypeError(f"unknown instance type: {type(instance)!r}")


def validate(instance: Instance) -> list[str]:
    """Report-only validation: list of violated invariants (empty = valid).

    The list starts with :func:`structural_issues`, the rules the parser
    refuses a file on, and ends there when any of them fails.  Otherwise it
    holds the paper's invariants that the parser does not check:

    * canonical: A has full column rank, and b_l <= b_r;
    * standard, generalized (G present): the divisibility chain of diag(S),
      g reduced into [0, diag(S)), and a unimodular stack [A; G];
    * standard, classic (G and S empty): A x = b, 0 <= x <= u with A of
      full row rank;
    * standard, both: nonnegative costs;
    * group: the divisibility chain of the moduli, at least one generator,
      reduced elements and nonnegative costs.
    """
    issues = structural_issues(instance)
    if issues:
        return issues
    if isinstance(instance, CanonicalInstance):
        a = instance.A
        if a.rows < a.cols:
            issues.append("A must have at least as many rows as columns")
        elif rank(a) != a.cols:
            issues.append("A does not have full column rank")
        if any(is_finite(lo) and lo > hi for lo, hi in zip(instance.b_l, instance.b_r)):
            issues.append("b_l exceeds b_r on some row")
        return issues
    if isinstance(instance, StandardInstance):
        if instance.G is None:
            if instance.A is not None and rank(instance.A) != instance.m:
                issues.append("A does not have full row rank")
        else:
            s = instance.S
            diag = [s.entries[i][i] for i in range(s.rows)]
            if any(diag[i + 1] % diag[i] != 0 for i in range(len(diag) - 1)):
                issues.append("divisibility chain")
            elif any(not 0 <= gi < di for gi, di in zip(instance.g, diag)):
                issues.append("g not reduced into [0, diag(S))")
            a_rows = instance.A.entries if instance.A is not None else ()
            if abs(det(IntMat(a_rows + instance.G.entries))) != 1:
                issues.append("stack not unimodular")
        if any(ci < 0 for ci in instance.c):
            issues.append("costs must be nonnegative")
        return issues
    mods = instance.group.moduli
    if any(mods[i + 1] % mods[i] != 0 for i in range(len(mods) - 1)):
        issues.append("divisibility chain")
    if instance.n < 1:
        issues.append("at least one generator required")
    if any(not 0 <= e < d for gen in instance.generators + (instance.target,)
           for e, d in zip(gen, mods)):
        issues.append("element not reduced")
    if any(ci < 0 for ci in instance.costs):
        issues.append("costs must be nonnegative")
    return issues


@dataclass(frozen=True)
class NormalizationRecord:
    """Invertible bookkeeping for system normalization.

    Forward map on points: x_new = Q x_old - t.  Rows of the normalized
    system are the original rows reordered by row_perm (base rows first).
    col_perm records the final variable permutation that was folded into Q.
    """

    base: tuple[int, ...]
    Q: IntMat
    t: tuple[int, ...]
    row_perm: tuple[int, ...]
    col_perm: tuple[int, ...]
    delta: int
    s: int
    t_diag: int

    def q_inverse(self) -> IntMat:
        return unimodular_inverse(self.Q)


def transform_point(
    record: NormalizationRecord, x: Sequence[int], direction: str = "forward"
) -> tuple[int, ...]:
    """Apply the normalization change of variables to a point.

    forward sends original coordinates to normalized ones; inverse undoes
    it; the two maps compose to the identity.
    """
    if direction == "forward":
        y = record.Q.matvec(tuple(x))
        return tuple(a - b for a, b in zip(y, record.t))
    if direction == "inverse":
        shifted = tuple(a + b for a, b in zip(x, record.t))
        return record.q_inverse().matvec(shifted)
    raise ValueError("direction must be 'forward' or 'inverse'")


def _apply_sym_perm(mat: list[list[int]], perm: Sequence[int]) -> list[list[int]]:
    """Symmetric permutation: new[i][j] = old[perm[i]][perm[j]]."""
    return [[mat[pi][pj] for pj in perm] for pi in perm]


def normalize(
    instance: CanonicalInstance, base: Sequence[int]
) -> tuple[CanonicalInstance, NormalizationRecord]:
    """Normalize a canonical system at the vertex defined by a base.

    After normalization the base rows come first, the base block is lower
    triangular with unit diagonal entries leading, entries below the
    diagonal are reduced into [0, diagonal), the columns of the block under
    the identity part are lexicographically sorted, and the base-row bounds
    are translated into [0, diag).  The returned record inverts everything.

    Base rows are translated against b_l when all base lower bounds are
    finite, otherwise against b_r (the one-sided case).
    """
    a = instance.A
    n = a.cols
    base = tuple(base)
    a_base = a.take_rows(base)
    if det(a_base) == 0:
        raise RankError("singular base block")
    use_lower = all(is_finite(instance.b_l[i]) for i in base)

    # change of variables bringing the base block to lower triangular form
    dec = hnf(a_base)
    q = dec.Q.to_lists()  # x' = Q x
    t_block = dec.T.to_lists()

    # symmetric permutation: unit diagonal entries first (stable)
    diag = [t_block[i][i] for i in range(n)]
    perm1 = [i for i in range(n) if diag[i] == 1] + [i for i in range(n) if diag[i] != 1]
    s = sum(1 for d in diag if d == 1)
    t_block = _apply_sym_perm(t_block, perm1)

    # symmetric permutation of the first s indices sorting the columns of
    # the block below the identity part lexicographically
    cols_h = sorted(range(s), key=lambda j: [t_block[i][j] for i in range(s, n)])
    perm2 = cols_h + list(range(s, n))
    t_block = _apply_sym_perm(t_block, perm2)

    perm = [perm1[p] for p in perm2]  # composed variable/base-row permutation

    # fold permutations into the change of variables: x_new = Q_full x_old
    # with Q_full row i = row perm[i] of Q
    q_full = IntMat.from_rows([q[perm[i]] for i in range(n)])

    row_perm = tuple(base[perm[i]] for i in range(n)) + tuple(
        i for i in range(a.rows) if i not in set(base)
    )
    # A_new = A[row_perm] * Q_full^{-1}; Q_full is unimodular
    q_inv = unimodular_inverse(q_full)
    a_new = IntMat.from_rows([a.row(r) for r in row_perm]).mul(q_inv)

    # integer translation putting the base-row reference bounds into [0, diag)
    ref = instance.b_l if use_lower else instance.b_r
    ref_base = [ref[row_perm[i]] for i in range(n)]
    t_vec = [0] * n
    for i in range(n):
        acc = ref_base[i] - sum(a_new.entries[i][j] * t_vec[j] for j in range(i))
        t_vec[i] = acc // a_new.entries[i][i]  # floor division
    shift = a_new.matvec(tuple(t_vec))
    b_l_new = tuple(
        instance.b_l[r] - shift[i] if is_finite(instance.b_l[r]) else NEG_INF
        for i, r in enumerate(row_perm)
    )
    b_r_new = tuple(instance.b_r[r] - shift[i] for i, r in enumerate(row_perm))
    c_new = tuple(q_inv.transpose().matvec(instance.c))

    normalized = CanonicalInstance(A=a_new, b_l=b_l_new, b_r=b_r_new, c=c_new)
    record = NormalizationRecord(
        base=tuple(range(n)),
        Q=q_full,
        t=tuple(t_vec),
        row_perm=row_perm,
        col_perm=tuple(perm),
        delta=abs(det(a_new.take_rows(range(n)))),
        s=s,
        t_diag=n - s,
    )
    return normalized, record


def objective_value(instance: Instance, x: Sequence[int]) -> int:
    if isinstance(instance, GroupInstance):
        return sum(ci * xi for ci, xi in zip(instance.costs, x))
    return sum(ci * xi for ci, xi in zip(instance.c, x))


def is_feasible(instance: Instance, x: Sequence[int]) -> bool:
    """Exact integer feasibility check of a point."""
    if isinstance(instance, CanonicalInstance):
        ax = instance.A.matvec(tuple(x))
        return all(
            (not is_finite(lo) or lo <= v) and v <= hi
            for lo, v, hi in zip(instance.b_l, ax, instance.b_r)
        )
    if isinstance(instance, StandardInstance):
        if len(x) != instance.n or any(xi < 0 for xi in x):
            return False
        if any(is_finite(ui) and xi > ui for xi, ui in zip(x, instance.u)):
            return False
        if instance.A is not None and instance.A.matvec(tuple(x)) != instance.b:
            return False
        if instance.G is not None:
            # straight from G, g and S, sharing nothing with the residue
            # the solvers use; a row mod 1 always holds
            for i, (row, gi) in enumerate(zip(instance.G.entries, instance.g)):
                d = instance.S.entries[i][i]
                if d > 1 and (sum(a * v for a, v in zip(row, x)) - gi) % d:
                    return False
        return True
    if isinstance(instance, GroupInstance):
        if any(xi < 0 for xi in x):
            return False
        if any(is_finite(ui) and xi > ui for xi, ui in zip(x, instance.bounds)):
            return False
        acc = instance.group.zero
        for xi, gen in zip(x, instance.generators):
            acc = instance.group.add(acc, instance.group.scale(xi, gen))
        return acc == instance.group.reduce(instance.target)
    raise TypeError(f"unknown instance type: {type(instance)!r}")
