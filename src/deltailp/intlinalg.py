"""Exact integer linear algebra.

Everything in this module works on arbitrary-precision integers (and exact
rationals where unavoidable); there is no floating point anywhere.  Provided
operations: determinants via fraction-free elimination, adjugates, Hermite
and Smith normal forms with explicit unimodular transforms, minor statistics
(maximum / gcd / lcm of k-th order minors), enumeration of lattice points in
a parallelepiped, and selection of a maximum-determinant row submatrix.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class DimensionError(ValueError):
    """Raised when matrix/vector dimensions do not match an operation."""


class RankError(ValueError):
    """Raised when an input violates a full-rank precondition."""


@dataclass(frozen=True)
class IntMat:
    """Dense immutable matrix of arbitrary-precision integers."""

    entries: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.entries or not self.entries[0]:
            raise DimensionError("matrix must have at least one row and column")
        width = len(self.entries[0])
        for row in self.entries:
            if len(row) != width:
                raise DimensionError("ragged rows")
            for e in row:
                if not isinstance(e, int) or isinstance(e, bool):
                    raise DimensionError("entries must be integers")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMat":
        return IntMat(tuple(tuple(int(e) for e in row) for row in rows))

    @staticmethod
    def identity(n: int) -> "IntMat":
        return IntMat(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i]

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.entries)

    def transpose(self) -> "IntMat":
        return IntMat(tuple(zip(*self.entries)))

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> "IntMat":
        return IntMat(
            tuple(tuple(self.entries[i][j] for j in col_idx) for i in row_idx)
        )

    def take_rows(self, row_idx: Sequence[int]) -> "IntMat":
        return self.submatrix(row_idx, range(self.cols))

    def mul(self, other: "IntMat") -> "IntMat":
        if self.cols != other.rows:
            raise DimensionError("inner dimensions differ")
        ot = other.transpose().entries
        return IntMat(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                for row in self.entries
            )
        )

    def matvec(self, x: Sequence[int]) -> tuple[int, ...]:
        if len(x) != self.cols:
            raise DimensionError("vector length differs from column count")
        return tuple(sum(a * b for a, b in zip(row, x)) for row in self.entries)

    def scale(self, k: int) -> "IntMat":
        return IntMat(tuple(tuple(k * e for e in row) for row in self.entries))

    def norm_max(self) -> int:
        return max(abs(e) for row in self.entries for e in row)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.entries]


@dataclass(frozen=True)
class HnfResult:
    """Column Hermite form: A = T * Q with Q unimodular.

    The top square block of T is lower triangular with positive diagonal and
    reduced sub-diagonal entries whenever the leading square block of the
    input is nonsingular; in general T is in column staircase form.
    """

    T: IntMat
    Q: IntMat


@dataclass(frozen=True)
class SnfResult:
    """Smith form: A = P * [S; 0] * Q with P, Q unimodular, S diagonal."""

    S: IntMat
    P: IntMat
    Q: IntMat


@dataclass(frozen=True)
class MinorStats:
    """Statistics of the order-k minors of a matrix."""

    order: int
    delta: int
    delta_gcd: int
    delta_lcm: int
    degenerate: bool


def det(M: IntMat) -> int:
    """Exact determinant by fraction-free (division-exact) elimination."""
    if M.rows != M.cols:
        raise DimensionError("determinant of a non-square matrix")
    n = M.rows
    a = [list(row) for row in M.entries]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * pivot - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def rank(M: IntMat) -> int:
    """Exact rank via rational Gaussian elimination."""
    a = [[Fraction(e) for e in row] for row in M.entries]
    r = 0
    for j in range(M.cols):
        pivot_row = next((i for i in range(r, M.rows) if a[i][j] != 0), None)
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        inv = a[r][j]
        for i in range(r + 1, M.rows):
            if a[i][j] != 0:
                f = a[i][j] / inv
                for jj in range(j, M.cols):
                    a[i][jj] -= f * a[r][jj]
        r += 1
        if r == M.rows:
            break
    return r


def adjugate(M: IntMat) -> IntMat:
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


def _swap_cols(a: list[list[int]], i: int, j: int) -> None:
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_col(a: list[list[int]], dst: int, src: int, k: int) -> None:
    for row in a:
        row[dst] += k * row[src]


def _neg_col(a: list[list[int]], i: int) -> None:
    for row in a:
        row[i] = -row[i]


def _swap_rows(a: list[list[int]], i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]


def _add_row(a: list[list[int]], dst: int, src: int, k: int) -> None:
    a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]


def _neg_row(a: list[list[int]], i: int) -> None:
    a[i] = [-x for x in a[i]]


def hnf(A: IntMat) -> HnfResult:
    """Column Hermite normal form A = T * Q.

    The transform Q is unimodular; T has strictly increasing pivot rows,
    positive pivots, and every entry left of a pivot reduced into
    [0, pivot).  For inputs whose leading square block is nonsingular this
    is exactly the lower-triangular shape with 0 <= T[i][j] < T[i][i] for
    j < i and T[i][j] = 0 for j > i.
    """
    n = A.cols
    t = [list(row) for row in A.entries]
    q = IntMat.identity(n).to_lists()
    pc = 0  # next pivot column
    for r in range(A.rows):
        if pc == n:
            break
        # clear row r to the right of the pivot column using gcd steps
        j = pc + 1
        while j < n:
            if t[r][j] == 0:
                j += 1
                continue
            if t[r][pc] == 0:
                _swap_cols(t, pc, j)
                _swap_rows(q, pc, j)
                continue
            quo = t[r][j] // t[r][pc]
            if quo != 0:
                _add_col(t, j, pc, -quo)
                _add_row(q, pc, j, quo)
            if t[r][j] != 0:
                _swap_cols(t, pc, j)
                _swap_rows(q, pc, j)
        if t[r][pc] == 0:
            continue  # no pivot in this row
        if t[r][pc] < 0:
            _neg_col(t, pc)
            _neg_row(q, pc)
        for j in range(pc):
            quo = t[r][j] // t[r][pc]
            if quo != 0:
                _add_col(t, j, pc, -quo)
                _add_row(q, pc, j, quo)
        pc += 1
    if pc < n:
        raise RankError("matrix does not have full column rank")
    return HnfResult(T=IntMat.from_rows(t), Q=IntMat.from_rows(q))


def snf(A: IntMat) -> SnfResult:
    """Smith normal form A = P * [S; 0] * Q for full-column-rank A."""
    n = A.cols
    rows = A.rows
    if rank(A) != n:
        raise RankError("matrix does not have full column rank")
    w = [list(row) for row in A.entries]
    p = IntMat.identity(rows).to_lists()
    q = IntMat.identity(n).to_lists()

    def row_op_add(dst: int, src: int, k: int) -> None:
        _add_row(w, dst, src, k)
        # (P * E^{-1}): subtract k * column dst from column src of P
        for prow in p:
            prow[src] -= k * prow[dst]

    def row_op_swap(i: int, j: int) -> None:
        _swap_rows(w, i, j)
        _swap_cols(p, i, j)

    def row_op_neg(i: int) -> None:
        _neg_row(w, i)
        _neg_col(p, i)

    def col_op_add(dst: int, src: int, k: int) -> None:
        _add_col(w, dst, src, k)
        _add_row(q, src, dst, -k)

    def col_op_swap(i: int, j: int) -> None:
        _swap_cols(w, i, j)
        _swap_rows(q, i, j)

    for k in range(n):
        while True:
            # find a nonzero pivot in the trailing submatrix
            pivot = None
            for i in range(k, rows):
                for j in range(k, n):
                    if w[i][j] != 0:
                        pivot = (i, j)
                        break
                if pivot:
                    break
            if pivot is None:
                raise RankError("matrix does not have full column rank")
            if pivot != (k, k):
                if pivot[0] != k:
                    row_op_swap(k, pivot[0])
                if pivot[1] != k:
                    col_op_swap(k, pivot[1])
            # eliminate column k below the pivot
            dirty = False
            for i in range(k + 1, rows):
                while w[i][k] != 0:
                    quo = w[i][k] // w[k][k]
                    if quo != 0:
                        row_op_add(i, k, -quo)
                    if w[i][k] != 0:
                        row_op_swap(i, k)
                        dirty = True
            # eliminate row k right of the pivot
            for j in range(k + 1, n):
                while w[k][j] != 0:
                    quo = w[k][j] // w[k][k]
                    if quo != 0:
                        col_op_add(j, k, -quo)
                    if w[k][j] != 0:
                        col_op_swap(j, k)
                        dirty = True
            if dirty:
                continue
            # enforce divisibility of the trailing submatrix by the pivot
            offender = None
            for i in range(k + 1, rows):
                for j in range(k + 1, n):
                    if w[i][j] % w[k][k] != 0:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op_add(k, offender, 1)
        if w[k][k] < 0:
            row_op_neg(k)
    s = IntMat.from_rows([[w[i][i] if i == j else 0 for j in range(n)] for i in range(n)])
    return SnfResult(S=s, P=IntMat.from_rows(p), Q=IntMat.from_rows(q))


def minor_stats(A: IntMat, order: int | None = None) -> MinorStats:
    """Maximum absolute value, gcd, and lcm of the order-k minors.

    Enumerates all k-by-k submatrices, so this is meant for desk-scale
    inputs only.  When every minor vanishes the result is flagged
    degenerate and the gcd/lcm fields are 0.
    """
    k = min(A.rows, A.cols) if order is None else order
    if not 1 <= k <= min(A.rows, A.cols):
        raise DimensionError("minor order out of range")
    best = 0
    g = 0
    l = 1
    any_nonzero = False
    for ri in itertools.combinations(range(A.rows), k):
        for ci in itertools.combinations(range(A.cols), k):
            d = det(A.submatrix(ri, ci))
            if d == 0:
                continue
            any_nonzero = True
            ad = abs(d)
            best = max(best, ad)
            g = math.gcd(g, ad)
            l = l * ad // math.gcd(l, ad)
    if not any_nonzero:
        return MinorStats(order=k, delta=0, delta_gcd=0, delta_lcm=0, degenerate=True)
    return MinorStats(order=k, delta=best, delta_gcd=g, delta_lcm=l, degenerate=False)


def delta(A: IntMat) -> int:
    """Maximum absolute value of the rank-order minors."""
    r = rank(A)
    return minor_stats(A, r).delta


def delta_gcd(A: IntMat) -> int:
    """Gcd of the nonzero rank-order minors."""
    r = rank(A)
    return minor_stats(A, r).delta_gcd


def enumerate_parallelepiped(
    A: IntMat, p: Sequence[Fraction | int], gamma: Fraction | int
) -> list[tuple[int, ...]]:
    """All integer vectors y with A^{-1} y inside the box ||x - p||_inf <= gamma.

    Enumerates the residues of the superlattice A^{-1} Z^n modulo Z^n via
    the Smith form of A, then shifts each residue by the integer vectors
    that land in the box.  Output is lexicographically sorted; its size is
    at most (2*gamma + 1)^n * |det A|.
    """
    n = A.cols
    if A.rows != n:
        raise DimensionError("square matrix required")
    d = det(A)
    if d == 0:
        raise RankError("singular matrix")
    if len(p) != n:
        raise DimensionError("center has wrong length")
    gamma = Fraction(gamma)
    if gamma < 0:
        raise DimensionError("radius must be nonnegative")
    decomp = snf(A)
    s_diag = [decomp.S.entries[i][i] for i in range(n)]
    q_inv = adjugate(decomp.Q).scale(det(decomp.Q))  # exact inverse, det = +-1
    p = [Fraction(v) for v in p]
    a = A.entries
    cols = list(zip(*a))
    # Smith divisibility: every s_i divides s_n, so t = T / s_n with T integral
    top = s_diag[-1]
    out: list[tuple[int, ...]] = []
    for r in itertools.product(*(range(si) for si in s_diag)):
        # residue point t = Q^{-1} S^{-1} r of the superlattice modulo Z^n
        sr = [ri * (top // si) for ri, si in zip(r, s_diag)]
        t_num = [
            sum(q_inv.entries[i][j] * sr[j] for j in range(n)) for i in range(n)
        ]
        y0 = []
        for i in range(n):
            v, rem = divmod(sum(a[i][j] * t_num[j] for j in range(n)), top)
            if rem:
                raise ArithmeticError("residue point does not map to Z^n")
            y0.append(v)
        # y = y0 + A u for the integer shifts u that keep t + u in the box
        pts = [tuple(y0)]
        for j, col in enumerate(cols):
            t = Fraction(t_num[j], top)
            lo = math.ceil(p[j] - gamma - t)
            hi = math.floor(p[j] + gamma - t)
            start = tuple(lo * v for v in col)
            nxt = []
            for y in pts:
                y = tuple(map(operator.add, y, start))
                for _ in range(lo, hi + 1):
                    nxt.append(y)
                    y = tuple(map(operator.add, y, col))
            pts = nxt
        out.extend(pts)
    out.sort()
    return out


def _greedy_base(A: IntMat) -> list[int]:
    """Lexicographically first row set of full rank."""
    n = A.cols
    chosen: list[int] = []
    for i in range(A.rows):
        trial = chosen + [i]
        if rank(A.take_rows(trial)) == len(trial):
            chosen.append(i)
        if len(chosen) == n:
            return chosen
    raise RankError("matrix does not have full column rank")


def max_det_submatrix(A: IntMat, mode: str = "exact") -> tuple[tuple[int, ...], int]:
    """Row index set B with det(A_B) of (near-)maximum absolute value.

    Exact mode enumerates all n-row subsets (desk scale only) and returns
    the lexicographically smallest argmax.  Greedy mode starts from the
    first full-rank row set and repeatedly applies the best single row
    exchange.  Returns (row indices, achieved |det|).
    """
    n = A.cols
    if A.rows < n or rank(A) != n:
        raise RankError("matrix does not have full column rank")
    if mode == "exact":
        best: tuple[int, ...] | None = None
        best_val = 0
        for ri in itertools.combinations(range(A.rows), n):
            v = abs(det(A.take_rows(ri)))
            if v > best_val:
                best, best_val = ri, v
        assert best is not None
        return best, best_val
    if mode != "greedy":
        raise ValueError("mode must be 'exact' or 'greedy'")
    base = _greedy_base(A)
    cur = abs(det(A.take_rows(base)))
    improved = True
    while improved:
        improved = False
        best_swap = None
        best_val = cur
        in_base = set(base)
        for pos in range(n):
            for i in range(A.rows):
                if i in in_base:
                    continue
                trial = list(base)
                trial[pos] = i
                v = abs(det(A.take_rows(sorted(trial))))
                if v > best_val:
                    best_val = v
                    best_swap = (pos, i)
        if best_swap is not None:
            base[best_swap[0]] = best_swap[1]
            base = sorted(base)
            cur = best_val
            improved = True
    return tuple(base), cur


def inverse_times(M: IntMat, y: Sequence[int | Fraction]) -> tuple[Fraction, ...]:
    """Exact M^{-1} y for nonsingular square M, via the adjugate."""
    d = det(M)
    if d == 0:
        raise RankError("singular matrix")
    adj = adjugate(M)
    return tuple(
        Fraction(sum(adj.entries[i][j] * Fraction(y[j]) for j in range(M.cols)), 1) / d
        for i in range(M.rows)
    )
