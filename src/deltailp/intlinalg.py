"""Exact integer linear algebra.

Everything in this module works on arbitrary-precision integers; there is
no floating point and no rational arithmetic anywhere.  One fraction-free
(Bareiss) elimination gives determinants, ranks and :func:`cramer`, which
solves M X = det(M) Y over the integers (X = adj(M) Y, so a rational
inverse is an integer matrix over one denominator).  Also provided:
Hermite and Smith normal forms with explicit unimodular transforms, minor
statistics (maximum / gcd / lcm of k-th order minors), enumeration of
lattice points in a parallelepiped, and selection of a maximum-determinant
row submatrix.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
        # the one entry check of every matrix: exactly int, so bool, float,
        # str and nested entries are refused, never coerced
        entries = self.entries
        if not entries or not entries[0]:
            raise DimensionError("matrix must have at least one row and column")
        if len(set(map(len, entries))) != 1:
            raise DimensionError("ragged rows")
        if not {int}.issuperset(map(type, itertools.chain.from_iterable(entries))):
            raise DimensionError("entries must be integers")

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0])

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int]]) -> "IntMat":
        return IntMat(tuple(map(tuple, rows)))

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
    """Smith form: A = P * [S; 0] * Q with P, Q unimodular, S diagonal, and
    the inverses P_inv, Q_inv of the two factors.

    :func:`snf` records its elementary operations E; each factor is built
    when first read by replaying them on an identity matrix: a row
    operation makes P_inv = ... E and P = E^{-1} ..., a column operation
    Q_inv = ... E and Q = E^{-1} ....
    """

    S: IntMat
    row_ops: tuple[tuple, ...]  # ("add", dst, src, k), ("swap", i, j), ("neg", i)
    col_ops: tuple[tuple, ...]
    rows: int  # the row count of A

    @cached_property
    def P_inv(self) -> IntMat:
        return _replay(self.rows, self.row_ops, _ROW_OPS)

    @cached_property
    def P(self) -> IntMat:
        return _replay(self.rows, _inverses(self.row_ops), _COL_OPS)

    @cached_property
    def Q_inv(self) -> IntMat:
        return _replay(self.S.cols, self.col_ops, _COL_OPS)

    @cached_property
    def Q(self) -> IntMat:
        return _replay(self.S.cols, _inverses(self.col_ops), _ROW_OPS)


@dataclass(frozen=True)
class MinorStats:
    """Statistics of the order-k minors of a matrix."""

    order: int
    delta: int
    delta_gcd: int
    delta_lcm: int
    degenerate: bool


def _bareiss(
    a: list[list[int]], width: int, jordan: bool = False, full: bool = False
) -> tuple[int, int, int]:
    """Fraction-free (Bareiss 1968) elimination of the rows ``a`` in place,
    pivoting in the first ``width`` columns.  Every updated entry is a minor
    of the input, so each division by the previous pivot is exact; entries
    at or left of the pivot column are left stale.  ``jordan`` also clears
    the pivot rows above (fraction-free Gauss-Jordan).  Returns (pivots,
    row-swap sign, last pivot or 1), or (r, sign, 0) at the first column
    without a pivot when ``full``."""
    rows = len(a)
    cols = len(a[0])
    r = 0
    sign = 1
    prev = 1
    for j in range(width):
        if a[r][j] == 0:
            for p in range(r + 1, rows):
                if a[p][j] != 0:
                    break
            else:
                if full:
                    return r, sign, 0
                continue
            a[r], a[p] = a[p], a[r]
            sign = -sign
        top = a[r]
        pivot = top[j]
        for i in range(0 if jordan else r + 1, rows):
            if i != r:
                row = a[i]
                f = row[j]
                for k in range(j + 1, cols):
                    row[k] = (row[k] * pivot - f * top[k]) // prev
        prev = pivot
        r += 1
        if r == rows:
            break
    return r, sign, prev


def det(M: IntMat) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination: after n - 1
    pivots the last entry is the whole n x n minor."""
    a = [list(row) for row in M.entries]
    n = len(a)
    if n != len(a[0]):
        raise DimensionError("determinant of a non-square matrix")
    _, sign, d = _bareiss(a, n - 1, False, True)
    return sign * a[-1][-1] if d else 0


def rank(M: IntMat) -> int:
    """Exact rank by fraction-free (Bareiss) row echelon elimination."""
    return _bareiss([list(row) for row in M.entries], M.cols)[0]


def cramer(M: IntMat, Y: IntMat) -> tuple[IntMat, int]:
    """(X, d) with M X = d Y, d = det(M) and X integral, for nonsingular
    square M: X = adj(M) Y, so cramer(M, I) is the adjugate.  One
    fraction-free Gauss-Jordan pass over [M | Y]; raises RankError when M
    is singular."""
    n = M.rows
    if M.cols != n or Y.rows != n:
        raise DimensionError("cramer needs a square M and n rows in Y")
    a = [list(row) + list(y) for row, y in zip(M.entries, Y.entries)]
    _, sign, d = _bareiss(a, n, True, True)
    if d == 0:
        raise RankError("singular matrix")
    return IntMat(tuple(tuple(sign * v for v in row[n:]) for row in a)), sign * d


def unimodular_inverse(M: IntMat) -> IntMat:
    """Exact inverse of a unimodular M: det(M) * adj(M), det = +-1.
    Raises ValueError when |det(M)| != 1."""
    try:
        adj, d = cramer(M, IntMat.identity(M.rows))
    except RankError:
        d = 0
    if abs(d) != 1:
        raise ValueError("matrix is not unimodular")
    return adj.scale(d)


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


_ROW_OPS = {"add": _add_row, "swap": _swap_rows, "neg": _neg_row}
_COL_OPS = {"add": _add_col, "swap": _swap_cols, "neg": _neg_col}


def _inverses(ops: tuple[tuple, ...]) -> list[tuple]:
    """The inverse of each operation, to be applied on the other side: adding
    k times line src to line dst is undone, from there, by adding -k times
    line dst to line src; swaps and negations are their own inverses."""
    return [("add", op[2], op[1], -op[3]) if op[0] == "add" else op for op in ops]


def _replay(size: int, ops, table: dict) -> IntMat:
    """The size x size identity after ops, applied through table (_ROW_OPS
    or _COL_OPS)."""
    a = IntMat.identity(size).to_lists()
    for kind, *args in ops:
        table[kind](a, *args)
    return IntMat.from_rows(a)


def snf(A: IntMat) -> SnfResult:
    """Smith normal form A = P * [S; 0] * Q for full-column-rank A; the
    factors and their inverses come from the recorded elementary
    operations when read."""
    n = A.cols
    rows = A.rows
    w = [list(row) for row in A.entries]
    row_ops: list[tuple] = []
    col_ops: list[tuple] = []

    def row_op(*op) -> None:
        _ROW_OPS[op[0]](w, *op[1:])
        row_ops.append(op)

    def col_op(*op) -> None:
        _COL_OPS[op[0]](w, *op[1:])
        col_ops.append(op)

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
                    row_op("swap", k, pivot[0])
                if pivot[1] != k:
                    col_op("swap", k, pivot[1])
            # eliminate column k below the pivot
            dirty = False
            for i in range(k + 1, rows):
                while w[i][k] != 0:
                    quo = w[i][k] // w[k][k]
                    if quo != 0:
                        row_op("add", i, k, -quo)
                    if w[i][k] != 0:
                        row_op("swap", i, k)
                        dirty = True
            # eliminate row k right of the pivot
            for j in range(k + 1, n):
                while w[k][j] != 0:
                    quo = w[k][j] // w[k][k]
                    if quo != 0:
                        col_op("add", j, k, -quo)
                    if w[k][j] != 0:
                        col_op("swap", j, k)
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
            row_op("add", k, offender, 1)
        if w[k][k] < 0:
            row_op("neg", k)
    s = IntMat.from_rows([[w[i][i] if i == j else 0 for j in range(n)] for i in range(n)])
    return SnfResult(s, tuple(row_ops), tuple(col_ops), rows)


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


class ParallelepipedLattice:
    """The integer points y with A^{-1} y in an axis box, for one nonsingular
    square A decomposed once (Smith form and its inverse right factor) and
    any number of boxes.

    A^{-1} Z^n is the union of R = |det A| cosets t + Z^n, t in [0, 1)^n.
    Row k of ``t_num`` (shape (R, n)) holds coset k's t as integer
    numerators over the largest invariant factor ``top``; row k of ``y0``
    holds A t, which is integral.  A box ||x - p||_inf <= gamma meets coset
    k in the points y0_k + A u with u integral and lo_kj <= u_j <= hi_kj.
    :meth:`count` and :meth:`points` read these ranges, computed for all
    cosets at once by floor division over the box's common denominator; no
    Fraction is built.
    """

    def __init__(self, A: IntMat) -> None:
        n = A.cols
        if A.rows != n:
            raise DimensionError("square matrix required")
        self.A = A
        decomp = snf(A)  # raises RankError when A is singular
        s_diag = [decomp.S.entries[i][i] for i in range(n)]
        q_inv = decomp.Q_inv
        a = A.entries
        # Smith divisibility: every s_i divides s_n, so t = T / s_n with T integral
        self.top = top = s_diag[-1]
        t_rows, y_rows = [], []
        for r in itertools.product(*(range(si) for si in s_diag)):
            sr = [ri * (top // si) for ri, si in zip(r, s_diag)]
            # t = Q^{-1} S^{-1} r, reduced into [0, 1)^n
            t_num = [
                sum(q_inv.entries[i][j] * sr[j] for j in range(n)) % top for i in range(n)
            ]
            y0 = []
            for i in range(n):
                v, rem = divmod(sum(a[i][j] * t_num[j] for j in range(n)), top)
                if rem:
                    raise ArithmeticError("residue point does not map to Z^n")
                y0.append(v)
            t_rows.append(t_num)
            y_rows.append(y0)
        self.t_num = _int_array(t_rows, top)
        # |y0_i| <= sum_j |A_ij| since 0 <= t_j < 1
        self.y0 = _int_array(y_rows, max(sum(map(abs, row)) for row in a))
        self.a_t = _int_array(A.transpose().entries, A.norm_max())

    def _ranges(self, p, gamma):
        """The box ||x - p||_inf <= gamma over one common denominator d, as
        (d, c, g) with x_j in [(c_j - g) / d, (c_j + g) / d], and the (R, n)
        int arrays lo, hi of the coset ranges."""
        import numpy as np

        if len(p) != self.A.cols:
            raise DimensionError("center has wrong length")
        if gamma < 0:
            raise DimensionError("radius must be nonnegative")
        d = math.lcm(gamma.denominator, *(v.denominator for v in p))
        c = [v.numerator * (d // v.denominator) for v in p]
        g = gamma.numerator * (d // gamma.denominator)
        top = self.top
        # d * top * u_j in [(c_j - g) * top - d * T_kj, (c_j + g) * top - d * T_kj]
        # with 0 <= T_kj < top; on the int64 path every term and partial sum
        # stays below 2^62
        size = 2 * d * top + (max(map(abs, c), default=0) + g) * top
        dtype = np.int64 if size < 1 << 62 else object
        t = d * self.t_num.astype(dtype, copy=False)
        cv = np.array(c, dtype=dtype)
        lo = -((t - (cv - g) * top) // (d * top))
        hi = ((cv + g) * top - t) // (d * top)
        return (d, c, g), lo, hi

    def count(self, p: Sequence[Fraction | int], gamma: Fraction | int) -> int:
        """Number of integer y with A^{-1} y in the box ||x - p||_inf <= gamma
        (p and gamma rational), exact: the sum over cosets of the products of
        the range lengths."""
        import numpy as np

        _, lo, hi = self._ranges(p, gamma)
        return sum(math.prod(row) for row in np.maximum(hi - lo + 1, 0).tolist())

    def points(self, p: Sequence[Fraction | int], gamma: Fraction | int):
        """All integer y with A^{-1} y in the box ||x - p||_inf <= gamma, as
        the lexicographically sorted rows of one (count, n) numpy array.

        Every row, and every partial sum of y0 + A u, is bounded by
        sum_j |A_ij| * (|p_j| + gamma + 2) in coordinate i.  The array is
        int64 when sum_j |A_ij| * (|p_j| + gamma + 1) < 2^62 for every i,
        and dtype object (exact Python ints) otherwise.
        """
        import numpy as np

        (d, c, g), lo, hi = self._ranges(p, gamma)
        bound = max(
            sum(abs(v) * (abs(cj) + g + d) for v, cj in zip(row, c)) for row in self.A.entries
        )
        # on the int64 path |u_j| <= |p_j| + gamma + 1 < 2^62 too, since
        # every column of the nonsingular A has an entry of size >= 1
        dtype = np.int64 if bound < d << 62 else object
        counts = np.maximum(hi - lo + 1, 0)
        sizes = np.array([math.prod(row) for row in counts.tolist()], dtype=np.int64)
        counts, lo = counts.astype(dtype), lo.astype(dtype)
        owner = np.repeat(np.arange(len(sizes)), sizes)
        local = np.arange(len(owner)) - np.repeat(np.cumsum(sizes) - sizes, sizes)
        # mixed-radix digits of the index within the coset, last u_j fastest
        strides = np.ones_like(counts)
        strides[:, :-1] = np.cumprod(counts[:, :0:-1], axis=1)[:, ::-1]
        u = lo[owner] + local[:, None] // strides[owner] % counts[owner]
        y = self.y0.astype(dtype, copy=False)[owner] + u @ self.a_t.astype(dtype, copy=False)
        return y[np.lexsort(y.T[::-1])]


def _int_array(rows, bound: int):
    """rows as a numpy array: int64 when bound < 2^62, else dtype object."""
    import numpy as np

    return np.array(rows, dtype=np.int64 if bound < 1 << 62 else object)


def enumerate_parallelepiped(
    A: IntMat, p: Sequence[Fraction | int], gamma: Fraction | int
) -> list[tuple[int, ...]]:
    """All integer vectors y with A^{-1} y inside the box ||x - p||_inf <= gamma.

    Enumerates the residues of the superlattice A^{-1} Z^n modulo Z^n via
    the Smith form of A, then shifts each residue by the integer vectors
    that land in the box.  Output is lexicographically sorted; its size is
    at most (2*gamma + 1)^n * |det A|.  For many boxes with the same A,
    build one :class:`ParallelepipedLattice` and call its ``points``, which
    returns the same points as the rows of one numpy array.
    """
    return list(map(tuple, ParallelepipedLattice(A).points(p, gamma).tolist()))


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


def max_det_submatrix(A: IntMat) -> tuple[tuple[int, ...], int]:
    """Row index set B with det(A_B) of maximum absolute value.

    Enumerates all n-row subsets (desk scale only) and returns the
    lexicographically smallest argmax with its |det|; raises RankError
    when A does not have full column rank.
    """
    best: tuple[int, ...] | None = None
    best_val = 0
    for ri in itertools.combinations(range(A.rows), A.cols):
        v = abs(det(A.take_rows(ri)))
        if v > best_val:
            best, best_val = ri, v
    if best is None:  # every n x n minor vanishes
        raise RankError("matrix does not have full column rank")
    return best, best_val
