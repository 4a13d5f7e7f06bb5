"""Exact problem-form reductions with explicit solution bijections.

- :func:`cf_to_sf`: bounded canonical form  max c'x, b_l <= Ax <= b_r  to
  the generalized standard form via the Smith decomposition of A; the slack
  substitution y = Ax - b_l is the recorded bijection and nonnegative costs
  are achieved by per-variable reflections y_i -> u_i - y_i.
- :func:`sf_to_cf`: generalized standard form  min c'x, Ax = b,
  Gx = g (mod S), 0 <= x <= u  to canonical form over d = n - m variables
  by inverting the unimodular stack (A; G).
- :func:`classic_to_generalized`: embeds the classic equality standard form
  by first dividing out the minor gcd through the Smith form (certifying
  integral infeasibility when the right side does not divide through) and
  then extending the rows to a unimodular stack with a trivial group part.

Every reduction returns a :class:`ReductionMap` carrying the exact affine
point bijection and the exact affine objective correspondence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .intlinalg import IntMat, cramer, max_det_submatrix, snf, unimodular_inverse
from .model import (
    POS_INF,
    CanonicalInstance,
    CertificateError,
    NEG_INF,
    SolveOutcome,
    StandardInstance,
    is_finite,
)

Vec = tuple[Fraction, ...]


class IntegralInfeasible(Exception):
    """The equality system has no integer solution (divisibility witness)."""


@dataclass(frozen=True)
class ReductionMap:
    """Affine bijection between the integer solution sets of two forms.

    forward: y = matrix . x - offset maps source solutions to target
    solutions; backward is its exact inverse.  Objectives correspond as
    target_value = objective_scale * source_value + objective_offset (a
    negative scale flips max <-> min, preserving objective order).
    """

    direction: str
    matrix: tuple[Vec, ...]
    offset: Vec
    inv_matrix: tuple[Vec, ...]
    inv_offset: Vec
    objective_scale: Fraction
    objective_offset: Fraction
    metadata: dict = field(default_factory=dict)

    def _apply(self, mat, off, x) -> tuple[int, ...]:
        out = []
        for row, q in zip(mat, off):
            v = sum(a * Fraction(xi) for a, xi in zip(row, x)) - q
            if v.denominator != 1:
                raise ValueError(f"image coordinate {v} is not integral")
            out.append(int(v))
        return tuple(out)

    def forward(self, x: Sequence[int]) -> tuple[int, ...]:
        return self._apply(self.matrix, self.offset, x)

    def backward(self, y: Sequence[int]) -> tuple[int, ...]:
        return self._apply(self.inv_matrix, self.inv_offset, y)


def _frac_rows(rows) -> tuple[Vec, ...]:
    return tuple(tuple(Fraction(v) for v in row) for row in rows)


def cf_to_sf(src: CanonicalInstance) -> tuple[StandardInstance, ReductionMap]:
    """Bounded canonical form to generalized standard form.

    Properties of the output (hatA; G) built from the inverse Smith factor:
    hatA . M = 0 for the recorded bijection matrix M, Delta(hatA) =
    Delta(A)/Delta_gcd(A), and |det S| = Delta_gcd(A).
    """
    n, m = src.n, src.m
    if not all(is_finite(v) for v in src.b_l):
        raise ValueError("reduction requires finite lower bounds")
    s = snf(src.A)
    pp = s.P_inv  # src.A = pp^{-1} [S; 0] Q
    diag = [s.S.entries[i][i] for i in range(n)]

    pbl = pp.matvec(src.b_l)
    ahat = [list(pp.row(i)) for i in range(n, n + m)]
    bhat = [-pbl[i] for i in range(n, n + m)]
    gmat = [list(pp.row(i)) for i in range(n)]
    gvec = [-pbl[i] for i in range(n)]

    base, _absdet = max_det_submatrix(src.A)
    adj, d_base = cramer(src.A.take_rows(base), IntMat.identity(n))
    sign = 1 if d_base > 0 else -1
    chat0 = [0] * (n + m)
    for j, row_idx in enumerate(base):
        chat0[row_idx] = -sign * sum(
            src.c[k] * adj.entries[k][j] for k in range(n)
        )

    u = tuple(
        (src.b_r[i] - src.b_l[i]) if is_finite(src.b_r[i]) else POS_INF
        for i in range(n + m)
    )
    flips = [i for i in range(n + m) if chat0[i] < 0]
    for i in flips:
        if not is_finite(u[i]):
            raise ValueError(
                f"cost sign flip at coordinate {i} needs a finite upper bound"
            )
        for r in range(m):
            bhat[r] -= ahat[r][i] * u[i]
            ahat[r][i] = -ahat[r][i]
        for r in range(n):
            gvec[r] -= gmat[r][i] * u[i]
            gmat[r][i] = -gmat[r][i]
    gvec = [v % diag[r] for r, v in enumerate(gvec)]
    chat = tuple(abs(v) for v in chat0)

    dst = StandardInstance(
        n=n + m,
        m=m,
        A=IntMat.from_rows(ahat) if m > 0 else None,
        G=IntMat.from_rows(gmat),
        S=s.S,
        b=tuple(bhat),
        g=tuple(gvec),
        u=u,
        c=chat,
    )

    # forward: y = D(Ax - b_l) + f  with D the reflection signs
    dsign = [-1 if i in set(flips) else 1 for i in range(n + m)]
    fshift = [u[i] if i in set(flips) else 0 for i in range(n + m)]
    matrix = _frac_rows(
        [[dsign[i] * v for v in src.A.row(i)] for i in range(n + m)]
    )
    offset = tuple(
        Fraction(dsign[i] * src.b_l[i] - fshift[i]) for i in range(n + m)
    )
    # backward: x = A_B^{-1} (xhat_B + (b_l)_B), xhat = D(y - f)
    # with A_B^{-1} = adj / d_base
    inv_rows = [[Fraction(0)] * (n + m) for _ in range(n)]
    for k in range(n):
        for j, row_idx in enumerate(base):
            inv_rows[k][row_idx] = Fraction(adj.entries[k][j] * dsign[row_idx], d_base)
    shift_b = [dsign[i] * fshift[i] - src.b_l[i] for i in base]
    inv_off = [
        Fraction(sum(q * v for q, v in zip(adj.entries[k], shift_b)), d_base) for k in range(n)
    ]
    scale = Fraction(-abs(d_base))
    off_obj = -sum(Fraction(ci) * qi for ci, qi in zip(chat, offset))
    rmap = ReductionMap(
        direction="cf2sf",
        matrix=matrix,
        offset=offset,
        inv_matrix=tuple(tuple(r) for r in inv_rows),
        inv_offset=tuple(inv_off),
        objective_scale=scale,
        objective_offset=off_obj,
        metadata={"base": base, "base_det": d_base, "flips": tuple(flips)},
    )
    # objective correspondence on each unit vector e_k, where the offset
    # terms cancel: chat' D A e_k = scale * c_k
    for k in range(n):
        lhs = sum(ci * di * row[k] for ci, di, row in zip(chat, dsign, src.A.entries))
        if lhs != -abs(d_base) * src.c[k]:
            raise CertificateError("the reduced objective does not match the source objective")
    return dst, rmap


def sf_to_cf(
    src: StandardInstance,
) -> tuple[CanonicalInstance | None, ReductionMap]:
    """Generalized standard form to canonical form over d = n - m variables.

    Properties: A . hatA = 0, Delta(hatA) = Delta(A) * |det S|, and
    Delta_gcd(hatA) = |det S|.  For d = 0 the unique candidate point is
    evaluated directly and returned in the map metadata.
    """
    n, m = src.n, src.m
    d = n - m
    stack_rows = []
    rhs = []
    if src.A is not None:
        stack_rows += src.A.to_lists()
        rhs += list(src.b)
    if src.G is not None:
        stack_rows += src.G.to_lists()
        rhs += list(src.g)
    P = IntMat.from_rows(stack_rows)
    pinv = unimodular_inverse(P)
    t = pinv.matvec(rhs)  # P^{-1} (b; g)

    identity_map = ReductionMap(
        direction="sf2cf",
        matrix=(),
        offset=(),
        inv_matrix=_frac_rows([[0] * 0 for _ in range(n)]),
        inv_offset=tuple(-Fraction(v) for v in t),
        objective_scale=Fraction(-1),
        objective_offset=Fraction(
            sum(ci * ti for ci, ti in zip(src.c, t))
        ),
        metadata={},
    )
    if d == 0:
        feasible = all(
            0 <= t[i] and (not is_finite(src.u[i]) or t[i] <= src.u[i])
            for i in range(n)
        )
        value = sum(ci * ti for ci, ti in zip(src.c, t))
        outcome = (
            SolveOutcome.optimal(t, value)
            if feasible
            else SolveOutcome.infeasible()
        )
        identity_map.metadata["direct"] = outcome
        return None, identity_map

    # hatA = P^{-1} (0; S): columns are the last d columns of P^{-1} scaled
    # by the diagonal of S
    sdiag = [src.S.entries[i][i] for i in range(d)]
    ahat = [
        [pinv.entries[i][m + j] * sdiag[j] for j in range(d)] for i in range(n)
    ]
    bl = [-ti for ti in t]
    br = [
        (src.u[i] - t[i]) if is_finite(src.u[i]) else POS_INF for i in range(n)
    ]
    # canonical rows need finite upper sides; negate rows whose upper side
    # is infinite (their lower side is always finite)
    rows = []
    out_bl = []
    out_br = []
    for i in range(n):
        if is_finite(br[i]):
            rows.append(ahat[i])
            out_bl.append(bl[i])
            out_br.append(br[i])
        else:
            rows.append([-v for v in ahat[i]])
            out_bl.append(NEG_INF)
            out_br.append(-bl[i])
    c_cf = tuple(
        -sum(src.c[i] * ahat[i][j] for i in range(n)) for j in range(d)
    )
    dst = CanonicalInstance(
        A=IntMat.from_rows(rows),
        b_l=tuple(out_bl),
        b_r=tuple(out_br),
        c=c_cf,
    )
    # forward: xhat = S^{-1}(Gx - g) = (rows m.. of P x - rhs) / diag(S)
    fmat = [
        [Fraction(P.entries[m + j][k], sdiag[j]) for k in range(n)]
        for j in range(d)
    ]
    foff = [Fraction(rhs[m + j], sdiag[j]) for j in range(d)]
    # backward: x = hatA xhat + t
    bmat = _frac_rows(ahat)
    boff = tuple(-Fraction(v) for v in t)
    scale = Fraction(-1)
    off_obj = Fraction(sum(ci * ti for ci, ti in zip(src.c, t)))
    rmap = ReductionMap(
        direction="sf2cf",
        matrix=tuple(tuple(r) for r in fmat),
        offset=tuple(foff),
        inv_matrix=bmat,
        inv_offset=boff,
        objective_scale=scale,
        objective_offset=off_obj,
        metadata={"row_negated": tuple(i for i in range(n) if not is_finite(br[i]))},
    )
    # consistency on the pullbacks x = hatA e_j + t of target unit vectors
    # (the objective identity only holds on the affine space Ax = b)
    for j in range(d):
        x = [ahat[i][j] + t[i] for i in range(n)]
        if rmap.forward(x) != tuple(1 if k == j else 0 for k in range(d)):
            raise CertificateError("the reduction does not map a pullback to its unit vector")
        v_src = sum(ci * xi for ci, xi in zip(src.c, x))
        if c_cf[j] != scale * v_src + off_obj:
            raise CertificateError("the reduced objective does not match the source objective")
    return dst, rmap


def classic_to_generalized(
    A: IntMat, b: Sequence[int], c: Sequence[int], u: Sequence
) -> tuple[StandardInstance, ReductionMap]:
    """Embed  min c'x, Ax = b, 0 <= x <= u  as a generalized standard form.

    The Smith form of A divides the equalities by the invariant factors
    (raising :class:`IntegralInfeasible` when b does not divide through),
    leaving a primitive row system that extends to a unimodular stack with
    identity group part.
    """
    m, n = A.rows, A.cols
    s = snf(A.transpose())  # A^T = P1 [S; 0] Q1, so A = Q1^T [S | 0] P1^T
    qtilde = s.P.transpose()  # n x n unimodular right factor
    sdiag = [s.S.entries[i][i] for i in range(m)]
    pb = s.Q_inv.transpose().matvec(b)  # (Q1^T)^{-1} b, Q1^T the m x m left factor
    bprime = []
    for i in range(m):
        if pb[i] % sdiag[i] != 0:
            raise IntegralInfeasible(
                f"invariant factor {sdiag[i]} does not divide "
                f"transformed right side {pb[i]} (row {i})"
            )
        bprime.append(pb[i] // sdiag[i])
    aprime = IntMat.from_rows([list(qtilde.row(i)) for i in range(m)])
    gmat = IntMat.from_rows([list(qtilde.row(i)) for i in range(m, n)])
    dst = StandardInstance(
        n=n,
        m=m,
        A=aprime if m > 0 else None,
        G=gmat if n > m else None,
        S=IntMat.identity(n - m) if n > m else None,
        b=tuple(bprime),
        g=(0,) * (n - m),
        u=tuple(u),
        c=tuple(c),
    )
    ident = _frac_rows(IntMat.identity(n).to_lists())
    zero = (Fraction(0),) * n
    rmap = ReductionMap(
        direction="classic",
        matrix=ident,
        offset=zero,
        inv_matrix=ident,
        inv_offset=zero,
        objective_scale=Fraction(1),
        objective_offset=Fraction(0),
        metadata={"invariant_factors": tuple(sdiag)},
    )
    return dst, rmap
