"""Closed-form sparsity, proximity and vertex-count bounds.

All bounds are evaluated either in exact integer/rational arithmetic (when
the closed form is polynomial) or in 128-bit interval arithmetic with
outward rounding (when logarithms appear), so that a reported bound is
always a true upper bound and a verifier comparison can never fail due to
rounding.  The instance-level verifier checks each inequality against
oracle-enumerated integer hull vertices and reports exact left/right sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from mpmath import iv, mp, mpf
from mpmath.libmp import mpf_pos, round_ceiling

from .intlinalg import IntMat, det, delta as delta_of
from .lp import solve_lp
from .model import CanonicalInstance, is_finite

iv.prec = 128


def _ivx(x):
    if isinstance(x, Fraction):
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)
    return iv.mpf(x)


def _log2(x):
    return iv.log(_ivx(x)) / iv.log(2)


def _upper(x):
    """The upper endpoint of interval x, rounded up to an mpf at the working
    precision, so the result is never below the endpoint."""
    return mp.make_mpf(mpf_pos(x._mpi_[1], mp.prec, round_ceiling))


def sparsity_constants():
    """The two constants (c1, c2) of the closed-form slack-sparsity bound,
    as 128-bit intervals:

        c1 = log2 sqrt(2 e^2 / (e - log2 e)) + 1/2   (< 2.27)
        c2 = log2 sqrt(2 e)
    """
    e = iv.exp(1)
    c1 = _log2(iv.sqrt(2 * e * e / (e - _log2(e)))) + iv.mpf(1) / 2
    c2 = _log2(iv.sqrt(2 * e))
    return c1, c2


def sparsity_bound(m: int, delta: int):
    """Upper bound on the slack support size ||u||_0 at an integer vertex:

        c1 * m + log2(delta) + (m/2) * log2(c2 + log2(delta)/m)

    with (c1, c2) from :func:`sparsity_constants`.  Returns the upper
    endpoint of the 128-bit interval evaluation, rounded up to the working
    precision (a valid upper bound).
    """
    if m < 1 or delta < 1:
        raise ValueError("require m >= 1 and delta >= 1")
    c1, c2 = sparsity_constants()
    ld = _log2(delta)
    val = c1 * m + ld + iv.mpf(m) / 2 * _log2(c2 + ld / m)
    return _upper(val)


def rough_sparsity_coeffs(c1, c2, k):
    """Linearized coefficients (c1', c2') of the closed-form bound
    c1*m + log2(D) + (m/2)*log2(c2 + log2(D)/m), as displayed:

        c1' = c1 + log2 sqrt(k + c2) - 1/ln(4)
        c2' = 1 + 1/((k + c2) * ln(4))

    They do not dominate the closed form pointwise: c1' is short of the
    tangent line at log2(D)/m = k by c2/((k + c2) * ln(4)).  For k = 3,
    m = 5, D = 2^15 the closed form is 31.53 and c1'*m + c2'*log2(D) is
    30.49, so n = 31 satisfies the first and not the second.  With the same
    c2', the tangent form

        c1 + log2 sqrt(k + c2) - k/((k + c2) * ln(4))

    is the c1' that does dominate it: whenever the closed form bounds n, so
    does c1'*m + c2'*log2(D).

    Exact interval evaluation; upper endpoints, rounded up, are returned.
    """
    c1i, c2i, ki = _ivx(c1), _ivx(c2), _ivx(k)
    ln4 = iv.log(4)
    c1p = c1i + _log2(iv.sqrt(ki + c2i)) - 1 / ln4
    c2p = 1 + 1 / ((ki + c2i) * ln4)
    return _upper(c1p), _upper(c2p)


def proximity_bound_bounded(m: int, delta: int, det_s: int) -> int:
    """l1-distance bound between an optimal relaxation vertex and a nearest
    optimal integer solution of a bounded standard-form problem:
    m*(2m+1)^m * delta * |det S| for m >= 1, and |det S| - 1 for m = 0."""
    if m < 0 or delta < 1 or det_s < 1:
        raise ValueError("require m >= 0, delta >= 1, det_s >= 1")
    if m == 0:
        return det_s - 1
    return m * (2 * m + 1) ** m * delta * det_s


def proximity_bound_unbounded(m: int, s: int, delta: int) -> int:
    """Bound on ||A(x* - z*)||_1 in the unbounded setting with sparsity
    parameter s: (m+1)*(m+s+1)*delta.

    Note: the source statement displays the smaller constant
    (m+1)*(m+s)*delta while its derivation yields (m+1)*(m+s+1)*delta; the
    larger (derivation) constant is used here so the bound is safe.
    """
    if m < 1 or s < 0 or delta < 1:
        raise ValueError("require m >= 1, s >= 0, delta >= 1")
    return (m + 1) * (m + s + 1) * delta


def chi_bound(
    m: int,
    mode: str,
    *,
    delta: int | None = None,
    delta1: int | None = None,
    det_s: int | None = None,
) -> int:
    """Radius bound chi for the solution-recentred search box, in one of
    three displayed forms:

    - "delta":   (2m^2+1)^m * delta * |det S| + (m - 1)
    - "delta1":  m * (2m*delta1 + 1)^m * |det S|   (m = 0 returns |det S|,
      matching the m = 0 convention of the bounded proximity bound)
    - "diffcol": m*(m+1)^2*delta^3 + (m+1)*delta
    """
    if m < 0:
        raise ValueError("require m >= 0")
    if mode == "delta":
        if delta is None or det_s is None or delta < 1 or det_s < 1:
            raise ValueError("delta mode requires delta >= 1 and det_s >= 1")
        return (2 * m * m + 1) ** m * delta * det_s + (m - 1)
    if mode == "delta1":
        if delta1 is None or det_s is None or delta1 < 1 or det_s < 1:
            raise ValueError("delta1 mode requires delta1 >= 1 and det_s >= 1")
        if m == 0:
            return det_s
        return m * (2 * m * delta1 + 1) ** m * det_s
    if mode == "diffcol":
        if delta is None or delta < 1:
            raise ValueError("diffcol mode requires delta >= 1")
        return m * (m + 1) ** 2 * delta**3 + (m + 1) * delta
    raise ValueError(f"unknown mode: {mode!r}")


def mcmullen_xi(n: int, k: int) -> int:
    """Maximum number of vertices of an n-dimensional polyhedron with k
    facets: binom(k - floor((n+1)/2), floor(n/2))
         + binom(k - floor(n/2) - 1, floor((n-1)/2))."""
    if n < 1 or k < n:
        raise ValueError("require k >= n >= 1")
    return math.comb(k - (n + 1) // 2, n // 2) + math.comb(
        k - n // 2 - 1, (n - 1) // 2
    )


def vertex_count_bound(n: int, m: int, s: int, delta: int, form: str = "cf"):
    """Pre-asymptotic upper bound on the number of integer hull vertices:

        binom(n+m, s) * (s+1)^(s+1) * s! * xi(s,s) * xi(s,2s)
            * log2^(s-1)(2*(s+1)^2.5 * delta^2)

    where s is the slack sparsity parameter.  For form "sf" the caller
    passes delta already multiplied by |det S|; the formula is identical.
    Returns the upper endpoint of the interval evaluation, rounded up.
    """
    if n < 1 or m < 0 or s < 1 or delta < 1:
        raise ValueError("require n >= 1, m >= 0, s >= 1, delta >= 1")
    if form not in ("cf", "sf"):
        raise ValueError(f"unknown form: {form!r}")
    combinatorial = (
        math.comb(n + m, s)
        * (s + 1) ** (s + 1)
        * math.factorial(s)
        * mcmullen_xi(s, s)
        * mcmullen_xi(s, 2 * s)
    )
    logterm = _log2(2 * _ivx(s + 1) ** iv.mpf("2.5") * delta**2)
    val = _ivx(combinatorial) * logterm ** (s - 1)
    return _upper(val)


@dataclass(frozen=True)
class BoundCheck:
    name: str
    lhs: str
    rhs: str
    passed: bool
    note: str = ""


@dataclass
class BoundsReport:
    entries: list[BoundCheck] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    def as_table(self) -> str:
        lines = ["check\tlhs\trhs\tpassed\tnote"]
        for e in self.entries:
            lines.append(
                f"{e.name}\t{e.lhs}\t{e.rhs}\t{'yes' if e.passed else 'no'}\t{e.note}"
            )
        return "\n".join(lines)


def _stack_one_sided(instance: CanonicalInstance):
    """Rewrite b_l <= Ax <= b_r as a one-sided system Dx <= d (one row per
    finite side)."""
    rows: list[list[int]] = []
    rhs: list[int] = []
    for i in range(instance.A.rows):
        row = list(instance.A.row(i))
        if is_finite(instance.b_r[i]):
            rows.append(row)
            rhs.append(instance.b_r[i])
        if is_finite(instance.b_l[i]):
            rows.append([-v for v in row])
            rhs.append(-instance.b_l[i])
    return IntMat.from_rows(rows), rhs


def verify_instance_bounds(
    instance: CanonicalInstance,
    vertices: Sequence[tuple[int, ...]],
    normalization_delta: int | None = None,
) -> BoundsReport:
    """Check the sparsity and proximity inequalities on oracle hull vertices.

    Per vertex: the lattice-determinant sparsity bound
    ||u||_0 <= m + log2 sqrt(det(D' D)) (checked exactly as
    4^(||u||_0 - m) <= det(D' D)) and the closed-form bound of
    :func:`sparsity_bound`.  If ``normalization_delta`` is given, also
    ||v||_0 <= ||u||_0 + log2(delta) (exact power-of-two comparison).  For
    the optimal LP vertex x* and the nearest optimal integer solution z*:
    ||D(z* - x*)||_1 <= m*(2m+1)^m * Delta.  All with respect to the
    one-sided rewrite Dx <= d of the instance and its m = rows(D) - n.
    """
    report = BoundsReport()
    stacked, rhs = _stack_one_sided(instance)
    n = instance.n
    m_eff = stacked.rows - n
    gram = stacked.transpose().mul(stacked)
    gram_det = det(gram)
    dlt = delta_of(stacked)

    for v in vertices:
        dv = stacked.matvec(v)
        u = [r - a for r, a in zip(rhs, dv)]
        u0 = sum(1 for x in u if x != 0)
        if any(x < 0 for x in u):
            report.entries.append(
                BoundCheck("slack-nonnegative", str(min(u)), "0", False)
            )
            continue
        lat_ok = u0 <= m_eff or 2 ** (2 * (u0 - m_eff)) <= gram_det
        report.entries.append(
            BoundCheck(
                "sparsity-lattice",
                f"||u||_0={u0}",
                f"m + log2 sqrt({gram_det})  [m={m_eff}]",
                lat_ok,
            )
        )
        if m_eff >= 1:
            bound = sparsity_bound(m_eff, dlt)
            report.entries.append(
                BoundCheck(
                    "sparsity-closed-form",
                    f"||u||_0={u0}",
                    f"{float(bound):.6f}  [m={m_eff}, delta={dlt}]",
                    mpf(u0) <= bound,
                )
            )
        if normalization_delta is not None:
            v0 = sum(1 for x in v if x != 0)
            ok = 2**v0 <= 2**u0 * normalization_delta
            report.entries.append(
                BoundCheck(
                    "support-growth-normalized",
                    f"||v||_0={v0}",
                    f"||u||_0 + log2({normalization_delta})",
                    ok,
                )
            )

    if m_eff >= 1 and vertices:
        lp = solve_lp(instance)
        if lp.status == "optimal":
            best = max(
                sum(ci * zi for ci, zi in zip(instance.c, z)) for z in vertices
            )
            optima = [
                z
                for z in vertices
                if sum(ci * zi for ci, zi in zip(instance.c, z)) == best
            ]
            x = lp.vertex

            def image_l1(z):
                return sum(
                    abs(
                        sum(
                            Fraction(stacked.entries[i][j]) * (z[j] - x[j])
                            for j in range(n)
                        )
                    )
                    for i in range(stacked.rows)
                )

            lhs = min(image_l1(z) for z in optima)
            rb = m_eff * (2 * m_eff + 1) ** m_eff * dlt
            report.entries.append(
                BoundCheck(
                    "proximity-image-l1",
                    str(lhs),
                    f"{rb}  [m={m_eff}, delta={dlt}]",
                    lhs <= rb,
                )
            )
    return report
