"""Exact bounded-variable simplex for the LP relaxations.

One engine solves  min c'z  s.t.  M z = d,  0 <= z <= u  (u_j may be +inf)
over the m equality rows alone: finite upper bounds are handled by the
ratio test and by bound flips, never as extra rows (the upper-bounding
simplex, Chvatal 1983, ch. 8).  Phase 1 adds one artificial per row and
minimizes their sum; phase 2 pins the artificials to 0.  Pivots follow
Bland's rule (smallest eligible entering index, smallest leaving index on
ratio ties, a bound flip before a tied pivot) and are fraction-free
(Bareiss 1968): the tableau holds integers over the common denominator
|det B|, so every step is exact and deterministic.

Every "optimal" outcome is certified before it is returned: M z = d and
the bounds hold exactly, and the duals read off the final tableau give
reduced costs that are zero or push each variable onto the bound it sits
at.  A failed check raises :class:`~deltailp.model.CertificateError`, also
under ``python -O``.

The standard form relaxation drops the residue (group) constraint.  The
canonical relaxation  max c'x  s.t.  b_l <= A x <= b_r  runs on the same
engine as  A x+ - A x- + s = b_r,  0 <= s <= b_r - b_l.  Its reported
vertex is the lexicographically maximal point of the optimal face, found
by re-optimizing each coordinate in turn over the face (the columns with
nonzero reduced cost are fixed, and the optimal basis is the warm start);
its base is the lexicographically first full-rank set of tight rows.
Both depend on the instance only, not on the pivot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .intlinalg import rank
from .model import (
    CanonicalInstance,
    CertificateError,
    StandardInstance,
    is_finite,
)

Vec = tuple[Fraction, ...]


@dataclass(frozen=True)
class LpOutcome:
    status: str  # optimal | infeasible | unbounded
    vertex: Vec | None = None
    base: tuple[int, ...] | None = None
    objective: Fraction | None = None
    pivots: int = 0  # simplex steps: basis changes and bound flips


class _Tableau:
    """Fraction-free bounded-variable tableau of  M z = d,  0 <= z <= upper.

    Columns 0..n-1 are the structural variables and n..n+m-1 one
    artificial per row; row i is scaled by sign[i] so that its artificial
    starts basic at |d_i|.  With B the basis and D = den = |det B| over the
    scaled rows, the integers held are rows = D * B^-1 [M | I],
    beta = D * z_B and red = D * (reduced costs of the priced cost).
    Nonbasic columns sit at 0, or at their upper bound when at_upper is
    set.  Fixed columns never enter: those with upper bound 0, the
    artificials in phase 2, and columns fixed to an optimal face.
    """

    def __init__(self, M: Sequence[Sequence[int]], d: Sequence[int], upper: list) -> None:
        m, n = len(d), len(upper)
        self.M, self.d, self.n = M, d, n
        self.sign = [1 if v >= 0 else -1 for v in d]
        self.rows = [
            [s * v for v in row] + [int(i == k) for k in range(m)]
            for i, (row, s) in enumerate(zip(M, self.sign))
        ]
        self.beta = [abs(v) for v in d]
        self.den = 1
        self.basis = list(range(n, n + m))
        self.upper = upper + [None] * m
        self.at_upper = [False] * (n + m)
        self.fixed = [u == 0 for u in self.upper]
        self.cost = [0] * (n + m)
        self.red = [0] * (n + m)
        self.pivots = 0

    def price(self, cost: Sequence[int], artificial: int = 0) -> None:
        """Make cost (one entry per structural column, and the given cost
        on every artificial) the objective."""
        self.cost = list(cost) + [artificial] * len(self.basis)
        red = [self.den * c for c in self.cost]
        for row, b in zip(self.rows, self.basis):
            cb = self.cost[b]
            if cb:
                red = [r - cb * a for r, a in zip(red, row)]
        self.red = red

    def run(self, phase1: bool = False) -> bool:
        """Pivot to optimality; False when the objective is unbounded.
        Phase 1 stops as soon as every artificial is 0."""
        rows, beta, basis = self.rows, self.beta, self.basis
        upper, at_upper, fixed, n = self.upper, self.at_upper, self.fixed, self.n
        while True:
            if phase1 and not any(v for v, b in zip(beta, basis) if b >= n):
                return True
            # Bland: the smallest column whose reduced cost improves it from
            # the bound it sits at (basic columns have reduced cost 0)
            j = next(
                (
                    k
                    for k, r in enumerate(self.red)
                    if r and (r < 0) != at_upper[k] and not fixed[k]
                ),
                None,
            )
            if j is None:
                return True
            step = -1 if at_upper[j] else 1
            # ratio test: the entering column's own bound first, so a tie
            # flips it instead of pivoting; row ties go to the smallest
            # basic index.  Limits are num / den over positive dens.
            best, best_den, leave, to_upper = upper[j], 1, None, False
            for i, row in enumerate(rows):
                a = step * row[j]
                if a > 0:
                    num, up = beta[i], False
                elif a < 0 and upper[basis[i]] is not None:
                    num, a, up = upper[basis[i]] * self.den - beta[i], -a, True
                else:
                    continue
                if best is None or num * best_den < best * a or (
                    num * best_den == best * a
                    and leave is not None
                    and basis[i] < basis[leave]
                ):
                    best, best_den, leave, to_upper = num, a, i, up
            if best is None:
                return False
            self.pivots += 1
            if leave is None:
                f = step * upper[j]
                for i, row in enumerate(rows):
                    beta[i] -= f * row[j]
                at_upper[j] = not at_upper[j]
            else:
                self._pivot(leave, j, to_upper)

    def _pivot(self, r: int, j: int, to_upper: bool) -> None:
        rows, beta, den = self.rows, self.beta, self.den
        if self.at_upper[j]:
            # j leaves its upper bound to become basic: count it at 0
            uj = self.upper[j]
            for i, row in enumerate(rows):
                beta[i] += uj * row[j]
            self.at_upper[j] = False
        prow, pb, p = rows[r], beta[r], rows[r][j]
        for i, row in enumerate(rows):
            if i != r:
                f = row[j]
                rows[i] = [(a * p - f * b) // den for a, b in zip(row, prow)]
                beta[i] = (beta[i] * p - f * pb) // den
        f = self.red[j]
        self.red = [(a * p - f * b) // den for a, b in zip(self.red, prow)]
        leaving, self.basis[r] = self.basis[r], j
        if p < 0:
            p = -p
            for i, row in enumerate(rows):
                rows[i] = [-a for a in row]
                beta[i] = -beta[i]
            self.red = [-a for a in self.red]
        self.den = p
        if to_upper:
            ul = self.upper[leaving]
            for i, row in enumerate(rows):
                beta[i] -= ul * row[leaving]
            self.at_upper[leaving] = True

    def point(self) -> list[int]:
        """den * z over the structural columns."""
        z = [
            self.den * u if up else 0
            for u, up in zip(self.upper, self.at_upper)
        ]
        for b, v in zip(self.basis, self.beta):
            z[b] = v
        return z[: self.n]

    def duals(self) -> list[int]:
        """den * y for the unscaled rows, read off the artificials'
        reduced costs (an artificial costs 0 in phase 2)."""
        return [-s * r for s, r in zip(self.sign, self.red[self.n :])]

    def certify(self) -> None:
        """Exact optimality check of the current point against M, d, the
        bounds and the priced cost; fixed columns count as fixed."""
        den, z, y = self.den, self.point(), self.duals()
        for row, di in zip(self.M, self.d):
            if sum(a * v for a, v in zip(row, z)) != den * di:
                raise CertificateError("LP point violates its equality rows")
        for j, v in enumerate(z):
            u = self.upper[j]
            if v < 0 or (u is not None and v > den * u):
                raise CertificateError("LP point violates its bounds")
            if self.fixed[j]:
                continue
            r = den * self.cost[j] - sum(yi * row[j] for yi, row in zip(y, self.M))
            if (r > 0 and v != 0) or (r < 0 and (u is None or v != den * u)):
                raise CertificateError("LP reduced cost has the wrong sign at its bound")

    def fix_optimal_face(self) -> bool:
        """Fix every nonbasic column with nonzero reduced cost at its bound,
        which restricts the feasible set to the optimal face; True when that
        leaves no column free to enter, so the face is one point."""
        free = False
        basic = set(self.basis)
        for k, r in enumerate(self.red):
            if k not in basic and not self.fixed[k]:
                if r:
                    self.fixed[k] = True
                else:
                    free = True
        return not free


def _solve(M, d, upper: list, cost: Sequence[int]) -> tuple[_Tableau, str]:
    """Two-phase run of min cost'z, M z = d, 0 <= z <= upper; the status
    is 'optimal' (certified), 'infeasible' or 'unbounded'."""
    tab = _Tableau(M, d, upper)
    if any(u is not None and u < 0 for u in upper):
        return tab, "infeasible"
    tab.price([0] * tab.n, artificial=1)
    tab.run(phase1=True)
    if any(v for v, b in zip(tab.beta, tab.basis) if b >= tab.n):
        return tab, "infeasible"
    for k in range(tab.n, len(tab.upper)):
        tab.upper[k], tab.fixed[k] = 0, True
    tab.price(cost)
    if not tab.run():
        return tab, "unbounded"
    tab.certify()
    return tab, "optimal"


def _solve_canonical(instance: CanonicalInstance) -> LpOutcome:
    n, rows = instance.n, instance.A.rows
    M = [
        list(row) + [-v for v in row] + [int(i == k) for k in range(rows)]
        for i, row in enumerate(instance.A.entries)
    ]
    slack = [
        hi - lo if is_finite(lo) else None
        for lo, hi in zip(instance.b_l, instance.b_r)
    ]
    cost = [-v for v in instance.c] + list(instance.c) + [0] * rows
    tab, status = _solve(M, instance.b_r, [None] * (2 * n) + slack, cost)
    if status != "optimal":
        return LpOutcome(status=status, pivots=tab.pivots)
    # lexicographic maximum of the optimal face, one coordinate at a time
    for k in range(n):
        if tab.fix_optimal_face():
            break
        e = [0] * len(cost)
        e[k], e[n + k] = -1, 1
        tab.price(e)
        if not tab.run():
            raise ValueError(
                "the optimal LP face is unbounded, so it has no "
                "lexicographically maximal vertex"
            )
        tab.certify()
    z, den = tab.point(), tab.den
    x = tuple(Fraction(z[k] - z[n + k], den) for k in range(n))
    tight = [
        i
        for i, (s, u) in enumerate(zip(z[2 * n :], slack))
        if s == 0 or (u is not None and s == den * u)
    ]
    base: list[int] = []
    for i in tight:
        if rank(instance.A.take_rows(base + [i])) == len(base) + 1:
            base.append(i)
            if len(base) == n:
                break
    if len(base) < n:
        raise ValueError("the optimal LP point is not a vertex: A lacks full column rank")
    value = sum(ci * xi for ci, xi in zip(instance.c, x))
    return LpOutcome(
        status="optimal", vertex=x, base=tuple(base), objective=value, pivots=tab.pivots
    )


def _solve_standard(instance: StandardInstance) -> LpOutcome:
    M = instance.A.entries if instance.A is not None else ()
    upper = [u if is_finite(u) else None for u in instance.u]
    tab, status = _solve(M, instance.b, upper, instance.c)
    if status != "optimal":
        return LpOutcome(status=status, pivots=tab.pivots)
    den = tab.den
    x = tuple(Fraction(v, den) for v in tab.point())
    value = sum(ci * xi for ci, xi in zip(instance.c, x))
    return LpOutcome(status="optimal", vertex=x, objective=value, pivots=tab.pivots)


def solve_lp(instance: CanonicalInstance | StandardInstance) -> LpOutcome:
    """Exact optimum of the LP relaxation.

    Canonical instances: max c'x over b_l <= Ax <= b_r; the result is the
    lexicographically maximal point of the optimal face, a vertex, and the
    reported base is the lexicographically first full-rank set of tight
    rows.  Standard instances: min c'x over Ax = b, 0 <= x <= u with the
    residue constraint dropped; the point returned is a basic solution.
    """
    if isinstance(instance, CanonicalInstance):
        return _solve_canonical(instance)
    if isinstance(instance, StandardInstance):
        return _solve_standard(instance)
    raise TypeError(f"unknown instance type: {type(instance)!r}")
