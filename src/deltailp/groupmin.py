"""Finite Abelian group minimization.

Solvers for  min c'x  s.t.  sum_i x_i * g_i = g_0,  x in Z_+^n  over a
finite Abelian group G:

- :func:`gomory_solve` — dynamic program over the |G| group elements,
  relaxing one generator at a time along its cyclic orbits, in
  O(min(n, |G|) * |G|) group operations after deduplicating generators.
- :func:`cyclic_minplus_solve` — for cyclic G, doubling over
  ceil(log_{3/2} |G|) rounds where each round is one (min,+)
  self-convolution of the doubled value sequence.

Both tie-break the optimum by minimal l1 norm, so the returned witness
inherits the vertex-norm guarantee ||x||_1 <= |G| - 1.  The product
certificate prod(1 + x_i) <= |G| for hull vertices and its faces
generalization are provided as checkable predicates.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction

from .intlinalg import IntMat, rank
from .model import GroupInstance, SolveOutcome, is_finite

# DP values are (cost, l1) pairs ordered lexicographically; None = unreachable.
Pair = tuple[int, int]


class WitnessError(RuntimeError):
    """Raised when a certified witness that must exist cannot be found."""


def _check_unbounded_instance(instance: GroupInstance) -> None:
    if any(is_finite(b) for b in instance.bounds):
        raise ValueError("solver requires the unbounded variant (all bounds +inf)")
    if any(c < 0 for c in instance.costs):
        raise ValueError("solver requires nonnegative costs")


def _dedup_generators(instance: GroupInstance):
    """Keep, per distinct nonzero group element, the generator of minimal
    (cost, index); zero generators never help a nonnegative-cost minimum."""
    grp = instance.group
    best: dict[int, tuple[int, int]] = {}
    for i, gen in enumerate(instance.generators):
        code = grp.encode(grp.reduce(gen))
        if code == 0:
            continue
        if code not in best or (instance.costs[i], i) < best[code]:
            best[code] = (instance.costs[i], i)
    return sorted((code, c, i) for code, (c, i) in best.items())


def gomory_solve(instance: GroupInstance) -> SolveOutcome:
    """Exact minimum of the unbounded group problem.

    One full relaxation pass per distinct generator: adding t copies of a
    generator walks t steps along the orbit cycles of that generator, and a
    two-lap sweep of each cycle computes all orbit minima in O(orbit
    length).  Generator order is irrelevant because the group is Abelian,
    so a single pass over the deduplicated generators is exact.
    """
    _check_unbounded_instance(instance)
    grp = instance.group
    order = grp.order
    gens = _dedup_generators(instance)
    target = grp.encode(grp.reduce(instance.target))

    dist: list[Pair | None] = [None] * order
    dist[0] = (0, 0)
    # parents[stage][g] = predecessor of g via one copy of that stage's
    # generator, set only when the copy is on a best path
    parents: list[dict[int, int]] = []
    for code, cost, _idx in gens:
        stage: dict[int, int] = {}
        elem = grp.decode(code)
        seen = [False] * order
        for start in range(order):
            if seen[start]:
                continue
            cycle = []
            g = start
            while not seen[g]:
                seen[g] = True
                cycle.append(g)
                g = grp.encode(grp.add(grp.decode(g), elem))
            o = len(cycle)
            for step in range(2 * o):
                g = cycle[step % o]
                prev = cycle[(step - 1) % o]
                if dist[prev] is not None:
                    cand = (dist[prev][0] + cost, dist[prev][1] + 1)
                    if dist[g] is None or cand < dist[g]:
                        dist[g] = cand
                        stage[g] = prev
        parents.append(stage)

    if dist[target] is None:
        return SolveOutcome.infeasible(
            certificate={"deduplicated_generators": len(gens)}
        )
    x = [0] * instance.n
    g = target
    for stage, (_, _, idx) in zip(reversed(parents), reversed(gens)):
        while g in stage:
            x[idx] += 1
            g = stage[g]
    assert g == 0, "witness reconstruction did not reach the identity"
    value = sum(c * t for c, t in zip(instance.costs, x))
    assert (value, sum(x)) == dist[target]
    return SolveOutcome.optimal(
        x, value, certificate={"deduplicated_generators": len(gens)}
    )


def _pair_add(a, b):
    if a is None or b is None:
        return None
    if isinstance(a, tuple):
        return tuple(x + y for x, y in zip(a, b))
    return a + b


def minplus_convolution(a: list, b: list) -> list:
    """c_k = min_{i+j=k}(a_i + b_j) with None as the absorbing +infinity.

    Entries may be numbers or same-length tuples (compared
    lexicographically, added componentwise).  Naive O(len(a)*len(b));
    subquadratic convolution algorithms are deliberately out of scope and
    can be substituted behind this interface.
    """
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


def _is_cyclic(moduli) -> bool:
    return sum(1 for d in moduli if d > 1) <= 1


def _doubling_rounds(r: int) -> int:
    """ceil(log_{3/2} r) for r >= 2, and 1 for r = 1, in integers: the
    smallest k >= 1 with 3^k >= r * 2^k."""
    k = 1
    while 3**k < r * 2**k:
        k += 1
    return k


def cyclic_minplus_solve(instance: GroupInstance) -> SolveOutcome:
    """Exact minimum for a cyclic group via doubling (min,+)-convolutions.

    Level-1 values cover solutions with at most one generator copy; level k
    covers l1-budget (3/2)^k and is obtained from level k-1 by one (min,+)
    self-convolution of the doubled sequence (the wrap-around of indices
    modulo r is realized by concatenating the sequence with itself and
    reading entries r..2r-1).  After ceil(log_{3/2} r) levels the budget
    covers some optimal solution with ||x||_1 <= r - 1, so the final value
    is the true unbounded optimum.
    """
    _check_unbounded_instance(instance)
    grp = instance.group
    if not _is_cyclic(grp.moduli):
        raise ValueError("cyclic_minplus_solve requires a cyclic group")
    r = grp.order
    gens = _dedup_generators(instance)
    gen_codes = [code for code, _, _ in gens]
    gen_pairs: list[Pair] = [(cost, 1) for _, cost, _ in gens]
    target = grp.encode(grp.reduce(instance.target))

    level1: list[Pair | None] = [None] * r
    level1[0] = (0, 0)
    for g in range(1, r):
        pos = bisect.bisect_left(gen_codes, g)
        if pos < len(gen_codes) and gen_codes[pos] == g:
            level1[g] = gen_pairs[pos]

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


def vertex_certificate(z, order: int) -> tuple[bool, int]:
    """Product certificate for hull vertices: prod(1 + z_i) <= |G|."""
    if any(v < 0 for v in z):
        raise ValueError("certificate requires z >= 0")
    product = math.prod(1 + v for v in z)
    return product <= order, product


def independence_dimension(instance: GroupInstance, p) -> int:
    """The number of linearly independent integer vectors r with
    0 <= r <= p and sum r_i * g_i = 0; a feasible p lying on a d-face has
    independence dimension at most d, and exactly 0 at a vertex."""
    grp = instance.group
    sols = []
    for x in itertools.product(*(range(v + 1) for v in p)):
        acc = grp.zero
        for t, gen in zip(x, instance.generators):
            acc = grp.add(acc, grp.scale(t, gen))
        if acc == grp.zero:
            sols.append(list(x))
    nonzero = [s for s in sols if any(s)]
    if not nonzero:
        return 0
    return rank(IntMat.from_rows(nonzero))


def face_support_witness(instance: GroupInstance, p, d: int) -> tuple[int, ...]:
    """An index set J with |J| >= n - d and prod_{i in J}(1 + p_i) <= |G|.

    Searched exhaustively from the largest size down; the first
    (lexicographically smallest) witness is returned.  Absence of a witness
    contradicts the face product bound and raises WitnessError.
    """
    n = instance.n
    order = instance.group.order
    if d < 0 or d > n:
        raise ValueError("face dimension must be in [0, n]")
    for size in range(n, max(n - d, 0) - 1, -1):
        for J in itertools.combinations(range(n), size):
            if math.prod(1 + p[i] for i in J) <= order:
                return J
    raise WitnessError(
        f"no index set of size >= {n - d} satisfies the product bound {order}"
    )
