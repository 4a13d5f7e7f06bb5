"""Finite Abelian group minimization.

Solvers for  min c'x  s.t.  sum_i x_i * g_i = g_0,  x in Z_+^n  over a
finite Abelian group G:

- :func:`gomory_solve` — dynamic program over the |G| group elements,
  relaxing one generator at a time along its cyclic orbits, in
  O(min(n, |G|) * |G|) group operations after deduplicating generators.
  Elements are the codes of ``GroupSpec.encode``; a generator's orbit step
  is one table g -> g + generator built by ``GroupSpec.codes``.
- :func:`cyclic_minplus_solve` — for cyclic G, doubling over
  ceil(log_{3/2} |G|) levels, each one cyclic (min,+) self-convolution of
  the previous level, held as one numpy array of packed integers.  Its
  witness walks the stored first-argmin splits level by level with
  :func:`_split_walk`, which the m = 1 doubling DP of ``dpsolve`` shares.

Both tie-break the optimum by minimal l1 norm, so the returned witness
inherits the vertex-norm guarantee ||x||_1 <= |G| - 1; a witness that
fails its re-check raises :class:`WitnessError`, a CertificateError.  The
product certificate prod(1 + x_i) <= |G| for hull vertices and its faces
generalization are provided as checkable predicates.
"""

from __future__ import annotations

import itertools
import math

from .intlinalg import IntMat, rank
from .model import CertificateError, GroupInstance, SolveOutcome, is_finite

_BLOCK_CELLS = 1 << 16  # entries of one doubling block's temporaries


class WitnessError(CertificateError):
    """Raised when a certified witness cannot be found or fails its check."""


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
    digits = grp.digits

    dist: list[tuple[int, int] | None] = [None] * order
    dist[0] = (0, 0)
    # parents[stage][g] = predecessor of g via one copy of that stage's
    # generator, set only when the copy is on a best path
    parents: list[dict[int, int]] = []
    for code, cost, _idx in gens:
        stage: dict[int, int] = {}
        nxt = grp.codes(digits + digits[code]).tolist()  # g -> g + generator
        seen = [False] * order
        for start in range(order):
            if seen[start]:
                continue
            cycle = []
            g = start
            while not seen[g]:
                seen[g] = True
                cycle.append(g)
                g = nxt[g]
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
    if g != 0:
        raise WitnessError("witness reconstruction did not reach the identity")
    value = sum(c * t for c, t in zip(instance.costs, x))
    if (value, sum(x)) != dist[target]:
        raise WitnessError("witness cost or l1 differs from the DP value")
    return SolveOutcome.optimal(
        x, value, certificate={"deduplicated_generators": len(gens)}
    )


def _is_cyclic(moduli) -> bool:
    return sum(1 for d in moduli if d > 1) <= 1


def _doubling_rounds(r: int) -> int:
    """ceil(log_{3/2} r) for r >= 2, and 1 for r = 1, in integers: the
    smallest k >= 1 with 3^k >= r * 2^k."""
    k = 1
    while 3**k < r * 2**k:
        k += 1
    return k


def _split_walk(root, depth: int, split) -> dict:
    """The leaves of a doubling witness, with multiplicities.

    A level-k node stands for the sum of the two level-(k - 1) nodes
    split(k, node) returns (no children: the node adds nothing).  Walking
    from root at level depth down to level 0, one dict per level maps each
    node to the number of paths that reach it, so a node is split once
    however often it recurs.  Returns {level-0 node: multiplicity}.
    """
    level = {root: 1}
    for k in range(depth, 0, -1):
        below: dict = {}
        for node, mult in level.items():
            for child in split(k, node):
                below[child] = below.get(child, 0) + mult
        level = below
    return level


def _minplus_doubling(level, rounds: int, big: int):
    """(last level, per level k >= 2 its argmin splits) from level 1.

    new[s] = min_{g2} prev[(s - g2) mod r] + prev[g2], where the left term
    is d[s - g2 + r] of the doubled level d = prev + prev: a window view of
    d, summed and reduced by argmin in blocks of _BLOCK_CELLS // r rows, so
    temporaries stay at _BLOCK_CELLS entries whatever r is.  The first
    minimising g2 is the split a scan over range(r) finds.  Sums >= big
    involve an unreachable entry and are clamped back to big.
    """
    import numpy as np

    r = len(level)
    rows = max(1, _BLOCK_CELLS // r)
    doubled = np.empty(2 * r, dtype=level.dtype)
    # left[s, g2] = doubled[r + s - g2], an index in [1, 2r - 1]
    step = doubled.strides[0]
    left = np.lib.stride_tricks.as_strided(doubled[r:], shape=(r, r), strides=(step, -step))
    blocks = [left[s0 : s0 + rows] for s0 in range(0, r, rows)]
    s_plus_r = np.arange(r, 2 * r)
    splits = []
    for _ in range(1, rounds):
        doubled[:r] = doubled[r:] = level
        arg = np.concatenate([(block + level).argmin(axis=1) for block in blocks])
        level = np.minimum(doubled[s_plus_r - arg] + level[arg], big)
        splits.append(arg)
    return level, splits


def cyclic_minplus_solve(instance: GroupInstance) -> SolveOutcome:
    """Exact minimum for a cyclic group Z_r via doubling (min,+) levels.

    Level 1 holds the solutions with at most one generator copy; level k
    covers l1-budget (3/2)^k and is the cyclic self-convolution of level
    k - 1.  After rounds = ceil(log_{3/2} r) levels the budget covers an
    optimal solution with ||x||_1 <= r - 1.  A level is one array of
    packed values cost * K + l1, K = 2^rounds: l1 <= 2^(k-1) < K, so
    integer order is (cost, l1) order and packed sums are sums of pairs.
    Reachable values are at most top = (max c * K + 1) * 2^(rounds-1), and
    unreachable ones are big = 2^max(61, bitlen(top)) > top; a sum of two
    entries is at most 2 * big, so with big = 2^61 int64 is exact, and
    otherwise the same code runs on Python ints (dtype object).  The
    witness follows the argmin splits and is re-checked against the value.
    """
    import numpy as np

    _check_unbounded_instance(instance)
    grp = instance.group
    if not _is_cyclic(grp.moduli):
        raise ValueError("cyclic_minplus_solve requires a cyclic group")
    r = grp.order
    gens = _dedup_generators(instance)
    target = grp.encode(grp.reduce(instance.target))
    rounds = _doubling_rounds(r)
    K = 1 << rounds
    top = (max(instance.costs, default=0) * K + 1) << (rounds - 1)
    big = 1 << max(61, top.bit_length())

    level = np.full(r, big, dtype=np.int64 if big == 1 << 61 else object)
    level[0] = 0
    for code, cost, _idx in gens:
        level[code] = cost * K + 1
    level, splits = _minplus_doubling(level, rounds, big)
    packed = int(level[target])
    if packed >= big:
        return SolveOutcome.infeasible(certificate={"rounds": rounds})

    def split(k, g):
        if g == 0:
            return ()
        g2 = int(splits[k - 1][g])
        return (g - g2) % r, g2

    index_of = {code: idx for code, _, idx in gens}
    x = [0] * instance.n
    for g, mult in _split_walk(target, rounds - 1, split).items():
        if g in index_of:
            x[index_of[g]] += mult
        elif g != 0:
            raise WitnessError("level-1 entry matches no generator")
    value = sum(c * t for c, t in zip(instance.costs, x))
    if divmod(packed, K) != (value, sum(x)):
        raise WitnessError("witness cost or l1 differs from the doubling value")
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
