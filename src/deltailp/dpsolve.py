"""Dynamic-programming solvers for generalized standard form instances.

- :func:`solve_bilp_sf` — bounded instances.  After recentering at an
  optimal LP vertex, a layered shortest-path DP over states
  (layer, residual right side, group residue) finds the exact optimum.
  Residues live in ``StandardInstance.group``, the factors of S with
  modulus > 1; a Z_1 factor constrains nothing and is not carried.
  Two equivalent variants on one dense layer table: "queue" takes window
  minima along the paths and cycles of each layer graph as sparse-table
  reads; "binarized" compresses each per-variable window into O(log) 0/1
  arcs via :func:`binary_decomposition`.  Both share one backward witness
  walk.
- :func:`solve_ilp_sf_unbounded` — unbounded instances with c >= 0.  At
  m = 1 a doubling DP over discrepancy-sized state windows combines two
  half solutions per level; level i covers solutions with l1 norm up to
  (6/5)^i.  Its window radius is 4 * mu with mu = 12 at every m = 1
  instance, and level i's window is the integer interval within
  4 * mu * |a| of 2^i * b / 2^rho (a the base entry, b the target).  Each
  level is one numpy array over (window point, residue code); unreachable
  entries hold big = 2^max(60, bitlen(max(c) * 2^rho)), which exceeds
  every reachable value, so the tables are int64 when big = 2^60 (big +
  big cannot overflow) and exact Python ints (dtype object) otherwise.
  The witness walks first splits level by level
  (``groupmin._split_walk``, shared with the cyclic group DP).  At m >= 2 the bounded DP runs on the proximity box of the
  LP vertex; m = 0 is Gomory's group problem.
- :func:`detect_unbounded` — decides unboundedness of an instance with
  arbitrary costs by solving the homogeneous problem restricted to the
  recession-cone norm budget (m+1) * |det S| * Delta with an extra
  l1-budget row, and returns a ray certificate when a negative-objective
  homogeneous solution exists.  :func:`solve_ilp_sf_unbounded` does not
  call it: it requires c >= 0, and with x >= 0 that bounds the objective
  below by 0, so no such ray exists there.

Each solver call finds the maximum-|det| m x m column base B of A once,
with one exact enumeration of the m x m minors (the m >= 2 box route's
bounded solve finds it again).  For A of full row rank |det B| is Delta(A),
the largest m x m minor, so the Delta-based bounds (chi, the
recession-cone budget) read it off B, and B's lattice holds the DP states.

DP values are (cost, l1) pairs compared lexicographically in the queue
variant, so witnesses are deterministic; the binarized variant tracks
costs only (both variants return equal objective values).  Every witness
is re-checked with :func:`~deltailp.model.is_feasible`; a failed re-check
raises :class:`~deltailp.model.CertificateError`, also under ``python -O``.

Bounded DP encoding.  The states are s = p * R + r: p indexes the rows of
the (P, m) integer array of one ``ParallelepipedLattice.points`` call (the
residual right sides within radius H of the max-det column base, in
lexicographic order) and r is the residue code of ``GroupSpec.encode``
(R = group order).  :func:`_lattice_rows` maps an array of points to their
rows, -1 off the lattice: arithmetic at m = 1, where the lattice is an
integer interval, and a ``searchsorted`` over the runs of equal prefixes at
m >= 2.  A layer is one flat numpy array over the states followed by a
sentinel row of R slots, so a point's row -1 indexes the sentinel row from
the end; the table holds all n + 1 layers, and more than ``_DP_CELLS``
cells raise :class:`~deltailp.model.CapExceeded` before anything is
allocated.  For each step (a, g) of a column, :func:`_shift` gives shift(j),
the index of the state (y - j * a, r - j * g) of every state, and a column
is a window minimum over gathers through these shifts
(:func:`_window_min`): doubling arcs, then two overlapping reads for
"queue" and one remainder arc and one read for "binarized".  Columns with
equal steps share their shift arrays.  A window is clipped to the cycle
length when a = 0 and to P - 1 otherwise; no chain has more states.  A
queue value is packed as cost * K + l1 with K = 2^ceil(log2(n*H + 1)):
l1 <= n * H < K, so integer order is lexicographic order and packed sums
are sums of pairs; binarized values are costs (K = 1).  Every reachable
value satisfies |v| <= (sum |c_k| * H + 1) * K, and an arc of a clipped
window adds at most max(P, R) * (max |c_k| * K + 1); when twice that plus
the value bound stays below 2^61 the table is int64, with sentinel 2^62
and anything >= 2^61 read as unreachable (see :func:`_value_range`).
Otherwise the same code runs on dtype object, exact Python ints.
"""

from __future__ import annotations

import math
from dataclasses import replace

from .groupmin import _split_walk, gomory_solve
from .intlinalg import IntMat, ParallelepipedLattice, max_det_submatrix
from .lp import solve_lp
from .model import (
    CapExceeded,
    CertificateError,
    GroupInstance,
    POS_INF,
    SolveOutcome,
    StandardInstance,
    is_feasible,
    is_finite,
    objective_value,
)

_PAD_CELLS = 1 << 16  # block budget of the doubling step, in entries
# Cap on the bounded DP's layer table, P lattice points x R residues x
# (n + 1) layers, in int64 cells (64 MiB); a Python-int cell counts
# _OBJECT_CELL times.  Above it solve_bilp_sf raises CapExceeded, exit 5.
_DP_CELLS = 1 << 23
_OBJECT_CELL = 8
# mu of the m = 1 doubling DP, whose windows have radius 4 * mu; always 12
# there (see solve_ilp_sf_unbounded)
_MU = 12


def _value_range(top: int, reach: int):
    """(lim, dtype) of a table of packed values; its sentinel is 2 * lim.

    top bounds |v| for every reachable value v, and reach bounds |t * step|
    for every arc that :func:`_window_min` adds, t being a partial or whole
    offset of a clipped window.  Every number the kernel forms is then a
    table value plus such an arc: in [-(top + reach), top + reach] when it
    derives from a reachable value and at >= 2 * lim - reach > lim from the
    sentinel, so a result lands in [-top, top] when reachable and reads as
    unreachable otherwise.  When top + 2 * reach < 2^61, lim = 2^61 and
    every number stays below 2^63, so int64 is exact; otherwise the same
    code runs on Python ints (dtype object) with a larger lim.
    """
    import numpy as np

    lim = 1 << max(61, (top + 2 * reach).bit_length())
    return lim, (np.int64 if lim == 1 << 61 else object)


def _cycle_length(grp, g_col) -> int:
    """Order of g_col in the group: the length of every cycle of r -> r + g_col."""
    return math.lcm(*(d // math.gcd(v, d) for v, d in zip(g_col, grp.moduli)))


def _window_min(prev, shift, lo: int, hi: int, step: int, queue: bool):
    """min over t in [lo, hi] of prev[shift(t)] + t * step, for a window on
    one side of 0 (0 <= lo or hi < 0).

    shift(t) maps every state to its predecessor t steps back.  Shifts of
    one sign compose, shift(i)[shift(j)] = shift(i + j), because a chain
    that leaves the lattice stays off it.  With t = near + d * u, near the
    end nearest 0 and d its sign, the arcs x = min(x, x[shift(d * s)] +
    d * s * step) for s = 1, 2, 4, ... below k, the largest power of two
    <= w = hi - lo + 1, leave x = the minimum over u < k of
    prev[shift(d * u)] + d * u * step.  "queue" then takes the two windows
    of k at near and at near + d * (w - k), which cover [lo, hi] together
    (a sparse-table query); "binarized" adds the last arc of
    ``binary_decomposition(0, w - 1)``, w - k, and reads one window at
    near.
    """
    import numpy as np

    d, near = (1, lo) if lo >= 0 else (-1, hi)
    w = hi - lo + 1
    k = 1 << (w.bit_length() - 1)
    arcs = binary_decomposition(0, w - 1)  # the powers of two below k, then w - k
    if queue:
        arcs, reads = arcs[: k.bit_length() - 1], {near, near + d * (w - k)}
    else:
        reads = {near}
    x = prev
    for s in arcs:
        x = np.minimum(x, x[shift(d * s)] + d * s * step)
    res = [x if t == 0 else x[shift(t)] + t * step for t in reads]
    return res[0] if len(res) == 1 else np.minimum(*res)


def _layer_step(prev, shift, lo: int, hi: int, cost: int, l1w: int, lim: int, queue: bool, out):
    """One DP layer into out: out[s] = min over t in [lo, hi] of
    prev[shift(t)[s]] + cost * t + l1w * |t|, one :func:`_window_min` per
    sign of t; out is left as it is when the window is empty.

    prev and out hold one value per state and end in the sentinel row, R
    slots of 2 * lim that every shift maps into itself; results >= lim
    become the sentinel.
    """
    import numpy as np

    parts = [
        _window_min(prev, shift, a, b, step, queue)
        for a, b, step in ((max(lo, 0), hi, cost + l1w), (lo, min(hi, -1), cost - l1w))
        if a <= b
    ]
    if parts:
        np.minimum(parts[0], parts[-1], out=out)  # parts[0] alone when one sign
        out[out >= lim] = 2 * lim


def binary_decomposition(alpha: int, beta: int) -> list[int]:
    """Nonnegative weights s(i) such that alpha + subset sums of s(i) cover
    every integer of [alpha, beta] and nothing outside it.

    The list has O(log(beta - alpha + 2)) entries: powers of two plus one
    remainder weight.  Representations are unique exactly when
    beta - alpha + 1 is a power of two (a counting argument shows that no
    0/1 scheme whose combinations all stay inside the range can be unique
    otherwise).
    """
    if alpha > beta:
        raise ValueError("empty range")
    r = beta - alpha
    if r == 0:
        return []
    k = (r + 1).bit_length() - 1
    weights = [1 << i for i in range(k)]
    rest = r + 1 - (1 << k)
    if rest > 0:
        weights.append(rest)
    return weights


def _steps(instance: StandardInstance) -> list:
    """(A-column, group residue of the column) of every variable."""
    if instance.A is None:
        return [((), g) for g in instance.group_columns]
    return list(zip(instance.A.transpose().entries, instance.group_columns))


def _default_chi(instance: StandardInstance, delta: int) -> int:
    """The Delta-based proximity bound, at least 1; delta = Delta(A)."""
    from .bounds import chi_bound

    val = chi_bound(
        instance.m, "delta", delta=delta, det_s=abs(instance.det_s)
    )
    return max(1, val)


def _recenter(instance: StandardInstance, chi: int, steps: list):
    """LP-vertex recentering shared by both bounded variants.

    Returns None when the LP relaxation is already infeasible, otherwise
    (shift, windows, H, target) where windows[k] = (alpha_k, beta_k) is
    the recentered variable range clipped to [-H, H] and target the
    (residual right side, group residue) state the DP must reach.  Columns
    that do not touch the equality rows keep shift 0; the state radius H
    is enlarged by |det S| - 1 per such column because their optimal
    values can always be reduced below the order of the group element.
    """
    n, m = instance.n, instance.m
    lp = solve_lp(instance)
    if lp.status == "infeasible":
        return None
    if lp.status != "optimal":
        raise CertificateError("LP relaxation over finite bounds reported unbounded")
    zero_cols = []
    shift = []
    for k in range(n):
        a_col, _ = steps[k]
        if all(v == 0 for v in a_col):
            zero_cols.append(k)
            if instance.c[k] < 0:
                raise ValueError(
                    "columns outside the equality rows need nonnegative cost"
                )
            shift.append(0)
        else:
            v = math.floor(lp.vertex[k])
            shift.append(max(0, min(v, instance.u[k])))
    h = chi + m + len(zero_cols) * (abs(instance.det_s) - 1)
    windows = []
    for k in range(n):
        alpha = max(-shift[k], -h)
        beta = min(instance.u[k] - shift[k], h)
        windows.append((alpha, beta))
    return shift, windows, h, _target(instance, shift)


def _target(instance: StandardInstance, shift: list[int]) -> tuple:
    """The state (b - A shift, g - G shift in group) a shifted DP must reach."""
    b_target = (
        tuple(bi - vi for bi, vi in zip(instance.b, instance.A.matvec(shift)))
        if instance.A is not None
        else ()
    )
    return b_target, instance.group.sub(instance.group_target, instance.residue(shift))


def _base(instance: StandardInstance) -> tuple[tuple[int, ...], int]:
    """(cols, Delta): the maximum-|det| m x m column base of A and its |det|,
    which is Delta(A), the largest m x m minor.  ((), 1) when m = 0; raises
    RankError when A does not have full row rank."""
    if instance.A is None:
        return (), 1
    return max_det_submatrix(instance.A.transpose())


def _lattice_rows(coords):
    """rows(Y): the row of coords that holds each point of the (N, m)
    integer array Y (any dtype), -1 for a point that is not a row; int64.

    coords holds the lattice points in lexicographic order.  The lattice is
    the set of integer points of a convex body, so the points that share a
    prefix y_0, ..., y_{m-2} are consecutive rows whose last coordinates run
    through consecutive integers.  At m = 1 that is one run, an integer
    interval, and rows is arithmetic.  At m >= 2 ``searchsorted`` finds a
    point's run among the runs' prefixes, read as mixed-radix numbers over
    the box the prefixes span (Python ints when it holds 2^62 points or
    more).
    """
    import numpy as np

    n_pts, m = coords.shape
    if m == 0:
        return lambda Y: np.zeros(len(Y), dtype=np.int64)
    new = np.ones(n_pts, dtype=bool)
    new[1:] = (coords[1:, :-1] != coords[:-1, :-1]).any(axis=1)
    starts = np.flatnonzero(new)
    ends = np.append(starts[1:], n_pts) - 1
    first, last = coords[starts, -1], coords[ends, -1]
    if (last - first != ends - starts).any():
        raise CertificateError("lattice points of one prefix are not contiguous")
    offset = starts - first  # the row of y in run i is offset[i] + y_{m-1}
    if m == 1:
        off = offset[0]

        def interval(Y):
            y = Y[:, 0] + off
            return np.where((0 <= y) & (y < n_pts), y, -1).astype(np.int64, copy=False)

        return interval
    prefix = coords[starts, :-1]
    low = prefix.min(axis=0)
    span = prefix.max(axis=0) - low + 1
    dtype = np.int64 if math.prod(span.tolist()) < 1 << 62 else object
    radix = np.array([math.prod(span[i + 1 :].tolist()) for i in range(m - 1)], dtype=dtype)
    keys = (prefix - low).astype(dtype) @ radix  # increasing: the runs are sorted

    def rows(Y):
        pre = Y[:, :-1] - low
        ok = ((pre >= 0) & (pre < span)).all(axis=1)
        key = np.where(ok[:, None], pre, 0).astype(dtype) @ radix
        run = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        y = Y[:, -1]
        ok &= (keys[run] == key) & (first[run] <= y) & (y <= last[run])
        return np.where(ok, offset[run] + y, -1).astype(np.int64, copy=False)

    return rows


def _shift(coords, rows, grp, a, g, j: int):
    """shift(j) of the step (a, g): the flat index p * R + r of the state
    (y - j * a, r - j * g) for every state (y, r) and every slot of the
    sentinel row, in table order; int64.  A point off the lattice has row
    -1, so its index falls in [-R, -1], the sentinel row counted from the
    end."""
    import numpy as np

    p = rows(coords - j * a) if a.any() else np.arange(len(coords))
    r = grp.codes(grp.digits - j * g) if g.any() else np.arange(grp.order)
    return (np.append(p, -1)[:, None] * grp.order + r).ravel()


def _layer_dp(instance, cols, steps, windows, target, radius, variant):
    """Dense layered DP over the states (lattice point, residue code), the
    points being those of the lattice of the column base cols.

    Returns (lookup, value): lookup(k, points, codes) lists the values of
    the states (points[i], codes[i]) after the first k columns, points an
    (N, m) integer array and codes residue codes; an entry is None when its
    point is off the lattice or its state is unreachable.  value is the
    target's value after all columns.  Values are (cost, l1) pairs for
    "queue" and costs for "binarized".  Raises CapExceeded before
    allocating more than _DP_CELLS cells.
    """
    import numpy as np

    n, m, grp = instance.n, instance.m, instance.group
    # the lattice of the column base B = A[:, cols]; its points in the box of
    # radius H are a superset of {A x : ||x||_1 <= H}
    lattice = (
        None if m == 0 else ParallelepipedLattice(instance.A.submatrix(list(range(m)), list(cols)))
    )
    origin = (0,) * m
    n_pts = 1 if m == 0 else lattice.count(origin, radius)
    n_res = grp.order
    queue = variant == "queue"
    K = 1 << (n * radius).bit_length() if queue else 1  # l1 <= n * H < K
    costs = [abs(c) for c in instance.c]
    # |cost| <= sum |c_k| * H; a clipped window has |t| < max(P, R)
    lim, dtype = _value_range(
        (sum(costs) * radius + 1) * K,
        max(n_pts, n_res) * (max(costs, default=0) * K + 1),
    )
    cells = n_pts * n_res * (n + 1)
    if cells * (1 if dtype is np.int64 else _OBJECT_CELL) > _DP_CELLS:
        raise CapExceeded(
            f"bounded DP needs {cells} cells ({n_pts} lattice points x "
            f"{n_res} residues x {n + 1} layers"
            f"{'' if dtype is np.int64 else ', Python ints'}), above the cap {_DP_CELLS}"
        )
    coords = np.zeros((1, 0), dtype=np.int64) if m == 0 else lattice.points(origin, radius)
    rows = _lattice_rows(coords)
    goal = np.array([target[0]], dtype=object)
    if rows(goal)[0] < 0:
        return None, None
    # the shifted points y - t * a_col, |t| < max(P, R), stay exact in int64
    # below 2^62
    y_max = int(abs(coords).max()) if coords.size else 0
    a_max = max((abs(v) for a_col, _ in steps for v in a_col), default=0)
    if y_max + max(n_pts, n_res) * a_max >= 1 << 62:
        coords = coords.astype(object)

    layers = np.full((n + 1, (n_pts + 1) * n_res), 2 * lim, dtype=dtype)
    layers[0, rows(np.zeros((1, m), dtype=np.int64))[0] * n_res] = 0  # the zero residue has code 0
    # Columns with equal steps share their shifts, which are dropped after
    # the step's last column.
    last = {step: k for k, step in enumerate(steps)}
    memos: dict = {}
    for k, step in enumerate(steps):
        a_col, g_col = step
        keep = last[step] > k
        memo = memos.setdefault(step, {}) if keep else memos.pop(step, {})
        a, g = np.array(a_col, dtype=coords.dtype), np.array(g_col, dtype=np.int64)

        def shift(j):
            s = memo.get(j)
            if s is None:
                s = _shift(coords, rows, grp, a, g, j)
                if keep:
                    memo[j] = s
            return s

        # no chain has more than P states, and a cycle repeats after its length
        reach = n_pts if any(a_col) else _cycle_length(grp, g_col)
        alpha, beta = windows[k]
        _layer_step(
            layers[k], shift, max(alpha, 1 - reach), min(beta, reach - 1),
            instance.c[k] * K, int(queue), lim, queue, layers[k + 1],
        )

    def lookup(k, points, codes):
        vals = layers[k, rows(points) * n_res + codes].tolist()
        return [None if v >= lim else (divmod(v, K) if queue else v) for v in vals]

    return lookup, lookup(n, goal, [grp.encode(target[1])])[0]


def _witness(instance, steps, windows, target, value, lookup):
    """Recentered solution y reaching target with DP value value.

    Walks the layers backwards: at column k it looks up the predecessors of
    the current state for every t in [alpha_k, beta_k] at once (a cycle's
    window clipped to its length, as in the DP) and takes the first t whose
    predecessor value, shifted by the arc's (c_k * t, |t|), equals the
    current value; the shift applies to (cost, l1) pairs and to plain costs
    alike.  Points are Python ints (dtype object), so no product t * a_col
    can overflow.
    """
    import numpy as np

    grp = instance.group
    point, code = np.array(target[0], dtype=object), grp.encode(target[1])
    y = [0] * instance.n
    for k in range(instance.n - 1, -1, -1):
        a_col, g_col = steps[k]
        alpha, beta = windows[k]
        if not any(a_col):
            beta = min(beta, _cycle_length(grp, g_col) - 1)
        t = np.arange(alpha, beta + 1).astype(object)[:, None]
        points = point - t * np.array(a_col, dtype=object)
        codes = grp.codes(grp.digits[code] - t.astype(np.int64) * np.array(g_col, dtype=np.int64))
        for i, pv in enumerate(lookup(k, points, codes)):
            cost = instance.c[k] * (alpha + i)
            if pv is not None and value == (
                (pv[0] + cost, pv[1] + abs(alpha + i)) if isinstance(pv, tuple) else pv + cost
            ):
                y[k], point, code, value = alpha + i, points[i], int(codes[i]), pv
                break
        else:
            raise CertificateError("witness reconstruction failed")
    return y


def solve_bilp_sf(
    instance: StandardInstance, chi: int | None = None, variant: str = "queue"
) -> SolveOutcome:
    """Exact optimum of a bounded generalized standard form instance.

    chi must dominate the true l1 proximity between optimal LP vertices
    and optimal integer solutions (default: the Delta-based closed-form
    bound); variant selects sparse-table window minima ("queue") or the
    0/1-compressed arcs ("binarized").  Raises
    CertificateError when the witness fails its feasibility re-check.
    """
    if variant not in ("queue", "binarized"):
        raise ValueError(f"unknown variant {variant!r}")
    if not all(is_finite(v) for v in instance.u):
        raise ValueError("bounded solver requires finite upper bounds")
    cols, delta = _base(instance)
    return _solve_bounded(instance, cols, delta, chi, variant)


def _solve_bounded(
    instance: StandardInstance, cols: tuple[int, ...], delta: int, chi: int | None, variant: str
) -> SolveOutcome:
    """:func:`solve_bilp_sf` on a checked instance whose max-det column
    base ``cols`` and Delta(A) = ``delta`` are already known."""
    if chi is None:
        chi = _default_chi(instance, delta)
    if chi <= 0:
        raise ValueError("proximity bound chi must be positive")
    steps = _steps(instance)
    pre = _recenter(instance, chi, steps)
    if pre is None:
        return SolveOutcome.infeasible(certificate={"stage": "lp"})
    shift, windows, radius, target = pre

    lookup, val = _layer_dp(instance, cols, steps, windows, target, radius, variant)
    if val is None:
        return SolveOutcome.infeasible(
            certificate={"variant": variant, "radius": radius}
        )
    y = _witness(instance, steps, windows, target, val, lookup)
    x = [yi + si for yi, si in zip(y, shift)]
    if not is_feasible(instance, x):
        raise CertificateError("DP produced an infeasible witness")
    value = objective_value(instance, x)
    return SolveOutcome.optimal(
        x,
        value,
        certificate={"variant": variant, "chi": chi, "radius": radius},
    )


def _as_group_instance(instance: StandardInstance) -> GroupInstance:
    return GroupInstance(
        group=instance.group,
        generators=instance.group_columns,
        target=instance.group_target,
        costs=instance.c,
        bounds=(POS_INF,) * instance.n,
    )


def detect_unbounded(
    instance: StandardInstance,
) -> tuple[bool, tuple[int, ...] | None]:
    """Decide unboundedness of an unbounded-variable instance.

    Solves min c'x over A x = 0, G x = 0 (mod S), ||x||_1 <= (m+1) *
    |det S| * Delta(A), x >= 0 (the recession-cone budget) by adding an
    l1-budget row with a slack variable and running the bounded solver.
    Returns (True, ray) when the optimum is negative, else (False, None).
    """
    if any(is_finite(v) for v in instance.u):
        raise ValueError("detection requires the unbounded variant")
    n, m = instance.n, instance.m
    budget = (m + 1) * abs(instance.det_s) * _base(instance)[1]
    rows = instance.A.to_lists() if instance.A is not None else []
    a_ext = IntMat.from_rows(
        [r + [0] for r in rows] + [[1] * n + [1]]
    )
    g_ext = (
        IntMat.from_rows([list(instance.G.row(i)) + [0] for i in range(n - m)])
        if instance.G is not None
        else None
    )
    ext = StandardInstance(
        n=n + 1,
        m=m + 1,
        A=a_ext,
        G=g_ext,
        S=instance.S,
        b=(0,) * m + (budget,),
        g=tuple(0 for _ in range(n - m)),
        u=(budget,) * (n + 1),
        c=instance.c + (0,),
    )
    out = solve_bilp_sf(ext, chi=(n + 1) * budget + 1, variant="queue")
    if out.status != "optimal":  # x = 0 with full slack is feasible
        raise CertificateError("the recession-cone budget problem has no optimum")
    if out.value >= 0:
        return False, None
    ray = out.x[:n]
    if instance.A is not None and any(v != 0 for v in instance.A.matvec(ray)):
        raise CertificateError("ray leaves the kernel of A")
    if instance.residue(ray) != instance.group.zero:
        raise CertificateError("ray has a nonzero group residue")
    if sum(ray) > budget:
        raise CertificateError("ray exceeds the recession-cone budget")
    return True, ray


def _doubling_rho(l1_bound: int) -> int:
    rho = 1
    while 6**rho < l1_bound * 5**rho:
        rho += 1
    return rho


def _doubling_window(centre: int, rho: int, reach: int) -> tuple[int, int]:
    """(first, last): the integers y with |y - centre / 2^rho| <= reach form
    the interval [ceil(centre / 2^rho) - reach, floor(centre / 2^rho) + reach]."""
    return -(-centre >> rho) - reach, (centre >> rho) + reach


def _unbounded_dp(instance, b_target, g_target, rho, base, radius):
    """Doubling DP for m = 1 over (window point, residue code) states;
    returns (value, witness) or (None, None).

    Level i's window holds the y with |y / a - 2^i * b / (2^rho * a)| <=
    radius (a the entry of the 1 x 1 base, b the target), i.e. the integers
    within radius * |a| of 2^i * b / 2^rho (:func:`_doubling_window`).  The
    witness walks the first split of each node down the levels
    (:func:`~deltailp.groupmin._split_walk`)."""
    import numpy as np

    n, grp = instance.n, instance.group
    r_count, digits = grp.order, grp.digits
    radd = grp.codes(digits[:, None] + digits[None]).tolist()
    rsub = grp.codes(digits[:, None] - digits[None]).tolist()
    reach, y_t = radius * abs(instance.A.entries[0][base[0]]), b_target[0]

    # A level-i value costs at most 2^i columns, so every finite entry, and
    # every sum of two level-(i-1) entries, is <= top < big.  With big = 2^60
    # big + big cannot overflow int64; otherwise the tables hold Python ints.
    top = max(instance.c) << rho
    big = 1 << max(60, top.bit_length())
    dtype = np.int64 if big == 1 << 60 else object
    lo: list[int] = []
    arrays: list = []
    for i in range(rho + 1):
        first, last = _doubling_window(y_t << i, rho, reach)
        lo.append(first)
        arrays.append(np.full((last - first + 1, r_count), big, dtype=dtype))

    a0 = arrays[0]
    if lo[0] <= 0 <= lo[0] + a0.shape[0] - 1:
        a0[-lo[0], 0] = 0  # the zero residue has code 0
    col_of: dict = {}
    for j, (a_col, g_col) in enumerate(_steps(instance)):
        y = a_col[0]
        if lo[0] <= y <= lo[0] + a0.shape[0] - 1:
            ri = grp.encode(g_col)
            if instance.c[j] < a0[y - lo[0], ri]:
                a0[y - lo[0], ri] = instance.c[j]
                col_of[(y, ri)] = j

    for i in range(1, rho + 1):
        prev, cur = arrays[i - 1], arrays[i]
        p_len, c_len = prev.shape[0], cur.shape[0]
        # sum index s maps to y = 2 * lo[i - 1] + s in the cur window
        s0 = max(0, lo[i] - 2 * lo[i - 1])
        s1 = min(2 * p_len - 1, lo[i] + c_len - 2 * lo[i - 1])
        if s0 >= s1:
            continue
        # min-plus over blocks of k rows i2: the skew view puts
        # prev[j + t, r2] + prev[i3, r3] at pad[t, t + i3], so column q of
        # pad holds the anti-diagonal i2 + i3 = j + q of the block; entries
        # off that band stay big.  The pad holds at most 2 * _PAD_CELLS
        # entries, or p_len + 1 when one row exceeds the budget.
        # Only columns q0:q1 map into the cur window, and they read band
        # entries with i3 in t0:t1 alone, so only those are written.  The
        # pairs (r2, r3) and (r3, r2) give the same minima, so r2 <= r3.
        k = max(1, min(p_len, _PAD_CELLS // p_len))
        pad = np.full((k, p_len + k), big, dtype=dtype)
        step = pad.strides[1]
        prev_t = np.ascontiguousarray(prev.T)
        for j in range(0, p_len, k):
            kk = min(k, p_len - j)
            q0, q1 = max(0, s0 - j), min(p_len + kk - 1, s1 - j)
            if q0 >= q1:
                continue
            t0, t1 = max(0, q0 - kk + 1), min(p_len, q1)
            skew = np.lib.stride_tricks.as_strided(
                pad, shape=(kk, p_len), strides=(pad.strides[0] + step, step)
            )[:, t0:t1]
            base = 2 * lo[i - 1] + j - lo[i]
            rows = slice(base + q0, base + q1)
            for r2 in range(r_count):
                left = prev_t[r2, j : j + kk, None]
                for r3 in range(r2, r_count):
                    np.add(left, prev_t[r3, t0:t1], out=skew)
                    col = cur[rows, radd[r2][r3]]
                    np.minimum(col, pad[:kk, q0:q1].min(axis=0), out=col)

    r_t = grp.encode(g_target)
    if not (lo[rho] <= y_t <= lo[rho] + arrays[rho].shape[0] - 1):
        return None, None
    top = int(arrays[rho][y_t - lo[rho], r_t])
    if top >= big:
        return None, None

    def split(i, node):
        # the first (y2, r2) in (y2, r2) scan order with
        # prev[y2, r2] + prev[y - y2, ri - r2] == the node's value; values
        # are >= 0 and below big, so a sum that hits the value never
        # involves an unreachable entry
        y, ri = node
        prev, p_lo = arrays[i - 1], lo[i - 1]
        v = int(arrays[i][y - lo[i], ri])
        off = y - 2 * p_lo  # index of y2 plus index of y - y2
        a = max(0, off - prev.shape[0] + 1)
        b = min(prev.shape[0] - 1, off)
        if a <= b:
            right = prev[off - b : off - a + 1][::-1][:, rsub[ri]]
            hits = (prev[a : b + 1] + right == v).ravel()
            first = int(hits.argmax())
            if hits[first]:
                i2, r2 = divmod(first, r_count)
                y2 = p_lo + a + i2
                return (y2, r2), (y - y2, rsub[ri][r2])
        raise CertificateError("doubling table admits no consistent split")

    x = [0] * n
    for (y, ri), mult in _split_walk((y_t, r_t), rho, split).items():
        if (y, ri) in col_of:
            x[col_of[(y, ri)]] += mult
        elif not (y == 0 and ri == 0 and a0[y - lo[0], ri] == 0):
            raise CertificateError("level-0 entry matches no column")
    return top, x


def solve_ilp_sf_unbounded(
    instance: StandardInstance, rho: int | None = None
) -> SolveOutcome:
    """Exact optimum of an unbounded generalized standard form instance.

    Requires all upper bounds +inf and nonnegative costs.  With c >= 0
    and x >= 0 the objective is bounded below by 0, so the instance is
    never unbounded and no recession-cone test is run.  m = 0 is Gomory's
    group problem.  m = 1 runs the doubling DP from the proximity-based
    recentering; rho overrides its depth.  Its windows have radius 4 * mu,
    mu = ceil(eta_m * Delta_1(U)) with eta_m = 12 * sqrt(m), for A = B (I U)
    and B the maximum-|det| column base.  At m = 1, B is the entry a_B of
    largest |a_j|, so Delta_1(U) = max_j |a_j / a_B| = 1 and mu =
    ceil(12 * sqrt(1) * 1) = 12: the radius is 48 on every instance.  Its
    tables are int64 when max(c) * 2^rho < 2^60 and exact Python ints
    otherwise.  m >= 2 runs
    :func:`solve_bilp_sf` on the proximity box u_k = max(0, ceil(x*_k)) +
    chi of the LP vertex x*, chi = (m+1)(n+1) * Delta * |det S|, with the
    smaller of its default proximity bound and sum(u) + 1; a CapExceeded
    from it propagates.  Raises CertificateError when the
    witness fails its feasibility or objective re-check.
    """
    if any(is_finite(v) for v in instance.u):
        raise ValueError("unbounded solver requires all upper bounds +inf")
    if any(ci < 0 for ci in instance.c):
        raise ValueError("unbounded solver requires nonnegative costs")
    n, m = instance.n, instance.m

    if m == 0:
        return gomory_solve(_as_group_instance(instance))

    lp = solve_lp(instance)
    if lp.status == "infeasible":
        return SolveOutcome.infeasible(certificate={"stage": "lp"})
    if lp.status != "optimal":
        raise CertificateError("LP relaxation with c >= 0 reported unbounded")

    cols, delta = _base(instance)
    chi = (m + 1) * (n + 1) * delta * abs(instance.det_s)
    if m >= 2:
        box = replace(
            instance, u=tuple(max(0, math.ceil(v)) + chi for v in lp.vertex)
        )
        # no two box points are further apart than sum(u) in l1; the box
        # keeps A, so it keeps its base
        chi_box = min(_default_chi(box, delta), sum(box.u) + 1)
        out = _solve_bounded(box, cols, delta, chi_box, "queue")
        if out.status != "optimal":
            return out
        x, value, cert = list(out.x), out.value, {"box": chi, **out.certificate}
    else:
        shift = [max(0, math.ceil(v) - chi) for v in lp.vertex]
        nonzero = sum(1 for v in lp.vertex if v != 0)
        l1_bound = chi * (1 + nonzero) + nonzero + 1
        if rho is None:
            rho = _doubling_rho(max(l1_bound, 2))
        b_target, g_target = _target(instance, shift)
        cert = {"rho": rho, "mu": _MU}
        value, xprime = _unbounded_dp(instance, b_target, g_target, rho, cols, 4 * _MU)
        if value is None:
            return SolveOutcome.infeasible(certificate=cert)
        x = [a + b for a, b in zip(xprime, shift)]
        value += sum(ci * si for ci, si in zip(instance.c, shift))
    if not is_feasible(instance, x):
        raise CertificateError("DP produced an infeasible witness")
    total = objective_value(instance, x)
    if total != value:
        raise CertificateError("witness cost differs from the DP value")
    return SolveOutcome.optimal(x, total, certificate=cert)
