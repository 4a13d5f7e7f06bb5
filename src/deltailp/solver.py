"""One entry point for every solver: :func:`solve`.

Canonical and generalized standard forms are equivalent, so which algorithm
runs is one decision over the instance's form and parameters.
:data:`ALGORITHMS` holds, per algorithm, the forms it accepts and the code
that runs it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .dpsolve import solve_bilp_sf, solve_ilp_sf_unbounded
from .groupmin import cyclic_minplus_solve, gomory_solve
from .lp import solve_lp
from .model import (
    CanonicalInstance, CertificateError, GroupInstance, SolveOutcome, StandardInstance, is_finite
)
from .oracle import brute_force_group, brute_force_ilp
from .reductions import IntegralInfeasible, cf_to_sf
from .specials import knapsack_unbounded, locality_test, solve_local, subset_sum_unbounded


def form_of(instance) -> str:
    if isinstance(instance, CanonicalInstance):
        return "cf"
    return "sf" if isinstance(instance, StandardInstance) else "group"


def pick_algo(instance) -> str:
    """The algorithm that ``algo="auto"`` runs on ``instance``."""
    form = form_of(instance)
    if form == "group":
        return "cyclic" if len(instance.group.moduli) == 1 else "gomory"
    if form == "sf":
        return "bounded-dp" if instance.bounded else "unbounded-dp"
    return "bounded-dp" if all(is_finite(v) for v in instance.b_l) else "local"


def enclosing_box(instance: CanonicalInstance) -> list[tuple[int, int]]:
    """Exact per-coordinate LP bounds of the canonical polyhedron."""
    box = []
    for k in range(instance.n):
        ends = []
        for sign in (1, -1):
            c = tuple(sign if i == k else 0 for i in range(instance.n))
            lp = solve_lp(CanonicalInstance(A=instance.A, b_l=instance.b_l, b_r=instance.b_r, c=c))
            if lp.status == "infeasible":
                raise IntegralInfeasible("LP relaxation is empty")
            if lp.status != "optimal":
                raise ValueError("polyhedron is unbounded; the oracle cannot enclose it")
            ends.append(lp.vertex[k])
        box.append((math.floor(min(ends)), math.ceil(max(ends))))
    return box


def _oracle(inst, _variant: str) -> SolveOutcome:
    if isinstance(inst, GroupInstance):
        return brute_force_group(inst, inst.group.order - 1)
    if isinstance(inst, CanonicalInstance):
        return brute_force_ilp(inst, enclosing_box(inst))
    if not inst.bounded:
        raise ValueError("the oracle needs finite upper bounds")
    return brute_force_ilp(inst, [(0, u) for u in inst.u])


def _bounded_dp(inst, variant: str) -> SolveOutcome:
    if isinstance(inst, StandardInstance):
        return solve_bilp_sf(inst, variant=variant)
    if any(not is_finite(v) for v in inst.b_l):
        raise ValueError("bounded-dp on canonical input needs finite b_l")
    dst, rmap = cf_to_sf(inst)
    out = solve_bilp_sf(dst, variant=variant)
    if out.status != "optimal":
        return out
    x = rmap.backward(out.x)
    value = (Fraction(out.value) - rmap.objective_offset) / rmap.objective_scale
    if value.denominator != 1:
        raise CertificateError("the reduction maps the optimum to a non-integral value")
    cert = dict(out.certificate or {}, reduction="cf2sf")
    return SolveOutcome(status="optimal", x=x, value=int(value), certificate=cert)


def _solve_cf_local(inst: CanonicalInstance, require_local: bool) -> SolveOutcome:
    base = tuple(range(inst.n))
    if inst.A.rows != inst.n:
        lp = solve_lp(inst)
        if lp.status != "optimal":
            return SolveOutcome(status=lp.status, certificate={"stage": "lp"})
        base = lp.base
    out = solve_local(inst, base)
    if require_local:
        # an unbounded corner carries no verdict, so the test runs on its own
        local = out.certificate["local"] if out.status == "optimal" else locality_test(inst, base)
        if not local:
            raise ValueError(
                "locality condition fails at the optimal LP base; "
                "the local path cannot certify a global optimum"
            )
    return out


_ONE_ROW = "knapsack/subset-sum solvers expect a standard-form instance with a single equality row"


def _knapsack_data(inst: StandardInstance) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    if inst.A is None or inst.A.rows != 1:
        raise ValueError(_ONE_ROW)
    if inst.S is not None and inst.det_s != 1:
        raise ValueError("knapsack/subset-sum solvers require a trivial group part")
    if any(is_finite(v) for v in inst.u):
        raise ValueError("knapsack/subset-sum solvers are for unbounded variables")
    return tuple(inst.A.entries[0]), tuple(inst.c), inst.b[0]


def _subset_sum(inst, _variant: str) -> SolveOutcome:
    w, _c, cap = _knapsack_data(inst)
    return subset_sum_unbounded(w, cap)


# algo -> (forms it accepts, runner(instance, variant), refusal for any other
# form, None for the generic one), in the order of the CLI's --algo choices.
# The runners look each solver up when they run, so a solver patched on this
# module is the one that runs.
ALGORITHMS = {
    "bounded-dp": (("sf", "cf"), _bounded_dp, None),
    "unbounded-dp": (("sf",), lambda inst, _v: solve_ilp_sf_unbounded(inst), None),
    "gomory": (("group",), lambda inst, _v: gomory_solve(inst), None),
    "cyclic": (("group",), lambda inst, _v: cyclic_minplus_solve(inst), None),
    "local": (
        ("cf",),
        lambda inst, _v: _solve_cf_local(inst, require_local=inst.A.rows > inst.n),
        "the local path applies to canonical instances",
    ),
    "knapsack": (("sf",), lambda inst, _v: knapsack_unbounded(*_knapsack_data(inst)), _ONE_ROW),
    "subset-sum": (("sf",), _subset_sum, _ONE_ROW),
    "oracle": (("group", "sf", "cf"), _oracle, None),
}


def solve(instance, algo: str = "auto", variant: str = "queue") -> SolveOutcome:
    """Exact solve of a canonical, standard-form or group instance by
    ``algo`` (an ``--algo`` value) with the bounded DP's ``variant`` sweep.
    Raises ValueError when the algorithm does not apply to the form."""
    if algo == "auto":
        algo = pick_algo(instance)
    if algo not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algo}")
    forms, runner, refusal = ALGORITHMS[algo]
    form = form_of(instance)
    if form not in forms:
        raise ValueError(refusal or f"algorithm {algo} does not apply to {form} instances")
    return runner(instance, variant)
