"""Command-line interface.

Subcommands: solve, reduce, normalize, bounds, gen, verify, bench.  Output
is line-oriented ``key: value`` text with a stable key order, so identical
(file, flags, seed) inputs produce byte-identical stdout; wall-clock timing
goes to stderr.  Exit codes: 0 solved/verified, 2 infeasible, 3 unbounded,
4 input error, 5 enumeration cap refused or recursion limit reached.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from fractions import Fraction

from . import bounds as bounds_mod
from .dpsolve import solve_bilp_sf, solve_ilp_sf_unbounded
from .groupmin import cyclic_minplus_solve, gomory_solve, vertex_certificate
from .intlinalg import IntMat, det, minor_stats, rank
from .io import FormatError, load_instance, serialize_instance
from .lp import solve_lp
from .model import (
    NEG_INF,
    POS_INF,
    CanonicalInstance,
    GroupInstance,
    GroupSpec,
    SolveOutcome,
    StandardInstance,
    is_finite,
    normalize,
    validate,
)
from .oracle import (
    CapExceeded,
    brute_force_group,
    brute_force_ilp,
    group_hull_vertices,
    hull_vertices,
)
from .reductions import (
    IntegralInfeasible,
    cf_to_sf,
    classic_to_generalized,
    sf_to_cf,
)
from .rng import stream
from .specials import knapsack_unbounded, locality_test, solve_local, subset_sum_unbounded

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INFEASIBLE = 2
EXIT_UNBOUNDED = 3
EXIT_INPUT = 4
EXIT_CAP = 5

_STATUS_EXIT = {"optimal": EXIT_OK, "infeasible": EXIT_INFEASIBLE, "unbounded": EXIT_UNBOUNDED}


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (tuple, list)):
        return " ".join(_fmt(x) for x in v)
    if isinstance(v, Fraction):
        return str(v.numerator) if v.denominator == 1 else str(v)
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def _emit(key: str, value) -> None:
    print(f"{key}: {_fmt(value)}")


def _emit_outcome(out: SolveOutcome) -> int:
    _emit("status", out.status)
    if out.x is not None:
        _emit("x", out.x)
    if out.value is not None:
        _emit("value", out.value)
    if isinstance(out.certificate, dict):
        for k in sorted(out.certificate):
            v = out.certificate[k]
            if isinstance(v, (int, str, bool, Fraction, float)) or (
                isinstance(v, (tuple, list))
                and all(isinstance(e, (int, Fraction)) for e in v)
            ):
                _emit(f"cert.{k}", v)
    return _STATUS_EXIT[out.status]


def _form_of(inst) -> str:
    if isinstance(inst, CanonicalInstance):
        return "cf"
    if isinstance(inst, StandardInstance):
        return "sf"
    return "group"


def _enclosing_box(inst: CanonicalInstance) -> list[tuple[int, int]]:
    """Exact per-coordinate LP bounds of the canonical polyhedron."""
    import math

    box = []
    for k in range(inst.n):
        ends = []
        for sign in (1, -1):
            c = tuple(sign if i == k else 0 for i in range(inst.n))
            lp = solve_lp(
                CanonicalInstance(A=inst.A, b_l=inst.b_l, b_r=inst.b_r, c=c)
            )
            if lp.status == "infeasible":
                raise IntegralInfeasible("LP relaxation is empty")
            if lp.status != "optimal":
                raise ValueError(
                    "polyhedron is unbounded; the oracle cannot enclose it"
                )
            ends.append(lp.vertex[k])
        box.append((math.floor(min(ends)), math.ceil(max(ends))))
    return box


def _solve_cf_via_reduction(inst: CanonicalInstance, variant: str) -> SolveOutcome:
    dst, rmap = cf_to_sf(inst)
    out = solve_bilp_sf(dst, variant=variant)
    if out.status != "optimal":
        return out
    x = rmap.backward(out.x)
    value = (Fraction(out.value) - rmap.objective_offset) / rmap.objective_scale
    assert value.denominator == 1
    cert = dict(out.certificate or {})
    cert["reduction"] = "cf2sf"
    return SolveOutcome(status="optimal", x=x, value=int(value), certificate=cert)


def _solve_cf_local(inst: CanonicalInstance, require_local: bool) -> SolveOutcome:
    n, rows = inst.n, inst.A.rows
    if rows == n:
        base = tuple(range(n))
    else:
        lp = solve_lp(inst)
        if lp.status == "infeasible":
            return SolveOutcome(status="infeasible", certificate={"stage": "lp"})
        if lp.status == "unbounded":
            return SolveOutcome(status="unbounded", certificate={"stage": "lp"})
        base = lp.base
    if require_local and not locality_test(inst, base):
        raise ValueError(
            "locality condition fails at the optimal LP base; "
            "the local path cannot certify a global optimum"
        )
    return solve_local(inst, base)


def _knapsack_data(inst) -> tuple[tuple[int, ...], tuple[int, ...], int]:
    if not isinstance(inst, StandardInstance) or inst.A is None or inst.A.rows != 1:
        raise ValueError(
            "knapsack/subset-sum solvers expect a standard-form instance "
            "with a single equality row"
        )
    if inst.S is not None and inst.det_s != 1:
        raise ValueError("knapsack/subset-sum solvers require a trivial group part")
    if any(is_finite(v) for v in inst.u):
        raise ValueError("knapsack/subset-sum solvers are for unbounded variables")
    w = tuple(inst.A.entries[0])
    return w, tuple(inst.c), inst.b[0]


def cmd_solve(args) -> int:
    inst = load_instance(args.file)
    form = _form_of(inst)
    if args.form != "auto" and args.form != form:
        raise ValueError(f"instance has form {form}, not {args.form}")
    algo = args.algo
    if algo == "auto":
        if form == "group":
            algo = "cyclic" if len(inst.group.moduli) == 1 else "gomory"
        elif form == "sf":
            algo = "bounded-dp" if inst.bounded else "unbounded-dp"
        else:
            if all(is_finite(v) for v in inst.b_l):
                algo = "bounded-dp"
            else:
                algo = "local"
    _emit("form", form)
    _emit("algo", algo)

    if algo == "oracle":
        if form == "group":
            out = brute_force_group(inst, inst.group.order - 1)
        elif form == "sf":
            if not inst.bounded:
                raise ValueError("the oracle needs finite upper bounds")
            out = brute_force_ilp(inst, [(0, u) for u in inst.u])
        else:
            out = brute_force_ilp(inst, _enclosing_box(inst))
    elif algo == "gomory":
        out = gomory_solve(inst)
    elif algo == "cyclic":
        out = cyclic_minplus_solve(inst)
    elif algo == "bounded-dp":
        if form == "cf":
            if any(not is_finite(v) for v in inst.b_l):
                raise ValueError("bounded-dp on canonical input needs finite b_l")
            out = _solve_cf_via_reduction(inst, args.variant)
        else:
            out = solve_bilp_sf(inst, variant=args.variant)
    elif algo == "unbounded-dp":
        out = solve_ilp_sf_unbounded(inst)
    elif algo == "local":
        if form != "cf":
            raise ValueError("the local path applies to canonical instances")
        out = _solve_cf_local(inst, require_local=inst.A.rows > inst.n)
    elif algo == "knapsack":
        w, c, cap = _knapsack_data(inst)
        out = knapsack_unbounded(w, c, cap)
    elif algo == "subset-sum":
        w, _c, cap = _knapsack_data(inst)
        out = subset_sum_unbounded(w, cap)
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown algorithm {algo}")
    return _emit_outcome(out)


def cmd_reduce(args) -> int:
    inst = load_instance(args.file)
    if args.direction == "cf2sf":
        if not isinstance(inst, CanonicalInstance):
            raise ValueError("cf2sf needs a canonical instance")
        dst, _rmap = cf_to_sf(inst)
        print(serialize_instance(dst))
        return EXIT_OK
    if args.direction == "sf2cf":
        if not isinstance(inst, StandardInstance):
            raise ValueError("sf2cf needs a standard-form instance")
        dst, rmap = sf_to_cf(inst)
        if dst is None:
            return _emit_outcome(rmap.metadata["direct"])
        print(serialize_instance(dst))
        return EXIT_OK
    # classic: reinterpret the standard-form fields as A x = b, 0 <= x <= u
    if not isinstance(inst, StandardInstance) or inst.A is None:
        raise ValueError("classic reduction needs equality rows")
    dst, _rmap = classic_to_generalized(inst.A, inst.b, inst.c, inst.u)
    print(serialize_instance(dst))
    return EXIT_OK


def cmd_normalize(args) -> int:
    inst = load_instance(args.file)
    if not isinstance(inst, CanonicalInstance):
        raise ValueError("normalize applies to canonical instances")
    lp = solve_lp(inst)
    if lp.status == "optimal":
        base = lp.base
    else:
        base = []
        for i in range(inst.A.rows):
            if rank(inst.A.take_rows(base + [i])) == len(base) + 1:
                base.append(i)
            if len(base) == inst.n:
                break
        if len(base) < inst.n:
            raise ValueError("no nonsingular base found")
    normalized, _record = normalize(inst, tuple(base))
    print(serialize_instance(normalized))
    return EXIT_OK


def cmd_bounds(args) -> int:
    inst = load_instance(args.file)
    form = _form_of(inst)
    _emit("form", form)
    if form == "group":
        _emit("group.order", inst.group.order)
        _emit("witness.l1", inst.group.order - 1)
        return EXIT_OK
    if form == "cf":
        stats = minor_stats(inst.A)
        n, m = inst.n, inst.A.rows - inst.n
        _emit("n", n)
        _emit("m", m)
        _emit("delta", stats.delta)
        _emit("delta_gcd", stats.delta_gcd)
        if m >= 1:
            _emit("sparsity", float(bounds_mod.sparsity_bound(m, stats.delta)))
            _emit(
                "proximity.l1",
                bounds_mod.proximity_bound_bounded(m, stats.delta, 1),
            )
        s = min(n + m, max(1, m + stats.delta.bit_length()))
        _emit(
            "vertex_count",
            float(bounds_mod.vertex_count_bound(n, m, s, stats.delta, form="cf")),
        )
        return EXIT_OK
    n, m = inst.n, inst.m
    delta = minor_stats(inst.A).delta if inst.A is not None else 1
    _emit("n", n)
    _emit("m", m)
    _emit("delta", delta)
    _emit("det_s", inst.det_s)
    _emit("chi", bounds_mod.chi_bound(max(m, 1), "delta", delta=delta, det_s=inst.det_s))
    if m >= 1:
        _emit(
            "proximity.l1",
            bounds_mod.proximity_bound_bounded(m, delta, inst.det_s),
        )
    return EXIT_OK


def cmd_verify(args) -> int:
    inst = load_instance(args.file)
    form = _form_of(inst)
    checks: list[tuple[str, bool, str]] = []
    if form == "group":
        if args.suite in ("hull", "all"):
            for v in group_hull_vertices(inst):
                ok, prod = vertex_certificate(v, inst.group.order)
                checks.append(
                    ("hull-vertex-product", ok, f"{prod} <= {inst.group.order}")
                )
    elif form == "cf":
        box = _enclosing_box(inst)
        verts = hull_vertices(inst, box)
        if args.suite in ("sparsity", "proximity", "all"):
            report = bounds_mod.verify_instance_bounds(inst, verts)
            want = {
                "sparsity": ("sparsity-lattice", "sparsity-closed-form"),
                "proximity": ("proximity-image-l1",),
                "all": None,
            }[args.suite]
            for e in report.entries:
                if want is None or e.name in want:
                    checks.append((e.name, e.passed, f"{e.lhs} vs {e.rhs}"))
        if args.suite in ("hull", "all"):
            stats = minor_stats(inst.A)
            m = inst.A.rows - inst.n
            s = min(inst.n + m, max(1, m + stats.delta.bit_length()))
            bound = bounds_mod.vertex_count_bound(
                inst.n, m, s, stats.delta, form="cf"
            )
            checks.append(
                (
                    "hull-vertex-count",
                    len(verts) <= float(bound),
                    f"{len(verts)} <= {float(bound):.1f}",
                )
            )
    else:
        raise ValueError("verify supports canonical and group instances")
    for name, ok, detail in checks:
        _emit(name, f"{'pass' if ok else 'FAIL'} ({detail})")
    _emit("checks", len(checks))
    failed = sum(1 for _n, ok, _d in checks if not ok)
    _emit("failed", failed)
    return EXIT_OK if failed == 0 else EXIT_FAIL


def _gen_cf(rnd, n, m, delta_max):
    while True:
        a = IntMat.from_rows(
            [[rnd.randint(-3, 3) for _ in range(n)] for _ in range(n + m)]
        )
        if rank(a) != n:
            continue
        if minor_stats(a).delta > delta_max:
            continue
        x0 = [rnd.randint(-2, 2) for _ in range(n)]
        ax0 = a.matvec(x0)
        b_l = tuple(v - rnd.randint(0, 4) for v in ax0)
        b_r = tuple(v + rnd.randint(0, 4) for v in ax0)
        c = tuple(rnd.randint(-3, 3) for _ in range(n))
        return CanonicalInstance(A=a, b_l=b_l, b_r=b_r, c=c)


def _gen_sf(rnd, n, m, delta_max):
    while True:
        a = IntMat.from_rows(
            [[rnd.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        )
        if rank(a) != m or minor_stats(a).delta > delta_max:
            continue
        x0 = [rnd.randint(0, 2) for _ in range(n)]
        b = tuple(a.matvec(x0))
        u = tuple(x + rnd.randint(1, 3) for x in x0)
        c = tuple(rnd.randint(0, 4) for _ in range(n))
        try:
            dst, _ = classic_to_generalized(a, b, c, u)
        except IntegralInfeasible:
            continue
        return dst


def _gen_group(rnd, n, delta_max):
    order = rnd.randint(2, max(2, delta_max))
    return GroupInstance(
        group=GroupSpec((order,)),
        generators=tuple((rnd.randrange(order),) for _ in range(n)),
        target=(rnd.randrange(order),),
        costs=tuple(rnd.randint(0, 6) for _ in range(n)),
        bounds=(POS_INF,) * n,
    )


def cmd_gen(args) -> int:
    rnd = stream(args.seed, f"gen:{args.kind}:{args.n}:{args.m}:{args.delta_max}")
    if args.kind == "cf":
        inst = _gen_cf(rnd, args.n, args.m, args.delta_max)
    elif args.kind == "sf":
        inst = _gen_sf(rnd, args.n, max(1, args.m), args.delta_max)
    else:
        inst = _gen_group(rnd, args.n, args.delta_max)
    issues = validate(inst)
    assert not issues, issues
    print(serialize_instance(inst))
    return EXIT_OK


def bench_knapsack_delta(
    n: int = 50, deltas: tuple[int, int] = (50, 100), repeats: int = 20, seed: int = 0
) -> dict:
    """Median bounded-DP runtime on equality knapsacks as the weight bound
    doubles; returns per-delta medians and their ratio."""
    medians = {}
    for delta in deltas:
        times = []
        for rep in range(repeats):
            rnd = stream(seed, f"bench:knapsack:{delta}:{rep}")
            w = [rnd.randint(1, delta) for _ in range(n)]
            w[rnd.randrange(n)] = delta
            # 0/1 items keep the 20-seed spec-scale run in minutes while
            # leaving the runtime-vs-delta trend intact
            u = (1,) * n
            x0 = [rnd.randint(0, ui) for ui in u]
            b = (sum(wi * xi for wi, xi in zip(w, x0)),)
            c = tuple(rnd.randint(0, 9) for _ in range(n))
            inst, _ = classic_to_generalized(IntMat.from_rows([w]), b, c, u)
            t0 = time.perf_counter()
            # sum(u) + 1 always dominates the l1 distance between the
            # recentered optimum and any box point, so it is a valid chi.
            out = solve_bilp_sf(inst, chi=sum(u) + 1, variant="queue")
            times.append(time.perf_counter() - t0)
            assert out.status == "optimal"
        medians[delta] = statistics.median(times)
    lo, hi = deltas
    return {
        "n": n,
        "deltas": deltas,
        "repeats": repeats,
        "median_seconds": medians,
        "ratio": medians[hi] / medians[lo] if medians[lo] > 0 else float("inf"),
    }


def cmd_bench(args) -> int:
    if args.suite != "knapsack-delta":
        raise ValueError("unknown bench suite")
    res = bench_knapsack_delta(n=args.n, repeats=args.repeats, seed=args.seed)
    _emit("suite", args.suite)
    _emit("n", res["n"])
    _emit("repeats", res["repeats"])
    for d, t in sorted(res["median_seconds"].items()):
        _emit(f"median_seconds.delta_{d}", f"{t:.4f}")
    _emit("ratio", f"{res['ratio']:.3f}")
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="delta-ilp", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("solve", help="solve an instance file")
    s.add_argument("file")
    s.add_argument("--form", choices=["auto", "cf", "sf", "group"], default="auto")
    s.add_argument(
        "--algo",
        choices=[
            "auto",
            "bounded-dp",
            "unbounded-dp",
            "gomory",
            "cyclic",
            "local",
            "knapsack",
            "subset-sum",
            "oracle",
        ],
        default="auto",
    )
    s.add_argument("--variant", choices=["queue", "binarized"], default="queue")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_solve)

    r = sub.add_parser("reduce", help="convert between problem forms")
    r.add_argument("file")
    r.add_argument(
        "--direction", choices=["cf2sf", "sf2cf", "classic"], required=True
    )
    r.set_defaults(func=cmd_reduce)

    nm = sub.add_parser("normalize", help="normalize a canonical system")
    nm.add_argument("file")
    nm.set_defaults(func=cmd_normalize)

    b = sub.add_parser("bounds", help="closed-form bound report")
    b.add_argument("file")
    b.set_defaults(func=cmd_bounds)

    g = sub.add_parser("gen", help="generate a random valid instance")
    g.add_argument("--kind", choices=["cf", "sf", "group"], default="cf")
    g.add_argument("--n", type=int, default=3)
    g.add_argument("--m", type=int, default=1)
    g.add_argument("--delta-max", dest="delta_max", type=int, default=6)
    g.add_argument("--seed", type=int, default=0)
    g.set_defaults(func=cmd_gen)

    v = sub.add_parser("verify", help="oracle-backed inequality suites")
    v.add_argument("file")
    v.add_argument(
        "--suite",
        choices=["sparsity", "proximity", "hull", "all"],
        default="all",
    )
    v.set_defaults(func=cmd_verify)

    bn = sub.add_parser("bench", help="runtime scaling checks")
    bn.add_argument("--suite", default="knapsack-delta")
    bn.add_argument("--n", type=int, default=50)
    bn.add_argument("--repeats", type=int, default=20)
    bn.add_argument("--seed", type=int, default=0)
    bn.set_defaults(func=cmd_bench)
    return p


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except IntegralInfeasible as exc:
        _emit("status", "infeasible")
        _emit("error.detail", exc)
        code = EXIT_INFEASIBLE
    except CapExceeded as exc:
        _emit("error", "cap-exceeded")
        _emit("error.detail", exc)
        code = EXIT_CAP
    except RecursionError as exc:
        _emit("error", "recursion-limit")
        _emit("error.detail", exc)
        code = EXIT_CAP
    except (FormatError, FileNotFoundError, IsADirectoryError, ValueError) as exc:
        _emit("error", "input")
        _emit("error.detail", exc)
        code = EXIT_INPUT
    print(f"time_ms: {1000 * (time.perf_counter() - t0):.1f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
