"""Per-module spans for the traced benchmark run.

The traced run wraps each public function in ``SPANS`` wherever a
``deltailp`` module has bound it: the defining module and every module that
imported the name.  Calls through any of those bindings are counted, and
each span's self time is its duration minus that of the spans nested in
it.  Nothing under ``src/`` changes; :meth:`Tracer.remove` puts the original
functions back.
"""

from __future__ import annotations

import functools
import sys
import time

SPANS = (
    ("cli", "main"),
    ("io", "load_instance"),
    ("reductions", "cf_to_sf"),
    ("lp", "solve_lp"),
    ("intlinalg", "minor_stats"),
    ("intlinalg", "max_det_submatrix"),
    ("intlinalg", "snf"),
    ("intlinalg", "enumerate_parallelepiped"),
    ("bounds", "chi_bound"),
    ("dpsolve", "solve_bilp_sf"),
    ("dpsolve", "detect_unbounded"),
    ("dpsolve", "solve_ilp_sf_unbounded"),
    ("groupmin", "gomory_solve"),
    ("groupmin", "cyclic_minplus_solve"),
    ("specials", "knapsack_unbounded"),
    ("specials", "subset_sum_unbounded"),
    ("specials", "solve_local"),
    ("model", "is_feasible"),
)

# counters read off a span's return value
POINTS = "intlinalg.enumerate_parallelepiped"
RAYS = "dpsolve.detect_unbounded"
# spans whose inclusive time is reported too: the detector's work happens in
# the bounded DP and lattice enumeration it calls
INCLUSIVE = ("dpsolve.detect_unbounded",)


class Tracer:
    def __init__(self) -> None:
        self.calls = {f"{m}.{f}": 0 for m, f in SPANS}
        self.self_ns = dict.fromkeys(self.calls, 0)
        self.total_ns = dict.fromkeys(self.calls, 0)
        self.points = 0
        self.rays = 0
        self._stack: list[int] = []  # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == "deltailp" or name.startswith("deltailp."))
        ]
        for mod_name, func_name in SPANS:
            home = sys.modules.get(f"deltailp.{mod_name}")
            orig = getattr(home, func_name, None)
            if orig is None:
                continue  # the function no longer exists; it reports 0 calls
            wrapper = self._wrap(f"{mod_name}.{func_name}", orig)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))

    def remove(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def _wrap(self, key: str, orig):
        stack = self._stack

        @functools.wraps(orig)
        def span(*args, **kwargs):
            stack.append(0)
            t0 = time.perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                child = stack.pop()
                self.calls[key] += 1
                self.self_ns[key] += dt - child
                self.total_ns[key] += dt
                if stack:
                    stack[-1] += dt
            if key == POINTS:
                self.points += len(result)
            elif key == RAYS and result[0]:
                self.rays += 1
            return result

        return span

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-round call counts, self seconds, inclusive seconds of the
        ``INCLUSIVE`` spans and counters."""
        out = {}
        for key in self.calls:
            out[f"{key}.calls"] = (self.calls[key] / rounds, "count")
            out[f"{key}.self_s"] = (self.self_ns[key] / 1e9 / rounds, "s")
        for key in INCLUSIVE:
            out[f"{key}.total_s"] = (self.total_ns[key] / 1e9 / rounds, "s")
        out[f"{POINTS}.points"] = (self.points / rounds, "count")
        out[f"{RAYS}.rays"] = (self.rays / rounds, "count")
        return out
