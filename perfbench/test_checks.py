"""Tests of the benchmark's own answer checks.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py

For every case kind, the check must accept the answer ``delta-ilp solve``
prints and reject a perturbed witness, a wrong value and a false verdict.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import families  # noqa: E402
from families import Case  # noqa: E402


def _solve(case: Case, tmp_path) -> tuple[int, str]:
    import deltailp.cli as cli

    path = tmp_path / "inst.json"
    path.write_text(json.dumps(case.data))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["solve", str(path), *case.flags])
    return code, buf.getvalue()


def _pool() -> list[Case]:
    cases = families.desk_mix(0, 200)
    cases += families.unbounded_round(0)
    cases += families.embed_knapsacks(
        families.knapsacks(0, "test", count=3, n=8, wmax=10, umax=3), ()
    )
    return cases


POOL = _pool()
KINDS = sorted({c.kind for c in POOL})


def _first(kind: str, status: str) -> tuple[Case, tuple]:
    """First case of ``kind`` whose reference has ``status`` and, when
    optimal, a cost on the first variable, so a changed witness changes the
    objective."""
    for case in POOL:
        if case.kind != kind:
            continue
        ref = checks.reference(case)
        if ref[0] != status:
            continue
        if status == "optimal" and kind != "subset-sum":
            costs = case.data["costs"] if kind == "group" else case.data["c"]
            if costs[0] == 0:
                continue
        return case, ref
    pytest.skip(f"no {status} {kind} case in the pool")


def _infeasible_point(case: Case, x: list[int]) -> list[int]:
    """x with its first entry moved out of the feasible region: below 0
    where x >= 0 is required, else far along a row of A."""
    if case.kind not in ("cf", "local"):
        return [-1] + x[1:]
    step = 1000 if any(row[0] > 0 for row in case.data["A"]) else -1000
    return [x[0] + step] + x[1:]


def _replace(text: str, key: str, value: str) -> str:
    return "".join(
        f"{key}: {value}\n" if line.startswith(f"{key}: ") else line + "\n"
        for line in text.splitlines()
    )


@pytest.mark.parametrize("kind", KINDS)
def test_check_accepts_solver_answer_and_rejects_mutations(kind, tmp_path):
    case, ref = _first(kind, "optimal")
    code, text = _solve(case, tmp_path)
    assert checks.check(case, ref, code, text) is None

    out = checks.parse_output(text)
    x = [int(t) for t in out["x"].split()]
    moved = [x[0] + 1] + x[1:]
    perturbed = _replace(text, "x", " ".join(map(str, moved)))
    assert checks.check(case, ref, code, perturbed) is not None

    # an infeasible witness whose printed value matches its objective
    bad = _infeasible_point(case, x)
    claim = _replace(_replace(text, "x", " ".join(map(str, bad))), "value", str(checks.objective(case, bad)))
    assert checks.check(case, ref, code, claim) == "witness is infeasible"

    wrong = _replace(text, "value", str(int(out["value"]) + 1))
    assert checks.check(case, ref, code, wrong) is not None

    assert checks.check(case, ref, 2, "status: infeasible\n") is not None


@pytest.mark.parametrize("kind", ["sf", "group", "subset-sum"])
def test_check_rejects_false_optimum(kind, tmp_path):
    case, ref = _first(kind, "infeasible")
    code, text = _solve(case, tmp_path)
    assert checks.check(case, ref, code, text) is None
    n = len(case.data["costs"] if kind == "group" else case.data["c"])
    claim = f"status: optimal\nx: {' '.join(['0'] * n)}\nvalue: 0\n"
    assert checks.check(case, ref, 0, claim) is not None


def test_local_reference_on_a_hand_instance():
    # max x1 + x2 s.t. 2 x1 <= 3, 2 x2 <= 5: the optimum is 1 + 2 = 3
    case = Case("local", {"form": "ilp-cf", "A": [[2, 0], [0, 2]],
                          "b_l": ["-inf", "-inf"], "b_r": [3, 5], "c": [1, 1]})
    assert checks.reference(case) == ("optimal", 3)


def test_classic_reference_on_a_hand_instance():
    # min 3 x1 + x2 s.t. 2 x1 + 3 x2 = 7, 0 <= x <= 2: only (2, 1) works
    k = {"w": [2, 3], "b": 7, "c": [3, 1], "u": [2, 2]}
    assert checks._ref_classic(k) == ("optimal", 7)
    assert checks._ref_classic(dict(k, b=1)) == ("infeasible", None)
