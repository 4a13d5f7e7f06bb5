import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import deltailp
import deltailp.cli as cli_mod
from deltailp import solver
from deltailp.cli import (
    EXIT_CAP,
    EXIT_FAIL,
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    bench_knapsack_delta,
    main,
)
from deltailp.intlinalg import IntMat, minor_stats
from deltailp.io import load_instance, parse_instance, serialize_instance
from deltailp.lp import solve_lp
from deltailp.model import (
    NEG_INF,
    POS_INF,
    CanonicalInstance,
    CertificateError,
    GroupInstance,
    GroupSpec,
    StandardInstance,
    validate,
)
from deltailp.oracle import brute_force_ilp


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def in_memory(data):
    """The instance a file's JSON spells, built without the parser."""
    def mat(rows):
        return IntMat.from_rows(rows) if rows else None

    def ext(v):
        return tuple({"+inf": POS_INF, "-inf": NEG_INF}.get(e, e) for e in v)

    if data["form"].endswith("-cf"):
        return CanonicalInstance(A=mat(data["A"]), b_l=ext(data["b_l"]), b_r=tuple(data["b_r"]),
                                 c=tuple(data["c"]))
    if data["form"].endswith("-sf"):
        a = mat(data["A"])
        return StandardInstance(
            n=len(data["c"]), m=a.rows if a else 0, A=a, G=mat(data["G"]), S=mat(data["S"]),
            b=tuple(data["b"]), g=tuple(data["g"]), u=ext(data["u"]), c=tuple(data["c"]),
        )
    return GroupInstance(
        group=GroupSpec(tuple(data["moduli"])), generators=tuple(map(tuple, data["generators"])),
        target=tuple(data["target"]), costs=tuple(data["costs"]), bounds=ext(data["bounds"]),
    )


def kv(out):
    pairs = {}
    for line in out.splitlines():
        if ": " in line:
            k, v = line.split(": ", 1)
            pairs[k] = v
    return pairs


@pytest.fixture
def group_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(
        json.dumps(
            {
                "form": "group",
                "moduli": [5],
                "generators": [[2], [3]],
                "target": [1],
                "costs": [1, 1],
                "bounds": ["+inf", "+inf"],
            }
        )
    )
    return str(path)


@pytest.fixture
def cf_file(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps(
            {
                "form": "bilp-cf",
                "A": [[1, 0], [0, 1], [1, 1]],
                "b_l": [0, 0, 0],
                "b_r": [3, 3, 4],
                "c": [2, 1],
            }
        )
    )
    return str(path)


@pytest.fixture
def knapsack_file(tmp_path):
    inst = StandardInstance(
        n=2,
        m=1,
        A=IntMat.from_rows([[2, 3]]),
        G=IntMat.from_rows([[1, 1]]),
        S=IntMat.identity(1),
        b=(7,),
        g=(0,),
        u=(POS_INF, POS_INF),
        c=(3, 5),
    )
    path = tmp_path / "k.json"
    path.write_text(serialize_instance(inst))
    return str(path)


class TestSolve:
    def test_group_fixture(self, capsys, group_file):
        code, out = run(capsys, "solve", group_file)
        pairs = kv(out)
        assert code == 0
        assert pairs["algo"] == "cyclic"
        assert pairs["value"] == "2"

    def test_oracle_matches_auto(self, capsys, cf_file):
        _, auto_out = run(capsys, "solve", cf_file)
        _, oracle_out = run(capsys, "solve", cf_file, "--algo", "oracle")
        assert kv(auto_out)["value"] == kv(oracle_out)["value"] == "7"

    def test_variants_agree(self, capsys, cf_file):
        _, a = run(capsys, "solve", cf_file, "--variant", "queue")
        _, b = run(capsys, "solve", cf_file, "--variant", "binarized")
        assert kv(a)["value"] == kv(b)["value"]

    def test_infeasible_exit_code(self, capsys, tmp_path):
        path = tmp_path / "inf.json"
        path.write_text(
            json.dumps(
                {
                    "form": "bilp-cf",
                    "A": [[2]],
                    "b_l": [1],
                    "b_r": [1],
                    "c": [1],
                }
            )
        )
        code, out = run(capsys, "solve", str(path))
        assert code == EXIT_INFEASIBLE
        assert kv(out)["status"] == "infeasible"

    @pytest.mark.parametrize(
        "data, detail",
        [
            ({"form": "ilp-sf", "A": [[1, 0]], "G": [[0, 1]], "S": [[0]], "b": [1],
              "g": [0], "u": ["+inf", "+inf"], "c": [1, 1]},
             "S must be diagonal with entries >= 1"),
            ({"form": "group", "moduli": [0], "generators": [[1]], "target": [0],
              "costs": [1], "bounds": ["+inf"]},
             "moduli: entries must be >= 1"),
            ({"form": "bilp-sf", "A": [[1, 1]], "G": [[0, 1]], "S": [[1]], "b": [2],
              "g": [0], "u": [-1, 3], "c": [1, 1]},
             "u: entries must be >= 0"),
        ],
        ids=["S-zero", "modulus-zero", "u-negative"],
    )
    def test_invalid_numbers_exit_input(self, capsys, tmp_path, data, detail):
        # a zero modulus would divide by zero in the solvers and the
        # feasibility check, and a negative upper bound would be answered
        # "infeasible"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code = main(["solve", str(path)])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT
        assert kv(out)["error"] == "input"
        assert kv(out)["error.detail"] == detail
        assert "Traceback" not in out + err
        # validate reports the parser's refusal first
        assert validate(in_memory(data))[0] == detail

    SF = {"form": "bilp-sf", "A": [[1, 1]], "G": [[0, 1]], "S": [[2]], "b": [2], "g": [0],
          "u": [3, 3], "c": [1, 1]}
    GROUP = {"form": "group", "moduli": [3, 4], "generators": [[1, 1]], "target": [0, 1],
             "costs": [1], "bounds": ["+inf"]}
    CF = {"form": "bilp-cf", "A": [[1, 0], [0, 1]], "b_l": [0, 0], "b_r": [1, 1], "c": [1, 1]}

    @pytest.mark.parametrize(
        "base, change, detail",
        [
            (SF, {"b": [2, 3]}, "length of b is 2, expected 1"),
            (SF, {"u": [3]}, "length of u is 1, expected 2"),
            (SF, {"G": [[0, 1, 0]]}, "column count of G is 3, expected 2"),
            (SF, {"A": [[1, 1, 1]]}, "column count of A is 3, expected 2"),
            (SF, {"A": [[1, 1, 0]], "G": [[0, 1, 0], [0, 0, 1]], "u": [3, 3, 3], "c": [1, 1, 1]},
             "row count of S is 1, expected 2"),
            (SF, {"g": [0, 1]}, "length of g is 2, expected 1"),
            (SF, {"A": [[1, 2, 3]], "G": [[0, 1, 0]], "u": [3, 3, 3], "c": [1, 1, 1]},
             "row count of G is 1, expected 2"),
            (GROUP, {"generators": [[1]]}, "length of a generator is 1, expected 2"),
            (GROUP, {"target": [0]}, "length of target is 1, expected 2"),
            (GROUP, {"costs": [1, 2]}, "length of costs is 2, expected 1"),
            (GROUP, {"bounds": ["+inf", 2]}, "length of bounds is 2, expected 1"),
            (CF, {"c": [1]}, "length of c is 1, expected 2"),
            (CF, {"b_l": [0]}, "length of b_l is 1, expected 2"),
            (CF, {"b_r": [1, 1, 1]}, "length of b_r is 3, expected 2"),
        ],
        ids=[
            "b-longer-than-A-rows", "u-shorter-than-n", "G-wider-than-n", "A-wider-than-n",
            "G-rows-not-S-rows", "g-longer-than-G-rows", "G-rows-not-n-minus-m",
            "generator-short", "target-short",
            "costs-long", "bounds-long", "cf-c-short", "cf-b_l-short", "cf-b_r-long",
        ],
    )
    def test_mismatched_dimensions_exit_input(self, capsys, tmp_path, base, change, detail):
        # unchecked, these were answered "infeasible" or "optimal", failed
        # the certificate, or raised an IndexError
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**base, **change}))
        code = main(["solve", str(path)])
        out, err = capsys.readouterr()
        assert code == EXIT_INPUT
        assert kv(out)["error"] == "input"
        assert kv(out)["error.detail"] == detail
        assert "Traceback" not in out + err
        # validate reports the parser's refusal first
        assert validate(in_memory({**base, **change}))[0] == detail

    def test_empty_group_part_stays_valid(self, capsys, tmp_path):
        # m = n: G, S and g empty
        path = tmp_path / "square.json"
        path.write_text(json.dumps({**self.SF, "A": [[1, 0], [0, 1]], "G": [], "S": [], "b": [1, 1], "g": []}))
        code, out = run(capsys, "solve", str(path))
        assert code == 0 and kv(out)["status"] == "optimal"

    def test_missing_file(self, capsys):
        code, out = run(capsys, "solve", "/no/such/file.json")
        assert code == EXIT_INPUT
        assert kv(out)["error"] == "input"

    def test_recursion_error_exit_code(self, capsys, monkeypatch, cf_file):
        def deep(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(solver, "solve_bilp_sf", deep)
        code = main(["solve", cf_file])
        captured = capsys.readouterr()
        assert code == EXIT_CAP
        assert kv(captured.out)["error"] == "recursion-limit"
        assert "Traceback" not in captured.out + captured.err

    def test_dp_work_guard_exit_code(self, capsys, monkeypatch, cf_file):
        # a layer table above the cell cap is refused before it is allocated
        from deltailp import dpsolve

        monkeypatch.setattr(dpsolve, "_DP_CELLS", 10)
        code = main(["solve", cf_file])
        captured = capsys.readouterr()
        assert code == EXIT_CAP
        pairs = kv(captured.out)
        assert pairs["error"] == "cap-exceeded"
        assert pairs["error.detail"].startswith("bounded DP needs ")
        assert pairs["error.detail"].endswith("above the cap 10")
        assert "Traceback" not in captured.out + captured.err

    def test_certificate_error_exit_code(self, capsys, monkeypatch, cf_file):
        def rejected(*args, **kwargs):
            raise CertificateError("DP produced an infeasible witness")

        monkeypatch.setattr(solver, "solve_bilp_sf", rejected)
        code = main(["solve", cf_file])
        captured = capsys.readouterr()
        assert code == EXIT_FAIL
        pairs = kv(captured.out)
        assert pairs["error"] == "certificate"
        assert pairs["error.detail"] == "DP produced an infeasible witness"
        assert "Traceback" not in captured.out + captured.err

    def test_deterministic_output(self, capsys, cf_file):
        _, a = run(capsys, "solve", cf_file)
        _, b = run(capsys, "solve", cf_file)
        assert a == b

    def test_knapsack_and_subset_sum(self, capsys, knapsack_file):
        code, out = run(capsys, "solve", knapsack_file, "--algo", "knapsack")
        assert code == 0 and kv(out)["value"] == "11"
        code, out = run(capsys, "solve", knapsack_file, "--algo", "subset-sum")
        assert code == 0 and kv(out)["x"] == "2 1"


    def test_unbounded_m2_file_matches_oracle(self, capsys, tmp_path):
        # m = 2 runs the bounded DP on the proximity box of the LP vertex
        inst = StandardInstance(
            n=3,
            m=2,
            A=IntMat.from_rows([[-1, -1, 0], [2, 1, 1]]),
            G=IntMat.from_rows([[2, 0, 1]]),
            S=IntMat.from_rows([[2]]),
            b=(-3, 5),
            g=(0,),
            u=(POS_INF,) * 3,
            c=(1, 1, 3),
        )
        path = tmp_path / "m2.json"
        path.write_text(serialize_instance(inst))
        code, out = run(capsys, "solve", str(path))
        pairs = kv(out)
        lp = solve_lp(inst)
        chi = 3 * 4 * minor_stats(inst.A).delta * inst.det_s  # (m+1)(n+1) Delta |det S|
        box = [(0, max(0, math.ceil(v)) + chi) for v in lp.vertex]
        ref = brute_force_ilp(inst, box)
        assert code == 0
        assert pairs["algo"] == "unbounded-dp"
        assert pairs["status"] == ref.status == "optimal"
        assert pairs["value"] == str(ref.value) == "3"


FORM_FILES = {"group": "group_file", "cf": "cf_file", "sf": "knapsack_file"}
ALGOS = ["bounded-dp", "unbounded-dp", "gomory", "cyclic", "local", "knapsack", "subset-sum", "oracle"]
# (form, algo) pairs that no runner accepts
REFUSED = {
    ("group", "bounded-dp"),
    ("group", "unbounded-dp"),
    ("cf", "unbounded-dp"),
    ("cf", "gomory"),
    ("cf", "cyclic"),
    ("sf", "gomory"),
    ("sf", "cyclic"),
}


class TestApplicability:
    @pytest.mark.parametrize("algo", ALGOS)
    @pytest.mark.parametrize("form", sorted(FORM_FILES))
    def test_every_pair_answers_or_refuses(self, capsys, request, form, algo):
        path = request.getfixturevalue(FORM_FILES[form])
        code = main(["solve", path, "--algo", algo])
        captured = capsys.readouterr()
        assert code in (0, EXIT_INFEASIBLE, 3, EXIT_INPUT)
        assert "Traceback" not in captured.out + captured.err
        if (form, algo) in REFUSED:
            assert code == EXIT_INPUT
            detail = f"algorithm {algo} does not apply to {form} instances"
            assert kv(captured.out)["error.detail"] == detail

    @pytest.mark.parametrize("form", sorted(FORM_FILES))
    def test_library_entry_point_matches_cli(self, capsys, request, form):
        path = request.getfixturevalue(FORM_FILES[form])
        out = deltailp.solve(load_instance(path))
        code, text = run(capsys, "solve", path)
        pairs = kv(text)
        assert code == 0
        assert pairs["status"] == out.status == "optimal"
        assert pairs["x"] == " ".join(map(str, out.x))
        assert pairs["value"] == str(out.value)


class TestParser:
    def test_built_once(self):
        assert cli_mod._build_parser() is cli_mod._build_parser()

    def test_reused_parser_keeps_each_call_apart(self, capsys, cf_file, group_file):
        calls = [
            ["solve", cf_file, "--variant", "binarized"],
            ["solve", cf_file],
            ["solve", group_file, "--algo", "cyclic"],
            ["solve", group_file],
            ["solve", cf_file, "--algo", "nope"],
        ]
        back_to_back = []
        for argv in calls:
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse rejects the bad choice
                code = exc.code
            back_to_back.append((code, capsys.readouterr().out))
        fresh = []
        for argv in calls:
            cli_mod._build_parser.cache_clear()
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            fresh.append((code, capsys.readouterr().out))
        assert back_to_back == fresh
        assert [code for code, _ in fresh] == [0, 0, 0, 0, 2]
        assert kv(fresh[0][1])["cert.variant"] != kv(fresh[1][1])["cert.variant"]
        assert kv(fresh[2][1])["algo"] == kv(fresh[3][1])["algo"] == "cyclic"


class TestPipelines:
    def test_gen_solve_roundtrip(self, capsys, tmp_path):
        for seed in range(10):
            code, out = run(
                capsys, "gen", "--kind", "cf", "--n", "2", "--m", "1",
                "--seed", str(seed),
            )
            assert code == 0
            path = tmp_path / f"gen{seed}.json"
            path.write_text(out)
            code, _ = run(capsys, "solve", str(path))
            assert code in (0, EXIT_INFEASIBLE)

    def test_reduce_preserves_optimum(self, capsys, cf_file, tmp_path):
        _, direct = run(capsys, "solve", cf_file, "--algo", "oracle")
        code, out = run(capsys, "reduce", cf_file, "--direction", "cf2sf")
        assert code == 0
        sf_path = tmp_path / "sf.json"
        sf_path.write_text(out)
        code, out2 = run(capsys, "reduce", str(sf_path), "--direction", "sf2cf")
        assert code == 0
        cf2_path = tmp_path / "cf2.json"
        cf2_path.write_text(out2)
        code, back = run(capsys, "solve", str(cf2_path), "--algo", "oracle")
        assert code == 0
        # both round trips solve; the original optimum value is recoverable
        assert kv(direct)["status"] == kv(back)["status"] == "optimal"

    def test_normalize_validates(self, capsys, cf_file):
        code, out = run(capsys, "normalize", cf_file)
        assert code == 0
        inst = parse_instance(out)
        assert validate(inst) == []

    def test_normalize_rank_deficient(self, capsys, tmp_path):
        path = tmp_path / "rd.json"
        path.write_text(
            json.dumps({"form": "bilp-cf", "A": [[1, 2], [2, 4]], "b_l": [0, 0], "b_r": [3, 6], "c": [1, 1]})
        )
        code, out = run(capsys, "normalize", str(path))
        assert code == EXIT_INPUT
        assert kv(out)["error.detail"] == "matrix does not have full column rank"

    def test_bounds_report(self, capsys, cf_file):
        code, out = run(capsys, "bounds", cf_file)
        pairs = kv(out)
        assert code == 0
        assert pairs["delta"] == "1" and "sparsity" in pairs

    def test_verify_all_pass(self, capsys, cf_file):
        code, out = run(capsys, "verify", cf_file, "--suite", "all")
        assert code == 0
        assert kv(out)["failed"] == "0"


class TestBench:
    def test_bench_function_smoke(self):
        res = bench_knapsack_delta(n=6, deltas=(4, 8), repeats=2, seed=1)
        assert set(res["median_seconds"]) == {4, 8}
        assert res["ratio"] > 0

    def test_bench_deltas_option(self, capsys):
        code, out = run(capsys, "bench", "--n", "6", "--repeats", "1", "--deltas", "4", "8")
        pairs = kv(out)
        assert code == 0
        assert "median_seconds.delta_4" in pairs and "median_seconds.delta_8" in pairs
        assert "median_seconds.delta_50" not in pairs


class TestChecksUnderOptimize:
    # bench and gen guard their own results with explicit checks, so a bad
    # result is refused when python -O strips asserts
    SCRIPT = textwrap.dedent(
        """
        import sys
        from deltailp import cli
        from deltailp.model import CertificateError, SolveOutcome

        cli.solve_bilp_sf = lambda inst, **kw: SolveOutcome.infeasible()
        try:
            cli.bench_knapsack_delta(n=4, deltas=(2, 4), repeats=1)
        except CertificateError as exc:
            print(exc)
        cli.validate = lambda inst: ["u: entries must be >= 0"]
        print(cli.main(["gen", "--kind", "sf", "--seed", "1"]))
        print("optimize", sys.flags.optimize)
        """
    )

    def test_bench_and_gen_refuse_under_optimize(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT],
            env=env, capture_output=True, text=True, check=True,
        )
        assert run.stdout.splitlines() == [
            "bench knapsack reported infeasible",
            "error: certificate",
            "error.detail: generated instance fails validation: "
            "u: entries must be >= 0",
            str(EXIT_FAIL),
            "optimize 1",
        ]
