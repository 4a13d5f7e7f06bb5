import json

import pytest

import deltailp.cli as cli_mod
from deltailp.cli import (
    EXIT_CAP,
    EXIT_INFEASIBLE,
    EXIT_INPUT,
    bench_knapsack_delta,
    main,
)
from deltailp.intlinalg import IntMat
from deltailp.io import parse_instance, serialize_instance
from deltailp.model import POS_INF, StandardInstance, validate


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


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

    def test_missing_file(self, capsys):
        code, out = run(capsys, "solve", "/no/such/file.json")
        assert code == EXIT_INPUT
        assert kv(out)["error"] == "input"

    def test_recursion_error_exit_code(self, capsys, monkeypatch, cf_file):
        def deep(*args, **kwargs):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(cli_mod, "solve_bilp_sf", deep)
        code = main(["solve", cf_file])
        captured = capsys.readouterr()
        assert code == EXIT_CAP
        assert kv(captured.out)["error"] == "recursion-limit"
        assert "Traceback" not in captured.out + captured.err

    def test_deterministic_output(self, capsys, cf_file):
        _, a = run(capsys, "solve", cf_file, "--seed", "9")
        _, b = run(capsys, "solve", cf_file, "--seed", "9")
        assert a == b

    def test_knapsack_and_subset_sum(self, capsys, knapsack_file):
        code, out = run(capsys, "solve", knapsack_file, "--algo", "knapsack")
        assert code == 0 and kv(out)["value"] == "11"
        code, out = run(capsys, "solve", knapsack_file, "--algo", "subset-sum")
        assert code == 0 and kv(out)["x"] == "2 1"


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
