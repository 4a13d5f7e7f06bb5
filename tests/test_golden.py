"""Golden stdout of seeded bounded-DP solves.

``golden_bounded_dp.json`` holds ``delta-ilp gen`` instances (kinds sf and cf
with m <= 1 at n = 3 and 5, seeds 0-9, plus one m = 2 file), each solved
with ``--variant queue`` and ``--variant binarized``: the instance, the exit
code and the status, x, value and cert lines.  The test solves every case
again, so a change to the bounded DP that alters one of those lines fails
here.  Regenerate the file only from a tree whose output is known good:

    PYTHONPATH=src python tests/test_golden.py tests/golden_bounded_dp.json
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from deltailp import cli

GOLDEN = Path(__file__).with_name("golden_bounded_dp.json")
# (kind, m, n, seeds); gen --kind sf has at least one equality row
FAMILIES = [
    ("sf", 1, 3, range(10)),
    ("sf", 1, 5, range(10)),
    ("cf", 0, 3, range(10)),
    ("cf", 0, 5, range(10)),
    ("cf", 1, 3, range(10)),
    ("cf", 1, 5, range(10)),
    ("sf", 2, 3, [3]),
]
VARIANTS = ("queue", "binarized")
KEPT = ("status:", "x:", "value:", "cert.")


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, [line for line in out.getvalue().splitlines() if line.startswith(KEPT)]


def solve(instance, variant, work):
    path = Path(work) / "instance.json"
    path.write_text(json.dumps(instance) + "\n", encoding="utf-8")
    code, lines = run_cli(["solve", str(path), "--variant", variant])
    return {"exit": code, "lines": lines}


def test_bounded_dp_stdout_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert len(golden) == 2 * (6 * 10 + 1)
    wrong = [
        name
        for name, case in sorted(golden.items())
        if solve(case["instance"], case["variant"], tmp_path)
        != {"exit": case["exit"], "lines": case["lines"]}
    ]
    assert wrong == []


def generate(path):
    golden = {}
    with tempfile.TemporaryDirectory() as work:
        for kind, m, n, seeds in FAMILIES:
            for seed in seeds:
                out = io.StringIO()
                argv = ["gen", "--kind", kind, "--m", str(m), "--n", str(n), "--seed", str(seed)]
                with contextlib.redirect_stdout(out):
                    if cli.main(argv) != 0:
                        raise RuntimeError(f"{' '.join(argv)} failed")
                instance = json.loads(out.getvalue())
                for variant in VARIANTS:
                    golden[f"{kind}-m{m}-n{n}-seed{seed}-{variant}"] = {
                        "instance": instance,
                        "variant": variant,
                        **solve(instance, variant, work),
                    }
    lines = [f"{json.dumps(name)}: {json.dumps(golden[name], sort_keys=True)}" for name in sorted(golden)]
    Path(path).write_text("{\n" + ",\n".join(lines) + "\n}\n", encoding="utf-8")  # a case per line


if __name__ == "__main__":
    generate(sys.argv[1])
