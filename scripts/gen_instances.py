#!/usr/bin/env python3
"""Generate a batch of random valid instance files into a directory."""

import argparse
import pathlib

from deltailp.generators import generate
from deltailp.io import serialize_instance
from deltailp.rng import stream


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("outdir")
    ap.add_argument("--kind", choices=["cf", "sf", "group"], default="cf")
    ap.add_argument("--count", type=int, default=10)
    ap.add_argument("--n", type=int, default=3)
    ap.add_argument("--m", type=int, default=1)
    ap.add_argument("--delta-max", dest="delta_max", type=int, default=6)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for i in range(args.count):
        rnd = stream(args.seed, f"batch:{args.kind}:{i}")
        inst = generate(args.kind, rnd, args.n, args.m, args.delta_max)
        path = outdir / f"{args.kind}-{i:04d}.json"
        path.write_text(serialize_instance(inst) + "\n")
        print(path)


if __name__ == "__main__":
    main()
