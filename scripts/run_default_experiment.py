#!/usr/bin/env python3
"""Simulate the default 1500-subject experiment with ``thresholdgame simulate``,
run ``analyze`` on its CSV, then ``power`` for the design's MDE.  The CSV goes
to ``--out`` with the CLI's provenance header, or to a temporary directory."""
import argparse
import os
import sys
import tempfile

from thresholdgame.cli import main as thresholdgame


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n", type=int, default=1500)
    parser.add_argument("--out", help="also write the dataset CSV here")
    args = parser.parse_args()

    seed, n = str(args.seed), str(args.n)
    with tempfile.TemporaryDirectory() as tmp:
        # Absolute, so that simulate writes where analyze reads.
        data = os.path.abspath(args.out or os.path.join(tmp, "experiment.csv"))
        code = (thresholdgame(["simulate", "--seed", seed, "--n", n, "--out", data])
                or thresholdgame(["analyze", "--data", data]))
    if code:
        return code
    print("Design power:")
    return thresholdgame(["power", "--n", n, "--seed", seed, "--mc", "10000"])


if __name__ == "__main__":
    sys.exit(main())
