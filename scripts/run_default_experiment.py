#!/usr/bin/env python3
"""Simulate the default 1500-subject experiment and run the analysis battery
on it (the sections of ``thresholdgame analyze``), then the design's MDE."""
import argparse

from thresholdgame.econometrics import analysis_battery, mde
from thresholdgame.simulator import SimConfig, simulate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--n", type=int, default=1500)
    parser.add_argument("--out", help="also write the dataset CSV here")
    args = parser.parse_args()

    config = SimConfig(n_subjects=args.n)
    data = simulate(config, args.seed)
    if args.out:
        data.write_csv(args.out, f"seed={args.seed} n={args.n}")
        print(f"wrote {args.out}")

    print(f"Simulated {len(data)} subjects (seed {args.seed})\n")
    for name, _, text in analysis_battery(data):
        print(f"== {name}\n{text}\n")
    print("Design power:")
    print(mde(4, args.n // 4, 1.39, mc_replications=10_000, seed=args.seed).render())


if __name__ == "__main__":
    main()
