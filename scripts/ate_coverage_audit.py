#!/usr/bin/env python3
"""Audit the null-effect calibration of the default generator at scale.

The default data-generating process embeds no treatment effect, so each
arm-versus-baseline z statistic should be standard normal and the two-SE
event should hold ~95.45% of the time.  Fixed 100-seed counts of that event
wobble by a couple of counts around 95; this script measures the rate over
many more seeds, with a binomial confidence interval, to show the property
itself holds.
"""
import argparse
import math

from thresholdgame.econometrics import ate_report
from thresholdgame.game import ARMS
from thresholdgame.simulator import SimConfig, simulate


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seeds", type=int, default=400)
    args = parser.parse_args()

    within = dict.fromkeys(ARMS[1:], 0)  # each arm against the RR baseline
    for seed in range(args.seeds):
        data = simulate(SimConfig(), seed)
        ate = ate_report(data)
        for arm in within:
            if abs(ate.coef(arm)) <= 2.0 * ate.se(arm):
                within[arm] += 1
    print(f"two-SE coverage over {args.seeds} seeds (nominal 0.9545):")
    for arm, count in within.items():
        rate = count / args.seeds
        half = 1.96 * math.sqrt(rate * (1 - rate) / args.seeds)
        print(f"  {arm}: {rate:.4f} +- {half:.4f}")


if __name__ == "__main__":
    main()
