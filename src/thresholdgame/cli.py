"""Command-line entry point.

Subcommands: curve, solve, sweep, hypotheses, simulate, analyze, power.
Options come from flags and an optional JSON config file whose keys are the
subcommand's flag names (``alpha``, ``rho-min``, ``grid-step``): each config
value goes through its flag's own argparse action, which types, checks and
defaults it, and a flag on the command line wins.  ``utility`` (solve) and
``rule`` (simulate) are the config-only keys, each a JSON object.  Every
artifact file starts with '# key=value' comment lines carrying the tool
version, the config hash, the seed and the parsed config, so identical
configs reproduce files byte for byte.  Exit codes: 0 ok, 2 bad config/input,
3 numerical failure.
"""
from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import Dataset
from .econometrics import RankDeficientError, analysis_battery, mde
from .game import (
    GameSpec,
    TREATMENTS,
    arm_curve,
    prob_to_str,
)
from .money import Money
from .preferences import PowerUtility, utility_from_json
from .simulator import RESOLUTION_POLICIES, RNG_FORMAT, BehavioralRule, SimConfig, simulate
from .solver import (
    enumerate_symmetric,
    equilibrium_table,
    hypothesis_report,
    records_to_csv_rows,
    robust_table,
)

OUT_DIR_ENV = "THRESHOLDGAME_OUT"

#: The config-only key of a subcommand: a JSON object that no flag takes.
CONFIG_ONLY = {"solve": "utility", "simulate": "rule"}


def _header(payload: dict, seed=None) -> str:
    config = json.dumps(payload, sort_keys=True, default=str)
    lines = [f"tool=thresholdgame {__version__}",
             f"config_hash={hashlib.sha256(config.encode()).hexdigest()[:16]}"]
    if seed is not None:
        lines.append(f"seed={seed}")
    lines.append(f"config={config}")
    return "\n".join(lines)


def _payload(args, **extra) -> dict:
    """The header's config: every option the subcommand parsed, then ``extra``.
    The seed has its own header line; the output path names no setting."""
    skip = ("func", "config", "out", "seed")
    return {**{k: v for k, v in vars(args).items() if k not in skip}, **extra}


def _resolve_out(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _write(path: Path, header: str, body: str) -> None:
    """``body`` after ``header`` as '# ' comment lines."""
    lines = "".join(f"# {line}\n" for line in header.splitlines())
    path.write_text(lines + body, encoding="utf-8")


def _csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    return buf.getvalue()


def _with_config(commands: dict, argv: list[str], args) -> tuple[argparse.Namespace, dict]:
    """``args`` re-parsed with the config file's values as flags before the
    command line's, so flags win; and the config-only doc, if the config sets it."""
    with open(args.config, encoding="utf-8") as fh:
        config = json.load(fh)
    if not isinstance(config, dict):
        raise ValueError(f"{args.config}: config file must hold a JSON object")
    only = CONFIG_ONLY.get(args.command)
    docs = {only: config.pop(only)} if only in config else {}
    if not all(isinstance(doc, dict) for doc in docs.values()):
        raise ValueError(f"{args.config}: config key {only!r} must be a JSON object")
    keys = {dest.replace("_", "-") for dest in vars(args)} - {"command", "func", "config",
                                                               "out", "data"}
    if unknown := sorted(set(config) - keys):
        known = ", ".join(sorted(keys | {only} - {None})) or "none"
        raise ValueError(f"{args.config}: unknown config key {unknown[0]!r} for "
                         f"{args.command}; known: {known}")
    if not config:
        return args, docs
    values = [f"--{key}={v if isinstance(v, str) else json.dumps(v)}" for key, v in config.items()]
    command = commands[args.command]
    command.exit_on_error = False  # a bad value raises ArgumentError, named below
    try:
        parsed, _ = command.parse_known_args(values + argv[argv.index(args.command) + 1:],
                                             argparse.Namespace(command=args.command))
    except argparse.ArgumentError as exc:
        raise ValueError(f"{args.config}: {exc}") from None
    return parsed, docs


# --- command handlers --------------------------------------------------------

def cmd_curve(args, config) -> int:
    game = GameSpec(grid_step=args.grid_step)
    labels = TREATMENTS if args.scenario == "all" else (args.scenario,)
    docs = []
    for label in labels:
        curve = arm_curve(label, args.alpha, game)
        print(f"{label} (alpha={args.alpha:g}):")
        for c, p in curve.breakpoints:
            print(f"  C >= {c.compact():>2}: p = {prob_to_str(p)}")
        docs.append({
            "label": label,
            "alpha": args.alpha,
            "breakpoints": [{"total": str(c), "prob": prob_to_str(p)}
                            for c, p in curve.breakpoints],
            "domain_max": str(curve.domain_max),
        })
    out = _resolve_out(args.out)
    if out:
        _write(out, _header(_payload(args)), json.dumps(docs, indent=2) + "\n")
        print(f"wrote {out}")
    return 0


def cmd_solve(args, config) -> int:
    game = GameSpec(grid_step=args.grid_step)
    doc = config.get("utility") if args.rho is None else None  # the flag wins
    u = utility_from_json(doc) if doc else PowerUtility(1.0 if args.rho is None else args.rho)
    rows = []
    for label in TREATMENTS:
        curve = arm_curve(label, args.alpha, game)
        rows += records_to_csv_rows(enumerate_symmetric(curve, u, game, args.mode), label)
    print(f"Symmetric equilibria (mode={args.mode}, alpha={args.alpha:g}):")
    for row in rows:
        cond = f"  [{row['condition']}]" if row["condition"] else ""
        print(f"  {row['treatment']}: C={row['total']} ({row['kind']}"
              f"{', zero payoff' if row['zero_payoff'] else ''}){cond}")
    print()
    print(equilibrium_table(u, args.alpha, game).render())
    out = _resolve_out(args.out)
    if out:
        _write(out, _header(_payload(args, **({"utility": doc} if doc else {}))), _csv(rows))
        print(f"wrote {out}")
    return 0


def cmd_sweep(args, config) -> int:
    lo, hi = args.rho_min, args.rho_max
    table = robust_table(alpha=args.alpha, rho_range=(lo, hi), samples=args.samples,
                         game=GameSpec(grid_step=args.grid_step))
    print(f"Totals that are equilibria for every rho in [{lo:g}, {hi:g}] "
          f"({args.samples} log-spaced samples, alpha={args.alpha:g}):")
    print(table.render())
    out = _resolve_out(args.out)
    if out:
        rows = [{"treatment": tr, "total": t.compact(),
                 "robust": int(table.has(tr, t))}
                for tr in table.treatments for t in table.totals]
        payload = _payload(args, rho_range=[lo, hi])
        del payload["rho_min"], payload["rho_max"]
        _write(out, _header(payload), _csv(rows))
        print(f"wrote {out}")
    return 0


def cmd_hypotheses(args, config) -> int:
    text = hypothesis_report(args.alpha, GameSpec(grid_step=args.grid_step)).render()
    print(text)
    out = _resolve_out(args.out)
    if out:
        _write(out, _header(_payload(args)), text + "\n")
        print(f"wrote {out}")
    return 0


def cmd_simulate(args, config) -> int:
    if args.seed is None:
        raise ValueError("simulate requires --seed for reproducibility")
    doc = dict(config.get("rule", {}))
    if "fixed_contribution" in doc:
        doc["fixed_contribution"] = Money.parse(str(doc["fixed_contribution"]))
    try:
        rule = BehavioralRule(**doc)
    except TypeError as exc:
        raise ValueError(f"bad rule config: {exc}") from exc
    sim = SimConfig(n_subjects=args.n, game=GameSpec(grid_step=args.grid_step), rule=rule,
                    resolution_policy=args.resolution)
    dataset = simulate(sim, args.seed)
    # A rule config is recorded whole: its fields, not only its kind, set the data.
    payload = _payload(args, seed=args.seed, rule=vars(rule) if doc else rule.kind,
                       rng_format=RNG_FORMAT)
    out = _resolve_out(args.out)
    dataset.write_csv(out, _header(payload, seed=args.seed))
    print(f"wrote {out} ({len(dataset)} subjects)")
    return 0


def cmd_analyze(args, config) -> int:
    data = Dataset.read_csv(args.data)
    out_dir = _resolve_out(args.out)
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    header = _header(_payload(args, data=os.path.basename(args.data)))
    for name, rows, text in analysis_battery(data):
        print(f"== {name}")
        print(text)
        print()
        if out_dir:
            _write(out_dir / f"{name}.csv", header, _csv(rows))
    return 0


def cmd_power(args, config) -> int:
    arms, n = args.arms, args.n
    if arms < 1 or n % arms:
        raise ValueError(f"power needs n divisible by arms >= 1; got n={n}, arms={arms}")
    report = mde(arms, n // arms, args.sd, args.alpha_level, args.power,
                 mc_replications=args.mc, seed=args.seed or 0)
    print(report.render())
    out = _resolve_out(args.out)
    if out:
        rows = [{"arms": arms, "n_per_arm": n // arms, "sd": args.sd,
                 "alpha_level": args.alpha_level, "power_target": args.power,
                 "mde": report.mde,
                 "mc_rejection_rate": ("" if report.mc_rejection_rate is None
                                        else report.mc_rejection_rate)}]
        _write(out, _header(_payload(args), seed=args.seed), _csv(rows))
        print(f"wrote {out}")
    return 0


# --- argument parsing ---------------------------------------------------------

def _money(text: str) -> Money:
    try:
        return Money.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


#: Flags that several subcommands take, each typed and defaulted here once.
_SHARED = {
    "alpha": dict(type=float, default=1.0, help="pessimism weight in [0,1]"),
    "grid-step": dict(type=_money, default="1.00", help="contribution grid step, e.g. 0.50"),
    "n": dict(type=int, default=1500, help="number of subjects, across arms"),
    "seed": dict(type=int, help="random seed"),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser and, by name, its subcommands' parsers."""
    parser = argparse.ArgumentParser(
        prog="thresholdgame",
        description="Threshold public-goods games under risk and ambiguity.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *shared):
        p = sub.add_parser(name, help=help)
        for flag in shared:
            p.add_argument(f"--{flag}", **_SHARED[flag])
        p.add_argument("--config", help="JSON config file keyed by flag name; flags win")
        p.add_argument("--out", help=f"output path (relative paths honor ${OUT_DIR_ENV})")
        p.set_defaults(func=func)
        return p

    p = command("curve", cmd_curve, "print/serialize a success curve", "alpha", "grid-step")
    p.add_argument("--scenario", default="all", choices=TREATMENTS + ("all",))

    p = command("solve", cmd_solve, "enumerate symmetric equilibria", "alpha", "grid-step")
    p.add_argument("--rho", type=float,
                   help="power-utility exponent (default: the config's utility, else 1)")
    p.add_argument("--mode", default="paper", choices=("raw", "paper"))

    p = command("sweep", cmd_sweep, "robustness sweep over power utilities",
                "alpha", "grid-step")
    p.add_argument("--rho-min", type=float, default=0.2)
    p.add_argument("--rho-max", type=float, default=10.0)
    p.add_argument("--samples", type=int, default=100)

    command("hypotheses", cmd_hypotheses, "cross-arm equilibrium comparison",
            "alpha", "grid-step")

    p = command("simulate", cmd_simulate, "generate a synthetic experiment CSV",
                "n", "grid-step", "seed")
    p.add_argument("--resolution", default="uniform", choices=RESOLUTION_POLICIES)
    p.set_defaults(out="experiment.csv")

    p = command("analyze", cmd_analyze, "run the analysis suite on a dataset CSV")
    p.add_argument("--data", required=True, help="input CSV (simulator schema)")

    p = command("power", cmd_power, "minimum detectable effect", "n", "seed")
    p.add_argument("--arms", type=int, default=4)
    p.add_argument("--sd", type=float, default=1.39)
    p.add_argument("--alpha-level", type=float, default=0.05)
    p.add_argument("--power", type=float, default=0.80)
    p.add_argument("--mc", type=int, default=0, help="Monte-Carlo replications (0 = off)")
    return parser, sub.choices


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        args, config = _with_config(commands, argv, args) if args.config else (args, {})
        return args.func(args, config)
    except (RankDeficientError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OverflowError as exc:
        print(f"error: numerical overflow ({exc})", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
