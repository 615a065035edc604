"""Command-line entry point.

Subcommands: curve, solve, sweep, hypotheses, simulate, analyze, power.
Options come from an optional JSON config file plus flags; flags win.  Every
artifact file starts with '# key=value' comment lines carrying the config
hash, seed and tool version, so identical configs reproduce files byte for
byte.  Exit codes: 0 ok, 2 bad config/input, 3 numerical failure, 4
enumeration cap exceeded.
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
    build_success_curve,
    make_scenario,
    prob_to_str,
)
from .money import Money
from .preferences import PowerUtility, UtilityFn, utility_from_json
from .simulator import RNG_FORMAT, BehavioralRule, SimConfig, simulate
from .solver import (
    EnumerationCapExceeded,
    EquilibriumTable,
    enumerate_symmetric,
    hypothesis_report,
    records_to_csv_rows,
    robust_table,
)

OUT_DIR_ENV = "THRESHOLDGAME_OUT"


def _config_hash(payload: dict) -> str:
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _header(payload: dict, seed=None) -> str:
    lines = [f"tool=thresholdgame {__version__}", f"config_hash={_config_hash(payload)}"]
    if seed is not None:
        lines.append(f"seed={seed}")
    lines.append(f"config={json.dumps(payload, sort_keys=True, default=str)}")
    return "\n".join(lines)


def _resolve_out(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get(OUT_DIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    p.parent.mkdir(parents=True, exist_ok=True)
    return p


def _write_rows_csv(path: Path, rows: list[dict], header_comment: str) -> None:
    buf = io.StringIO()
    for line in header_comment.splitlines():
        buf.write(f"# {line}\n")
    if rows:
        writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("config file must hold a JSON object")
    return doc


def _opt(args, config: dict, name: str, default):
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    return config.get(name, default)


def _game_from(args, config) -> GameSpec:
    step = _opt(args, config, "grid-step", "1.00")
    return GameSpec(grid_step=Money.parse(str(step)))


def _utility_from(args, config) -> UtilityFn:
    rho = getattr(args, "rho", None)
    if rho is not None:
        return PowerUtility(rho)
    doc = config.get("utility")
    if doc:
        return utility_from_json(doc)
    return PowerUtility(1.0)


# --- command handlers --------------------------------------------------------

def cmd_curve(args, config) -> int:
    game = _game_from(args, config)
    alpha = _opt(args, config, "alpha", 1.0)
    labels = TREATMENTS if args.scenario == "all" else (args.scenario,)
    docs = []
    for label in labels:
        curve = build_success_curve(make_scenario(label), alpha, game)
        print(f"{label} (alpha={alpha:g}):")
        for c, p in curve.breakpoints:
            print(f"  C >= {c.compact():>2}: p = {prob_to_str(p)}")
        docs.append({
            "label": label,
            "alpha": alpha,
            "breakpoints": [{"total": str(c), "prob": prob_to_str(p)}
                            for c, p in curve.breakpoints],
            "domain_max": str(curve.domain_max),
        })
    out = _resolve_out(args.out)
    if out:
        payload = {"command": "curve", "alpha": alpha, "scenario": args.scenario,
                   "grid_step": str(game.grid_step)}
        header = "".join(f"# {ln}\n" for ln in _header(payload).splitlines())
        out.write_text(header + json.dumps(docs, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0


def cmd_solve(args, config) -> int:
    game = _game_from(args, config)
    alpha = _opt(args, config, "alpha", 1.0)
    mode = _opt(args, config, "mode", "paper")
    u = _utility_from(args, config)
    rows, totals, cells = [], set(), set()
    for label in TREATMENTS:
        curve = build_success_curve(make_scenario(label), alpha, game)
        records = enumerate_symmetric(curve, u, game, mode)
        rows += records_to_csv_rows(records, label)
        # The table's cells are the paper-mode survivors, as equilibrium_table finds them.
        totals |= curve.canonical_totals()
        cells |= {(label, r.total) for r in records if not r.paper_filter_excluded}
    table = EquilibriumTable(tuple(sorted(totals)), TREATMENTS, frozenset(cells))
    print(f"Symmetric equilibria (mode={mode}, alpha={alpha:g}):")
    for row in rows:
        cond = f"  [{row['condition']}]" if row["condition"] else ""
        print(f"  {row['treatment']}: C={row['total']} ({row['kind']}"
              f"{', zero payoff' if row['zero_payoff'] else ''}){cond}")
    print()
    print(table.render())
    out = _resolve_out(args.out)
    if out:
        payload = {"command": "solve", "alpha": alpha, "mode": mode,
                   "rho": getattr(args, "rho", None), "grid_step": str(game.grid_step)}
        _write_rows_csv(out, rows, _header(payload))
        print(f"wrote {out}")
    return 0


def cmd_sweep(args, config) -> int:
    alpha = _opt(args, config, "alpha", 1.0)
    lo = _opt(args, config, "rho-min", 0.2)
    hi = _opt(args, config, "rho-max", 10.0)
    samples = _opt(args, config, "samples", 100)
    game = _game_from(args, config)
    table = robust_table(alpha=alpha, rho_range=(lo, hi), samples=samples, game=game)
    print(f"Totals that are equilibria for every rho in [{lo:g}, {hi:g}] "
          f"({samples} log-spaced samples, alpha={alpha:g}):")
    print(table.render())
    out = _resolve_out(args.out)
    if out:
        rows = [{"treatment": tr, "total": t.compact(),
                 "robust": int(table.has(tr, t))}
                for tr in table.treatments for t in table.totals]
        payload = {"command": "sweep", "alpha": alpha, "rho_range": [lo, hi],
                   "samples": samples, "grid_step": str(game.grid_step)}
        _write_rows_csv(out, rows, _header(payload))
        print(f"wrote {out}")
    return 0


def cmd_hypotheses(args, config) -> int:
    alpha = _opt(args, config, "alpha", 1.0)
    game = _game_from(args, config)
    report = hypothesis_report(alpha, game)
    text = report.render()
    print(text)
    out = _resolve_out(args.out)
    if out:
        payload = {"command": "hypotheses", "alpha": alpha, "grid_step": str(game.grid_step)}
        header = "".join(f"# {ln}\n" for ln in _header(payload).splitlines())
        out.write_text(header + text + "\n", encoding="utf-8")
        print(f"wrote {out}")
    return 0


def cmd_simulate(args, config) -> int:
    if args.seed is None and "seed" not in config:
        raise ValueError("simulate requires --seed for reproducibility")
    seed = int(_opt(args, config, "seed", 0))
    n = int(_opt(args, config, "n", 1500))
    resolution = _opt(args, config, "resolution", "uniform")
    game = _game_from(args, config)
    rule_doc = dict(config.get("rule", {}))
    if "fixed_contribution" in rule_doc:
        rule_doc["fixed_contribution"] = Money.parse(str(rule_doc["fixed_contribution"]))
    try:
        rule = BehavioralRule(**rule_doc) if rule_doc else BehavioralRule()
    except TypeError as exc:
        raise ValueError(f"bad rule config: {exc}") from exc
    sim = SimConfig(n_subjects=n, game=game, rule=rule, resolution_policy=resolution)
    dataset = simulate(sim, seed)
    payload = {"command": "simulate", "n": n, "resolution": resolution,
               "grid_step": str(game.grid_step), "rule": rule.kind, "seed": seed,
               "rng_format": RNG_FORMAT}
    out = _resolve_out(args.out) or _resolve_out("experiment.csv")
    dataset.write_csv(out, _header(payload, seed=seed))
    print(f"wrote {out} ({len(dataset)} subjects)")
    return 0


def cmd_analyze(args, config) -> int:
    data = Dataset.read_csv(args.data)
    out_dir = _resolve_out(args.out) if args.out else None
    if out_dir:
        out_dir.mkdir(parents=True, exist_ok=True)
    payload = {"command": "analyze", "data": os.path.basename(args.data)}
    header = _header(payload)
    for name, rows, text in analysis_battery(data):
        print(f"== {name}")
        print(text)
        print()
        if out_dir:
            _write_rows_csv(out_dir / f"{name}.csv", rows, header)
    return 0


def cmd_power(args, config) -> int:
    arms = int(_opt(args, config, "arms", 4))
    n = int(_opt(args, config, "n", 1500))
    sd = float(_opt(args, config, "sd", 1.39))
    alpha_level = float(_opt(args, config, "alpha-level", 0.05))
    power_target = float(_opt(args, config, "power", 0.80))
    replications = int(_opt(args, config, "mc", 0))
    seed = _opt(args, config, "seed", None)
    if arms < 1 or n % arms:
        raise ValueError(f"power needs n divisible by arms >= 1; got n={n}, arms={arms}")
    n_per_arm = n // arms
    report = mde(arms, n_per_arm, sd, alpha_level, power_target,
                 mc_replications=replications, seed=int(seed or 0))
    print(report.render())
    out = _resolve_out(args.out)
    if out:
        payload = {"command": "power", "arms": arms, "n": n, "sd": sd,
                   "alpha_level": alpha_level, "power": power_target, "mc": replications}
        rows = [{"arms": arms, "n_per_arm": n_per_arm, "sd": sd,
                 "alpha_level": alpha_level, "power_target": power_target,
                 "mde": report.mde,
                 "mc_rejection_rate": ("" if report.mc_rejection_rate is None
                                        else report.mc_rejection_rate)}]
        _write_rows_csv(out, rows, _header(payload, seed=seed))
        print(f"wrote {out}")
    return 0


# --- argument parsing ---------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thresholdgame",
        description="Threshold public-goods games under risk and ambiguity.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed=True):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--out", help=f"output path (relative paths honor ${OUT_DIR_ENV})")
        if seed:
            p.add_argument("--seed", type=int, help="random seed")

    p = sub.add_parser("curve", help="print/serialize a success curve")
    p.add_argument("--scenario", default="all", choices=TREATMENTS + ("all",))
    p.add_argument("--alpha", type=float, help="pessimism weight in [0,1]")
    p.add_argument("--grid-step", help="contribution grid step, e.g. 0.50")
    common(p, seed=False)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("solve", help="enumerate symmetric equilibria")
    p.add_argument("--alpha", type=float)
    p.add_argument("--rho", type=float, help="power-utility exponent")
    p.add_argument("--mode", choices=("raw", "paper"))
    p.add_argument("--grid-step")
    common(p, seed=False)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="robustness sweep over power utilities")
    p.add_argument("--alpha", type=float)
    p.add_argument("--rho-min", type=float)
    p.add_argument("--rho-max", type=float)
    p.add_argument("--samples", type=int)
    p.add_argument("--grid-step")
    common(p, seed=False)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("hypotheses", help="cross-arm equilibrium comparison")
    p.add_argument("--alpha", type=float)
    p.add_argument("--grid-step")
    common(p, seed=False)
    p.set_defaults(func=cmd_hypotheses)

    p = sub.add_parser("simulate", help="generate a synthetic experiment CSV")
    p.add_argument("--n", type=int, help="number of subjects")
    p.add_argument("--resolution", choices=("uniform", "pessimistic", "optimistic"))
    p.add_argument("--grid-step")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="run the analysis suite on a dataset CSV")
    p.add_argument("--data", required=True, help="input CSV (simulator schema)")
    common(p, seed=False)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("power", help="minimum detectable effect")
    p.add_argument("--arms", type=int)
    p.add_argument("--n", type=int, help="total sample size across arms")
    p.add_argument("--sd", type=float)
    p.add_argument("--alpha-level", type=float)
    p.add_argument("--power", type=float)
    p.add_argument("--mc", type=int, help="Monte-Carlo replications (0 = off)")
    common(p)
    p.set_defaults(func=cmd_power)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args.config)
        return args.func(args, config)
    except EnumerationCapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (RankDeficientError, np.linalg.LinAlgError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
