"""The three closed-loop workloads: seeded inputs, one operation, its output check.

Every input comes from ``random.Random(seed)``; the package sees only the
generated arguments.  Inputs come in shuffled blocks that hold each request
kind in fixed proportion, and a run always ends on a block boundary, so a
run's mix, and with it its median and tail, does not drift with the seed.
Checks run outside the timed region and raise ``CheckFailed``.
"""
from __future__ import annotations

import contextlib
import io
import math
import shutil
from dataclasses import dataclass
from pathlib import Path

from thresholdgame import cli, econometrics, game, simulator, solver
from thresholdgame.money import Money
from thresholdgame.preferences import RISK_NEUTRAL, PowerUtility


class CheckFailed(Exception):
    """An operation's output is wrong."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


# --- solve -------------------------------------------------------------------

#: The paper's tables: risk-neutral totals and totals robust to every power
#: utility in [0.2, 10], in euros, per pessimism weight alpha.
PAPER_TABLES = {
    1.0: {"RR": (0, 5, 10), "RA": (0, 10), "AR": (5, 10), "AA": (10,)},
    0.0: {"RR": (0, 5, 10), "RA": (0, 5), "AR": (0, 5), "AA": (0, 5)},
}
PAPER_ROBUST = {
    1.0: {"RR": (0,), "RA": (0,), "AR": (5,), "AA": (10,)},
    0.0: {"RR": (0,), "RA": (0,), "AR": (0,), "AA": (0,)},
}


@dataclass(frozen=True)
class SolveOp:
    kind: str
    step: str
    alpha: float
    rho: float
    arm: str


def _table_euros(table, arm: str) -> tuple[int, ...]:
    return tuple(t.cents // 100 for t in table.totals_for(arm))


def _check_table(table) -> None:
    _require(table.treatments == solver.TABLE_TREATMENTS, f"columns {table.treatments}")
    _require(all(arm in table.treatments and total in table.totals
                 for arm, total in table.cells), "cell outside the table")


class Solve:
    """Theory requests: tables, robustness sweeps, hypotheses, full enumeration."""

    name = "solve"
    modules = ("thresholdgame.solver",)
    kinds = ("equilibrium_table", "robust_table", "hypothesis_report", "enumerate_all_profiles")
    steps = ("1.00", "0.50")
    alphas = (0.0, 0.3, 0.5, 1.0)
    sweep_samples = 100                 # as the CLI's sweep command
    enumeration_cap = 11 ** 5           # step 0.50: 11 contribution levels, 5 players

    def blocks(self, rng):
        """Blocks of 32 requests: each (kind, step) pair four times, meeting every
        alpha once, every arm once and rho once in each quarter of [0.2, 10] on
        a log scale.  Each block is run as four shuffled rounds of eight."""
        pairs = [(k, s) for k in self.kinds for s in self.steps]
        log_lo, log_span = math.log(0.2), math.log(10.0 / 0.2)
        while True:
            alphas = {pair: rng.sample(self.alphas, 4) for pair in pairs}
            arms = {pair: rng.sample(game.TREATMENTS, 4) for pair in pairs}
            strata = {pair: rng.sample(range(4), 4) for pair in pairs}
            block = []
            for i in range(4):
                round_ = [SolveOp(k, s, alphas[k, s][i],
                                  math.exp(log_lo + log_span * (strata[k, s][i] + rng.random()) / 4),
                                  arms[k, s][i])
                          for k, s in pairs]
                rng.shuffle(round_)
                block += round_
            yield block

    def setup(self) -> None:
        for alpha in (0.0, 1.0):
            rn = solver.equilibrium_table(RISK_NEUTRAL, alpha)
            rb = solver.robust_table(alpha=alpha, samples=self.sweep_samples)
            for arm in game.TREATMENTS:
                _require(_table_euros(rn, arm) == PAPER_TABLES[alpha][arm],
                         f"risk-neutral table alpha={alpha} {arm}")
                _require(_table_euros(rb, arm) == PAPER_ROBUST[alpha][arm],
                         f"robust table alpha={alpha} {arm}")

    def run(self, op: SolveOp):
        spec = game.GameSpec(grid_step=Money.parse(op.step))
        u = PowerUtility(op.rho)
        if op.kind == "equilibrium_table":
            return solver.equilibrium_table(u, op.alpha, spec)
        if op.kind == "robust_table":
            return solver.robust_table(alpha=op.alpha, samples=self.sweep_samples, game=spec)
        if op.kind == "hypothesis_report":
            return solver.hypothesis_report(op.alpha, spec)
        curve = game.build_success_curve(game.make_scenario(op.arm), op.alpha, spec)
        records = solver.enumerate_all_profiles(curve, u, spec, cap=self.enumeration_cap)
        return curve, u, spec, records

    def check(self, op: SolveOp, out) -> dict:
        if op.kind == "hypothesis_report":
            _require(tuple(s.label for s in out.summaries) == solver.TABLE_TREATMENTS,
                     "hypothesis report arms")
        elif op.kind != "enumerate_all_profiles":
            _check_table(out)
        else:
            curve, u, spec, records = out
            symmetric = [r for r in records if r.profile.is_symmetric]
            _require(symmetric == solver.enumerate_symmetric(curve, u, spec, "raw"),
                     "symmetric equilibria of the full enumeration differ from "
                     "enumerate_symmetric")
        return {}

    def cleanup(self, op) -> None:
        pass


# --- montecarlo ----------------------------------------------------------------

@dataclass(frozen=True)
class MonteCarloOp:
    kind: str
    seed: int
    effect_arm: str


class MonteCarlo:
    """One replication per operation: simulate, build the dataset, estimate the ATEs."""

    name = "montecarlo"
    modules = ("thresholdgame.simulator", "thresholdgame.econometrics")
    n_subjects = 1500
    effect = 0.5
    #: Half the replications take the null default (the criterion-6 path).
    kinds = ("null", "null", "null", "arm_effect", "best_responder", "pessimistic")

    def blocks(self, rng):
        while True:
            kinds = list(self.kinds)
            rng.shuffle(kinds)
            yield [MonteCarloOp(k, rng.randrange(2 ** 31), rng.choice(("AR", "RA", "AA")))
                   for k in kinds]

    def config(self, op: MonteCarloOp) -> simulator.SimConfig:
        extra = {
            "null": {},
            "arm_effect": {"arm_effects": ((op.effect_arm, self.effect),)},
            "best_responder": {"rule": simulator.BehavioralRule(kind="belief-best-responder")},
            "pessimistic": {"resolution_policy": "pessimistic"},
        }[op.kind]
        return simulator.SimConfig(n_subjects=self.n_subjects, **extra)

    def setup(self) -> None:
        op = MonteCarloOp("null", 0, "AA")
        self.check(op, self.run(op))

    def run(self, op: MonteCarloOp):
        records = simulator.run_experiment(self.config(op), op.seed)
        data = simulator.records_to_dataset(records)
        return records, data, econometrics.ate_report(data)

    def check(self, op: MonteCarloOp, out) -> dict:
        records, data, ate = out
        cfg = self.config(op)
        spec, n = cfg.game, cfg.n_subjects
        _require(len(records) == n and len(data) == n, f"{len(records)} rows, want {n}")
        per_arm: dict[str, int] = {}
        groups: dict[int, list] = {}
        for r in records:
            per_arm[r.treatment] = per_arm.get(r.treatment, 0) + 1
            groups.setdefault(r.group_id, []).append(r)
            _require(spec.on_grid(r.contribution), f"contribution {r.contribution} off the grid")
            want = spec.endowment - r.contribution if r.success else Money(0)
            _require(r.earnings == want, f"subject {r.subject_id}: earnings {r.earnings}")
        _require(per_arm == {a: n // len(cfg.arms) for a in cfg.arms}, f"arm sizes {per_arm}")
        for members in groups.values():
            _require(len(members) == cfg.group_size, "group size")
            _require(len({m.treatment for m in members}) == 1, "group spans arms")
            _require(len({m.success for m in members}) == 1, "group success differs")
            total = Money(sum(m.contribution.cents for m in members))
            _require(all(m.group_total == total for m in members), "group total")
        _require(all(math.isfinite(se) and se > 0 for se in ate.robust_se.values()),
                 f"ATE standard errors {ate.robust_se}")
        return {}

    def cleanup(self, op) -> None:
        pass


# --- pipeline ----------------------------------------------------------------

@dataclass(frozen=True)
class PipelineOp:
    op_id: int
    seed: int
    n: int
    #: Run ``analyze`` a second time and require byte-identical artifacts.
    repeat: bool

    @property
    def kind(self) -> str:
        return f"n={self.n}"


ANALYSIS_ARTIFACTS = (
    "balance.csv", "ate.csv", "contribution_model.csv", "beliefs_model.csv",
    "interactions_risk_aversion.csv", "interactions_ambiguity_aversion.csv",
    "pivotal_model.csv", "polarization.csv", "histogram.csv",
)


def _cli(argv: list[str]) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class Pipeline:
    """The CLI path in-process: ``simulate`` writes a CSV, ``analyze`` reads it back."""

    name = "pipeline"
    modules = ("thresholdgame.cli",)
    #: Two large runs per small one keep both the median and the tail
    #: (the 11th-largest latency) inside the n=6000 cluster, instead of on the
    #: edge between the two sizes, once a run completes 6 blocks.
    sizes = (1500, 6000, 6000)

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self._next_id = 0

    def blocks(self, rng):
        while True:
            sizes = list(self.sizes)
            rng.shuffle(sizes)
            ops = []
            for i, n in enumerate(sizes):
                # The determinism check re-runs analyze, so it samples one
                # operation per block to keep checks a small share of a run.
                ops.append(PipelineOp(self._next_id, rng.randrange(2 ** 31), n, i == 0))
                self._next_id += 1
            yield ops

    def _paths(self, op: PipelineOp) -> tuple[Path, Path, Path]:
        base = self.work_dir / f"op{op.op_id}"
        return base, base / "experiment.csv", base / "analysis"

    def setup(self) -> None:
        op = PipelineOp(-1, 0, 1500, True)
        try:
            self.check(op, self.run(op))
        finally:
            self.cleanup(op)

    def run(self, op: PipelineOp):
        _, csv_path, out_dir = self._paths(op)
        rc_sim = _cli(["simulate", "--seed", str(op.seed), "--n", str(op.n),
                       "--out", str(csv_path)])
        if rc_sim != 0:
            return rc_sim, None
        return rc_sim, _cli(["analyze", "--data", str(csv_path), "--out", str(out_dir)])

    def check(self, op: PipelineOp, out) -> dict:
        rc_sim, rc_analyze = out
        _require(rc_sim == 0 and rc_analyze == 0, f"exit codes {rc_sim}, {rc_analyze}")
        base, csv_path, out_dir = self._paths(op)
        with open(csv_path, encoding="utf-8") as fh:
            rows = sum(1 for line in fh if not line.startswith("#")) - 1
        _require(rows == op.n, f"{rows} data rows, want {op.n}")
        first = {name: (out_dir / name).read_bytes() for name in ANALYSIS_ARTIFACTS
                 if (out_dir / name).is_file()}
        _require(len(first) == len(ANALYSIS_ARTIFACTS) and all(first.values()),
                 f"artifacts written: {sorted(first)}")
        if op.repeat:
            repeat_dir = base / "analysis_repeat"
            _require(_cli(["analyze", "--data", str(csv_path), "--out", str(repeat_dir)]) == 0,
                     "repeat analyze failed")
            for name, content in first.items():
                _require((repeat_dir / name).read_bytes() == content,
                         f"repeat analyze changed {name}")
        artifact_bytes = csv_path.stat().st_size + sum(len(c) for c in first.values())
        return {"cli.artifact_bytes": artifact_bytes}

    def cleanup(self, op: PipelineOp) -> None:
        shutil.rmtree(self._paths(op)[0], ignore_errors=True)
