#!/usr/bin/env python3
"""Benchmark of the thresholdgame package: one closed-loop workload per run.

    python3 perfbench/run.py --workload {solve,montecarlo,pipeline} \
        --seed N --seconds S --trace {0,1}

One client sends the next operation only after the previous one returned.
Every timing is rescaled to a reference machine speed measured beside it
(see ``machine.py``); the raw wall times are in the details.  Operations run
until their summed rescaled latency reaches ``--seconds``, finishing the
current input block.  Output checks run between operations, outside the
timed region.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs the same operations untraced and then traced and prints the per-layer
metrics.  The last line of standard output is the result as JSON; the line
before it holds the environment and details.  Run from a checkout: the
package is imported from its ``src/`` directory and nowhere else.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from machine import Reference
from tracing import OP_SPAN, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

WORKLOADS = ("solve", "montecarlo", "pipeline")
BLAS_THREADS = "1"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
#: Fresh interpreters started per run to time set-up; the median is reported.
SETUP_REPEATS = 3
#: The tail is the highest percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

E2E_UNITS = {
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer span statistics, reported per operation.
SPAN_STATS = {
    "game.build_success_curve": ("calls", "busy_ms"),
    "preferences.condition_from_curve": ("calls", "busy_ms"),
    "solver.equilibrium_table": ("calls", "busy_ms", "self_ms"),
    "solver.enumerate_symmetric": ("calls", "busy_ms", "self_ms"),
    "solver.robust_table": ("calls", "busy_ms", "self_ms"),
    "solver.hypothesis_report": ("calls", "busy_ms", "self_ms"),
    "solver.enumerate_all_profiles": ("calls", "busy_ms", "self_ms"),
    "simulator.run_experiment": ("busy_ms", "self_ms"),
    "simulator.randomize": ("calls", "busy_ms"),
    "simulator.draw_covariates": ("calls", "busy_ms"),
    "simulator.gen_belief": ("calls", "busy_ms"),
    "simulator.gen_contribution": ("calls", "busy_ms"),
    "simulator.realize_payoffs": ("calls", "busy_ms"),
    "simulator.records_to_dataset": ("busy_ms",),
    "data.Dataset.numeric": ("calls", "busy_ms"),
    "data.Dataset.strings": ("calls", "busy_ms"),
    "data.Dataset.read_csv": ("busy_ms",),
    "data.Dataset.write_csv": ("busy_ms",),
    "econometrics.build_design": ("calls", "busy_ms"),
    "econometrics.ols_hc1": ("calls", "busy_ms"),
    "econometrics.arm_dummies": ("calls", "busy_ms"),
    "econometrics.polarization": ("calls", "busy_ms"),
    "econometrics.balance_table": ("busy_ms",),
    "econometrics.ate_report": ("busy_ms",),
    "cli.main": ("busy_ms", "self_ms"),
    "cli.cmd_simulate": ("busy_ms", "self_ms"),
    "cli.cmd_analyze": ("busy_ms", "self_ms"),
}
#: Counters summed over the run and reported per operation.
COUNTERS = {
    "solver.robust_table.utilities": "count",
    "solver.enumerate_all_profiles.profiles": "count",
    "solver.enumerate_all_profiles.equilibria": "count",
    "simulator.subjects": "count",
    "data.Dataset.read_csv.bytes": "bytes",
    "data.Dataset.write_csv.bytes": "bytes",
    "econometrics.build_design.rows_dropped": "count",
    "econometrics.balance_table.tests": "count",
    "econometrics.polarization.permutations": "count",
    "cli.artifact_bytes": "bytes",
}
LAYERS = ("game", "preferences", "solver", "simulator", "data", "econometrics", "cli")
#: Third-party and package import cost, from ``-X importtime`` in a fresh interpreter.
IMPORT_PREFIXES = {"numpy": "numpy", "scipy": "scipy", "package": "thresholdgame"}


def per_layer_units() -> dict[str, str]:
    units = {f"import.{k}_ms": "ms" for k in IMPORT_PREFIXES}
    for name, stats in SPAN_STATS.items():
        for stat in stats:
            units[f"{name}.{stat}"] = "count" if stat == "calls" else "ms"
    units.update(COUNTERS)
    units["solver.enumerate_all_profiles.equilibria_per_profile"] = "ratio"
    for layer in LAYERS + ("glue",):
        units[f"layer.{layer}.self_ms"] = "ms"
    units.update({
        "trace.op_ms": "ms",
        "trace.spans": "count",
        "trace.ops_per_s": "ops/s",
        "trace.untraced_ops_per_s": "ops/s",
        "trace.overhead_share": "ratio",
    })
    return units


# --- environment ----------------------------------------------------------------

def _git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it; 'unknown' if absent."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "git_commit": _git_commit(),
        "src_lines": src_lines,
    }


# --- set-up: fresh interpreters ------------------------------------------------------

def _fresh_import(modules, importtime: bool = False) -> tuple[float, str]:
    """Seconds from spawning an interpreter until it has imported ``modules``."""
    code = (f"import sys, time; sys.path.insert(0, {str(SRC)!r}); "
            + "".join(f"import {m}; " for m in modules)
            + "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + ["-c", code]
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.split()[-1]) - start, proc.stderr


def setup_seconds(modules) -> tuple[list[float], list[float], Reference]:
    """Wall and rescaled seconds of SETUP_REPEATS fresh imports."""
    reference = Reference()
    wall, windows = [], []
    for _ in range(SETUP_REPEATS):
        reference.sample(0.5)
        start = time.perf_counter()
        wall.append(_fresh_import(modules)[0])
        windows.append((start, time.perf_counter()))
    reference.sample(0.5)
    return wall, [t * reference.scale(*w) for t, w in zip(wall, windows)], reference


def import_breakdown(modules) -> dict[str, float]:
    """ms of numpy, scipy and the package's own modules (numpy and scipy excluded)."""
    reference = Reference()
    reference.sample(0.5)
    start = time.perf_counter()
    _, log = _fresh_import(modules, importtime=True)
    scale = reference.scale(start, time.perf_counter())
    reference.sample(0.5)
    entries = []
    for line in log.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(parts[1]) / 1000.0))

    def kind(name: str) -> str | None:
        for key, prefix in IMPORT_PREFIXES.items():
            if name == prefix or name.startswith(prefix + "."):
                return key
        return None

    # Each import counts once, for the outermost numpy, scipy or package
    # module above it; numpy and scipy time is taken out of the package's.
    totals = dict.fromkeys(IMPORT_PREFIXES, 0.0)
    stack: list[tuple[int, str | None]] = []
    # -X importtime prints children before parents; reversed, parents come first.
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        mine = kind(name)
        above = [k for _, k in stack if k is not None]
        if mine in ("numpy", "scipy") and not ({"numpy", "scipy"} & set(above)):
            totals[mine] += cumulative
            if "package" in above:
                totals["package"] -= cumulative
        elif mine == "package" and not above:
            totals["package"] += cumulative
        stack.append((depth, mine))
    return {f"import.{k}_ms": v * scale for k, v in totals.items()}


# --- the closed loop -----------------------------------------------------------------

class Loop:
    """Runs operations one at a time, timing each and checking it afterwards.

    Between operations, outside the timed region, it samples the machine speed."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.reference = Reference()
        self.latencies: list[float] = []
        #: perf_counter() at the start and end of each operation.
        self.windows: list[tuple[float, float]] = []
        self.kinds: list[str] = []
        self.failures: list[str] = []

    def run_op(self, op) -> None:
        op_id = len(self.latencies)
        out, error = None, None
        start = time.perf_counter()
        try:
            if self.tracer is None:
                out = self.workload.run(op)
            else:
                with self.tracer.operation(op_id):
                    out = self.workload.run(op)
        except Exception:  # a failed operation is counted, and the run goes on
            error = traceback.format_exc(limit=3)
        end = time.perf_counter()
        latency = end - start
        self.latencies.append(latency)
        self.windows.append((start, end))
        self.kinds.append(op.kind)
        if error is None:
            try:
                counters = self.workload.check(op, out)
                if self.tracer is not None:
                    self.tracer.counts.update(counters)
            except Exception:  # CheckFailed, or a check that could not run
                error = traceback.format_exc(limit=3)
        self.workload.cleanup(op)
        self.reference.sample(latency)
        if error is not None:
            self.failures.append(f"op {op_id} {op}: {error.strip().splitlines()[-1]}")

    def rescaled(self) -> list[float]:
        """Each latency rescaled by the machine speed in the seconds around it."""
        return [t * self.reference.scale(*w) for t, w in zip(self.latencies, self.windows)]

    def run_for(self, blocks, seconds: float) -> list:
        """Whole blocks until the rescaled timed total reaches ``seconds``; returns
        the ops run.  Stopping on rescaled time keeps the number of operations,
        and with it the tail percentile, from moving with the host's speed."""
        done = []
        while sum(self.rescaled()) < seconds:
            for op in next(blocks):
                self.run_op(op)
                done.append(op)
        return done


def tail(latencies: list[float]) -> dict:
    """The highest percentile with TAIL_BEYOND samples above it; the maximum in a short run."""
    ordered = sorted(latencies)
    n = len(ordered)
    i = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1
    return {"percentile": 100.0 * (i + 1) / len(ordered), "value_ms": ordered[i] * 1000.0,
            "samples": len(ordered), "samples_beyond": len(ordered) - i - 1}


def make_workload(name: str, work_dir: Path):
    import workloads
    if name == "solve":
        return workloads.Solve()
    if name == "montecarlo":
        return workloads.MonteCarlo()
    return workloads.Pipeline(work_dir)


def layer_metrics(tracer, n_ops: int, scale: float) -> dict[str, float]:
    """Per-operation layer figures; times are multiplied by ``scale``."""
    summary = tracer.summary()
    zero = {"calls": 0, "busy_ms": 0.0, "self_ms": 0.0}
    metrics = {}
    for name, stats in SPAN_STATS.items():
        s = summary.get(name, zero)
        for stat in stats:
            metrics[f"{name}.{stat}"] = s[stat] / n_ops * (1.0 if stat == "calls" else scale)
    for name in COUNTERS:
        metrics[name] = tracer.counts.get(name, 0) / n_ops
    profiles = tracer.counts.get("solver.enumerate_all_profiles.profiles", 0)
    metrics["solver.enumerate_all_profiles.equilibria_per_profile"] = (
        tracer.counts.get("solver.enumerate_all_profiles.equilibria", 0) / profiles
        if profiles else 0.0)
    layer_self = dict.fromkeys(LAYERS + ("glue",), 0.0)
    for name, s in summary.items():
        layer = "glue" if name == OP_SPAN else name.split(".")[0]
        layer_self[layer] += s["self_ms"]
    for layer, value in layer_self.items():
        metrics[f"layer.{layer}.self_ms"] = value / n_ops * scale
    metrics["trace.spans"] = len(tracer.spans) / n_ops
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (SRC / "thresholdgame" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout", file=sys.stderr)
        return 2
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(SRC))
    import thresholdgame
    if Path(thresholdgame.__file__).resolve().parent != SRC / "thresholdgame":
        print(f"error: imported thresholdgame from {thresholdgame.__file__}", file=sys.stderr)
        return 2

    work_dir = OUT_DIR / f"work-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run(args, work_dir: Path) -> int:
    workload = make_workload(args.workload, work_dir)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "environment": environment(),
               "closed_loop_clients": 1}
    metrics: dict[str, float] = {}
    setup_error = None
    if args.trace == 0:
        wall, setups, reference = setup_seconds(workload.modules)
        metrics["setup_s"] = statistics.median(setups)
        details["setup_s_samples"] = setups
        details["setup_s_wall_samples"] = wall
        details["setup_machine"] = reference.details()
    else:
        metrics.update(import_breakdown(workload.modules))
    try:
        workload.setup()
    except Exception:  # reported as an incorrect run, not a crash
        setup_error = traceback.format_exc(limit=3)

    blocks = workload.blocks(random.Random(args.seed))
    plain = Loop(workload)
    if args.trace == 0:
        plain.run_for(blocks, args.seconds)
        loops = [plain]
        details["machine"] = plain.reference.details()
        details["wall"] = {"ops_per_s": len(plain.latencies) / sum(plain.latencies),
                           "op_p50_ms": statistics.median(plain.latencies) * 1000.0,
                           "op_tail_ms": tail(plain.latencies)["value_ms"]}
        lat = plain.rescaled()
        details["tail"] = tail(lat)
        metrics.update({
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_ms": statistics.median(lat) * 1000.0,
            "op_tail_ms": details["tail"]["value_ms"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    else:
        # Untraced first, then the identical operations traced: the gap between
        # the two is the tracing overhead.
        ops = plain.run_for(blocks, args.seconds / 2)
        tracer = Tracer()
        traced = Loop(workload, tracer)
        with tracer.installed():
            for op in ops:
                traced.run_op(op)
        loops = [plain, traced]
        details["machine"] = {"untraced": plain.reference.details(),
                              "traced": traced.reference.details()}
        # Each half is rescaled by the machine speed measured beside it, so the
        # overhead does not carry a change of host speed between the halves.
        untraced_s, traced_s = sum(plain.rescaled()), sum(traced.rescaled())
        metrics.update(layer_metrics(tracer, len(ops), traced_s / sum(traced.latencies)))
        metrics.update({
            "trace.op_ms": traced_s * 1000.0 / len(ops),
            "trace.ops_per_s": len(ops) / traced_s,
            "trace.untraced_ops_per_s": len(ops) / untraced_s,
            "trace.overhead_share": traced_s / untraced_s - 1.0,
        })
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
        tracer.write(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))

    attempted = sum(len(loop.latencies) for loop in loops)
    failures = [f for loop in loops for f in loop.failures]
    details["fail_share"] = {"value": len(failures) / attempted, "unit": "ratio"}
    details["failures"] = failures[:10]
    details["setup_error"] = setup_error
    by_kind: dict[str, list[float]] = {}
    for kind, latency in zip(plain.kinds, plain.rescaled()):
        by_kind.setdefault(kind, []).append(latency * 1000.0)
    details["latency_ms_by_kind"] = {
        kind: {"ops": len(v), "p50": statistics.median(v)} for kind, v in sorted(by_kind.items())}

    units = E2E_UNITS if args.trace == 0 else per_layer_units()
    result = {
        "correct": setup_error is None and not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {"details": details, "result": result,
              "wall_latencies_ms": [list(zip(loop.kinds, (1000.0 * t for t in loop.latencies)))
                                    for loop in loops]}
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record) + "\n")
    print(json.dumps({"details": details}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
