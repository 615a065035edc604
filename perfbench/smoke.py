#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke.py

Runs every workload briefly with tracing off and on and requires each metric
of BENCHMARK.json, with its unit, in the result.  Then it corrupts one result
per workload and requires the benchmark to count failed operations, and runs
the benchmark without the package source to require a non-zero exit.  Takes
about two minutes.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
from thresholdgame import cli, simulator, solver  # noqa: E402
from thresholdgame.money import Money  # noqa: E402


def _result(stdout: str) -> dict:
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    return result


def check_metrics() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert want[0] == run.E2E_UNITS, "BENCHMARK.json end_to_end differs from run.py"
    assert want[1] == run.per_layer_units(), "BENCHMARK.json per_layer differs from run.py"
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, proc.stderr
            result = _result(proc.stdout)
            assert result["correct"] and result["failed"] == 0, result
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want[trace], sorted(set(got) ^ set(want[trace]))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
            print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
                  f"{result['attempted']} operations")


def _corrupted_run(workload: str, owner, attr: str, corrupt) -> dict:
    """Run one workload in-process with ``owner.attr`` replaced by ``corrupt(original)``."""
    original = getattr(owner, attr)
    setattr(owner, attr, corrupt(original))
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.1",
                           "--trace", "0"])
    finally:
        setattr(owner, attr, original)
    assert rc == 0
    return _result(out.getvalue())


def drop_one_equilibrium(enumerate_all_profiles):
    def corrupt(*args, **kwargs):
        records = enumerate_all_profiles(*args, **kwargs)
        symmetric = [i for i, r in enumerate(records) if r.profile.is_symmetric]
        if symmetric:
            del records[symmetric[0]]
        return records
    return corrupt


def pay_a_loser(run_experiment):
    def corrupt(*args, **kwargs):
        records = run_experiment(*args, **kwargs)
        i = next(i for i, r in enumerate(records) if not r.success)
        records[i] = replace(records[i], earnings=Money.from_euros(1))
        return records
    return corrupt


def lose_an_artifact(cmd_analyze):
    def corrupt(args, config):
        rc = cmd_analyze(args, config)
        (Path(args.out) / "histogram.csv").unlink()
        return rc
    return corrupt


def check_corruption_fails() -> None:
    cases = [
        ("solve", solver, "enumerate_all_profiles", drop_one_equilibrium),
        ("montecarlo", simulator, "run_experiment", pay_a_loser),
        ("pipeline", cli, "cmd_analyze", lose_an_artifact),
    ]
    for workload, owner, attr, corrupt in cases:
        result = _corrupted_run(workload, owner, attr, corrupt)
        assert result["failed"] >= 1 and not result["correct"], result
        print(f"ok  {workload}: corrupted {attr} -> {result['failed']} of "
              f"{result['attempted']} operations failed")


def check_bare_directory_fails() -> None:
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    try:
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", "solve", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), proc.stdout
    print("ok  without the package source the benchmark exits with "
          f"code {proc.returncode} and prints no result")


def main() -> int:
    check_metrics()
    check_corruption_fails()
    check_bare_directory_fails()
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
