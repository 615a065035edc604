import os
import subprocess
import sys
from pathlib import Path

from thresholdgame.cli import main

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def run_script(name, *args):
    # Put src/ first so the scripts run against this checkout, installed or not.
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": path})


def test_reproduce_benchmark_prints_both_evaluations():
    result = run_script("reproduce_benchmark.py")
    assert result.returncode == 0, result.stderr
    assert "pessimist (alpha=1)" in result.stdout
    assert "optimist (alpha=0)" in result.stdout
    assert "Equilibrium/Treatment" in result.stdout
    assert result.stdout == (ROOT / "tests" / "golden" / "reproduce_benchmark.txt").read_text()


def test_run_default_experiment_smoke(tmp_path):
    out = tmp_path / "exp.csv"
    result = run_script("run_default_experiment.py", "--n", "200", "--seed", "1",
                        "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert "== balance" in result.stdout
    assert "Design power" in result.stdout
    assert out.exists()


def test_ate_coverage_audit_smoke():
    result = run_script("ate_coverage_audit.py", "--seeds", "5")
    assert result.returncode == 0, result.stderr
    assert "two-SE coverage" in result.stdout


def test_run_default_experiment_writes_the_simulate_csv(tmp_path):
    # The script's dataset is `thresholdgame simulate`'s, provenance header included.
    out = tmp_path / "exp.csv"
    result = run_script("run_default_experiment.py", "--n", "200", "--seed", "1",
                        "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith(f"wrote {out} (200 subjects)\n== balance\n")
    reference = tmp_path / "simulate.csv"
    assert main(["simulate", "--n", "200", "--seed", "1", "--out", str(reference)]) == 0
    assert out.read_bytes() == reference.read_bytes()
