import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from thresholdgame import cli
from thresholdgame.cli import main


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_curve_prints_all_scenarios(capsys):
    code, out = run(["curve", "--alpha", "1"], capsys)
    assert code == 0
    assert "RR (alpha=1):" in out and "AA (alpha=1):" in out
    assert "C >=  0: p = 0" in out
    assert "C >= 10: p = 0.8" in out


def test_curve_writes_artifact(tmp_path, capsys):
    out_file = tmp_path / "curves.json"
    code, _ = run(["curve", "--scenario", "RR", "--out", str(out_file)], capsys)
    assert code == 0
    lines = out_file.read_text().splitlines()
    assert lines[0].startswith("# tool=thresholdgame")
    payload = json.loads("\n".join(ln for ln in lines if not ln.startswith("#")))
    assert payload[0]["breakpoints"][1] == {"total": "5.00", "prob": "0.5"}


def test_solve_prints_benchmark_table(capsys):
    code, out = run(["solve", "--alpha", "1", "--rho", "1", "--mode", "paper"], capsys)
    assert code == 0
    lines = out.splitlines()
    table_start = next(i for i, ln in enumerate(lines)
                       if ln.startswith("Equilibrium/Treatment"))
    assert lines[table_start].split() == ["Equilibrium/Treatment", "RR", "RA", "AR", "AA"]
    assert lines[table_start + 3].split() == ["C=10", "Y", "Y", "Y", "Y"]


def test_solve_csv_artifact(tmp_path, capsys):
    out_file = tmp_path / "solve.csv"
    code, _ = run(["solve", "--alpha", "1", "--rho", "1", "--mode", "paper",
                   "--out", str(out_file)], capsys)
    assert code == 0
    body = [ln for ln in out_file.read_text().splitlines() if not ln.startswith("#")]
    assert body[0] == "treatment,total,kind,zero_payoff,dominated_textbook,condition,rho_threshold"
    assert any(ln.startswith("AA,10,strict") for ln in body)


def test_sweep_robust_table(capsys):
    code, out = run(["sweep", "--alpha", "1"], capsys)
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln.startswith("C=")]
    assert lines[0].split() == ["C=0", "Y", "Y"]
    assert lines[2].split() == ["C=10", "Y"]


def test_hypotheses_report(capsys):
    code, out = run(["hypotheses", "--alpha", "1"], capsys)
    assert code == 0
    assert "H1" in out and "supported" in out


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("golden, argv", [
    ("solve_raw_alpha1_rho0.7_step0.50.csv",
     ["solve", "--alpha", "1", "--rho", "0.7", "--mode", "raw", "--grid-step", "0.50"]),
    ("sweep_alpha1_step0.50.csv", ["sweep", "--alpha", "1", "--grid-step", "0.50"]),
    ("hypotheses_alpha0.5.txt", ["hypotheses", "--alpha", "0.5"]),
    # At alpha 0 the cells' rho* are 1.0, 1.15, 4.92, 7.21 and 9.85: the range
    # [0.5, 6] keeps the cells above 6 and drops those below.
    ("sweep_alpha0_rho0.5-6.csv",
     ["sweep", "--alpha", "0", "--rho-min", "0.5", "--rho-max", "6", "--samples", "25"]),
])
def test_theory_artifacts_match_golden_bytes(tmp_path, capsys, golden, argv):
    out = tmp_path / golden
    assert run(argv + ["--out", str(out)], capsys)[0] == 0
    assert out.read_bytes() == (GOLDEN / golden).read_bytes()


#: Declared simulate goldens (RNG format 2): file stem -> extra flags.  The
#: step-0.50 run puts half-euro amounts in the money columns.
SIMULATE_GOLDENS = {
    "n200_seed3": [],
    "n200_seed3_step0.50": ["--grid-step", "0.50", "--resolution", "pessimistic"],
}


def test_simulate_and_analyze_match_golden_bytes(tmp_path, capsys):
    for name, flags in SIMULATE_GOLDENS.items():
        data = tmp_path / f"simulate_v2_{name}.csv"
        argv = ["simulate", "--n", "200", "--seed", "3", "--out", str(data)] + flags
        assert run(argv, capsys)[0] == 0
        assert data.read_bytes() == (GOLDEN / data.name).read_bytes()
        # The analyze goldens keep their fixed inputs, the RNG format 1 files
        # of the same commands; analyze records the data file's base name.
        out_dir = tmp_path / f"analysis_{name}"
        argv = ["analyze", "--data", str(GOLDEN / f"simulate_{name}.csv"), "--out", str(out_dir)]
        assert run(argv, capsys)[0] == 0
        expected = GOLDEN / f"analyze_{name}"
        assert sorted(p.name for p in out_dir.iterdir()) == \
            sorted(p.name for p in expected.iterdir())
        for path in expected.iterdir():
            assert (out_dir / path.name).read_bytes() == path.read_bytes(), path.name


def test_simulate_bytes_do_not_depend_on_simd_dispatch(tmp_path):
    # numpy's AVX-512 log/cos/sin differ from libm in the last bits.  The
    # simulator writes only libm normals; numpy's reach the output only
    # through rounding, after values near a rounding tie are recomputed
    # through libm.  The goldens hold with that dispatch off, and a run large
    # enough to hit such last-bit cases is byte-identical with it on and off.
    root = Path(__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    off = "X86_V4 AVX512_ICL AVX512_SPR"

    def simulate(out, flags, disabled):
        env = {**os.environ, "PYTHONPATH": path, "NPY_DISABLE_CPU_FEATURES": disabled}
        proc = subprocess.run(
            [sys.executable, "-m", "thresholdgame.cli", "simulate", "--out", str(out), *flags],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    for name, flags in SIMULATE_GOLDENS.items():
        got = simulate(tmp_path / f"{name}.csv", ["--n", "200", "--seed", "3", *flags], off)
        assert got == (GOLDEN / f"simulate_v2_{name}.csv").read_bytes(), name
    big = ["--n", "6000", "--seed", "5"]
    assert simulate(tmp_path / "on.csv", big, "") == simulate(tmp_path / "off.csv", big, off)


def test_simulate_header_declares_the_rng_format(tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert run(["simulate", "--n", "20", "--seed", "1", "--out", str(out)], capsys)[0] == 0
    config = next(ln for ln in out.read_text().splitlines() if ln.startswith("# config="))
    assert json.loads(config[len("# config="):])["rng_format"] == 2


def test_simulate_requires_seed(tmp_path, capsys):
    code, _ = run(["simulate", "--n", "20", "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2


def test_simulate_deterministic_bytes(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(["simulate", "--n", "100", "--seed", "7", "--out", str(a)], capsys)[0] == 0
    assert run(["simulate", "--n", "100", "--seed", "7", "--out", str(b)], capsys)[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert a.read_text().splitlines()[0].startswith("# tool=thresholdgame")


def test_simulate_then_analyze(tmp_path, capsys):
    data = tmp_path / "exp.csv"
    assert run(["simulate", "--n", "500", "--seed", "3", "--out", str(data)], capsys)[0] == 0
    out_dir = tmp_path / "analysis"
    code, out = run(["analyze", "--data", str(data), "--out", str(out_dir)], capsys)
    assert code == 0
    assert "== balance" in out and "== ate" in out and "== pivotal_model" in out
    produced = {p.name for p in out_dir.iterdir()}
    assert {"balance.csv", "ate.csv", "contribution_model.csv", "beliefs_model.csv",
            "pivotal_model.csv", "polarization.csv", "histogram.csv"} <= produced


def test_analyze_missing_file_is_config_error(capsys):
    code, _ = run(["analyze", "--data", "/nonexistent.csv"], capsys)
    assert code == 2


def test_analyze_money_off_the_cent_grid_writes_nothing(tmp_path, capsys):
    data = tmp_path / "fractional.csv"
    data.write_text("treatment,contribution\nRR,2.50\nAA,2.555\n")
    code, _ = run(["analyze", "--data", str(data), "--out", str(tmp_path / "out")], capsys)
    assert code == 2
    assert not (tmp_path / "out").exists()


def test_analyze_field_over_the_csv_limit_is_config_error(tmp_path, capsys):
    # The csv module refuses a field over 131,072 characters.
    data = tmp_path / "huge.csv"
    data.write_text("# metadata\nnote,x\na,1\n" + "b" * 200_000 + ",2\n")
    assert main(["analyze", "--data", str(data), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert re.search(r"huge\.csv: line 3 after the '#' lines: field larger than field limit", err)
    assert not (tmp_path / "out").exists()


def test_power_command(capsys):
    code, out = run(["power", "--arms", "4", "--n", "1500", "--sd", "1.39"], capsys)
    assert code == 0
    assert "0.2844" in out


@pytest.mark.parametrize("arms, n", [("4", "1501"), ("0", "1500")])
def test_power_rejects_n_that_arms_do_not_split(capsys, arms, n):
    assert main(["power", "--arms", arms, "--n", n]) == 2
    err = capsys.readouterr().err
    assert f"n={n}" in err and f"arms={arms}" in err


def test_power_with_mc(capsys):
    code, out = run(["power", "--arms", "2", "--n", "750", "--sd", "1.39",
                     "--mc", "2000", "--seed", "1"], capsys)
    assert code == 0
    assert "Monte-Carlo rejection" in out


def test_power_seed_from_config_equals_seed_flag(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 5, "mc": 200}))
    from_config, from_flag = tmp_path / "config.csv", tmp_path / "flag.csv"
    assert run(["power", "--config", str(config), "--out", str(from_config)], capsys)[0] == 0
    assert run(["power", "--seed", "5", "--mc", "200", "--out", str(from_flag)], capsys)[0] == 0
    assert "# seed=5" in from_flag.read_text().splitlines()
    assert from_config.read_bytes() == from_flag.read_bytes()


def test_config_file_with_flag_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"alpha": 0.0, "rho-min": 0.5}))
    code, out = run(["sweep", "--config", str(config)], capsys)
    assert code == 0
    assert "alpha=0" in out
    code, out = run(["sweep", "--config", str(config), "--alpha", "1"], capsys)
    assert code == 0
    assert "alpha=1" in out  # flag wins


#: (subcommand, base options, flag, value): every flag but --config, --out and
#: --data, each with a value as a JSON config holds it, over a small base run.
CONFIG_CASES = [
    ("curve", {}, "scenario", "RA"),
    ("curve", {}, "alpha", 0),
    ("curve", {}, "grid-step", "0.50"),
    ("solve", {}, "alpha", 1),
    ("solve", {}, "rho", 0.4),
    ("solve", {}, "mode", "raw"),
    ("solve", {}, "grid-step", "0.50"),
    ("sweep", {"samples": 5}, "alpha", 0.3),
    ("sweep", {"samples": 5}, "rho-min", 0.5),
    ("sweep", {"samples": 5}, "rho-max", 3),
    ("sweep", {}, "samples", "10"),
    ("sweep", {"samples": 5}, "grid-step", "0.50"),
    ("hypotheses", {}, "alpha", "0.5"),
    ("hypotheses", {}, "grid-step", "2.50"),
    ("simulate", {"seed": 1}, "n", 40),
    ("simulate", {"n": 20}, "seed", 2),
    ("simulate", {"n": 20, "seed": 1}, "resolution", "pessimistic"),
    ("simulate", {"n": 20, "seed": 1}, "grid-step", "0.50"),
    ("power", {}, "arms", 2),
    ("power", {}, "n", 1000),
    ("power", {}, "sd", 2),
    ("power", {}, "alpha-level", 0.1),
    ("power", {}, "power", 0.9),
    ("power", {"seed": 1}, "mc", 50),
    ("power", {"mc": 50}, "seed", 3),
]


def flags(options):
    return [arg for key, value in options.items() for arg in (f"--{key}", str(value))]


def write_config(tmp_path, doc):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_config_cases_cover_every_flag():
    _, commands = cli._build_parser()
    expected = {(name, opt[2:]) for name, parser in commands.items() for action in parser._actions
                for opt in action.option_strings if opt.startswith("--")
                and opt not in ("--help", "--config", "--out", "--data")}
    assert {(command, flag) for command, _, flag, _ in CONFIG_CASES} == expected


@pytest.mark.parametrize("command, base, flag, value", CONFIG_CASES,
                         ids=[f"{c}-{f}" for c, _, f, _ in CONFIG_CASES])
def test_config_value_runs_like_its_flag(tmp_path, capsys, command, base, flag, value):
    out = tmp_path / "artifact"
    config = write_config(tmp_path, {flag: value})
    runs = []
    for argv in (flags({**base, flag: value}), flags(base) + ["--config", config]):
        code, stdout = run([command, *argv, "--out", str(out)], capsys)
        runs.append((code, stdout, out.read_bytes()))
        out.unlink()
    assert runs[0][0] == 0
    assert runs[1] == runs[0]


@pytest.mark.parametrize("command, doc, named", [
    ("sweep", {"samples": "x"}, "samples"),
    ("sweep", {"samples": None}, "samples"),
    ("curve", {"scenario": "XX"}, "scenario"),
    ("solve", {"mode": ["raw"]}, "mode"),
    ("hypotheses", {"grid-step": "a euro"}, "grid-step"),
    ("sweep", {"smaples": 5}, "smaples"),
    ("sweep", {"rho_min": 0.5}, "rho_min"),
    ("sweep", {"utility": {"family": "power", "rho": 2}}, "utility"),
    ("solve", {"out": "x.csv"}, "out"),
    ("solve", {"utility": "power"}, "utility"),
    ("simulate", {"rule": ["belief-best-responder"]}, "rule"),
])
def test_bad_config_key_or_value_exits_2_and_names_it(tmp_path, capsys, command, doc, named):
    assert main([command, "--config", write_config(tmp_path, doc)]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("argv, doc, named", [
    (["simulate", "--n", "20", "--seed", "1"], {"rule": {"noise": "no"}}, "rule.noise"),
    (["simulate", "--n", "20", "--seed", "1"],
     {"rule": {"kind": "belief-best-responder", "pessimism": "x"}}, "rule.pessimism"),
    (["solve"], {"utility": {"family": "table", "points": "ab"}}, "utility.points"),
], ids=("rule.noise", "rule.pessimism", "utility.points"))
def test_config_only_objects_are_typed(tmp_path, capsys, monkeypatch, argv, doc, named):
    monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path))
    assert main([*argv, "--config", write_config(tmp_path, doc)]) == 2
    assert named in capsys.readouterr().err
    assert not (tmp_path / "experiment.csv").exists()


def test_overflow_is_a_numerical_failure(tmp_path, capsys):
    # Interpolating u(4) multiplies 1e308 by 4 before dividing by 5, which
    # overflows to inf, and inf has no exact value: exit 3, with a message and
    # no traceback.
    doc = {"utility": {"family": "table", "points": [[0, 0], [5, 1e308]]}}
    assert main(["solve", "--config", write_config(tmp_path, doc)]) == 3
    assert "overflow" in capsys.readouterr().err


def test_solve_decides_exponents_past_float_range(capsys):
    # 5.0 ** 500 is no float, but a power utility's cells are decided by
    # comparing rho with each rho*, so no utility value is computed.
    assert main(["solve", "--rho", "500"]) == 0
    table = capsys.readouterr().out.split("\n\n")[-1].split("\n")
    assert table[:4] == ["Equilibrium/Treatment  RR  RA  AR  AA",
                         "C=0                    Y   Y",
                         "C=5                            Y",
                         "C=10                               Y"]


def test_sweep_decides_exponents_past_float_range(capsys):
    tables = []
    for top in ("1000", "400"):
        code, out = run(["sweep", "--rho-max", top], capsys)
        assert code == 0
        tables.append(out.splitlines()[1:])
    assert tables[0] == tables[1]


def test_analyze_takes_its_data_only_from_the_flag(tmp_path, capsys):
    config = write_config(tmp_path, {"data": str(GOLDEN / "simulate_n200_seed3.csv")})
    assert main(["analyze", "--data", "/nonexistent.csv", "--config", config]) == 2
    assert "'data'" in capsys.readouterr().err


def config_line(path):
    return next(ln for ln in path.read_text().splitlines() if ln.startswith("# config="))


@pytest.mark.parametrize("argv, key, docs", [
    (["solve"], "utility",
     [{"family": "power", "rho": 0.5}, {"family": "power", "rho": 2}]),
    (["simulate", "--n", "20", "--seed", "1"], "rule",
     [{"kind": "belief-best-responder", "pessimism": 0.2},
      {"kind": "belief-best-responder", "pessimism": 0.9}]),
])
def test_config_only_docs_are_in_the_header(tmp_path, capsys, argv, key, docs):
    headers = []
    for i, doc in enumerate(docs):
        out = tmp_path / f"{i}.csv"
        assert run([*argv, "--config", write_config(tmp_path, {key: doc}),
                    "--out", str(out)], capsys)[0] == 0
        headers.append(config_line(out))
        assert json.loads(headers[-1][len("# config="):])[key].items() >= doc.items()
    assert headers[0] != headers[1]


def test_simulate_writes_experiment_csv_by_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("THRESHOLDGAME_OUT", str(tmp_path))
    assert run(["simulate", "--n", "20", "--seed", "1"], capsys)[0] == 0
    assert (tmp_path / "experiment.csv").read_text().startswith("# tool=thresholdgame")


def test_simulate_rule_from_config(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(
        {"rule": {"kind": "altruist-fixed", "fixed_contribution": "2.00"}}))
    out = tmp_path / "fixed.csv"
    code, _ = run(["simulate", "--n", "20", "--seed", "1",
                   "--config", str(config), "--out", str(out)], capsys)
    assert code == 0
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    contribution_col = body[0].split(",").index("contribution")
    assert all(ln.split(",")[contribution_col] == "2.00" for ln in body[1:])


def test_simulate_bad_rule_is_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rule": {"kind": "altruist-fixed", "typo": 1}}))
    code, _ = run(["simulate", "--n", "20", "--seed", "1", "--config", str(config),
                   "--out", str(tmp_path / "x.csv")], capsys)
    assert code == 2


def test_equilibrium_selector_without_a_paper_total_is_config_error(tmp_path, capsys):
    # On the 2.50 grid AR and AA keep no paper-mode total, so the selector has
    # no contribution to give their subjects: exit 2, naming the arm, the
    # pessimism weight and the game, and write no data.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"rule": {"kind": "equilibrium-selector"}}))
    out = tmp_path / "sel.csv"
    code = main(["simulate", "--n", "200", "--seed", "1", "--grid-step", "2.50",
                 "--config", str(config), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2 and not out.exists()
    assert "arm AA" in err and "pessimism 1.0" in err and "grid_step=Money(cents=250)" in err


def test_out_dir_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("THRESHOLDGAME_OUT", str(tmp_path))
    code, _ = run(["simulate", "--n", "20", "--seed", "1", "--out", "sub/run.csv"], capsys)
    assert code == 0
    assert (tmp_path / "sub" / "run.csv").exists()


def test_bad_alpha_is_config_error(capsys):
    code, _ = run(["curve", "--alpha", "1.5"], capsys)
    assert code == 2


@pytest.mark.parametrize("mode, alpha, rho, step", [
    ("paper", 1.0, 1.0, "1.00"), ("raw", 1.0, 0.7, "0.50"), ("paper", 0.0, 3.0, "0.50"),
    ("raw", 0.3, 0.4, "1.00"),
])
def test_solve_builds_each_arm_once_and_prints_the_equilibrium_table(
        capsys, monkeypatch, mode, alpha, rho, step):
    import thresholdgame.game as game_mod
    import thresholdgame.solver as solver_mod
    from thresholdgame.game import GameSpec
    from thresholdgame.money import Money
    from thresholdgame.preferences import PowerUtility

    built = {"curves": 0, "tables": 0}

    def counted(fn, key):
        def wrapper(*args, **kwargs):
            built[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    # Every build, whoever asks for it, counts from an empty arm-curve cache:
    # the printed table reuses the curves that gave the rows.
    monkeypatch.setattr(game_mod, "build_success_curve",
                        counted(game_mod.build_success_curve, "curves"))
    game_mod.arm_curve.cache_clear()
    monkeypatch.setattr(solver_mod, "PayoffTable", counted(solver_mod.PayoffTable, "tables"))
    code, out = run(["solve", "--mode", mode, "--alpha", str(alpha), "--rho", str(rho),
                     "--grid-step", step], capsys)
    assert code == 0
    assert built == {"curves": 4, "tables": 4}
    monkeypatch.undo()
    table = solver_mod.equilibrium_table(PowerUtility(rho), alpha,
                                         GameSpec(grid_step=Money.parse(step)))
    assert out.rstrip("\n").endswith(table.render())


def rho_star_cases():
    """(alpha, step, r) with r at each finite rho* of alphas 0, 0.5 and 1 on
    steps 1.00 and 0.50, one and two ulps below it, and one ulp above."""
    from thresholdgame.game import GameSpec
    from thresholdgame.money import Money
    from thresholdgame.solver import hypothesis_report

    cases = []
    for alpha in (0.0, 0.5, 1.0):
        for step in ("1.00", "0.50"):
            report = hypothesis_report(alpha, GameSpec(grid_step=Money.parse(step)))
            stars = sorted({thr for s in report.summaries for _, thr in s.rho_thresholds
                            if thr is not None and thr > 0})
            for star in stars:
                below = math.nextafter(star, 0)
                cases += [(alpha, step, r) for r in (star, below, math.nextafter(below, 0),
                                                     math.nextafter(star, math.inf))]
    return cases


def test_paper_mode_answers_agree_at_every_rho_star(capsys):
    from thresholdgame.game import TREATMENTS, GameSpec, build_success_curve, make_scenario
    from thresholdgame.money import Money
    from thresholdgame.preferences import PowerUtility
    from thresholdgame.solver import enumerate_symmetric, equilibrium_table, robust_table

    cases = rho_star_cases()
    assert len(cases) == 88
    for alpha, step, r in cases:
        game, u = GameSpec(grid_step=Money.parse(step)), PowerUtility(r)
        table = equilibrium_table(u, alpha, game)
        cells = {(label, total.compact()) for label, total in table.cells}
        assert robust_table(alpha, (r, r), 1, game).cells == table.cells, (alpha, step, r)
        enumerated = {(label, rec.total.compact()) for label in TREATMENTS
                      for rec in enumerate_symmetric(
                          build_success_curve(make_scenario(label), alpha, game), u, game, "paper")}
        assert enumerated == cells, (alpha, step, r)
        code, out = run(["solve", "--mode", "paper", "--alpha", repr(alpha), "--rho", repr(r),
                         "--grid-step", step], capsys)
        assert code == 0
        assert out.rstrip("\n").endswith(table.render()), (alpha, step, r)
        assert set(re.findall(r"^  (\w+): C=(\S+) \(", out, re.M)) == cells, (alpha, step, r)


@pytest.mark.parametrize("top, kind", [(5 - 4e-13, "strict"), (5.0, "weak"), (5 + 4e-13, None)])
def test_table_utility_ties_are_decided_exactly(tmp_path, capsys, top, kind):
    # At alpha 1, RR's C=5 needs u(5) < 5*u(4); with u(4) = 1 that is u(5) < 5.
    from thresholdgame.money import Money
    from thresholdgame.preferences import TableUtility
    from thresholdgame.solver import equilibrium_table

    points = [[0, 0], [4, 1], [5, top]]
    config = write_config(tmp_path, {"utility": {"family": "table", "points": points}})
    code, out = run(["solve", "--mode", "raw", "--alpha", "1", "--config", config], capsys)
    assert code == 0
    assert re.findall(r"^  RR: C=5 \((\w+)", out, re.M) == ([kind] if kind else [])
    table = equilibrium_table(TableUtility(points), 1.0)
    assert out.rstrip("\n").endswith(table.render())
    assert table.has("RR", Money.from_euros(5)) == (kind == "strict")
