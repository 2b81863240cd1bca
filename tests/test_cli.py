import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import stochpid
from stochpid import cli
from stochpid.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, EXIT_REJECTED, _run_config, main
from stochpid.simulate import SimConfig


def write_config(path, **overrides):
    doc = {
        "plant": {"kind": "chain", "params": {"n": 2, "sigma": 0.2}},
        "gains": {"kind": "pid", "gains": [4000, 1600, 160]},
        "sim": {
            "dt": 1e-3,
            "horizon": 1.0,
            "paths": 300,
            "seed": 11,
            "record_stride": 100,
            "controller": "pid",
            "x0": [0, 0],
            "y_star": 1.0,
        },
    }
    for key, value in overrides.items():
        section, _, field = key.partition(".")
        if field:
            doc[section][field] = value
        else:
            doc[section] = value
    path.write_text(json.dumps(doc))
    return path


def test_help_lists_the_commands_and_no_private_name(capsys):
    with pytest.raises(SystemExit) as help_exit:
        main(["--help"])
    assert help_exit.value.code == EXIT_OK
    out = capsys.readouterr().out
    for command in ("design", "certify", "hurwitz", "simulate", "reproduce", "sweep"):
        assert re.search(rf"^ +{command} +\S", out, re.M), command
    # the module docstring is a developer note: none of its names belong in --help
    assert not re.search(r"\b_\w|\w\._|build_parser|\bmain\b|``", out), out


class TestDesign:
    def test_bench_pattern_admissible(self, tmp_path, capsys):
        out = tmp_path / "gains.json"
        code = main(["design", "--pattern", "bench3", "--k", "8.6", "--out", str(out)])
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["kind"] == "pid"
        assert doc["gains"] == [8.6, 21.5, 21.5, 8.6]
        captured = capsys.readouterr().out
        assert "admissible" in captured
        assert "0.325" in captured

    def test_bench_pattern_rejected(self):
        assert main(["design", "--pattern", "bench3", "--k", "8.5"]) == EXIT_REJECTED

    def test_geometric_pattern(self):
        code = main(["design", "--pattern", "geometric", "--k", "1300", "--n", "2", "--L", "1"])
        assert code == EXIT_OK
        code = main(["design", "--pattern", "geometric", "--k", "1200", "--n", "2", "--L", "1"])
        assert code == EXIT_REJECTED

    def test_lambda_pattern(self, capsys):
        code = main([
            "design", "--pattern", "lambda", "--lam", "1.0", "--n", "2",
            "--L", "1", "--betas", "0.4,0.1", "--k", "4000",
        ])
        assert code == EXIT_OK
        assert "4000" in capsys.readouterr().out

    def test_explicit_pd_gains(self, capsys):
        assert main(["design", "--gains", "3,4", "--kind", "pd"]) == EXIT_OK
        assert main(["design", "--gains", "3,1", "--kind", "pd"]) == EXIT_REJECTED
        # the PD inequality has no b term, so a b bound cannot be honoured
        # (check_inequality's rule, named by its parameter)
        assert main(["design", "--gains", "3,4", "--kind", "pd", "--b-lower", "2"]) == EXIT_CONFIG
        assert capsys.readouterr().err == ("config error: b_lower: expected 1 for PD gains, whose "
                                           "inequality has no b term, got 2.0\n")

    def test_missing_gains_is_config_error(self):
        assert main(["design"]) == EXIT_CONFIG

    @pytest.mark.parametrize("argv", [
        ["design", "--gains", "8.6,,21.5,21.5,8.6"],  # once read as four gains
        ["design", "--gains", "8.6,21.5,21.5,8.6,"],
        ["design", "--pattern", "lambda", "--lam", "1", "--n", "2", "--betas", "0.4, ,0.1"],
        ["sweep", "--config", "c.json", "--vary", "sigma", "--values", ",0.2", "--out", "o.csv"],
    ])
    def test_empty_list_entries_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_CONFIG
        assert "could not convert string to float" in capsys.readouterr().err

    def test_bad_gains_are_config_errors(self, capsys):
        assert main(["design", "--gains=-1,2"]) == EXIT_CONFIG
        assert "--gains: gains: expected positive finite numbers" in capsys.readouterr().err
        assert main(["design", "--gains=1e200,1e200,1e200", "--L", "0.5"]) == EXIT_CONFIG
        assert "overflows" in capsys.readouterr().err
        assert main(["design", "--pattern", "geometric", "--k", "2", "--n", "2", "--M", "1e200"]) \
            == EXIT_CONFIG
        assert "kbar = inf overflows" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, name", [
        (["--pattern", "bench3", "--k", "8.6", "--M", "inf"], "M"),
        (["--pattern", "bench3", "--k", "8.6", "--L", "-1"], "L"),
        (["--pattern", "lambda", "--lam", "1", "--n", "2", "--L", "nan"], "L"),
        (["--pattern", "lambda", "--lam", "nan", "--n", "2"], "lam"),
        (["--pattern", "lambda", "--lam", "1", "--n", "2", "--b-lower", "inf"], "b_lower"),
        (["--pattern", "geometric", "--k", "2", "--n", "2", "--b-lower", "nan"], "b_lower"),
        (["--pattern", "geometric", "--k", "nan", "--n", "2"], "k"),
        (["--pattern", "lambda", "--lam", "1", "--n", "2", "--k", "nan"], "k"),
        (["--pattern", "bench3", "--k", "nan"], "k"),
        # the default ratios underflow, so no finite k clears the threshold
        (["--pattern", "lambda", "--lam", "1e308", "--n", "2"], "lam"),
        (["--pattern", "lambda", "--lam", "1e200", "--n", "3"], "lam"),
    ])
    def test_bad_design_constants_are_named(self, capsys, argv, name):
        # NaN and inf fail the range check itself instead of a later overflow check
        assert main(["design"] + argv) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {name}: expected ")

    @pytest.mark.parametrize("argv, flag, pattern", [
        # each was ignored: the bench3 case checked the n = 3 bench3 gains and exited 0
        (["--pattern", "bench3", "--k", "8.6", "--n", "5", "--lam", "3", "--gains", "1,2,3"],
         "--n", "the bench3 pattern"),
        (["--pattern", "bench3", "--k", "8.6", "--gains-file", "g.json"],
         "--gains-file", "the bench3 pattern"),
        (["--pattern", "geometric", "--k", "1300", "--n", "2", "--betas", "0.4,0.1"],
         "--betas", "the geometric pattern"),
        (["--pattern", "lambda", "--lam", "1", "--n", "2", "--gains", "1,2,3"],
         "--gains", "the lambda pattern"),
        (["--gains", "3,4", "--kind", "pd", "--k", "2"], "--k", "design without --pattern"),
        (["--gains", "1,2,3", "--lam", "1"], "--lam", "design without --pattern"),
        # this printed "gains (pid)" and exited 0
        (["--pattern", "bench3", "--k", "8.6", "--kind", "pd"], "--kind", "the bench3 pattern"),
    ])
    def test_unread_flags_are_config_errors(self, capsys, argv, flag, pattern):
        assert main(["design"] + argv) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {flag}: {pattern} does not read it\n"

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "missing" / "g.json"
        assert main(["design", "--pattern", "bench3", "--k", "8.6", "--out", str(out)]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")


class TestCertify:
    def test_valid(self, tmp_path):
        gains = tmp_path / "g.json"
        gains.write_text(json.dumps({"kind": "pid", "gains": [8.6, 21.5, 21.5, 8.6]}))
        code = main(["certify", "--gains-file", str(gains), "--L", "0.8660254037844386"])
        assert code == EXIT_OK

    def test_rejected(self):
        assert main(["certify", "--gains", "1,1,4", "--L", "0"]) == EXIT_REJECTED

    @pytest.mark.parametrize("argv, first, q, twice_kbar", [
        (["1,1,4", "--L", "0.5", "--M", "0.5"],
         "P*A + A'*P + 2*kbar*I is not negative definite (offending eigenvalue 22)",
         "2, -14, 30", "8"),
        # min(q) > 2*kbar, but the companion matrix is not Hurwitz
        (["74.60806914600228,5.654475268531501,0.13957040433426207,1.598536863978957,"
          "12.435839659435544", "--L", "0.01"],
         "P is not positive definite (offending eigenvalue -2008.24)",
         "11132.7, 22.2939, 3675.14, 9.47689, 306.103", "1.88873"),
    ], ids=["not-negative-definite", "not-positive-definite"])
    def test_rejection_prints_q_and_2kbar(self, capsys, argv, first, q, twice_kbar):
        assert main(["certify", "--gains", *argv]) == EXIT_REJECTED
        assert capsys.readouterr().out == (f"certificate rejected: {first}\n"
                                           f"  Q diagonal       = {q}\n"
                                           f"  2*kbar           = {twice_kbar}\n")

    def test_bad_gains_are_config_errors(self, tmp_path, capsys):
        assert main(["certify", "--gains=-1,2", "--L", "0"]) == EXIT_CONFIG
        assert "--gains: gains: expected positive finite numbers" in capsys.readouterr().err
        assert main(["certify", "--gains=1e200,1e200,1e200", "--L", "0.5"]) == EXIT_CONFIG
        assert "overflows" in capsys.readouterr().err
        for flag, value in (("--L", "nan"), ("--M", "inf")):
            argv = ["certify", "--gains", "8.6,21.5,21.5,8.6", "--L", "0", flag, value]
            assert main(argv) == EXIT_CONFIG
            assert capsys.readouterr().err == \
                f"config error: {flag[2:]}: expected a nonnegative finite number, got {value}\n"
        # gain entries follow the sim section's rule: JSON numbers, not strings or booleans
        for gains in (["8.6", "21.5", "21.5", "8.6"], [True, 21.5, 21.5, 8.6]):
            path = tmp_path / "g.json"
            path.write_text(json.dumps({"kind": "pid", "gains": gains}))
            assert main(["certify", "--gains-file", str(path), "--L", "0"]) == EXIT_CONFIG
            assert capsys.readouterr().err.startswith("config error: gains file: ")
        # a gains file has exactly the keys kind and gains
        for doc in ({"kind": "pid", "gains": [8.6, 21.5], "L": 0.5}, {"gains": [8.6, 21.5]}):
            path.write_text(json.dumps(doc))
            assert main(["certify", "--gains-file", str(path), "--L", "0"]) == EXIT_CONFIG
            assert capsys.readouterr().err.startswith("config error: gains file: ")


class TestHurwitz:
    def test_stable(self, capsys):
        assert main(["hurwitz", "--gains", "8.6,21.5,21.5,8.6"]) == EXIT_OK
        assert "hurwitz: True" in capsys.readouterr().out
        assert main(["hurwitz", "--gains=1e200,1e200"]) == EXIT_OK
        assert "hurwitz: True" in capsys.readouterr().out
        # the determining coefficients overflow, the exact verdict does not
        for gains in ("1e200,1e200,1e200", "1e200,3e200,3e200,1e200"):
            assert main(["hurwitz", f"--gains={gains}"]) == EXIT_OK
            out = capsys.readouterr().out
            assert "determining coefficients overflow float64\nhurwitz: True\n" in out

    def test_unstable(self, capsys):
        assert main(["hurwitz", "--gains", "100,1,0.01"]) == EXIT_REJECTED
        # k0 = fl(0.1*3) exceeds the exact product k1*k2 by 2**-55, where floats saw a zero pivot
        assert main(["hurwitz", "--gains", "0.30000000000000004,0.1,3"]) == EXIT_REJECTED
        assert "hurwitz: False" in capsys.readouterr().out
        # the determining coefficients underflow to a zero denominator
        assert main(["hurwitz", "--gains=1e-200,3e-200,3e-200,1e-200"]) == EXIT_REJECTED
        assert "determining coefficients overflow float64\nhurwitz: False\n" \
            in capsys.readouterr().out

    def test_bad_gains_are_config_errors(self, capsys):
        assert main(["hurwitz", "--gains=0,1"]) == EXIT_CONFIG
        assert "--gains: gains: expected positive finite numbers" in capsys.readouterr().err


GAIN_COMMANDS = [["design"], ["certify", "--L", "0.87"], ["hurwitz"]]


@pytest.mark.parametrize("argv", GAIN_COMMANDS)
def test_kind_beside_a_gains_file_is_config_error(tmp_path, capsys, argv):
    # the file names its own kind: --kind pd was ignored and the file's pid gains were used
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "pid", "gains": [8.6, 21.5, 21.5, 8.6]}))
    assert main(argv + ["--gains-file", str(path)]) == EXIT_OK
    capsys.readouterr()
    for kind in ("pd", "pid"):
        assert main(argv + ["--gains-file", str(path), "--kind", kind]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: --kind: a gains file names its own kind\n"


@pytest.mark.parametrize("argv", GAIN_COMMANDS)
def test_one_pid_gain_is_config_error(capsys, argv):
    # relative degree 0: design printed admissible, certify valid and hurwitz True
    assert main(argv + ["--gains", "5"]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "config error: --gains: gains: expected at least 2 pid gains")


@pytest.mark.parametrize("argv", GAIN_COMMANDS)
def test_two_gain_sources_are_a_usage_error(tmp_path, capsys, argv):
    # the file won and --gains was ignored: hurwitz called these unstable gains stable
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"kind": "pid", "gains": [8.6, 21.5, 21.5, 8.6]}))
    with pytest.raises(SystemExit) as info:
        main(argv + ["--gains-file", str(path), "--gains", "100,1,0.01"])
    assert info.value.code == EXIT_CONFIG
    assert "argument --gains: not allowed with argument --gains-file" in capsys.readouterr().err


def _refused_x0():
    plant, cfg = stochpid.chain(3), SimConfig(dt=0.1, horizon=1.0, paths=1, seed=1,
                                              controller="open_loop", x0=[0.0, 0.0])
    stochpid.simulate_paths(plant, stochpid.solve_equilibrium(plant, 0.0), None, cfg)


LAMBDA = ["design", "--pattern", "lambda", "--lam", "1", "--n", "2", "--L", "1"]
EXPRESSION = {"kind": "expression", "n": 2, "drift": "u - 0.2*x1", "diffusion": "0.1",
              "L": 0.2, "M": 0.0}

# One row per refusal site of an input value: a flag list is a command line, a dict the
# overrides of a simulate config, a callable a library call; the value is the field named.
REFUSALS = {
    # flags
    "design-betas-range": (LAMBDA + ["--betas", "0.6,0.1"], "betas"),
    "design-betas-second-range": (LAMBDA + ["--betas", "0.4,0.25"], "betas"),
    "design-betas-count": (LAMBDA + ["--betas", "0.4"], "betas"),
    "design-k-threshold": (LAMBDA + ["--betas", "0.4,0.1", "--k", "1e-9"], "k"),
    "design-lam-threshold": (["design", "--pattern", "lambda", "--lam", "1e308", "--n", "2"],
                             "lam"),
    "design-L": (["design", "--gains", "8.6,21.5,21.5,8.6", "--L", "-1"], "L"),
    "design-b_lower-pd": (["design", "--gains", "3,4", "--kind", "pd", "--b-lower", "2"],
                          "b_lower"),
    "design-k": (["design", "--pattern", "geometric", "--k", "0", "--n", "2"], "k"),
    "design-n": (["design", "--pattern", "geometric", "--k", "2", "--n", "0"], "n"),
    "certify-M": (["certify", "--gains", "8.6,21.5,21.5,8.6", "--L", "0", "--M", "inf"], "M"),
    "hurwitz-gains": (["hurwitz", "--gains=0,1"], "--gains: gains"),
    "hurwitz-one-pid-gain": (["hurwitz", "--gains", "5"], "--gains: gains"),
    # plant section
    "bench3-a": ({"plant": {"kind": "bench3", "params": {"a": 0.9}}}, "plant.params.a"),
    "bench3-mu": ({"plant": {"kind": "bench3", "params": {"mu": -1}}}, "plant.params.mu"),
    "bench3-sigma": ({"plant": {"kind": "bench3", "params": {"sigma": "0.2"}}},
                     "plant.params.sigma"),
    "chain-bias": ({"plant": {"kind": "chain", "params": {"n": 2, "bias": "x"}}},
                   "plant.params.bias"),
    "chain-n": ({"plant": {"kind": "chain", "params": {"n": 0}}}, "plant.params.n"),
    "ou-theta": ({"plant": {"kind": "ou", "params": {"theta": 0}}}, "plant.params.theta"),
    "expression-n": ({"plant": {**EXPRESSION, "n": 2.5}}, "plant.n"),
    "expression-L": ({"plant": {**EXPRESSION, "L": -1}}, "plant.L"),
    "expression-M": ({"plant": {**EXPRESSION, "M": float("nan")}}, "plant.M"),
    "expression-b_lower": ({"plant": {**EXPRESSION, "b_lower": 0}}, "plant.b_lower"),
    "expression-drift": ({"plant": {**EXPRESSION, "drift": 3.0}}, "plant.drift"),
    "expression-diffusion": ({"plant": {**EXPRESSION, "diffusion": None}}, "plant.diffusion"),
    # sim section
    "sim-dt-nan": ({"sim.dt": float("nan")}, "sim.dt"),
    "sim-dt-range": ({"sim.dt": 2.0}, "sim.dt"),
    "sim-horizon-str": ({"sim.horizon": "1"}, "sim.horizon"),
    "sim-horizon-multiple": ({"sim.dt": 0.3}, "sim.horizon"),
    "sim-horizon-steps": ({"sim.dt": 1e-300}, "sim.horizon"),
    "sim-paths": ({"sim.paths": 0}, "sim.paths"),
    "sim-seed-integer": ({"sim.seed": 1.9}, "sim.seed"),
    "sim-seed-range": ({"sim.seed": -1}, "sim.seed"),
    "sim-record_stride": ({"sim.record_stride": 3}, "sim.record_stride"),
    "sim-controller": ({"sim.controller": "pi"}, "sim.controller"),
    "sim-x0-entries": ({"sim.x0": [0.0, "0"]}, "sim.x0"),
    "sim-x0-length": ({"sim.x0": [0.0, 0.0, 0.0]}, "sim.x0"),
    "sim-y_star": ({"sim.y_star": "1"}, "sim.y_star"),
    # gains and bounds sections
    "gains-kind": ({"gains": {"kind": "pi", "gains": [1, 2]}}, "gains: kind"),
    "gains-entries": ({"gains": {"kind": "pid", "gains": [1, -1, 1]}}, "gains: gains"),
    "gains-controller": ({"gains": {"kind": "pd", "gains": [3, 4]}}, "gains.kind"),
    "gains-degree": ({"gains.gains": [8.6, 21.5, 21.5, 8.6]}, "gains.gains"),
    "bounds-lambda": ({"bounds": {"lambda": 0}}, "bounds.lambda"),
    "bounds-R": ({"bounds": {"lambda": 1.0, "R": -1}}, "bounds.R"),
    # library calls
    "chain-bias-library": (lambda: stochpid.chain(2, bias="x"), "bias"),
    "bench3-a-library": (lambda: stochpid.bench3(a=0.6), "a"),
    "GainVector-gains": (lambda: stochpid.GainVector("pid", [1, -1]), "gains"),
    "GainVector-kind": (lambda: stochpid.GainVector("pi", [1, 2]), "kind"),
    "lambda_gains-betas": (lambda: stochpid.lambda_gains(1.0, 0.0, 0.0, 2, betas=[0.6, 0.1]),
                           "betas"),
    "PlantSpec-L": (lambda: stochpid.PlantSpec(1, 1, 1, None, np.ones, -1.0, 0.0),
                    "lipschitz_L"),
    "expression_plant-b_lower": (lambda: stochpid.expression_plant(1, "u", "0", 0, 0, 0),
                                 "b_lower"),
    "check_inequality_pd-g": (lambda: stochpid.check_inequality_pd(
        stochpid.GainVector("pid", [1, 2]), 0.0, 0.0), "g"),
    "bound_constants-g": (lambda: stochpid.bound_constants(
        stochpid.GainVector("pd", [1, 2]), 1.0, 0.0, 0.0, 1.0), "g"),
    "simulate_paths-x0": (_refused_x0, "x0"),
}


@pytest.mark.parametrize("source, field", REFUSALS.values(), ids=REFUSALS)
def test_every_refusal_reads_field_expected_got(tmp_path, capsys, monkeypatch, source, field):
    # one shape for every refused input: "<field>: expected <rule>, got <value>"
    if callable(source):
        with pytest.raises(ValueError, match=rf"^{re.escape(field)}: expected .*, got "):
            source()
        return

    def no_run(*args, **kwargs):
        raise AssertionError("simulate_paths ran on a refused config")

    monkeypatch.setattr("stochpid.cli.simulate_paths", no_run)
    if isinstance(source, dict):
        cfg = write_config(tmp_path / "cfg.json", **source)
        source = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]
    assert main(source) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {field}: expected ") and ", got " in err
    assert err.count("\n") == 1


class TestSimulate:
    def test_csv_schema_and_reproducibility(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out1)]) == EXIT_OK
        assert main(["simulate", "--config", str(cfg), "--out", str(out2),
                     "--workers", "3"]) == EXIT_OK
        body1, body2 = out1.read_bytes(), out2.read_bytes()
        assert body1 == body2  # byte-identical independent of worker count

        lines = body1.decode().splitlines()
        meta = [l for l in lines if l.startswith("#")]
        assert any(l.startswith("# seed=") for l in meta)
        header_idx = len(meta)
        assert lines[header_idx].split(",")[:3] == ["t", "mean_sq_error", "stderr_sq_error"]
        times = [float(l.split(",")[0]) for l in lines[header_idx + 1:]]
        assert times == sorted(times)
        assert len(times) == 11

        # every cell is the repr of the matching entry of the run's stats table
        stats, _, _ = _run_config(json.loads(cfg.read_text()), 1)
        cells = [l.split(",") for l in lines[header_idx + 1:]]
        assert cells == [[repr(v) for v in row] for row in stats.table().tolist()]

    def test_envelope_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", bounds={"lambda": 1.0, "R": 1.0})
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "upper envelope" in printed
        assert "long-run estimate" in printed
        # M ** 2 would overflow a Python float; the floor's lower bound is then 0
        cfg = write_config(
            tmp_path / "big_m.json", bounds={"lambda": 1.0, "R": 1.0},
            plant={"kind": "expression", "n": 2, "drift": "u - 0.2*x1", "diffusion": "0.1",
                   "L": 0.2, "M": 1e200},
            **{"sim.paths": 4})
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "upper envelope" in printed
        assert "(floor lower bound 0, ok)" in printed

    def test_divergence_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            **{"gains.gains": [100, 1, 0.01], "sim.horizon": 30.0, "sim.paths": 4,
               "sim.x0": [1.0, 0.0]},
        )
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_DIVERGED

    def test_non_finite_plant_output_exit_code(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            plant={"kind": "expression", "n": 1, "drift": "exp(exp(exp(x1 * 3))) + u",
                   "diffusion": "0.1", "L": 1.0, "M": 0.0},
            gains={"kind": "pid", "gains": [1.0, 2.0]},
            **{"sim.x0": [1.0], "sim.y_star": 0.0, "sim.paths": 4},
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) \
            == EXIT_DIVERGED
        err = capsys.readouterr().err
        assert err.splitlines() == ["divergence: drift returned a non-finite value"]

    def test_config_error_paths(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", **{"sim.x0": [1, 2, 3]})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) \
            == EXIT_CONFIG
        assert "sim.x0" in capsys.readouterr().err

        cfg2 = write_config(tmp_path / "cfg2.json", plant={"kind": "nope"})
        assert main(["simulate", "--config", str(cfg2), "--out", str(tmp_path / "o.csv")]) \
            == EXIT_CONFIG
        assert "plant.kind" in capsys.readouterr().err

        cfg3 = write_config(tmp_path / "cfg3.json", **{"sim.dt": 0.3})
        assert main(["simulate", "--config", str(cfg3), "--out", str(tmp_path / "o.csv")]) \
            == EXIT_CONFIG
        assert "sim.horizon: expected an integer multiple of dt" in capsys.readouterr().err

        cfg4 = write_config(tmp_path / "cfg4.json",
                            gains={"kind": "pid", "gains": [8.6, 21.5, 21.5, 8.6]})
        assert main(["simulate", "--config", str(cfg4), "--out", str(tmp_path / "o.csv")]) \
            == EXIT_CONFIG
        assert "gains.gains: expected 3 pid gains for relative degree 2, got 4" \
            in capsys.readouterr().err

        cfg5 = write_config(tmp_path / "cfg5.json", gains={"kind": "pd", "gains": [3, 4]})
        assert main(["simulate", "--config", str(cfg5), "--out", str(tmp_path / "o.csv")]) \
            == EXIT_CONFIG
        assert "gains.kind: expected pid gains for the pid controller, got pd" \
            in capsys.readouterr().err

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) \
            == EXIT_CONFIG

    @pytest.mark.parametrize("dt, horizon", [(5e-324, 1e300), (1e-300, 1.0)])
    def test_step_count_beyond_2_to_53_is_one_config_error(self, tmp_path, capsys, dt, horizon):
        cfg = write_config(tmp_path / "cfg.json", **{"sim.dt": dt, "sim.horizon": horizon})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) \
            == EXIT_CONFIG
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: sim.horizon: ")

    def test_unwritable_output_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", **{"sim.paths": 4})
        out = tmp_path / "missing" / "run.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("field, value", [
        ("dt", None), ("x0", {"x1": 0.0}), ("paths", 4.7), ("seed", 1.9), ("record_stride", 2.5),
        # non-finite JSON numbers, and a seed outside [0, 2**64)
        ("x0", [float("nan"), 0.0]), ("y_star", float("inf")), ("seed", -1), ("seed", 2 ** 64),
        # strings and booleans are not numbers, even where float() would read them
        ("dt", "1e-3"), ("horizon", "0.1"), ("dt", True), ("x0", ["0", "0"]), ("y_star", "1"),
        ("y_star", [True]),
        ("seed", 10 ** 400),  # an integer beyond the float range is still an integer
    ])
    def test_wrong_sim_types_are_config_errors(self, tmp_path, capsys, field, value):
        cfg = write_config(tmp_path / "cfg.json", **{f"sim.{field}": value})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: sim")

    @pytest.mark.parametrize("plant, field", [
        ({"n": 2.7}, "n"),
        ({"n": "2"}, "n"),
        ({"n": True}, "n"),
        ({"n": None}, "n"),
        ({"L": None}, "L"),
        ({"M": None}, "M"),
        ({"drift": 3.0}, "drift"),
        ({"kind": "bench3", "params": {"sigma": None}}, "params.sigma"),
        ({"kind": "chain", "params": {"n": 2.5}}, "params.n"),
        # values of the right type that expression_plant rejects
        ({"n": 0}, "n"),
        ({"drift": "u + foo"}, "drift"),
        ({"diffusion": "x3"}, "diffusion"),
        ({"L": -1}, "L"),
        ({"M": -0.5}, "M"),
        ({"b_lower": 0}, "b_lower"),
        # formula constants that divide by zero or are not finite
        ({"drift": "u + 1/0"}, "drift"),
        ({"diffusion": "1/0"}, "diffusion"),
        ({"drift": "u + sin(1/0)*x1"}, "drift"),
        ({"drift": "u + exp(1000)"}, "drift"),
        # NaN and Infinity, which JSON readers accept as numbers
        ({"kind": "bench3", "params": {"a": float("nan")}}, "params.a"),
        ({"kind": "bench3", "params": {"sigma": float("inf")}}, "params.sigma"),
        ({"L": float("inf")}, "L"),
        ({"b_lower": float("inf")}, "b_lower"),
        # a formula tree deeper than 200 levels
        ({"drift": "u" + " + x1" * 1200}, "drift"),
        # a builtin's own error, under the params prefix and the parameter's name
        ({"kind": "bench3", "params": {"a": 0.9}}, "params.a"),
    ])
    def test_wrong_plant_types_are_config_errors(self, tmp_path, capsys, plant, field):
        doc = {"kind": "expression", "n": 2, "drift": "u - 0.2*x1", "diffusion": "0.1",
               "L": 0.2, "M": 0.0}
        # a builtin plant has only kind and params: expression fields would be unknown keys
        plant = plant if "params" in plant else {**doc, **plant}
        cfg = write_config(tmp_path / "cfg.json", plant=plant, **{"sim.paths": 4})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: plant.{field}: ")

    @pytest.mark.parametrize("overrides, field", [
        ({"bounds": {"lambda": "x"}}, "bounds.lambda"),
        ({"bounds": {"lambda": None}}, "bounds.lambda"),
        ({"bounds": {"lambda": -1}}, "bounds.lambda"),
        ({"bounds": {"lambda": 1.0, "R": -1}}, "bounds.R"),
        ({"bounds": {"lambda": 1.0}, "gains": {"kind": "pd", "gains": [3, 4]},
          "sim.controller": "pd"}, "bounds"),
        ({"bounds": {"lambda": 1.0}, "sim.controller": "open_loop"}, "bounds"),
        ({"bounds": {"lambda": float("inf")}}, "bounds.lambda"),
        ({"bounds": {"lambda": 1.0, "R": float("inf")}}, "bounds.R"),
        # decay_coeff = 4*n**3*(k0/kn)**2 overflows to inf
        ({"bounds": {"lambda": 1.0}, "gains": {"kind": "pid", "gains": [1.0, 1.0, 1e-200]}},
         "bounds"),
    ])
    def test_bad_bounds_fail_before_the_run(self, tmp_path, capsys, monkeypatch, overrides,
                                           field):
        def no_run(*args, **kwargs):
            raise AssertionError("simulate_paths ran before bounds were validated")

        monkeypatch.setattr("stochpid.cli.simulate_paths", no_run)
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {field}: ")

    @pytest.mark.parametrize("overrides, controller", [
        ({"gains": {"kind": "pd", "gains": [3, 4]}}, "pd"),
        ({}, "open_loop"),  # with the default pid gains section, which it checks and ignores
    ])
    def test_bounds_error_names_the_controller(self, tmp_path, capsys, overrides, controller):
        # the open loop once read "defined for PID gains", next to a section of PID gains
        cfg = write_config(tmp_path / "cfg.json", bounds={"lambda": 1.0},
                           **{"sim.controller": controller}, **overrides)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err == ("config error: bounds: the envelope constants are "
                                           f"defined for the pid controller, not {controller}\n")

    @pytest.mark.parametrize("gains, message", [
        ({"kind": "pid", "gains": "not gains"}, "gains: expected finite number(s)"),  # ran
        ({"kind": "pi", "gains": [1, 2]}, "gains: kind: expected 'pid' or 'pd'"),
        ({"kind": "pid"}, "gains: missing ['gains']"),
        ({"kind": "pid", "gains": [4000, 1600, 160], "gain": 1}, "gains: unknown keys ['gain']"),
    ])
    def test_open_loop_gains_section_is_checked(self, tmp_path, capsys, monkeypatch, gains,
                                                message):
        def no_run(*args, **kwargs):
            raise AssertionError("simulate_paths ran on a bad gains section")

        monkeypatch.setattr("stochpid.cli.simulate_paths", no_run)
        cfg = write_config(tmp_path / "cfg.json", gains=gains, **{"sim.controller": "open_loop"})
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    def test_open_loop_runs_without_its_gains(self, tmp_path):
        # valid gains of another kind and degree are checked, not used: the open
        # loop writes the table and metadata of a run without a gains section
        cfg = write_config(tmp_path / "cfg.json", gains={"kind": "pd", "gains": [3, 4, 5]},
                           **{"sim.controller": "open_loop", "sim.paths": 20})
        outs = [tmp_path / "with.csv", tmp_path / "without.csv"]
        assert main(["simulate", "--config", str(cfg), "--out", str(outs[0])]) == EXIT_OK
        doc = json.loads(cfg.read_text())
        del doc["gains"]
        cfg.write_text(json.dumps(doc))
        assert main(["simulate", "--config", str(cfg), "--out", str(outs[1])]) == EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_metadata_names_the_noise_stream(self, tmp_path):
        # output bits depend on the generator and its keying, so the CSV says which
        cfg = write_config(tmp_path / "cfg.json", **{"sim.paths": 4})
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        noise = [l for l in out.read_text().splitlines() if l.startswith("# noise=")]
        assert noise == ["# noise=SFC64 per chunk of 4096 paths; "
                         "SeedSequence(seed, spawn_key=(chunk,))"]

    def test_metadata_records_every_sim_config_field(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", **{"sim.paths": 4})
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        keys = {line[2:].partition("=")[0] for line in out.read_text().splitlines()
                if line.startswith("# ")}
        assert {f.name for f in dataclasses.fields(SimConfig)} <= keys

    @pytest.mark.parametrize("overrides, message", [
        ({"sim.record_strid": 100}, "sim: unknown keys ['record_strid']"),  # ran at stride 1
        ({"bound": {"lambda": 1.0}}, "config: unknown keys ['bound']"),  # skipped the check
        ({"plant": {"kind": "expression", "n": 2, "drift": "u - 0.2*x1", "diffusion": "0.1",
                    "L": 0.2, "M": 0.0, "b_lowr": 5}}, "plant: unknown keys ['b_lowr']"),
        ({"plant": {"kind": "chain", "params": {"n": 2}, "sigma": 0.2}},
         "plant: unknown keys ['sigma']"),
        ({"plant": {"kind": "chain", "params": {"n": 2, "sigm": 0.2}}},
         "plant.params: unknown keys ['sigm']"),
        ({"plant": {"kind": "chain", "params": {"sigma": 0.2}}}, "plant.params: missing ['n']"),
        ({"plant": {"kind": "expression", "n": 2, "drift": "u", "diffusion": "0.1", "L": 0.2}},
         "plant: missing ['M']"),
        ({"plant": {"kind": ["chain"], "params": {"n": 2}}}, "plant.kind: expected one of"),
        ({"plant": [2, 0.2]}, "plant: expected an object"),
        ({"gains.gain": [1, 2, 3]}, "gains: unknown keys ['gain']"),
        ({"bounds": {"lambda": 1.0, "r": 1.0}}, "bounds: unknown keys ['r']"),
        ({"bounds": {"R": 1.0}}, "bounds: missing ['lambda']"),
        ({"sim": {"dt": 1e-3, "horizon": 1.0, "paths": 4}}, "sim: missing ['seed']"),
        ({"sim": [1e-3, 1.0, 4, 1]}, "sim: expected an object"),
    ])
    def test_unknown_and_missing_keys_are_config_errors(self, tmp_path, capsys, monkeypatch,
                                                        overrides, message):
        def no_run(*args, **kwargs):
            raise AssertionError("simulate_paths ran on a config with a bad key")

        monkeypatch.setattr("stochpid.cli.simulate_paths", no_run)
        cfg = write_config(tmp_path / "cfg.json", **overrides)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {message}")

    def test_readme_config_examples_run(self, tmp_path, capsys):
        """The README's config document and expression plant, shrunk, are valid configs."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        blocks = [json.loads(b) for b in re.findall(r"```json\n(.*?)```", readme, re.S)]
        doc = next(b for b in blocks if "sim" in b)
        plant = next(b for b in blocks if b.get("kind") == "expression")
        sim = doc["sim"]
        sim["paths"] = 20
        sim["horizon"] = 2 * sim["record_stride"] * sim["dt"]  # two records past t = 0
        out = tmp_path / "run.csv"
        for config in (doc, {**doc, "plant": plant}):
            path = tmp_path / "cfg.json"
            path.write_text(json.dumps(config))
            assert main(["simulate", "--config", str(path), "--out", str(out)]) == EXIT_OK
            assert "upper envelope" in capsys.readouterr().out
            assert len([l for l in out.read_text().splitlines() if l[:1].isdigit()]) == 3

    def test_no_equilibrium_is_config_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "cfg.json",
            plant={"kind": "expression", "n": 1, "drift": "exp(u)", "diffusion": "0.1",
                   "L": 1.0, "M": 0.0},
            gains={"kind": "pid", "gains": [1.0, 2.0]},
            **{"sim.x0": [1.0], "sim.paths": 4},
        )
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) \
            == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: sim.y_star:")

    def test_usage_errors_exit_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", **{"sim.paths": 4})
        run = ["simulate", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]
        for argv in (["hurwitz", "--gains", "1,2,x"], run + ["--workers", "0"]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == EXIT_CONFIG

    def test_entry_point_reports_one_config_error_line(self, tmp_path):
        # the installed script's path: python -m stochpid.cli, errors mapped in main alone
        cfg = write_config(tmp_path / "cfg.json", **{"sim.dt": "1e-3"})
        env = {**os.environ, "PYTHONPATH": str(Path(stochpid.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "stochpid.cli", "simulate", "--config", str(cfg),
             "--out", str(tmp_path / "o.csv")],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == EXIT_CONFIG
        assert "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("config error: sim.dt")

    def test_main_reuses_one_parser(self, tmp_path, capsys, monkeypatch):
        # usage errors, help and runs in one process go through one parser and
        # write the bytes a fresh process writes
        builds = []
        init = cli._Parser.__init__

        def counted_init(self, *args, **kwargs):
            builds.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counted_init)
        cli.build_parser()
        per_build = len(builds)  # the subcommand parsers are _Parsers too
        builds.clear()
        cli._parser.cache_clear()

        cfg = write_config(
            tmp_path / "cfg.json",
            plant={"kind": "expression", "n": 3, "L": 0.87, "M": 0.0, "diffusion": "0.2",
                   "drift": "0.4*sin(x1) - 0.3*x2 + 0.5*x3 + 6 + u + 5.2*tanh(u)"},
            gains={"kind": "pid", "gains": [8.6, 21.5, 21.5, 8.6]},
            **{"sim.x0": [0.9, 0.0, 0.1], "sim.horizon": 0.25, "sim.paths": 48,
               "sim.record_stride": 1})
        run = ["simulate", "--config", str(cfg), "--out"]
        with pytest.raises(SystemExit) as usage:
            main(run + [str(tmp_path / "x.csv"), "--workers", "0"])
        assert usage.value.code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("usage: stochpid simulate")
        with pytest.raises(SystemExit) as help_exit:
            main(["--help"])
        assert help_exit.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: stochpid")
        outs = [tmp_path / f"{name}.csv" for name in ("one", "two", "default")]
        for out, workers in zip(outs, (["--workers", "1"], ["--workers", "2"], [])):
            assert main(run + [str(out)] + workers) == EXIT_OK
        assert len(builds) == per_build

        env = {**os.environ, "PYTHONPATH": str(Path(stochpid.__file__).parents[1])}
        fresh = tmp_path / "fresh.csv"
        subprocess.run([sys.executable, "-m", "stochpid.cli"] + run + [str(fresh)],
                       check=True, capture_output=True, env=env, timeout=120)
        assert all(out.read_bytes() == fresh.read_bytes() for out in outs)

    def test_expression_plant_config(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            plant={"kind": "expression", "n": 2, "drift": "u - 0.2*x1",
                   "diffusion": "0.1", "L": 0.2, "M": 0.0},
            **{"sim.paths": 50},
        )
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK

    def test_readme_expression_config_runs_like_its_bench3_twin(self, tmp_path):
        # bench3 is built from the README's formula with its defaults written in, so the
        # two runs differ only in the metadata lines that name the plant and its params
        runs = {}
        for kind, plant in (
            ("expression", {"kind": "expression", "n": 3, "L": 0.87, "M": 0.0,
                            "drift": "0.4*sin(x1) - 0.3*x2 + 0.5*x3 + 6 + u + 5.2*tanh(u)",
                            "diffusion": "0.2"}),
            ("bench3", {"kind": "bench3"}),
        ):
            cfg = write_config(
                tmp_path / f"{kind}.json", plant=plant,
                gains={"kind": "pid", "gains": [8.6, 21.5, 21.5, 8.6]},
                **{"sim.x0": [0.9, 0.0, 0.1], "sim.horizon": 0.2, "sim.paths": 16,
                   "sim.seed": 1, "sim.record_stride": 10})
            out = tmp_path / f"{kind}.csv"
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            lines = out.read_text().splitlines()
            assert f"# plant={kind}" in lines
            runs[kind] = ([l for l in lines if l.startswith("# u_star=")],
                          [l for l in lines if not l.startswith("#")])
        assert len(runs["bench3"][0]) == 1 and len(runs["bench3"][1]) > 2
        assert runs["expression"] == runs["bench3"]


class TestReproduce:
    def test_fig2_outputs_and_determinism(self, tmp_path):
        args = ["reproduce", "fig2", "--outdir", str(tmp_path / "r1"),
                "--paths", "60", "--horizon", "0.5", "--stride", "100", "--seed", "4"]
        assert main(args) == EXIT_OK
        names = sorted(p.name for p in (tmp_path / "r1").iterdir())
        assert names == ["fig2.gp", "fig2_sigma0.2.csv", "fig2_sigma0.4.csv", "fig2_sigma0.csv"]

        args2 = ["reproduce", "fig2", "--outdir", str(tmp_path / "r2"),
                 "--paths", "60", "--horizon", "0.5", "--stride", "100", "--seed", "4"]
        assert main(args2) == EXIT_OK
        for name in names:
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_job_runs_like_simulate(self, tmp_path):
        """A reproduce curve is its config document run through simulate."""
        flags = {"paths": 60, "horizon": 0.5, "stride": 100, "seed": 4}
        assert main(["reproduce", "fig2", "--outdir", str(tmp_path)]
                    + [f"--{k}={v}" for k, v in flags.items()]) == EXIT_OK
        cfg = write_config(
            tmp_path / "cfg.json",
            plant={"kind": "bench3", "params": {"sigma": 0.2}},
            gains={"kind": "pid", "gains": [8.6, 21.5, 21.5, 8.6]},
            sim={"dt": 1e-3, "horizon": flags["horizon"], "paths": flags["paths"],
                 "seed": flags["seed"], "record_stride": flags["stride"],
                 "x0": [0.9, 0.0, 0.1], "y_star": 1.0},
        )
        out = tmp_path / "simulate.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        job = (tmp_path / "fig2_sigma0.2.csv").read_text().splitlines()
        run = out.read_text().splitlines()
        for lines in (job, run):
            assert any(l.startswith("# x0=") for l in lines)
            assert any(l.startswith("# u_star=") for l in lines)
        assert [l for l in job if not l.startswith("#")] == \
            [l for l in run if not l.startswith("#")]

    def test_fig1_cases(self, tmp_path):
        assert main(["reproduce", "fig1", "--outdir", str(tmp_path), "--paths", "40",
                     "--horizon", "0.3", "--stride", "100"]) == EXIT_OK
        csvs = sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".csv")
        assert csvs == [f"fig1_case{i}.csv" for i in range(4)]
        meta = (tmp_path / "fig1_case1.csv").read_text().splitlines()
        assert any(line.startswith("# mu=5.2") for line in meta)

    def test_fig3_writes_both_scripts(self, tmp_path):
        assert main(["reproduce", "fig3", "--outdir", str(tmp_path), "--paths", "40",
                     "--horizon", "0.3", "--stride", "100"]) == EXIT_OK
        assert (tmp_path / "fig3_mean_sq_u.gp").exists()
        assert (tmp_path / "fig3_var_u.gp").exists()

    def test_stride_must_divide_the_steps(self, tmp_path, capsys):
        # 10 steps at the default stride 25: the table would end before the horizon
        args = ["reproduce", "fig2", "--outdir", str(tmp_path), "--paths", "4",
                "--horizon", "0.01"]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "config error: sim.record_stride: expected a divisor of the 10 steps, got 25\n"

    @pytest.mark.parametrize("flag, value", [("--paths", "0"), ("--paths", "-3"),
                                             ("--paths", "4.5"), ("--stride", "0")])
    def test_count_flags_are_usage_errors_naming_the_flag(self, flag, value, tmp_path, capsys):
        outdir = tmp_path / "out"
        with pytest.raises(SystemExit) as usage:
            main(["reproduce", "fig2", "--outdir", str(outdir), flag, value])
        assert usage.value.code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"argument {flag}: expected a positive integer, got '{value}'" in err
        assert not outdir.exists()

    def test_config_error_leaves_no_outdir(self, tmp_path, capsys):
        # the horizon is not a multiple of dt: the first run fails before any CSV
        outdir = tmp_path / "a" / "b"
        args = ["reproduce", "fig2", "--outdir", str(outdir), "--paths", "4",
                "--horizon", "0.0015"]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: sim.horizon: ")
        assert not (tmp_path / "a").exists()

    def test_outdir_that_is_a_file_is_config_error(self, tmp_path, capsys):
        outdir = tmp_path / "taken"
        outdir.write_text("")
        args = ["reproduce", "fig2", "--outdir", str(outdir), "--paths", "4", "--horizon", "0.01"]
        assert main(args) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: ")


class TestSweep:
    def test_sigma_sweep(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", **{"sim.paths": 200, "sim.horizon": 2.0})
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(cfg), "--vary", "sigma",
                     "--values", "0,0.2", "--out", str(out)])
        assert code == EXIT_OK
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "sigma,steady_mean_sq_error,stderr,steady_var_u"
        assert len(lines) == 3
        # zero-noise steady error far below the noisy one
        first = [float(v) for v in lines[1].split(",")]
        second = [float(v) for v in lines[2].split(",")]
        assert first[1] < second[1]

    def test_gain_scale_sweep(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", **{"sim.paths": 100, "sim.horizon": 1.0})
        out = tmp_path / "sweep.csv"
        code = main(["sweep", "--config", str(cfg), "--vary", "gain-scale",
                     "--values", "1,2", "--out", str(out)])
        assert code == EXIT_OK

    def test_values_line_is_not_rounded(self, tmp_path):
        # values that differ in the 7th digit: "%g" wrote both as 1
        cfg = write_config(tmp_path / "cfg.json", **{"sim.paths": 20, "sim.horizon": 0.1})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--vary", "gain-scale",
                     "--values", "1.0000001,1.0000002", "--out", str(out)]) == EXIT_OK
        lines = out.read_text().splitlines()
        assert "# values=1.0000001,1.0000002" in lines
        assert [l.split(",")[0] for l in lines[-2:]] == ["1.0000001", "1.0000002"]

    def test_progress_lines_print_each_value_unrounded(self, tmp_path, capsys):
        # the progress line prints a value as the values line does: "%g" printed
        # "gain-scale=1:" for both values and "sigma=0:" for 0.0
        cfg = write_config(tmp_path / "cfg.json", **{"sim.paths": 20, "sim.horizon": 0.1})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--vary", "gain-scale",
                     "--values", "1.0000001,1.0000002", "--out", str(out)]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(":")[0] for line in lines[:2]] == ["gain-scale=1.0000001",
                                                              "gain-scale=1.0000002"]
        assert main(["sweep", "--config", str(cfg), "--vary", "sigma",
                     "--values", "0", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out.startswith("sigma=0.0: steady E|e|^2 = ")

    def test_gain_scale_sweep_rejects_open_loop(self, tmp_path, capsys):
        # an open-loop run ignores its gains: every row would be the same run
        cfg = write_config(tmp_path / "cfg.json", **{"sim.controller": "open_loop"})
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", str(cfg), "--vary", "gain-scale",
                     "--values", "1,10,100", "--out", str(out)]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: sim.controller: ")
        assert not out.exists()

    @pytest.mark.parametrize("vary, override, field", [
        ("gain-scale", {"gains": {"kind": "pid"}}, "gains"),
        ("gain-scale", {"gains": {"kind": "pid", "gains": {"k0": 1.0}}}, "gains"),
        ("sigma", {"plant": {"kind": "chain", "params": [2, 0.2]}}, "plant.params"),
    ])
    def test_malformed_sections_are_config_errors(self, tmp_path, capsys, vary, override, field):
        cfg = write_config(tmp_path / "cfg.json", **override)
        assert main(["sweep", "--config", str(cfg), "--vary", vary, "--values", "1",
                     "--out", str(tmp_path / "sweep.csv")]) == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {field}:")
