import json

import numpy as np
import pytest

from stochpid.cli import EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, EXIT_REJECTED, main


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

    def test_explicit_pd_gains(self):
        assert main(["design", "--gains", "3,4", "--kind", "pd"]) == EXIT_OK
        assert main(["design", "--gains", "3,1", "--kind", "pd"]) == EXIT_REJECTED

    def test_missing_gains_is_config_error(self):
        assert main(["design"]) == EXIT_CONFIG

    def test_bad_gains_are_config_errors(self, capsys):
        assert main(["design", "--gains=-1,2"]) == EXIT_CONFIG
        assert "--gains: all gains must be positive" in capsys.readouterr().err
        assert main(["design", "--gains=1e200,1e200,1e200", "--L", "0.5"]) == EXIT_CONFIG
        assert "overflows" in capsys.readouterr().err


class TestCertify:
    def test_valid(self, tmp_path):
        gains = tmp_path / "g.json"
        gains.write_text(json.dumps({"kind": "pid", "gains": [8.6, 21.5, 21.5, 8.6]}))
        code = main(["certify", "--gains-file", str(gains), "--L", "0.8660254037844386"])
        assert code == EXIT_OK

    def test_rejected(self):
        assert main(["certify", "--gains", "1,1,4", "--L", "0"]) == EXIT_REJECTED

    def test_bad_gains_are_config_errors(self, capsys):
        assert main(["certify", "--gains=-1,2", "--L", "0"]) == EXIT_CONFIG
        assert "--gains: all gains must be positive" in capsys.readouterr().err
        assert main(["certify", "--gains=1e200,1e200,1e200", "--L", "0.5"]) == EXIT_CONFIG
        assert "overflows" in capsys.readouterr().err


class TestHurwitz:
    def test_stable(self, capsys):
        assert main(["hurwitz", "--gains", "8.6,21.5,21.5,8.6"]) == EXIT_OK
        assert "hurwitz: True" in capsys.readouterr().out

    def test_unstable(self):
        assert main(["hurwitz", "--gains", "100,1,0.01"]) == EXIT_REJECTED

    def test_bad_gains_are_config_errors(self, capsys):
        assert main(["hurwitz", "--gains=0,1"]) == EXIT_CONFIG
        assert "--gains: all gains must be positive" in capsys.readouterr().err
        assert main(["hurwitz", "--gains=1e200,1e200,1e200"]) == EXIT_CONFIG
        assert "overflow float64" in capsys.readouterr().err


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

    def test_envelope_report(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "cfg.json", bounds={"lambda": 1.0, "R": 1.0})
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
        printed = capsys.readouterr().out
        assert "upper envelope" in printed
        assert "long-run estimate" in printed

    def test_divergence_exit_code(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            **{"gains.gains": [100, 1, 0.01], "sim.horizon": 30.0, "sim.paths": 4,
               "sim.x0": [1.0, 0.0]},
        )
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_DIVERGED

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
        assert "not an integer multiple of dt" in capsys.readouterr().err

        cfg4 = write_config(tmp_path / "cfg4.json",
                            gains={"kind": "pid", "gains": [8.6, 21.5, 21.5, 8.6]})
        assert main(["simulate", "--config", str(cfg4), "--out", str(tmp_path / "o.csv")]) \
            == EXIT_CONFIG
        assert "relative degree 3, the plant has 2" in capsys.readouterr().err

        cfg5 = write_config(tmp_path / "cfg5.json", gains={"kind": "pd", "gains": [3, 4]})
        assert main(["simulate", "--config", str(cfg5), "--out", str(tmp_path / "o.csv")]) \
            == EXIT_CONFIG
        assert "gains.kind: a pid controller needs pid gains, got pd" in capsys.readouterr().err

        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["simulate", "--config", str(bad), "--out", str(tmp_path / "o.csv")]) \
            == EXIT_CONFIG

    def test_expression_plant_config(self, tmp_path):
        cfg = write_config(
            tmp_path / "cfg.json",
            plant={"kind": "expression", "n": 2, "drift": "u - 0.2*x1",
                   "diffusion": "0.1", "L": 0.2, "M": 0.0},
            **{"sim.paths": 50},
        )
        out = tmp_path / "out.csv"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == EXIT_OK


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
