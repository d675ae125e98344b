"""Command-line front end: dispatch, artifacts, determinism, exit codes."""

import json

import numpy as np
import pytest

import sampstab as st
from sampstab.cli import (EXIT_CONFIG, EXIT_EXHAUSTED, EXIT_NUMERIC, EXIT_OK,
                          main)


def read_report(out_dir):
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


class TestAnalyze:
    def test_regular_period_feasible(self, tmp_path, capsys):
        code = main(["analyze", "--example", "oscillator", "--T", "1.0",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "(DC)_T: feasible" in out
        report = read_report(tmp_path)
        assert report["schema"] == 1
        assert report["results"]["discrete"]["status"] == "feasible"
        assert report["results"]["discrete"]["brute_force"]["contradicts"] is False

    def test_degenerate_period_infeasible(self, tmp_path, capsys):
        code = main(["analyze", "--example", "oscillator", "--T", str(np.pi),
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "(DC)_T: infeasible" in out
        assert "kernel norm 1" in out
        report = read_report(tmp_path)
        assert report["results"]["discrete"]["certificate"]["feasible"] is False
        assert report["results"]["continuous"]["status"] == "feasible"

    def test_search_exhausted_exit_code(self, tmp_path):
        doc = {"A": [[-0.001]], "B": [[0.0]]}
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        code = main(["analyze", "--system", str(path), "--T", "1.0",
                     "--N-max", "2", "--delta", "0.5", "--out", str(tmp_path)])
        assert code == EXIT_EXHAUSTED

    def test_stiff_heat_overflow_is_numeric_failure(self, tmp_path, capsys):
        code = main(["analyze", "--example", "frac-heat", "--modes", "64",
                     "--xi-max", "20", "--s", "2", "--T", "5", "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC
        assert "non-finite" in capsys.readouterr().err

    def test_reports_are_byte_identical(self, tmp_path):
        argv = ["analyze", "--example", "oscillator", "--T", "1.0",
                "--seed", "7", "--out", str(tmp_path)]
        assert main(argv) == EXIT_OK
        first = (tmp_path / "report.json").read_bytes()
        assert main(argv) == EXIT_OK
        second = (tmp_path / "report.json").read_bytes()
        assert first == second

    def test_config_errors(self, tmp_path):
        assert main(["analyze", "--system", str(tmp_path / "missing.json"),
                     "--T", "1.0", "--out", str(tmp_path)]) == EXIT_CONFIG
        assert main(["analyze", "--example", "oscillator", "--T", "-1.0",
                     "--out", str(tmp_path)]) == EXIT_CONFIG
        bad = tmp_path / "bad.json"
        bad.write_text("{\"A\": [[0.0]]}")
        assert main(["analyze", "--system", str(bad), "--T", "1.0",
                     "--out", str(tmp_path)]) == EXIT_CONFIG


class TestSynthesize:
    def test_oscillator(self, tmp_path):
        code = main(["synthesize", "--example", "oscillator", "--T", "1.0",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = read_report(tmp_path)
        gain = report["results"]["gain"]
        assert gain["spectral_radius"] < 1.0
        # Matrices serialize as [re, im] pairs, row-major.
        F = gain["F"]
        assert isinstance(F[0][0], list) and len(F[0][0]) == 2
        cost = report["results"]["cost_check"]
        assert cost["simulated_cost"] <= cost["kernel_quadratic_form"] + 1e-9

    def test_divergence_is_numeric_failure(self, tmp_path):
        code = main(["synthesize", "--example", "oscillator", "--T", str(np.pi),
                     "--max-iter", "2000", "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC


class TestSimulate:
    @pytest.mark.parametrize("loop", ["dc", "cc", "dp", "cp"])
    def test_loops_write_trajectory(self, tmp_path, loop):
        code = main(["simulate", "--example", "oscillator", "--T", "1.0",
                     "--loop", loop, "--horizon", "12", "--steps-per-period", "8",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = read_report(tmp_path)
        assert report["results"]["decay"]["omega"] > 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        meta = json.loads(lines[0].lstrip("# "))
        assert meta["law"] == loop
        assert lines[1].startswith("t,norm_y,y0_re")

    def test_spectral_system_pipeline(self, tmp_path):
        code = main(["simulate", "--example", "frac-heat", "--modes", "17",
                     "--s", "1.5", "--c", "1.0", "--T", "1.0", "--horizon", "20",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = read_report(tmp_path)
        assert report["results"]["final_norm_ratio"] < 1e-3


class TestSweep:
    def test_grid_rows(self, tmp_path):
        code = main(["sweep", "--example", "oscillator", "--sweep", "0.5:2.0:0.5",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert len(lines) == 5  # header + 4 rows
        report = read_report(tmp_path)
        assert report["results"]["feasible_count"] == 4

    def test_bad_spec(self, tmp_path):
        assert main(["sweep", "--example", "oscillator", "--sweep", "nope",
                     "--out", str(tmp_path)]) == EXIT_CONFIG


class TestWitness:
    def test_report_fields(self, tmp_path):
        code = main(["witness", "--T", "1.0", "--N", "2", "--epsilon", "0.01",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        wit = read_report(tmp_path)["results"]["witness"]
        assert wit["observed"] <= 0.01
        assert wit["observed"] <= wit["bound"] + 1e-10
        assert 0 < wit["eta"] < 2 * np.pi
        assert set(wit) == {"T", "N", "epsilon", "eta", "support", "bound",
                            "observed", "grid_spacing"}

    def test_coarse_grid_is_config_error(self, tmp_path):
        code = main(["witness", "--T", "1.0", "--N", "2", "--epsilon", "0.01",
                     "--support-points", "8", "--out", str(tmp_path)])
        assert code == EXIT_CONFIG


class TestExample:
    @pytest.mark.parametrize("name", ["oscillator", "frac-heat", "schrodinger"])
    def test_written_definition_loads(self, tmp_path, name):
        code = main(["example", name, "--modes", "9", "--out", str(tmp_path)])
        assert code == EXIT_OK
        sys_back = st.load_system(tmp_path / f"{name}.json")
        assert sys_back.state_dim >= 1
