"""Command-line front end: dispatch, artifacts, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

import sampstab as st
from sampstab.cli import (EXIT_CONFIG, EXIT_EXHAUSTED, EXIT_NUMERIC, EXIT_OK,
                          main)


def read_report(out_dir):
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_quietly(argv):
    """(exit code, stderr lines) of one in-process call; each warning counts as a line."""
    err = io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


def analyze_document(doc, out_dir, *extra):
    """Run analyze --T 1 on a --system document written to out_dir."""
    path = Path(out_dir) / "sys.json"
    path.write_text(json.dumps(doc))
    return run_quietly(["analyze", "--system", str(path), "--T", "1.0",
                        "--out", str(out_dir), *extra])


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

    def test_overflowing_unobserved_system_is_infeasible(self, tmp_path):
        # |exp(300 t)|^2 overflows the horizon walk from the second period on;
        # the first horizon already proves infeasibility (B = 0), and the
        # overflow stays off stderr.
        code, err = analyze_document({"A": [[300.0]], "B": [[0.0]]}, tmp_path)
        assert (code, err) == (EXIT_OK, [])
        results = read_report(tmp_path)["results"]
        for mode in ("discrete", "continuous"):
            cert = results[mode]["certificate"]
            assert results[mode]["status"] == "infeasible"
            assert cert["N"] == 1.0 and math.isfinite(cert["kernel_norm"])

    def test_stiff_heat_is_decided(self, tmp_path):
        # The spectral system is decided per mode, on 1-D Gramians.
        code = main(["analyze", "--example", "frac-heat", "--modes", "64",
                     "--xi-max", "20", "--s", "2", "--T", "5", "--out", str(tmp_path)])
        assert code == EXIT_OK
        results = read_report(tmp_path)["results"]
        heat = st.fractional_heat(64, 2.0, 1.0, xi_max=20.0)
        dc, cc = results["discrete"]["certificate"], results["continuous"]["certificate"]
        assert results["discrete"]["brute_force"]["contradicts"] is False
        assert (dc["N"], cc["N"]) == (1.0, 5.0)
        assert abs(dc["C"] - 0.826844) <= 1e-6 and abs(cc["C"] - 1.79846) <= 1e-5
        for g, cert in ((st.discrete_gramian(heat, 5.0, int(dc["N"])), dc),
                        (st.continuous_gramian(heat, cc["N"]), cc)):
            assert cert["feasible"]
            assert st.check_inequality(g, cert["C"], cert["delta"]).feasible

    def test_dense_stiff_heat_matches_its_spectral_form(self, tmp_path):
        # The dense continuous Gramian comes from scaling and squaring, which
        # never forms the exp(399 T_h) that overflowed one block exponential.
        heat = st.fractional_heat(64, 2.0, 1.0, xi_max=20.0)
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(st.system_to_json(st.to_dense(heat))))
        code, err = run_quietly(["analyze", "--system", str(path), "--T", "5",
                                 "--out", str(tmp_path)])
        assert (code, err) == (EXIT_OK, [])
        dense = read_report(tmp_path)["results"]
        assert main(["analyze", "--example", "frac-heat", "--modes", "64", "--xi-max", "20",
                     "--s", "2", "--T", "5", "--out", str(tmp_path)]) == EXIT_OK
        spectral = read_report(tmp_path)["results"]
        for mode in ("discrete", "continuous"):
            got, want = dense[mode], spectral[mode]
            assert got["status"] == want["status"] == "feasible"
            assert got["certificate"]["N"] == want["certificate"]["N"]
            assert abs(got["certificate"]["C"] / want["certificate"]["C"] - 1) <= 1e-6

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

    @pytest.mark.parametrize("doc", [
        {"symbol": "frac_heat", "s": 0.5, "c": -1, "modes": [0, 1, 2]},
        {"A": [[True]], "B": [[1]]},
        {"A": [[math.nan]], "B": [[1]]},
        {"symbol": "frac_heat", "s": 1.5, "c": 1.0, "modes": [0, 1], "mask": [math.nan, 1]},
        {"symbol": "schrodinger", "modes": [0, 1e200]},
        {"symbol": "frac_heat", "modes": [0]},
    ], ids=["frac-heat-s-below-1", "boolean-entry", "nan-entry", "nan-mask",
            "overflowing-symbol", "missing-key"])
    def test_invalid_system_is_config_error(self, tmp_path, doc):
        code, err = analyze_document(doc, tmp_path)
        assert code == EXIT_CONFIG
        assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("argv", [
    "synthesize --example oscillator --T -1",
    "simulate --example oscillator --T 0 --horizon 1",
    "sweep --example oscillator --sweep 0.5:1:0.5 --N-max 0",
    "analyze --example oscillator --T 1 --N-max 0",
    "witness --T -1",
    "analyze --example frac-heat --modes 0 --T 1",
    "analyze --example frac-heat --s 0.5 --T 1",
    "analyze --example schrodinger --xi-max -1 --T 1",
    "synthesize --example oscillator --T 1 --tol 0",
    "simulate --example oscillator --T 1 --horizon 2 --steps-per-period 0",
    "simulate --example oscillator --T 1 --horizon 2 --y0 [1,true]",
    # The horizon is checked before the Riccati solve, which diverges at T = pi.
    "simulate --example oscillator --T 3.141592653589793 --horizon 1",
    "analyze --example oscillator --T 1 --brute-samples 0",
    "analyze --example oscillator --T 1 --brute-samples -1",
    # Witness grids of 7.4e9 and 7.4e17 points are refused before allocating.
    "witness --T 1e6 --N 2 --epsilon 0.01",
    "witness --T 1 --N 2 --epsilon 1e-30",
    "witness --T 1 --support-points 0",
    # Simulation grids of 4.8e17 and 4.8e10 cells are refused before the Riccati solve.
    "simulate --example oscillator --T 1 --horizon 1e16",
    "simulate --example oscillator --T 1 --horizon 1e9",
])
def test_out_of_range_argument_is_config_error(tmp_path, argv):
    code, err = run_quietly(argv.split() + ["--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("error: ")


_EDGE_NUMBERS = (math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324, 10 ** 400,
                 True, False, "1", None)


@hs.composite
def _number(draw, finite=hs.floats(-50.0, 50.0)):
    """Mostly a modest float; one draw in eight is an edge value or a non-number."""
    if draw(hs.integers(0, 7)):
        return draw(finite)
    return draw(hs.sampled_from(_EDGE_NUMBERS))


@hs.composite
def _entry(draw):
    """A matrix entry: a number, or a list of 1, 2 ([re, im]) or 3 numbers."""
    kind = draw(hs.integers(0, 9))
    if kind < 7:
        return draw(_number())
    return draw(hs.lists(_number(), min_size=kind - 6, max_size=kind - 6))


@hs.composite
def _matrix(draw, rows, cols):
    ragged = draw(hs.integers(0, 15)) == 0
    return [draw(hs.lists(_entry(), min_size=cols - ragged, max_size=cols + ragged))
            for _ in range(rows)]


@hs.composite
def system_documents(draw):
    """--system JSON: dense 1x1 to 3x3 pairs and spectral specs at their edges."""
    if draw(hs.booleans()):
        n, m = draw(hs.integers(1, 3)), draw(hs.integers(1, 3))
        doc = {"A": draw(_matrix(n, n)), "B": draw(_matrix(n, m))}
    else:
        doc = {
            "symbol": draw(hs.sampled_from(["frac_heat", "frac_heat", "schrodinger", "heat"])),
            "s": draw(_number(hs.sampled_from([0.5, 1.0, 1.0 + 1e-12, 1.5, 2.0, 40.0]))),
            "c": draw(_number(hs.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 30.0]))),
            "modes": draw(hs.lists(_number(hs.sampled_from([0.0, 0.5, -1.0, 2.0, 1e200])),
                                   min_size=1, max_size=4)),
        }
        if draw(hs.booleans()):
            doc["mask"] = draw(hs.lists(
                _number(hs.sampled_from([0.0, 0.25, 1.0, 1.5, -0.1])), min_size=1, max_size=4))
    if draw(hs.integers(0, 9)) == 0:
        del doc[draw(hs.sampled_from(sorted(doc)))]
    return doc


@settings(max_examples=100)
@given(doc=system_documents())
def test_fuzzed_system_documents_exit_cleanly(doc):
    with tempfile.TemporaryDirectory() as out_dir:
        code, err = analyze_document(doc, out_dir, "--brute-samples", "64")
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_EXHAUSTED, EXIT_NUMERIC)
    assert len(err) <= 1, err


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

    def test_near_degenerate_period_converges(self, tmp_path):
        # analyze is feasible at T = 3.1415, so synthesis must succeed there.
        code = main(["synthesize", "--example", "oscillator", "--T", "3.1415",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert read_report(tmp_path)["results"]["gain"]["spectral_radius"] < 1.0

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

    @pytest.mark.parametrize("loop", ["dc", "cc", "dp", "cp"])
    def test_every_loop_rounds_the_horizon_up_to_whole_periods(self, tmp_path, loop):
        code = main(["simulate", "--example", "oscillator", "--T", "1", "--horizon", "2.5",
                     "--steps-per-period", "4", "--loop", loop, "--out", str(tmp_path)])
        assert code == EXIT_OK
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[2:]
        assert len(rows) == 13
        assert float(rows[-1].split(",")[0]) == 3.0

    def test_overflowing_cp_loop_is_numeric_failure(self, tmp_path):
        # RK4 at h lambda = -100 blows up; the loop must not exit 0 with NaN.
        path = tmp_path / "heat.json"
        path.write_text(json.dumps({"symbol": "frac_heat", "s": 2, "c": 0, "modes": [0, 40]}))
        code, err = run_quietly(["simulate", "--system", str(path), "--T", "1", "--horizon", "3",
                                 "--loop", "cp", "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC
        assert len(err) == 1 and "--steps-per-period" in err[0]

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


def test_cli_import_leaves_scipy_integrate_unloaded():
    # Only det_lambda's quadrature cross-check needs it, and no command calls
    # det_lambda; loading it would add about half to every call's start-up.
    src = Path(st.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    code = "import sys, sampstab.cli; print('scipy.integrate' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
