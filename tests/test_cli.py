"""Command-line front end: dispatch, artifacts, determinism, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

import sampstab as st
from sampstab import cli, closedloop, linsys, obscheck
from sampstab.benchmarks import _trapezoid_weights, _witness_observed
from sampstab.cli import (EXIT_CONFIG, EXIT_EXHAUSTED, EXIT_NUMERIC, EXIT_OK,
                          main)

from conftest import (decide_dc_oracle, random_mixed_system, random_stable_system, to_dense,
                      witness_grid_padded)


def read_report(out_dir):
    with open(out_dir / "report.json", encoding="utf-8") as fh:
        return json.load(fh)


def load_array(out_dir, descriptor) -> np.ndarray:
    """The .npy file a report descriptor names, checked against its shape, dtype and hash."""
    path = Path(out_dir) / descriptor["file"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == descriptor["sha256"]
    a = np.load(path, allow_pickle=False)
    assert (list(a.shape), str(a.dtype)) == (descriptor["shape"], descriptor["dtype"])
    return a


def run_quietly(argv):
    """(exit code, stderr lines) of one in-process call; each warning counts as a line."""
    err = io.StringIO()
    with (warnings.catch_warnings(record=True) as caught,
          contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err)):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue().splitlines() + [str(w.message) for w in caught]


def fresh_stdout(code: str) -> list[str]:
    """stdout lines of code run by a fresh interpreter with the package on its path."""
    src = Path(st.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


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
        assert report["schema"] == 7
        assert sorted(report) == ["backend", "command", "config", "library_version",
                                  "results", "schema"]
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

    def test_later_continuous_overflow_is_infeasible(self, tmp_path):
        # The continuous Gramian overflows from the second horizon on; the
        # first, blocked by the uncontrolled mode, decides both modes quietly.
        path = tmp_path / "sys.json"
        path.write_text(json.dumps({"A": [[100.0, 0.0], [0.0, [0.0, 1.0]]], "B": [[1.0], [0.0]]}))
        code, err = run_quietly(["analyze", "--system", str(path), "--T", "3", "--N-max", "4",
                                 "--out", str(tmp_path)])
        assert (code, err) == (EXIT_OK, [])
        results = read_report(tmp_path)["results"]
        assert [results[mode]["status"] for mode in ("discrete", "continuous")] == [
            "infeasible", "infeasible"]

    @pytest.mark.parametrize("doc", [
        {"symbol": "frac_heat", "s": 2.0, "c": 0.0, "modes": [-4, 0, 4], "mask": [1, 0, 1]},
        {"A": [[0.0, 0.0], [0.0, -1.0]], "B": [[0.0], [1.0]]},
    ], ids=["spectral", "dense"])
    def test_overflowing_horizon_is_infeasible(self, tmp_path, doc):
        # 2 T = 2e308 passes the float range: the continuous search decides on
        # the horizon T, blocked by the neutral unobserved mode.
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        code, err = run_quietly(["analyze", "--system", str(path), "--T", "1e308",
                                 "--out", str(tmp_path)])
        assert (code, err) == (EXIT_OK, [])
        cc = read_report(tmp_path)["results"]["continuous"]
        assert (cc["status"], cc["certificate"]["N"]) == ("infeasible", 1e308)

    def test_brute_force_at_1e5_modes(self, tmp_path, monkeypatch):
        # At the mode scale of the north star the cross-check is the dense
        # form of 32 binding modes: no exponential above order 64, whatever n,
        # and the spectral continuous Gramian takes no dense step.  The order
        # of an exponential is that of its block [[X, Y], [0, 0]].  The entry
        # holds the re-decided margin, its tolerance and the verdict, no size.
        orders, steps = [], []
        monkeypatch.setattr(linsys, "_expm_phi1", lambda X, Y, step=linsys._expm_phi1:
                            orders.append(X.shape[-1] + Y.shape[-1]) or step(X, Y))
        monkeypatch.setattr(obscheck, "_van_loan",
                            lambda X, Y, step=obscheck._van_loan: steps.append(X.shape[-1])
                            or step(X, Y))
        code = main(["analyze", "--example", "frac-heat", "--modes", "100000", "--T", "1",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        brute = read_report(tmp_path)["results"]["discrete"]["brute_force"]
        assert sorted(brute) == ["contradicts", "max_violation", "tolerance"]
        assert (brute["tolerance"], brute["contradicts"]) == (1e-8, False)
        assert orders and max(orders) == 64 and steps == []

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
        path.write_text(json.dumps(st.system_to_json(to_dense(heat))))
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

    @pytest.mark.parametrize("example", ["oscillator", "frac-heat"])
    def test_brute_force_reuses_the_certified_bundle(self, tmp_path, monkeypatch, example):
        system = (st.harmonic_oscillator() if example == "oscillator"
                  else st.fractional_heat(64, 1.5, 1.0))
        cert = st.decide_dc(system, 1.0)
        want = obscheck.brute_force_max_violation(
            system, st.discrete_gramian(system, 1.0, int(cert.N)), cert.C, cert.delta, 5)
        walked = []

        def rewalk(sys, *args, gramian=obscheck.discrete_gramian):
            # The check re-decides on a new system: the binding modes' dense
            # form, or the dense system in a random basis.
            walked.append(closedloop.system_hash(sys))
            return gramian(sys, *args)

        monkeypatch.setattr(obscheck, "discrete_gramian", rewalk)
        code = main(["analyze", "--example", example, "--T", "1", "--seed", "5",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert len(walked) == 1 and walked[0] != closedloop.system_hash(system)
        brute = read_report(tmp_path)["results"]["discrete"]["brute_force"]
        assert (brute["max_violation"], brute["tolerance"]) == want

    @pytest.mark.parametrize("system", [
        st.fractional_heat(64, 1.5, 1.0), st.harmonic_oscillator(), random_mixed_system(8, n=8),
        random_mixed_system((7, 128, 8), n=128, m=8),
    ], ids=["frac-heat", "oscillator", "dense-8", "dense-128-seed-7"])
    def test_brute_force_contradicts_a_lowered_constant(self, tmp_path, monkeypatch, system):
        # A certificate whose C is lowered by 0.1 % at a time until its exact
        # margin passes the tolerance: the re-decided margin reports it, for
        # the dense check of the binding modes and for the rotated dense one.
        cert = st.decide_dc(system, 1.0)
        C = cert.C
        while (st.check_inequality(cert.bundle, C, cert.delta).margin
               <= obscheck.brute_force_max_violation(system, cert.bundle, C, cert.delta, 0)[1]):
            C *= 0.999
        monkeypatch.setattr(obscheck, "decide_dc", lambda *args: replace(cert, C=C))
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(st.system_to_json(system)))
        assert main(["analyze", "--system", str(path), "--T", "1",
                     "--out", str(tmp_path)]) == EXIT_OK
        brute = read_report(tmp_path)["results"]["discrete"]["brute_force"]
        assert brute["max_violation"] > brute["tolerance"] and brute["contradicts"] is True

    def test_seed_moves_the_basis_but_not_the_verdict(self, tmp_path):
        # The same --seed writes the same bytes; another seed re-decides in
        # another basis, to another rounding of the same margin.
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(st.system_to_json(random_mixed_system(8, n=8))))
        reports = {}
        for seed in (0, 0, 1, 2, 3):
            argv = ["analyze", "--system", str(path), "--T", "1", "--seed", str(seed),
                    "--out", str(tmp_path / "out")]
            assert main(argv) == EXIT_OK
            report = (tmp_path / "out" / "report.json").read_bytes()
            assert reports.setdefault(seed, report) == report
        brutes = [json.loads(r)["results"]["discrete"]["brute_force"] for r in reports.values()]
        assert [(sorted(b), b["contradicts"]) for b in brutes] == [
            (["contradicts", "max_violation", "tolerance"], False)] * 4
        assert len({b["max_violation"] for b in brutes}) > 1

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
    # Validated for spectral systems too, whose per-mode solve does not use it.
    "synthesize --example frac-heat --modes 8 --T 1 --max-iter 0",
    "simulate --example oscillator --T 1 --horizon 2 --steps-per-period 0",
    "simulate --example oscillator --T 1 --horizon 2 --y0 [1,true]",
    # The horizon is checked before the Riccati solve, which diverges at T = pi.
    "simulate --example oscillator --T 3.141592653589793 --horizon 1",
    # A band narrower than the float spacing, and --support-points outside [1, 1e7].
    "witness --T 1 --N 2 --epsilon 1e-30",
    "witness --T 1 --support-points 0",
    "witness --T 1 --support-points 10000001",
    # Simulation grids of 4.8e17 and 4.8e10 cells are refused before the Riccati solve.
    "simulate --example oscillator --T 1 --horizon 1e16",
    "simulate --example oscillator --T 1 --horizon 1e9",
    # An infinite sweep, and one of 1e15 periods, are refused before the grid is built.
    "sweep --example oscillator --sweep 0.1:inf:0.1",
    "sweep --example oscillator --sweep 0.1:1e12:1e-3",
    # A non-finite period or frequency extent, before any exponential or grid.
    "analyze --example oscillator --T inf",
    "synthesize --example oscillator --T inf",
    "analyze --example frac-heat --modes 4 --xi-max inf --T 1",
    "analyze --example schrodinger --modes 4 --xi-max inf --T 1",
    "simulate --example oscillator --T 1 --horizon 2 --y0 [NaN,1]",
    # A witness band that reaches 0 (eta rounds to 2 pi), and an infinite epsilon.
    "witness --T 1e-300 --N 2 --epsilon 0.01",
    "witness --T 1 --N 2 --epsilon 1e300",
    "witness --T 1 --epsilon inf",
    "witness --T 5e-324 --epsilon 5e-324",
    # A sweep whose bounds are out of order or not positive, or whose step is 0.
    "sweep --example oscillator --sweep 2:1:0.5",
    "sweep --example oscillator --sweep 0:1:0.5",
    "sweep --example oscillator --sweep 0.5:1:0",
])
def test_out_of_range_argument_is_config_error(tmp_path, argv):
    code, err = run_quietly(argv.split() + ["--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("argv", [
    "witness --T 1 --N {}",
    "analyze --example oscillator --T 1 --N-max {}",
    "sweep --example oscillator --sweep 0.5:1:0.5 --N-max {}",
    "simulate --example oscillator --T 1 --horizon 2 --steps-per-period {}",
])
def test_count_past_the_float_range_is_config_error(tmp_path, argv):
    # The arithmetic on a count converts it to a float, which 2^1024 overflows.
    code, err = run_quietly(argv.format(2 ** 1024).split() + ["--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("error: ") and "must lie in [1, " in err[0]


@pytest.mark.parametrize("argv", [
    "analyze --example oscillator --T 1",
    "analyze --example frac-heat --modes 4 --T 1",
])
def test_brute_samples_is_not_an_option(tmp_path, capsys, argv):
    # Every certificate is re-decided exactly, so no count of random states
    # is taken: the parser refuses the flag before any search or write.
    with pytest.raises(SystemExit) as exc:
        main(argv.split() + ["--brute-samples", "16", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --brute-samples 16" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    "synthesize --example oscillator --T 1 --tol 0",
    "synthesize --example frac-heat --modes 8 --T 1 --tol 1e-9",
])
def test_synthesize_takes_no_tol(tmp_path, capsys, argv):
    # The Riccati doubling stops at lqsynth.DEFAULT_TOL in synthesize as in
    # simulate: the parser refuses the flag before any solve or write.
    with pytest.raises(SystemExit) as exc:
        main(argv.split() + ["--out", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    "synthesize --example oscillator --T 1",
    "simulate --example oscillator --T 1 --horizon 2",
    "sweep --example oscillator --sweep 1:2:1",
    "witness --T 1",
    "example oscillator",
])
def test_only_analyze_takes_a_seed(tmp_path, capsys, argv):
    # No other subcommand draws a random number, so none takes a seed: the
    # parser refuses the flag before any work or write.
    with pytest.raises(SystemExit) as exc:
        main(argv.split() + ["--seed", "0", "--out", str(tmp_path)])
    assert exc.value.code == EXIT_CONFIG
    assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


_EDGE_NUMBERS =(math.nan, math.inf, -math.inf, 1e300, -1e300, 5e-324, 10 ** 400,
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
        code, err = analyze_document(doc, out_dir)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_EXHAUSTED, EXIT_NUMERIC)
    assert len(err) <= 1, err


# Flag values at the edges of the float range; an int past 2^1024 converts to no float.
_HUGE = str(2 ** 1024 + 1)
_EDGE_FLOATS = ("0", "-1", "-1e300", "5e-324", "1e-300", "1e300", "1.8e308", "inf", "-inf",
                "nan", _HUGE)
_EDGE_INTS = ("0", "-1", "-7", _HUGE, "-" + _HUGE)

# A small call of each command, and the edge values of each of its numeric flags.
_FUZZED_COMMANDS = {
    "analyze --example oscillator --T 1 --N-max 4": {
        "--T": _EDGE_FLOATS, "--delta": _EDGE_FLOATS, "--N-max": _EDGE_INTS,
        "--seed": _EDGE_INTS},
    "analyze --example frac-heat --modes 4 --T 1 --N-max 4": {
        "--T": _EDGE_FLOATS, "--s": _EDGE_FLOATS, "--c": _EDGE_FLOATS,
        "--xi-max": _EDGE_FLOATS, "--modes": _EDGE_INTS, "--N-max": _EDGE_INTS},
    "analyze --example schrodinger --modes 4 --T 1 --N-max 4": {
        "--T": _EDGE_FLOATS, "--xi-max": _EDGE_FLOATS, "--delta": _EDGE_FLOATS},
    "sweep --example oscillator --sweep 0.5:1:0.5 --N-max 4": {
        "--delta": _EDGE_FLOATS, "--N-max": _EDGE_INTS},
    "sweep --example frac-heat --modes 4 --sweep 0.5:1:0.5 --N-max 4": {
        "--s": _EDGE_FLOATS, "--c": _EDGE_FLOATS, "--modes": _EDGE_INTS},
    "witness --T 1 --support-points 64": {
        "--T": _EDGE_FLOATS, "--epsilon": _EDGE_FLOATS, "--N": _EDGE_INTS,
        "--support-points": _EDGE_INTS},
    "simulate --example oscillator --T 1 --horizon 2 --steps-per-period 4": {
        "--T": _EDGE_FLOATS, "--horizon": _EDGE_FLOATS, "--steps-per-period": _EDGE_INTS},
}


@hs.composite
def numeric_flags(draw):
    """A small call of one command with one to three of its numeric flags at an edge."""
    call = draw(hs.sampled_from(sorted(_FUZZED_COMMANDS)))
    edges = _FUZZED_COMMANDS[call]
    flags = draw(hs.lists(hs.sampled_from(sorted(edges)), min_size=1, max_size=3, unique=True))
    argv = call.split()
    for flag in flags:
        if flag in argv:
            del argv[argv.index(flag):argv.index(flag) + 2]
        argv.append(f"{flag}={draw(hs.sampled_from(edges[flag]))}")  # "=": a value may lead with -
    return argv


@settings(max_examples=300)
@given(argv=numeric_flags())
@example(argv=["witness", "--T=1e-300", "--N=2", "--epsilon=0.01"])
@example(argv=["witness", "--T=1", "--N=2", "--epsilon=1e300"])
@example(argv=["witness", "--T=1", f"--N={_HUGE}"])
@example(argv=["analyze", "--example", "oscillator", "--T=1", f"--N-max={_HUGE}"])
@example(argv=["simulate", "--example", "oscillator", "--T=1", "--horizon=2",
               f"--steps-per-period={_HUGE}"])
def test_fuzzed_numeric_flags_exit_cleanly(argv):
    with tempfile.TemporaryDirectory() as out_dir:
        code, err = run_quietly([*argv, "--out", out_dir])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_EXHAUSTED, EXIT_NUMERIC)
    assert len(err) <= 1, err


@pytest.mark.parametrize("argv", [
    "analyze --example oscillator --T 3.141592653589793 --N-max {}",
    "sweep --example oscillator --sweep 0.5:1:0.5 --N-max {}",
])
def test_horizon_count_over_the_ceiling_is_config_error(tmp_path, argv):
    # Blocked at every horizon, the analyze search would walk all of them.
    code, err = run_quietly(argv.format(obscheck._MAX_HORIZONS + 1).split()
                            + ["--out", str(tmp_path)])
    assert code == EXIT_CONFIG
    assert err == [f"error: N_max must lie in [1, {obscheck._MAX_HORIZONS:.0e}]"]


def strict_json(text: str):
    """json.loads that refuses the non-standard NaN, Infinity and -Infinity tokens."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


class TestNonFiniteValuesAreNull:
    def test_exhausted_search_without_a_data_point(self, tmp_path):
        # e^{800} overflows the squared transition at k = 1: no horizon gives a
        # margin, so the period is a numeric failure, not an exhausted search
        # with a null best margin; analyze writes no report.
        (tmp_path / "sys.json").write_text(json.dumps({"A": [[400]], "B": [[0]]}))
        code, err = run_quietly(["analyze", "--system", str(tmp_path / "sys.json"), "--T", "1",
                                 "--out", str(tmp_path / "out")])
        assert (code, err) == (EXIT_NUMERIC, [
            "numeric failure: the first discrete horizon at T = 1.0 has non-finite entries "
            "or an indefinite Gramian"])
        assert not (tmp_path / "out" / "report.json").exists()

    def test_decay_fit_of_states_that_vanish(self, tmp_path, capsys):
        # e^{-1000} underflows: the sampled states are exactly 0 and the fitted
        # rate is inf, written as null in the report and the CSV header.
        (tmp_path / "sys.json").write_text(json.dumps({"A": [[-1000]], "B": [[1]]}))
        code = main(["simulate", "--system", str(tmp_path / "sys.json"), "--T", "1",
                     "--horizon", "20", "--loop", "dc", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert "fitted omega = inf" in capsys.readouterr().out
        report = strict_json((tmp_path / "report.json").read_text())
        assert report["results"]["decay"]["omega"] is None
        header = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
        assert strict_json(header.removeprefix("# "))["omega"] is None


class TestSynthesize:
    def test_overflowing_doubling_is_one_numeric_failure(self, tmp_path):
        # exp(400) squared overflows the first doubling, silently.
        (tmp_path / "sys.json").write_text(json.dumps({"A": [[400.0]], "B": [[0.0]]}))
        code, err = run_quietly(["synthesize", "--system", str(tmp_path / "sys.json"),
                                 "--T", "1", "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC
        assert len(err) == 1 and "did not converge (1 doublings, residual inf)" in err[0]

    def test_oscillator(self, tmp_path):
        code = main(["synthesize", "--example", "oscillator", "--T", "1.0",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = read_report(tmp_path)
        gain = report["results"]["gain"]
        assert gain["spectral_radius"] < 1.0
        # Arrays are .npy files the report describes: F is m x n, the others n x n.
        assert load_array(tmp_path, gain["F"]).shape == (1, 2)
        assert load_array(tmp_path, gain["closed_loop"]).shape == (2, 2)
        assert load_array(tmp_path, report["results"]["riccati"]["K"]).shape == (2, 2)
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

    @staticmethod
    def _both_forms(doc, tmp_path):
        """--system files of a spectral document and of its dense form."""
        spectral, dense = tmp_path / "spectral.json", tmp_path / "dense.json"
        spectral.write_text(json.dumps(doc))
        dense.write_text(json.dumps(st.system_to_json(to_dense(st.system_from_json(doc)))))
        return spectral, dense

    def test_spectral_report_matches_its_dense_form(self, tmp_path):
        # The spectral arrays are the dense form's diagonals, and the dense
        # form has nothing off its diagonal that the per-mode arrays would drop.
        doc = st.system_to_json(st.fractional_heat(24, 1.5, 1.0, mask=[1.0, 0.3] * 12))
        reports, outs = [], []
        for path in self._both_forms(doc, tmp_path):
            outs.append(tmp_path / path.stem)
            assert main(["synthesize", "--system", str(path), "--T", "1",
                         "--out", str(outs[-1])]) == EXIT_OK
            reports.append(read_report(outs[-1])["results"])
        spectral, dense = reports
        for block, key in (("riccati", "K"), ("gain", "F"), ("gain", "closed_loop")):
            got = load_array(outs[0], spectral[block][key])
            want = load_array(outs[1], dense[block][key])
            assert got.shape == (24,) and want.shape == (24, 24), key
            diagonal = want[np.arange(24), np.arange(24)]
            scale = np.abs(want).max()
            assert np.abs(got - diagonal).max() <= 1e-12 * scale, key
            off = want.copy()
            off[np.arange(24), np.arange(24)] = 0.0
            assert np.abs(off).max() <= 1e-12 * scale, key
        assert spectral["riccati"]["iterations"] == 0
        assert abs(spectral["gain"]["spectral_radius"]
                   - dense["gain"]["spectral_radius"]) <= 1e-12

    def test_spectral_report_round_trips_the_per_mode_arrays(self, tmp_path):
        assert main(["synthesize", "--example", "frac-heat", "--modes", "40", "--T", "1",
                     "--out", str(tmp_path)]) == EXIT_OK
        results = read_report(tmp_path)["results"]
        pair = st.sample(st.fractional_heat(40, 1.5, 1.0, xi_max=4.0), 1.0)
        sol = st.riccati_solve(pair)
        gain = st.feedback_gain(sol, pair)
        for got, want in ((results["riccati"]["K"], sol.K), (results["gain"]["F"], gain.F),
                          (results["gain"]["closed_loop"], gain.closed_loop)):
            got = load_array(tmp_path, got)
            # Each array keeps its dtype: the per-mode kernel is real.
            assert got.shape == (40,) and got.dtype == want.dtype
            assert got.tobytes() == want.tobytes()
        assert results["riccati"]["K"]["dtype"] == "float64"

    def test_dense_report_keeps_its_matrices(self, tmp_path):
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(st.system_to_json(to_dense(
            st.fractional_heat(6, 1.5, 1.0, xi_max=4.0)))))
        assert main(["synthesize", "--system", str(path), "--T", "1",
                     "--out", str(tmp_path)]) == EXIT_OK
        results = read_report(tmp_path)["results"]
        for M in (results["riccati"]["K"], results["gain"]["F"],
                  results["gain"]["closed_loop"]):
            assert load_array(tmp_path, M).shape == (6, 6)

    @staticmethod
    def _fresh_frac_heat(modes: int, out: Path) -> int:
        """Peak RSS in KiB of synthesize frac-heat in a fresh interpreter.

        O(n^2) lists of K, F and the closed loop took 525 MiB at n = 1024, so
        the child's address space is capped 512 MiB above its size after import.
        The peak is the child's own VmHWM: on Linux its ru_maxrss carries the
        spawning process's peak across exec.
        """
        argv = ["synthesize", "--example", "frac-heat", "--modes", str(modes), "--T", "1",
                "--out", str(out)]
        code = ("import resource; from sampstab.cli import main\n"
                "kib = lambda key: next(int(line.split()[1]) for line in "
                "open('/proc/self/status') if line.startswith(key))\n"
                "resource.setrlimit(resource.RLIMIT_AS, ((kib('VmSize:') << 10) + (512 << 20), "
                "resource.RLIM_INFINITY))\n"
                f"assert main({argv!r}) == 0\n"
                "print(kib('VmHWM:'))")
        return int(fresh_stdout(code)[-1])

    def test_report_bytes_are_linear_in_the_modes(self, tmp_path):
        # report.json does not grow with n: only its float scalars' reprs may
        # change length.  The .npy files grow by exactly their added entries.
        report, arrays = {}, {}
        for n in (1024, 2048):
            self._fresh_frac_heat(n, tmp_path / str(n))
            report[n] = (tmp_path / str(n) / "report.json").stat().st_size
            arrays[n] = sum(p.stat().st_size for p in (tmp_path / str(n)).glob("*.npy"))
        assert abs(report[2048] - report[1024]) <= 16
        # K is float64 (8 bytes a mode), F and the closed loop complex128 (16 each).
        assert arrays[2048] - arrays[1024] == 1024 * (8 + 16 + 16)

    def test_4096_modes_in_a_fresh_interpreter_stay_small(self, tmp_path):
        assert self._fresh_frac_heat(4096, tmp_path) < 150 * 1024

    def test_1e5_modes_run(self, tmp_path):
        code, err = run_quietly(["synthesize", "--example", "frac-heat", "--modes", "100000",
                                 "--T", "1", "--out", str(tmp_path)])
        assert (code, err) == (EXIT_OK, [])
        F = load_array(tmp_path, read_report(tmp_path)["results"]["gain"]["F"])
        assert F.shape == (100000,)

    @pytest.mark.parametrize("doc", [
        # The unstable mode xi = 0 is masked out.
        {"symbol": "frac_heat", "s": 1.5, "c": 1.0, "modes": [-2, 0, 2], "mask": [1, 0, 1]},
        # xi^2 T = 2 pi: one period returns the mode to itself, unobserved by the hold.
        {"symbol": "schrodinger", "modes": [math.sqrt(2 * math.pi), 1.0]},
    ])
    def test_unstabilizable_mode_is_numeric_failure_on_both_forms(self, tmp_path, doc):
        for path in self._both_forms(doc, tmp_path):
            code, err = run_quietly(["synthesize", "--system", str(path), "--T", "1",
                                     "--out", str(tmp_path)])
            assert code == EXIT_NUMERIC, path.stem
            assert len(err) == 1 and "not converge" in err[0]


class TestSimulate:
    def test_a_short_horizon_fits_its_trailing_half(self, tmp_path):
        # One period of 4 steps leaves the fit 3 grid points in [0.5, 1]; one
        # step leaves it one point, which fits no line.
        argv = "simulate --example oscillator --T 1 --horizon 1 --steps-per-period {}"
        code, err = run_quietly([*argv.format(4).split(), "--out", str(tmp_path / "4")])
        assert (code, err) == (EXIT_OK, [])
        assert math.isfinite(read_report(tmp_path / "4")["results"]["decay"]["omega"])
        code, err = run_quietly([*argv.format(1).split(), "--out", str(tmp_path / "1")])
        assert code == EXIT_CONFIG
        assert err == ["error: decay fit needs at least 2 grid points in the trailing half"]
        assert not (tmp_path / "1" / "report.json").exists()

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
        assert meta["law"] == loop and meta["schema"] == 2
        assert meta["omega"] == report["results"]["decay"]["omega"]
        assert lines[1] == "t,norm_y"
        assert len(lines) == 2 + 12 * 8 + 1
        table = load_array(tmp_path, report["results"]["trajectory"])
        assert report["results"]["trajectory"]["file"] == "trajectory.npy"
        assert table.shape == (12 * 8 + 1, 2 + 2 * 2 + 2 * 1)

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

    @pytest.mark.parametrize("scale", ["1e200", "1e-200"])
    def test_huge_or_tiny_initial_state_fits_the_unit_rate(self, tmp_path, scale):
        # The loop is linear: the fitted rate and the norm ratio do not see the scale.
        argv = ["simulate", "--example", "oscillator", "--T", "1", "--horizon", "20"]
        assert main(argv + ["--y0", "[1,0]", "--out", str(tmp_path / "unit")]) == EXIT_OK
        code, err = run_quietly(argv + ["--y0", f"[{scale},0]", "--out", str(tmp_path)])
        assert (code, err) == (EXIT_OK, [])
        unit = read_report(tmp_path / "unit")["results"]
        scaled = read_report(tmp_path)["results"]
        assert unit["decay"]["omega"] > 0
        assert scaled["decay"]["omega"] == pytest.approx(unit["decay"]["omega"], rel=1e-9)
        assert scaled["final_norm_ratio"] == pytest.approx(unit["final_norm_ratio"], rel=1e-9)

    @pytest.mark.parametrize("loop", ["dc", "dp", "cp", "cc"])
    @pytest.mark.parametrize("system", ["frac-heat", "dense"])
    def test_trajectory_files_are_the_runs_values(self, tmp_path, monkeypatch, loop, system):
        written = []
        write = closedloop.trajectory_to_csv

        def spy(traj, path, header=None):
            written.append(traj)
            write(traj, path, header)

        monkeypatch.setattr(closedloop, "trajectory_to_csv", spy)
        if system == "dense":
            (tmp_path / "sys.json").write_text(
                json.dumps(st.system_to_json(random_stable_system(2, n=4, m=2))))
            source = ["--system", str(tmp_path / "sys.json")]
        else:
            source = ["--example", "frac-heat", "--modes", "8"]
        code = main(["simulate", *source, "--T", "1", "--horizon", "6", "--loop", loop,
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        traj, = written
        # Every CSV cell reads back to its time and norm, bit for bit.
        rows = (tmp_path / "trajectory.csv").read_text().splitlines()[2:]
        cells = np.array([[float(x) for x in row.split(",")] for row in rows])
        assert cells[:, 0].tobytes() == traj.times.tobytes()
        assert cells[:, 1].tobytes() == traj.norms().tobytes()
        table = load_array(tmp_path, read_report(tmp_path)["results"]["trajectory"])
        assert table.tobytes() == st.trajectory_table(traj).tobytes()

    @pytest.mark.parametrize("loop", ["dc", "dp", "cp", "cc"])
    def test_report_carries_the_loop_radius_and_rate(self, tmp_path, loop):
        code = main(["simulate", "--example", "oscillator", "--T", "0.8", "--horizon", "4",
                     "--loop", loop, "--out", str(tmp_path)])
        assert code == EXIT_OK
        results = read_report(tmp_path)["results"]
        osc = st.harmonic_oscillator()
        pair = st.sample(osc, 0.8)
        F = st.feedback_gain(st.riccati_solve(pair), pair).F
        traj = getattr(st, f"simulate_{loop}")(osc, F, 0.8, [1.0, 1.0], 0.8, 16)
        assert results["loop_radius"] == traj.loop_radius() < 1
        assert results["loop_rate"] == -math.log(traj.loop_radius()) / 0.8

    @pytest.mark.parametrize("loop", ["cc", "dp", "cp"])
    def test_unstable_loop_is_numeric_failure(self, tmp_path, loop):
        # Near T = pi the sampled LQ gain holds the dc loop (radius 0.99991) but
        # not the others (1.917 for cc and dp, 3.853 for cp): no CSV, no report.
        code, err = run_quietly(["simulate", "--example", "oscillator", "--T", "3.1415",
                                 "--horizon", "60", "--loop", loop, "--out", str(tmp_path)])
        assert code == EXIT_NUMERIC
        assert len(err) == 1 and "spectral radius" in err[0] and ">= 1" in err[0]
        assert not (tmp_path / "trajectory.csv").exists()
        assert not (tmp_path / "trajectory.npy").exists()
        assert not (tmp_path / "report.json").exists()

    def test_norms_are_computed_once(self, tmp_path, monkeypatch):
        # The decay fit, the CSV, the table's norm column and the final ratio share one array.
        seen = []
        norms = closedloop.Trajectory.norms

        def spy(traj):
            seen.append(norms(traj))
            return seen[-1]

        monkeypatch.setattr(closedloop.Trajectory, "norms", spy)
        code = main(["simulate", "--example", "frac-heat", "--modes", "8", "--T", "1",
                     "--horizon", "4", "--out", str(tmp_path)])
        assert code == EXIT_OK
        assert len(seen) == 4 and all(x is seen[0] for x in seen)

    def test_spectral_system_pipeline(self, tmp_path):
        code = main(["simulate", "--example", "frac-heat", "--modes", "17",
                     "--s", "1.5", "--c", "1.0", "--T", "1.0", "--horizon", "20",
                     "--out", str(tmp_path)])
        assert code == EXIT_OK
        report = read_report(tmp_path)
        assert report["results"]["final_norm_ratio"] < 1e-3


class TestArrayFiles:
    @pytest.mark.parametrize("argv,system,files", [
        (["synthesize", "--example", "oscillator", "--T", "1"],
         st.harmonic_oscillator(), {"K.npy", "F.npy", "closed_loop.npy"}),
        (["synthesize", "--example", "frac-heat", "--modes", "16", "--T", "1"],
         st.fractional_heat(16, 1.5, 1.0, xi_max=4.0), {"K.npy", "F.npy", "closed_loop.npy"}),
        (["simulate", "--example", "frac-heat", "--modes", "16", "--T", "1", "--horizon", "4",
          "--loop", "dp"],
         st.fractional_heat(16, 1.5, 1.0, xi_max=4.0),
         {"F.npy", "closed_loop.npy", "trajectory.npy"}),
    ])
    def test_arrays_repeat_describe_themselves_and_are_the_solve(self, tmp_path, argv,
                                                                 system, files):
        # The config echoes --out, so both runs write to the same directory.
        out, first = tmp_path / "out", tmp_path / "first"
        argv = argv + ["--out", str(out)]
        assert main(argv) == EXIT_OK
        out.rename(first)
        assert main(argv) == EXIT_OK
        names = {p.name for p in out.iterdir()}
        assert names == {p.name for p in first.iterdir()}
        assert {name for name in names if name.endswith(".npy")} == files
        for name in names:
            assert (out / name).read_bytes() == (first / name).read_bytes(), name

        pair = st.sample(system, 1.0)
        sol = st.riccati_solve(pair)
        gain = st.feedback_gain(sol, pair)
        want = {"K.npy": sol.K, "F.npy": gain.F, "closed_loop.npy": gain.closed_loop}
        if argv[0] == "simulate":
            n = system.state_dim
            traj = st.simulate_dp(system, gain.F, 1.0, np.ones(n) / math.sqrt(n), 4.0, 16)
            want["trajectory.npy"] = st.trajectory_table(traj)
        results = read_report(out)["results"]
        descriptors = [d for block in results.values() if isinstance(block, dict)
                       for d in (block, *block.values()) if isinstance(d, dict) and "sha256" in d]
        assert {d["file"] for d in descriptors} == files
        for d in descriptors:
            # A plain .npy, not a zip archive, whose entries would carry a timestamp.
            assert (out / d["file"]).read_bytes().startswith(b"\x93NUMPY")
            got = load_array(out, d)
            assert got.dtype == want[d["file"]].dtype, d["file"]
            assert got.tobytes() == want[d["file"]].tobytes(), d["file"]


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

    @pytest.mark.parametrize("doc,spec,N_max,delta,statuses", [
        # Exactly pi and 2 pi: every horizon is blocked by the kernel.
        (None, "3.141592653589793:6.283185307179586:3.141592653589793", 8, 0.9,
         {"infeasible"}),
        ({"A": [[-0.001]], "B": [[0.0]]}, "0.5:3:0.5", 2, 0.5, {"search-exhausted"}),
        # |R|^2 = exp(600 k T) overflows from k T > 1.183 on: at k = 2 for
        # T = 1.0 and at k = 6 for T = 0.2; each period stops at its own horizon.
        ({"A": [[300.0]], "B": [[0.0]]}, "0.1:1.1:0.1", 8, 0.9, {"infeasible"}),
        (None, "1.5707963267948966:9.42477796076938:1.5707963267948966", 8, 0.9,
         {"feasible", "infeasible"}),
    ])
    def test_rows_are_the_oracles_bytes(self, tmp_path, doc, spec, N_max, delta, statuses):
        if doc is None:
            system, source = st.harmonic_oscillator(), ["--example", "oscillator"]
        else:
            (tmp_path / "sys.json").write_text(json.dumps(doc))
            system, source = st.load_system(tmp_path / "sys.json"), [
                "--system", str(tmp_path / "sys.json")]
        code, err = run_quietly(["sweep", "--sweep", spec, *source, "--N-max", str(N_max),
                                 "--delta", str(delta), "--out", str(tmp_path)])
        assert (code, err) == (EXIT_OK, [])
        cols = ["T", "status", "feasible", "N", "C", "delta", "margin", "kernel_dim"]
        rows = []
        for T in cli._parse_sweep(spec):
            outcome = decide_dc_oracle(system, T, N_max, delta)
            if isinstance(outcome, st.SearchExhausted):
                rows.append({"T": T, "status": "search-exhausted"})
            else:
                rows.append({"T": T, "status": "feasible" if outcome.feasible else "infeasible",
                             **outcome.to_json()})
        csv = "".join(",".join(str(row.get(c, "")) for c in cols) + "\n" for row in rows)
        assert (tmp_path / "sweep.csv").read_bytes() == (",".join(cols) + "\n" + csv).encode()
        assert read_report(tmp_path)["results"]["rows"] == json.loads(json.dumps(rows))
        assert {row["status"] for row in rows} == statuses
        if doc == {"A": [[300.0]], "B": [[0.0]]}:
            assert [row["N"] for row in rows] == [8.0, 5.0, 3.0, 2.0, 2.0] + [1.0] * 6

    def test_first_horizon_overflow_is_numeric_failure(self, tmp_path):
        # exp(300 T) squared overflows the first horizon of T = 1.5, and the
        # sampled pair of T = 2.5 overflows: each is a numeric-failure row, and
        # the sweep keeps the row of T = 0.5.
        (tmp_path / "sys.json").write_text(json.dumps({"A": [[300.0]], "B": [[0.0]]}))
        code, err = run_quietly(["sweep", "--sweep", "0.5:3:1", "--system",
                                 str(tmp_path / "sys.json"), "--out", str(tmp_path)])
        assert (code, err) == (EXIT_OK, [])
        rows = read_report(tmp_path)["results"]["rows"]
        assert rows[0]["status"] == "infeasible"
        assert rows[1:] == [{"T": 1.5, "status": "numeric-failure"},
                            {"T": 2.5, "status": "numeric-failure"}]
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        assert lines[2:] == ["1.5,numeric-failure,,,,,,", "2.5,numeric-failure,,,,,,"]

    @pytest.mark.parametrize("doc,source,spec", [
        (None, "--example frac-heat --modes 8", "600:800:50"),
        ({"A": [[300.0]], "B": [[0.0]]}, "--system {}", "0.5:3:0.5"),
    ], ids=["frac-heat", "scalar"])
    def test_every_row_is_analyze_at_its_period(self, tmp_path, doc, source, spec):
        # Grids that straddle the first horizon's overflow: analyze exits 4
        # exactly at the numeric-failure rows, and elsewhere its discrete
        # entry has the row's status, N and C.
        path = tmp_path / "sys.json"
        path.write_text(json.dumps(doc))
        source = source.format(path).split()
        code, err = run_quietly(["sweep", *source, "--sweep", spec, "--out", str(tmp_path)])
        assert (code, err) == (EXIT_OK, [])
        rows = read_report(tmp_path)["results"]["rows"]
        assert {row["status"] for row in rows} > {"numeric-failure"}
        for i, row in enumerate(rows):
            out = tmp_path / str(i)
            code, err = run_quietly(["analyze", *source, "--T", repr(row["T"]), "--N-max", "8",
                                     "--out", str(out)])
            if row["status"] == "numeric-failure":
                assert code == EXIT_NUMERIC and not out.exists()
                assert len(err) == 1 and f"at T = {row['T']!r} " in err[0]
                continue
            assert code != EXIT_NUMERIC and err == []
            entry = read_report(out)["results"]["discrete"]
            cert = entry.get("certificate", {})
            assert (entry["status"], cert.get("N"), cert.get("C")) == (
                row["status"], row.get("N"), row.get("C"))

    @pytest.mark.parametrize("cells,chunks", [(None, 1), (6 * 7, 3), (1, 20)])
    def test_one_stacked_exponential_per_chunk(self, tmp_path, monkeypatch, cells, chunks):
        # A dense n = 2, m = 1 system takes n (n + m) = 6 entries per period.
        sys = random_mixed_system(4, n=2, m=1)
        (tmp_path / "sys.json").write_text(json.dumps(st.system_to_json(sys)))
        calls = []
        stacked = linsys._expm_phi1

        def counted(X, Y):
            calls.append(X.shape)
            return stacked(X, Y)

        def per_period(*args, **kwargs):
            raise AssertionError("sweep decided a period on its own")

        monkeypatch.setattr(linsys, "_expm_phi1", counted)
        monkeypatch.setattr(obscheck, "decide_dc", per_period)
        if cells is not None:
            monkeypatch.setattr(obscheck, "_CHUNK_CELLS", cells)
        code, err = run_quietly(["sweep", "--sweep", "0.5:10:0.5", "--system",
                                 str(tmp_path / "sys.json"), "--out", str(tmp_path)])
        assert (code, err) == (EXIT_OK, [])
        assert len(calls) == chunks and sum(shape[0] for shape in calls) == 20
        assert read_report(tmp_path)["results"]["grid_size"] == 20


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

    @pytest.mark.parametrize("argv", [
        # Padded out to [0, 1.02 hi], these grids needed 7.4e9 and 7.4e6 points.
        "--T 1e6 --N 2 --epsilon 0.01",
        "--T 1 --N 2 --epsilon 1e-8",
    ])
    def test_narrow_band_builds_on_the_band_grid(self, tmp_path, argv):
        code, err = run_quietly(["witness", *argv.split(), "--out", str(tmp_path)])
        assert (code, err) == (EXIT_OK, [])
        results = read_report(tmp_path)["results"]
        lo, hi = results["witness"]["support"]
        # At T = 1e6 one float spacing of hi is 1.3e-6 of the grid spacing.
        assert results["witness"]["grid_spacing"] == pytest.approx((hi - lo) / 513, rel=1e-5)
        assert abs(results["state_norm"] - 1.0) <= 1e-12


def _quadrature_estimate(wit) -> float:
    """|observed - observed on every other grid point|, the witness's own error estimate."""
    coarse, phi = wit.grid[::2], wit.phi[::2]
    phi = phi / math.sqrt(float(np.sum(_trapezoid_weights(coarse) * np.abs(phi) ** 2)))
    return abs(wit.observed - _witness_observed(coarse, phi, wit.T, wit.N))


@given(T=hs.floats(0.05, 5.0), N=hs.integers(1, 8), epsilon=hs.floats(1e-3, 0.3),
       support_points=hs.integers(40, 1024))
def test_band_grid_matches_the_padded_oracle(T, N, epsilon, support_points):
    _, lo, hi = st.witness_band(T, N, epsilon)
    band = st.schrodinger_witness(T, N, epsilon, cli._witness_grid(lo, hi, support_points))
    padded = st.schrodinger_witness(T, N, epsilon, witness_grid_padded(lo, hi, support_points))
    assert (band.bound, band.eta, band.support) == (padded.bound, padded.eta, padded.support)
    assert abs(band.norm() - 1.0) <= 1e-12
    assert band.grid_spacing == pytest.approx((hi - lo) / (support_points + 1), rel=1e-9)
    # Each estimate can vanish where its coarse and fine sums cross by chance;
    # the larger of the two bounds the distance between the grids.
    slack = 2.0 * max(_quadrature_estimate(band), _quadrature_estimate(padded))
    assert abs(band.observed - padded.observed) <= slack + 1e-12 * padded.observed


class TestExample:
    @pytest.mark.parametrize("name", ["oscillator", "frac-heat", "schrodinger"])
    def test_written_definition_loads(self, tmp_path, name):
        code = main(["example", name, "--modes", "9", "--out", str(tmp_path)])
        assert code == EXIT_OK
        sys_back = st.load_system(tmp_path / f"{name}.json")
        assert sys_back.state_dim >= 1


_SPECTRAL = {"modes": 64, "xi_max": 4.0, "s": 1.5, "c": 1.0}
_OUTPUT = {"out": "."}


# A minimal argv of every subcommand, and the vars(args) it parses to.
_MINIMAL_ARGS = {
    "analyze --example oscillator --T 1": {
        "command": "analyze", "system": None, "example": "oscillator", "T": 1.0,
        "N_max": 16, "delta": 0.9, "seed": 0, **_SPECTRAL, **_OUTPUT},
    "analyze --system f.json --T 1": {
        "command": "analyze", "system": "f.json", "example": None, "T": 1.0,
        "N_max": 16, "delta": 0.9, "seed": 0, **_SPECTRAL, **_OUTPUT},
    "synthesize --example frac-heat --T 1": {
        "command": "synthesize", "system": None, "example": "frac-heat", "T": 1.0,
        "max_iter": 64, **_SPECTRAL, **_OUTPUT},
    "simulate --example oscillator --T 1 --horizon 2": {
        "command": "simulate", "system": None, "example": "oscillator", "T": 1.0,
        "loop": "dc", "horizon": 2.0, "steps_per_period": 16, "y0": None,
        **_SPECTRAL, **_OUTPUT},
    "sweep --example oscillator --sweep 1:2:1": {
        "command": "sweep", "system": None, "example": "oscillator", "sweep": "1:2:1",
        "N_max": 8, "delta": 0.9, **_SPECTRAL, **_OUTPUT},
    "witness --T 1": {
        "command": "witness", "T": 1.0, "N": 2, "epsilon": 0.01, "support_points": 512,
        **_OUTPUT},
    "example schrodinger": {"command": "example", "name": "schrodinger", **_SPECTRAL, **_OUTPUT},
}


@pytest.mark.parametrize("argv", list(_MINIMAL_ARGS))
def test_parser_keeps_every_dest_and_default(argv):
    # report.json echoes vars(args): a dest or default that moves changes its bytes.
    assert vars(cli._build_parser().parse_args(argv.split())) == _MINIMAL_ARGS[argv]


# Per subcommand, calls that between them take every path through its options:
# a built-in source that reads the spectral options and a file source that does not.
_COVERING_ARGVS = {
    command: [f"{command} --example frac-heat --modes 8 {tail}", f"{command} --system {{}} {tail}"]
    for command, tail in (("analyze", "--T 1"), ("synthesize", "--T 1"),
                          ("simulate", "--T 1 --horizon 2"), ("sweep", "--sweep 1:2:1"))
} | {"witness": ["witness --T 1 --support-points 64"], "example": ["example frac-heat --modes 8"]}


@pytest.mark.parametrize("command", list(_COVERING_ARGVS))
def test_every_option_is_read(tmp_path, monkeypatch, command):
    # An option that a subcommand accepts but never reads only moves the
    # config echo.  The report writer is stubbed to read --out alone, so the
    # echo of vars(args) does not count as a read.
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            reads.add(name)
            return super().__getattribute__(name)

    path = tmp_path / "sys.json"
    path.write_text(json.dumps(st.system_to_json(st.harmonic_oscillator())))
    monkeypatch.setattr(cli, "_write_report", lambda args, results: args.out)
    dests, read = set(), set()
    for i, argv in enumerate(_COVERING_ARGVS[command]):
        args = cli._build_parser().parse_args(
            [*argv.format(path).split(), "--out", str(tmp_path / str(i))], namespace=Recording())
        dests |= set(vars(args)) - {"command"}
        reads.clear()  # the parser's own reads
        assert cli._COMMANDS[command](args) == EXIT_OK
        read |= reads
    assert dests - read == set()


def _long_options(parser: argparse.ArgumentParser) -> set[str]:
    """Every long option of parser and of its subcommands' parsers."""
    out = set()
    for action in parser._actions:
        out.update(o for o in action.option_strings if o.startswith("--"))
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                out |= _long_options(sub)
    return out


def test_readme_flags_are_the_parser_options():
    # Each option is documented, and each flag the README names exists;
    # pip's flag and argparse's own --help are not the program's.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", readme)) - {"--no-build-isolation"}
    assert named == _long_options(cli._build_parser()) - {"--help"}


def test_readme_statuses_are_the_entry_statuses():
    # The README lists, in this order, the statuses of one outcome of each
    # kind the search gives: a certificate either way, an exhausted search
    # and a period with no finite first horizon.
    outcomes = [*obscheck.sweep_dc(st.harmonic_oscillator(), [1.0, np.pi]),
                *obscheck.sweep_dc(st.ContinuousSystem([[-0.001]], [[0.0]]), [1.0], 2, 0.5),
                *obscheck.sweep_dc(st.ContinuousSystem([[300.0]], [[0.0]]), [2.5])]
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    [listed] = re.findall(r"has a `status` that is one of (.*?);", readme, flags=re.S)
    assert [cli._entry(o)["status"] for o in outcomes] == re.findall(r"`([a-z-]+)`", listed)


def test_readme_outputs_are_the_files_the_subcommands_write(tmp_path):
    # The README's Outputs paragraph names every file a subcommand writes,
    # and no other; example's file is named after its system, <name>.json.
    commands = ["analyze --example oscillator --T 1",
                "synthesize --example frac-heat --modes 8 --T 1",
                "simulate --example frac-heat --modes 8 --T 1 --horizon 2",
                "sweep --example oscillator --sweep 1:2:0.5",
                "witness --T 1 --support-points 32",
                "example oscillator"]
    written = set()
    for i, command in enumerate(commands):
        out = tmp_path / str(i)
        assert run_quietly([*command.split(), "--out", str(out)]) == (EXIT_OK, [])
        written |= {p.name.replace("oscillator.json", "<name>.json") for p in out.iterdir()}
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    [outputs] = re.findall(r"^Outputs: (.*?)\n\n", readme, flags=re.S | re.M)
    named = set(re.findall(r"`([\w<>]+\.(?:json|csv|npy))`", outputs))
    assert written == named == {"report.json", "sweep.csv", "<name>.json", "K.npy", "F.npy",
                                "closed_loop.npy", "trajectory.npy", "trajectory.csv"}


def test_a_reused_parser_writes_the_reports_of_fresh_ones(tmp_path):
    # The parser is built once per process: a command parsed after others
    # must echo the configuration that a process parsing only it echoes.
    assert cli._build_parser() is cli._build_parser()
    commands = ["synthesize --example frac-heat --modes 8 --T 1 --max-iter 40",
                "simulate --example frac-heat --T 1 --horizon 2 --loop dp",
                "analyze --example oscillator --T 1 --seed 3",
                "sweep --example oscillator --sweep 1:2:0.5"]
    argvs = [[*c.split(), "--out", str(tmp_path / str(i))] for i, c in enumerate(commands)]
    fresh = []
    for argv in argvs:
        fresh_stdout(f"from sampstab.cli import main; assert main({argv!r}) == 0")
        fresh.append((Path(argv[-1]) / "report.json").read_bytes())
    for argv, want in zip(argvs, fresh):
        assert run_quietly(argv) == (EXIT_OK, [])
        assert (Path(argv[-1]) / "report.json").read_bytes() == want, argv[0]


def test_linear_algebra_failure_is_numeric_failure(tmp_path, monkeypatch):
    # numpy's LinAlgError is a ValueError; it must not read as a bad input.
    def fail(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(obscheck, "decide_dc", fail)
    code, err = run_quietly(["analyze", "--example", "oscillator", "--T", "1",
                             "--out", str(tmp_path)])
    assert code == EXIT_NUMERIC
    assert len(err) == 1 and err[0].startswith("numeric failure: ")


_SOURCED = ["analyze --T 1", "synthesize --T 1", "simulate --T 1 --horizon 2",
            "sweep --sweep 1:2:1"]


@pytest.mark.parametrize("command", _SOURCED)
@pytest.mark.parametrize("case", ["directory", "missing", "non-utf8"])
def test_unreadable_system_file_is_config_error(tmp_path, command, case):
    (tmp_path / "non-utf8").write_bytes(b'{"A": [[\xff]]}')
    path = {"directory": tmp_path, "missing": tmp_path / "missing.json",
            "non-utf8": tmp_path / "non-utf8"}[case]
    code, err = run_quietly([*command.split(), "--system", str(path),
                             "--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("command", [f"{c} --example oscillator" for c in _SOURCED]
                         + ["witness --T 1", "example oscillator"])
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_unwritable_output_is_config_error(tmp_path, command, out):
    (tmp_path / "file").write_text("")
    code, err = run_quietly([*command.split(), "--out", str(tmp_path / out)])
    assert code == EXIT_CONFIG
    assert len(err) == 1 and err[0].startswith("error: ")


def test_cli_import_leaves_scipy_integrate_unloaded():
    # No module of the package imports it (det_lambda's quadrature oracle
    # lives with the tests); loading it would add about half to every call's
    # start-up.
    code = "import sys, sampstab.cli; print('scipy.integrate' in sys.modules)"
    assert fresh_stdout(code) == ["False"]
