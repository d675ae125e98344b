"""Command-line front end: analyze / synthesize / simulate / sweep / witness / example.

Reports are deterministic JSON (sorted keys, no timestamps) with their bulk
arrays in .npy files: the same configuration produces byte-identical files.
Wall time goes to stdout only.  Exit codes: 0 success, 2 configuration error
(a bad system definition, an out-of-range argument or a file that cannot be
read or written: every ValueError and OSError), 3 feasibility search
exhausted, 4 numeric failure (numpy's LinAlgError included, though it is a
ValueError).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys as _sys
import time
from pathlib import Path

import numpy as np

from . import __version__, benchmarks, closedloop, linsys, lqsynth, obscheck
from .errors import (GridTooCoarse, NumericOverflowError,
                     RiccatiDivergenceError, SearchExhausted, SpectralRadiusError)
from .serialize import dump_json, save_array, vector_from_json


EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EXHAUSTED = 3
EXIT_NUMERIC = 4

# report.json layout: 3 saves K, F and the closed loop as .npy files (per mode for a
# spectral system) and gives each array's file, shape, dtype and SHA-256 in its place;
# 4 reports analyze's cross-check as an exact margin and its rounding tolerance; 5 drops
# the top-level seed, which only analyze's config holds; 6 drops best_horizon from a
# search-exhausted entry and synthesize's tol, and gives sweep numeric-failure rows;
# 7 saves simulate's trajectory table as trajectory.npy and gives its descriptor.
REPORT_SCHEMA = 7

# The built-in systems, by name, from the spectral options.
_EXAMPLES = {
    "oscillator": lambda args: benchmarks.harmonic_oscillator(),
    "frac-heat": lambda args: benchmarks.fractional_heat(args.modes, args.s, args.c,
                                                         xi_max=args.xi_max),
    "schrodinger": lambda args: benchmarks.schrodinger(args.modes, args.xi_max),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built once per process; each shared option is declared once, in a parent parser."""
    spectral = argparse.ArgumentParser(add_help=False)
    spectral.add_argument("--modes", type=int, default=64,
                          help="truncation size for spectral benchmarks")
    spectral.add_argument("--xi-max", type=float, default=4.0,
                          help="frequency extent for spectral benchmarks")
    spectral.add_argument("--s", type=float, default=1.5, help="diffusion exponent for frac-heat")
    spectral.add_argument("--c", type=float, default=1.0, help="instability shift for frac-heat")
    source = argparse.ArgumentParser(add_help=False, parents=[spectral])
    g = source.add_mutually_exclusive_group(required=True)
    g.add_argument("--system", metavar="FILE", help="system definition JSON")
    g.add_argument("--example", choices=list(_EXAMPLES), help="built-in benchmark system")
    period = argparse.ArgumentParser(add_help=False)
    period.add_argument("--T", type=float, required=True)
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=".", help="output directory")

    p = argparse.ArgumentParser(
        prog="sampstab",
        description="Stabilizability analysis under periodic sampled observation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, summary, *parents):
        return sub.add_parser(name, help=summary, parents=[*parents, output])

    sp = command("analyze", "decide the observability inequalities at a period", source, period)
    sp.add_argument("--N-max", type=int, default=16)
    sp.add_argument("--delta", type=float, default=0.9)
    sp.add_argument("--seed", type=int, default=0,
                    help="seed of the random basis that a dense certificate is re-decided in")

    sp = command("synthesize", "sampled LQ gain via the Riccati kernel", source, period)
    sp.add_argument("--max-iter", type=int, default=lqsynth.DEFAULT_MAX_ITER,
                    help="cap on Riccati doublings")

    sp = command("simulate", "closed-loop trajectory with a synthesized gain", source, period)
    sp.add_argument("--loop", choices=["dc", "cc", "dp", "cp"], default="dc")
    sp.add_argument("--horizon", type=float, required=True)
    sp.add_argument("--steps-per-period", type=int, default=16)
    sp.add_argument("--y0", help="initial state JSON list (default: normalized ones)")

    sp = command("sweep", "feasibility verdicts over a grid of periods", source)
    sp.add_argument("--sweep", required=True, metavar="LO:HI:STEP")
    sp.add_argument("--N-max", type=int, default=8)
    sp.add_argument("--delta", type=float, default=0.9)

    sp = command("witness", "sampled-observability counterexample state", period)
    sp.add_argument("--N", type=int, default=2)
    sp.add_argument("--epsilon", type=float, default=0.01)
    sp.add_argument("--support-points", type=int, default=512,
                    help="grid points strictly inside the witness support")

    sp = command("example", "write a benchmark system definition to JSON", spectral)
    sp.add_argument("name", choices=list(_EXAMPLES))
    return p


def _resolve_system(args):
    """The system of the --system file, else of the named example."""
    if getattr(args, "system", None) is not None:
        return linsys.load_system(args.system)
    return _EXAMPLES[args.name if args.command == "example" else args.example](args)


def _out_path(args, name: str) -> Path:
    """The path of output file `name`, once the --out directory exists."""
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / name


def _array_saver(args):
    """save(name, a) for to_json: a as name.npy in the --out directory, and its descriptor."""
    return lambda name, a: save_array(a, _out_path(args, f"{name}.npy"))


def _write_report(args, results: dict) -> None:
    report = {
        "schema": REPORT_SCHEMA,
        "command": args.command,
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "command"},
        "library_version": __version__,
        "backend": f"numpy {np.__version__}, expm=pade13-scaling-squaring",
        "results": results,
    }
    dump_json(report, _out_path(args, "report.json"))


def _default_y0(n: int) -> np.ndarray:
    return np.ones(n) / math.sqrt(n)


def _outcome(decide, *args):
    """decide(*args), or the SearchExhausted it raises."""
    try:
        return decide(*args)
    except SearchExhausted as exc:
        return exc


def _entry(outcome) -> dict:
    """The report entry of a certificate, a SearchExhausted or a NumericOverflowError."""
    if isinstance(outcome, SearchExhausted):
        return {"status": "search-exhausted", "best_margin": outcome.best_margin}
    if isinstance(outcome, NumericOverflowError):
        return {"status": "numeric-failure"}
    status = "feasible" if outcome.feasible else "infeasible"
    return {"status": status, "certificate": outcome.to_json()}


def cmd_analyze(args) -> int:
    system = _resolve_system(args)
    dc = _outcome(obscheck.decide_dc, system, args.T, args.N_max, args.delta)
    dc_entry = _entry(dc)
    # Only the entry: the certificate would keep its bundle alive through the brute force.
    cc_entry = _entry(_outcome(obscheck.decide_cc, system, args.T, args.N_max, args.delta))

    if dc_entry["status"] == "feasible":
        violation, tolerance = obscheck.brute_force_max_violation(
            system, dc.bundle, dc.C, dc.delta, args.seed)
        dc_entry["brute_force"] = {"max_violation": violation, "tolerance": tolerance,
                                   "contradicts": bool(violation > tolerance)}

    results = {"discrete": dc_entry, "continuous": cc_entry}
    _write_report(args, results)

    for label, entry in (("(DC)_T", dc_entry), ("(CC)  ", cc_entry)):
        if entry["status"] == "feasible":
            cert = entry["certificate"]
            print(f"{label}: feasible (N = {cert['N']:g}, C = {cert['C']:.6g}, "
                  f"delta = {cert['delta']:g}, margin = {cert['margin']:.3g})")
        elif entry["status"] == "infeasible":
            cert = entry["certificate"]
            print(f"{label}: infeasible (kernel norm {cert.get('kernel_norm', 0):.6g})")
        else:
            print(f"{label}: search-exhausted (best margin {entry['best_margin']:.3g})")
    if dc_entry["status"] == "search-exhausted" or cc_entry["status"] == "search-exhausted":
        return EXIT_EXHAUSTED
    return EXIT_OK


def _synthesize(system, T: float, max_iter: int):
    sampled = linsys.sample(system, T)
    sol = lqsynth.riccati_solve(sampled, max_iter=max_iter)
    if not sol.converged:
        raise RiccatiDivergenceError(
            f"Riccati solve did not converge ({sol.iterations} doublings, "
            f"residual {sol.residual:.3g}); the sampled pair is likely not "
            "stabilizable -- cross-check with 'analyze'"
        )
    return sol, lqsynth.feedback_gain(sol, sampled)


def cmd_synthesize(args) -> int:
    system = _resolve_system(args)
    sol, gain = _synthesize(system, args.T, args.max_iter)
    y0 = _default_y0(system.state_dim)
    cost_check = {
        "y0": "normalized ones vector",
        "kernel_quadratic_form": lqsynth.lq_optimal_cost(sol, y0),
        "simulated_cost": lqsynth.closed_loop_cost(gain, y0),
    }
    save = _array_saver(args)
    results = {"riccati": sol.to_json(save), "gain": gain.to_json(save),
               "cost_check": cost_check}
    _write_report(args, results)
    print(f"spectral radius {gain.spectral_radius:.6g} "
          f"({sol.iterations} doublings, residual {sol.residual:.3g})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    system = _resolve_system(args)
    # Before the Riccati solve, which may diverge at a T the grid rejects.
    closedloop.check_grid(args.T, args.horizon, args.steps_per_period,
                          system.state_dim + system.input_dim)
    sol, gain = _synthesize(system, args.T, lqsynth.DEFAULT_MAX_ITER)
    y0 = (vector_from_json(json.loads(args.y0)) if args.y0
          else _default_y0(system.state_dim))
    simulate = getattr(closedloop, f"simulate_{args.loop}")
    traj = simulate(system, gain.F, args.T, y0, args.horizon, args.steps_per_period)
    radius = traj.loop_radius()
    if not radius < 1.0:
        raise SpectralRadiusError(
            f"{args.loop} loop is not stable: its one-period map has spectral radius "
            f"{radius:.6g} >= 1 under the sampled LQ gain")
    rate = -math.log(radius) / args.T if radius > 0 else math.inf
    # The trajectory keeps its norms: the fit, the CSV, the table and the ratio share them.
    omega, c = closedloop.fit_decay(traj)

    closedloop.trajectory_to_csv(traj, _out_path(args, "trajectory.csv"), header={
        "system_hash": closedloop.system_hash(system),
        "law": args.loop,
        "T": args.T,
        "omega": omega,
        "c": c,
    })
    save = _array_saver(args)
    norms = traj.norms()
    results = {
        "loop": args.loop,
        "riccati": {"iterations": sol.iterations, "residual": sol.residual},
        "gain": gain.to_json(save),
        "trajectory": save("trajectory", closedloop.trajectory_table(traj)),
        "decay": {"omega": omega, "c": c},
        "loop_radius": radius,
        "loop_rate": rate,
        "final_norm_ratio": float(norms[-1] / norms[0]),
    }
    _write_report(args, results)
    print(f"{args.loop} loop: fitted omega = {omega:.6g}, "
          f"final/initial norm = {norms[-1] / norms[0]:.3g}")
    return EXIT_OK


# Ceiling on the periods of one sweep, each a feasibility search of its own.
_MAX_SWEEP_PERIODS = 10 ** 6


def _parse_sweep(spec: str):
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ValueError(f"--sweep must be LO:HI:STEP, got {spec!r}") from exc
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ValueError("--sweep bounds and step must be finite")
    if not (lo > 0 and hi >= lo and step > 0):
        raise ValueError("--sweep requires 0 < LO <= HI and STEP > 0")
    spacings = (hi - lo) / step + 1e-9
    if not spacings < _MAX_SWEEP_PERIODS:  # floor(spacings) + 1 periods
        raise ValueError(f"--sweep asks for {spacings + 1:.3g} periods, over the ceiling "
                         f"of {_MAX_SWEEP_PERIODS:.0e}; raise STEP or narrow LO:HI")
    return [lo + k * step for k in range(int(math.floor(spacings)) + 1)]


def cmd_sweep(args) -> int:
    grid = _parse_sweep(args.sweep)
    system = _resolve_system(args)
    # One stacked search per chunk of periods; the rows hold no bundle.
    outcomes = map(_entry, obscheck.sweep_dc(system, grid, args.N_max, args.delta))
    rows = [{"T": T, "status": entry["status"], **entry.get("certificate", {})}
            for T, entry in zip(grid, outcomes)]
    cols = ["T", "status", "feasible", "N", "C", "delta", "margin", "kernel_dim"]
    with open(_out_path(args, "sweep.csv"), "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row.get(c, "")) for c in cols) + "\n")
    n_feasible = sum(r["status"] == "feasible" for r in rows)
    results = {"rows": rows, "feasible_count": n_feasible, "grid_size": len(grid)}
    _write_report(args, results)
    print(f"sweep: {n_feasible}/{len(grid)} periods feasible")
    return EXIT_OK


# Ceiling on --support-points: 80 MB per float array of the witness grid.
_MAX_WITNESS_POINTS = 10 ** 7


def _witness_grid(lo: float, hi: float, support_points: int) -> np.ndarray:
    """Uniform grid over the band [lo, hi] with support_points points strictly inside."""
    if not 1 <= support_points <= _MAX_WITNESS_POINTS:
        raise ValueError(f"--support-points must lie in [1, {_MAX_WITNESS_POINTS:.0e}]")
    return np.linspace(lo, hi, support_points + 2)


def cmd_witness(args) -> int:
    _, lo, hi = benchmarks.witness_band(args.T, args.N, args.epsilon)
    grid = _witness_grid(lo, hi, args.support_points)
    wit = benchmarks.schrodinger_witness(args.T, args.N, args.epsilon, grid)
    norm = wit.norm()
    results = {
        "witness": wit.to_json(),
        "state_norm": norm,
        "input_operator": "-i * identity (unit-modulus factor absorbed by the mask)",
    }
    _write_report(args, results)
    print(f"witness: observed {wit.observed:.3g} <= bound {wit.bound:.3g} "
          f"<= epsilon {args.epsilon:g}; ||phi|| = {norm:.12f}")
    return EXIT_OK


def cmd_example(args) -> int:
    system = _resolve_system(args)
    path = _out_path(args, f"{args.name}.json")
    dump_json(linsys.system_to_json(system), path)
    print(f"wrote {path}")
    return EXIT_OK


_COMMANDS = {
    "analyze": cmd_analyze,
    "synthesize": cmd_synthesize,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "witness": cmd_witness,
    "example": cmd_example,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    start = time.perf_counter()
    try:
        code = _COMMANDS[args.command](args)
    except (NumericOverflowError, RiccatiDivergenceError, SpectralRadiusError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERIC
    except (GridTooCoarse, OSError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    print(f"wall time: {time.perf_counter() - start:.3f} s")
    return code


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
