"""Command-line front end: analyze / synthesize / simulate / sweep / witness / example.

Reports are deterministic JSON (sorted keys, no timestamps): the same
configuration and seed produce byte-identical files.  Wall time goes to
stdout only.  Exit codes: 0 success, 2 configuration error (a bad system
definition or an out-of-range argument: every ValueError), 3 feasibility
search exhausted, 4 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys as _sys
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__, benchmarks, closedloop, linsys, lqsynth, obscheck
from .errors import (GridTooCoarse, NumericOverflowError,
                     RiccatiDivergenceError, SearchExhausted, SpectralRadiusError)
from .serialize import dump_json, vector_from_json

_BACKEND = (f"numpy {np.__version__}, scipy {scipy.__version__}, "
            "expm=pade-scaling-squaring")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_EXHAUSTED = 3
EXIT_NUMERIC = 4


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sampstab",
        description="Stabilizability analysis under periodic sampled observation.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, system=True):
        if system:
            g = sp.add_mutually_exclusive_group(required=True)
            g.add_argument("--system", metavar="FILE", help="system definition JSON")
            g.add_argument("--example", choices=["oscillator", "frac-heat", "schrodinger"],
                           help="built-in benchmark system")
            sp.add_argument("--modes", type=int, default=64,
                            help="truncation size for spectral benchmarks")
            sp.add_argument("--xi-max", type=float, default=4.0,
                            help="frequency extent for spectral benchmarks")
            sp.add_argument("--s", type=float, default=1.5,
                            help="diffusion exponent for frac-heat")
            sp.add_argument("--c", type=float, default=1.0,
                            help="instability shift for frac-heat")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--seed", type=int, default=0,
                        help="seed for randomized cross-checks")

    sp = sub.add_parser("analyze", help="decide the observability inequalities at a period")
    common(sp)
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--N-max", type=int, default=16)
    sp.add_argument("--delta", type=float, default=0.9)
    sp.add_argument("--brute-samples", type=int, default=2000,
                    help="random states for the certificate cross-check")

    sp = sub.add_parser("synthesize", help="sampled LQ gain via the Riccati kernel")
    common(sp)
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--tol", type=float, default=lqsynth.DEFAULT_TOL)
    sp.add_argument("--max-iter", type=int, default=lqsynth.DEFAULT_MAX_ITER,
                    help="cap on Riccati doublings")

    sp = sub.add_parser("simulate", help="closed-loop trajectory with a synthesized gain")
    common(sp)
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--loop", choices=["dc", "cc", "dp", "cp"], default="dc")
    sp.add_argument("--horizon", type=float, required=True)
    sp.add_argument("--steps-per-period", type=int, default=16)
    sp.add_argument("--y0", help="initial state JSON list (default: normalized ones)")

    sp = sub.add_parser("sweep", help="feasibility verdicts over a grid of periods")
    common(sp)
    sp.add_argument("--sweep", required=True, metavar="LO:HI:STEP")
    sp.add_argument("--N-max", type=int, default=8)
    sp.add_argument("--delta", type=float, default=0.9)

    sp = sub.add_parser("witness", help="sampled-observability counterexample state")
    common(sp, system=False)
    sp.add_argument("--T", type=float, required=True)
    sp.add_argument("--N", type=int, default=2)
    sp.add_argument("--epsilon", type=float, default=0.01)
    sp.add_argument("--support-points", type=int, default=512,
                    help="grid points across the witness support")

    sp = sub.add_parser("example", help="write a benchmark system definition to JSON")
    common(sp, system=False)
    sp.add_argument("name", choices=["oscillator", "frac-heat", "schrodinger"])
    sp.add_argument("--modes", type=int, default=64)
    sp.add_argument("--xi-max", type=float, default=4.0)
    sp.add_argument("--s", type=float, default=1.5)
    sp.add_argument("--c", type=float, default=1.0)
    return p


def _resolve_system(args):
    if getattr(args, "system", None):
        path = Path(args.system)
        if not path.exists():
            raise ValueError(f"system file not found: {path}")
        return linsys.load_system(path)
    name = getattr(args, "example", None) or getattr(args, "name", None)
    if name == "oscillator":
        return benchmarks.harmonic_oscillator()
    if name == "frac-heat":
        return benchmarks.fractional_heat(args.modes, args.s, args.c, xi_max=args.xi_max)
    if name == "schrodinger":
        return benchmarks.schrodinger(args.modes, args.xi_max)
    raise ValueError("no system specified")


def _config_echo(args) -> dict:
    skip = {"command"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _report(args, results: dict) -> dict:
    return {
        "schema": 1,
        "command": args.command,
        "config": _config_echo(args),
        "library_version": __version__,
        "backend": _BACKEND,
        "seed": getattr(args, "seed", 0),
        "results": results,
    }


def _write_report(args, results: dict) -> Path:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "report.json"
    dump_json(_report(args, results), path)
    return path


def _default_y0(n: int) -> np.ndarray:
    return np.ones(n) / math.sqrt(n)


def _certificate_or_status(decide, *a, **kw):
    try:
        cert = decide(*a, **kw)
        status = "feasible" if cert.feasible else "infeasible"
        return {"status": status, "certificate": cert.to_json()}, cert
    except SearchExhausted as exc:
        return {
            "status": "search-exhausted",
            "best_margin": exc.best_margin,
            "best_horizon": exc.best_horizon,
        }, None


def cmd_analyze(args) -> int:
    system = _resolve_system(args)
    dc_entry, dc_cert = _certificate_or_status(
        obscheck.decide_dc, system, args.T, args.N_max, args.delta)
    cc_entry, _ = _certificate_or_status(
        obscheck.decide_cc, system, args.T, args.N_max, args.delta)

    if dc_cert is not None and dc_cert.feasible:
        g = obscheck.discrete_gramian(system, args.T, int(dc_cert.N))
        violation = obscheck.brute_force_max_violation(
            g, dc_cert.C, dc_cert.delta, args.brute_samples, args.seed)
        dc_entry["brute_force"] = {
            "samples": args.brute_samples,
            "max_violation": violation,
            "contradicts": bool(violation > 1e-8),
        }

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


def _synthesize(system, T: float, tol: float, max_iter: int):
    sampled = linsys.sample(system, T)
    sol = lqsynth.riccati_solve(sampled, tol=tol, max_iter=max_iter)
    if not sol.converged:
        raise RiccatiDivergenceError(
            f"Riccati doubling did not converge in {sol.iterations} doublings "
            f"(residual {sol.residual:.3g}); the sampled pair is likely not "
            "stabilizable -- cross-check with 'analyze'"
        )
    gain = lqsynth.feedback_gain(sol, sampled)
    return sampled, sol, gain


def cmd_synthesize(args) -> int:
    system = _resolve_system(args)
    sampled, sol, gain = _synthesize(system, args.T, args.tol, args.max_iter)
    y0 = _default_y0(sampled.state_dim)
    # Costs first: the Lyapunov solve's workspace is freed before the
    # matrices are expanded into JSON lists.
    cost_check = {
        "y0": "normalized ones vector",
        "kernel_quadratic_form": lqsynth.lq_optimal_cost(sol, y0),
        "simulated_cost": lqsynth.closed_loop_cost(gain, sampled, y0),
    }
    results = {"riccati": sol.to_json(), "gain": gain.to_json(), "cost_check": cost_check}
    _write_report(args, results)
    print(f"spectral radius {gain.spectral_radius:.6g} "
          f"({sol.iterations} doublings, residual {sol.residual:.3g})")
    return EXIT_OK


def cmd_simulate(args) -> int:
    system = _resolve_system(args)
    dense = linsys.to_dense(system) if isinstance(system, linsys.SpectralSystem) else system
    # Before the Riccati solve, which may diverge at a T the grid rejects.
    closedloop.check_grid(args.T, args.horizon, args.steps_per_period,
                          dense.state_dim + dense.input_dim)
    _, sol, gain = _synthesize(system, args.T, lqsynth.DEFAULT_TOL,
                               lqsynth.DEFAULT_MAX_ITER)
    y0 = (vector_from_json(json.loads(args.y0)) if args.y0
          else _default_y0(dense.state_dim))
    simulate = getattr(closedloop, f"simulate_{args.loop}")
    traj = simulate(dense, gain.F, args.T, y0, args.horizon, args.steps_per_period)
    omega, c = closedloop.fit_decay(traj)

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    closedloop.trajectory_to_csv(traj, out_dir / "trajectory.csv", header={
        "system_hash": closedloop.system_hash(dense),
        "law": args.loop,
        "T": args.T,
        "omega": omega,
        "c": c,
    })
    norms = traj.norms()
    results = {
        "loop": args.loop,
        "riccati": {"iterations": sol.iterations, "residual": sol.residual},
        "gain": gain.to_json(),
        "decay": {"omega": omega, "c": c},
        "final_norm_ratio": float(norms[-1] / norms[0]),
    }
    _write_report(args, results)
    print(f"{args.loop} loop: fitted omega = {omega:.6g}, "
          f"final/initial norm = {norms[-1] / norms[0]:.3g}")
    return EXIT_OK


def _parse_sweep(spec: str):
    try:
        lo, hi, step = (float(x) for x in spec.split(":"))
    except ValueError as exc:
        raise ValueError(f"--sweep must be LO:HI:STEP, got {spec!r}") from exc
    if not (lo > 0 and hi >= lo and step > 0):
        raise ValueError("--sweep requires 0 < LO <= HI and STEP > 0")
    n = int(math.floor((hi - lo) / step + 1e-9)) + 1
    return [lo + k * step for k in range(n)]


def cmd_sweep(args) -> int:
    system = _resolve_system(args)
    grid = _parse_sweep(args.sweep)
    rows = []
    for T in grid:
        entry, cert = _certificate_or_status(
            obscheck.decide_dc, system, T, args.N_max, args.delta)
        row = {"T": T, "status": entry["status"]}
        if cert is not None:
            row.update(cert.to_json())
        rows.append(row)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    cols = ["T", "status", "feasible", "N", "C", "delta", "margin", "kernel_dim"]
    with open(out_dir / "sweep.csv", "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(str(row.get(c, "")) for c in cols) + "\n")
    n_feasible = sum(r["status"] == "feasible" for r in rows)
    results = {"rows": rows, "feasible_count": n_feasible, "grid_size": len(grid)}
    _write_report(args, results)
    print(f"sweep: {n_feasible}/{len(grid)} periods feasible")
    return EXIT_OK


# Ceiling on witness grid points (80 MB per float array); --epsilon 1e-8 needs 7.4M.
_MAX_WITNESS_POINTS = 10 ** 7


def _witness_grid(lo: float, hi: float, support_points: int) -> np.ndarray:
    """Uniform grid over [0, 1.02 hi] with support_points spacings across (lo, hi)."""
    if support_points < 1:
        raise ValueError("--support-points must be >= 1")
    spacing = (hi - lo) / support_points
    points = 1.02 * hi / spacing if spacing > 0 else math.inf
    if points + 1 > _MAX_WITNESS_POINTS:
        raise ValueError(f"witness grid needs {points + 1:.3g} points, over the "
                         f"ceiling of {_MAX_WITNESS_POINTS:.0e}; raise --epsilon "
                         "or lower --T or --support-points")
    return np.linspace(0.0, 1.02 * hi, int(math.ceil(points)) + 1)


def cmd_witness(args) -> int:
    _, lo, hi = benchmarks.witness_band(args.T, args.N, args.epsilon)
    grid = _witness_grid(lo, hi, args.support_points)
    wit = benchmarks.schrodinger_witness(args.T, args.N, args.epsilon, grid)
    results = {
        "witness": wit.to_json(),
        "state_norm": wit.norm(),
        "input_operator": "-i * identity (unit-modulus factor absorbed by the mask)",
    }
    _write_report(args, results)
    print(f"witness: observed {wit.observed:.3g} <= bound {wit.bound:.3g} "
          f"<= epsilon {args.epsilon:g}; ||phi|| = {wit.norm():.12f}")
    return EXIT_OK


def cmd_example(args) -> int:
    system = _resolve_system(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"{args.name}.json"
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
    except (GridTooCoarse, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except SearchExhausted as exc:
        print(f"search exhausted: {exc}", file=_sys.stderr)
        return EXIT_EXHAUSTED
    except (NumericOverflowError, RiccatiDivergenceError, SpectralRadiusError,
            np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERIC
    print(f"wall time: {time.perf_counter() - start:.3f} s")
    return code


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
