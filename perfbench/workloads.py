"""Workload definitions and the seeded input generator.

A workload is a fixed list of CLI operations.  Each operation is the argv a
user would pass to ``sampstab``; the only inputs that vary with the workload
seed are the dense random systems, which are written as ``--system`` JSON
files.  ``quick=True`` swaps every size for the smallest one that still takes
the same code path, so the self-test can run all three workloads in seconds.

Why these workloads (see README.md for the layer map):

* analyze  -- a few large observability decisions; nearly all time is in
  obscheck (Hermitian eigendecompositions, 2n x 2n expm).  lqsynth and
  closedloop never run, so changes there must leave it unchanged.
* periods  -- hundreds of order-2..16 problems along the period axis, where
  per-call overhead and branch logic dominate; includes the near-pi periods
  where analyze and synthesize disagree (ROADMAP item 5a).
* certify  -- synthesis and simulation, dominated by lqsynth, closedloop and
  the JSON/CSV writers; obscheck never runs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("analyze", "periods", "certify")

# Dense random systems per workload: name -> (n, m) at full size and quick size.
DENSE_SYSTEMS = {
    "analyze": {"dense128": ((128, 8), (4, 1))},
    "periods": {"dense8": ((8, 2), (2, 1))},
    "certify": {"dense32": ((32, 4), (4, 1))},
}
# Spectral abscissa of the generated generators: mildly unstable, as in the
# test suite's random_mixed_system.
DENSE_SHIFT = 0.2


@dataclass(frozen=True)
class Op:
    """One CLI call of a workload.

    ``known_defect`` names the ROADMAP item whose documented failure this op
    reproduces in the current code; the op must either fail exactly that way or
    pass every check.  ``seeded`` ops read a generated system, so their
    fingerprint changes with the seed and has no frozen reference.
    """

    id: str
    argv: tuple
    known_defect: str | None = None
    seeded: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]


def dense_system(seed: int, n: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Shifted complex Gaussian (A, B) with spectral abscissa +DENSE_SHIFT."""
    rng = np.random.default_rng((seed, n, m))
    A = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(n)
    A -= (np.linalg.eigvals(A).real.max() - DENSE_SHIFT) * np.eye(n)
    B = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m))) / math.sqrt(m)
    return A, B


def _matrix_json(M: np.ndarray) -> list:
    return [[[z.real, z.imag] for z in row.tolist()] for row in M]


def make_inputs(workload: str, seed: int, quick: bool, directory: Path) -> dict:
    """Write the workload's seeded systems as --system JSON; return name -> info."""
    directory.mkdir(parents=True, exist_ok=True)
    inputs = {}
    for name, sizes in DENSE_SYSTEMS[workload].items():
        n, m = sizes[1] if quick else sizes[0]
        A, B = dense_system(seed, n, m)
        path = directory / f"{name}.json"
        path.write_text(json.dumps({"A": _matrix_json(A), "B": _matrix_json(B)}),
                        encoding="utf-8")
        inputs[name] = {"path": str(path), "n": n, "m": m, "seed": seed}
    return inputs


def _op(op_id: str, argv: str, *tail: str, **kw) -> Op:
    return Op(op_id, tuple(argv.split()) + tail, **kw)


def build_ops(workload: str, inputs: dict, quick: bool) -> list[Op]:
    """The ordered operations of one pass over ``workload``.

    analyze/frac-heat-64, analyze/oscillator and simulate/frac-heat-32-dp are
    small; with the other ops they cover every row of the ROADMAP baseline
    table, so a run's per-op medians reproduce it.
    """
    q = quick
    if workload == "analyze":
        dense = inputs["dense128"]["path"]
        return [
            _op("analyze/frac-heat", f"analyze --example frac-heat --modes {8 if q else 256} --T 1"),
            _op("analyze/schrodinger", f"analyze --example schrodinger --modes {8 if q else 128} --T 1"),
            _op("analyze/frac-heat-64", f"analyze --example frac-heat --modes {8 if q else 64} --T 1"),
            _op("analyze/dense", "analyze --T 1", "--system", dense, seeded=True),
            _op("analyze/stiff-heat",
                f"analyze --example frac-heat --modes {8 if q else 64} --xi-max 20 --s 2 --T 5",
                known_defect="5b"),
            _op("witness/schrodinger",
                f"witness --T 0.5 --N {2 if q else 8} --epsilon 0.001 "
                f"--support-points {64 if q else 4096}"),
        ]
    if workload == "periods":
        dense = inputs["dense8"]["path"]
        # Quick mode caps value iteration so the defect op still exits 4, fast.
        cap = " --max-iter 2000" if q else ""
        return [
            _op("sweep/oscillator",
                f"sweep --example oscillator --sweep {'0.5:9.5:0.5' if q else '0.05:9.95:0.05'}"),
            _op("sweep/dense", f"sweep --sweep {'1:10:1' if q else '0.1:10:0.1'}",
                "--system", dense, seeded=True),
            _op("analyze/oscillator", "analyze --example oscillator --T 1"),
            _op("analyze/oscillator-pi", f"analyze --example oscillator --T {math.pi!r}"),
            _op("analyze/oscillator-2pi", f"analyze --example oscillator --T {2 * math.pi!r}"),
            _op("analyze/oscillator-near-pi", "analyze --example oscillator --T 3.1415"),
            _op("synthesize/oscillator-near-pi",
                f"synthesize --example oscillator --T 3.1415{cap}", known_defect="5a"),
        ]
    if workload == "certify":
        dense = inputs["dense32"]["path"]
        modes, horizon = (8, 4) if q else (64, 40)
        ops = [
            _op("synthesize/frac-heat", f"synthesize --example frac-heat --modes {8 if q else 128} --T 1"),
            _op("synthesize/oscillator-fast", f"synthesize --example oscillator --T {0.1 if q else 0.01}"),
        ]
        for loop in ("dc", "dp", "cp", "cc"):
            ops.append(_op(f"simulate/frac-heat-{loop}",
                           f"simulate --example frac-heat --modes {modes} --T 1 "
                           f"--horizon {horizon} --loop {loop}"))
        ops.append(_op("simulate/frac-heat-32-dp",
                       f"simulate --example frac-heat --modes {8 if q else 32} --T 1 "
                       f"--horizon {4 if q else 20} --loop dp"))
        ops.append(_op("simulate/dense-dp",
                       f"simulate --T 1 --horizon {4 if q else 20} --loop dp",
                       "--system", dense, seeded=True))
        return ops
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
