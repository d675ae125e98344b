"""Per-op correctness predicates and result fingerprints.

An op fails when any of these holds:

* the exit code is not 0;
* a feasible certificate fails ``obscheck.check_inequality`` re-checked at its
  reported (N, C, delta), or the brute-force cross-check contradicts it;
* a synthesized spectral radius is not below 1;
* analyze is feasible at some T but synthesize at the same T does not converge;
* a witness breaks observed <= bound <= epsilon, or its norm is not 1;
* a trajectory CSV has the wrong number of rows;
* the fingerprint differs from the frozen reference (see ``compare``).

The fingerprint of an op keeps what a speed-up must not move: verdict, N, C,
spectral radius rho, decay rate omega, and (for information only) the Riccati
iteration count.

Run as a script to compare the fingerprints of two run records made with the
same workload and seed, or to freeze the seed-independent fingerprints of run
records as the reference::

    python3 perfbench/checks.py diff PARENT/record.json CHANGE/record.json
    python3 perfbench/checks.py freeze perfbench/out/*-trace0/record.json \\
        > perfbench/reference.json
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

# Relative tolerances by fingerprint key.  C must admit the <= 5.6e-7 relative
# gap between bisection and the closed-form constant (ROADMAP item 2); N and
# verdicts must match (N is a float horizon time in continuous mode).
RTOL = {"C": 1e-6, "rho": 1e-6, "omega": 1e-6, "observed": 1e-6, "bound": 1e-6, "N": 1e-9}
# Solver effort, not an answer: reported by ``diff`` but never a mismatch.
INFO_KEYS = frozenset({"iterations"})
# Failure tags each known defect produces in the current code (ROADMAP item 5).
KNOWN_FAILURES = {"5a": {"exit 4", "contradicts analyze"}, "5b": {"exit 4"}}
# Options that identify the system and period an op works on.
_SYSTEM_OPTIONS = ("--system", "--example", "--modes", "--xi-max", "--s", "--c", "--T")


def system_of(config: dict):
    """Rebuild the system an op ran on from its report's config echo."""
    # Imported here so that ``diff`` and ``freeze`` run without the program.
    from sampstab import benchmarks, linsys

    if config.get("system"):
        return linsys.load_system(config["system"])
    name = config["example"]
    if name == "oscillator":
        return benchmarks.harmonic_oscillator()
    if name == "frac-heat":
        return benchmarks.fractional_heat(config["modes"], config["s"], config["c"],
                                          xi_max=config["xi_max"])
    return benchmarks.schrodinger(config["modes"], config["xi_max"])


def _verdict(entry: dict) -> dict:
    out = {"status": entry["status"]}
    cert = entry.get("certificate")
    if cert is not None:
        out.update(N=cert["N"], C=cert["C"])
    return out


def _recheck(system, mode: str, T: float, cert: dict) -> bool:
    from sampstab import obscheck

    if mode == "discrete":
        g = obscheck.discrete_gramian(system, T, int(cert["N"]))
    else:
        g = obscheck.continuous_gramian(system, cert["N"])
    return obscheck.check_inequality(g, cert["C"], cert["delta"]).feasible


def _analyze(results, config, out_dir):
    system = system_of(config)
    fp, fails = {}, []
    for mode in ("discrete", "continuous"):
        entry = results[mode]
        fp[mode] = _verdict(entry)
        if entry["status"] == "feasible" and not _recheck(system, mode, config["T"],
                                                          entry["certificate"]):
            fails.append(f"recheck: {mode} certificate fails check_inequality")
    brute = results["discrete"].get("brute_force")
    if brute is not None and brute["contradicts"]:
        fails.append("brute force: contradicts the discrete certificate")
    return fp, fails


def _sweep(results, config, out_dir):
    system = system_of(config)
    rows, fails = [], []
    for row in results["rows"]:
        rows.append({k: row[k] for k in ("status", "N", "C") if k in row})
        if row["status"] == "feasible" and not _recheck(system, "discrete", row["T"], row):
            fails.append(f"recheck: certificate at T={row['T']!r} fails check_inequality")
    if len(rows) != results["grid_size"]:
        fails.append(f"rows: {len(rows)} rows for a grid of {results['grid_size']}")
    return {"feasible_count": results["feasible_count"], "rows": rows}, fails


def _synthesize(results, config, out_dir):
    rho = results["gain"]["spectral_radius"]
    fails = [] if rho < 1.0 else [f"rho: spectral radius {rho!r} >= 1"]
    return {"rho": rho, "iterations": results["riccati"]["iterations"]}, fails


def _simulate(results, config, out_dir):
    rho = results["gain"]["spectral_radius"]
    fails = [] if rho < 1.0 else [f"rho: spectral radius {rho!r} >= 1"]
    periods = max(math.ceil(config["horizon"] / config["T"] - 1e-12), 1)
    expected = periods * config["steps_per_period"] + 1
    with open(Path(out_dir) / "trajectory.csv", "rb") as fh:
        rows = sum(1 for line in fh if not line.startswith((b"#", b"t,")))
    if rows != expected:
        fails.append(f"csv: {rows} rows, expected {expected}")
    return {"rho": rho, "omega": results["decay"]["omega"],
            "iterations": results["riccati"]["iterations"], "rows": rows}, fails


def _witness(results, config, out_dir):
    wit = results["witness"]
    fails = []
    if not wit["observed"] <= wit["bound"] <= config["epsilon"] * (1 + 1e-12):
        fails.append(f"witness: observed {wit['observed']!r} <= bound {wit['bound']!r} "
                     f"<= epsilon {config['epsilon']!r} fails")
    if abs(results["state_norm"] - 1.0) > 1e-12:
        fails.append(f"witness: norm {results['state_norm']!r} is not 1")
    return {"observed": wit["observed"], "bound": wit["bound"]}, fails


_BY_COMMAND = {"analyze": _analyze, "sweep": _sweep, "synthesize": _synthesize,
               "simulate": _simulate, "witness": _witness}


def check_op(command: str, code: int, out_dir) -> tuple[dict, list[str]]:
    """Fingerprint and failure reasons of one finished op."""
    if code != 0:
        return {"exit": code}, [f"exit {code}"]
    report = json.loads((Path(out_dir) / "report.json").read_text(encoding="utf-8"))
    return _BY_COMMAND[command](report["results"], report["config"], out_dir)


def system_key(argv) -> tuple:
    """The (system, period) an op works on, read from its argv."""
    return tuple((a, b) for a, b in zip(argv, argv[1:]) if a in _SYSTEM_OPTIONS)


def contradictions(ops, fingerprints) -> dict:
    """Synthesize ops that fail where analyze, in the same pass, says feasible.

    Returns op index -> failure reason."""
    feasible = {system_key(op.argv) for op, fp in zip(ops, fingerprints)
                if op.command == "analyze" and fp.get("discrete", {}).get("status") == "feasible"}
    out = {}
    for k, (op, fp) in enumerate(zip(ops, fingerprints)):
        if op.command == "synthesize" and system_key(op.argv) in feasible and "exit" in fp:
            out[k] = "contradicts analyze: feasible at this T, synthesize did not converge"
    return out


def known(defect: str | None, fails: list[str]) -> bool:
    """True when every failure is one the op's known defect produces."""
    if not fails:
        return True
    allowed = KNOWN_FAILURES.get(defect or "", set())
    return all(any(f.startswith(tag) for tag in allowed) for f in fails)


def compare(ref, got, key: str = "", path: str = "") -> tuple[list[str], list[str]]:
    """(mismatches, informational differences) between two fingerprints."""
    where = path or "."
    if isinstance(ref, dict) and isinstance(got, dict):
        bad, info = [], []
        for k in sorted(set(ref) | set(got)):
            if k not in ref or k not in got:
                bad.append(f"{where}/{k}: present on one side only")
                continue
            b, i = compare(ref[k], got[k], k, f"{path}/{k}")
            bad += b
            info += i
        return bad, info
    if isinstance(ref, list) and isinstance(got, list) and len(ref) == len(got):
        bad, info = [], []
        for idx, (r, g) in enumerate(zip(ref, got)):
            b, i = compare(r, g, key, f"{path}[{idx}]")
            bad += b
            info += i
        return bad, info
    same = ref == got
    if not same and isinstance(ref, float) and isinstance(got, float):
        same = math.isclose(ref, got, rel_tol=RTOL.get(key, 1e-9), abs_tol=0.0)
    if same:
        return [], []
    line = f"{where}: {ref!r} -> {got!r}"
    return ([], [line]) if key in INFO_KEYS else ([line], [])


def reference_of(record: dict) -> dict:
    """Seed-independent fingerprints of a run record, keyed by op id."""
    return {op["id"]: op["fingerprint"] for op in record["ops"]
            if not op["seeded"] and not op["known_defect"]}


def _main(argv) -> int:
    if len(argv) >= 2 and argv[0] == "freeze":
        reference = {}
        for path in argv[1:]:
            reference.update(reference_of(json.loads(Path(path).read_text(encoding="utf-8"))))
        print(json.dumps(reference, indent=1, sort_keys=True))
        return 0
    if len(argv) == 3 and argv[0] == "diff":
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv[1:])
        ops_a = {op["id"]: op["fingerprint"] for op in a["ops"]}
        ops_b = {op["id"]: op["fingerprint"] for op in b["ops"]}
        mismatched = 0
        for op_id in sorted(set(ops_a) | set(ops_b)):
            if op_id not in ops_a or op_id not in ops_b:
                print(f"{op_id}: present in one record only")
                mismatched += 1
                continue
            bad, info = compare(ops_a[op_id], ops_b[op_id])
            mismatched += bool(bad)
            for line in bad:
                print(f"{op_id}: MISMATCH {line}")
            for line in info:
                print(f"{op_id}: info {line}")
        print(f"{mismatched} op(s) with moved answers")
        return 1 if mismatched else 0
    print(__doc__.split("::")[1], file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
