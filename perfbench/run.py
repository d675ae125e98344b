"""sampstab benchmark: closed-loop passes of CLI operations, checked and timed.

    python3 perfbench/run.py --workload analyze|periods|certify --seed N \
        --seconds S --trace 0|1 [--quick]

One client in one process runs the workload's ops in order, each through
``sampstab.cli.main(argv)`` and each only after the previous one returned,
and repeats whole passes until a typical (median) pass would end after S
seconds.  Times are means over the run's untraced passes; set-up time is the
median of several fresh processes.  The inputs are the CLI flags in
workloads.py plus the dense systems generated from --seed.  Every op is
checked (checks.py); its fingerprint and the run's environment go to
perfbench/out/<run>/record.json.

--trace 0 measures the end-to-end metrics of BENCHMARK.json with the program
untouched.  --trace 1 alternates untraced and traced passes (tracer.py) and
reports the per-layer metrics; the traced passes must write byte-identical
reports.  The last stdout line is the JSON result; lines before it are a
human-readable summary.  --quick uses the smallest sizes (self-test only).

The program is imported from ``src`` next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# One BLAS thread (never more than nproc): fixed before numpy is imported.
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
_COMMANDS = ("analyze", "sweep", "witness", "synthesize", "simulate")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # Same names as workloads.WORKLOADS, which cannot be imported before the
    # BLAS thread count is fixed (it imports numpy).
    p.add_argument("--workload", required=True, choices=("analyze", "periods", "certify"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true", help="smallest sizes, for the self-test")
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be > 0")
    return args


def _child_env() -> dict:
    """This process's environment (BLAS threads already fixed) with the
    program and the benchmark first on the import path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(HERE)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def measure_setup(args, run_dir: Path) -> list[float]:
    """Wall times of fresh processes that import the CLI and generate the inputs."""
    times = []
    for k in range(1 if args.quick else SETUP_REPEATS):
        cmd = [sys.executable, str(HERE / "probe_setup.py"), args.workload, str(args.seed),
               "1" if args.quick else "0", str(run_dir / f"probe{k}")]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return times


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "git_rev": _git_rev(),
    }


def _digest(out_dir: Path) -> str:
    """Hash of everything an op wrote, so later passes can be matched to the
    checked first pass byte for byte."""
    h = hashlib.sha256()
    for path in sorted(out_dir.glob("*")) if out_dir.is_dir() else ():
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_pass(cli, ops, run_dir: Path, tracer=None) -> list[dict]:
    """Run every op once, in order; return per-op exit code, seconds, output hash."""
    results = []
    for k, op in enumerate(ops):
        out_dir = run_dir / f"op{k}"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = list(op.argv) + ["--out", str(out_dir)]
        sink = io.StringIO()
        span = tracer.root(k) if tracer is not None else contextlib.nullcontext()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), span:
            t0 = time.perf_counter()
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed op, not a failed benchmark
                code = -1
                sink.write(traceback.format_exc())
            seconds = time.perf_counter() - t0
        results.append({"code": code, "seconds": seconds, "digest": _digest(out_dir),
                        "output": sink.getvalue()[-2000:]})
    return results


class Checker:
    """Checks each pass's outputs; passes whose bytes match the first checked
    pass inherit its verdicts, so full checks run once per op."""

    def __init__(self, checks, ops, run_dir: Path, reference: dict):
        self.checks, self.ops, self.run_dir, self.reference = checks, ops, run_dir, reference
        self.first: list[dict] | None = None

    def _check(self, k: int, op, res: dict):
        try:
            fp, fails = self.checks.check_op(op.command, res["code"], self.run_dir / f"op{k}")
        except Exception as exc:  # a malformed report is a failed op
            return {"exit": res["code"]}, [f"check error: {exc!r}"]
        if op.id in self.reference:
            bad, _ = self.checks.compare(self.reference[op.id], fp)
            fails += [f"reference: {line}" for line in bad[:3]]
        return fp, fails

    def evaluate(self, results: list[dict]) -> list[dict]:
        verdicts = []
        for k, (op, res) in enumerate(zip(self.ops, results)):
            first = self.first[k] if self.first else None
            if first and (first["code"], first["digest"]) == (res["code"], res["digest"]):
                fp, fails = first["fingerprint"], list(first["own_failures"])
            else:
                fp, fails = self._check(k, op, res)
                if first:
                    fails.append("nondeterministic: output differs from the first pass")
            verdicts.append({"code": res["code"], "digest": res["digest"],
                             "fingerprint": fp, "own_failures": list(fails), "failures": fails})
        for k, reason in self.checks.contradictions(
                self.ops, [v["fingerprint"] for v in verdicts]).items():
            verdicts[k]["failures"].append(reason)
        for op, v in zip(self.ops, verdicts):
            v["known"] = self.checks.known(op.known_defect, v["failures"])
        if self.first is None:
            self.first = verdicts
        return verdicts


def _mean(values):
    """Per-pass values averaged over the run.  A pass lasts seconds and this
    machine's speed switches on a scale of seconds, so the mean over the whole
    window (time per pass, the inverse of throughput) is steadier than the
    median of the few passes a run holds."""
    return statistics.fmean(values) if values else 0.0


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "sampstab" / "cli.py").is_file():
        print(f"error: no program to measure: {SRC / 'sampstab'} is missing", file=sys.stderr)
        return 2
    os.environ.update({var: str(BLAS_THREADS) for var in _BLAS_VARS})
    sys.path[:0] = [str(SRC), str(HERE)]
    # BENCHMARK.json is the one list of metric names and units this run prints.
    specs = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

    run_name = f"{args.workload}-seed{args.seed}-trace{args.trace}" + ("-quick" if args.quick else "")
    run_dir = OUT / run_name
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        return _run(args, specs, run_dir)
    finally:
        for path in run_dir.iterdir():
            if path.is_dir():
                shutil.rmtree(path, ignore_errors=True)


def _run(args, specs, run_dir: Path) -> int:
    setup_times = measure_setup(args, run_dir)

    import checks
    import sampstab
    import tracer as tracing
    import workloads
    from sampstab import cli

    if Path(sampstab.__file__).resolve().parent != (SRC / "sampstab").resolve():
        print(f"error: imported sampstab from {sampstab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    env = environment()
    inputs = workloads.make_inputs(args.workload, args.seed, args.quick, run_dir / "inputs")
    ops = workloads.build_ops(args.workload, inputs, args.quick)
    reference = {} if args.quick else json.loads(
        (HERE / "reference.json").read_text(encoding="utf-8"))
    checker = Checker(checks, ops, run_dir, reference)
    tracer = tracing.Tracer() if args.trace else None

    passes, layer_rows, last_spans, summary = [], [], [], None
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        try:
            results = run_pass(cli, ops, run_dir, tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            summary = tracer.summary()
            layer_rows.append(tracing.per_layer(summary))
            last_spans = list(tracer.spans)
        verdicts = checker.evaluate(results)
        passes.append({"traced": traced, "results": results, "verdicts": verdicts,
                       "pass_s": sum(r["seconds"] for r in results)})
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["pass_s"] for p in passes)
        if len(passes) >= (2 if tracer else 1) and elapsed + typical > args.seconds:
            break

    untraced = [p for p in passes if not p["traced"]]
    traced_passes = [p for p in passes if p["traced"]]
    attempted = sum(len(p["results"]) for p in passes)
    failed = sum(bool(v["failures"]) for p in passes for v in p["verdicts"])
    correct = all(v["known"] for p in passes for v in p["verdicts"])
    cmd_s = {f"{c}_s": _mean([sum(r["seconds"] for op, r in zip(ops, p["results"])
                                    if op.command == c) for p in untraced])
             for c in _COMMANDS}
    values = {
        "pass_s": _mean([p["pass_s"] for p in untraced]),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": failed / attempted,
        **cmd_s,
    }
    if tracer is not None:
        for name in layer_rows[0]:
            values[name] = _mean([row[name] for row in layer_rows])
        values["trace.overhead_s"] = (_mean([p["pass_s"] for p in traced_passes])
                                      - values["pass_s"])
        tracing.write_spans(last_spans, run_dir / "spans.jsonl")

    wanted = specs["per_layer"] if args.trace else specs["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise RuntimeError(f"BENCHMARK.json names metrics this run cannot give: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "quick": args.quick, "environment": env,
        "inputs": inputs, "setup_s": setup_times,
        "passes": [{"traced": p["traced"], "pass_s": p["pass_s"]} for p in passes],
        "ops": [{"id": op.id, "argv": list(op.argv), "seeded": op.seeded,
                 "known_defect": op.known_defect,
                 "fingerprint": passes[0]["verdicts"][k]["fingerprint"],
                 "failures": _failures(passes, k),
                 "seconds": [p["results"][k]["seconds"] for p in passes],
                 "output": passes[0]["results"][k]["output"]}
                for k, op in enumerate(ops)],
        "values": values,
        "trace_summary": summary,
    }
    (run_dir / "record.json").write_text(json.dumps(record, indent=1, sort_keys=True),
                                         encoding="utf-8")
    _print_summary(args, env, ops, passes, values, run_dir)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _failures(passes, k: int) -> list[str]:
    """Distinct failure reasons of op k over all passes, in order of appearance."""
    return list(dict.fromkeys(f for p in passes for f in p["verdicts"][k]["failures"]))


def _print_summary(args, env, ops, passes, values, run_dir: Path) -> None:
    print(f"# sampstab benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} passes={len(passes)} "
          f"(traced {sum(p['traced'] for p in passes)})")
    print("# env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for k, op in enumerate(ops):
        failures = _failures(passes, k)
        known = all(p["verdicts"][k]["known"] for p in passes)
        secs = _mean([p["results"][k]["seconds"] for p in passes if not p["traced"]])
        state = "ok" if not failures else (
            f"FAILED[known {op.known_defect}]" if known else "FAILED")
        fingerprint = json.dumps(passes[0]["verdicts"][k]["fingerprint"])[:120]
        print(f"#   {op.id:32s} {secs:8.3f} s  {state:18s} {fingerprint}")
        for reason in failures:
            print(f"#     - {reason}")
    present = {op.command for op in ops}
    for name in ("setup_s", "pass_s", *[f"{c}_s" for c in _COMMANDS if c in present]):
        print(f"# {name:14s} {values[name]:.6f} s")
    print(f"# {'fail_frac':14s} {values['fail_frac']:.6f} (failed/attempted ops)")
    print(f"# {'peak_rss_mb':14s} {values['peak_rss_mb']:.1f} MiB")
    print(f"# record: {run_dir / 'record.json'}")


if __name__ == "__main__":
    sys.exit(main())
