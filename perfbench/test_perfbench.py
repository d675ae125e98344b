"""Self-test of the benchmark harness in quick mode, so it cannot rot.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import checks  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int, seed: int = 0, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.5", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_quick_run_meets_the_contract(workload, trace):
    result = last_json(run_bench(workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted}
    record = json.loads((HERE / "out" / f"{workload}-seed0-trace{trace}-quick"
                         / "record.json").read_text(encoding="utf-8"))
    # Only known-defect ops may fail.
    failing = {op["id"] for op in record["ops"] if op["failures"]}
    assert failing <= {op["id"] for op in record["ops"] if op["known_defect"]}
    if trace:
        assert (HERE / "out" / f"{workload}-seed0-trace1-quick" / "spans.jsonl").stat().st_size


def test_traced_counts_repeat_exactly():
    first = last_json(run_bench("analyze", 1, seed=3))["metrics"]
    second = last_json(run_bench("analyze", 1, seed=3))["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] in ("count", "bytes")]
    assert counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


def test_tracing_leaves_reports_byte_identical(tmp_path):
    from sampstab import cli, obscheck

    argv = ["analyze", "--example", "oscillator", "--T", "1", "--seed", "7",
            "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    plain = (tmp_path / "report.json").read_bytes()
    tracer = tracing.Tracer()
    original = obscheck.semigroup
    tracer.install()
    try:
        assert obscheck.semigroup is not original
        with tracer.root(0):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    assert obscheck.semigroup is original
    assert (tmp_path / "report.json").read_bytes() == plain
    summary = tracer.summary()
    assert summary["calls"]["obscheck.decide_dc"] == 1
    assert summary["calls"]["linsys.semigroup"] >= 1
    assert summary["expm_orders"]["linsys.expm"]
    # Self times partition the root span.
    root = tracer.spans[0]
    assert sum(summary["self_seconds"].values()) == pytest.approx(root[3] - root[2])


def test_fingerprint_tolerances():
    ref = {"discrete": {"status": "feasible", "N": 2.0, "C": 100.0}, "iterations": 17}
    moved = lambda **kw: {"discrete": {**ref["discrete"], **kw}, "iterations": 17}  # noqa: E731
    # The bisection vs closed-form gap on C (<= 5.6e-7 relative) is admitted.
    assert checks.compare(ref, moved(C=100.0 * (1 + 5.6e-7))) == ([], [])
    assert checks.compare(ref, moved(C=100.0 * (1 + 2e-6)))[0]
    assert checks.compare(ref, moved(N=3.0))[0]
    assert checks.compare(ref, moved(status="infeasible"))[0]
    bad, info = checks.compare(ref, {**ref, "iterations": 5})
    assert not bad and info


def test_known_defects_only_excuse_their_own_failures():
    assert checks.known("5a", ["exit 4", "contradicts analyze: ..."])
    assert checks.known("5b", ["exit 4"])
    assert not checks.known("5b", ["exit 2"])
    assert not checks.known(None, ["exit 4"])
    assert checks.known(None, [])


def test_seeded_inputs_repeat_and_vary(tmp_path):
    a = workloads.make_inputs("analyze", 5, True, tmp_path / "a")
    b = workloads.make_inputs("analyze", 5, True, tmp_path / "b")
    c = workloads.make_inputs("analyze", 6, True, tmp_path / "c")
    read = lambda inp: Path(inp["dense128"]["path"]).read_bytes()  # noqa: E731
    assert read(a) == read(b) != read(c)
    import numpy as np
    A, _ = workloads.dense_system(5, 16, 2)
    assert np.linalg.eigvals(A).real.max() == pytest.approx(workloads.DENSE_SHIFT)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("certify", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
