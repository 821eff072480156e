"""Toy-size smoke test of the benchmark harness, and a tracer stress test; no
timing gates.

    python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_bench(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_is_well_formed(workload, trace):
    result = run_bench(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: entry["unit"] for name, entry in result["metrics"].items()}
    for entry in result["metrics"].values():
        assert isinstance(entry["value"], float)


def test_refuses_without_program_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text(encoding="utf-8"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "invert-table", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert done.returncode != 0
    assert done.stdout == ""


def test_spans_keep_their_parents_across_threads():
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
    import tracing

    tracer = tracing.Tracer()
    leaf = tracer._wrap(2, lambda: None)

    def outer():
        for _ in range(500):
            leaf()

    threads = [threading.Thread(target=tracer._wrap(1, outer)) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer.patched():
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    spans = tracer.spans
    outers = {sid for sid, rec in spans.items() if rec[0] == 1}
    leaves = [rec for rec in spans.values() if rec[0] == 2]
    assert len(outers) == 8 and len(leaves) == 8 * 500
    assert all(spans[sid][3] == 0 for sid in outers)  # parented to the root
    assert all(rec[3] in outers and rec[2] >= rec[1] for rec in leaves)
    stats = tracing.summarize(spans)["functions"]
    assert stats[tracing.NAMES[2]]["calls"] == 8 * 500
