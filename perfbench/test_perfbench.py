"""The benchmark's own checks.  Run with `python3 -m pytest perfbench`.

- Exact counters (decide calls and verdicts, whnf calls, emitted bytes,
  asserts, with-loops, aborts, mismatches) repeat between two traced runs.
- Every workload runs clean on a held-out seed.
- The command prints the result object of BENCHMARK.json, and fails
  without a result where there are no eslc sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

import run

sys.path.insert(0, run.SRC)

HELD_OUT_SEED = 90210
WORKLOADS = ["kompile", "diff-kaleid", "diff-sac"]
EXACT = ["shapes.decide.calls_per_op", "shapes.decide.yes_ratio",
         "shapes.decide.unknown", "normalize.whnf.calls_per_op",
         "kaleid.emitted_bytes", "kaleid.asserts_emitted",
         "sac.emitted_bytes", "sac.asserts_emitted", "sac.with_loops_emitted",
         "kaleid.interp_kaleid.aborts", "sac.interp_sac.aborts",
         "harness.mismatches", "error_rate", "trace.spans_per_op"]


def _spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _traced(workload):
    res = run.run_workload(workload, 3, 0, trace=True)
    counts = dict(res["tracer"].counts)
    probe = {"import_s": 0.0, "prelude_s": 0.0, "numpy_s": 0.0}
    return run.per_layer(res, [probe]), counts


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat(workload):
    (first, counts1), (second, counts2) = _traced(workload), _traced(workload)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    verdicts = {k: v for k, v in counts1.items() if k.startswith("shapes.")}
    assert verdicts == {k: v for k, v in counts2.items() if k.startswith("shapes.")}
    assert first["error_rate"] == 0
    assert {m["name"] for m in _spec()["per_layer"]} <= set(first)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed(workload):
    res = run.run_workload(workload, HELD_OUT_SEED, 0, trace=False)
    assert res["failed"] == 0
    assert all(o.ok for o in res["ops"])


def test_command_prints_result():
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kompile",
         "--seed", "5", "--seconds", "0.1", "--trace", "0"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in _spec()["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "kompile",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0 and out.stdout == ""
