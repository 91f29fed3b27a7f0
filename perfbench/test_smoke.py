"""Tests of the benchmark itself, in smoke mode (a few seconds per run).

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _names(kind):
    return {m["name"] for m in SPEC[kind]}


def test_smoke_end_to_end_every_workload():
    proc = _bench("--workload", "all", "--seed", "3", "--smoke", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    for w in SPEC["workloads"]:
        assert f"== {w['name']} " in proc.stdout
        assert {k for k in result["metrics"] if k.startswith(w["name"] + ".")} == {
            f"{w['name']}.{n}" for n in _names("end_to_end")
        }
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_prints_every_layer_metric():
    proc = _bench("--workload", "correlate-w2", "--seed", "4", "--smoke", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert set(result["metrics"]) == _names("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    # the workers of the pool flushed their spans
    assert metrics["census.shard.calls"] == 3 and metrics["census.shard.busy_s"] > 0
    assert metrics["census.evaluate.rows"] > 0 and metrics["reps.dependence.classes"] > 0


def test_same_seed_same_inputs():
    assert workloads.generate("correlate-w2", 5, 9) == workloads.generate("correlate-w2", 5, 9)
    assert workloads.generate("correlate-w2", 5, 9) != workloads.generate("correlate-w2", 6, 9)
    pinned = workloads.generate("cartan-ladder", 0, 9)[2]["representation"]["factors"]
    assert [(f["stretch"], f["separation"]) for f in pinned] == [(3.0, 3.0), (5.0, 3.0)]


def test_oracle_enumeration_sizes():
    for L in range(1, 7):
        assert sum(1 for _ in oracle.reduced_words(2, L)) == workloads.total_words(2, L)
    # conjugacy classes of F_2 by cyclically reduced length: 4, 8, 12, 26
    counts = [sum(1 for w in oracle.necklaces(2, 4) if len(w) == n) for n in range(1, 5)]
    assert counts == [4, 8, 12, 26]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "cartan-ladder", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
