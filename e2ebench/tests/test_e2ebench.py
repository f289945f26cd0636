"""Tests of the benchmark itself, at ``tiny`` size.

Run from the repository root::

    python3 -m pytest -q e2ebench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from e2ebench import stats  # noqa: E402
from e2ebench.loadgen import Op  # noqa: E402
from e2ebench.serve import _check  # noqa: E402
from e2ebench.spans import SpanRecorder  # noqa: E402
from e2ebench.workloads import churn_len, churn_ops, sequence_sha256, sweep_order  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(tmp_path, workload: str, trace: int, seed: int = 3, cwd: Path = ROOT):
    out_dir = tmp_path / f"out-{workload}-{trace}"
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "2", "--trace", str(trace), "--size", "tiny", "--out-dir", str(out_dir)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc, out_dir


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every workload, untraced and traced, run once for this module."""
    tmp = tmp_path_factory.mktemp("runs")
    return {(w, t): _run(tmp, w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_every_metric_with_its_unit(runs, workload, trace):
    proc, _ = runs[(workload, trace)]
    assert proc.returncode == 0, proc.stderr[-3000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] is True and doc["failed"] == 0 and doc["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in doc["metrics"].items()} == wanted
    for name in wanted:  # every metric is also printed by name with its unit
        assert any(line.split()[:1] == [name] and line.split()[-1] == wanted[name]
                   for line in proc.stdout.splitlines())
    if not trace:
        assert all(v["value"] > 0 for v in doc["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_plus_other_equal_op_wall(runs, workload):
    proc, out_dir = runs[(workload, 1)]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["metrics"]["trace.reconcile_err_pct"]["value"] < 1e-6
    assert "mismatch 0.0000%" in proc.stdout
    spans = json.loads(next(out_dir.glob("spans-*.json")).read_text())
    assert spans["spans"]


def test_same_seed_same_sequence_across_runs(runs, tmp_path):
    """Both runs sent a prefix of the seed's sequence; how long a prefix
    depends on the machine's speed."""
    again, out_dir = _run(tmp_path, "serve-churn", 0)
    first = json.loads(next(runs[("serve-churn", 0)][1].glob("result-*.json")).read_text())
    second = json.loads(next(out_dir.glob("result-*.json")).read_text())
    ops = churn_ops(3, churn_len(2), "tiny")
    for doc in (first, second):
        assert doc["info"]["ops_sha256"] == sequence_sha256(ops[:doc["info"]["ops_sent"]])
    assert first["info"]["sim_fingerprint"] == second["info"]["sim_fingerprint"]


def test_seed_is_the_only_source_of_inputs():
    assert sequence_sha256(churn_ops(5, 300, "tiny")) == sequence_sha256(churn_ops(5, 300, "tiny"))
    assert sequence_sha256(churn_ops(5, 300, "tiny")) != sequence_sha256(churn_ops(6, 300, "tiny"))
    assert sweep_order(5, 1) == sweep_order(5, 1) != sweep_order(6, 1)


def test_seed_changes_order_not_composition():
    kinds = lambda seed: sorted(op["kind"] for op in churn_ops(seed, 200, "tiny"))  # noqa: E731
    assert kinds(1) == kinds(2)


def test_churn_mix_and_repeats():
    ops = churn_ops(9, 400, "tiny")
    kinds = [op["kind"] for op in ops]
    assert kinds.count("static") == 180 and kinds.count("dynamic") == 80
    for i, op in enumerate(ops):
        if op["kind"] == "repeat":
            assert op["of"] < i and op["job"] == ops[op["of"]]["job"]
    fresh = [json.dumps(op["job"], sort_keys=True) for op in ops if op["kind"] != "repeat"]
    assert len(set(fresh)) == len(fresh)  # every non-repeat job is a cache miss


def test_tampered_digest_counts_as_failed_and_wrong():
    good = Op(index=0, status=200, doc={"digest": "aa"})
    tampered = Op(index=1, status=200, doc={"digest": "ab"})
    refused = Op(index=2, status=429, doc={"error": "full"})
    assert _check([good, tampered, refused], ["aa", "aa", "aa"]) == (2, 1)


def test_self_times_reconcile_with_nested_and_aggregate_spans():
    rec = SpanRecorder()
    root = rec.add("op", 0, 100, None)
    run = rec.add("harness.run", 10, 90, root)
    rec.add("core.drain.persistent", 20, 80, run)
    rec.aggs[(2, "apps.on_read")] = [3, 25]
    rec.add("server.job", 85, 95, root)  # overlaps the harness span by 5
    selfs = rec.self_times([root])
    assert selfs == {"op": 100 - 85, "harness.run": 20, "core.drain.persistent": 35,
                     "apps.on_read": 25, "server.job": 10}
    total_self, total_wall = rec.reconcile([root])
    assert total_wall == 100 and total_self == 105  # the overlap shows as a mismatch


def test_quantile_leaves_ten_samples_above_p99():
    xs = list(range(1000))
    assert stats.quantile(xs, 0.99) == 989
    assert sum(1 for x in xs if x > stats.quantile(xs, 0.99)) == 10


def test_replay_of_a_serial_queue():
    lat, drain = stats.replay_fifo([1.0], [0.0, 0.5, 3.0], servers=1)
    assert lat == [1.0, 1.5, 1.0] and drain == 1.0
    lat, _ = stats.replay_fifo([1.0], [0.0, 0.5], servers=2)
    assert lat == [1.0, 1.0]


def test_fails_without_the_program(tmp_path):
    """A checkout holding only the benchmark exits non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc, _ = _run(tmp_path, "sweep", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
