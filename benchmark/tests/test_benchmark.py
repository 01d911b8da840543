"""The benchmark's own tests: tiny smoke runs of every workload.

    python3 -m pytest benchmark/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))


def run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "benchmark" / "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


SEED = 3


def smoke(workload: str, trace: int) -> dict:
    proc = run(ROOT, "--workload", workload, "--seed", str(SEED), "--seconds", "0.2",
               "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    metrics = smoke(workload, 0)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
        assert metrics[m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_span_file(workload):
    out = BENCH / "out" / f"trace-{workload}-{SEED}.json"
    out.unlink(missing_ok=True)
    metrics = smoke(workload, 1)["metrics"]
    assert set(metrics) == {m["name"] for m in SPEC["per_layer"]}
    for m in SPEC["per_layer"]:
        assert metrics[m["name"]]["unit"] == m["unit"]
    doc = json.loads(out.read_text())
    assert doc["spans"] and 0 < doc["coverage"] <= 1
    names = {s[0] for s in doc["spans"]}
    assert {"bench.setup", "bench.prove", "bench.verify", "proto.serialize"} <= names


def test_refuses_to_run_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
               "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_constructions_match_oracle():
    from random import Random

    import instances as gen
    from vlac import ff, oracle

    for seed in range(3):
        rng = Random(seed)
        triples, det = gen.sparse_permuted_triangular(rng, 10007, 9, 4)
        rows = [[0] * 9 for _ in range(9)]
        for i, j, v in triples:
            rows[i][j] = v
        assert oracle.brute_det_field(ff.field_new(10007), rows) == det
        assert max(sum(1 for t in triples if t[0] == i) for i in range(9)) <= 4
        assert oracle.brute_rank(ff.field_new(10007), gen.dense_of_rank(rng, 10007, 9, 4)) == 4


def test_tracer_restores_the_program():
    from tracing import Tracer

    from vlac import certs_sparse, la, proto

    before = (la.matvec, certs_sparse.matvec, proto.FiatShamirSource.absorb)
    tracer = Tracer()
    tracer.install()
    assert certs_sparse.matvec is la.matvec is not before[0]
    tracer.uninstall()
    assert (la.matvec, certs_sparse.matvec, proto.FiatShamirSource.absorb) == before
