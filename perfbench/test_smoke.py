"""Smoke test of the benchmark itself, at a tiny simulated duration.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

It checks that every metric named in ``BENCHMARK.json`` is emitted with
its unit, that a traced run ends in the same platform state as the
untraced pass beside it, and that the benchmark refuses to run without
the program's source tree.
"""

import gzip
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Simulated minutes per pass: just long enough for one host failure and
#: its recovery after the operations' deadline.
MINUTES = {"steady-diurnal": 20, "scuba-autoscale": 20, "config-churn": 40}


def run_bench(workload: str, trace: int, out: Path, root: Path = ROOT):
    return subprocess.run(
        [
            sys.executable, str(root / "perfbench" / "run.py"),
            "--workload", workload, "--seed", "3", "--seconds", "0",
            "--trace", str(trace), "--minutes", str(MINUTES[workload]),
            "--out", str(out),
        ],
        cwd=root, capture_output=True, text=True, timeout=600,
    )


def result_lines(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def test_workloads_match_benchmark_json():
    assert sorted(MINUTES) == sorted(w["name"] for w in SPEC["workloads"])


@pytest.mark.parametrize("workload", sorted(MINUTES))
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload, tmp_path):
    proc = run_bench(workload, 0, tmp_path)
    meta, result = result_lines(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    assert meta["meta"]["workload"] == workload


@pytest.mark.parametrize("workload", sorted(MINUTES))
def test_traced_run_emits_every_layer_and_matches_untraced(workload, tmp_path):
    proc = run_bench(workload, 1, tmp_path)
    meta, result = result_lines(proc)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == expected
    assert meta["meta"]["passes"] >= 1 and meta["meta"]["traced_passes"] >= 1
    assert not [p for p in meta["problems"] if "another state" in p], meta
    stem = tmp_path / f"{workload}-seed3"
    assert (stem.parent / (stem.name + ".layers.txt")).read_text()
    with gzip.open(stem.parent / (stem.name + ".spans.jsonl.gz"), "rt") as spans:
        lines = spans.read().splitlines()
    assert lines and len(json.loads(lines[0])) == 5
    shares = sum(
        value["value"] for name, value in result["metrics"].items()
        if name.endswith(".share")
    )
    assert shares == pytest.approx(1.0)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench("config-churn", 0, tmp_path / "out", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
