"""The committed benchmark results: each ``BENCH_<workload>.json`` at the root
of the repository is a clean perfbench run of the workload it is named for,
with every end-to-end metric that ``BENCHMARK.json`` declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))


def test_bench_files_are_committed():
    workloads = {w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]}
    assert BENCH_FILES
    assert {path.stem.removeprefix("BENCH_") for path in BENCH_FILES} <= workloads


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda path: path.name)
def test_a_bench_file_is_a_clean_run_of_its_workload(path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = json.loads(path.read_text())
    assert result["stamp"]["workload"] == path.stem.removeprefix("BENCH_")
    assert result["failed"] == 0
    assert result["problems"] == []
    assert {metric["name"] for metric in declared["end_to_end"]} <= result["metrics"].keys()
