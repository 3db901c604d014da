"""Tests of the benchmark's own code.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_only_direct_children():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > c [5, 9]
    parent = np.array([-1, 0, 1, 0])
    name = np.array([0, 1, 2, 1])
    start = np.array([0.0, 1.0, 2.0, 5.0])
    end = np.array([10.0, 4.0, 3.0, 9.0])
    calls, total, self_s = tracing.span_table(parent, name, start, end, 3)
    assert list(calls) == [1, 2, 1]
    assert list(total) == [10.0, 7.0, 1.0]
    # root: 10 - (3 + 4); the a spans: (3 - 1) + 4; b is a leaf
    assert list(self_s) == [3.0, 6.0, 1.0]


def test_tracer_records_parent_ids_and_restores_on_error():
    tr = tracing.Tracer()
    with tr.span("outer"):
        with pytest.raises(RuntimeError):
            with tr.span("inner"):
                raise RuntimeError
        with tr.span("inner"):
            pass
    parent, name, start, end = tr.arrays()
    assert list(parent) == [-1, 0, 0]
    assert [tr.names[i] for i in name] == ["outer", "inner", "inner"]
    assert np.all(end >= start)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert tracing.tail_percentile(range(19)) is None
    # 20 samples: only p50 leaves ten beyond
    assert tracing.tail_percentile(range(1, 21)) == (50.0, 10, 10)
    # 100 samples: p90 leaves ten, p95 only five
    assert tracing.tail_percentile(range(1, 101)) == (90.0, 90, 10)
    # 1000 samples: p99 leaves ten
    assert tracing.tail_percentile(range(1, 1001)) == (99.0, 990, 10)


def test_instrument_wraps_layers_and_restores_them():
    from falcon import accel, encoder, polarnet, training

    originals = (accel.rewire_edges, encoder.ArBertEncoder.forward,
                 training.AdamW.step, polarnet.build_graph)
    tr = tracing.Tracer()
    with tracing.instrument(tr):
        assert accel.rewire_edges is not originals[0]
        names = {span for *_, span in tracing.targets()}
    assert (accel.rewire_edges, encoder.ArBertEncoder.forward,
            training.AdamW.step, polarnet.build_graph) == originals
    for expected in ("accel.rewire_edges", "encoder.forward", "backbone.encode",
                     "training.AdamW.step", "fusion.features", "training.predict"):
        assert expected in names
    assert "backbone.token_key" not in names


def test_removed_target_is_absent_not_fatal(monkeypatch):
    from falcon import accel, polarnet
    from falcon.fixtures import null_model_fixture

    monkeypatch.delattr(accel, "rewire_edges")
    tr = tracing.Tracer()
    with tracing.instrument(tr):
        graph = null_model_fixture()
        with pytest.raises(AttributeError):
            polarnet.randomize_null(graph, 1)
    tr.end_pass()
    metrics, table = tracing.layer_metrics(tr, [1.0], {}, [1.0])
    assert "accel.rewire_edges.calls" not in metrics
    assert "accel.swaps.accept_ratio" not in metrics
    assert "polarnet.randomize_null" in table


def test_uncalled_target_counts_zero_and_absent_reports_zero(monkeypatch):
    import run
    from falcon import accel

    monkeypatch.delattr(accel, "modularity_edges")
    tr = tracing.Tracer()
    with tracing.instrument(tr):
        pass
    tr.end_pass()
    metrics, _ = tracing.layer_metrics(tr, [1.0], {}, [1.0])
    assert metrics["polarnet.graph_stats.calls"]["value"] == 0
    assert metrics["accel.swaps.short_samples"]["value"] == 0
    assert "accel.swaps.accept_ratio" not in metrics  # no swaps: no ratio
    monkeypatch.setattr(run, "contract_metrics", lambda trace: [
        {"name": "polarnet.graph_stats.calls", "unit": "count"},
        {"name": "accel.modularity_edges.calls", "unit": "count"},
        {"name": "accel.swaps.accept_ratio", "unit": "ratio"}])
    line = run.report({"metrics": metrics, "attempted": 1, "failed": 0}, True)
    assert [m["value"] for m in line["metrics"].values()] == [0, 0, 0]
    assert [m["unit"] for m in line["metrics"].values()] == ["count", "count", "ratio"]


def test_hook_counts_swaps_from_return_value():
    from falcon import polarnet
    from falcon.fixtures import null_model_fixture

    graph = null_model_fixture()
    tr = tracing.Tracer()
    with tracing.instrument(tr):
        polarnet.randomize_null(graph, 7)
    tr.end_pass()
    metrics, _ = tracing.layer_metrics(tr, [1.0], {}, [1.0])
    assert metrics["accel.rewire_edges.calls"]["value"] == 1
    assert metrics["accel.swaps.target"]["value"] == 10 * graph.n_edges
    assert 0 < metrics["accel.swaps.accept_ratio"]["value"] <= 1
    assert metrics["accel.adjacency_bytes"]["value"] == graph.n_nodes ** 2


def test_reference_loop_runs_no_falcon_code():
    import reference

    tr = tracing.Tracer()
    with tracing.instrument(tr):
        assert min(reference.reference_loop()) > 0
    assert len(tr) == 0


def _generated(name: str, root: Path, seed: int) -> dict[str, bytes]:
    root.mkdir()
    wl = workloads.WORKLOADS[name](root, seed)
    if name == "extract":  # its set-up also trains a checkpoint; inputs only here
        wl.CKPT_DOCS, wl.CKPT_EPOCHS = 10, 1
    wl.setup(workloads.Cli())
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file() and p.suffix != ".ckpt"}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generated_inputs_are_byte_identical_per_seed(tmp_path, name):
    first = _generated(name, tmp_path / "a", 5)
    assert first == _generated(name, tmp_path / "b", 5)
    assert first != _generated(name, tmp_path / "c", 6)


def test_network_sizes_do_not_depend_on_the_seed():
    for seed in (1, 2):
        records, attrs = workloads.network_records(seed, 1200, (2001, 2002), 500)
        assert len(records) == 1000 and len(attrs) == 1200


def test_workload_names_match_the_contract():
    import json

    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert run.WORKLOAD_NAMES == list(workloads.WORKLOADS)
    assert run.WORKLOAD_NAMES == [w["name"] for w in spec["workloads"]]
