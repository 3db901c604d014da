import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

import falcon
from falcon.backbone import DeterministicStubBackbone
from falcon.cli import main
from falcon.dataset import load_labeled_triples
from falcon.encoder import ContextOverflowError, canonical_entities, insert_markers
from falcon.extract import dump_records
from falcon.fixtures import political_records_fixture
from falcon.training import InteractionModel


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Materialized fixture corpus plus pretrained/trained checkpoints."""
    root = tmp_path_factory.mktemp("cli")
    runner = CliRunner()

    res = runner.invoke(main, ["fixture", "--out-dir", str(root / "fx"),
                               "--docs", "30"])
    assert res.exit_code == 0, res.output

    cfg = root / "train.cfg"
    cfg.write_text(
        "hidden_size = 4\nlearning_rate = 0.005\nmax_epochs = 3\n"
        "batch_size = 16\nseed = 5\npatience = 5\n")

    res = runner.invoke(main, [
        "dataset", "split", "--in", str(root / "fx" / "labeled.jsonl"),
        "--out", str(root / "fx" / "labeled_split.jsonl"), "--seed", "0"])
    assert res.exit_code == 0, res.output

    res = runner.invoke(main, [
        "pretrain-tra", "--config", str(cfg),
        "--data", str(root / "fx" / "trajectories.jsonl"),
        "--out", str(root / "extractor.ckpt")])
    assert res.exit_code == 0, res.output

    res = runner.invoke(main, [
        "train", "--config", str(cfg),
        "--data", str(root / "fx" / "labeled_split.jsonl"),
        "--out", str(root / "model.ckpt"),
        "--frozen", str(root / "extractor.ckpt")])
    assert res.exit_code == 0, res.output
    return root


def test_ingest_command(workspace):
    runner = CliRunner()
    out = workspace / "candidates.jsonl"
    res = runner.invoke(main, [
        "ingest", "--docs", str(workspace / "fx" / "docs"),
        "--triples", str(workspace / "fx" / "triples.jsonl"),
        "--out", str(out)])
    assert res.exit_code == 0, res.output
    info = json.loads(res.output.strip().splitlines()[-1])
    assert info["candidates"] > 0
    assert out.exists()


def test_dataset_summarize(workspace):
    runner = CliRunner()
    res = runner.invoke(main, ["dataset", "summarize", "--in",
                               str(workspace / "fx" / "labeled.jsonl")])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output)
    assert summary["trajectory"]["total"] == 2 * summary["interaction"]["total"]


def test_predict_eval_and_extract(workspace):
    runner = CliRunner()
    out = workspace / "candidates.jsonl"
    runner.invoke(main, [
        "ingest", "--docs", str(workspace / "fx" / "docs"),
        "--triples", str(workspace / "fx" / "triples.jsonl"),
        "--out", str(out)])

    res = runner.invoke(main, [
        "predict", "--checkpoint", str(workspace / "model.ckpt"),
        "--candidates", str(out), "--out", str(workspace / "preds.jsonl")])
    assert res.exit_code == 0, res.output
    info = json.loads(res.output.strip().splitlines()[-1])
    assert info["candidates"] > 0 and info["skipped"] == 0

    res = runner.invoke(main, [
        "eval", "--checkpoint", str(workspace / "model.ckpt"),
        "--data", str(workspace / "fx" / "labeled_split.jsonl")])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert set(report["confusion"]) == {"tp", "fp", "fn", "tn"}

    res = runner.invoke(main, [
        "extract", "--triples", str(workspace / "fx" / "triples.jsonl"),
        "--checkpoint", str(workspace / "model.ckpt"),
        "--out", str(workspace / "records.jsonl"),
        "--summary", str(workspace / "extract_summary.json"),
        "--gazetteer", str(workspace / "fx" / "gazetteer.json")])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output.strip().splitlines()[-1])
    assert summary["positives"] + summary["negatives"] + summary["skipped"] \
        == summary["candidates"]


def test_classify_and_analyze_pipeline(workspace):
    runner = CliRunner()
    records = workspace / "records.jsonl"
    if not records.exists():
        test_predict_eval_and_extract(workspace)

    res = runner.invoke(main, [
        "classify-type", "--records", str(records),
        "--llm", f"fixture:{workspace / 'fx' / 'llm_responses.json'}",
        "--out", str(workspace / "typed.jsonl")])
    assert res.exit_code == 0, res.output
    info = json.loads(res.output.strip().splitlines()[-1])
    assert info["unclassified"] == 0
    assert sum(info["counts"].values()) == info["records"]

    res = runner.invoke(main, [
        "analyze", "trends", "--records", str(workspace / "typed.jsonl"),
        "--attrs", str(workspace / "fx" / "attrs.json"),
        "--out-csv", str(workspace / "trends.csv"),
        "--out-json", str(workspace / "totals.json")])
    assert res.exit_code == 0, res.output
    with open(workspace / "trends.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][0] == "bin"
    assert len(rows) > 1

    res = runner.invoke(main, [
        "analyze", "polarization", "--records", str(workspace / "typed.jsonl"),
        "--attrs", str(workspace / "fx" / "attrs.json"),
        "--null-samples", "50", "--seed", "3",
        "--out-csv", str(workspace / "polarization.csv")])
    assert res.exit_code == 0, res.output
    body = (workspace / "polarization.csv").read_text()
    assert body.splitlines()[0].startswith("year,")

    res = runner.invoke(main, [
        "analyze", "stats", "--records", str(workspace / "typed.jsonl"),
        "--attrs", str(workspace / "fx" / "attrs.json"),
        "--out-json", str(workspace / "stats.json")])
    assert res.exit_code == 0, res.output
    stats = json.loads((workspace / "stats.json").read_text())
    assert "clustering" in stats and "pagerank" in stats

    res = runner.invoke(main, [
        "analyze", "export", "--records", str(workspace / "typed.jsonl"),
        "--attrs", str(workspace / "fx" / "attrs.json"),
        "--out-edges", str(workspace / "edges.csv"),
        "--out-gexf", str(workspace / "graph.gexf")])
    assert res.exit_code == 0, res.output
    assert (workspace / "edges.csv").read_text().startswith("person1,person2,weight")
    assert "<gexf" in (workspace / "graph.gexf").read_text()

    res = runner.invoke(main, [
        "analyze", "distance", "--records", str(workspace / "typed.jsonl"),
        "--attrs", str(workspace / "fx" / "attrs.json"),
        "--out-csv", str(workspace / "distance.csv")])
    assert res.exit_code == 0, res.output
    info = json.loads(res.output.strip().splitlines()[-1])
    assert info["computed"] > 0


def test_ablate_command(workspace):
    runner = CliRunner()
    cfg = workspace / "ablate.cfg"
    cfg.write_text("hidden_size = 4\nlearning_rate = 0.005\nmax_epochs = 1\n"
                   "batch_size = 16\nseed = 2\n")
    res = runner.invoke(main, [
        "ablate", "--config", str(cfg),
        "--data", str(workspace / "fx" / "labeled_split.jsonl"),
        "--out-dir", str(workspace / "ablations"),
        "--frozen", str(workspace / "extractor.ckpt")])
    assert res.exit_code == 0, res.output
    table = (workspace / "ablations" / "ablations.csv").read_text()
    assert len(table.splitlines()) == 7


def test_train_commands_report_skipped(workspace):
    # A 20-token window cannot hold some fixture triples and candidates.
    runner = CliRunner()
    cfg = workspace / "short.cfg"
    cfg.write_text("hidden_size = 4\nmax_tokens = 20\nmax_epochs = 1\nseed = 5\n"
                   "fusion_mode = off\n")
    trajectories = workspace / "fx" / "trajectories.jsonl"
    res = runner.invoke(main, ["pretrain-tra", "--config", str(cfg), "--data",
                               str(trajectories), "--out", str(workspace / "short.ckpt")])
    assert res.exit_code == 0, res.output
    backbone = DeterministicStubBackbone(hidden_size=4, max_tokens=20)
    overflowing = 0
    for item in load_labeled_triples(trajectories):
        t = item.triple
        try:
            insert_markers(t.segment, canonical_entities((t.person, t.time, t.location)),
                           backbone)
        except ContextOverflowError:
            overflowing += 1
    assert 0 < json.loads(res.output)["skipped"] == overflowing

    res = runner.invoke(main, ["train", "--config", str(cfg), "--data",
                               str(workspace / "fx" / "labeled_split.jsonl"),
                               "--out", str(workspace / "short_model.ckpt")])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["skipped"] > 0


def test_extract_summary_file_counts_excluded_lines(workspace):
    runner = CliRunner()
    triples = workspace / "triples_with_bad_lines.jsonl"
    triples.write_text((workspace / "fx" / "triples.jsonl").read_text()
                       + "not json\n{\"doc_id\": \"fix0000\"}\n")
    summary_path = workspace / "bad_lines_summary.json"
    res = runner.invoke(main, [
        "extract", "--triples", str(triples),
        "--checkpoint", str(workspace / "model.ckpt"),
        "--out", str(workspace / "bad_lines_records.jsonl"),
        "--summary", str(summary_path)])
    assert res.exit_code == 0, res.output
    printed = json.loads(res.output.strip().splitlines()[-1])
    assert printed["excluded_lines"] == 2
    assert json.loads(summary_path.read_text()) == printed


def _typed_records(workspace):
    typed = workspace / "typed.jsonl"
    if not typed.exists():
        test_classify_and_analyze_pipeline(workspace)
    return [json.loads(line) for line in typed.read_text().splitlines()]


def test_distance_csv_quotes_record_ids(workspace):
    records = _typed_records(workspace)
    records[0]["record_id"] = 'r,"1"'
    path = workspace / "odd_ids.jsonl"
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    out = workspace / "odd_distance.csv"
    res = CliRunner().invoke(main, [
        "analyze", "distance", "--records", str(path),
        "--attrs", str(workspace / "fx" / "attrs.json"), "--out-csv", str(out)])
    assert res.exit_code == 0, res.output
    text = out.read_text()
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["record_id", "year", "distance_km"]
    assert [row[0] for row in rows[1:]] == [rec["record_id"] for rec in records]
    assert all(len(row) == 3 for row in rows)
    # a plain id is written bare, as a hand-joined line would be
    for rec, line in zip(records[1:], text.splitlines()[2:]):
        year = "" if rec["time_year"] is None else rec["time_year"]
        assert line.startswith(f"{rec['record_id']},{year},")


def test_polarization_rejects_fewer_than_two_null_samples(workspace):
    _typed_records(workspace)
    res = CliRunner().invoke(main, [
        "analyze", "polarization", "--records", str(workspace / "typed.jsonl"),
        "--attrs", str(workspace / "fx" / "attrs.json"), "--null-samples", "1",
        "--out-csv", str(workspace / "one_sample.csv")])
    assert res.exit_code == 2, res.output
    assert "--null-samples" in res.output
    assert not (workspace / "one_sample.csv").exists()


@pytest.mark.parametrize("k_min", ["0", "-1"])
def test_stats_rejects_k_min_below_one(workspace, k_min):
    # fit_power_law takes ln(k / (k_min - 0.5)), undefined for k_min < 1
    _typed_records(workspace)
    out = workspace / f"stats_k{k_min}.json"
    res = CliRunner().invoke(main, [
        "analyze", "stats", "--records", str(workspace / "typed.jsonl"),
        "--attrs", str(workspace / "fx" / "attrs.json"), "--k-min", k_min,
        "--out-json", str(out)])
    assert res.exit_code == 2, res.output
    assert "--k-min" in res.output
    assert not out.exists()


def test_predict_and_extract_label_by_the_checkpoints_threshold(workspace):
    # Without --threshold, predict and extract label by the checkpoint's
    # config.threshold, as eval and training validation do.
    model = InteractionModel.load(workspace / "model.ckpt")
    model.config = replace(model.config, threshold=0.9)
    checkpoint = workspace / "threshold_90.ckpt"
    model.save(checkpoint)
    runner = CliRunner()
    candidates = workspace / "threshold_candidates.jsonl"
    res = runner.invoke(main, [
        "ingest", "--docs", str(workspace / "fx" / "docs"),
        "--triples", str(workspace / "fx" / "triples.jsonl"), "--out", str(candidates)])
    assert res.exit_code == 0, res.output

    def predicted(*flags):
        out = workspace / "threshold_preds.jsonl"
        res = runner.invoke(main, ["predict", "--checkpoint", str(checkpoint),
                                   "--candidates", str(candidates), "--out", str(out), *flags])
        assert res.exit_code == 0, res.output
        return [json.loads(line) for line in out.read_text().splitlines()]

    preds = predicted()
    scores = [p["score"] for p in preds]
    assert any(0.5 <= s < 0.9 for s in scores)  # 0.5 and 0.9 label these differently
    assert [p["label"] for p in preds] == [int(s >= 0.9) for s in scores]
    assert [p["label"] for p in predicted("--threshold", "0.5")] == [int(s >= 0.5) for s in scores]

    records = workspace / "threshold_records.jsonl"
    res = runner.invoke(main, ["extract", "--triples", str(workspace / "fx" / "triples.jsonl"),
                               "--checkpoint", str(checkpoint), "--out", str(records)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["positives"] == sum(s >= 0.9 for s in scores)
    assert all(json.loads(line)["score"] >= 0.9 for line in records.read_text().splitlines())


def test_ablate_requires_frozen(workspace):
    # Every ablation grid has the concat row, which reads the frozen extractor.
    res = CliRunner().invoke(main, [
        "ablate", "--data", str(workspace / "fx" / "labeled_split.jsonl"),
        "--out-dir", str(workspace / "ablations_no_frozen")])
    assert res.exit_code == 2, res.output
    assert "Missing option '--frozen'" in res.output
    assert "Traceback" not in res.output
    assert not (workspace / "ablations_no_frozen").exists()


@pytest.mark.parametrize("command, reason", [
    ("train", "{data}: no examples with split='train' (run falcon dataset split)"),
    ("ablate", "{data}: no examples with split='train' (run falcon dataset split)"),
    ("pretrain-tra", "{data}:1: 'person'"),
])
def test_bad_input_is_an_error_line_not_a_traceback(workspace, command, reason):
    # Training reads unsplit examples; pretraining reads quadruples, not triples.
    data = workspace / "fx" / "labeled.jsonl"
    out = ["--out-dir", str(workspace / "bad_ablations")] if command == "ablate" else [
        "--out", str(workspace / f"bad_{command}.ckpt")]
    frozen = [] if command == "pretrain-tra" else ["--frozen", str(workspace / "extractor.ckpt")]
    res = CliRunner().invoke(main, [command, "--data", str(data), *out, *frozen])
    assert res.exit_code == 1, res.output
    assert res.output == f"Error: {reason.format(data=data)}\n"


def test_ingest_errors_file_lists_each_bad_triple_line(workspace):
    triples = workspace / "bad_triples.jsonl"
    lines = (workspace / "fx" / "triples.jsonl").read_text().splitlines()
    triples.write_text("\n".join([lines[0], "not json", lines[1], '{"doc_id": "é"}']) + "\n")
    errors = workspace / "triple_errors.jsonl"
    res = CliRunner().invoke(main, [
        "ingest", "--docs", str(workspace / "fx" / "docs"), "--triples", str(triples),
        "--out", str(workspace / "bad_candidates.jsonl"), "--errors", str(errors)])
    assert res.exit_code == 0, res.output
    written = [json.loads(line) for line in errors.read_text(encoding="utf-8").splitlines()]
    assert [e["line"] for e in written] == [2, 4]
    assert all(e["message"] for e in written)


def test_ingest_excludes_a_triple_whose_segment_text_is_not_at_its_offsets(workspace):
    # The second triple's offsets shifted by 3: its doc_id is known, but its
    # segment_text no longer matches the document there.
    lines = (workspace / "fx" / "triples.jsonl").read_text().splitlines()[:3]
    shifted = json.loads(lines[1])
    shifted["char_start"] += 3
    shifted["char_end"] += 3
    triples = workspace / "shifted_triples.jsonl"
    triples.write_text("\n".join([lines[0], json.dumps(shifted), lines[2]]) + "\n")
    res = CliRunner().invoke(main, [
        "ingest", "--docs", str(workspace / "fx" / "docs"), "--triples", str(triples),
        "--out", str(workspace / "shifted_candidates.jsonl")])
    assert res.exit_code == 0, res.output
    assert json.loads(res.stdout)["triples"] == 2
    assert res.stderr == ("warning: 1 triples' segment text differs from their "
                          "document at their offsets\n")


@pytest.mark.parametrize("command", ["analyze stats", "extract"])
@pytest.mark.parametrize("text, reason", [
    ("{not json", "unexpected character: line 1 column 2 (char 1)"),
    ("[1, 2]", "expected a JSON object, got list"),
    ('{"A B": 3}', "value of 'A B' is not a JSON object"),
    ('{"Ada Byron": {"party": "Republican"}, "ada  byron": {"party": "Democrat"}}',
     "keys 'Ada Byron' and 'ada  byron' normalise to one name"),
], ids=["bad-json", "top-level-list", "value-not-object", "name-collision"])
def test_bad_keyed_json_is_an_error_line_not_a_traceback(workspace, tmp_path, command,
                                                         text, reason):
    # The attrs table and the gazetteer are read by one reader.
    bad = tmp_path / "table.json"
    bad.write_text(text)
    out = tmp_path / "out"
    if command == "extract":
        args = ["extract", "--triples", str(workspace / "fx" / "triples.jsonl"),
                "--checkpoint", str(workspace / "model.ckpt"), "--out", str(out),
                "--gazetteer", str(bad)]
    else:
        _typed_records(workspace)
        args = ["analyze", "stats", "--records", str(workspace / "typed.jsonl"),
                "--attrs", str(bad), "--out-json", str(out)]
    res = CliRunner().invoke(main, args)
    assert res.exit_code == 1, res.output
    assert res.output == f"Error: {bad}: {reason}\n"
    assert not out.exists()


def _run_python(code, cwd=None) -> str:
    """Stdout of ``code`` run in a fresh interpreter, with this falcon on its path."""
    env = dict(os.environ, PYTHONPATH=str(Path(falcon.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True,
                          capture_output=True, text=True).stdout


def test_cli_import_leaves_urllib_request_unloaded():
    # The HTTP client imports urllib.request when it sends, not at start-up.
    out = _run_python("import sys, falcon.cli; print('urllib.request' in sys.modules)")
    assert out.strip() == "False"


def test_cli_import_leaves_numpy_unloaded():
    out = _run_python("import sys, falcon.cli; print('numpy' in sys.modules)")
    assert out.strip() == "False"


def test_commands_without_arrays_run_without_numpy(tmp_path):
    # Only the commands that compute with training or polarnet import them.
    records, _ = political_records_fixture(per_year=2)
    dump_records(records, tmp_path / "records.jsonl")
    commands = [
        ["fixture", "--out-dir", "fx", "--docs", "5"],
        ["ingest", "--docs", "fx/docs", "--triples", "fx/triples.jsonl",
         "--out", "fx/candidates.jsonl"],
        ["dataset", "summarize", "--in", "fx/labeled.jsonl"],
        ["dataset", "split", "--in", "fx/labeled.jsonl", "--out", "fx/split.jsonl"],
        ["classify-type", "--records", "records.jsonl",
         "--llm", "fixture:fx/llm_responses.json", "--out", "typed.jsonl"],
    ]
    out = _run_python(
        "import sys\n"
        "from falcon.cli import main\n"
        f"for args in {commands!r}:\n"
        "    main(args, standalone_mode=False)\n"
        "    print('numpy loaded:', 'numpy' in sys.modules, *args[:2])\n",
        cwd=tmp_path)
    assert [line for line in out.splitlines() if line.startswith("numpy loaded:")] == [
        "numpy loaded: False fixture --out-dir",
        "numpy loaded: False ingest --docs",
        "numpy loaded: False dataset summarize",
        "numpy loaded: False dataset split",
        "numpy loaded: False classify-type --records",
    ]
