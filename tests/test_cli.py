import csv
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import falcon
from falcon.backbone import DeterministicStubBackbone
from falcon.cli import main
from falcon.dataset import load_labeled_triples
from falcon.encoder import ContextOverflowError, Views, insert_markers
from falcon.extract import dump_records
from falcon.fixtures import political_records_fixture
from falcon.training import InteractionModel, load_archive, save_archive
from fixture_builders import CandidateQuadruple, EntityMention, TextSegment, TrajectoryTriple


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


def test_predict_scores_in_runs_the_bytes_of_one_call(workspace, monkeypatch):
    # falcon predict scores runs of EXTRACT_CHUNK candidates, each on a store
    # of its own; a 20-token window skips some candidates of each run.
    from falcon import extract, training

    runner = CliRunner()
    candidates = workspace / "run_candidates.jsonl"
    res = runner.invoke(main, ["ingest", "--docs", str(workspace / "fx" / "docs"),
                               "--triples", str(workspace / "fx" / "triples.jsonl"),
                               "--out", str(candidates)])
    assert res.exit_code == 0, res.output
    short = workspace / "run_short.ckpt"
    InteractionModel(training.TrainConfig(hidden_size=4, max_tokens=20, fusion_mode="off"),
                     ).save(short)
    calls = []
    scorer = training.predict
    monkeypatch.setattr(training, "predict", lambda model, cands, **kwargs: calls.append(
        len(cands)) or scorer(model, cands, **kwargs))
    for checkpoint in (workspace / "model.ckpt", short):
        runs = []
        for chunk in (7, 10 ** 6):
            monkeypatch.setattr(extract, "EXTRACT_CHUNK", chunk)
            calls.clear()
            out = workspace / f"run_preds_{chunk}.jsonl"
            res = runner.invoke(main, ["predict", "--checkpoint", str(checkpoint),
                                       "--candidates", str(candidates), "--out", str(out)])
            assert res.exit_code == 0, res.output
            n = json.loads(res.output)["candidates"]
            assert calls == [min(chunk, n - start) for start in range(0, n, chunk)]
            runs.append((out.read_bytes(), res.output))
        assert runs[0] == runs[1]
    assert json.loads(res.output)["skipped"] > 0


def _count_constructions(monkeypatch) -> list:
    """The names of the mention, segment, triple and candidate objects built
    from now on, in order. The classes live in the tests (``fixture_builders``),
    as ``src/falcon`` defines none (see the test below)."""
    built = []
    for cls in (EntityMention, TextSegment, TrajectoryTriple, CandidateQuadruple):
        monkeypatch.setattr(cls, "__init__", lambda self, *args, _init=cls.__init__, **kwargs:
                            built.append(type(self).__name__) or _init(self, *args, **kwargs))
    EntityMention(role="Time", surface="1950", occurrences=((0, 4),))
    assert built == ["EntityMention"]  # the count sees a construction
    built.clear()
    return built


def test_extract_builds_no_mention_segment_triple_or_candidate_object(workspace, monkeypatch):
    # Extraction runs on columns from the triple file to the record lines.
    built = _count_constructions(monkeypatch)
    res = CliRunner().invoke(main, [
        "extract", "--triples", str(workspace / "fx" / "triples.jsonl"),
        "--checkpoint", str(workspace / "model.ckpt"),
        "--out", str(workspace / "counted_records.jsonl"),
        "--gazetteer", str(workspace / "fx" / "gazetteer.json")])
    assert res.exit_code == 0, res.output
    summary = json.loads(res.output.strip().splitlines()[-1])
    assert summary["candidates"] > 0 and summary["positives"] > 0
    assert built == []


def test_the_package_defines_and_imports_no_per_line_mention_object():
    import ast

    from falcon.encoder import ArBertEncoder
    from falcon.ingest import MentionTable

    names = {"TextSegment", "EntityMention", "TrajectoryTriple", "CandidateQuadruple",
             "views_of", "canonical_entities"}
    found = []
    for path in sorted(Path(falcon.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                defined = [alias.asname or alias.name for alias in node.names]
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined = [node.id]
            else:
                continue
            found += [(path.name, name) for name in defined if name in names]
    assert found == []
    assert not hasattr(MentionTable, "add") and not hasattr(ArBertEncoder, "prepare")


@pytest.mark.parametrize("command", ["fixture", "ingest", "dataset split", "dataset summarize",
                                     "pretrain-tra", "train", "eval", "predict", "ablate"])
def test_no_command_builds_a_mention_segment_triple_or_candidate_object(
        workspace, monkeypatch, command):
    # The fixture appends its rows to columns, every labeled or candidate
    # file is read into columns, and every line written from a row.
    fx, out = workspace / "fx", workspace / "counted"
    out.mkdir(exist_ok=True)
    (out / "one_epoch.cfg").write_text("hidden_size = 4\nmax_epochs = 1\nseed = 5\n")
    ingest = ["ingest", "--docs", str(fx / "docs"), "--triples", str(fx / "triples.jsonl"),
              "--out", str(out / "candidates.jsonl")]
    split = str(fx / "labeled_split.jsonl")
    config, frozen = ["--config", str(out / "one_epoch.cfg")], [
        "--frozen", str(workspace / "extractor.ckpt")]
    commands = {
        "fixture": ["fixture", "--out-dir", str(out / "fx"), "--docs", "12"],
        "ingest": ingest,
        "dataset split": ["dataset", "split", "--in", str(fx / "labeled.jsonl"),
                          "--out", str(out / "split.jsonl")],
        "dataset summarize": ["dataset", "summarize", "--in", split],
        "pretrain-tra": ["pretrain-tra", *config, "--data", str(fx / "trajectories.jsonl"),
                         "--out", str(out / "extractor.ckpt")],
        "train": ["train", *config, "--data", split, "--out", str(out / "model.ckpt"), *frozen],
        "eval": ["eval", "--checkpoint", str(workspace / "model.ckpt"), "--data", split],
        "predict": ["predict", "--checkpoint", str(workspace / "model.ckpt"),
                    "--candidates", str(out / "candidates.jsonl"),
                    "--out", str(out / "preds.jsonl")],
        "ablate": ["ablate", *config, "--data", split, "--out-dir", str(out / "ablations"),
                   *frozen],
    }
    runner = CliRunner()
    if command == "predict":
        assert runner.invoke(main, ingest).exit_code == 0
    built = _count_constructions(monkeypatch)
    res = runner.invoke(main, commands[command])
    assert res.exit_code == 0, res.output
    assert built == []


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
    marked, = insert_markers([Views.of(load_labeled_triples(trajectories).mentions)], backbone)
    overflowing = sum(isinstance(error, ContextOverflowError) for error in marked.errors.values())
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
    ('{"Ada Byron": {"party": "Republican"}, "Ada Byron": {"party": "Democrat"}}',
     "key 'Ada Byron' appears twice"),
], ids=["bad-json", "top-level-list", "value-not-object", "name-collision", "duplicate-key"])
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


@pytest.mark.parametrize("key, value, reason", [
    ("lat", "42.36", "lat of 'Boston' is not a number"),
    ("lon", True, "lon of 'Boston' is not a number"),
    ("lat", None, "lat of 'Boston' is not a number"),
    ("state", 7, "state of 'Boston' is not a string"),
])
def test_a_bad_gazetteer_value_is_an_error_line(workspace, tmp_path, key, value, reason):
    gazetteer = json.loads((workspace / "fx" / "gazetteer.json").read_text())
    gazetteer["Boston"][key] = value
    bad = tmp_path / "gazetteer.json"
    bad.write_text(json.dumps(gazetteer))
    out = tmp_path / "out"
    res = CliRunner().invoke(main, [
        "extract", "--triples", str(workspace / "fx" / "triples.jsonl"),
        "--checkpoint", str(workspace / "model.ckpt"), "--out", str(out),
        "--gazetteer", str(bad)])
    assert res.exit_code == 1, res.output
    assert res.output == f"Error: {bad}: {reason}\n"
    assert not out.exists()


def test_a_checkpoint_that_does_not_match_its_model_is_an_error_line(workspace, tmp_path):
    # eval loads a model checkpoint, train --frozen an extractor checkpoint
    runner = CliRunner()
    for name, flag, command in (
            ("model.ckpt", "--checkpoint", ["eval"]),
            ("extractor.ckpt", "--frozen", ["train", "--out", str(tmp_path / "out.ckpt")])):
        arrays, meta = load_archive(workspace / name)
        bad = tmp_path / name
        save_archive(bad, {**arrays, "bogus": np.zeros(1)}, meta)
        res = runner.invoke(main, [*command, flag, str(bad),
                                   "--data", str(workspace / "fx" / "labeled_split.jsonl")])
        assert res.exit_code == 1, res.output
        assert res.output == f"Error: {bad}: unknown array 'bogus'\n"


def test_a_checkpoint_with_a_non_finite_array_is_an_error_line(workspace, tmp_path):
    # a NaN weight would label every candidate negative; eval and extract refuse it
    arrays, meta = load_archive(workspace / "model.ckpt")
    bad = tmp_path / "model.ckpt"
    save_archive(bad, {**arrays, "head.inter.W": np.full_like(arrays["head.inter.W"], np.nan)},
                 meta)
    out = tmp_path / "records.jsonl"
    runner = CliRunner()
    for command in (["eval", "--data", str(workspace / "fx" / "labeled_split.jsonl")],
                    ["extract", "--triples", str(workspace / "fx" / "triples.jsonl"),
                     "--out", str(out)]):
        res = runner.invoke(main, [*command, "--checkpoint", str(bad)])
        assert res.exit_code == 1, res.output
        assert res.output == f"Error: {bad}: array 'head.inter.W' is not finite\n"
    assert not out.exists()


def test_a_bad_gazetteer_fails_before_the_checkpoint_is_read(workspace, tmp_path):
    bad = tmp_path / "gazetteer.json"
    bad.write_text(json.dumps({"Boston": {"lat": "42.36"}}))
    corrupt = tmp_path / "model.ckpt"
    corrupt.write_bytes(b"not a checkpoint")
    out = tmp_path / "out"
    res = CliRunner().invoke(main, [
        "extract", "--triples", str(workspace / "fx" / "triples.jsonl"),
        "--checkpoint", str(corrupt), "--out", str(out), "--gazetteer", str(bad)])
    assert res.exit_code == 1, res.output
    assert res.output == f"Error: {bad}: lat of 'Boston' is not a number\n"
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


def test_training_commands_run_without_numpy_ma(tmp_path):
    # numpy.ma costs 31-38 ms of import; no training command needs it.
    setup = [["fixture", "--out-dir", "fx", "--docs", "20"],
             ["dataset", "split", "--in", "fx/labeled.jsonl", "--out", "fx/split.jsonl"]]
    commands = [
        ["pretrain-tra", "--config", "train.cfg", "--data", "fx/trajectories.jsonl",
         "--out", "extractor.ckpt"],
        ["train", "--config", "train.cfg", "--data", "fx/split.jsonl", "--out", "model.ckpt",
         "--frozen", "extractor.ckpt"],
        ["eval", "--checkpoint", "model.ckpt", "--data", "fx/split.jsonl"],
    ]
    (tmp_path / "train.cfg").write_text("hidden_size = 4\nmax_epochs = 2\nseed = 5\n")
    out = _run_python(
        "import sys\n"
        "from falcon.cli import main\n"
        f"for args in {setup!r}:\n"
        "    main(args, standalone_mode=False)\n"
        f"for args in {commands!r}:\n"
        "    main(args, standalone_mode=False)\n"
        "    print('numpy.ma loaded:', 'numpy.ma' in sys.modules, args[0])\n",
        cwd=tmp_path)
    assert [line for line in out.splitlines() if line.startswith("numpy.ma loaded:")] == [
        "numpy.ma loaded: False pretrain-tra",
        "numpy.ma loaded: False train",
        "numpy.ma loaded: False eval",
    ]


# ---------------------------------------------------------------------------
# Pinned analysis outputs

def _analysis_inputs(root):
    """The political fixture plus one record of each kind that the party
    analyses leave out or treat apart: untyped, undated, an unknown person,
    a person without a party, and a self-pair. Returns (records, attrs) paths."""
    records, attrs = political_records_fixture()
    by_name = {v["name"]: {k: x for k, x in v.items() if k != "name"}
               for v in attrs.values()}
    by_name["Zed Partyless"] = {"birthplace": [44.0, -93.0], "state": "Minnesota"}
    first, second = list(by_name)[:2]
    extra = [(first, second, None, 1990), (first, second, "Cooperative", None),
             (first, "Nemo Unknown", "Neutral", 1995),
             (second, "Zed Partyless", "Adversarial", 2000),
             (first, f"  {first.upper()} ", "Cooperative", 2005)]
    for i, (p1, p2, itype, year) in enumerate(extra):
        records.append(replace(records[i], record_id=f"extra{i}", person1=p1, person2=p2,
                               interaction_type=itype, time_year=year))
    dump_records(records, root / "typed.jsonl")
    (root / "attrs.json").write_text(json.dumps(by_name, indent=2, sort_keys=True))
    return root / "typed.jsonl", root / "attrs.json"


# SHA-256 of every output file and of each command's stdout, on the inputs of
# ``_analysis_inputs``. Any change to what an analysis counts or prints moves one.
ANALYSIS_DIGESTS = {
    "cumulative_Massachusetts.csv":
        "e017767038a8d0472736032737b9eed8c10d31b93abc7e376bca1e2ade28e58b",
    "cumulative_Massachusetts.json":
        "96a5b8195de4ab2e93932b4bcc4a8822f94dec368202ca401d30ea9fb54149ca",
    "cumulative_all.csv":
        "3ffb5d4e7b8924829d65d3a0147afa9968321e27ba7fe0f6c54b66001e131c54",
    "cumulative_all.json":
        "1043031e62f936ffb29d5d897211377c587a2c5a62de39ab5f4869207f1fc84e",
    "distance.csv":
        "a6213cf48f577202ddcb80b1fce45663c2aad1deacf1b7c4bc22aab5bdb48fb3",
    "distance.stdout":
        "739a5dbc5cb6cd83a2c07988dd1e85ee0738c301659945471ac8bd6afaec5d43",
    "edges.csv":
        "201d4b2ee900d461e33e0524ddf12cdadc65a102367fc6bdaf2a2a207ca1d9bd",
    "export.stdout":
        "5f3706e410bdb784b958abc44f9f7463a304ff8df1f52bc2fbe7a92c6b650bd5",
    "graph.gexf":
        "46222bee0c9acbf79d8b5bdb675b6e554d807fa3883274d6eb286b2459f7d635",
    "polarization_cumulative_Massachusetts.stdout":
        "f82e3ca78534db36abcb257d0d149f959ed4a128e0caa2f5126f8760a9ce186d",
    "polarization_cumulative_all.stdout":
        "b81d2fe4605b18d3eb7da41ecd207d94cd2caba26301c0e7a12067390745d4cb",
    "polarization_yearly_Massachusetts.stdout":
        "d73386f4144afa55eac45883d03e2c451967acb55daea113dd47d01dfba75787",
    "polarization_yearly_all.stdout":
        "b81d2fe4605b18d3eb7da41ecd207d94cd2caba26301c0e7a12067390745d4cb",
    "stats.json":
        "0bec5d9c5a55ddcb700170b7da923ba347ea4975971a08071fc49203f89bc597",
    "stats.stdout":
        "8ca84ea94ed39579ec8b393afdacecdbce9ae6d7b35e8571408d392237ad5790",
    "totals_decade.json":
        "e55e4c69d580c37f7054724d1efd19fa738255433bcdb24ee6c1838f15fdc82a",
    "totals_year.json":
        "e55e4c69d580c37f7054724d1efd19fa738255433bcdb24ee6c1838f15fdc82a",
    "trends_decade.csv":
        "79582e5a8d02f24a50df024b38183d51a2e08755757886a44049fae03015484c",
    "trends_decade.stdout":
        "5ed74770c1323472680ad239cdfc428d7ba066e59b1d73899222b69d182dd167",
    "trends_year.csv":
        "dd79bdb5418ea6477ae47aeec8fba6bf29d077ea660994efeedc9629a98052e0",
    "trends_year.stdout":
        "6543d54190ae2fc0e088ec0fbd689b2b8249dab5e2c967195049bd19baae6c53",
    "yearly_Massachusetts.csv":
        "2ea04fda5c8cb3d9eaa1856732158518680fd3806f058f91ee65d234ebc739ab",
    "yearly_Massachusetts.json":
        "5cb2f8ec8fbe81c14b578a5cd53c3fb039d6902201e5deaeca15eda4d0f2cdf4",
    "yearly_all.csv":
        "c9af3b9474513e7c5edbef93d7d771490afc0ba9774b8c037dc7785b04c9c554",
    "yearly_all.json":
        "13fc99ae1b3e2edca3dfed0d5f7dfc2bc407a3d5b274dea2cec347c8e04e329a",
}


def test_every_analyze_output_matches_its_pinned_digest(tmp_path):
    import hashlib

    records, attrs = _analysis_inputs(tmp_path)
    common = ["--records", str(records), "--attrs", str(attrs)]
    polar = ["--null-samples", "20", "--seed", "3"]
    runs = {}
    for name, flags in [("yearly", []), ("cumulative", ["--cumulative"])]:
        for state in ("", "Massachusetts"):
            tag = f"{name}_{state or 'all'}"
            runs[f"polarization_{tag}"] = [
                "analyze", "polarization", *common, *polar, *flags,
                *(["--state-filter", state] if state else []),
                "--out-csv", f"{tag}.csv", "--out-json", f"{tag}.json"]
    runs["stats"] = ["analyze", "stats", *common, "--out-json", "stats.json"]
    runs["export"] = ["analyze", "export", *common, "--out-edges", "edges.csv",
                      "--out-gexf", "graph.gexf"]
    for bin_size in ("decade", "year"):
        runs[f"trends_{bin_size}"] = [
            "analyze", "trends", *common, "--bin", bin_size,
            "--out-csv", f"trends_{bin_size}.csv", "--out-json", f"totals_{bin_size}.json"]
    runs["distance"] = ["analyze", "distance", *common, "--out-csv", "distance.csv"]
    digests = {}
    runner = CliRunner()
    with runner.isolated_filesystem(temp_dir=tmp_path):
        for name, args in runs.items():
            res = runner.invoke(main, args)
            assert res.exit_code == 0, res.output
            digests[f"{name}.stdout"] = hashlib.sha256(res.stdout.encode()).hexdigest()
        for path in sorted(Path().iterdir()):
            digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digests == ANALYSIS_DIGESTS


ANALYZE_OUTPUTS = {
    "polarization": ["--null-samples", "2", "--out-csv", "out.csv"],
    "trends": ["--out-csv", "out.csv"],
    "distance": ["--out-csv", "out.csv"],
    "stats": ["--out-json", "out.json"],
    "export": ["--out-edges", "out.csv"],
}


@pytest.mark.parametrize("command", sorted(ANALYZE_OUTPUTS))
@pytest.mark.parametrize("key, value, reason", [
    ("time_year", "1999", "time_year must be an integer or null, not str"),
    ("time_year", True, "time_year must be an integer or null, not bool"),
    ("person1", 7, "person1 must be a string, not int"),
    ("interaction_type", 1, "interaction_type must be a string or null, not int"),
    ("lat", "42.0", "lat must be a number or null, not str"),
    ("state", ["MA"], "state must be a string or null, not list"),
])
def test_a_bad_record_value_is_an_error_line(tmp_path, command, key, value, reason):
    records, attrs = _analysis_inputs(tmp_path)
    lines = records.read_text().splitlines()
    bad = json.loads(lines[1])
    bad[key] = value
    lines[1] = json.dumps(bad)
    records.write_text("\n".join(lines) + "\n")
    res = CliRunner().invoke(main, ["analyze", command, "--records", str(records),
                                    "--attrs", str(attrs), *ANALYZE_OUTPUTS[command]])
    assert res.exit_code == 1, res.output
    assert res.output == f"Error: {records}:2: {reason}\n"


@pytest.mark.parametrize("command, field, value, reason", [
    ("export", "party", 1, "party of {name!r} is not a string"),
    ("distance", "birthplace", "Boston", "birthplace of {name!r} is not two finite numbers"),
    ("distance", "birthplace", [42.0], "birthplace of {name!r} is not two finite numbers"),
    ("distance", "birthplace", [True, 1.0],
     "birthplace of {name!r} is not two finite numbers"),
    ("trends", "party", None, "party of {name!r} is not a string"),
])
def test_a_bad_attrs_value_is_an_error_line(tmp_path, command, field, value, reason):
    records, attrs = _analysis_inputs(tmp_path)
    table = json.loads(attrs.read_text())
    name = sorted(table)[0]
    table[name][field] = value
    attrs.write_text(json.dumps(table))
    res = CliRunner().invoke(main, ["analyze", command, "--records", str(records),
                                    "--attrs", str(attrs), *ANALYZE_OUTPUTS[command]])
    assert res.exit_code == 1, res.output
    assert res.output == f"Error: {attrs}: {reason.format(name=name)}\n"


# ---------------------------------------------------------------------------
# Pinned extraction outputs

def _extract_runs(fx_dir: str) -> dict:
    """The commands of :func:`test_every_extract_output_matches_its_pinned_digest`,
    by name: two trained models, then `extract` and `classify-type` with each.
    The "full" model has a 512-token window. The "short" one has a 22-token
    window over an extractor with a 16-token window, so some candidates
    overflow the model's window and some only the extractor's; `predict`
    writes each skipped candidate's reason."""
    fx = Path(fx_dir)
    llm = f"fixture:{fx / 'llm_responses.json'}"
    runs = {
        "fixture": ["fixture", "--out-dir", str(fx), "--docs", "12", "--seed", "11"],
        "split": ["dataset", "split", "--in", str(fx / "labeled.jsonl"),
                  "--out", "split.jsonl", "--seed", "0"],
        "candidates": ["ingest", "--docs", str(fx / "docs"),
                       "--triples", str(fx / "triples.jsonl"), "--out", "candidates.jsonl"],
    }
    for name, extractor_cfg, model_cfg in (("full", "full.cfg", "full.cfg"),
                                           ("short", "narrow.cfg", "short.cfg")):
        runs[f"{name}_pretrain"] = ["pretrain-tra", "--config", extractor_cfg,
                                    "--data", str(fx / "trajectories.jsonl"),
                                    "--out", f"{name}_extractor.ckpt"]
        runs[f"{name}_train"] = ["train", "--config", model_cfg, "--data", "split.jsonl",
                                 "--out", f"{name}.ckpt",
                                 "--frozen", f"{name}_extractor.ckpt"]
        runs[f"{name}_extract"] = ["extract", "--triples", str(fx / "triples.jsonl"),
                                   "--checkpoint", f"{name}.ckpt",
                                   "--out", f"{name}_records.jsonl",
                                   "--summary", f"{name}_summary.json",
                                   "--gazetteer", str(fx / "gazetteer.json")]
        runs[f"{name}_classify"] = ["classify-type", "--records", f"{name}_records.jsonl",
                                    "--llm", llm, "--out", f"{name}_typed.jsonl"]
    runs["short_predict"] = ["predict", "--checkpoint", "short.ckpt",
                             "--candidates", "candidates.jsonl",
                             "--out", "short_preds.jsonl"]
    return runs


# SHA-256 of what extraction writes and prints on the runs of ``_extract_runs``:
# the records, summary and typed records of both models, the short model's
# predictions with their skip reasons, and each extract's stdout. Scoring
# moves one when any bit of a score, label or skip reason changes.
EXTRACT_DIGESTS = {
    "full_extract.stdout":
        "6889eac4db0d650343a7889c8bbb48ac3252c0f016231feb5d4f7c77d8742e0a",
    "full_records.jsonl":
        "aeb7b7056039fc8a7da3b7c35a98ada063449411c789e6126f18387687d46add",
    "full_summary.json":
        "57e0f9dfbcedf10e85675146fb526a9760784e4d15c816de205607c7eb00ab2b",
    "full_typed.jsonl":
        "655c24bd411ac5cb65566e1bb7f505c4fb4e8bc033a50c077a1b31b836764fae",
    "short_extract.stdout":
        "a07ef2f36ab379d5775cbb489091b8199592c8017a17fa888b58f20ce1e771a4",
    "short_preds.jsonl":
        "bae3aa456dfbd5e32a399a403808935d4c4b2120afdc38d5115a52400e32892c",
    "short_records.jsonl":
        "990ea0c2224b1b770f16e16772245b73e38a7673f2faea9813ad732dcc149759",
    "short_summary.json":
        "e92759d738ba9147a85cc44e2da94bdcc6830a6fe9e54044eccaa989ec801140",
    "short_typed.jsonl":
        "2c302b8c261d8f71e49dfa9d22dddd3ff481759158301699ad117a6484156718",
}


def test_extract_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    # Surfaces and segments are interned in the order first seen, never through
    # a set, so two interpreters with other string hashes write the same bytes.
    import hashlib

    outputs = []
    for seed in ("1", "2"):
        cwd = tmp_path / f"hashseed{seed}"
        cwd.mkdir()
        (cwd / "full.cfg").write_text("hidden_size = 4\nlearning_rate = 0.005\n"
                                      "max_epochs = 2\nbatch_size = 16\nseed = 5\n")
        runs = _extract_runs(str(cwd / "fx"))
        commands = [runs[name] for name in ("fixture", "split", "full_pretrain", "full_train",
                                            "full_extract", "full_classify")]
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=str(Path(falcon.__file__).parents[1]))
        code = ("from falcon.cli import main\n"
                f"for args in {commands!r}:\n"
                "    main(args, standalone_mode=False)\n")
        subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd, check=True,
                       capture_output=True)
        outputs.append({name: hashlib.sha256((cwd / name).read_bytes()).hexdigest()
                        for name in ("full_records.jsonl", "full_summary.json",
                                     "full_typed.jsonl")})
    assert outputs[0] == outputs[1] == {name: EXTRACT_DIGESTS[name] for name in outputs[0]}


def test_every_extract_output_matches_its_pinned_digest(tmp_path):
    import hashlib

    configs = {"full.cfg": "", "narrow.cfg": "max_tokens = 16\n",
               "short.cfg": "max_tokens = 22\n"}
    runner = CliRunner()
    digests = {}
    with runner.isolated_filesystem(temp_dir=tmp_path):
        for path, extra in configs.items():
            Path(path).write_text("hidden_size = 4\nlearning_rate = 0.005\nmax_epochs = 2\n"
                                  "batch_size = 16\nseed = 5\n" + extra)
        for name, args in _extract_runs(str(tmp_path / "fx")).items():
            res = runner.invoke(main, args)
            assert res.exit_code == 0, (name, res.output)
            if name.endswith("_extract"):
                digests[f"{name}.stdout"] = hashlib.sha256(res.stdout.encode()).hexdigest()
        for path in sorted(Path().glob("*_*.json*")):
            if path.name != "split.jsonl":
                digests[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        short = json.loads(Path("short_summary.json").read_text())
        reasons = [json.loads(line).get("reason")
                   for line in Path("short_preds.jsonl").read_text().splitlines()]
    assert short["skipped"] > 0 and short["positives"] > 0
    assert any(r and "window holds 21" in r for r in reasons)
    assert any(r and "window holds 15" in r for r in reasons)
    assert digests == EXTRACT_DIGESTS


# ---------------------------------------------------------------------------
# Pinned outputs of the labeled-data commands

def _labeled_runs(root: Path) -> dict:
    """The commands of :func:`test_every_labeled_output_matches_its_pinned_digest`,
    by name: two fixtures, two splits, a summary and the candidates of one
    fixture. None of them multiplies a matrix, so their bytes do not depend
    on the BLAS kernel."""
    fx = root / "fx"
    return {
        "fixture": ["fixture", "--out-dir", str(fx), "--docs", "12", "--seed", "11"],
        "fixture50": ["fixture", "--out-dir", str(root / "fx50")],
        "split": ["dataset", "split", "--in", str(fx / "labeled.jsonl"),
                  "--out", str(root / "split.jsonl"), "--seed", "0"],
        "split_by_doc": ["dataset", "split", "--in", str(fx / "labeled.jsonl"),
                         "--out", str(root / "split_by_doc.jsonl"), "--seed", "3",
                         "--ratios", "0.5,0.25,0.25", "--by-doc"],
        "summarize": ["dataset", "summarize", "--in", str(root / "split.jsonl")],
        "ingest": ["ingest", "--docs", str(fx / "docs"), "--triples", str(fx / "triples.jsonl"),
                   "--out", str(root / "candidates.jsonl")],
    }


# SHA-256 of what the labeled-data commands write and print on the runs of
# ``_labeled_runs``: the fixture files, both splits, the summary and the
# candidates, and each command's stdout.
LABELED_DIGESTS = {
    "candidates.jsonl": "b365b6411b0f78b35b112450a526c8b942888ba946179994f0ff44ac60b59fc7",
    "fixture.stdout": "474d9b33a4b54165ec2dfc17de37ead9c33a0ba01ea3cb88a4a0e9c9e230beff",
    "fixture50.stdout": "70314355e149b0ab5f816ade215a8f99d4a8f710f28c9dfb782c7152ab30a954",
    "fx/labeled.jsonl": "b14c1a5a70b9320e29f4e97fac368d4a3b7d0ed721729685ba7b9f0598b2a8fb",
    "fx/trajectories.jsonl": "99ae3573219ebf6b4274f22e22e984d964ece586483063cb887286684da3c5f8",
    "fx/triples.jsonl": "fe3dfea6f3413b3b2efb0565a0801214c871f55d719af89381bc5dbff1231529",
    "fx50/labeled.jsonl": "fd5c805e975854b3638c4bb7002cc2cedf7a5a74db611ab18deff11aa1913b06",
    "fx50/trajectories.jsonl": "6b6c8adfc95469a165c5706d922c150beba0ededa25093ced763eaacdb624f31",
    "fx50/triples.jsonl": "5b96b3a2e71ae0259c3ccc1dec15093975d0cc53b59134fcf27f16fdfc2b5d6f",
    "ingest.stdout": "34d76f58a373b17acceeb782d3ecf0b7df6a3ba87ce50199998e22740d7390f4",
    "split.jsonl": "1d1d3d41af5437b117d14c675d3a7efbf1eb47547da27235ea2989480244babb",
    "split.stdout": "7d87779700cb7780c4327f40ac0bcf599319430d9aafbf5d47170a4281d91e72",
    "split_by_doc.jsonl": "eafcbf294df5d129d264635166f3d69c8aa1519721eb9b69503413ceeab15d66",
    "split_by_doc.stdout": "8584deeb06addf4e3688b5188f1e66e9fbbe8e2c6eba2aa8172aa83339e5af17",
    "summarize.stdout": "90bbef94565cccb394427815ee4e6de4028286f0e35e5d040051717fe29c2c99",
}


def test_every_labeled_output_matches_its_pinned_digest(tmp_path):
    import hashlib

    runner = CliRunner()
    digests = {}
    for name, args in _labeled_runs(tmp_path).items():
        res = runner.invoke(main, args)
        assert res.exit_code == 0, (name, res.output)
        digests[f"{name}.stdout"] = hashlib.sha256(res.stdout.encode()).hexdigest()
    for name in LABELED_DIGESTS:
        if not name.endswith(".stdout"):
            digests[name] = hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
    assert digests == LABELED_DIGESTS


# SHA-256 of every file ``falcon fixture --docs N --seed 1`` writes, and of its
# stdout, at the document counts of perfbench's ``train`` (100) and ``extract``
# (400) set-ups: a rewrite of the generator cannot change unseen what the
# benchmark measures.
PERFBENCH_FIXTURE_DIGESTS = {
    "100.stdout": "c9d2fa71856a878f4cadd35884130a7da70bb863272839599ff39e402ced2c48",
    "100/attrs.json": "8f2e5ab128ee1380d81a84a101e9c5dfd618b393a8146418013b30a6a924a2a2",
    "100/docs/corpus.jsonl": "766315001f0e3402e01db79c26cbe05522ebd8631ecbdf311998dff89ad20bdf",
    "100/gazetteer.json": "6822ebb8f5d3295ae7af3f2b192e0b239d96cc601b07d2d8f25d3df43f899d13",
    "100/labeled.jsonl": "7eef3525c5e80c0b7671d8783ad2bf269f8afbc68d980405e3751af6efdb2ad3",
    "100/llm_responses.json": "555ded27a7f86d56b17ceb4487fba62f1fbdd50fe8dd041905fb73837c3005e2",
    "100/trajectories.jsonl": "f6b3190ef790b11f12ef2089c91e1cbe75da5ca817da5eb71129c5d680bdb962",
    "100/triples.jsonl": "f5aaefd5bfaa608ab8336af74174b3cd78d9b06664d3b03d42b010eb43451120",
    "400.stdout": "2e1a782848252834c7be4e4b1540c4074934afdc9d815bce700a4e3658da7273",
    "400/attrs.json": "8f2e5ab128ee1380d81a84a101e9c5dfd618b393a8146418013b30a6a924a2a2",
    "400/docs/corpus.jsonl": "f2c5e88a4a3f526489edfebf86329837a5b3af57f3c7cbf155a521601cc6f119",
    "400/gazetteer.json": "6822ebb8f5d3295ae7af3f2b192e0b239d96cc601b07d2d8f25d3df43f899d13",
    "400/labeled.jsonl": "13d6ad9cfb76e0bca02281e62097f428bc90e51200eaf5bd10f0b1b233acd6bd",
    "400/llm_responses.json": "555ded27a7f86d56b17ceb4487fba62f1fbdd50fe8dd041905fb73837c3005e2",
    "400/trajectories.jsonl": "81eeae996ca9daea94604488fd94be48379badfda294a0471f93a9189e8d9437",
    "400/triples.jsonl": "fa93c000ad8b8770c1159c3b36ab4d033232d1efef9c5179acc536ba6f7e6758",
}


def test_the_perfbench_fixtures_match_their_pinned_digests(tmp_path):
    import hashlib

    runner = CliRunner()
    digests = {}
    for docs in (100, 400):
        res = runner.invoke(main, ["fixture", "--out-dir", str(tmp_path / str(docs)),
                                   "--docs", str(docs), "--seed", "1"])
        assert res.exit_code == 0, res.output
        digests[f"{docs}.stdout"] = hashlib.sha256(res.stdout.encode()).hexdigest()
    for path in tmp_path.rglob("*"):
        if path.is_file():
            digests[path.relative_to(tmp_path).as_posix()] = hashlib.sha256(
                path.read_bytes()).hexdigest()
    assert digests == PERFBENCH_FIXTURE_DIGESTS
