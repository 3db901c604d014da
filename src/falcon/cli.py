"""Command-line interface: ingest, dataset ops, training, extraction, analysis."""

from __future__ import annotations

import csv
import json
import sys
from pathlib import Path

import click

from . import dataset as ds
from . import evalbench, extract, fixtures, ingest, polarnet
from . import training as tr


class _Group(click.Group):
    """Reports a command's ValueError (bad input, ``path:line: reason`` for
    a file) as ``Error: <message>`` with exit status 1, not a traceback."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except ValueError as exc:
            raise click.ClickException(str(exc)) from exc


@click.group(cls=_Group)
def main():
    """Spatio-temporal interaction extraction and polarization analysis."""


# ---------------------------------------------------------------------------
# ingest

@main.command("ingest")
@click.option("--docs", required=True, type=click.Path(exists=True))
@click.option("--triples", "triples_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--errors", "errors_path", type=click.Path())
def ingest_cmd(docs, triples_path, out_path, errors_path):
    """Validate triples against a document corpus and emit candidate quadruples."""
    documents = ingest.load_documents(docs)
    doc_ids = {d.doc_id for d in documents}
    result = ingest.load_triples(triples_path)
    known = [t for t in result.triples if t.segment.doc_id in doc_ids]
    orphans = len(result.triples) - len(known)
    if orphans:
        click.echo(f"warning: {orphans} triples reference unknown documents",
                   err=True)
    candidates = ingest.generate_candidates(known)
    ingest.dump_candidates(candidates, out_path)
    if errors_path:
        ingest.write_jsonl(errors_path, ({"line": err.line, "message": err.message}
                                         for err in result.errors))
    click.echo(json.dumps({
        "documents": len(documents), "triples": len(known),
        "triple_errors": len(result.errors), "candidates": len(candidates),
    }))


# ---------------------------------------------------------------------------
# dataset

@main.group("dataset")
def dataset_group():
    """Labeled dataset operations."""


@dataset_group.command("summarize")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
def dataset_summarize(in_path):
    examples = ds.load_examples(in_path)
    click.echo(json.dumps(ds.summarize(examples).to_json(), indent=2))


@dataset_group.command("split")
@click.option("--in", "in_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--seed", default=0, show_default=True)
@click.option("--ratios", default="0.7,0.1,0.2", show_default=True)
@click.option("--by-doc", is_flag=True, help="Group examples by document.")
def dataset_split(in_path, out_path, seed, ratios, by_doc):
    examples = ds.load_examples(in_path)
    parts = tuple(float(x) for x in ratios.split(","))
    if len(parts) != 3:
        raise click.UsageError("--ratios needs three comma-separated numbers")
    split = ds.split_dataset(examples, ratios=parts, seed=seed, group_by_doc=by_doc)
    ds.dump_examples(split, out_path)
    click.echo(json.dumps(ds.summarize(split).to_json()["split_sizes"]))


# ---------------------------------------------------------------------------
# training

def _load_train_config(config_path) -> tr.TrainConfig:
    return tr.load_config(config_path) if config_path else tr.TrainConfig()


@main.command("pretrain-tra")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def pretrain_tra_cmd(config_path, data_path, out_path):
    """Pretrain the trajectory extractor on labeled triples, freeze, save."""
    config = _load_train_config(config_path)
    corpus = ds.load_labeled_triples(data_path)
    result = tr.TrainResult()
    extractor, history = tr.pretrain_trajectory_extractor(corpus, config, result=result)
    extractor.save(out_path, history=history)
    click.echo(json.dumps({"examples": len(corpus), "skipped": result.skipped,
                           "epochs": len(history), "final_loss": history[-1]["loss"],
                           "config_hash": config.config_hash()}))


def _load_training_examples(data_path) -> list:
    """The labeled examples of ``data_path``, which must have a train split."""
    examples = ds.load_examples(data_path)
    if not any(ex.split == "train" for ex in examples):
        raise ValueError(f"{data_path}: no examples with split='train' "
                         "(run falcon dataset split)")
    return examples


@main.command("train")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--frozen", "frozen_path", type=click.Path(exists=True))
def train_cmd(config_path, data_path, out_path, frozen_path):
    """Train the interaction classifier; keeps the best validation-F1 epoch."""
    config = _load_train_config(config_path)
    examples = _load_training_examples(data_path)
    frozen = None
    if config.fusion_mode != "off":
        if not frozen_path:
            raise click.UsageError("feature transfer requires --frozen checkpoint")
        frozen = tr.FrozenTrajectoryExtractor.load(frozen_path)
    model = tr.InteractionModel(config, frozen=frozen)
    result = tr.train(model, examples)
    model.save(out_path, history=result.history)
    click.echo(json.dumps({"epochs": len(result.history),
                           "best_epoch": result.best_epoch,
                           "best_val_f1": result.best_val_f1,
                           "skipped": result.skipped,
                           "config_hash": config.config_hash()}))


def _prediction_json(p: tr.Prediction) -> dict:
    rec = ingest.candidate_to_json(p.candidate)
    rec.update(score=p.score, label=p.label, skipped=p.skipped)
    if p.reason:
        rec["reason"] = p.reason
    return rec


@main.command("predict")
@click.option("--checkpoint", required=True, type=click.Path(exists=True))
@click.option("--candidates", "cand_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--threshold", type=float,
              help="Label threshold; defaults to the checkpoint's.")
def predict_cmd(checkpoint, cand_path, out_path, threshold):
    """Score candidate quadruples with a trained checkpoint."""
    model = tr.InteractionModel.load(checkpoint)
    candidates = ingest.load_candidates(cand_path)
    preds = tr.predict(model, candidates, threshold=threshold)
    ingest.write_jsonl(out_path, map(_prediction_json, preds))
    n_pos = sum(1 for p in preds if p.label == 1)
    click.echo(json.dumps({"candidates": len(preds), "positives": n_pos,
                           "skipped": sum(1 for p in preds if p.skipped)}))


@main.command("eval")
@click.option("--checkpoint", required=True, type=click.Path(exists=True))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--split", default="test", show_default=True)
@click.option("--out", "out_path", type=click.Path())
def eval_cmd(checkpoint, data_path, split, out_path):
    """Evaluate a checkpoint on one split of a labeled dataset."""
    model = tr.InteractionModel.load(checkpoint)
    examples = ds.load_examples(data_path)
    subset = [ex for ex in examples if split == "all" or ex.split == split]
    if not subset:
        raise click.UsageError(f"no examples in split {split!r}")
    report = evalbench.evaluate_transfer(model, subset, dataset_id=f"{data_path}:{split}")
    click.echo(json.dumps(report.to_json(), indent=2))
    if out_path:
        Path(out_path).write_text(json.dumps(report.to_json(), indent=2) + "\n",
                                  encoding="utf-8")


@main.command("ablate")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--out-dir", "out_dir", required=True, type=click.Path())
@click.option("--frozen", "frozen_path", required=True, type=click.Path(exists=True))
def ablate_cmd(config_path, data_path, out_dir, frozen_path):
    """Run the six-configuration ablation grid and write CSV + text tables."""
    config = _load_train_config(config_path)
    examples = _load_training_examples(data_path)
    frozen = tr.FrozenTrajectoryExtractor.load(frozen_path)
    table = evalbench.run_ablations(examples, config, frozen_extractor=frozen,
                                    dataset_id=str(data_path))
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "ablations.csv").write_text(table.to_csv(), encoding="utf-8")
    (out / "ablations.txt").write_text(table.to_text(), encoding="utf-8")
    click.echo(table.to_text())


# ---------------------------------------------------------------------------
# extraction

@main.command("extract")
@click.option("--triples", "triples_path", required=True, type=click.Path(exists=True))
@click.option("--checkpoint", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--summary", "summary_path", type=click.Path())
@click.option("--threshold", type=float,
              help="Label threshold; defaults to the checkpoint's.")
@click.option("--state", "state_path", type=click.Path(),
              help="Resume-state file; reruns skip completed documents.")
@click.option("--gazetteer", "gazetteer_path", type=click.Path(exists=True))
def extract_cmd(triples_path, checkpoint, out_path, summary_path, threshold,
                state_path, gazetteer_path):
    """Run the corpus extraction: triples -> candidates -> positive records."""
    model = tr.InteractionModel.load(checkpoint)
    result = ingest.load_triples(triples_path)
    if result.errors:
        click.echo(f"warning: {len(result.errors)} malformed triple lines skipped",
                   err=True)
    gazetteer = extract.load_gazetteer(gazetteer_path) if gazetteer_path else None
    summary = extract.extract_corpus(
        result.triples, model, out_path, threshold=threshold,
        summary_path=summary_path, state_path=state_path, gazetteer=gazetteer,
        excluded_lines=len(result.errors))
    click.echo(json.dumps(summary.to_json()))


@main.command("classify-type")
@click.option("--records", "records_path", required=True, type=click.Path(exists=True))
@click.option("--llm", "llm_spec", required=True,
              help="fixture:<path> or an http(s) chat-completion endpoint.")
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--model", "model_name", default="gpt-4o-mini", show_default=True)
def classify_type_cmd(records_path, llm_spec, out_path, model_name):
    """Attach Adversarial/Cooperative/Neutral types to interaction records."""
    records = extract.load_records(records_path)
    client = extract.make_llm_client(llm_spec, model=model_name)
    summary = extract.classify_records(records, client)
    extract.dump_records(records, out_path)
    click.echo(json.dumps({"records": len(records), "counts": summary.counts,
                           "defaulted": summary.defaulted,
                           "unclassified": summary.unclassified}))


# ---------------------------------------------------------------------------
# analysis

@main.group("analyze")
def analyze_group():
    """Signed-network analyses over typed interaction records."""


def _load_records_attrs(records_path, attrs_path):
    records = extract.load_records(records_path)
    attrs = polarnet.load_node_attrs(attrs_path)
    return records, attrs


@analyze_group.command("polarization")
@click.option("--records", "records_path", required=True, type=click.Path(exists=True))
@click.option("--attrs", "attrs_path", required=True, type=click.Path(exists=True))
@click.option("--null-samples", default=1000, show_default=True, type=click.IntRange(min=2))
@click.option("--seed", default=0, show_default=True)
@click.option("--cumulative", is_flag=True)
@click.option("--signed-mode", default="verbatim", show_default=True,
              type=click.Choice(["verbatim", "gomez"]))
@click.option("--state-filter", help="Keep only records geocoded to this state.")
@click.option("--out-csv", "out_csv", required=True, type=click.Path())
@click.option("--out-json", "out_json", type=click.Path())
def analyze_polarization(records_path, attrs_path, null_samples, seed, cumulative,
                         signed_mode, state_filter, out_csv, out_json):
    """Yearly standardized-modularity series for the party partition."""
    records, attrs = _load_records_attrs(records_path, attrs_path)
    if state_filter:
        records = [r for r in records if r.state == state_filter]
    rows = polarnet.polarization_series(
        records, attrs, n_samples=null_samples, master_seed=seed,
        cumulative=cumulative, signed_mode=signed_mode)
    Path(out_csv).write_text(polarnet.series_to_csv(rows), encoding="utf-8")
    if out_json:
        Path(out_json).write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    click.echo(json.dumps({"years": len(rows),
                           "scored": sum(1 for r in rows if r["z"] is not None)}))


@analyze_group.command("trends")
@click.option("--records", "records_path", required=True, type=click.Path(exists=True))
@click.option("--attrs", "attrs_path", required=True, type=click.Path(exists=True))
@click.option("--bin", "bin_size", default="decade", show_default=True,
              type=click.Choice(["decade", "year"]))
@click.option("--out-csv", "out_csv", required=True, type=click.Path())
@click.option("--out-json", "out_json", type=click.Path())
def analyze_trends(records_path, attrs_path, bin_size, out_csv, out_json):
    """Inter-party share and per-type shares among inter-party interactions."""
    records, attrs = _load_records_attrs(records_path, attrs_path)
    series = polarnet.trend_ratios(records, attrs, bin_size=bin_size)
    Path(out_csv).write_text(series.to_csv(), encoding="utf-8")
    totals = polarnet.type_party_totals(records, attrs)
    if out_json:
        Path(out_json).write_text(json.dumps(totals, indent=2) + "\n",
                                  encoding="utf-8")
    click.echo(json.dumps({"bins": len(series.bins), "totals": totals}))


@analyze_group.command("distance")
@click.option("--records", "records_path", required=True, type=click.Path(exists=True))
@click.option("--attrs", "attrs_path", required=True, type=click.Path(exists=True))
@click.option("--out-csv", "out_csv", required=True, type=click.Path())
def analyze_distance(records_path, attrs_path, out_csv):
    """Per-record interaction distances (location to both birthplaces)."""
    records, attrs = _load_records_attrs(records_path, attrs_path)
    computed = 0
    with open(out_csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["record_id", "year", "distance_km"])
        for rec in records:
            dist = polarnet.record_distance(rec, attrs)
            writer.writerow([rec.record_id, rec.time_year,
                             "" if dist is None else f"{dist:.3f}"])
            computed += dist is not None
    click.echo(json.dumps({"records": len(records), "computed": computed}))


@analyze_group.command("stats")
@click.option("--records", "records_path", required=True, type=click.Path(exists=True))
@click.option("--attrs", "attrs_path", required=True, type=click.Path(exists=True))
@click.option("--k-min", default=2, show_default=True)
@click.option("--out-json", "out_json", required=True, type=click.Path())
def analyze_stats(records_path, attrs_path, k_min, out_json):
    """Degree histogram, clustering, power-law exponent, PageRank."""
    records, attrs = _load_records_attrs(records_path, attrs_path)
    graph, _ = polarnet.build_graph(records, attrs)
    stats = polarnet.graph_stats(graph, k_min=k_min)
    Path(out_json).write_text(json.dumps(stats.to_json(), indent=2) + "\n",
                              encoding="utf-8")
    click.echo(json.dumps({"nodes": graph.n_nodes, "edges": graph.n_edges,
                           "clustering": stats.clustering, "alpha": stats.alpha}))


@analyze_group.command("export")
@click.option("--records", "records_path", required=True, type=click.Path(exists=True))
@click.option("--attrs", "attrs_path", required=True, type=click.Path(exists=True))
@click.option("--out-edges", "out_edges", required=True, type=click.Path())
@click.option("--out-gexf", "out_gexf", type=click.Path())
def analyze_export(records_path, attrs_path, out_edges, out_gexf):
    """Write the weighted edge list (CSV) and a GEXF file for layout tools."""
    records, attrs = _load_records_attrs(records_path, attrs_path)
    graph, _ = polarnet.build_graph(records, attrs)
    Path(out_edges).write_text(polarnet.edges_csv(graph), encoding="utf-8")
    if out_gexf:
        Path(out_gexf).write_text(polarnet.to_gexf(graph), encoding="utf-8")
    click.echo(json.dumps({"nodes": graph.n_nodes, "edges": graph.n_edges}))


# ---------------------------------------------------------------------------
# fixture materialization

@main.command("fixture")
@click.option("--out-dir", "out_dir", required=True, type=click.Path())
@click.option("--docs", "n_docs", default=50, show_default=True)
@click.option("--seed", default=7, show_default=True)
def fixture_cmd(out_dir, n_docs, seed):
    """Materialize the deterministic fixture corpus for offline runs."""
    corpus = fixtures.build_fixture_corpus(n_docs=n_docs, seed=seed)
    out = Path(out_dir)
    (out / "docs").mkdir(parents=True, exist_ok=True)
    ingest.write_jsonl(out / "docs" / "corpus.jsonl",
                       ({"doc_id": doc.doc_id, "title": doc.title, "text": doc.text,
                         "source": doc.source} for doc in corpus.documents))
    ingest.dump_triples(corpus.triples, out / "triples.jsonl")
    ds.dump_labeled_triples(corpus.labeled_triples, out / "trajectories.jsonl")
    ds.dump_examples(corpus.examples, out / "labeled.jsonl")
    attrs_obj = {v["name"]: {k: x for k, x in v.items() if k != "name"}
                 for v in corpus.node_attrs.values()}
    (out / "attrs.json").write_text(json.dumps(attrs_obj, indent=2, sort_keys=True),
                                    encoding="utf-8")
    (out / "gazetteer.json").write_text(
        json.dumps(corpus.gazetteer, indent=2, sort_keys=True), encoding="utf-8")
    (out / "llm_responses.json").write_text(
        json.dumps(corpus.llm_responses, indent=2), encoding="utf-8")
    click.echo(json.dumps({"documents": len(corpus.documents),
                           "triples": len(corpus.triples),
                           "examples": len(corpus.examples)}))


if __name__ == "__main__":
    sys.exit(main())
