"""Command-line interface: ingest, dataset ops, training, extraction, analysis."""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import click

from . import dataset as ds
from . import extract, ingest

# `training` and `polarnet` load NumPy, so only the commands that compute with
# them import them, and the other commands start without it. `evalbench`,
# `fixtures` and `csv` serve a command or two each, which import them, so no
# other command compiles or loads them at start-up.
if TYPE_CHECKING:
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
    text_of = {d.doc_id: d.text for d in documents}
    result = ingest.load_triples(triples_path)
    table = result.triples
    # per segment envelope: whether its document is known, and whether its
    # text is the document's at its offsets
    known = [doc_id in text_of for doc_id, *_ in table.envelopes]
    placed = [ok and text == text_of[doc_id][start:end]
              for ok, (doc_id, _, start, end, text) in zip(known, table.envelopes)]
    orphans = sum(not known[seg] for seg in table.segment)
    if orphans:
        click.echo(f"warning: {orphans} triples reference unknown documents",
                   err=True)
    rows = [row for row, seg in enumerate(table.segment) if placed[seg]]
    if len(rows) < len(table) - orphans:
        click.echo(f"warning: {len(table) - orphans - len(rows)} triples' segment text "
                   "differs from their document at their offsets", err=True)
    candidates = ingest.generate_candidates(table.take(rows))
    ingest.dump_candidates(candidates.objects(), out_path)
    if errors_path:
        ingest.write_jsonl(errors_path, ({"line": err.line, "message": err.message}
                                         for err in result.errors))
    click.echo(json.dumps({
        "documents": len(documents), "triples": len(rows),
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
    from . import training as tr

    return tr.load_config(config_path) if config_path else tr.TrainConfig()


@main.command("pretrain-tra")
@click.option("--config", "config_path", type=click.Path(exists=True))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
def pretrain_tra_cmd(config_path, data_path, out_path):
    """Pretrain the trajectory extractor on labeled triples, freeze, save."""
    from . import training as tr

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
    from . import training as tr

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


def _prediction_json(cand, score: float, label: int, reason: str | None) -> dict:
    """A ``predict`` output line: a skipped candidate has a null score and
    label, and its reason."""
    rec = ingest.candidate_to_json(cand)
    if reason is None:
        rec.update(score=score, label=label, skipped=False)
    else:
        rec.update(score=None, label=None, skipped=True, reason=reason)
    return rec


@main.command("predict")
@click.option("--checkpoint", required=True, type=click.Path(exists=True))
@click.option("--candidates", "cand_path", required=True, type=click.Path(exists=True))
@click.option("--out", "out_path", required=True, type=click.Path())
@click.option("--threshold", type=float,
              help="Label threshold; defaults to the checkpoint's.")
def predict_cmd(checkpoint, cand_path, out_path, threshold):
    """Score candidate quadruples with a trained checkpoint."""
    from . import training as tr

    model = tr.InteractionModel.load(checkpoint)
    candidates = ingest.load_candidates(cand_path)
    scores, labels, reasons = tr.predict(
        model, ingest.MentionTable.from_candidates(candidates), threshold=threshold)
    ingest.write_jsonl(out_path, map(_prediction_json, candidates, scores.tolist(),
                                     labels.tolist(), reasons))
    skipped = sum(reason is not None for reason in reasons)
    click.echo(json.dumps({"candidates": len(candidates), "positives": int(labels.sum()),
                           "skipped": skipped}))


@main.command("eval")
@click.option("--checkpoint", required=True, type=click.Path(exists=True))
@click.option("--data", "data_path", required=True, type=click.Path(exists=True))
@click.option("--split", default="test", show_default=True)
@click.option("--out", "out_path", type=click.Path())
def eval_cmd(checkpoint, data_path, split, out_path):
    """Evaluate a checkpoint on one split of a labeled dataset."""
    from . import evalbench
    from . import training as tr

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
    from . import evalbench
    from . import training as tr

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
    from . import training as tr

    # the cheapest input first: a bad gazetteer fails before any other work
    gazetteer = extract.load_gazetteer(gazetteer_path) if gazetteer_path else None
    model = tr.InteractionModel.load(checkpoint)
    result = ingest.load_triples(triples_path)
    if result.errors:
        click.echo(f"warning: {len(result.errors)} malformed triple lines skipped",
                   err=True)
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


def _load_table_attrs(records_path, attrs_path):
    """The typed records as one column table, and the person attributes."""
    from . import polarnet

    return polarnet.load_record_table(records_path), polarnet.load_node_attrs(attrs_path)


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
    from . import polarnet

    table, attrs = _load_table_attrs(records_path, attrs_path)
    if state_filter:
        table = table.take(table.in_state(state_filter))
    rows = polarnet.polarization_series(
        table, attrs, n_samples=null_samples, master_seed=seed,
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
    from . import polarnet

    table, attrs = _load_table_attrs(records_path, attrs_path)
    series = polarnet.trend_ratios(table, attrs, bin_size=bin_size)
    Path(out_csv).write_text(series.to_csv(), encoding="utf-8")
    totals = polarnet.type_party_totals(table, attrs)
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
    import csv

    from . import polarnet

    table, attrs = _load_table_attrs(records_path, attrs_path)
    distances = polarnet.record_distances(table, attrs)
    with open(out_csv, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["record_id", "year", "distance_km"])
        for record_id, year, dist in zip(table.record_id, table.year.tolist(), distances):
            writer.writerow([record_id, "" if year == polarnet.NO_YEAR else year,
                             "" if dist is None else f"{dist:.3f}"])
    click.echo(json.dumps({"records": len(table),
                           "computed": sum(d is not None for d in distances)}))


@analyze_group.command("stats")
@click.option("--records", "records_path", required=True, type=click.Path(exists=True))
@click.option("--attrs", "attrs_path", required=True, type=click.Path(exists=True))
@click.option("--k-min", default=2, show_default=True, type=click.IntRange(min=1))
@click.option("--out-json", "out_json", required=True, type=click.Path())
def analyze_stats(records_path, attrs_path, k_min, out_json):
    """Degree histogram, clustering, power-law exponent, PageRank."""
    from . import polarnet

    table, attrs = _load_table_attrs(records_path, attrs_path)
    graph, _ = polarnet.build_graph(table, attrs)
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
    from . import polarnet

    table, attrs = _load_table_attrs(records_path, attrs_path)
    graph, _ = polarnet.build_graph(table, attrs)
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
    from . import fixtures

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
