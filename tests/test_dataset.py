import json
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner

from falcon.cli import main
from falcon.dataset import (
    LabeledTable,
    dump_examples,
    load_examples,
    load_labeled_triples,
    select,
    split_dataset,
    summarize,
)
from falcon.encoder import candidate_views
from falcon.ingest import INTERACTION_ROLES, MentionTable
from fixture_builders import objects


def fig1a_row(corpus) -> int:
    return corpus.examples.mentions.doc_ids().index("fix0000")


def fig1a_candidate(corpus):
    return objects(corpus.examples.mentions.take([fig1a_row(corpus)]))[0]


def trajectory_halves(table):
    """Each candidate's two trajectory views as (person, time, location)
    (surface, role, occurrences) triples, read back from the columns."""
    _, tra = candidate_views(table)
    counts, index = tra.occurrences()
    spans = list(zip(tra.starts[index].tolist(), tra.ends[index].tolist()))
    out, j = [], 0
    for v, mentions in enumerate(tra.mention.tolist()):
        view = []
        for role, m, count in zip(tra.roles, mentions, counts[v].tolist()):
            view.append((table.surfaces[table.surface[m]], role, tuple(spans[j:j + count])))
            j += count
        out.append(tuple(view))
    n = len(table)
    return [(out[i], out[n + i]) for i in range(n)]


def test_decompose_fig1a(corpus):
    cand = fig1a_candidate(corpus)
    (t1, t2), = trajectory_halves(corpus.examples.mentions.take([fig1a_row(corpus)]))
    assert t1[0][0] == "Berg" and t2[0][0] == "Niemans"
    for t in (t1, t2):
        assert [role for _, role, _ in t] == ["Person", "Time", "Location"]
        assert t[1][0] == "1950" and t[2][0] == "The Hague"
        # time/location are the candidate's, shared by both halves
        assert t[1][2] == cand.time.occurrences
        assert t[2][2] == cand.location.occurrences
    assert t1[0][2] == cand.person1.occurrences
    assert t2[0][2] == cand.person2.occurrences


def test_decompose_deterministic_and_idempotent(tmp_path, corpus):
    fig1a = corpus.examples.take([fig1a_row(corpus)])
    first = trajectory_halves(fig1a.mentions)
    assert trajectory_halves(fig1a.mentions) == first
    dump_examples(fig1a, tmp_path / "fig1a.jsonl")
    assert trajectory_halves(load_examples(tmp_path / "fig1a.jsonl").mentions) == first


def test_triple_count_is_twice_quadruple_count(corpus):
    _, tra = candidate_views(corpus.examples.mentions)
    assert len(tra) == 2 * len(corpus.examples)


def _labeled_line(corpus, **labels) -> dict:
    """The first fixture example's line, with ``labels`` over its own."""
    obj = {**_lines(corpus.examples.take([0]))[0], **labels}
    return {key: value for key, value in obj.items() if value is not None}


def _lines(table) -> list[dict]:
    """The lines :func:`dump_examples` writes for ``table``, decoded."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "lines.jsonl"
        dump_examples(table, path)
        return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]


def test_label_entailment_enforced(corpus):
    table = LabeledTable(MentionTable(INTERACTION_ROLES))
    assert "entailment" in table.add_json(_labeled_line(corpus, y_inter=1, y_tra1=1, y_tra2=0))
    assert table.add_json(_labeled_line(corpus, y_inter=2, y_tra1=1, y_tra2=1)) == \
        "y_inter must be 0 or 1, got 2"


def test_loader_rejects_entailment_violation(tmp_path, corpus):
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(_labeled_line(corpus, y_inter=1, y_tra1=0, y_tra2=1)) + "\n")
    with pytest.raises(ValueError, match="bad.jsonl:1"):
        load_examples(path)


def test_labeled_jsonl_roundtrip(tmp_path, corpus):
    path = tmp_path / "labeled.jsonl"
    dump_examples(corpus.examples, path)
    loaded = load_examples(path)
    assert loaded.labels == corpus.examples.labels
    assert loaded.split == corpus.examples.split
    assert objects(loaded.mentions) == objects(corpus.examples.mentions)
    dump_examples(loaded, tmp_path / "again.jsonl")
    assert (tmp_path / "again.jsonl").read_bytes() == path.read_bytes()


# ---------------------------------------------------------------------------
# labels: each must equal 0 or 1; none is truncated

def _trajectory_line(corpus, y_tra) -> dict:
    return {**_lines(corpus.labeled_triples.take([0]))[0], "y_tra": y_tra}


@pytest.mark.parametrize("y", [0.9, 1.5, 0.5, -1, "1", None, [1]])
def test_a_label_that_is_not_0_or_1_is_refused_not_truncated(tmp_path, corpus, y):
    for name, load, line in (
            ("y_tra1", load_examples, _labeled_line(corpus, y_inter=0, y_tra1=y)),
            ("y_tra", load_labeled_triples, _trajectory_line(corpus, y))):
        line[name] = y
        path = tmp_path / f"{name}.jsonl"
        path.write_text(json.dumps(line) + "\n")
        with pytest.raises(ValueError) as info:
            load(path)
        assert str(info.value) == f"{path}:1: {name} must be 0 or 1, got {y!r}"


def test_a_label_equal_to_1_loads_and_is_written_as_1(tmp_path, corpus):
    examples = tmp_path / "labeled.jsonl"
    examples.write_text(json.dumps(_labeled_line(corpus, y_inter=1.0, y_tra1=True, y_tra2=1))
                        + "\n" + json.dumps(_labeled_line(corpus, y_inter=False, y_tra1=0.0,
                                                          y_tra2=1)) + "\n")
    trajectories = tmp_path / "trajectories.jsonl"
    trajectories.write_text(json.dumps(_trajectory_line(corpus, True)) + "\n"
                            + json.dumps(_trajectory_line(corpus, 0.0)) + "\n")
    for path, load, want in ((examples, load_examples, [(1, 1, 1), (0, 0, 1)]),
                             (trajectories, load_labeled_triples, [(1,), (0,)])):
        table = load(path)
        assert list(zip(*table.labels.values())) == want
        written = [[line[name] for name in table.labels] for line in _lines(table)]
        assert json.dumps(written) == json.dumps([list(w) for w in want])


# ---------------------------------------------------------------------------
# splits

def _allocation_oracle(n, ratios):
    """Floor allocation, remainders to the largest fractional parts."""
    exact = [r * n for r in ratios]
    sizes = [int(x) for x in exact]
    order = sorted(range(3), key=lambda i: (-(exact[i] - sizes[i]), i))
    for i in order[: n - sum(sizes)]:
        sizes[i] += 1
    return tuple(sizes)


def test_split_sizes_4507_match_allocation_oracle(corpus):
    examples = corpus.examples.take(i % len(corpus.examples) for i in range(4507))
    split = split_dataset(examples, seed=1)
    sizes = summarize(split).split_sizes
    expected = _allocation_oracle(4507, (0.7, 0.1, 0.2))
    assert (sizes["train"], sizes["val"], sizes["test"]) == expected
    # within one example of the exact proportions
    for got, want in zip(expected, (3154.9, 450.7, 901.4)):
        assert abs(got - want) <= 1.0
    assert sum(expected) == 4507


def test_split_deterministic_under_seed(corpus):
    a = split_dataset(corpus.examples, seed=9)
    b = split_dataset(corpus.examples, seed=9)
    assert a.split == b.split
    c = split_dataset(corpus.examples, seed=10)
    assert a.split != c.split


def test_split_all_train(corpus):
    split = split_dataset(corpus.examples, ratios=(1.0, 0.0, 0.0), seed=0)
    assert all(ex.split == "train" for ex in split)


def test_split_is_partition(corpus):
    split = split_dataset(corpus.examples, seed=3)
    assert len(split) == len(corpus.examples)
    assert all(ex.split in ("train", "val", "test") for ex in split)
    # the same rows, each exactly once, and the input left unsplit
    assert split.mentions is corpus.examples.mentions
    assert split.labels == corpus.examples.labels
    assert set(corpus.examples.split) == {None}


def test_split_bad_ratios_rejected(corpus):
    with pytest.raises(ValueError, match="sum to 1"):
        split_dataset(corpus.examples, ratios=(0.5, 0.2, 0.2), seed=0)


@pytest.mark.parametrize("ratios", [(1.2, -0.1, -0.1), (float("nan"), 0.0, 0.0),
                                    (float("inf"), -float("inf"), 1.0)])
def test_split_refuses_a_negative_or_non_finite_ratio(corpus, ratios):
    with pytest.raises(ValueError) as info:
        split_dataset(corpus.examples, ratios=ratios, seed=0)
    assert str(info.value) == f"split ratios must be finite and non-negative, got {ratios}"


@pytest.mark.parametrize("ratios", ["1.2,-0.1,-0.1", "nan,0,0"])
def test_dataset_split_refuses_a_negative_or_non_finite_ratio(tmp_path, corpus, ratios):
    dump_examples(corpus.examples, tmp_path / "labeled.jsonl")
    res = CliRunner().invoke(main, ["dataset", "split", "--in", str(tmp_path / "labeled.jsonl"),
                                    "--out", str(tmp_path / "split.jsonl"), "--ratios", ratios])
    assert res.exit_code == 2, res.output
    parts = tuple(float(x) for x in ratios.split(","))
    assert res.output.splitlines()[-1] == (
        f"Error: Invalid value for '--ratios': split ratios must be finite and non-negative, "
        f"got {parts}")
    assert not (tmp_path / "split.jsonl").exists()


@pytest.mark.parametrize("ratios, reason", [
    ("0.7,0.3", "needs three comma-separated numbers, got '0.7,0.3'"),
    ("0.7,x,0.3", "needs three comma-separated numbers, got '0.7,x,0.3'"),
    ("0.7,0.2,0.2", "split ratios must sum to 1, got (0.7, 0.2, 0.2)"),
    ("inf,0,0", "split ratios must be finite and non-negative, got (inf, 0.0, 0.0)"),
])
def test_dataset_split_checks_ratios_before_reading_the_labeled_file(tmp_path, ratios, reason):
    # The labeled file's first line is bad too: --ratios is reported, not the line.
    labeled = tmp_path / "labeled.jsonl"
    labeled.write_text("not json\n", encoding="utf-8")
    res = CliRunner().invoke(main, ["dataset", "split", "--in", str(labeled),
                                    "--out", str(tmp_path / "split.jsonl"), "--ratios", ratios])
    assert res.exit_code == 2, res.output
    assert res.output.splitlines()[-1] == f"Error: Invalid value for '--ratios': {reason}"
    assert not (tmp_path / "split.jsonl").exists()


def test_split_group_by_doc_keeps_documents_together(corpus):
    split = split_dataset(corpus.examples, seed=2, group_by_doc=True)
    by_doc = {}
    for doc_id, s in zip(split.mentions.doc_ids(), split.split):
        by_doc.setdefault(doc_id, set()).add(s)
    assert all(len(s) == 1 for s in by_doc.values())


def test_select_takes_rows_of_one_table_in_order(corpus):
    split = split_dataset(corpus.examples, seed=3)
    rows = [ex for ex in split if ex.split == "test"][::-1]
    picked = select(rows)
    assert picked.split == ["test"] * len(rows)
    assert objects(picked.mentions) == objects(split.mentions.take(ex.index for ex in rows))
    assert len(select([])) == 0
    with pytest.raises(ValueError, match="more than one"):
        select([rows[0], next(iter(corpus.examples))])


# ---------------------------------------------------------------------------
# summaries

def test_summarize_empty():
    summary = summarize(LabeledTable(MentionTable(INTERACTION_ROLES)))
    assert summary.interaction_pos == summary.interaction_neg == 0
    assert summary.trajectory_pos == summary.trajectory_neg == 0
    assert summary.total == 0


def test_summarize_matches_independent_recount(corpus):
    summary = summarize(corpus.examples)
    # independent recount, one pass per counter
    labels = corpus.examples.labels
    pos = sum(1 for y in labels["y_inter"] if y == 1)
    neg = sum(1 for y in labels["y_inter"] if y == 0)
    tra_pos = sum((a == 1) + (b == 1) for a, b in zip(labels["y_tra1"], labels["y_tra2"]))
    tra_neg = sum((a == 0) + (b == 0) for a, b in zip(labels["y_tra1"], labels["y_tra2"]))
    assert (summary.interaction_pos, summary.interaction_neg) == (pos, neg)
    assert (summary.trajectory_pos, summary.trajectory_neg) == (tra_pos, tra_neg)
    assert summary.trajectory_pos + summary.trajectory_neg == 2 * summary.total
