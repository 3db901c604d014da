import pytest

from falcon.dataset import (
    LabeledExample,
    dump_examples,
    example_from_json,
    example_to_json,
    load_examples,
    split_dataset,
    summarize,
)
from falcon.encoder import candidate_views
from falcon.ingest import MentionTable


def fig1a_example(corpus):
    return next(ex for ex in corpus.examples
                if ex.candidate.segment.doc_id == "fix0000")


def trajectory_halves(cands):
    """Each candidate's two trajectory views as (person, time, location)
    (surface, role, occurrences) triples, read back from the columns."""
    table = MentionTable.from_candidates(cands)
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
    ex = fig1a_example(corpus)
    (t1, t2), = trajectory_halves([ex.candidate])
    assert t1[0][0] == "Berg" and t2[0][0] == "Niemans"
    for t in (t1, t2):
        assert [role for _, role, _ in t] == ["Person", "Time", "Location"]
        assert t[1][0] == "1950" and t[2][0] == "The Hague"
        # time/location are the candidate's, shared by both halves
        assert t[1][2] == ex.candidate.time.occurrences
        assert t[2][2] == ex.candidate.location.occurrences
    assert t1[0][2] == ex.candidate.person1.occurrences
    assert t2[0][2] == ex.candidate.person2.occurrences


def test_decompose_deterministic_and_idempotent(corpus):
    ex = fig1a_example(corpus)
    first = trajectory_halves([ex.candidate])
    assert trajectory_halves([ex.candidate]) == first
    rec = example_from_json(example_to_json(ex))
    assert trajectory_halves([rec.candidate]) == first


def test_triple_count_is_twice_quadruple_count(corpus):
    _, tra = candidate_views(MentionTable.from_candidates(ex.candidate for ex in corpus.examples))
    assert len(tra) == 2 * len(corpus.examples)


def test_label_entailment_enforced(corpus):
    cand = corpus.examples[0].candidate
    with pytest.raises(ValueError, match="entailment"):
        LabeledExample(candidate=cand, y_inter=1, y_tra1=1, y_tra2=0)
    with pytest.raises(ValueError):
        LabeledExample(candidate=cand, y_inter=2, y_tra1=1, y_tra2=1)


def test_loader_rejects_entailment_violation(tmp_path, corpus):
    ex = corpus.examples[0]
    rec = example_to_json(ex)
    rec.update(y_inter=1, y_tra1=0, y_tra2=1)
    path = tmp_path / "bad.jsonl"
    path.write_text(__import__("json").dumps(rec) + "\n")
    with pytest.raises(ValueError, match="bad.jsonl:1"):
        load_examples(path)


def test_labeled_jsonl_roundtrip(tmp_path, corpus):
    path = tmp_path / "labeled.jsonl"
    dump_examples(corpus.examples, path)
    loaded = load_examples(path)
    assert loaded == corpus.examples


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
    examples = (corpus.examples * 37)[:4507]
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
    assert [ex.split for ex in a] == [ex.split for ex in b]
    c = split_dataset(corpus.examples, seed=10)
    assert [ex.split for ex in a] != [ex.split for ex in c]


def test_split_all_train(corpus):
    split = split_dataset(corpus.examples, ratios=(1.0, 0.0, 0.0), seed=0)
    assert all(ex.split == "train" for ex in split)


def test_split_is_partition(corpus):
    split = split_dataset(corpus.examples, seed=3)
    assert len(split) == len(corpus.examples)
    assert all(ex.split in ("train", "val", "test") for ex in split)
    # same candidates, each exactly once
    assert sorted(id(ex.candidate) for ex in split) == sorted(
        id(ex.candidate) for ex in corpus.examples)


def test_split_bad_ratios_rejected(corpus):
    with pytest.raises(ValueError, match="sum to 1"):
        split_dataset(corpus.examples, ratios=(0.5, 0.2, 0.2), seed=0)


def test_split_group_by_doc_keeps_documents_together(corpus):
    split = split_dataset(corpus.examples, seed=2, group_by_doc=True)
    by_doc = {}
    for ex in split:
        by_doc.setdefault(ex.candidate.segment.doc_id, set()).add(ex.split)
    assert all(len(s) == 1 for s in by_doc.values())


# ---------------------------------------------------------------------------
# summaries

def test_summarize_empty():
    summary = summarize([])
    assert summary.interaction_pos == summary.interaction_neg == 0
    assert summary.trajectory_pos == summary.trajectory_neg == 0
    assert summary.total == 0


def test_summarize_matches_independent_recount(corpus):
    summary = summarize(corpus.examples)
    # independent recount, one pass per counter
    pos = sum(1 for ex in corpus.examples if ex.y_inter == 1)
    neg = sum(1 for ex in corpus.examples if ex.y_inter == 0)
    tra_pos = sum((ex.y_tra1 == 1) + (ex.y_tra2 == 1) for ex in corpus.examples)
    tra_neg = sum((ex.y_tra1 == 0) + (ex.y_tra2 == 0) for ex in corpus.examples)
    assert (summary.interaction_pos, summary.interaction_neg) == (pos, neg)
    assert (summary.trajectory_pos, summary.trajectory_neg) == (tra_pos, tra_neg)
    assert summary.trajectory_pos + summary.trajectory_neg == 2 * summary.total
