import random
from dataclasses import replace

import pytest

from falcon.backbone import DeterministicStubBackbone
from falcon.dataset import split_dataset
from falcon.encoder import candidate_views, input_keys
from falcon.evalbench import (
    AblationTable,
    ablation_configs,
    compute_metrics,
    evaluate_transfer,
    run_ablations,
)
from falcon.fusion import FrozenTrajectoryExtractor
from falcon.ingest import MentionTable
from falcon.training import InteractionModel, TrainConfig, predict, pretrain_trajectory_extractor, train


def test_metrics_from_confusion_counts():
    preds = [1] * 3 + [1] + [0] + [0] * 5
    gold = [1] * 3 + [0] + [1] + [0] * 5
    report = compute_metrics(preds, gold)
    assert (report.tp, report.fp, report.fn, report.tn) == (3, 1, 1, 5)
    assert report.precision == pytest.approx(75.0)
    assert report.recall == pytest.approx(75.0)
    assert report.f1 == pytest.approx(75.0)
    assert report.accuracy == pytest.approx(80.0)
    assert report.formatted() == {"Acc": "80.00", "P": "75.00", "R": "75.00",
                                  "F1": "75.00"}


def test_all_correct_gives_100s():
    report = compute_metrics([1, 0, 1, 0], [1, 0, 1, 0])
    assert report.accuracy == report.precision == report.recall == 100.0
    assert report.f1 == pytest.approx(100.0)


def test_length_mismatch_is_error():
    with pytest.raises(ValueError, match="mismatch"):
        compute_metrics([1, 0], [1])


def test_undefined_precision_flagged_as_zero():
    report = compute_metrics([0, 0, 0], [1, 0, 1])
    assert report.precision == 0.0
    assert report.precision_undefined


def test_metrics_order_invariant():
    rng = random.Random(0)
    preds = [rng.randint(0, 1) for _ in range(50)]
    gold = [rng.randint(0, 1) for _ in range(50)]
    base = compute_metrics(preds, gold)
    order = list(range(50))
    rng.shuffle(order)
    shuffled = compute_metrics([preds[i] for i in order], [gold[i] for i in order])
    assert (base.tp, base.fp, base.fn, base.tn) == (
        shuffled.tp, shuffled.fp, shuffled.fn, shuffled.tn)


def test_ablation_grid_has_six_distinct_configs():
    base = TrainConfig(hidden_size=4)
    rows = ablation_configs(base)
    assert len(rows) == 6
    assert [name for name, _ in rows] == ["full", "wo_ft", "wo_mt", "wo_ft_mt",
                                          "wo_aw", "concat"]
    hashes = {cfg.config_hash() for _, cfg in rows}
    assert len(hashes) == 6
    # base config untouched
    assert base == TrainConfig(hidden_size=4)


def test_run_ablations_produces_six_reports(corpus):
    examples = split_dataset(corpus.examples[:40], seed=0)
    config = TrainConfig(hidden_size=4, max_epochs=1, learning_rate=5e-3, seed=2)
    extractor, _ = pretrain_trajectory_extractor(corpus.labeled_triples[:30],
                                                 config)
    table = run_ablations(examples, config, frozen_extractor=extractor,
                          dataset_id="fixture")
    assert len(table.rows) == 6
    assert len({row.config_hash for row in table.rows}) == 6
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0] == "config,config_hash,seed,Acc,P,R,F1"
    assert len(csv_text.splitlines()) == 7
    assert isinstance(table, AblationTable)


def test_ablations_encode_each_distinct_input_once(corpus, monkeypatch):
    examples = split_dataset(corpus.examples[:40], seed=0)
    config = TrainConfig(hidden_size=4, max_epochs=1, learning_rate=5e-3, seed=2)
    extractor, _ = pretrain_trajectory_extractor(corpus.labeled_triples[:30], config)
    calls = []  # per backbone call: its inputs
    encode_at = DeterministicStubBackbone.encode_at
    monkeypatch.setattr(DeterministicStubBackbone, "encode_at",
                        lambda self, inputs, item, pos:
                        calls.append(len(inputs)) or encode_at(self, inputs, item, pos))
    run_ablations(examples, config, frozen_extractor=extractor)
    # The full config reads the interaction view of every split and, through
    # the extractor (same backbone settings), every trajectory view.
    inter, tra = candidate_views(_table(examples))
    assert sum(calls) == len({*input_keys(inter), *input_keys(tra)})
    assert max(calls) > 1  # batched


def _table(examples):
    return MentionTable.from_candidates(ex.candidate for ex in examples)


@pytest.fixture(scope="module")
def trained(request):
    corpus = request.getfixturevalue("corpus")
    examples = split_dataset(corpus.examples, seed=0)
    config = TrainConfig(hidden_size=4, max_epochs=4, learning_rate=5e-3,
                         seed=5, fusion_mode="off")
    model = InteractionModel(config)
    train(model, examples)
    return model, examples


def test_transfer_on_identity_corpus_matches_compute_metrics(trained):
    model, examples = trained
    test_set = [ex for ex in examples if ex.split == "test"]
    report = evaluate_transfer(model, test_set)
    labels = predict(model, _table(test_set))[1]
    direct = compute_metrics(labels.tolist(), [ex.y_inter for ex in test_set])
    assert report.to_json()["confusion"] == direct.to_json()["confusion"]


def test_transfer_matches_hand_scored_confusion(trained):
    model, examples = trained
    subset = [ex for ex in examples if ex.split == "val"][:20]
    report = evaluate_transfer(model, subset)
    # oracle: recount the confusion cell by cell
    labels = predict(model, _table(subset))[1].tolist()
    tp = sum(1 for label, ex in zip(labels, subset) if label == 1 and ex.y_inter == 1)
    fp = sum(1 for label, ex in zip(labels, subset) if label == 1 and ex.y_inter == 0)
    fn = sum(1 for label, ex in zip(labels, subset) if label == 0 and ex.y_inter == 1)
    tn = sum(1 for label, ex in zip(labels, subset) if label == 0 and ex.y_inter == 0)
    assert (report.tp, report.fp, report.fn, report.tn) == (tp, fp, fn, tn)


def _narrow_extractor():
    # The ``concat`` row reads frozen features; this extractor has the
    # 20-token window of the configs below, so it overflows on no more.
    extractor = FrozenTrajectoryExtractor(TrainConfig(hidden_size=4, max_tokens=20))
    extractor.freeze()
    return extractor


def test_reports_count_skipped_candidates(corpus):
    # A 20-token window cannot hold the marked spans of some fixture
    # candidates; here only the test split holds them.
    config = TrainConfig(hidden_size=4, max_tokens=20, max_epochs=1, fusion_mode="off")
    model = InteractionModel(config)
    reasons = predict(model, _table(corpus.examples))[2]
    fits = [ex for ex, reason in zip(corpus.examples, reasons) if reason is None]
    overflows = [ex for ex, reason in zip(corpus.examples, reasons) if reason is not None]
    examples = ([replace(ex, split="train") for ex in fits[:20]]
                + [replace(ex, split="val") for ex in fits[20:26]]
                + [replace(ex, split="test") for ex in fits[26:36] + overflows[:4]])
    test_set = examples[26:]

    report = evaluate_transfer(model, test_set)
    assert report.skipped == 4
    assert report.total == len(test_set)  # a skipped candidate counts as predicted negative
    assert report.to_json()["skipped"] == 4

    table = run_ablations(examples, config, frozen_extractor=_narrow_extractor())
    assert [row.report.skipped for row in table.rows] == [4] * 6
    assert all(row.report.total == len(test_set) for row in table.rows)


def test_training_leaves_out_overflowing_examples(corpus):
    # Some candidates of every split overflow a 20-token window. Training
    # leaves the train and val ones out and counts them; test ones are
    # scored as skipped.
    config = TrainConfig(hidden_size=4, max_tokens=20, max_epochs=1, fusion_mode="off")
    examples = split_dataset(corpus.examples, seed=0)
    reasons = predict(InteractionModel(config), _table(examples))[2]
    overflows = {split: sum(reason is not None for ex, reason in zip(examples, reasons)
                            if ex.split == split)
                 for split in ("train", "val", "test")}
    assert min(overflows.values()) > 0

    result = train(InteractionModel(config), examples)
    assert result.skipped == overflows["train"] + overflows["val"]
    table = run_ablations(examples, config, frozen_extractor=_narrow_extractor())
    assert [row.report.skipped for row in table.rows] == [overflows["test"]] * 6
