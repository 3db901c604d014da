import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from falcon import fixtures
from falcon.backbone import DeterministicStubBackbone
from falcon.dataset import decompose_candidate, split_dataset
from falcon.encoder import input_key
from falcon.evalbench import compute_metrics
from falcon.training import (
    AdamW,
    FeatureStore,
    InteractionModel,
    TrainConfig,
    TrainingDiverged,
    _batch_pass,
    interaction_loss,
    load_archive,
    load_config,
    multitask_loss,
    multitask_loss_grad_c,
    predict,
    pretrain_trajectory_extractor,
    train,
    trajectory_loss,
)


@pytest.fixture(scope="module")
def extractor(request):
    corpus = request.getfixturevalue("corpus")
    config = TrainConfig(hidden_size=4, max_epochs=3, learning_rate=5e-3, seed=5)
    ext, _ = pretrain_trajectory_extractor(corpus.labeled_triples, config)
    return ext


# ---------------------------------------------------------------------------
# losses

def test_perfect_predictions_give_near_zero_loss():
    labels = np.array([1, 0, 1])
    probs = np.array([1.0, 0.0, 1.0])
    assert interaction_loss(probs, labels) == pytest.approx(0.0, abs=1e-6)


def test_uninformative_predictions_give_ln2():
    probs = np.full(8, 0.5)
    labels = np.array([0, 1] * 4)
    assert interaction_loss(probs, labels) == pytest.approx(math.log(2), abs=1e-12)


def test_interaction_loss_matches_hand_sum():
    probs = np.array([0.9, 0.2, 0.6])
    labels = np.array([1, 0, 0])
    expected = -(math.log(0.9) + math.log(0.8) + math.log(0.4)) / 3.0
    assert interaction_loss(probs, labels) == pytest.approx(expected, abs=1e-12)


def test_loss_rejects_nonbinary_labels():
    with pytest.raises(ValueError, match="labels"):
        interaction_loss(np.array([0.5]), np.array([2]))


def test_trajectory_loss_averages_branches():
    p = np.array([0.9, 0.1])
    y = np.array([1, 0])
    a = interaction_loss(p, y)
    p2 = np.array([0.7, 0.4])
    y2 = np.array([1, 1])
    b = interaction_loss(p2, y2)
    assert trajectory_loss(p, y, p2, y2) == pytest.approx((a + b) / 2, abs=1e-12)
    assert trajectory_loss(np.ones(2), np.ones(2, dtype=int),
                           np.ones(2), np.ones(2, dtype=int)) == pytest.approx(
        0.0, abs=1e-6)


def test_multitask_loss_closed_form_at_unit_weights():
    l_i, l_t = 0.8, 0.3
    got = multitask_loss(l_i, l_t, 1.0, 1.0)
    assert got == pytest.approx(0.5 * l_i + 0.5 * l_t + 2 * math.log(2), abs=1e-12)


def test_multitask_regularizer_grows_with_c():
    vals = [multitask_loss(0.0, 0.0, 1.0, c2) for c2 in (1.0, 2.0, 5.0, 50.0)]
    assert vals == sorted(vals)
    assert vals[-1] > vals[0] + 5


def test_multitask_gradient_zero_at_unit_c_and_unit_loss():
    g1, g2 = multitask_loss_grad_c(1.0, 1.0, 1.0, 1.0)
    assert g1 == pytest.approx(0.0, abs=1e-12)
    assert g2 == pytest.approx(0.0, abs=1e-12)


def test_multitask_gradient_matches_finite_differences():
    rng = np.random.default_rng(6)
    h = 1e-6
    for _ in range(20):
        l_i, l_t = rng.uniform(0.01, 3.0, size=2)
        c1, c2 = rng.uniform(0.2, 3.0, size=2)
        g1, g2 = multitask_loss_grad_c(l_i, l_t, c1, c2)
        n1 = (multitask_loss(l_i, l_t, c1 + h, c2)
              - multitask_loss(l_i, l_t, c1 - h, c2)) / (2 * h)
        n2 = (multitask_loss(l_i, l_t, c1, c2 + h)
              - multitask_loss(l_i, l_t, c1, c2 - h)) / (2 * h)
        assert abs(g1 - n1) / max(abs(g1), abs(n1), 1e-6) <= 1e-4
        assert abs(g2 - n2) / max(abs(g2), abs(n2), 1e-6) <= 1e-4


# ---------------------------------------------------------------------------
# model assembly / ablation wiring

def test_fusion_off_head_consumes_5d():
    config = TrainConfig(hidden_size=4, ft=False)
    model = InteractionModel(config)
    assert model.params["head.inter.W"].shape == (2, 20)
    assert "fusion.W_gate" not in model.params


def test_full_model_head_consumes_7d(extractor):
    config = TrainConfig(hidden_size=4)
    model = InteractionModel(config, frozen=extractor)
    assert model.params["head.inter.W"].shape == (2, 28)
    assert model.params["fusion.W_Q"].shape == (4, 20)


def test_wo_ft_mt_is_encoder_plus_linear_head():
    config = TrainConfig(hidden_size=4, ft=False, mt=False)
    model = InteractionModel(config)
    assert set(model.params) == {"head.inter.W"}
    assert model.params["head.inter.W"].shape == (2, 20)


def test_mt_off_objective_is_interaction_loss_alone(corpus):
    config = TrainConfig(hidden_size=4, ft=False, mt=False, seed=3)
    model = InteractionModel(config)
    total, l_inter, l_tra = _batch_pass(model, corpus.examples[:4], None)
    assert total == l_inter
    assert l_tra is None


def test_aw_off_objective_is_plain_sum(corpus, extractor):
    config = TrainConfig(hidden_size=4, aw=False, seed=3)
    model = InteractionModel(config, frozen=extractor)
    assert "c" not in model.params
    total, l_inter, l_tra = _batch_pass(model, corpus.examples[:4], None)
    assert total == pytest.approx(l_inter + l_tra, abs=1e-12)


def test_adaptive_objective_uses_formula(corpus, extractor):
    config = TrainConfig(hidden_size=4, seed=3)
    model = InteractionModel(config, frozen=extractor)
    total, l_inter, l_tra = _batch_pass(model, corpus.examples[:4], None)
    assert total == pytest.approx(multitask_loss(l_inter, l_tra, 1.0, 1.0),
                                  abs=1e-12)


def test_frozen_d_mismatch_refused(extractor):
    config = TrainConfig(hidden_size=8)
    with pytest.raises(ValueError, match="does not match"):
        InteractionModel(config, frozen=extractor)


def test_feature_transfer_requires_frozen():
    with pytest.raises(ValueError, match="frozen"):
        InteractionModel(TrainConfig(hidden_size=4))


def test_softmax_head_outputs_sum_to_one(corpus, extractor):
    config = TrainConfig(hidden_size=4, seed=1)
    model = InteractionModel(config, frozen=extractor)
    for ex in corpus.examples[:20]:
        p, p1, p2, _ = model.forward_candidate(ex.candidate, with_tra=True)
        for probs in (p, p1, p2):
            assert probs.sum() == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# training loop

def test_training_loss_decreases_most_epochs(corpus, extractor):
    examples = split_dataset(corpus.examples, seed=0)
    config = TrainConfig(hidden_size=4, max_epochs=10, learning_rate=5e-3,
                         seed=5, patience=10)
    model = InteractionModel(config, frozen=extractor)
    result = train(model, examples, config)
    losses = [h["loss"] for h in result.history]
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
    assert drops >= 0.8 * (len(losses) - 1)


def test_training_deterministic_under_seed(corpus, extractor):
    examples = split_dataset(corpus.examples, seed=0)
    config = TrainConfig(hidden_size=4, max_epochs=3, learning_rate=5e-3, seed=9)
    histories = []
    for _ in range(2):
        model = InteractionModel(config, frozen=extractor)
        histories.append(train(model, examples, config).history)
    assert histories[0] == histories[1]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_training_divergence_aborts(corpus, extractor):
    examples = split_dataset(corpus.examples, seed=0)
    config = TrainConfig(hidden_size=4, max_epochs=2, seed=1)
    model = InteractionModel(config, frozen=extractor)
    model.params["head.inter.W"][:] = np.inf
    with pytest.raises(TrainingDiverged):
        train(model, examples, config)


def test_no_train_split_is_error(corpus, extractor):
    config = TrainConfig(hidden_size=4, seed=1)
    model = InteractionModel(config, frozen=extractor)
    with pytest.raises(ValueError, match="train"):
        train(model, corpus.examples, config)


def test_training_encodes_each_distinct_input_once(corpus, monkeypatch):
    calls = []
    encode = DeterministicStubBackbone.encode

    def counting_encode(self, tokens):
        calls.append(len(tokens))
        return encode(self, tokens)

    monkeypatch.setattr(DeterministicStubBackbone, "encode", counting_encode)
    config = TrainConfig(hidden_size=4, max_epochs=3, seed=5)
    triples = corpus.labeled_triples
    extractor, _ = pretrain_trajectory_extractor(triples, config)
    assert len(calls) == len({input_key(t.triple.segment, (
        t.triple.person, t.triple.time, t.triple.location)) for t in triples})

    examples = split_dataset(corpus.examples, seed=0)
    for ft in (False, True):
        # The trajectory task reads the train examples' trajectory views; the
        # frozen features (ft) read the val examples' ones too. The extractor
        # has the model's backbone settings, so both encoders share one store.
        keys = set()
        for ex in examples:
            if ex.split in ("train", "val"):
                keys.add(input_key(ex.candidate.segment, ex.candidate.entities()))
            if ex.split == "train" or (ft and ex.split == "val"):
                keys.update(input_key(t.segment, (t.person, t.time, t.location))
                            for t in decompose_candidate(ex.candidate))
        calls.clear()
        run = replace(config, ft=ft).resolved()
        result = train(InteractionModel(run, frozen=extractor if ft else None),
                       examples, run)
        assert len(result.history) == 3
        assert len(calls) == len(keys), f"ft={ft}"


def test_training_leaves_out_examples_the_frozen_window_cannot_hold():
    corpus = fixtures.build_fixture_corpus(n_docs=30, seed=7)
    examples = split_dataset(corpus.examples, seed=0)
    narrow = TrainConfig(hidden_size=4, max_tokens=20, max_epochs=1, seed=5)
    extractor, _ = pretrain_trajectory_extractor(corpus.labeled_triples, narrow)
    config = TrainConfig(hidden_size=4, max_epochs=2, seed=5)
    model = InteractionModel(config, frozen=extractor)
    result = train(model, examples, config)
    preds = predict(model, [ex.candidate for ex in examples if ex.split != "test"])
    assert result.skipped == sum(p.skipped for p in preds) > 0
    assert all("window holds 19" in p.reason for p in preds if p.skipped)


def test_adamw_clamps_adaptive_scalars():
    params = {"c": np.array([1e-9, -1e-9])}
    opt = AdamW(params, lr=0.0)
    opt.step(params, {"c": np.zeros(2)})
    assert abs(params["c"][0]) >= 1e-3
    assert abs(params["c"][1]) >= 1e-3


# ---------------------------------------------------------------------------
# prediction and checkpoints

@pytest.fixture(scope="module")
def trained_model(request, extractor):
    corpus = request.getfixturevalue("corpus")
    examples = split_dataset(corpus.examples, seed=0)
    config = TrainConfig(hidden_size=4, max_epochs=4, learning_rate=5e-3,
                         seed=5, patience=10)
    model = InteractionModel(config, frozen=extractor)
    train(model, examples, config)
    return model


def test_threshold_zero_marks_everything_positive(corpus, trained_model):
    preds = predict(trained_model, [ex.candidate for ex in corpus.examples[:10]],
                    threshold=0.0)
    assert all(p.label == 1 for p in preds if not p.skipped)


def test_context_overflow_yields_skip_not_drop(corpus, extractor):
    config = TrainConfig(hidden_size=4, max_tokens=8, seed=1)
    model = InteractionModel(config, frozen=extractor)
    preds = predict(model, [ex.candidate for ex in corpus.examples[:5]])
    assert len(preds) == 5
    assert all(p.skipped for p in preds)
    assert all("context overflow" in p.reason for p in preds)


def test_validation_is_prediction_on_the_training_store(corpus, extractor):
    examples = split_dataset(corpus.examples, seed=0)
    config = TrainConfig(hidden_size=4, max_epochs=1, learning_rate=5e-3, seed=5)
    model = InteractionModel(config, frozen=extractor)
    result = train(model, examples, config)
    assert result.best_epoch == 0  # the model holds the last epoch's parameters

    val_set = [ex for ex in examples if ex.split == "val"]
    shared = FeatureStore.for_model(model)
    assert shared.shared  # the extractor has the model's backbone settings
    runs = []
    for store in (shared, FeatureStore(model.encoder, extractor, shared=False), None):
        if store is not None:  # filled as training fills its store
            for ex in examples:
                if ex.split != "test":
                    store.fill_candidate(ex.candidate, ex.split == "train")
        runs.append(predict(model, [ex.candidate for ex in val_set], store=store))
    assert len({tuple((p.score, p.label) for p in preds) for preds in runs}) == 1
    report = compute_metrics([p.label for p in runs[0]], [ex.y_inter for ex in val_set])
    assert result.history[-1]["val_f1"] == report.f1 / 100
    assert result.history[-1]["val_acc"] == report.accuracy / 100


def test_checkpoint_roundtrip_predict_bit_identical(tmp_path, corpus, trained_model):
    path = tmp_path / "model.ckpt"
    trained_model.save(path)
    loaded = InteractionModel.load(path)
    cands = [ex.candidate for ex in corpus.examples[:12]]
    a = predict(trained_model, cands)
    b = predict(loaded, cands)
    assert [p.score for p in a] == [p.score for p in b]
    assert [p.label for p in a] == [p.label for p in b]


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        "learning_rate = 0.005\nbatch_size = 8\nmax_epochs = 3\n"
        "ft = true\nmt = false\nhidden_size = 4\n# comment line\n"
        "fusion_mode = concat\nmlp_hidden = none\n")
    config = load_config(path, seed=42)
    assert config.learning_rate == pytest.approx(0.005)
    assert config.batch_size == 8
    assert config.mt is False
    assert config.fusion_mode == "concat"
    assert config.mlp_hidden is None
    assert config.seed == 42


def test_config_hash_distinguishes_configs():
    a = TrainConfig(hidden_size=4)
    b = TrainConfig(hidden_size=4, mt=False)
    assert a.config_hash() != b.config_hash()
    assert a.config_hash() == TrainConfig(hidden_size=4).config_hash()


# ---------------------------------------------------------------------------
# bit-identity contract

# The training arithmetic's bit-identity contract: sha256 (first 16 hex
# digits) over the sorted (name, bytes) arrays of each checkpoint of a small
# fixture run (30 documents, d=8, 3 epochs). "gated" is the full model
# (gated fusion, multi-task, adaptive weights); "off" drops feature transfer.
GOLDEN_CHECKPOINTS = {"extractor": "8cc785dd57446ae9", "gated": "daaac9a95274ee34",
                      "off": "4dc218ef8da5fa6a"}


def _checkpoint_digest(path):
    arrays, _ = load_archive(path)
    digest = hashlib.sha256()
    for name in sorted(arrays):
        digest.update(name.encode())
        digest.update(arrays[name].tobytes())
    return digest.hexdigest()[:16]


def test_training_checkpoints_match_golden_digests(tmp_path):
    corpus = fixtures.build_fixture_corpus(n_docs=30, seed=7)
    examples = split_dataset(corpus.examples, seed=0)
    config = TrainConfig(hidden_size=8, max_epochs=3, learning_rate=0.05,
                         batch_size=16, patience=3, seed=5)
    extractor, history = pretrain_trajectory_extractor(corpus.labeled_triples, config)
    extractor.save(tmp_path / "extractor.ckpt", history=history)
    got = {"extractor": _checkpoint_digest(tmp_path / "extractor.ckpt")}
    for name, run in (("gated", config), ("off", replace(config, fusion_mode="off"))):
        run = run.resolved()
        model = InteractionModel(run, frozen=extractor if run.ft else None)
        result = train(model, examples, run)
        model.save(tmp_path / f"{name}.ckpt", history=result.history)
        got[name] = _checkpoint_digest(tmp_path / f"{name}.ckpt")
    assert got == GOLDEN_CHECKPOINTS
