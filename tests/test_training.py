import hashlib
import math
from dataclasses import replace

import numpy as np
import pytest

from falcon import fixtures, training
from falcon.backbone import DeterministicStubBackbone
from falcon.dataset import LabeledExample, decompose_candidate, split_dataset
from falcon.encoder import ENCODE_BUDGET, input_key
from falcon.evalbench import ABLATION_GRID, compute_metrics
from falcon.fusion import FrozenTrajectoryExtractor
from falcon.ingest import CandidateQuadruple, EntityMention, TextSegment
from falcon.training import (
    AdamW,
    FeatureStore,
    InteractionModel,
    TrainConfig,
    TrainingDiverged,
    _batch_pass,
    binary_cross_entropy,
    load_archive,
    load_config,
    multitask_loss,
    multitask_loss_grad_c,
    predict,
    pretrain_trajectory_extractor,
    save_archive,
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
    assert binary_cross_entropy(probs, labels) == pytest.approx(0.0, abs=1e-6)


def test_uninformative_predictions_give_ln2():
    probs = np.full(8, 0.5)
    labels = np.array([0, 1] * 4)
    assert binary_cross_entropy(probs, labels) == pytest.approx(math.log(2), abs=1e-12)


def test_interaction_loss_matches_hand_sum():
    probs = np.array([0.9, 0.2, 0.6])
    labels = np.array([1, 0, 0])
    expected = -(math.log(0.9) + math.log(0.8) + math.log(0.4)) / 3.0
    assert binary_cross_entropy(probs, labels) == pytest.approx(expected, abs=1e-12)


def test_loss_rejects_nonbinary_labels():
    with pytest.raises(ValueError, match="labels"):
        binary_cross_entropy(np.array([0.5]), np.array([2]))


def test_trajectory_loss_averages_branches():
    p = np.array([0.9, 0.1])
    y = np.array([1, 0])
    a = binary_cross_entropy(p, y)
    p2 = np.array([0.7, 0.4])
    y2 = np.array([1, 1])
    b = binary_cross_entropy(p2, y2)
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
    config = TrainConfig(hidden_size=4, fusion_mode="off")
    model = InteractionModel(config)
    assert model.params["head.inter.W"].shape == (2, 20)
    assert "fusion.W_gate" not in model.params


def test_full_model_head_consumes_7d(extractor):
    config = TrainConfig(hidden_size=4)
    model = InteractionModel(config, frozen=extractor)
    assert model.params["head.inter.W"].shape == (2, 28)
    assert model.params["fusion.W_Q"].shape == (4, 20)


def test_wo_ft_mt_is_encoder_plus_linear_head():
    config = TrainConfig(hidden_size=4, fusion_mode="off", mt=False)
    model = InteractionModel(config)
    assert set(model.params) == {"head.inter.W"}
    assert model.params["head.inter.W"].shape == (2, 20)


def _filled(model, batch):
    """A store filled with ``batch`` as training fills one, and the batch's rows."""
    store = FeatureStore.for_model(model)
    rows, reasons = store.fill_candidates([ex.candidate for ex in batch], model.config.mt,
                                          model.uses_features)
    assert not any(reasons)
    return store, rows


def test_mt_off_objective_is_interaction_loss_alone(corpus):
    config = TrainConfig(hidden_size=4, fusion_mode="off", mt=False, seed=3)
    model = InteractionModel(config)
    total, l_inter, l_tra = _batch_pass(model, corpus.examples[:4], None,
                                        *_filled(model, corpus.examples[:4]))
    assert total == l_inter
    assert l_tra is None


def test_aw_off_objective_is_plain_sum(corpus, extractor):
    config = TrainConfig(hidden_size=4, aw=False, seed=3)
    model = InteractionModel(config, frozen=extractor)
    assert "c" not in model.params
    total, l_inter, l_tra = _batch_pass(model, corpus.examples[:4], None,
                                        *_filled(model, corpus.examples[:4]))
    assert total == pytest.approx(l_inter + l_tra, abs=1e-12)


def test_adaptive_objective_uses_formula(corpus, extractor):
    config = TrainConfig(hidden_size=4, seed=3)
    model = InteractionModel(config, frozen=extractor)
    total, l_inter, l_tra = _batch_pass(model, corpus.examples[:4], None,
                                        *_filled(model, corpus.examples[:4]))
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
    store, rows = _filled(model, corpus.examples[:20])
    p_inter, p_tra, _ = model.forward_batch(*store.gather(rows, with_tra=True))
    for i in range(20):
        for probs in (p_inter[i], p_tra[0, i], p_tra[1, i]):
            assert probs.sum() == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# the assembled objective

def _ragged_examples():
    """Four labeled candidates whose entities occur one to three times each,
    so that a batch of them pads its occurrence rows."""
    surfaces = {"Person1": "Ada", "Person2": "Berg", "Time": "1950", "Location": "Oslo"}
    out = []
    for i, (counts, labels) in enumerate([((1, 1, 1, 1), (1, 1, 1)),
                                          ((3, 1, 2, 1), (0, 1, 0)),
                                          ((2, 3, 1, 2), (0, 0, 1)),
                                          ((1, 2, 3, 3), (0, 1, 1))]):
        words = ["Ada met Berg in Oslo in 1950 ."]
        for role, extra in zip(surfaces, counts):
            words += [f"Later {surfaces[role]} came ."] * (extra - 1)
        text = " ".join(words)
        mentions = []
        for role, surface in surfaces.items():
            spans, at = [], text.find(surface)
            while at >= 0:
                spans.append((at, at + len(surface)))
                at = text.find(surface, at + len(surface))
            assert len(spans) == counts[len(mentions)]
            mentions.append(EntityMention(role=role, surface=surface, occurrences=tuple(spans)))
        segment = TextSegment(segment_id=f"r{i}:s0", doc_id=f"r{i}", char_start=0,
                              char_end=len(text), text=text)
        out.append(LabeledExample(CandidateQuadruple(segment, *mentions), *labels, split="train"))
    return out


def _frozen(d, norm="softmax"):
    extractor = FrozenTrajectoryExtractor(TrainConfig(hidden_size=d, seed=4, attention_norm=norm))
    extractor.freeze()
    return extractor


@pytest.mark.parametrize("norm", ["softmax", "literal"])
@pytest.mark.parametrize("name", list(ABLATION_GRID))
def test_objective_gradient_matches_finite_differences(name, norm):
    # Central differences of _batch_pass's total loss against its backward,
    # for every entry of every model parameter. The scale floor keeps
    # entries whose gradient is ~0 from dividing rounding noise by ~0.
    d, h = 2, 1e-6
    config = replace(TrainConfig(hidden_size=d, seed=7, attention_norm=norm),
                     **ABLATION_GRID[name])
    model = InteractionModel(config, frozen=_frozen(d) if config.fusion_mode != "off" else None)
    batch = _ragged_examples()
    filled = _filled(model, batch)
    grads = model.zero_grads()
    _batch_pass(model, batch, grads, *filled)
    for key, param in model.all_params().items():
        flat = param.reshape(-1)
        assert np.shares_memory(flat, param)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = _batch_pass(model, batch, None, *filled)[0]
            flat[i] = orig - h
            down = _batch_pass(model, batch, None, *filled)[0]
            flat[i] = orig
            numeric, analytic = (up - down) / (2 * h), grads[key].reshape(-1)[i]
            err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-4)
            assert err <= 1e-5, f"{key}[{i}]: analytic {analytic!r}, numeric {numeric!r}"


@pytest.mark.parametrize("norm", ["softmax", "literal"])
def test_padding_cannot_leak(norm):
    # A candidate scored or differentiated alone (its own occurrence count
    # sets the padding) and inside a batch padded for longer candidates.
    config = TrainConfig(hidden_size=4, seed=3, attention_norm=norm)
    model = InteractionModel(config, frozen=_frozen(4, norm))
    examples = _ragged_examples()
    cands = [ex.candidate for ex in examples]
    together = [p.score for p in predict(model, cands)]
    alone = [predict(model, [cand])[0].score for cand in cands]
    assert np.allclose(together, alone, rtol=0, atol=1e-12)

    rng = np.random.default_rng(0)
    d_inter, d_tra = rng.normal(size=(4, 2)), rng.normal(size=(2, 4, 2))

    def grads_of(group):
        store = FeatureStore.for_model(model)
        rows, _ = store.fill_candidates([cands[i] for i in group], with_tra=True)
        _, _, cache = model.forward_batch(*store.gather(rows, with_tra=True))
        grads = model.zero_grads()
        model.backward_batch(cache, d_inter[group], d_tra[:, group], grads)
        return grads

    batched = grads_of([0, 1, 2, 3])
    singles = [grads_of([i]) for i in range(4)]
    for key, value in batched.items():
        assert np.allclose(value, sum(g[key] for g in singles), rtol=0, atol=1e-12), key


# ---------------------------------------------------------------------------
# training loop

def test_training_loss_decreases_most_epochs(corpus, extractor):
    examples = split_dataset(corpus.examples, seed=0)
    config = TrainConfig(hidden_size=4, max_epochs=10, learning_rate=5e-3,
                         seed=5, patience=10)
    model = InteractionModel(config, frozen=extractor)
    result = train(model, examples)
    losses = [h["loss"] for h in result.history]
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
    assert drops >= 0.8 * (len(losses) - 1)


def test_training_deterministic_under_seed(corpus, extractor):
    examples = split_dataset(corpus.examples, seed=0)
    config = TrainConfig(hidden_size=4, max_epochs=3, learning_rate=5e-3, seed=9)
    histories = []
    for _ in range(2):
        model = InteractionModel(config, frozen=extractor)
        histories.append(train(model, examples).history)
    assert histories[0] == histories[1]


@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_training_divergence_aborts(corpus, extractor):
    examples = split_dataset(corpus.examples, seed=0)
    config = TrainConfig(hidden_size=4, max_epochs=2, seed=1)
    model = InteractionModel(config, frozen=extractor)
    model.params["head.inter.W"][:] = np.inf
    with pytest.raises(TrainingDiverged):
        train(model, examples)


def test_no_train_split_is_error(corpus, extractor):
    config = TrainConfig(hidden_size=4, seed=1)
    model = InteractionModel(config, frozen=extractor)
    with pytest.raises(ValueError, match="train"):
        train(model, corpus.examples)


def test_training_encodes_each_distinct_input_once(corpus, monkeypatch):
    calls = []  # one entry per encoded row: (rows of its call, padded length)
    encode_batch = DeterministicStubBackbone.encode_batch

    def counting_encode_batch(self, batch):
        calls.extend([(len(batch), 1 + max(map(len, batch)))] * len(batch))
        return encode_batch(self, batch)

    monkeypatch.setattr(DeterministicStubBackbone, "encode_batch", counting_encode_batch)
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
        run = replace(config, fusion_mode="gated" if ft else "off")
        result = train(InteractionModel(run, frozen=extractor if ft else None), examples)
        assert len(result.history) == 3
        assert len(calls) == len(keys), f"ft={ft}"
        assert all(n * rows <= ENCODE_BUDGET or n == 1 for n, rows in calls)
        assert max(n for n, _ in calls) > 1  # batched


def test_training_leaves_out_examples_the_frozen_window_cannot_hold():
    corpus = fixtures.build_fixture_corpus(n_docs=30, seed=7)
    examples = split_dataset(corpus.examples, seed=0)
    narrow = TrainConfig(hidden_size=4, max_tokens=20, max_epochs=1, seed=5)
    extractor, _ = pretrain_trajectory_extractor(corpus.labeled_triples, narrow)
    config = TrainConfig(hidden_size=4, max_epochs=2, seed=5)
    model = InteractionModel(config, frozen=extractor)
    result = train(model, examples)
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
    train(model, examples)
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


def test_predict_decomposes_each_candidate_once(corpus, extractor, monkeypatch):
    calls = []
    decompose = training.decompose_candidate
    monkeypatch.setattr(training, "decompose_candidate",
                        lambda cand: calls.append(cand) or decompose(cand))
    model = InteractionModel(TrainConfig(hidden_size=4, seed=1), frozen=extractor)
    cands = [ex.candidate for ex in corpus.examples[:12]]
    assert not any(p.skipped for p in predict(model, cands))
    assert len(calls) == len(cands)


def test_validation_is_prediction_on_the_training_store(corpus, extractor):
    examples = split_dataset(corpus.examples, seed=0)
    config = TrainConfig(hidden_size=4, max_epochs=1, learning_rate=5e-3, seed=5)
    model = InteractionModel(config, frozen=extractor)
    result = train(model, examples)
    assert result.best_epoch == 0  # the model holds the last epoch's parameters

    val_set = [ex for ex in examples if ex.split == "val"]
    shared = FeatureStore.for_model(model)
    assert shared.frozen_inputs is shared  # the extractor has the model's backbone settings
    runs = []
    for store in (shared, FeatureStore(model.encoder, extractor, shared=False), None):
        if store is not None:  # filled as training fills its store
            for split in ("train", "val"):
                store.fill_candidates([ex.candidate for ex in examples if ex.split == split],
                                      with_tra=split == "train")
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


@pytest.mark.parametrize("key, value", [("ft", True), ("optimizer", "adamw"),
                                        ("frozen_checkpoint", None)])
def test_checkpoint_with_a_removed_config_key_is_refused(tmp_path, trained_model, key, value):
    # A model's config, the config of its frozen extractor, and an extractor
    # checkpoint's config are each refused.
    path = tmp_path / "old.ckpt"
    for field, save, load in (
            ("config", trained_model.save, InteractionModel.load),
            ("frozen_config", trained_model.save, InteractionModel.load),
            ("config", trained_model.frozen.save, FrozenTrajectoryExtractor.load)):
        save(path)
        arrays, meta = load_archive(path)
        meta[field][key] = value
        save_archive(path, arrays, meta)
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(err.value) == (f"{path}: checkpoint config key {key!r} is not a "
                                  "TrainConfig field; retrain with this version"), field


def test_extractor_checkpoint_with_the_old_seven_key_config_loads(tmp_path, corpus, extractor):
    # Extractor checkpoints once stored these seven keys, mlp_hidden resolved.
    path = tmp_path / "extractor.ckpt"
    extractor.save(path)
    arrays, meta = load_archive(path)
    cfg = extractor.config
    meta["config"] = {"backbone": cfg.backbone, "hidden_size": cfg.hidden_size,
                      "max_tokens": cfg.max_tokens, "mlp_hidden": cfg.hidden_size,
                      "seed": cfg.seed, "attention_norm": cfg.attention_norm,
                      "weights_path": cfg.weights_path}
    save_archive(path, arrays, meta)
    loaded = FrozenTrajectoryExtractor.load(path)
    assert loaded.frozen
    assert loaded.param_checksum() == extractor.param_checksum()
    t = corpus.labeled_triples[0].triple
    view = (t.segment, (t.person, t.time, t.location))
    assert np.array_equal(loaded.features(loaded.encoder.prepare(*view)),
                          extractor.features(extractor.encoder.prepare(*view)))


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        "learning_rate = 0.005\nbatch_size = 8\nmax_epochs = 3\n"
        "aw = no\nmt = false\nhidden_size = 4\n# comment line\n"
        "fusion_mode = concat\nmlp_hidden = none\nseed = 42\n")
    config = load_config(path)
    assert config.learning_rate == pytest.approx(0.005)
    assert config.batch_size == 8
    assert config.aw is False
    assert config.mt is False
    assert config.fusion_mode == "concat"
    assert config.mlp_hidden is None
    assert config.seed == 42


@pytest.mark.parametrize("line, reason", [
    ("learning_rat = 0.1", "unknown key 'learning_rat'"),
    ("hidden_size = abc", "hidden_size takes int, not 'abc'"),
    ("mt = maybe", "mt takes bool, not 'maybe'"),
    ("batch_size = 0", "batch_size must be positive"),
    ("fusion_mode = bogus", "unknown fusion_mode 'bogus'"),
    ("optimizer = sgd", "unknown key 'optimizer'"),
    ("attention_norm = l2", "unknown attention_norm 'l2'"),
    ("cross_attention = bogus", "unknown cross_attention 'bogus'"),
])
def test_config_file_errors_give_file_and_line(tmp_path, line, reason):
    path = tmp_path / "train.cfg"
    path.write_text(f"batch_size = 8\n# comment line\n{line}\n")
    with pytest.raises(ValueError) as err:
        load_config(path)
    assert str(err.value) == f"{path}:3: {reason}"


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
# Recorded on the batched trainable path.
GOLDEN_CHECKPOINTS = {"extractor": "19637527f34c1342", "gated": "2192ec436380067f",
                      "off": "cfa01dc76599f1b8"}

# The same checkpoints from the per-example path that preceded the batched
# one, as float.hex of each array's (sum, L2 norm). Batched sums round in
# another order: entries moved by at most 1.5e-15 (fusion.W_Q), sums and
# norms by at most 6.3e-15. The digests were re-recorded; these references,
# within REFERENCE_TOL (relative, or absolute near 0), keep a real change
# from hiding behind a re-record. The "frozen." arrays of "gated" are the
# extractor's, so they are left out here.
PER_EXAMPLE_REFERENCE = {
    "extractor": {
        "enc.attn.b": ("-0x1.41ef8ec171a60p-3", "0x1.41ef8ec171a60p-3"),
        "enc.attn.w": ("-0x1.00a3f6e56f50ap-1", "0x1.86f1bc0783506p+0"),
        "enc.proj.cls.W": ("-0x1.2814427838dbfp+1", "0x1.f6da91a5c5205p+1"),
        "enc.proj.cls.b": ("-0x1.056b87f085482p-4", "0x1.299bc793b2962p-1"),
        "enc.proj.location.W": ("-0x1.c54f9727bcde1p+1", "0x1.8f486647fad1bp+1"),
        "enc.proj.location.b": ("0x1.e5b9a3cc7f798p-5", "0x1.dcc43fb27578ap-2"),
        "enc.proj.person.W": ("-0x1.e3b70031730c8p-2", "0x1.954eb448b730bp+1"),
        "enc.proj.person.b": ("-0x1.ca9e370e4f914p-5", "0x1.9f373ff6dd94bp-2"),
        "enc.proj.person1.W": ("-0x1.74e61d2b8a2dcp+1", "0x1.3d3d4673ef053p+1"),
        "enc.proj.person1.b": ("0x0.0p+0", "0x0.0p+0"),
        "enc.proj.person2.W": ("0x1.02bffa6b34098p+1", "0x1.811dc7ec4c5fap+1"),
        "enc.proj.person2.b": ("0x0.0p+0", "0x0.0p+0"),
        "enc.proj.time.W": ("-0x1.71c473eb98159p+1", "0x1.c824641eb2c1cp+1"),
        "enc.proj.time.b": ("0x1.5f53dd47f7d2cp-1", "0x1.79358e81b988cp-2"),
        "head.W": ("-0x1.401cabc78c506p+1", "0x1.6f808c709e03ap+0"),
        "mlp.W1": ("-0x1.00c26ed509d48p+2", "0x1.3f38f8391e162p+2"),
        "mlp.W2": ("-0x1.136a35c6d3ec9p+2", "0x1.3dda0e6c5e059p+1"),
        "mlp.b1": ("0x1.b6dae049b0438p-6", "0x1.99c8f7a418ce0p-2"),
        "mlp.b2": ("0x1.7c145b52acda1p-1", "0x1.ac484854c2fe9p-2"),
    },
    "gated": {
        "c": ("0x1.9f6259a039fdap+0", "0x1.280ca339d58b0p+0"),
        "enc.attn.b": ("0x1.ca0dce74a01a7p-3", "0x1.ca0dce74a01a7p-3"),
        "enc.attn.w": ("-0x1.acca45ec9ea3ap-2", "0x1.066c523718d26p+0"),
        "enc.proj.cls.W": ("-0x1.d61acc94fcfe4p+1", "0x1.8d4bcbfa765c2p+1"),
        "enc.proj.cls.b": ("0x1.fe21dbc6dec3ap-3", "0x1.a0746a5714bc9p-2"),
        "enc.proj.location.W": ("-0x1.4a45b8aadea66p+0", "0x1.62228b8f02acfp+1"),
        "enc.proj.location.b": ("0x1.0f166707f2f39p-2", "0x1.121f5957e9be9p-1"),
        "enc.proj.person.W": ("0x1.55b56d4a9d780p-1", "0x1.4edf8927dc67dp+1"),
        "enc.proj.person.b": ("-0x1.103a63f36f038p-1", "0x1.cbcb6f09636ffp-2"),
        "enc.proj.person1.W": ("-0x1.4b09bdf615317p+1", "0x1.45d4d6d5506cdp+1"),
        "enc.proj.person1.b": ("0x1.529cbea90688ep-3", "0x1.33aa7bef23ce5p-2"),
        "enc.proj.person2.W": ("0x1.d40cc58962694p+1", "0x1.9dd33e8490c9fp+1"),
        "enc.proj.person2.b": ("-0x1.2df67f05a2d52p-4", "0x1.876048474bc71p-2"),
        "enc.proj.time.W": ("-0x1.4dc2cbd7948a5p+1", "0x1.882063c0a21a3p+1"),
        "enc.proj.time.b": ("0x1.82495b9244deap-3", "0x1.ee4cb57673feap-2"),
        "fusion.W_Q": ("-0x1.e5b6f6be0f90cp+1", "0x1.0f3b8984dd5e1p+2"),
        "fusion.W_gate": ("-0x1.48555bffe788fp+2", "0x1.54a6e1d6b5ac6p+1"),
        "head.inter.W": ("-0x1.7ae0f059f83aep+1", "0x1.09d354071b3abp+1"),
        "head.tra.W": ("-0x1.8444b58d0dae6p+1", "0x1.b60d7619b5f08p+0"),
    },
    "off": {
        "c": ("0x1.8d5245ac05bb7p+0", "0x1.1b4f757627b33p+0"),
        "enc.attn.b": ("0x1.901e3db24ad89p-3", "0x1.901e3db24ad89p-3"),
        "enc.attn.w": ("-0x1.13e386057bd15p+0", "0x1.e63a9a7424401p-1"),
        "enc.proj.cls.W": ("-0x1.34737bbac8eb0p+1", "0x1.84703834d1b4ap+1"),
        "enc.proj.cls.b": ("0x1.1d84e11d809a5p-2", "0x1.9ccd57e2da6a4p-2"),
        "enc.proj.location.W": ("-0x1.7054fb5b4a6b9p+1", "0x1.632d22f824cc1p+1"),
        "enc.proj.location.b": ("0x1.70f39aa2e4ff2p-2", "0x1.f483981f47a2ep-2"),
        "enc.proj.person.W": ("0x1.4033a7ea73808p-2", "0x1.4d3e0ddfa1357p+1"),
        "enc.proj.person.b": ("-0x1.2776e03f2a491p+0", "0x1.ea9fe17d1a330p-2"),
        "enc.proj.person1.W": ("-0x1.3cffa91278c4ep+1", "0x1.4ce4df6bc30dap+1"),
        "enc.proj.person1.b": ("0x1.619e92a1d54dcp-4", "0x1.708617f4a2613p-2"),
        "enc.proj.person2.W": ("0x1.4af9aa71a868bp+1", "0x1.989bd390a6e64p+1"),
        "enc.proj.person2.b": ("-0x1.2ac437f6646aap-4", "0x1.210848df872ecp-2"),
        "enc.proj.time.W": ("-0x1.948903385d718p+0", "0x1.76205a56fd1f2p+1"),
        "enc.proj.time.b": ("0x1.3d80b54960964p-1", "0x1.6e598c748129ep-2"),
        "head.inter.W": ("-0x1.1be8f8d94cf64p+1", "0x1.822e3bf578ba7p+0"),
        "head.tra.W": ("-0x1.b29e17d00b6b6p+0", "0x1.e2175b8d6c0bdp+0"),
    },
}
REFERENCE_TOL = 1e-12


def _checkpoint_digest(arrays):
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
    for name, run in (("gated", config), ("off", replace(config, fusion_mode="off"))):
        model = InteractionModel(run, frozen=extractor if name == "gated" else None)
        result = train(model, examples)
        model.save(tmp_path / f"{name}.ckpt", history=result.history)
    arrays = {name: load_archive(tmp_path / f"{name}.ckpt")[0] for name in GOLDEN_CHECKPOINTS}
    for name, reference in PER_EXAMPLE_REFERENCE.items():
        assert set(reference) == {k for k in arrays[name] if not k.startswith("frozen.")}
        for key, (total, norm) in reference.items():
            got = (float(arrays[name][key].sum()), float(np.linalg.norm(arrays[name][key])))
            want = (float.fromhex(total), float.fromhex(norm))
            assert np.allclose(got, want, rtol=REFERENCE_TOL, atol=REFERENCE_TOL), (name, key)
    assert {name: _checkpoint_digest(a) for name, a in arrays.items()} == GOLDEN_CHECKPOINTS
