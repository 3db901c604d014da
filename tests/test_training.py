import hashlib
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from falcon import encoder, fixtures
from falcon.backbone import DeterministicStubBackbone
from falcon.dataset import split_dataset
from falcon.encoder import (
    ENCODE_BUDGET,
    ArBertEncoder,
    MarkerOverlapError,
    Views,
    candidate_views,
    input_keys,
)
from falcon.evalbench import ABLATION_GRID, compute_metrics
from falcon.fusion import FrozenTrajectoryExtractor
from falcon.ingest import generate_candidates
from falcon.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    ADAM_WEIGHT_DECAY,
    C_MIN,
    PROB_EPS,
    AdamW,
    FeatureStore,
    InteractionModel,
    TrainConfig,
    TrainResult,
    TrainingDiverged,
    _batch_pass,
    _less_targets,
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
from fixture_builders import (
    CandidateQuadruple,
    EntityMention,
    TextSegment,
    in_split,
    labeled_of,
    objects,
    table_of,
    unmarkable_views,
    views_of,
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
    with pytest.raises(ValueError) as info:
        binary_cross_entropy(np.array([0.5]), np.array([2]))
    assert str(info.value) == "labels outside {0,1}: [2]"
    with pytest.raises(ValueError) as info:
        binary_cross_entropy(np.full(5, 0.5), np.array([2, 1, -1, 2, 0]))
    assert str(info.value) == "labels outside {0,1}: [-1, 2]"


def _probabilities(rng, shape):
    """Random probabilities of ``shape`` with 0, 1 and the clip bounds
    among them."""
    probs = rng.random(shape)
    flat = probs.reshape(-1)
    flat[:6] = [0.0, 1.0, PROB_EPS, 1.0 - PROB_EPS, PROB_EPS / 2, 1.0 - PROB_EPS / 2]
    return probs


@pytest.mark.parametrize("shape", [(40,), (2, 40)])
def test_loss_equals_the_two_log_formula_bit_for_bit(shape):
    rng = np.random.default_rng(3)
    for _ in range(20):
        probs, labels = _probabilities(rng, shape), rng.integers(0, 2, size=shape)
        p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
        want = float(-np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p)))
        assert binary_cross_entropy(probs, labels).hex() == want.hex()
    for label in (0, 1):  # every label alike
        labels = np.full(shape, label)
        p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
        want = float(-np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p)))
        assert binary_cross_entropy(probs, labels).hex() == want.hex()


@pytest.mark.parametrize("shape", [(40,), (2, 40)])
def test_probabilities_less_targets_equal_the_one_hot_difference_bit_for_bit(shape):
    rng = np.random.default_rng(4)
    probs, labels = _probabilities(rng, (*shape, 2)), rng.integers(0, 2, size=shape)
    before = probs.copy()
    want = probs - np.stack([1 - labels, labels], axis=-1)
    assert _less_targets(probs, labels).tobytes() == want.tobytes()
    assert probs.tobytes() == before.tobytes()  # the probabilities are left as they were


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


def _labels(batch):
    """The (3, B) labels of a labeled table, as training passes them."""
    return np.array(list(batch.labels.values()), dtype=int)


def _filled(model, batch):
    """A store filled with ``batch`` as training fills one, and the batch's rows."""
    store = FeatureStore.for_model(model)
    rows, reasons = store.fill_candidates(batch.mentions, model.config.mt, model.uses_features)
    assert not any(reasons)
    return store, rows


def test_mt_off_objective_is_interaction_loss_alone(corpus):
    config = TrainConfig(hidden_size=4, fusion_mode="off", mt=False, seed=3)
    model = InteractionModel(config)
    batch = corpus.examples.take(range(4))
    total, l_inter, l_tra = _batch_pass(model, _labels(batch), False, *_filled(model, batch))
    assert total == l_inter
    assert l_tra is None


def test_aw_off_objective_is_plain_sum(corpus, extractor):
    config = TrainConfig(hidden_size=4, aw=False, seed=3)
    model = InteractionModel(config, frozen=extractor)
    assert "c" not in model.params
    batch = corpus.examples.take(range(4))
    total, l_inter, l_tra = _batch_pass(model, _labels(batch), False, *_filled(model, batch))
    assert total == pytest.approx(l_inter + l_tra, abs=1e-12)


def test_adaptive_objective_uses_formula(corpus, extractor):
    config = TrainConfig(hidden_size=4, seed=3)
    model = InteractionModel(config, frozen=extractor)
    batch = corpus.examples.take(range(4))
    total, l_inter, l_tra = _batch_pass(model, _labels(batch), False, *_filled(model, batch))
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
    store, rows = _filled(model, corpus.examples.take(range(20)))
    p_inter, p_tra, _ = model.forward_batch(*store.gather(rows, with_tra=True))
    for i in range(20):
        for probs in (p_inter[i], p_tra[0, i], p_tra[1, i]):
            assert probs.sum() == pytest.approx(1.0, abs=1e-6)


# ---------------------------------------------------------------------------
# the assembled objective

def _ragged_candidate(i, counts):
    """A candidate of document ``r<i>`` whose Person1, Person2, Time and
    Location occur ``counts`` times each."""
    surfaces = {"Person1": "Ada", "Person2": "Berg", "Time": "1950", "Location": "Oslo"}
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
    return CandidateQuadruple(segment, *mentions)


def _ragged_examples():
    """Four labeled candidates whose entities occur one to three times each,
    so that a batch of them pads its occurrence rows."""
    counts = [(1, 1, 1, 1), (3, 1, 2, 1), (2, 3, 1, 2), (1, 2, 3, 3)]
    return labeled_of([_ragged_candidate(i, c) for i, c in enumerate(counts)],
                      [(1, 1, 1), (0, 1, 0), (0, 0, 1), (0, 1, 1)], split="train")


def _frozen(d):
    extractor = FrozenTrajectoryExtractor(TrainConfig(hidden_size=d, seed=4))
    extractor.freeze()
    return extractor


@pytest.mark.parametrize("name", list(ABLATION_GRID))
def test_objective_gradient_matches_finite_differences(name):
    # Central differences of _batch_pass's total loss against its backward,
    # for every entry of every model parameter. The scale floor keeps
    # entries whose gradient is ~0 from dividing rounding noise by ~0.
    d, h = 2, 1e-6
    config = replace(TrainConfig(hidden_size=d, seed=7), **ABLATION_GRID[name])
    model = InteractionModel(config, frozen=_frozen(d) if config.fusion_mode != "off" else None)
    batch = _ragged_examples()
    filled = _filled(model, batch)
    grads = model.zero_grads()
    _batch_pass(model, _labels(batch), True, *filled)
    for key, param in model.all_params().items():
        flat = param.reshape(-1)
        assert np.shares_memory(flat, param)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up = _batch_pass(model, _labels(batch), False, *filled)[0]
            flat[i] = orig - h
            down = _batch_pass(model, _labels(batch), False, *filled)[0]
            flat[i] = orig
            numeric, analytic = (up - down) / (2 * h), grads[key].reshape(-1)[i]
            err = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-4)
            assert err <= 1e-5, f"{key}[{i}]: analytic {analytic!r}, numeric {numeric!r}"


def test_a_candidates_score_does_not_depend_on_its_batch(corpus):
    # Each candidate scored alone, with its document, and in one call over
    # the corpus plus candidates with up to 12 occurrences of an entity: the
    # batch size and the occurrence padding differ in each, the bits do not.
    # The last candidate's Time occurs over more tokens than the window holds.
    model = InteractionModel(TrainConfig(hidden_size=8, seed=3), frozen=_frozen(8))
    doc_ids = corpus.triples.doc_ids()
    docs = [objects(generate_candidates(corpus.triples.take(
        row for row, doc in enumerate(doc_ids) if doc == doc_id))) for doc_id in sorted(set(doc_ids))]
    docs.append([_ragged_candidate(i, counts) for i, counts in
                 enumerate([(12, 1, 2, 1), (5, 9, 1, 3), (2, 2, 7, 1), (1, 1, 1, 1),
                            (1, 1, 200, 1)])])
    everything = [cand for doc in docs for cand in doc]
    scores, labels, reasons = predict(model, table_of(everything))
    skipped = np.array([reason is not None for reason in reasons])
    assert np.flatnonzero(skipped).tolist() == [len(everything) - 1]
    assert "window holds 511" in reasons[-1]
    assert np.isnan(scores[-1]) and labels[-1] == 0
    assert not np.isnan(scores[:-1]).any()
    # labels are the scores against the threshold, both labels occurring
    threshold = float(np.median(scores[:-1]))
    labels = predict(model, table_of(everything), threshold)[1]
    assert labels[:-1].tolist() == (scores[:-1] >= threshold).tolist()
    assert 0 < labels.sum() < len(everything) - 1 and labels[-1] == 0
    per_doc = np.concatenate([predict(model, table_of(doc))[0] for doc in docs])
    alone = np.concatenate([predict(model, table_of([cand]))[0] for cand in everything])
    assert per_doc.tobytes() == alone.tobytes() == scores.tobytes()


def test_padding_cannot_leak():
    # A candidate differentiated alone (its own occurrence count sets the
    # padding) and inside a batch padded for longer candidates.
    model = InteractionModel(TrainConfig(hidden_size=4, seed=3), frozen=_frozen(4))
    cands = objects(_ragged_examples().mentions)
    rng = np.random.default_rng(0)
    d_inter, d_tra = rng.normal(size=(4, 2)), rng.normal(size=(2, 4, 2))

    def grads_of(group):
        store = FeatureStore.for_model(model)
        rows, _ = store.fill_candidates(table_of(cands[i] for i in group), with_tra=True)
        _, _, cache = model.forward_batch(*store.gather(rows, with_tra=True))
        grads = model.zero_grads()
        model.backward_batch(cache, d_inter[group], d_tra[:, group])
        return {key: value.copy() for key, value in grads.items()}

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


def _distinct_inputs(marker, views_list):
    """The distinct inputs among ``views_list`` (Views): their count and the
    hidden rows encoding them reads, each one's CLS row and the rows inside
    its occurrence spans."""
    parts, seen = [], set()
    for views in views_list:
        index = []
        for j, key in enumerate(input_keys(views)):
            if key not in seen:
                seen.add(key)
                index.append(j)
        parts.append(views.take(index))
    rows = sum(len(m) + int((m.occurrences[:, 3] - m.occurrences[:, 2] + 1).sum())
               for m in marker.mark(parts))
    return len(seen), rows


def test_training_encodes_each_distinct_input_once(corpus, monkeypatch):
    calls = []  # per backbone call: (inputs, rows computed)
    encode_at = DeterministicStubBackbone.encode_at

    def counting_encode_at(self, inputs, item, pos):
        calls.append((len(inputs), len(item)))
        return encode_at(self, inputs, item, pos)

    monkeypatch.setattr(DeterministicStubBackbone, "encode_at", counting_encode_at)
    config = TrainConfig(hidden_size=4, max_epochs=3, seed=5)
    marker = ArBertEncoder(DeterministicStubBackbone(config.hidden_size, config.max_tokens))
    triples = corpus.labeled_triples
    extractor, _ = pretrain_trajectory_extractor(triples, config)
    views = Views.of(triples.mentions)
    assert (sum(n for n, _ in calls), sum(rows for _, rows in calls)) == _distinct_inputs(
        marker, [views])

    examples = split_dataset(corpus.examples, seed=0)
    for ft in (False, True):
        # The trajectory task reads the train examples' trajectory views; the
        # frozen features (ft) read the val examples' ones too. The extractor
        # has the model's backbone settings, so both encoders share one store.
        views = []
        for split in ("train", "val"):
            inter, tra = candidate_views(in_split(examples, split).mentions)
            views += [inter, tra] if split == "train" or ft else [inter]
        calls.clear()
        run = replace(config, fusion_mode="gated" if ft else "off")
        result = train(InteractionModel(run, frozen=extractor if ft else None), examples)
        assert len(result.history) == 3
        assert (sum(n for n, _ in calls), sum(rows for _, rows in calls)) == _distinct_inputs(
            marker, views), f"ft={ft}"
        assert all(rows <= ENCODE_BUDGET or n == 1 for n, rows in calls)
        assert max(n for n, _ in calls) > 1  # batched


def test_training_leaves_out_examples_the_frozen_window_cannot_hold():
    corpus = fixtures.build_fixture_corpus(n_docs=30, seed=7)
    examples = split_dataset(corpus.examples, seed=0)
    narrow = TrainConfig(hidden_size=4, max_tokens=20, max_epochs=1, seed=5)
    extractor, _ = pretrain_trajectory_extractor(corpus.labeled_triples, narrow)
    config = TrainConfig(hidden_size=4, max_epochs=2, seed=5)
    model = InteractionModel(config, frozen=extractor)
    result = train(model, examples)
    reasons = [reason for reason in predict(
        model, in_split(examples, "train", "val").mentions)[2] if reason]
    assert result.skipped == len(reasons) > 0
    assert all("window holds 19" in reason for reason in reasons)


def test_adamw_clamps_adaptive_scalars():
    model = InteractionModel(TrainConfig(hidden_size=2, fusion_mode="off"))
    params = model.params
    params["c"][...] = [1e-9, -1e-9]
    opt = AdamW(model, lr=0.0)
    model.zero_grads()
    opt.step()
    assert abs(params["c"][0]) >= 1e-3
    assert abs(params["c"][1]) >= 1e-3


def test_an_adamw_step_allocates_no_parameter_sized_array():
    model = InteractionModel(TrainConfig(hidden_size=16, fusion_mode="off"))
    opt = AdamW(model, lr=0.05)
    model.grad[...] = np.random.default_rng(5).normal(size=model.grad.size)
    tracemalloc.start()
    try:
        opt.step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < model.vector.nbytes


def _per_array_adamw(params, steps, lr):
    """AdamW applied to each array on its own: the reference for the flat
    update. ``steps`` holds each step's gradients by name; returns the
    parameters and the two moments, by name."""
    params = {k: p.copy() for k, p in params.items()}
    m = {k: np.zeros_like(p) for k, p in params.items()}
    v = {k: np.zeros_like(p) for k, p in params.items()}
    for t, grads in enumerate(steps, start=1):
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        for k, p in params.items():
            g = grads[k]
            m[k] = ADAM_BETA1 * m[k] + (1 - ADAM_BETA1) * g
            v[k] = ADAM_BETA2 * v[k] + (1 - ADAM_BETA2) * g * g
            decay = 0.0 if k.endswith(".b") or k == "c" else ADAM_WEIGHT_DECAY
            update = (m[k] / bc1) / (np.sqrt(v[k] / bc2) + ADAM_EPS) + decay * p
            params[k] = p - lr * update
        if "c" in params:
            c = params["c"]
            params["c"] = np.sign(c) * np.maximum(np.abs(c), C_MIN)
    return params, m, v


@pytest.mark.parametrize("kind", ["extractor", "gated"])
def test_adamw_equals_the_per_array_update_bit_for_bit(kind):
    # Random parameters and gradients over every name, decay-exempt ones
    # (enc.attn.b, enc.proj.*.b, c) and decayed ones that look alike
    # (mlp.b1). c[0] starts inside the clamp with no gradient, so every
    # step clamps it; c[1] is left free, where a decay would show.
    config = TrainConfig(hidden_size=3, seed=2)
    model = (FrozenTrajectoryExtractor(config) if kind == "extractor"
             else InteractionModel(config, frozen=_frozen(3)))
    rng = np.random.default_rng(9)
    model.vector[...] = rng.normal(size=model.vector.size)
    if kind == "gated":
        model.params["c"][0] = 1e-9
    start, steps, lr = model.snapshot(), [], 0.05
    opt = AdamW(model, lr=lr)
    for _ in range(6):
        grads = model.zero_grads()
        model.grad[...] = rng.normal(size=model.grad.size)
        if kind == "gated":
            grads["c"][0] = 0.0
        steps.append({k: g.copy() for k, g in grads.items()})
        opt.step()
        if kind == "gated":
            assert model.params["c"][0] == C_MIN
    for got, want in zip((model.all_params(), model.named(opt.m), model.named(opt.v)),
                         _per_array_adamw(start, steps, lr)):
        assert got.keys() == want.keys()
        for k in want:
            assert got[k].tobytes() == want[k].tobytes(), k


def test_parameters_and_gradients_stay_views_of_one_vector(tmp_path, corpus, extractor):
    def assert_views(model):
        for name, view in [*model.all_params().items(), *model.params.items(),
                           *(("enc." + k, v) for k, v in model.encoder.params.items())]:
            assert np.shares_memory(view, model.vector), name
        for name, view in model.zero_grads().items():
            assert np.shares_memory(view, model.grad), name

    config = TrainConfig(hidden_size=4, max_epochs=2, learning_rate=5e-3, seed=5)
    model = InteractionModel(config, frozen=extractor)
    assert_views(model)
    assert_views(extractor)
    model.set_params(model.snapshot())
    assert_views(model)
    train(model, split_dataset(corpus.examples, seed=0))  # restores its best epoch
    assert_views(model)
    model.save(tmp_path / "model.ckpt")
    extractor.save(tmp_path / "extractor.ckpt")
    loaded = InteractionModel.load(tmp_path / "model.ckpt")
    assert_views(loaded)
    assert_views(loaded.frozen)
    assert_views(FrozenTrajectoryExtractor.load(tmp_path / "extractor.ckpt"))

    # one step moves what the forward reads: after it, the model scores as
    # a model given its stepped parameters does
    batch = corpus.examples.take(range(4))
    store, rows = _filled(loaded, batch)
    gathered = store.gather(rows, with_tra=True)
    before = loaded.forward_batch(*gathered)
    opt = AdamW(loaded, lr=0.01)
    loaded.zero_grads()
    _batch_pass(loaded, _labels(batch), True, store, rows)
    opt.step()
    stepped = InteractionModel.load(tmp_path / "model.ckpt")
    stepped.set_params(loaded.snapshot())
    after, want = loaded.forward_batch(*gathered), stepped.forward_batch(*gathered)
    for i in (0, 1):  # interaction and trajectory probabilities
        assert not np.array_equal(before[i], after[i])
        assert np.array_equal(after[i], want[i])


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
    cands = corpus.examples.mentions.take(range(10))
    _, labels, reasons = predict(trained_model, cands, threshold=0.0)
    assert not any(reasons) and labels.tolist() == [1] * 10


def test_context_overflow_yields_skip_not_drop(corpus, extractor):
    config = TrainConfig(hidden_size=4, max_tokens=8, seed=1)
    model = InteractionModel(config, frozen=extractor)
    scores, labels, reasons = predict(model, corpus.examples.mentions.take(range(5)))
    assert len(scores) == len(labels) == len(reasons) == 5
    assert np.isnan(scores).all() and not labels.any()
    assert all("context overflow" in reason for reason in reasons)


def test_a_candidate_stops_at_its_first_view_that_overflows(corpus, extractor):
    # No interaction view fits the model's 8-token window, so no candidate
    # reaches its trajectory features: the extractor's store keeps none.
    model = InteractionModel(TrainConfig(hidden_size=4, max_tokens=8, seed=1), frozen=extractor)
    store = FeatureStore.for_model(model)
    assert store.frozen_inputs is not store
    rows, reasons = store.fill_candidates(corpus.examples.mentions.take(range(5)))
    assert (rows == -1).all() and all("window holds 7" in r for r in reasons)
    assert not store.inputs and not store.features and not store.frozen_inputs.inputs


def test_a_fill_raises_what_its_first_unmarkable_view_raises():
    views = unmarkable_views()
    store = FeatureStore(ArBertEncoder(DeterministicStubBackbone(hidden_size=4, max_tokens=32)))
    rows, reasons = store.fill(views_of([views[name] for name in ("ok", "overflow", "ok",
                                                                   "overflow")]))
    assert rows.tolist() == [0, -1, 0, -1]
    assert reasons[0] is reasons[2] is None and reasons[1] == reasons[3]
    assert reasons[1].startswith("context overflow")
    with pytest.raises(ValueError, match="produced no tokens"):
        store.fill(views_of([views[name] for name in ("overflow", "empty", "overlap")]))
    with pytest.raises(MarkerOverlapError):
        store.fill(views_of([views[name] for name in ("ok", "overlap", "empty")]))
    assert len(store.inputs) == 1


def test_predict_marks_each_distinct_view_once_in_one_pass(corpus, extractor, monkeypatch):
    calls = []  # per marking pass: the views marked
    insert_markers = encoder.insert_markers
    monkeypatch.setattr(encoder, "insert_markers", lambda views, backbone: calls.append(
        sum(map(len, views))) or insert_markers(views, backbone))
    model = InteractionModel(TrainConfig(hidden_size=4, seed=1), frozen=extractor)
    cands = corpus.examples.mentions.take(range(12))
    assert not any(predict(model, cands)[2])
    # the extractor shares the model's store: one pass for every view it lacks
    inter, tra = candidate_views(cands)
    assert calls == [len({*input_keys(inter), *input_keys(tra)})]


def test_validation_is_prediction_on_the_training_store(corpus, extractor):
    examples = split_dataset(corpus.examples, seed=0)
    config = TrainConfig(hidden_size=4, max_epochs=1, learning_rate=5e-3, seed=5)
    model = InteractionModel(config, frozen=extractor)
    result = train(model, examples)
    assert result.best_epoch == 0  # the model holds the last epoch's parameters

    val_set = in_split(examples, "val")
    shared = FeatureStore.for_model(model)
    assert shared.frozen_inputs is shared  # the extractor has the model's backbone settings
    runs = []
    for store in (shared, FeatureStore(model.encoder, extractor, shared=False), None):
        if store is not None:  # filled as training fills its store
            for split in ("train", "val"):
                store.fill_candidates(in_split(examples, split).mentions, with_tra=split == "train")
        scores, labels, _ = predict(model, val_set.mentions, store=store)
        runs.append((scores.tobytes(), tuple(labels.tolist())))
    assert len(set(runs)) == 1
    report = compute_metrics(runs[0][1], val_set.labels["y_inter"].tolist())
    assert result.history[-1]["val_f1"] == report.f1 / 100
    assert result.history[-1]["val_acc"] == report.accuracy / 100


def test_training_fills_its_train_and_val_rows_once(corpus, extractor, monkeypatch):
    # Validation scores the val rows every epoch from the one fill before
    # the first epoch.
    calls = []  # the candidates of each fill
    fill = FeatureStore.fill_candidates
    monkeypatch.setattr(FeatureStore, "fill_candidates", lambda self, cands, *args, **kwargs:
                        calls.append(len(cands)) or fill(self, cands, *args, **kwargs))
    examples = split_dataset(corpus.examples, seed=0)
    config = TrainConfig(hidden_size=4, max_epochs=4, learning_rate=5e-3, seed=5, patience=10)
    result = train(InteractionModel(config, frozen=extractor), examples)
    assert len(result.history) == 4 and all("val_f1" in entry for entry in result.history)
    assert calls == [len(in_split(examples, "train")), len(in_split(examples, "val"))]


def test_checkpoint_roundtrip_predict_bit_identical(tmp_path, corpus, trained_model):
    path = tmp_path / "model.ckpt"
    trained_model.save(path)
    loaded = InteractionModel.load(path)
    cands = corpus.examples.mentions.take(range(12))
    (a_scores, a_labels, _), (b_scores, b_labels, _) = (predict(trained_model, cands),
                                                        predict(loaded, cands))
    assert a_scores.tobytes() == b_scores.tobytes()
    assert a_labels.tolist() == b_labels.tolist()


@pytest.mark.parametrize("key, value", [("ft", True), ("optimizer", "adamw"),
                                        ("frozen_checkpoint", None),
                                        ("attention_norm", "softmax"),
                                        ("cross_attention", "joint"),
                                        ("backbone", "deterministic-stub"),
                                        ("weights_path", None),
                                        ("mlp_hidden", None),
                                        ("weight_decay", 0.01)])
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


@pytest.mark.parametrize("value, reason", [
    (math.nan, "learning_rate must be a finite positive number"),
    (math.inf, "learning_rate must be a finite positive number"),
    (0.0, "learning_rate must be positive")])
def test_checkpoint_with_a_config_value_out_of_range_is_refused(tmp_path, trained_model,
                                                                value, reason):
    # A model's config, the config of its frozen extractor, and an extractor
    # checkpoint's config are each refused, with the checkpoint's path.
    path = tmp_path / "bad.ckpt"
    for field, save, load in (
            ("config", trained_model.save, InteractionModel.load),
            ("frozen_config", trained_model.save, InteractionModel.load),
            ("config", trained_model.frozen.save, FrozenTrajectoryExtractor.load)):
        save(path)
        arrays, meta = load_archive(path)
        meta[field]["learning_rate"] = value
        save_archive(path, arrays, meta)
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(err.value) == f"{path}: {reason}", field


@pytest.mark.parametrize("loader, prefix, weight", [("model", "", "head.inter.W"),
                                                    ("model", "frozen.", "head.W"),
                                                    ("extractor", "", "head.W")])
def test_a_checkpoint_whose_arrays_do_not_match_the_model_is_refused(
        tmp_path, trained_model, loader, prefix, weight):
    # A missing array, an unknown one, one of another shape, one that is
    # not numeric and one with a NaN or an infinite entry are each refused
    # with the checkpoint's path and the array's name: in a model
    # checkpoint, in its frozen.* arrays and in an extractor checkpoint.
    path = tmp_path / "bad.ckpt"
    save, load = ((trained_model.save, InteractionModel.load) if loader == "model"
                  else (trained_model.frozen.save, FrozenTrajectoryExtractor.load))
    save(path)
    good, meta = load_archive(path)
    for edit, reason in (
            ({prefix + weight: None}, f"array {prefix + weight!r} is missing"),
            ({prefix + "bogus": np.zeros(3)}, f"unknown array {prefix + 'bogus'!r}"),
            ({prefix + "enc.attn.w": np.zeros(5)},
             f"array {prefix + 'enc.attn.w'!r} has shape (5,), expected (4,)"),
            ({prefix + "enc.attn.b": np.array("x")},
             f"array {prefix + 'enc.attn.b'!r} has dtype <U1, not a number"),
            ({prefix + weight: np.full_like(good[prefix + weight], np.nan)},
             f"array {prefix + weight!r} is not finite"),
            ({prefix + "enc.attn.w": np.array([0.0, 1.0, -np.inf, 2.0])},
             f"array {prefix + 'enc.attn.w'!r} is not finite")):
        arrays = {k: v for k, v in {**good, **edit}.items() if v is not None}
        save_archive(path, arrays, meta)
        with pytest.raises(ValueError) as err:
            load(path)
        assert str(err.value) == f"{path}: {reason}"


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "train.cfg"
    path.write_text(
        "learning_rate = 0.005\nbatch_size = 8\nmax_epochs = 3\n"
        "aw = no\nmt = false\nhidden_size = 4\n# comment line\n"
        "fusion_mode = concat\nseed = 42\n")
    config = load_config(path)
    assert config.learning_rate == pytest.approx(0.005)
    assert config.batch_size == 8
    assert config.aw is False
    assert config.mt is False
    assert config.fusion_mode == "concat"
    assert config.seed == 42


@pytest.mark.parametrize("line, reason", [
    ("learning_rat = 0.1", "unknown key 'learning_rat'"),
    ("hidden_size = abc", "hidden_size takes int, not 'abc'"),
    ("mt = maybe", "mt takes bool, not 'maybe'"),
    ("batch_size = 0", "batch_size must be positive"),
    ("learning_rate = 0", "learning_rate must be positive"),
    ("learning_rate = nan", "learning_rate must be a finite positive number"),
    ("learning_rate = inf", "learning_rate must be a finite positive number"),
    ("fusion_mode = bogus", "unknown fusion_mode 'bogus'"),
    ("optimizer = sgd", "unknown key 'optimizer'"),
    ("attention_norm = l2", "unknown key 'attention_norm'"),
    ("cross_attention = bogus", "unknown key 'cross_attention'"),
    ("backbone = deterministic-stub", "unknown key 'backbone'"),
    ("weights_path = /models/bert", "unknown key 'weights_path'"),
    ("mlp_hidden = 8", "unknown key 'mlp_hidden'"),
    ("weight_decay = 0.01", "unknown key 'weight_decay'"),
    ("threshold = 1.5", "threshold must be in [0, 1]"),
    ("threshold = -0.1", "threshold must be in [0, 1]"),
    ("threshold = nan", "threshold must be in [0, 1]"),
    ("seed = -1", "seed must not be negative"),
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
# Recorded on the row-invariant forward (every forward product row by row,
# occurrence sums added in order), which moved entries of the batched
# path's checkpoints by at most 2.5e-15 (fusion.W_Q).
GOLDEN_CHECKPOINTS = {"extractor": "35917b4b9068b5fc", "gated": "0d43ce4d35c1562d",
                      "off": "ed24cbbbd6be0fcb"}

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


# Checkpoints of the paths the golden runs leave out, from the same fixture
# and settings: "narrow" trains the full model at max_tokens 20, with its own
# extractor ("narrow-extractor"), so 15 of the 146 triples and 23 of the 73
# train and val examples overflow their window and are left out; "concat"
# trains concatenated features with fixed unit weights (aw off); "single"
# trains the interaction task alone (mt off). Each digest is the
# checkpoint's (:func:`_checkpoint_digest`) continued with its history's
# JSON, so the epoch losses, which alone see the loss of a run without
# adaptive weights, are pinned too.
GOLDEN_PATH_CHECKPOINTS = {"narrow-extractor": "bdd738f660721cf1", "narrow": "4cd3a34a3f9e6679",
                           "concat": "aef4ca6bccd2feaf", "single": "1d87510c819ff816"}


def test_training_paths_match_golden_digests():
    corpus = fixtures.build_fixture_corpus(n_docs=30, seed=7)
    examples = split_dataset(corpus.examples, seed=0)
    config = TrainConfig(hidden_size=8, max_epochs=3, learning_rate=0.05,
                         batch_size=16, patience=3, seed=5)
    extractor, _ = pretrain_trajectory_extractor(corpus.labeled_triples, config)
    narrow = replace(config, max_tokens=20)
    narrow_result = TrainResult()
    narrow_extractor, history = pretrain_trajectory_extractor(corpus.labeled_triples, narrow,
                                                              narrow_result)
    assert narrow_result.skipped == 15
    models = {"narrow": InteractionModel(narrow, frozen=narrow_extractor),
              "concat": InteractionModel(replace(config, fusion_mode="concat", aw=False),
                                         frozen=extractor),
              "single": InteractionModel(replace(config, mt=False), frozen=extractor)}

    def digest(model, history):
        return hashlib.sha256((_checkpoint_digest(model.all_params())
                               + json.dumps(history, sort_keys=True)).encode()).hexdigest()[:16]

    digests = {"narrow-extractor": digest(narrow_extractor, history)}
    for name, model in models.items():
        result = train(model, examples)
        assert result.skipped == (23 if name == "narrow" else 0)
        digests[name] = digest(model, result.history)
    assert digests == GOLDEN_PATH_CHECKPOINTS
