import math

import numpy as np
import pytest

from falcon.fusion import (
    FrozenTrajectoryExtractor,
    cross_attention_forward,
    fuse,
    gate_forward,
)
from falcon.training import TrainConfig, pretrain_trajectory_extractor
from fixture_builders import objects


# ---------------------------------------------------------------------------
# gating

def test_gate_zero_matrix_halves_input():
    h = np.array([1.0, -2.0, 0.5])
    out = gate_forward(h, np.zeros((3, 3)))[0]
    assert np.allclose(out, 0.5 * h)


def test_gate_zero_input_gives_zero():
    out = gate_forward(np.zeros(4), np.random.default_rng(0).normal(size=(4, 4)))[0]
    assert np.array_equal(out, np.zeros(4))


def test_gate_matches_scalar_oracle():
    h = np.array([0.2, -0.4, 1.1])
    w = np.array([[0.5, 0.0, -1.0], [0.25, 0.75, 0.0], [-0.5, 0.1, 0.9]])
    expected = []
    for i in range(3):
        z = sum(w[i][j] * h[j] for j in range(3))
        sig = 1.0 / (1.0 + math.exp(-z))
        expected.append(sig * h[i])
    assert np.allclose(gate_forward(h, w)[0], expected, atol=1e-12)


def test_gate_dim_mismatch_is_error():
    with pytest.raises(ValueError):
        gate_forward(np.zeros(3), np.zeros((4, 4)))


# ---------------------------------------------------------------------------
# cross-attention

def test_identical_gated_vectors_share_attention():
    d = 4
    rng = np.random.default_rng(1)
    h_inter = rng.normal(size=5 * d)
    w_q = rng.normal(size=(d, 5 * d))
    hg = rng.normal(size=d)
    (o1, o2), cache = cross_attention_forward(h_inter, hg, hg, w_q)
    assert np.allclose(cache.alphas, [0.5, 0.5])
    assert np.allclose(o1, 0.5 * hg)
    assert np.allclose(o2, 0.5 * hg)


def test_attention_saturates_with_large_score_gap():
    d = 4
    h_inter = np.ones(5 * d)
    w_q = np.ones((d, 5 * d))
    h1 = np.full(d, 100.0)   # huge positive score against q
    h2 = np.full(d, -100.0)
    (_, _), cache = cross_attention_forward(h_inter, h1, h2, w_q)
    assert cache.alphas[0] == pytest.approx(1.0, abs=1e-12)
    assert cache.alphas[1] == pytest.approx(0.0, abs=1e-12)


def test_cross_attention_matches_scalar_oracle():
    d = 4
    rng = np.random.default_rng(2)
    h_inter = rng.normal(size=5 * d)
    w_q = rng.normal(size=(d, 5 * d))
    h1 = rng.normal(size=d)
    h2 = rng.normal(size=d)
    o1, o2 = cross_attention_forward(h_inter, h1, h2, w_q)[0]
    # oracle: scalar recomputation with the 1/d scaling
    q = [sum(w_q[i][j] * h_inter[j] for j in range(5 * d)) for i in range(d)]
    s1 = sum(q[i] * h1[i] for i in range(d)) / d
    s2 = sum(q[i] * h2[i] for i in range(d)) / d
    m = max(s1, s2)
    e1, e2 = math.exp(s1 - m), math.exp(s2 - m)
    a1, a2 = e1 / (e1 + e2), e2 / (e1 + e2)
    assert np.allclose(o1, [a1 * x for x in h1], atol=1e-12)
    assert np.allclose(o2, [a2 * x for x in h2], atol=1e-12)


def test_attention_weights_sum_to_one():
    rng = np.random.default_rng(4)
    d = 4
    for _ in range(200):
        (_, _), cache = cross_attention_forward(
            rng.normal(size=5 * d), rng.normal(size=d), rng.normal(size=d),
            rng.normal(size=(d, 5 * d)))
        assert cache.alphas.sum() == pytest.approx(1.0, abs=1e-6)
        assert (cache.alphas >= 0).all()


# ---------------------------------------------------------------------------
# fusion concatenation

def test_fusion_length_at_768():
    d = 768
    out = fuse(np.zeros(5 * d), np.zeros(d), np.zeros(d))
    assert out.shape == (7 * d,)
    assert out.shape == (5376,)


def test_fusion_with_zero_attended_vectors():
    d = 4
    h_inter = np.arange(5.0 * d)
    out = fuse(h_inter, np.zeros(d), np.zeros(d))
    assert np.array_equal(out[:5 * d], h_inter)
    assert np.array_equal(out[5 * d:], np.zeros(2 * d))


def test_fusion_slicing_recovers_inputs():
    d = 6
    rng = np.random.default_rng(5)
    h_inter, h1, h2 = rng.normal(size=5 * d), rng.normal(size=d), rng.normal(size=d)
    out = fuse(h_inter, h1, h2)
    assert np.array_equal(out[:5 * d], h_inter)
    assert np.array_equal(out[5 * d:6 * d], h1)
    assert np.array_equal(out[6 * d:], h2)


def test_fusion_dim_mismatch_is_error():
    with pytest.raises(ValueError):
        fuse(np.zeros(21), np.zeros(4), np.zeros(4))
    with pytest.raises(ValueError):
        fuse(np.zeros(20), np.zeros(4), np.zeros(3))


# ---------------------------------------------------------------------------
# frozen extractor

@pytest.fixture(scope="module")
def small_extractor(request):
    corpus = request.getfixturevalue("corpus")
    config = TrainConfig(hidden_size=4, max_epochs=2, learning_rate=5e-3, seed=5)
    extractor, history = pretrain_trajectory_extractor(corpus.labeled_triples.take(range(50)),
                                                       config)
    return extractor, history


def test_pretraining_loss_decreases(small_extractor):
    _, history = small_extractor
    losses = [h["loss"] for h in history]
    assert len(losses) == 2
    assert losses[1] < losses[0]


def test_empty_pretraining_corpus_is_error():
    with pytest.raises(ValueError, match="empty"):
        pretrain_trajectory_extractor([], TrainConfig(hidden_size=4))


def test_checkpoint_roundtrip_bit_identical(tmp_path, small_extractor):
    extractor, _ = small_extractor
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    extractor.save(p1)
    extractor.save(p2)
    assert p1.read_bytes() == p2.read_bytes()
    loaded1 = FrozenTrajectoryExtractor.load(p1)
    loaded2 = FrozenTrajectoryExtractor.load(p1)
    for k, v in loaded1.all_params().items():
        assert np.array_equal(v, loaded2.all_params()[k])
        assert np.array_equal(v, extractor.all_params()[k])
    assert loaded1.frozen


def test_frozen_extractor_refuses_training_forward(small_extractor, corpus):
    extractor, _ = small_extractor
    t = objects(corpus.triples.take([0]))[0]
    with pytest.raises(RuntimeError, match="frozen"):
        extractor.forward_train(extractor.encoder.prepare(t.segment,
                                                          (t.person, t.time, t.location)))


def test_frozen_features_deterministic(small_extractor, corpus):
    extractor, _ = small_extractor
    t = objects(corpus.triples.take([0]))[0]
    view = (t.segment, (t.person, t.time, t.location))
    f1 = extractor.features(extractor.encoder.prepare(*view))[0]
    f2 = extractor.features(extractor.encoder.prepare(*view))[0]
    assert np.array_equal(f1, f2)
    assert f1.shape == (4,)
