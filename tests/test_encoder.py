import math

import numpy as np
import pytest

from falcon.backbone import DeterministicStubBackbone
from falcon.encoder import (
    MARKERS,
    ArBertEncoder,
    ContextOverflowError,
    MarkerOverlapError,
    attend,
    canonical_entities,
    insert_markers,
    pool_occurrence,
)
from falcon.ingest import EntityMention, TextSegment


def seg_of(text):
    return TextSegment(segment_id="t:s0", doc_id="t", char_start=0,
                       char_end=len(text), text=text)


def mention(role, surface, text):
    spans, offset = [], 0
    while True:
        i = text.find(surface, offset)
        if i < 0:
            break
        spans.append((i, i + len(surface)))
        offset = i + len(surface)
    return EntityMention(role=role, surface=surface, occurrences=tuple(spans))


FIG_TEXT = "Niemans met Berg in The Hague in 1950"


def fig_entities(text=FIG_TEXT):
    return [mention("Person1", "Niemans", text), mention("Person2", "Berg", text),
            mention("Time", "1950", text), mention("Location", "The Hague", text)]


# ---------------------------------------------------------------------------
# stub backbone

def _windowed_mean_loop(keys, win):
    return np.array([keys[max(0, p - win):p + win + 1].mean() for p in range(len(keys))])


def test_stub_windowed_mean_matches_loop_formula_bit_for_bit():
    rng = np.random.default_rng(12)
    for win in (1, 2, 3):
        backbone = DeterministicStubBackbone(hidden_size=4, context_window=win)
        # n tokens plus CLS: every sequence length from 1 to 2 * win + 3, then random
        lengths = list(range(2 * win + 3)) + [int(n) for n in rng.integers(1, 200, 40)]
        for n in lengths:
            tokens = ["".join(chr(c) for c in rng.integers(97, 123, 5)) for _ in range(n)]
            keys = np.array([backbone.token_key(t) for t in ["[CLS]"] + tokens])
            local = _windowed_mean_loop(keys, win)
            pos = np.arange(1, n + 2)[:, None]
            dims = np.arange(1, 5)[None, :]
            want = (np.sin(pos * dims * 0.7 + 2.0 * math.pi * keys[:, None])
                    + 0.5 * np.cos(dims * (1.0 + keys.mean()))
                    + 0.7 * np.sin(dims * 2.1 + 2.0 * math.pi * local[:, None]))
            assert np.array_equal(backbone.encode(tokens), want)


# ---------------------------------------------------------------------------
# marker insertion

def test_marker_scheme_on_canonical_sentence():
    backbone = DeterministicStubBackbone(hidden_size=4)
    marked = insert_markers(seg_of(FIG_TEXT), fig_entities(), backbone)
    assert marked.marked_text == "#Niemans# met $Berg$ in &The Hague& in *1950*"


def test_trajectory_person_uses_hash_marker():
    text = "Niemans in The Hague in 1950"
    entities = [mention("Person", "Niemans", text), mention("Time", "1950", text),
                mention("Location", "The Hague", text)]
    backbone = DeterministicStubBackbone(hidden_size=4)
    marked = insert_markers(seg_of(text), entities, backbone)
    assert marked.marked_text == "#Niemans# in &The Hague& in *1950*"


def test_two_occurrences_both_wrapped():
    text = "Berg met Ada, and later Berg left in 1950 from Oslo"
    entities = [mention("Person1", "Ada", text), mention("Person2", "Berg", text),
                mention("Time", "1950", text), mention("Location", "Oslo", text)]
    backbone = DeterministicStubBackbone(hidden_size=4)
    marked = insert_markers(seg_of(text), canonical_entities(entities), backbone)
    assert marked.marked_text.count("$") == 4
    berg_spans = marked.entity_spans[1]
    assert len(berg_spans) == 2


def test_token_spans_detokenize_to_surfaces():
    backbone = DeterministicStubBackbone(hidden_size=4)
    for text, entities in [
        (FIG_TEXT, fig_entities()),
        ("Both Ada and Berg lived in The Hague in 1950, Ada said.",
         [mention("Person1", "Ada", "Both Ada and Berg lived in The Hague in 1950, Ada said."),
          mention("Person2", "Berg", "Both Ada and Berg lived in The Hague in 1950, Ada said."),
          mention("Time", "1950", "Both Ada and Berg lived in The Hague in 1950, Ada said."),
          mention("Location", "The Hague", "Both Ada and Berg lived in The Hague in 1950, Ada said.")]),
    ]:
        marked = insert_markers(seg_of(text), entities, backbone)
        for ent, spans in zip(entities, marked.entity_spans):
            for c, d in spans:
                # matrix coords -> token coords
                toks = marked.tokens[c - 1:d]
                start, end = toks[0].start, toks[-1].end
                recovered = marked.marked_text[start:end]
                assert " ".join(recovered.split()).casefold() == ent.norm


def test_overlapping_entity_spans_rejected():
    text = "Anna Maria met Berg in 1950 in Oslo"
    p1 = EntityMention(role="Person1", surface="Anna Maria", occurrences=((0, 10),))
    p2 = EntityMention(role="Person2", surface="Maria", occurrences=((5, 10),))
    t = mention("Time", "1950", text)
    l = mention("Location", "Oslo", text)
    backbone = DeterministicStubBackbone(hidden_size=4)
    with pytest.raises(MarkerOverlapError):
        insert_markers(seg_of(text), [p1, p2, t, l], backbone)


def test_window_selected_when_text_long():
    filler = "filler " * 120
    text = filler + FIG_TEXT + " " + filler
    entities = [mention("Person1", "Niemans", text), mention("Person2", "Berg", text),
                mention("Time", "1950", text), mention("Location", "The Hague", text)]
    backbone = DeterministicStubBackbone(hidden_size=4, max_tokens=64)
    marked = insert_markers(seg_of(text), entities, backbone)
    assert len(marked.tokens) == 63
    for ent, spans in zip(entities, marked.entity_spans):
        for c, d in spans:
            toks = marked.tokens[c - 1:d]
            got = marked.marked_text[toks[0].start:toks[-1].end]
            assert " ".join(got.split()).casefold() == ent.norm


def test_context_overflow_raises():
    gap = "gap " * 200
    text = "Niemans was here. " + gap + " Berg was there in 1950 near Oslo."
    entities = [mention("Person1", "Niemans", text), mention("Person2", "Berg", text),
                mention("Time", "1950", text), mention("Location", "Oslo", text)]
    backbone = DeterministicStubBackbone(hidden_size=4, max_tokens=32)
    with pytest.raises(ContextOverflowError, match="context overflow"):
        insert_markers(seg_of(text), entities, backbone)


def _scan_token_spans(text, entities, backbone):
    """Reference marking: the marked text and each occurrence's token span
    (token coordinates, no window), found by scanning every token for
    every occurrence."""
    flat = sorted((start, end, ei, oi) for ei, ent in enumerate(entities)
                  for oi, (start, end) in enumerate(ent.occurrences))
    pieces, shifted, pos, out_len = [], {}, 0, 0
    for start, end, ei, oi in flat:
        marker = MARKERS[entities[ei].role]
        pieces += [text[pos:start], marker, text[start:end], marker]
        out_len += start - pos + 1
        shifted[(ei, oi)] = (out_len, out_len + end - start)
        out_len += end - start + 1
        pos = end
    marked_text = "".join(pieces) + text[pos:]
    tokens = backbone.tokenize_with_offsets(marked_text)
    spans = [[] for _ in entities]
    for (ei, oi), (s, e) in sorted(shifted.items()):
        inside = [ti for ti, tok in enumerate(tokens) if tok.start >= s and tok.end <= e]
        spans[ei].append((inside[0], inside[-1]))
    return marked_text, spans


def _random_segment(rng, filler_words):
    """A text with four entities of one to three words, each occurring one
    to three times, with punctuation glued to either side of some of them."""
    words = ["met", "in", "and", "later", "the", "said", "near", "of"]
    surfaces = {"Person1": "Ada Lovelace", "Person2": "Berg", "Time": "12 May 1950",
                "Location": "Oslo"}
    slots = [role for role in surfaces for _ in range(rng.integers(1, 4))]
    rng.shuffle(slots)
    text, occurrences = "", {role: [] for role in surfaces}
    for role in slots:
        n = int(rng.integers(0, filler_words + 1))
        text += " ".join(rng.choice(words, n)) + " " + str(rng.choice(["", "(", '"', "-"]))
        occurrences[role].append((len(text), len(text) + len(surfaces[role])))
        text += surfaces[role] + str(rng.choice(["", ",", ".", ")", "'s"])) + " "
    entities = [EntityMention(role=role, surface=surfaces[role], occurrences=tuple(occ))
                for role, occ in occurrences.items()]
    return seg_of(text), entities


def test_token_spans_match_scan_reference():
    rng = np.random.default_rng(3)
    unbounded = DeterministicStubBackbone(hidden_size=4, max_tokens=10 ** 6)
    windowed = 0
    for case in range(300):
        segment, entities = _random_segment(rng, 3 if case % 2 else 40)
        want_text, want = _scan_token_spans(segment.text, entities, unbounded)
        full = insert_markers(segment, entities, unbounded)
        assert full.marked_text == want_text
        assert full.entity_spans == [tuple((c + 1, d + 1) for c, d in s) for s in want]
        # the smallest window that holds every occurrence, plus some slack
        lo = min(c for s in want for c, _ in s)
        hi = max(d for s in want for _, d in s)
        small = DeterministicStubBackbone(hidden_size=4,
                                          max_tokens=hi - lo + 2 + int(rng.integers(0, 4)))
        marked = insert_markers(segment, entities, small)
        offset = full.tokens.index(marked.tokens[0])
        windowed += offset > 0 or len(marked.tokens) < len(full.tokens)
        assert marked.tokens == full.tokens[offset:offset + len(marked.tokens)]
        assert marked.entity_spans == [tuple((c - offset + 1, d - offset + 1) for c, d in s)
                                       for s in want]
    assert windowed > 100


# ---------------------------------------------------------------------------
# pooling

def test_pool_single_token_is_that_row():
    hidden = np.arange(20.0).reshape(5, 4)
    assert np.array_equal(pool_occurrence(hidden, (2, 2)), hidden[2])


def test_pool_identical_rows_returns_the_row():
    v = np.array([1.0, -2.0, 0.5, 3.0])
    hidden = np.stack([v, v, v])
    assert np.allclose(pool_occurrence(hidden, (1, 2)), v)


def test_pool_matches_hand_mean():
    rng = np.random.default_rng(0)
    hidden = rng.normal(size=(5, 4))
    got = pool_occurrence(hidden, (1, 3))
    # oracle: explicit scalar re-summation
    want = np.array([sum(hidden[t][j] for t in (1, 2, 3)) / 3.0 for j in range(4)])
    assert np.allclose(got, want, atol=1e-12)


def test_pool_out_of_range_is_error():
    hidden = np.zeros((3, 4))
    with pytest.raises(ValueError):
        pool_occurrence(hidden, (2, 3))
    with pytest.raises(ValueError):
        pool_occurrence(hidden, (-1, 1))


# ---------------------------------------------------------------------------
# occurrence aggregation

def attend_all(occ, w, b, norm="softmax"):
    """:func:`attend` over the (k, d) occurrences of one entity, all of them
    real: (scores, weights, aggregated)."""
    return attend(occ, np.ones(len(occ), dtype=bool), w, b, norm)


def test_single_occurrence_weight_is_one_regardless_of_params():
    rng = np.random.default_rng(1)
    for _ in range(5):
        occ = rng.normal(size=(1, 4))
        w = rng.normal(size=4)
        b = float(rng.normal())
        for norm in ("softmax", "literal"):
            _, weights, aggregated = attend_all(occ, w, b, norm=norm)
            assert weights == pytest.approx([1.0])
            assert np.allclose(aggregated, occ[0])


def test_two_identical_vectors_split_weight_evenly():
    v = np.array([0.3, -1.0, 2.0, 0.0])
    occ = np.stack([v, v])
    _, weights, aggregated = attend_all(occ, np.ones(4), 0.1)
    assert np.allclose(weights, [0.5, 0.5])
    assert np.allclose(aggregated, v)


def test_aggregation_matches_scalar_oracle():
    # d=3, fixed small parameters; recompute every scalar by hand
    occ = np.array([[0.1, 0.2, -0.3], [1.0, -0.5, 0.25], [-0.7, 0.4, 0.9]])
    w_attn = np.array([0.5, -0.25, 0.75])
    b_attn = 0.1
    scores = []
    for k in range(3):
        z = sum(w_attn[j] * occ[k][j] for j in range(3)) + b_attn
        scores.append(math.tanh(z))
    exps = [math.exp(s - max(scores)) for s in scores]
    weights = [e / sum(exps) for e in exps]
    expected = [sum(weights[k] * occ[k][j] for k in range(3)) for j in range(3)]

    got_scores, got_weights, aggregated = attend_all(occ, w_attn, b_attn)
    assert np.allclose(got_scores, scores, atol=1e-12)
    assert np.allclose(got_weights, weights, atol=1e-12)
    assert np.allclose(aggregated, expected, atol=1e-12)


def test_weights_sum_to_one_and_nonnegative():
    rng = np.random.default_rng(2)
    for _ in range(200):
        k = rng.integers(1, 6)
        occ = rng.normal(size=(k, 4))
        _, weights, _ = attend_all(occ, rng.normal(size=4), float(rng.normal()))
        assert weights.sum() == pytest.approx(1.0, abs=1e-6)
        assert (weights >= 0).all()


def test_permuting_occurrences_permutes_weights_only():
    rng = np.random.default_rng(3)
    occ = rng.normal(size=(4, 4))
    w, b = rng.normal(size=4), 0.2
    _, base_weights, base_aggregated = attend_all(occ, w, b)
    perm = [2, 0, 3, 1]
    _, weights, aggregated = attend_all(occ[perm], w, b)
    assert np.allclose(weights, base_weights[perm])
    assert np.allclose(aggregated, base_aggregated)


def test_literal_norm_guard_against_zero_sum():
    occ = np.array([[1.0, 0.0], [-1.0, 0.0]])
    w_attn = np.array([1.0, 0.0])
    _, weights, _ = attend_all(occ, w_attn, 0.0, norm="literal")
    assert np.allclose(weights, [0.5, 0.5])  # uniform fallback


# ---------------------------------------------------------------------------
# full encode

def test_encode_dimensions_quadruple_and_triple():
    for d in (4, 768):
        enc = ArBertEncoder(DeterministicStubBackbone(hidden_size=d), seed=0)
        vector, cache = enc.forward(seg_of(FIG_TEXT), fig_entities())
        assert vector.shape == (len(cache.keys) * d,) == (5 * d,)
    text = "Niemans in The Hague in 1950"
    entities = [mention("Person", "Niemans", text), mention("Time", "1950", text),
                mention("Location", "The Hague", text)]
    for d in (4, 768):
        enc = ArBertEncoder(DeterministicStubBackbone(hidden_size=d), seed=0)
        vector, cache = enc.forward(seg_of(text), entities)
        assert vector.shape == (len(cache.keys) * d,) == (4 * d,)


def _stub_rows_oracle(tokens, d, window=2):
    """Independent recomputation of the stub embedding formula."""
    seq = ["[CLS]"] + tokens
    keys = [((sum(t.encode("utf-8")) * 2654435761) % 1000003) / 1000003.0
            for t in seq]
    ctx = sum(keys) / len(keys)
    rows = []
    for p in range(len(seq)):
        lo, hi = max(0, p - window), min(len(seq), p + window + 1)
        local = sum(keys[lo:hi]) / (hi - lo)
        rows.append([
            math.sin((p + 1) * (j + 1) * 0.7 + 2 * math.pi * keys[p])
            + 0.5 * math.cos((j + 1) * (1.0 + ctx))
            + 0.7 * math.sin((j + 1) * 2.1 + 2 * math.pi * local)
            for j in range(d)
        ])
    return rows


def test_encode_matches_full_arithmetic_oracle():
    d = 4
    backbone = DeterministicStubBackbone(hidden_size=d)
    enc = ArBertEncoder(backbone, seed=7)
    segment = seg_of(FIG_TEXT)
    entities = fig_entities()
    got = enc.forward(segment, entities)[0]

    # oracle: replay every stage with independent scalar arithmetic
    marked = insert_markers(segment, entities, backbone)
    rows = _stub_rows_oracle([t.text for t in marked.tokens], d)

    def project(key, vec):
        w = enc.params[f"proj.{key}.W"]
        b = enc.params[f"proj.{key}.b"]
        tan = [math.tanh(x) for x in vec]
        return [sum(w[i][j] * tan[j] for j in range(d)) + b[i] for i in range(d)]

    expected = list(project("cls", rows[0]))
    for ent, spans in zip(entities, marked.entity_spans):
        pooled = []
        for c, dd in spans:
            pooled.append([sum(rows[t][j] for t in range(c, dd + 1)) / (dd - c + 1)
                           for j in range(d)])
        scores = [math.tanh(sum(enc.params["attn.w"][j] * v[j] for j in range(d))
                            + float(enc.params["attn.b"])) for v in pooled]
        mx = max(scores)
        exps = [math.exp(s - mx) for s in scores]
        weights = [e / sum(exps) for e in exps]
        agg = [sum(weights[k] * pooled[k][j] for k in range(len(pooled)))
               for j in range(d)]
        expected.extend(project(ent.role.lower(), agg))

    assert np.allclose(got, np.array(expected), atol=1e-10)


def test_encode_rejects_bad_role_sets():
    enc = ArBertEncoder(DeterministicStubBackbone(hidden_size=4), seed=0)
    text = "Niemans in 1950"
    entities = [mention("Person1", "Niemans", text), mention("Time", "1950", text)]
    with pytest.raises(ValueError, match="role set"):
        enc.forward(seg_of(text), entities)


def test_encoder_gradients_match_finite_differences():
    d = 4
    backbone = DeterministicStubBackbone(hidden_size=d)
    enc = ArBertEncoder(backbone, seed=11)
    segment = seg_of("Berg met Ada, and later Berg left in 1950 from Oslo")
    text = segment.text
    entities = canonical_entities([
        mention("Person1", "Ada", text), mention("Person2", "Berg", text),
        mention("Time", "1950", text), mention("Location", "Oslo", text)])
    rng = np.random.default_rng(0)
    g = rng.normal(size=5 * d)

    out, cache = enc.forward(segment, entities)
    grads = enc.zero_grads()
    enc.backward(g, cache, grads)

    h = 1e-6
    for name in ("attn.w", "attn.b"):
        p = enc.params[name]
        for i in range(max(1, p.size)):
            flat = p.reshape(-1) if p.ndim else None
            if p.ndim == 0:
                orig = float(p)
                enc.params[name] = np.array(orig + h)
                fp = g @ enc.forward(segment, entities)[0]
                enc.params[name] = np.array(orig - h)
                fm = g @ enc.forward(segment, entities)[0]
                enc.params[name] = np.array(orig)
                ana = float(grads[name])
            else:
                orig = flat[i]
                flat[i] = orig + h
                fp = g @ enc.forward(segment, entities)[0]
                flat[i] = orig - h
                fm = g @ enc.forward(segment, entities)[0]
                flat[i] = orig
                ana = grads[name].reshape(-1)[i]
            num = (fp - fm) / (2 * h)
            assert abs(num - ana) / max(abs(num), abs(ana), 1e-6) <= 1e-4
