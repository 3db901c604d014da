import math

import numpy as np
import pytest

from falcon.backbone import DeterministicStubBackbone, _scan
from falcon.encoder import (
    ENCODE_BUDGET,
    MARKERS,
    ArBertEncoder,
    ContextOverflowError,
    MarkerOverlapError,
    attend,
    canonical_entities,
    insert_markers,
    pack,
    pool_spans,
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


def _tokenize_loop(text):
    """Reference tokenizer, as (text, start, end) per token: runs split at
    ``str.isspace`` and marker characters, each marker character a token of
    its own."""
    tokens, i = [], 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        j = i + 1
        if text[i] not in "#$*&":
            while j < len(text) and not text[j].isspace() and text[j] not in "#$*&":
                j += 1
        tokens.append((text[i:j], i, j))
        i = j
    return tokens


def test_stub_tokenizer_matches_loop_reference():
    rng = np.random.default_rng(4)
    alphabet = list("ab,.'#$*&") + [" ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u2003",
                                     "\u3000", "\u200b", "é"]
    for _ in range(2000):
        text = "".join(rng.choice(alphabet, int(rng.integers(0, 40))))
        assert list(zip(*_scan(text))) == _tokenize_loop(text)


def _stub_rows_formula(backbone, tokens):
    """The stub's formula over one token list in NumPy, its windowed mean
    taken by a loop: the same operations as the stub, so equal bit for bit."""
    keys = np.array([backbone.token_key(t) for t in ["[CLS]"] + list(tokens)])
    local = _windowed_mean_loop(keys, backbone.context_window)
    pos = np.arange(1, len(keys) + 1)[:, None]
    dims = np.arange(1, backbone.hidden_size + 1)[None, :]
    return (np.sin(pos * dims * 0.7 + 2.0 * math.pi * keys[:, None])
            + 0.5 * np.cos(dims * (1.0 + keys.mean()))
            + 0.7 * np.sin(dims * 2.1 + 2.0 * math.pi * local[:, None]))


def test_stub_windowed_mean_matches_loop_formula_bit_for_bit():
    rng = np.random.default_rng(12)
    for win in (1, 2, 3):
        backbone = DeterministicStubBackbone(hidden_size=4, context_window=win)
        # n tokens plus CLS: every sequence length from 1 to 2 * win + 3, then random
        lengths = list(range(2 * win + 3)) + [int(n) for n in rng.integers(1, 200, 40)]
        for n in lengths:
            tokens = ["".join(chr(c) for c in rng.integers(97, 123, 5)) for _ in range(n)]
            assert np.array_equal(backbone.encode(tokens), _stub_rows_formula(backbone, tokens))


def test_encode_batch_rows_equal_encode_and_oracle_on_ragged_batches():
    rng = np.random.default_rng(21)
    for d, max_tokens in ((4, 64), (8, 64), (16, 512)):
        backbone = DeterministicStubBackbone(hidden_size=d, max_tokens=max_tokens)
        lengths = [1, max_tokens] + [int(n) for n in rng.integers(1, max_tokens + 1, 30)]
        batch = [["".join(chr(c) for c in rng.integers(97, 123, int(rng.integers(1, 8))))
                  for _ in range(n)] for n in lengths]
        hidden = backbone.encode_batch(batch)
        assert hidden.shape == (len(batch), max_tokens + 1, d)
        for b, tokens in enumerate(batch):
            rows = hidden[b, :len(tokens) + 1]
            assert rows.tobytes() == backbone.encode(tokens).tobytes()
            assert rows.tobytes() == _stub_rows_formula(backbone, tokens).tobytes()
            # math.sin and np.sin may differ in the last place
            assert np.allclose(rows, _stub_rows_oracle(tokens, d), rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# marker insertion

def test_marker_scheme_on_canonical_sentence():
    backbone = DeterministicStubBackbone(hidden_size=4)
    marked = insert_markers(seg_of(FIG_TEXT), fig_entities(), backbone)
    assert marked.tokens == ["#", "Niemans", "#", "met", "$", "Berg", "$", "in",
                             "&", "The", "Hague", "&", "in", "*", "1950", "*"]
    assert marked.entity_spans == [((2, 2),), ((6, 6),), ((15, 15),), ((10, 11),)]


def test_trajectory_person_uses_hash_marker():
    text = "Niemans in The Hague in 1950"
    entities = [mention("Person", "Niemans", text), mention("Time", "1950", text),
                mention("Location", "The Hague", text)]
    backbone = DeterministicStubBackbone(hidden_size=4)
    marked = insert_markers(seg_of(text), entities, backbone)
    assert marked.tokens == ["#", "Niemans", "#", "in", "&", "The", "Hague", "&",
                             "in", "*", "1950", "*"]


def test_two_occurrences_both_wrapped():
    text = "Berg met Ada, and later Berg left in 1950 from Oslo"
    entities = [mention("Person1", "Ada", text), mention("Person2", "Berg", text),
                mention("Time", "1950", text), mention("Location", "Oslo", text)]
    backbone = DeterministicStubBackbone(hidden_size=4)
    marked = insert_markers(seg_of(text), canonical_entities(entities), backbone)
    assert marked.tokens.count("$") == 4
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
        marked_text = _scan_token_spans(text, entities)[0]
        ref = _tokenize_loop(marked_text)
        assert marked.tokens == [tok for tok, _, _ in ref]
        for ent, spans in zip(entities, marked.entity_spans):
            for c, d in spans:
                # matrix coords -> token coords
                start, end = ref[c - 1][1], ref[d - 1][2]
                recovered = marked_text[start:end]
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
    marked_text, full_spans = _scan_token_spans(text, entities)
    ref = _tokenize_loop(marked_text)
    offset = full_spans[0][0][0] - (marked.entity_spans[0][0][0] - 1)
    assert marked.tokens == [tok for tok, _, _ in ref[offset:offset + 63]]
    for ent, spans in zip(entities, marked.entity_spans):
        for c, d in spans:
            toks = ref[offset + c - 1:offset + d]
            got = marked_text[toks[0][1]:toks[-1][2]]
            assert " ".join(got.split()).casefold() == ent.norm


def test_context_overflow_raises():
    gap = "gap " * 200
    text = "Niemans was here. " + gap + " Berg was there in 1950 near Oslo."
    entities = [mention("Person1", "Niemans", text), mention("Person2", "Berg", text),
                mention("Time", "1950", text), mention("Location", "Oslo", text)]
    backbone = DeterministicStubBackbone(hidden_size=4, max_tokens=32)
    with pytest.raises(ContextOverflowError, match="context overflow"):
        insert_markers(seg_of(text), entities, backbone)


def mark(text, cuts):
    """``text`` with the marker of each (offset, marker) cut inserted at its
    offset; the cuts ascend."""
    pieces, pos = [], 0
    for offset, marker in cuts:
        pieces += [text[pos:offset], marker]
        pos = offset
    pieces.append(text[pos:])
    return "".join(pieces)


def _scan_token_spans(text, entities):
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
    tokens = _tokenize_loop(marked_text)
    spans = [[] for _ in entities]
    for (ei, oi), (s, e) in sorted(shifted.items()):
        inside = [ti for ti, (_, start, end) in enumerate(tokens) if start >= s and end <= e]
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
        want_text, want = _scan_token_spans(segment.text, entities)
        full = insert_markers(segment, entities, unbounded)
        assert full.tokens == [tok for tok, _, _ in _tokenize_loop(want_text)]
        assert full.entity_spans == [tuple((c + 1, d + 1) for c, d in s) for s in want]
        # the smallest window that holds every occurrence, plus some slack
        lo = min(c for s in want for c, _ in s)
        hi = max(d for s in want for _, d in s)
        small = DeterministicStubBackbone(hidden_size=4,
                                          max_tokens=hi - lo + 2 + int(rng.integers(0, 4)))
        marked = insert_markers(segment, entities, small)
        offset = full.entity_spans[0][0][0] - marked.entity_spans[0][0][0]
        windowed += offset > 0 or len(marked.tokens) < len(full.tokens)
        assert marked.tokens == full.tokens[offset:offset + len(marked.tokens)]
        assert marked.entity_spans == [tuple((c - offset + 1, d - offset + 1) for c, d in s)
                                       for s in want]
    assert windowed > 100


def _cuts(entities):
    """The (offset, marker) cuts :func:`insert_markers` makes for ``entities``."""
    flat = sorted((start, end, ent.role) for ent in entities for start, end in ent.occurrences)
    return [cut for start, end, role in flat
            for cut in ((start, MARKERS[role]), (end, MARKERS[role]))]


def _assert_splice_matches_marked_text(backbone, text, cuts):
    """The stub's spliced tokens equal the tokens of the marked text, and
    each bracket is its marker's token."""
    ref = _tokenize_loop(mark(text, cuts))
    tokens, brackets = backbone.tokenize_marked(text, cuts)
    assert tokens == [tok for tok, _, _ in ref]
    assert [tokens[b] for b in brackets] == [marker for _, marker in cuts]
    # cut k's marker is the token that starts at offset + k of the marked text
    starts = [start for _, start, _ in ref]
    assert brackets == [starts.index(offset + k) for k, (offset, _) in enumerate(cuts)]
    return tokens, brackets


def test_spliced_tokens_match_marked_text_on_random_segments():
    rng = np.random.default_rng(5)
    backbone = DeterministicStubBackbone(hidden_size=4)
    for case in range(300):
        segment, entities = _random_segment(rng, 3 if case % 2 else 40)
        _assert_splice_matches_marked_text(backbone, segment.text, _cuts(entities))


def test_spliced_tokens_match_marked_text_on_random_cuts():
    # cuts anywhere: inside tokens, in whitespace, next to literal markers, stacked
    rng = np.random.default_rng(6)
    backbone = DeterministicStubBackbone(hidden_size=4)
    for _ in range(2000):
        text = "".join(rng.choice(list("ab  #$*&\t"), int(rng.integers(0, 30))))
        offsets = np.sort(rng.integers(0, len(text) + 1, 2 * int(rng.integers(1, 5))))
        markers = rng.choice(list("#$*&"), len(offsets) // 2)
        cuts = [(int(offset), str(markers[k // 2])) for k, offset in enumerate(offsets)]
        _assert_splice_matches_marked_text(backbone, text, cuts)


def test_splice_hand_cases():
    backbone = DeterministicStubBackbone(hidden_size=4)
    # a cut inside a token splits it there and nowhere else
    assert _assert_splice_matches_marked_text(
        backbone, "xBergy met Ada", [(1, "$"), (5, "$")]) == (
        ["x", "$", "Berg", "$", "y", "met", "Ada"], [1, 3])
    # literal marker characters in the text stay tokens of their own
    assert _assert_splice_matches_marked_text(
        backbone, "a#b $c* &d& e", [(2, "#"), (3, "#"), (9, "&"), (10, "&")]) == (
        ["a", "#", "#", "b", "#", "$", "c", "*", "&", "&", "d", "&", "&", "e"],
        [2, 4, 9, 11])
    # adjacent occurrences: two cuts at one offset
    assert _assert_splice_matches_marked_text(
        backbone, "AdaBerg met", [(0, "#"), (3, "#"), (3, "$"), (7, "$")]) == (
        ["#", "Ada", "#", "$", "Berg", "$", "met"], [0, 2, 3, 5])
    text = "AdaBerg met in Oslo in 1950"
    entities = [mention("Person1", "Ada", text), mention("Person2", "Berg", text),
                mention("Time", "1950", text), mention("Location", "Oslo", text)]
    marked = insert_markers(seg_of(text), entities, backbone)
    assert [marked.tokens[c - 1:d] for spans in marked.entity_spans for c, d in spans] == [
        ["Ada"], ["Berg"], ["1950"], ["Oslo"]]


def _assert_packs_equal(a, b):
    assert a.roles == b.roles
    for x, y in ((a.cls, b.cls), (a.occ, b.occ), (a.mask, b.mask)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def test_encode_marked_keeps_each_backbone_call_within_budget(monkeypatch):
    rng = np.random.default_rng(9)
    calls = []
    encode_batch = DeterministicStubBackbone.encode_batch

    def counting(self, batch):
        calls.append((len(batch), 1 + max(map(len, batch))))
        return encode_batch(self, batch)

    monkeypatch.setattr(DeterministicStubBackbone, "encode_batch", counting)
    enc = ArBertEncoder(DeterministicStubBackbone(hidden_size=4, max_tokens=10 ** 6))
    marked = [enc.mark(*_random_segment(rng, 3 if case % 2 else 300)) for case in range(300)]
    packed = enc.encode_marked(marked)
    assert sum(n for n, _ in calls) == len(marked) and len(calls) > 5
    assert any(rows > ENCODE_BUDGET for _, rows in calls)  # an input longer than the budget
    assert all(n * rows <= ENCODE_BUDGET or n == 1 for n, rows in calls)
    calls.clear()
    one_by_one = [enc.encode_marked([m]) for m in marked]
    assert len(calls) == len(marked)
    _assert_packs_equal(packed, pack(one_by_one))


# ---------------------------------------------------------------------------
# pooling

def pool_one(hidden, span):
    """:func:`pool_spans` of one span."""
    return pool_spans(hidden, np.array([span[0]]), np.array([span[1]]))[0]


def test_pool_single_token_is_that_row():
    hidden = np.arange(20.0).reshape(5, 4)
    assert np.array_equal(pool_one(hidden, (2, 2)), hidden[2])


def test_pool_identical_rows_returns_the_row():
    v = np.array([1.0, -2.0, 0.5, 3.0])
    hidden = np.stack([v, v, v])
    assert np.allclose(pool_one(hidden, (1, 2)), v)


def test_pool_matches_hand_mean():
    rng = np.random.default_rng(0)
    hidden = rng.normal(size=(5, 4))
    got = pool_one(hidden, (1, 3))
    # oracle: explicit scalar re-summation
    want = np.array([sum(hidden[t][j] for t in (1, 2, 3)) / 3.0 for j in range(4)])
    assert np.allclose(got, want, atol=1e-12)


def test_batched_pooling_equals_per_span_mean():
    rng = np.random.default_rng(10)
    for case in range(3000):
        d = (4, 8, 16, 768)[case % 4]
        hidden = rng.normal(size=(int(rng.integers(1, 60)), d))
        first = rng.integers(0, len(hidden), int(rng.integers(1, 6)))
        last = np.array([rng.integers(c, len(hidden)) for c in first])
        got = pool_spans(hidden, first, last)
        for m, (c, e) in enumerate(zip(first, last)):
            assert got[m].tobytes() == hidden[c:e + 1].mean(axis=0).tobytes()


def test_pool_out_of_range_is_error():
    hidden = np.zeros((3, 4))
    for span in ((2, 3), (-1, 1), (2, 1)):
        with pytest.raises(ValueError):
            pool_one(hidden, span)
    with pytest.raises(ValueError):
        pool_spans(hidden, np.array([0, 1]), np.array([2, 3]))


# ---------------------------------------------------------------------------
# occurrence aggregation

def attend_all(occ, w, b):
    """:func:`attend` over the (k, d) occurrences of one entity, all of them
    real: (scores, weights, aggregated)."""
    return attend(occ, np.ones(len(occ), dtype=bool), w, b)


def test_single_occurrence_weight_is_one_regardless_of_params():
    rng = np.random.default_rng(1)
    for _ in range(5):
        occ = rng.normal(size=(1, 4))
        w = rng.normal(size=4)
        b = float(rng.normal())
        _, weights, aggregated = attend_all(occ, w, b)
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


def test_padding_and_batch_leave_attention_bits_unchanged():
    # An entity with k occurrences attended alone, and packed beside one
    # with 12 occurrences, which pads it past the 8 entries where np.sum
    # switches to pairwise adding.
    rng = np.random.default_rng(4)
    w, b = rng.normal(size=8), 0.1
    wide = rng.normal(size=(12, 8))
    for k in [*range(1, 9)] * 20:
        occ = rng.normal(size=(k, 8))
        alone = attend_all(occ, w, b)
        padded = np.zeros((2, 12, 8))
        padded[0, :k], padded[1] = occ, wide
        mask = np.zeros((2, 12), dtype=bool)
        mask[0, :k] = mask[1] = True
        scores, weights, agg = attend(padded, mask, w, b)
        assert (scores[0, :k] == alone[0]).all(), k
        assert (weights[0, :k] == alone[1]).all() and (weights[0, k:] == 0).all(), k
        assert (agg[0] == alone[2]).all(), k


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
    rows = _stub_rows_oracle(marked.tokens, d)

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
