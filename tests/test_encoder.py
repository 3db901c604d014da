import math
from dataclasses import replace

import numpy as np
import pytest

from falcon.backbone import SPACE_CODES, DeterministicStubBackbone
from falcon.encoder import (
    ENCODE_BUDGET,
    MARKERS,
    ArBertEncoder,
    ContextOverflowError,
    MarkedInputs,
    MarkerOverlapError,
    PackedInputs,
    attend,
    insert_markers,
    pack,
    pool_spans,
)
from falcon.ingest import INTERACTION_ROLES, TRAJECTORY_ROLES
from fixture_builders import (
    EntityMention,
    TextSegment,
    canonical_entities,
    unmarkable_views,
    views_of,
)


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


def test_whitespace_class_is_str_isspace():
    assert set(SPACE_CODES) == {c for c in range(0x110000) if chr(c).isspace()}


# Characters of one to four UTF-8 bytes, Unicode whitespace (a no-break
# space, a line separator, an ideographic space, and more), a zero-width
# space (not whitespace) and literal marker characters.
ALPHABET = list("ab,.'#$*&") + [" ", "\t", "\n", "\x1c", "\x85", "\xa0", "\u2003",
                                 "\u2028", "\u3000", "\u200b", "é", "ß", "€", "中",
                                 "\U0001d11e", "\U0001f600"]


def test_stub_tokenizer_matches_loop_reference():
    rng = np.random.default_rng(4)
    backbone = DeterministicStubBackbone(hidden_size=4)
    texts = ["".join(rng.choice(ALPHABET, int(rng.integers(0, 40)))) for _ in range(2000)]
    _assert_splice_matches_marked_text(backbone, [(text, []) for text in texts])


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


def test_encode_at_rows_equal_encode_and_oracle_at_random_positions():
    rng = np.random.default_rng(21)
    for d, max_tokens, win in ((4, 64, 2), (8, 64, 1), (16, 512, 3)):
        backbone = DeterministicStubBackbone(hidden_size=d, max_tokens=max_tokens,
                                             context_window=win)
        lengths = [0, 1, max_tokens] + [int(n) for n in rng.integers(1, max_tokens + 1, 30)]
        batch = [["".join(chr(c) for c in rng.integers(97, 123, int(rng.integers(1, 8))))
                  for _ in range(n)] for n in lengths]
        # random (input, position) pairs, some repeated, in no order, CLS included
        item = rng.integers(0, len(batch), 400)
        pos = (rng.random(400) * (np.array(lengths)[item] + 1)).astype(np.int64)
        pos[:len(batch)], item[:len(batch)] = 0, np.arange(len(batch))
        hidden = backbone.encode_at([[backbone.token_key(t) for t in tokens]
                                     for tokens in batch], item, pos)
        assert hidden.shape == (len(item), d)
        full = [backbone.encode(tokens) for tokens in batch]
        for b, tokens in enumerate(batch):
            rows, at = hidden[item == b], pos[item == b]
            assert rows.tobytes() == full[b][at].tobytes()
            assert rows.tobytes() == _stub_rows_formula(backbone, tokens)[at].tobytes()
            # math.sin and np.sin may differ in the last place
            assert np.allclose(rows, np.array(_stub_rows_oracle(tokens, d, win))[at],
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("pos", [-1, 4])
def test_encode_at_rejects_a_position_outside_its_input(pos):
    backbone = DeterministicStubBackbone(hidden_size=4)
    with pytest.raises(ValueError, match="out of range"):
        backbone.encode_at([np.ones(3), np.ones(5)], np.array([1, 0]), np.array([0, pos]))


# ---------------------------------------------------------------------------
# marker insertion

def entity_spans(marked):
    """Per entity, its occurrences' (first, last) hidden rows."""
    spans = [[] for _ in marked.roles]
    for slot, _, first, last in marked.occurrences.tolist():
        spans[slot].append((first, last))
    return [tuple(s) for s in spans]


def mark_one(segment, entities, backbone):
    """:func:`insert_markers` of one view, raising its error, and the view's
    tokens: the reference tokenizer's tokens of its marked text
    (:func:`_scan_token_spans`), in the window that puts its first
    occurrence on its marked row; each token's key is its ``token_key``."""
    marked, = insert_markers([views_of([(segment, entities)])], backbone)
    if marked.errors:
        raise marked.errors[0]
    marked_text, full_spans = _scan_token_spans(segment.text, canonical_entities(entities))
    offset = full_spans[0][0][0] - (entity_spans(marked)[0][0][0] - 1)
    tokens = [tok for tok, _, _ in _tokenize_loop(marked_text)][offset:offset + len(marked.keys)]
    assert marked.keys.tolist() == [backbone.token_key(t) for t in tokens]
    return marked, tokens


def test_marker_scheme_on_canonical_sentence():
    backbone = DeterministicStubBackbone(hidden_size=4)
    marked, tokens = mark_one(seg_of(FIG_TEXT), fig_entities(), backbone)
    assert tokens == ["#", "Niemans", "#", "met", "$", "Berg", "$", "in",
                      "&", "The", "Hague", "&", "in", "*", "1950", "*"]
    assert entity_spans(marked) == [((2, 2),), ((6, 6),), ((15, 15),), ((10, 11),)]


def test_trajectory_person_uses_hash_marker():
    text = "Niemans in The Hague in 1950"
    entities = [mention("Person", "Niemans", text), mention("Time", "1950", text),
                mention("Location", "The Hague", text)]
    backbone = DeterministicStubBackbone(hidden_size=4)
    tokens = mark_one(seg_of(text), entities, backbone)[1]
    assert tokens == ["#", "Niemans", "#", "in", "&", "The", "Hague", "&",
                      "in", "*", "1950", "*"]


def test_two_occurrences_both_wrapped():
    text = "Berg met Ada, and later Berg left in 1950 from Oslo"
    entities = [mention("Person1", "Ada", text), mention("Person2", "Berg", text),
                mention("Time", "1950", text), mention("Location", "Oslo", text)]
    backbone = DeterministicStubBackbone(hidden_size=4)
    marked, tokens = mark_one(seg_of(text), canonical_entities(entities), backbone)
    assert tokens.count("$") == 4
    berg_spans = entity_spans(marked)[1]
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
        marked, tokens = mark_one(seg_of(text), entities, backbone)
        marked_text = _scan_token_spans(text, entities)[0]
        ref = _tokenize_loop(marked_text)
        assert tokens == [tok for tok, _, _ in ref]
        for ent, spans in zip(entities, entity_spans(marked)):
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
        mark_one(seg_of(text), [p1, p2, t, l], backbone)


@pytest.mark.parametrize("before, after, offset", [(120, 120, None), (0, 120, 0), (120, 0, -63)],
                         ids=["middle", "start", "end"])
def test_window_selected_when_text_long(before, after, offset):
    # the window centers on the occurrences, clamped to the text's tokens
    text = "filler " * before + FIG_TEXT + " " + "filler " * after
    entities = [mention("Person1", "Niemans", text), mention("Person2", "Berg", text),
                mention("Time", "1950", text), mention("Location", "The Hague", text)]
    backbone = DeterministicStubBackbone(hidden_size=4, max_tokens=64)
    marked, tokens = mark_one(seg_of(text), entities, backbone)
    assert len(tokens) == 63
    marked_text, full_spans = _scan_token_spans(text, entities)
    ref = _tokenize_loop(marked_text)
    if offset is None:
        offset = full_spans[0][0][0] - (entity_spans(marked)[0][0][0] - 1)
    offset %= len(ref)
    assert tokens == [tok for tok, _, _ in ref[offset:offset + 63]]
    for ent, spans in zip(entities, entity_spans(marked)):
        for c, d in spans:
            toks = ref[offset + c - 1:offset + d]
            got = marked_text[toks[0][1]:toks[-1][2]]
            assert " ".join(got.split()).casefold() == ent.norm


def test_one_pass_marks_each_view_as_it_marks_it_alone_errors_included():
    backbone = DeterministicStubBackbone(hidden_size=4, max_tokens=32)
    views = unmarkable_views()
    names = ["ok", "overlap", "overflow", "empty", "ok", "overflow"]
    together, = insert_markers([views_of([views[name] for name in names])], backbone)
    errors = together.errors
    assert [type(errors[j]).__name__ if j in errors else None for j in range(len(names))] == [
        None, "MarkerOverlapError", "ContextOverflowError", "ValueError",
        None, "ContextOverflowError"]
    assert str(errors[1]) == "occurrence spans overlap near offset 2 (Time 'a me')"
    assert str(errors[2]) == ("context overflow: marked occurrences span 51 tokens, "
                              "window holds 31")
    assert str(errors[3]) == "occurrence of ' ' produced no tokens"
    for j, name in enumerate(names):
        alone, = insert_markers([views_of([views[name]])], backbone)
        got = together.take([j])
        if j in errors:
            assert type(errors[j]) is type(alone.errors[0])
            assert str(errors[j]) == str(alone.errors[0])
            assert not got.keys.size and not got.occurrences.size
        else:
            assert got.keys.tobytes() == alone.keys.tobytes()
            assert got.occurrences.tobytes() == alone.occurrences.tobytes()


def test_context_overflow_raises():
    gap = "gap " * 200
    text = "Niemans was here. " + gap + " Berg was there in 1950 near Oslo."
    entities = [mention("Person1", "Niemans", text), mention("Person2", "Berg", text),
                mention("Time", "1950", text), mention("Location", "Oslo", text)]
    backbone = DeterministicStubBackbone(hidden_size=4, max_tokens=32)
    with pytest.raises(ContextOverflowError, match="context overflow"):
        mark_one(seg_of(text), entities, backbone)


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


# One character for another, so every offset stays valid: letters of two,
# three and four UTF-8 bytes, Unicode whitespace for spaces and punctuation,
# and literal marker characters glued to the occurrences.
UNICODE = str.maketrans({"e": "é", "a": "€", "o": "\U0001d11e", "i": "中", " ": "\u3000",
                         ",": "\xa0", ".": "\u2028", "'": "#", "(": "$", "-": "&"})


@pytest.mark.parametrize("table", [None, UNICODE], ids=["ascii", "unicode"])
def test_token_spans_match_scan_reference(table):
    rng = np.random.default_rng(3)
    unbounded = DeterministicStubBackbone(hidden_size=4, max_tokens=10 ** 6)
    windowed = 0
    views, fulls = [], []
    for case in range(300):
        segment, entities = _random_segment(rng, 3 if case % 2 else 40)
        if table:
            segment = seg_of(segment.text.translate(table))
            entities = [replace(e, surface=e.surface.translate(table)) for e in entities]
        want_text, want = _scan_token_spans(segment.text, entities)
        full, full_tokens = mark_one(segment, entities, unbounded)
        assert full_tokens == [tok for tok, _, _ in _tokenize_loop(want_text)]
        assert entity_spans(full) == [tuple((c + 1, d + 1) for c, d in s) for s in want]
        # the smallest window that holds every occurrence, plus some slack
        lo = min(c for s in want for c, _ in s)
        hi = max(d for s in want for _, d in s)
        small = DeterministicStubBackbone(hidden_size=4,
                                          max_tokens=hi - lo + 2 + int(rng.integers(0, 4)))
        marked, tokens = mark_one(segment, entities, small)
        offset = entity_spans(full)[0][0][0] - entity_spans(marked)[0][0][0]
        windowed += offset > 0 or len(tokens) < len(full_tokens)
        assert tokens == full_tokens[offset:offset + len(tokens)]
        assert entity_spans(marked) == [
            tuple((c - offset + 1, d - offset + 1) for c, d in s) for s in want]
        views.append((segment, entities))
        fulls.append(full)
    assert windowed > 100
    # one pass over every view marks each view as it marks it alone
    together, = insert_markers([views_of(views)], unbounded)
    for j, alone in enumerate(fulls):
        assert together.take([j]).keys.tobytes() == alone.keys.tobytes()
        assert together.take([j]).occurrences.tobytes() == alone.occurrences.tobytes()


def _cuts(entities):
    """The (offset, marker) cuts :func:`insert_markers` makes for ``entities``."""
    flat = sorted((start, end, ent.role) for ent in entities for start, end in ent.occurrences)
    return [cut for start, end, role in flat
            for cut in ((start, MARKERS[role]), (end, MARKERS[role]))]


def _assert_splice_matches_marked_text(backbone, views):
    """Tokenize (text, cuts) views in one pass. Each view's keys are the
    ``token_key`` of each of the loop tokenizer's tokens over its marked
    text, and each bracket is its marker's token. Returns per view those
    tokens and the brackets."""
    texts = {}
    view_text = [texts.setdefault(text, len(texts)) for text, _ in views]
    cuts = [(v, offset, marker) for v, (_, view_cuts) in enumerate(views)
            for offset, marker in view_cuts]
    keys, bounds, brackets = backbone.tokenize_views(
        list(texts), np.array(view_text, dtype=np.int64),
        np.array([v for v, _, _ in cuts], dtype=np.int64),
        np.array([offset for _, offset, _ in cuts], dtype=np.int64),
        np.array([ord(marker) for _, _, marker in cuts], dtype=np.int64))
    out, k = [], 0
    for v, (text, view_cuts) in enumerate(views):
        marked_text = mark(text, view_cuts)
        ref = _tokenize_loop(marked_text)
        tokens = [tok for tok, _, _ in ref]
        assert keys[bounds[v]:bounds[v + 1]].tolist() == [backbone.token_key(t) for t in tokens]
        view_brackets = brackets[k:k + len(view_cuts)].tolist()
        k += len(view_cuts)
        assert [tokens[b] for b in view_brackets] == [marker for _, marker in view_cuts]
        # cut j's marker is the token that starts at offset + j of the marked text
        starts = [start for _, start, _ in ref]
        assert view_brackets == [starts.index(offset + j)
                                 for j, (offset, _) in enumerate(view_cuts)]
        out.append((tokens, view_brackets))
    return out


def test_spliced_tokens_match_marked_text_on_random_segments():
    rng = np.random.default_rng(5)
    backbone = DeterministicStubBackbone(hidden_size=4)
    views = []
    for case in range(300):
        segment, entities = _random_segment(rng, 3 if case % 2 else 40)
        views.append((segment.text, _cuts(entities)))
    _assert_splice_matches_marked_text(backbone, views)


def test_spliced_tokens_match_marked_text_on_random_cuts():
    # cuts anywhere: inside tokens, in whitespace, next to literal markers, stacked
    rng = np.random.default_rng(6)
    backbone = DeterministicStubBackbone(hidden_size=4)
    views = []
    for _ in range(2000):
        text = "".join(rng.choice(list("ab  #$*&\t"), int(rng.integers(0, 30))))
        offsets = np.sort(rng.integers(0, len(text) + 1, 2 * int(rng.integers(1, 5))))
        markers = rng.choice(list("#$*&"), len(offsets) // 2)
        views.append((text, [(int(offset), str(markers[k // 2]))
                             for k, offset in enumerate(offsets)]))
    _assert_splice_matches_marked_text(backbone, views)


def test_spliced_tokens_match_marked_text_on_unicode_views_of_shared_texts():
    # three views of each text, some with no cut; non-ASCII letters, Unicode
    # whitespace, literal markers and stacked cuts
    rng = np.random.default_rng(8)
    backbone = DeterministicStubBackbone(hidden_size=4)
    views = []
    for _ in range(700):
        text = "".join(rng.choice(ALPHABET, int(rng.integers(0, 30))))
        for _ in range(3):
            offsets = np.sort(rng.integers(0, len(text) + 1, 2 * int(rng.integers(0, 5))))
            markers = rng.choice(list("#$*&"), len(offsets) // 2)
            views.append((text, [(int(offset), str(markers[k // 2]))
                                 for k, offset in enumerate(offsets)]))
    _assert_splice_matches_marked_text(backbone, views)


def test_splice_hand_cases():
    backbone = DeterministicStubBackbone(hidden_size=4)
    # a cut inside a token splits it there and nowhere else
    assert _assert_splice_matches_marked_text(
        backbone, [("xBergy met Ada", [(1, "$"), (5, "$")])]) == [(
            ["x", "$", "Berg", "$", "y", "met", "Ada"], [1, 3])]
    # literal marker characters in the text stay tokens of their own
    assert _assert_splice_matches_marked_text(
        backbone, [("a#b $c* &d& e", [(2, "#"), (3, "#"), (9, "&"), (10, "&")])]) == [(
            ["a", "#", "#", "b", "#", "$", "c", "*", "&", "&", "d", "&", "&", "e"],
            [2, 4, 9, 11])]
    # adjacent occurrences: two cuts at one offset
    assert _assert_splice_matches_marked_text(
        backbone, [("AdaBerg met", [(0, "#"), (3, "#"), (3, "$"), (7, "$")])]) == [(
            ["#", "Ada", "#", "$", "Berg", "$", "met"], [0, 2, 3, 5])]
    text = "AdaBerg met in Oslo in 1950"
    entities = [mention("Person1", "Ada", text), mention("Person2", "Berg", text),
                mention("Time", "1950", text), mention("Location", "Oslo", text)]
    marked, tokens = mark_one(seg_of(text), entities, backbone)
    assert [tokens[c - 1:d] for spans in entity_spans(marked) for c, d in spans] == [
        ["Ada"], ["Berg"], ["1950"], ["Oslo"]]


def _assert_packs_equal(a, b):
    assert a.roles == b.roles
    for x, y in ((a.cls, b.cls), (a.occ, b.occ), (a.mask, b.mask)):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


def _long_occurrence_segment(words):
    """A segment whose Person1 occurrence is ``words`` words long."""
    surface = " ".join(["Ada"] * words)
    text = f"{surface} met Berg in Oslo in 1950"
    return seg_of(text), [EntityMention("Person1", surface, ((0, len(surface)),)),
                          mention("Person2", "Berg", text), mention("Location", "Oslo", text),
                          mention("Time", "1950", text)]


def test_encode_marked_keeps_each_backbone_call_within_budget(monkeypatch):
    rng = np.random.default_rng(9)
    calls = []  # per backbone call: (inputs, item, pos)
    encode_at = DeterministicStubBackbone.encode_at

    def counting(self, inputs, item, pos):
        calls.append((inputs, item, pos))
        return encode_at(self, inputs, item, pos)

    monkeypatch.setattr(DeterministicStubBackbone, "encode_at", counting)
    enc = ArBertEncoder(DeterministicStubBackbone(hidden_size=4, max_tokens=10 ** 6))
    views = [_random_segment(rng, 3 if case % 2 else 300) for case in range(300)]
    views[150:150] = [_long_occurrence_segment(ENCODE_BUDGET + 20)]
    marked, = enc.mark([views_of(views)])
    packed = enc.encode_marked(marked)
    assert sum(len(inputs) for inputs, _, _ in calls) == len(marked) and len(calls) > 5
    # at most ENCODE_BUDGET rows a call, unless the call holds one input that
    # needs more (the long occurrence)
    assert all(len(item) <= ENCODE_BUDGET or len(inputs) == 1 for inputs, item, _ in calls)
    assert any(len(item) > ENCODE_BUDGET for _, item, _ in calls)
    # across calls, each CLS row and each row inside an occurrence span, once
    computed, done = [], 0
    for inputs, item, pos in calls:
        for j, keys in enumerate(inputs):
            assert keys.tobytes() == marked.take([done + j]).keys.tobytes()
        computed += zip((done + item).tolist(), pos.tolist())
        done += len(inputs)
    read = {(i, 0) for i in range(len(marked))} | {
        (i, p) for i in range(len(marked)) for _, _, a, b in marked.take([i]).occurrences.tolist()
        for p in range(a, b + 1)}
    assert len(computed) == len(read) and set(computed) == read
    calls.clear()
    one_by_one = [enc.encode_marked(marked.take([i])) for i in range(len(marked))]
    assert len(calls) == len(marked)
    _assert_packs_equal(packed, pack(one_by_one))


def _pooled_by_full_encode(backbone, marked, tokens):
    """The pack of one marked input by the backbone's full hidden matrix of
    its tokens and a mean per span."""
    hidden = backbone.encode(tokens)
    occ = np.zeros((1, len(marked.roles), int(marked.occurrences[:, 1].max()) + 1,
                    backbone.hidden_size))
    mask = np.zeros(occ.shape[:3], dtype=bool)
    for s, o, first, last in marked.occurrences.tolist():
        occ[0, s, o] = hidden[first:last + 1].mean(axis=0)
        mask[0, s, o] = True
    return PackedInputs(marked.roles, hidden[:1], occ, mask)


def _one_input(roles, keys, occurrences):
    """:class:`MarkedInputs` of one input."""
    return MarkedInputs(roles, keys, np.array([0, len(keys)]), occurrences,
                        np.array([0, len(occurrences)]), {})


def _one_token_inputs(backbone, words):
    """Trajectory inputs of one token, every occurrence on it, and one of two
    tokens: not what marking makes (its markers are tokens too, and no two
    occurrences share a row), but inputs that encode_marked pools all the
    same."""
    out = []
    for tokens in ([w] for w in words):
        occurrences = np.array([[s, 0, 1, 1] for s in range(3)], dtype=np.int64)
        keys = np.array([backbone.token_key(t) for t in tokens])
        out.append((_one_input(TRAJECTORY_ROLES, keys, occurrences), tokens))
    tokens = words[:2]
    occurrences = np.array([[0, 0, 1, 2], [1, 0, 1, 1], [2, 0, 2, 2]], dtype=np.int64)
    keys = np.array([backbone.token_key(t) for t in tokens])
    out.append((_one_input(TRAJECTORY_ROLES, keys, occurrences), tokens))
    return out


@pytest.mark.parametrize("hidden_size", [4, 8, 16, 768])
@pytest.mark.parametrize("window", [1, 2, 3])
def test_encode_marked_equals_full_encode_and_span_means(hidden_size, window):
    rng = np.random.default_rng(100 * hidden_size + window)
    wide = DeterministicStubBackbone(hidden_size, 10 ** 6, window)
    cases = []  # (backbone, marked, tokens), one backbone per max_tokens
    views = [_random_segment(rng, int(rng.integers(0, 12))) for _ in range(24)]
    views += [_long_occurrence_segment(2 * window + 2 + int(rng.integers(0, 6)))
              for _ in range(3)]
    views += [(segment, [replace(person, role="Person"), *rest])  # trajectory views
              for segment, (person, _, *rest) in views[::2]]
    for segment, entities in views:
        marked, tokens = mark_one(segment, entities, wide)
        cases.append((wide, marked, tokens))
        # windowed: tight around the occurrences (they touch the first and
        # the last token), then a little wider
        rows = marked.occurrences[:, 2:]
        tight = int(rows.max() - rows.min()) + 2
        for max_tokens in (tight, tight + int(rng.integers(1, 4))):
            if max_tokens <= len(tokens):
                narrow = DeterministicStubBackbone(hidden_size, max_tokens, window)
                cases.append((narrow, *mark_one(segment, entities, narrow)))
    assert any(m.occurrences[:, 2].min() == 1 and m.occurrences[:, 3].max() == len(m.keys)
               for _, m, _ in cases)
    enc = ArBertEncoder(wide)  # no parameter reaches encode_marked
    for backbone, marked, tokens in cases:
        enc.backbone = backbone
        _assert_packs_equal(enc.encode_marked(marked),
                            _pooled_by_full_encode(backbone, marked, tokens))
    # many inputs in one call, one-token inputs among them
    enc.backbone = wide
    for layout in (INTERACTION_ROLES, TRAJECTORY_ROLES):
        batch = [(m, t) for b, m, t in cases if b is wide and m.roles == layout]
        if layout == TRAJECTORY_ROLES:
            batch += _one_token_inputs(wide, ["Ada", "Oslo", "#"])
        rng.shuffle(batch)
        _assert_packs_equal(enc.encode_marked(MarkedInputs.concat([m for m, _ in batch])),
                            pack([_pooled_by_full_encode(wide, m, t) for m, t in batch]))


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
        (vector,), cache = enc.forward(views_of([(seg_of(FIG_TEXT), fig_entities())]))
        assert vector.shape == (len(cache.slots) * d,) == (5 * d,)
    text = "Niemans in The Hague in 1950"
    entities = [mention("Person", "Niemans", text), mention("Time", "1950", text),
                mention("Location", "The Hague", text)]
    for d in (4, 768):
        enc = ArBertEncoder(DeterministicStubBackbone(hidden_size=d), seed=0)
        (vector,), cache = enc.forward(views_of([(seg_of(text), entities)]))
        assert vector.shape == (len(cache.slots) * d,) == (4 * d,)


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
    got = enc.forward(views_of([(segment, entities)]))[0][0]

    # oracle: replay every stage with independent scalar arithmetic
    marked, tokens = mark_one(segment, entities, backbone)
    rows = _stub_rows_oracle(tokens, d)

    def project(key, vec):
        w = enc.params[f"proj.{key}.W"]
        b = enc.params[f"proj.{key}.b"]
        tan = [math.tanh(x) for x in vec]
        return [sum(w[i][j] * tan[j] for j in range(d)) + b[i] for i in range(d)]

    expected = list(project("cls", rows[0]))
    for ent, spans in zip(entities, entity_spans(marked)):
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
        enc.forward(views_of([(seg_of(text), entities)]))


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

    views = views_of([(segment, entities)])
    out, cache = enc.forward(views)
    grads = enc.zero_grads()
    enc.backward(g, cache)

    h = 1e-6
    for name in ("attn.w", "attn.b"):
        p = enc.params[name]
        for i in range(max(1, p.size)):
            flat = p.reshape(-1) if p.ndim else None
            if p.ndim == 0:
                orig = float(p)
                enc.params[name][...] = orig + h
                fp = g @ enc.forward(views)[0][0]
                enc.params[name][...] = orig - h
                fm = g @ enc.forward(views)[0][0]
                enc.params[name][...] = orig
                ana = float(grads[name])
            else:
                orig = flat[i]
                flat[i] = orig + h
                fp = g @ enc.forward(views)[0][0]
                flat[i] = orig - h
                fm = g @ enc.forward(views)[0][0]
                flat[i] = orig
                ana = grads[name].reshape(-1)[i]
            num = (fp - fm) / (2 * h)
            assert abs(num - ana) / max(abs(num), abs(ana), 1e-6) <= 1e-4
