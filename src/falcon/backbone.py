"""The backbone beneath the entity encoder: marked text in, token rows out.

A closed-form deterministic stub stands in for the paper's pretrained BERT,
whose weights this package does not hold. It tokenizes many marked views of
many texts in one array pass (:meth:`DeterministicStubBackbone.tokenize_views`),
each token reduced to its float input key. An input's hidden matrix has
one row per token plus CLS (row 0), and the stub computes only the rows
asked for, at (input, position) pairs of many inputs in one call
(:meth:`DeterministicStubBackbone.encode_at`).
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Sequence

import numpy as np

# The marker spliced around each entity mention, per role.
MARKERS = {"Person1": "#", "Person2": "$", "Time": "*", "Location": "&", "Person": "#"}

# The code points of ``str.isspace`` (what ``\s`` matches), all below 0x3001.
SPACE_CODES = (0x9, 0xA, 0xB, 0xC, 0xD, 0x1C, 0x1D, 0x1E, 0x1F, 0x20, 0x85, 0xA0,
               0x1680, *range(0x2000, 0x200B), 0x2028, 0x2029, 0x202F, 0x205F, 0x3000)

_WORD, _SPACE, _MARKER = 0, 1, 2


def _char_classes() -> np.ndarray:
    """The class of each code point up to the last space, and one entry past
    it for every higher code point."""
    classes = bytearray(max(SPACE_CODES) + 2)  # _WORD
    for code in SPACE_CODES:
        classes[code] = _SPACE
    for marker in MARKERS.values():
        classes[ord(marker)] = _MARKER
    return np.frombuffer(bytes(classes), dtype=np.uint8)


_CHAR_CLASS = _char_classes()

# token_key's hash: a token's UTF-8 byte sum times _KEY_MUL, modulo _KEY_MOD.
_KEY_MUL, _KEY_MOD = 2654435761, 1000003


def _utf8_byte_sums(codes: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The sum of the UTF-8 bytes of each code point, into ``out`` (int64)
    when given."""
    out = np.empty(len(codes), dtype=np.int64) if out is None else out
    out[:] = codes  # an ASCII character is its one byte
    wide = np.flatnonzero(codes >= 0x80)
    if len(wide):
        c = out[wide]
        low, mid, high = (0x80 | (c >> shift) & 0x3F for shift in (0, 6, 12))
        out[wide] = np.select([c < 0x800, c < 0x10000],
                              [(0xC0 | c >> 6) + low, (0xE0 | c >> 12) + mid + low],
                              (0xF0 | c >> 18) + high + mid + low)
    return out


def _keys(byte_sums: np.ndarray) -> np.ndarray:
    """:meth:`DeterministicStubBackbone.token_key` of tokens with these UTF-8
    byte sums (int64, overwritten), reduced modulo _KEY_MOD first so no
    product overflows."""
    byte_sums %= _KEY_MOD
    byte_sums *= _KEY_MUL % _KEY_MOD
    byte_sums %= _KEY_MOD
    return byte_sums / _KEY_MOD


def _scan_joined(text: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The tokens of ``text`` as (starts, ends), and the sum of the UTF-8
    bytes of its characters before each offset."""
    codes = np.frombuffer(text.encode("utf-32-le"), dtype=np.uint32)
    kind = _CHAR_CLASS[np.minimum(codes, len(_CHAR_CLASS) - 1, dtype=np.intp)]
    cum = np.zeros(len(codes) + 1, dtype=np.int64)
    np.cumsum(_utf8_byte_sums(codes, cum[1:]), out=cum[1:])
    del codes  # the per-character arrays are a fill's peak memory: each goes once read
    word, marker = kind == _WORD, kind == _MARKER
    del kind
    edge = np.diff(word, prepend=False, append=False)  # True where a word run starts or ends
    return (np.flatnonzero(marker | edge[:-1] & word),
            np.flatnonzero(marker | edge[1:] & word) + 1, cum)


class DeterministicStubBackbone:
    """Closed-form pseudo-embeddings: position- and token-dependent sinusoids
    plus global and windowed context terms, so the CLS row responds to the
    whole input and each token row responds to its neighborhood. Exists to
    make tests and fixtures runnable (and hand-checkable) without any
    pretrained model.

    Its tokens are runs of characters that are neither ``str.isspace`` nor a
    marker character, and each marker character alone. A token enters the
    formula as its key (:meth:`token_key`).
    """

    def __init__(self, hidden_size: int = 4, max_tokens: int = 512,
                 context_window: int = 2):
        self.hidden_size = hidden_size
        self.max_tokens = max_tokens
        self.context_window = context_window

    @staticmethod
    @lru_cache(maxsize=1 << 16)
    def token_key(token: str) -> float:
        total = sum(token.encode("utf-8"))
        return ((total * _KEY_MUL) % _KEY_MOD) / _KEY_MOD

    def tokenize_views(self, texts: Sequence[str], view_text: np.ndarray,
                       cut_view: np.ndarray, cut_offset: np.ndarray, cut_marker: np.ndarray):
        """The tokens of many marked views in one array pass.

        View v is ``texts[view_text[v]]`` with the marker of each of its cuts
        inserted: cut k puts the character ``chr(cut_marker[k])`` at offset
        ``cut_offset[k]`` of view ``cut_view[k]``. The cuts are grouped by
        view, in view order, and ascend within a view. A marker ends a
        token, so a cut splits the token it falls inside and leaves the rest
        whole.

        Returns (keys, bounds, brackets), the tokens of every view one view
        after another: view v's tokens are ``bounds[v]:bounds[v + 1]``;
        ``keys`` holds each token's :meth:`token_key`, and ``brackets[k]`` the
        index of cut k's marker among its view's tokens.
        """
        starts = np.cumsum([0] + [len(t) + 1 for t in texts])  # of each text, joined by "\n"
        tok_start, tok_end, cum = _scan_joined("\n".join(texts))

        # view v's text tokens are first[v]:first[v] + counts[v] of the
        # joined text's, and before[v] text tokens belong to the views before it
        view_start = starts[view_text]
        first = np.searchsorted(tok_start, view_start)
        counts = np.searchsorted(tok_start, starts[view_text + 1]) - first
        before = np.cumsum(counts) - counts
        # each cut's global offset, and its (view, offset) as one ascending key;
        # a cut strictly inside a token splits it there, once per offset
        at = view_start[cut_view] + cut_offset
        key = cut_view * len(cum) + at
        cut_at = np.searchsorted(tok_end, at, side="right")  # the first token ending past it
        inner = np.flatnonzero(cut_at < len(tok_start))
        inner = inner[tok_start[cut_at[inner]] < at[inner]]
        split = inner[np.diff(key[inner], prepend=-1) != 0]
        split_at, split_tok = at[split], cut_at[split]
        # A token's key is its text token's, unless a cut splits it: its
        # first piece ends at its first split, and its rest after each split
        # at its next split, the last at its end.
        last_split = np.ones(len(split), dtype=bool)  # of its token in its view
        last_split[:-1] = np.diff(before[cut_view[split]] - first[cut_view[split]] + split_tok) != 0
        first_split = np.ones(len(split), dtype=bool)
        first_split[1:] = last_split[:-1]
        rest_end = tok_end[split_tok]
        rest_end[:-1][~last_split[:-1]] = split_at[1:][~last_split[:-1]]
        rest_keys = _keys(cum[rest_end] - cum[split_at])
        first_keys = _keys(cum[split_at[first_split]] - cum[tok_start[split_tok[first_split]]])
        text_keys = _keys(cum[tok_end] - cum[tok_start])
        del cum, tok_start, tok_end, at  # before the per-token arrays, a fill's peak

        # A view's tokens: its text tokens in order, each cut's marker before
        # the tokens at its offset (the cuts in their order), and after the
        # markers at a split, the rest of the split token. Each marker's index
        # among all tokens counts the cuts, text tokens and rests before it;
        # each rest follows the last marker at its offset, each split token's
        # first piece precedes the markers of its first split, and the text
        # tokens fill the other indices in order.
        n_views = len(view_text)
        per_view = (counts + np.bincount(cut_view, minlength=n_views)
                    + np.bincount(cut_view[split], minlength=n_views))
        bounds = np.concatenate([[0], np.cumsum(per_view)])
        cut_at[inner] += 1  # now the text tokens that start before the cut
        cut_at += np.arange(len(cut_at))
        cut_at += (before - first)[cut_view]
        cut_at += np.searchsorted(key[split], key)
        rest_at = cut_at[np.searchsorted(key, key[split], side="right") - 1] + 1
        del key, inner
        keys = np.empty(int(bounds[-1]))
        keys[cut_at] = _keys(_utf8_byte_sums(cut_marker))
        keys[rest_at] = rest_keys
        is_text = np.ones(len(keys), dtype=bool)
        is_text[cut_at] = is_text[rest_at] = False
        tok = np.repeat(first - before, counts)  # each text token's, of its view's text
        tok += np.arange(len(tok))
        keys[is_text] = text_keys[tok]
        del tok
        keys[cut_at[split[first_split]] - 1] = first_keys
        return keys, bounds, cut_at - bounds[cut_view]

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        """Hidden states of shape (len(tokens) + 1, hidden_size); row 0 is CLS."""
        n = len(tokens) + 1
        return self.encode_at([np.array([self.token_key(t) for t in tokens], dtype=float)],
                              np.zeros(n, dtype=np.int64), np.arange(n))

    def encode_at(self, inputs: Sequence[np.ndarray], item: np.ndarray,
                  pos: np.ndarray) -> np.ndarray:
        """(R, hidden_size): row r is the hidden state at position ``pos[r]``
        (0 is CLS, p > 0 the p-th token) of the input whose token keys are
        ``inputs[item[r]]``. Only these rows are computed, each by the same
        float operations as in the input's full hidden matrix, so it equals
        that row of :meth:`encode` bit for bit. (A transformer would compute
        every row of each input and gather these.)"""
        win = self.context_window
        lengths = np.fromiter(map(len, inputs), dtype=np.int64, count=len(inputs)) + 1
        item, pos = np.asarray(item, dtype=np.int64), np.asarray(pos, dtype=np.int64)
        if len(pos) and not ((0 <= pos) & (pos < lengths[item])).all():
            raise ValueError("a position is out of range for its input")
        # every input's keys, CLS first, one after another with win zeros
        # before and after each: a window sums over zeros past its input's
        # ends, as over the zero padding of a padded block
        start = np.cumsum(lengths + win) - lengths  # each input's CLS
        keys = np.zeros(int(start[-1] + lengths[-1]) + win)
        keys[start] = self.token_key("[CLS]")
        n_tok = lengths - 1
        keys[np.repeat(start + 1 - np.cumsum(n_tok) + n_tok, n_tok)
             + np.arange(n_tok.sum())] = np.concatenate(inputs)
        # each mean sums exactly the keys of one input, as one row of a
        # (inputs, length) block: np.add.reduceat or a sum over zero
        # padding would round differently
        ctx = np.empty(len(inputs))
        for m in np.flatnonzero(np.bincount(lengths)):  # each length once
            same = np.flatnonzero(lengths == m)
            ctx[same] = keys[start[same, None] + np.arange(m)].sum(axis=1) / m
        # mean of keys[p - win : p + win + 1] clipped to the input, summed
        # left to right (adding a zero is exact)
        at = start[item] + pos
        total = keys[at - win]
        for shift in range(1 - win, win + 1):
            total += keys[at + shift]
        local = total / (np.minimum(pos + win, lengths[item] - 1) - np.maximum(pos - win, 0) + 1)
        dims = np.arange(1, self.hidden_size + 1)[None, :]
        return (np.sin((pos + 1)[:, None] * dims * 0.7 + 2.0 * math.pi * keys[at][:, None])
                + (0.5 * np.cos(dims * (1.0 + ctx[:, None])))[item]
                + 0.7 * np.sin(dims * 2.1 + 2.0 * math.pi * local[:, None]))
