"""Encoder backbones: the tokenize-and-embed layer beneath the entity encoder.

A backbone turns text into tokens with character offsets and produces one
hidden vector per token (row 0 is the sequence-level CLS vector), for a
padded batch of token lists at a time. The package ships a closed-form
deterministic stub so every pipeline stage runs without pretrained weights;
a transformer backbone would subclass :class:`EncoderBackbone` the same way.
"""

from __future__ import annotations

import math
import re
from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

MARKER_CHARS = "#$*&"


@dataclass(frozen=True)
class Token:
    text: str
    start: int
    end: int


def mark(text: str, cuts: Sequence[tuple[int, str]]) -> str:
    """``text`` with the marker of each (offset, marker) cut inserted at its
    offset; the cuts ascend."""
    pieces, pos = [], 0
    for offset, marker in cuts:
        pieces += [text[pos:offset], marker]
        pos = offset
    pieces.append(text[pos:])
    return "".join(pieces)


class EncoderBackbone(ABC):
    """Contract: deterministic in eval mode, one hidden row per token plus CLS.

    ``tokenize_with_offsets`` returns tokens in text order that do not
    overlap, so their starts and their ends both ascend. ``encode`` returns
    the hidden rows of one token list. A subclass need implement only these
    two: the defaults of :meth:`tokenize_marked` (tokenize the marked text)
    and :meth:`encode_batch` (one ``encode`` per list) build on them, and a
    backbone overrides either where it can do the same work for less.
    """

    hidden_size: int
    max_tokens: int

    @abstractmethod
    def tokenize_with_offsets(self, text: str) -> list[Token]:
        ...

    @abstractmethod
    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        """Hidden states of shape (len(tokens) + 1, hidden_size); row 0 is CLS."""
        ...

    def tokenize_marked(self, text: str, cuts: Sequence[tuple[int, str]]
                        ) -> tuple[list[str], list[int]]:
        """The tokens of ``mark(text, cuts)`` and, per cut, a token index
        that brackets it: the cuts come in (open, close) pairs, one per
        entity occurrence in text order, and occurrence j spans the tokens
        strictly between index 2j and index 2j + 1."""
        tokens = self.tokenize_with_offsets(mark(text, cuts))
        starts = [tok.start for tok in tokens]
        ends = [tok.end for tok in tokens]
        # cut k's marker sits at offset + k of the marked text
        brackets = [bisect_left(starts, offset + k + 1) - 1 if k % 2 == 0
                    else bisect_right(ends, offset + k)
                    for k, (offset, _) in enumerate(cuts)]
        return [tok.text for tok in tokens], brackets

    def encode_batch(self, batch: Sequence[Sequence[str]]) -> np.ndarray:
        """Hidden states of B token lists, (B, 1 + longest, hidden_size):
        row b holds ``encode(batch[b])`` in its first len(batch[b]) + 1
        rows; the rows past them are padding."""
        rows = [self.encode(tokens) for tokens in batch]
        out = np.zeros((len(rows), max(map(len, rows)), self.hidden_size))
        for b, hidden in enumerate(rows):
            out[b, :len(hidden)] = hidden
        return out


class DeterministicStubBackbone(EncoderBackbone):
    """Closed-form pseudo-embeddings: position- and token-dependent sinusoids
    plus global and windowed context terms, so the CLS row responds to the
    whole input and each token row responds to its neighborhood. Exists to
    make tests and fixtures runnable (and hand-checkable) without any
    pretrained model.
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
        return ((total * 2654435761) % 1000003) / 1000003.0

    def tokenize_with_offsets(self, text: str) -> list[Token]:
        return [Token(*tok) for tok in zip(*_scan(text))]

    def tokenize_marked(self, text: str, cuts: Sequence[tuple[int, str]]
                        ) -> tuple[list[str], list[int]]:
        """Splices the markers into the tokens of the unmarked text (scanned
        once per text): marker characters end a token, so a cut splits the
        token it falls inside and leaves every other token whole."""
        texts, starts, ends = _scan(text)
        out: list[str] = []
        brackets: list[int] = []
        i, rest = 0, None  # next token to emit; where its unemitted rest starts if cut
        for offset, marker in cuts:
            j = bisect_right(ends, offset)  # tokens before j end at or before the cut
            if j > i:
                if rest is not None:
                    out.append(text[rest:ends[i]])
                    i, rest = i + 1, None
                out += texts[i:j]
                i = j
            if i < len(starts):
                start = starts[i] if rest is None else rest
                if start < offset:  # the cut falls inside token i
                    out.append(text[start:offset])
                    rest = offset
            brackets.append(len(out))
            out.append(marker)
        if rest is not None:
            out.append(text[rest:ends[i]])
            i += 1
        out += texts[i:]
        return out, brackets

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        return self.encode_batch([tokens])[0]

    def encode_batch(self, batch: Sequence[Sequence[str]]) -> np.ndarray:
        lengths = np.array([len(tokens) + 1 for tokens in batch])
        n = int(lengths.max())
        keys = np.zeros((len(batch), n))
        keys[np.arange(n) < lengths[:, None]] = [
            self.token_key(t) for tokens in batch for t in ("[CLS]", *tokens)]
        # per row, so each mean sums exactly the keys of one list
        ctx = np.array([row[:m].mean() for row, m in zip(keys, lengths)])
        win = self.context_window
        # Mean of keys[p - win : p + win + 1] clipped to the list, summed
        # left to right over zero padding (adding a zero is exact).
        padded = np.zeros((len(batch), n + 2 * win))
        padded[:, win:win + n] = keys
        total = padded[:, :n].copy()
        for shift in range(1, 2 * win + 1):
            total += padded[:, shift:shift + n]
        p = np.arange(n)
        width = np.minimum(p + win, lengths[:, None] - 1) - np.maximum(p - win, 0) + 1
        local = total / np.maximum(width, 1)  # padding rows would have width <= 0
        pos = np.arange(1, n + 1)[:, None]
        dims = np.arange(1, self.hidden_size + 1)[None, :]
        return (np.sin(pos * dims * 0.7 + 2.0 * math.pi * keys[:, :, None])
                + 0.5 * np.cos(dims * (1.0 + ctx[:, None, None]))
                + 0.7 * np.sin(dims * 2.1 + 2.0 * math.pi * local[:, :, None]))


# One marker character, or a run of characters that are neither whitespace
# (``\s`` is ``str.isspace``) nor markers.
_TOKEN = re.compile(f"[{re.escape(MARKER_CHARS)}]|[^\\s{re.escape(MARKER_CHARS)}]+")


@lru_cache(maxsize=8)  # the views of one segment are marked one after another
def _scan(text: str) -> tuple[tuple[str, ...], tuple[int, ...], tuple[int, ...]]:
    """The stub's tokens of ``text`` as (texts, starts, ends)."""
    matches = list(_TOKEN.finditer(text))
    return (tuple(m.group() for m in matches), tuple(m.start() for m in matches),
            tuple(m.end() for m in matches))
