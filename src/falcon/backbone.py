"""The backbone beneath the entity encoder: marked text in, token rows out.

A closed-form deterministic stub stands in for the paper's pretrained BERT,
whose weights this package does not hold. It splices markers into the tokens
of a text and gives one hidden row per token plus CLS (row 0), for a padded
batch of token lists at a time.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from functools import lru_cache
from typing import Sequence

import numpy as np

MARKER_CHARS = "#$*&"


class DeterministicStubBackbone:
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

    def tokenize_marked(self, text: str, cuts: Sequence[tuple[int, str]]
                        ) -> tuple[list[str], list[int]]:
        """The tokens of ``text`` with each (offset, marker) cut's marker
        inserted, and per cut the index of its marker token. The ascending
        cuts pair up per entity occurrence, so occurrence j spans the tokens
        strictly between brackets 2j and 2j + 1. A marker ends a token, so a
        cut splits the token it falls inside and leaves the rest whole."""
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
        """Hidden states of shape (len(tokens) + 1, hidden_size); row 0 is CLS."""
        return self.encode_batch([tokens])[0]

    def encode_batch(self, batch: Sequence[Sequence[str]]) -> np.ndarray:
        """(B, 1 + longest, hidden_size): row b holds ``encode(batch[b])`` in
        its first len(batch[b]) + 1 rows, then padding."""
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
