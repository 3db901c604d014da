"""Encoder backbones: the tokenize-and-embed layer beneath the entity encoder.

A backbone turns text into tokens with character offsets and produces one
hidden vector per token (row 0 is the sequence-level CLS vector). The
package ships a closed-form deterministic stub so every pipeline stage runs
without pretrained weights; transformer backbones plug in through the same
interface by name + weights path.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

import numpy as np

MARKER_CHARS = "#$*&"


@dataclass(frozen=True)
class Token:
    text: str
    start: int
    end: int


class EncoderBackbone(ABC):
    """Contract: deterministic in eval mode, one hidden row per token plus CLS.

    ``tokenize_with_offsets`` returns tokens in text order that do not
    overlap, so their starts and their ends both ascend: the entity encoder
    maps character spans to token spans by bisecting them.
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


class DeterministicStubBackbone(EncoderBackbone):
    """Closed-form pseudo-embeddings: position- and token-dependent sinusoids
    plus global and windowed context terms, so the CLS row responds to the
    whole input and each token row responds to its neighborhood. Exists to
    make tests and fixtures runnable (and hand-checkable) without any
    pretrained model.
    """

    name = "deterministic-stub"

    def __init__(self, hidden_size: int = 4, max_tokens: int = 512,
                 context_window: int = 2):
        self.hidden_size = hidden_size
        self.max_tokens = max_tokens
        self.context_window = context_window

    @staticmethod
    def token_key(token: str) -> float:
        total = sum(token.encode("utf-8"))
        return ((total * 2654435761) % 1000003) / 1000003.0

    def tokenize_with_offsets(self, text: str) -> list[Token]:
        tokens: list[Token] = []
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch in MARKER_CHARS:
                tokens.append(Token(ch, i, i + 1))
                i += 1
                continue
            j = i
            while j < n and not text[j].isspace() and text[j] not in MARKER_CHARS:
                j += 1
            tokens.append(Token(text[i:j], i, j))
            i = j
        return tokens

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        seq = ["[CLS]"] + list(tokens)
        n = len(seq)
        keys = np.array([self.token_key(t) for t in seq])
        ctx = keys.mean()
        win = self.context_window
        # Mean of keys[p - win : p + win + 1] clipped to the sequence, summed
        # left to right over zero padding (adding a zero is exact).
        padded = np.concatenate([np.zeros(win), keys, np.zeros(win)])
        total = padded[:n].copy()
        for shift in range(1, 2 * win + 1):
            total += padded[shift:shift + n]
        p = np.arange(n)
        local = total / (np.minimum(p + win, n - 1) - np.maximum(p - win, 0) + 1)
        pos = np.arange(1, n + 1)[:, None]
        dims = np.arange(1, self.hidden_size + 1)[None, :]
        return (np.sin(pos * dims * 0.7 + 2.0 * math.pi * keys[:, None])
                + 0.5 * np.cos(dims * (1.0 + ctx))
                + 0.7 * np.sin(dims * 2.1 + 2.0 * math.pi * local[:, None]))


_BACKBONES = {DeterministicStubBackbone.name: DeterministicStubBackbone}


def register_backbone(name: str, factory) -> None:
    _BACKBONES[name] = factory


def get_backbone(name: str, hidden_size: int, max_tokens: int,
                 weights_path: str | None) -> EncoderBackbone:
    """Instantiate a backbone by registry name.

    ``weights_path`` is forwarded to registered transformer factories; the
    stub ignores it.
    """
    try:
        factory = _BACKBONES[name]
    except KeyError:
        raise ValueError(
            f"unknown backbone {name!r}; registered: {sorted(_BACKBONES)}") from None
    if factory is DeterministicStubBackbone:
        return factory(hidden_size=hidden_size, max_tokens=max_tokens)
    return factory(hidden_size=hidden_size, max_tokens=max_tokens,
                   weights_path=weights_path)
