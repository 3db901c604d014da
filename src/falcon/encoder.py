"""Entity-aware encoding: markers, occurrence pooling, attention, projections.

The encoder wraps every occurrence of every entity in role-specific marker
characters, runs the backbone, mean-pools each occurrence's hidden rows,
fuses multiple occurrences of one entity with a learned scalar-attention
weighting, projects each slot through tanh + a role-specific linear map,
and concatenates [CLS, e_1..e_n] into a single feature vector of dimension
(n+1)*d. Forward passes cache enough to run an exact manual backward for
all encoder parameters (the backbone itself is not trained here).

The encoder splits at the frozen/trainable boundary: :meth:`ArBertEncoder.prepare`
runs everything that depends only on (backbone, segment, entity spans) --
markers, tokenization, the backbone and occurrence pooling -- into a
:class:`PackedInputs` of one input, and :meth:`ArBertEncoder.forward_batch`
runs the trainable rest over packs of many (see :func:`pack`), so a
training loop can prepare each distinct input once and step in
minibatches. Every training and scoring path runs the batched forward;
:meth:`ArBertEncoder.forward` is the batch of one that the gradient checks use.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backbone import EncoderBackbone, Token
from .ingest import EntityMention, TextSegment

MARKERS = {"Person1": "#", "Person2": "$", "Time": "*", "Location": "&", "Person": "#"}

INTERACTION_ROLES = ("Person1", "Person2", "Time", "Location")
TRAJECTORY_ROLES = ("Person", "Time", "Location")

# Parameter key per role; cls has its own projection.
ROLE_KEYS = ("cls", "person1", "person2", "person", "time", "location")


class ContextOverflowError(Exception):
    """Marked occurrences cannot fit inside one backbone window."""


class MarkerOverlapError(ValueError):
    """Occurrence spans of different entities overlap."""


@dataclass
class MarkedInput:
    marked_text: str
    tokens: list[Token]
    entity_spans: list[tuple[tuple[int, int], ...]]  # per entity, matrix coords, inclusive


def canonical_entities(entities: Sequence[EntityMention]) -> list[EntityMention]:
    """Order entities as (Person1, Person2, Time, Location) or (Person, Time, Location)."""
    roles = sorted(e.role for e in entities)
    if roles == sorted(INTERACTION_ROLES):
        order = INTERACTION_ROLES
    elif roles == sorted(TRAJECTORY_ROLES):
        order = TRAJECTORY_ROLES
    else:
        raise ValueError(f"unsupported role set {roles}")
    by_role = {e.role: e for e in entities}
    return [by_role[r] for r in order]


def insert_markers(segment: TextSegment, entities: Sequence[EntityMention],
                   backbone: EncoderBackbone) -> MarkedInput:
    """Wrap every entity occurrence in its marker character and map the
    occurrences to token spans (inclusive, in hidden-matrix coordinates
    where row 0 is CLS). Selects a window centered on the marked
    occurrences when the marked text exceeds the backbone's token budget.
    """
    entities = list(entities)
    flat: list[tuple[int, int, int, int]] = []  # (start, end, ent_idx, occ_idx)
    for ei, ent in enumerate(entities):
        for oi, (start, end) in enumerate(ent.occurrences):
            flat.append((start, end, ei, oi))
    flat.sort()
    prev_end = -1
    for start, end, ei, _ in flat:
        if start < prev_end:
            raise MarkerOverlapError(
                f"occurrence spans overlap near offset {start} "
                f"({entities[ei].role} {entities[ei].surface!r})")
        prev_end = end

    text = segment.text
    pieces: list[str] = []
    pos = 0
    for start, end, ei, _ in flat:
        marker = MARKERS[entities[ei].role]
        pieces += [text[pos:start], marker, text[start:end], marker]
        pos = end
    pieces.append(text[pos:])
    marked_text = "".join(pieces)

    tokens = backbone.tokenize_with_offsets(marked_text)
    starts = [tok.start for tok in tokens]
    ends = [tok.end for tok in tokens]
    entity_token_spans = [[(0, 0)] * len(ent.occurrences) for ent in entities]
    for j, (start, end, ei, oi) in enumerate(flat):
        # the j-th occurrence in text order sits behind 2j + 1 markers
        first = bisect_left(starts, start + 2 * j + 1)
        last = bisect_right(ends, end + 2 * j + 1) - 1
        if last < first:
            raise ValueError(
                f"occurrence of {entities[ei].surface!r} produced no tokens")
        entity_token_spans[ei][oi] = (first, last)

    window_len = backbone.max_tokens - 1  # one row reserved for CLS
    if len(tokens) > window_len:
        lo = min(span[0] for spans in entity_token_spans for span in spans)
        hi = max(span[1] for spans in entity_token_spans for span in spans)
        if hi - lo + 1 > window_len:
            raise ContextOverflowError(
                f"context overflow: marked occurrences span {hi - lo + 1} tokens, "
                f"window holds {window_len}")
        mid = (lo + hi) // 2
        start = mid - window_len // 2
        start = min(start, lo)
        start = max(start, hi - window_len + 1)
        start = max(0, min(start, len(tokens) - window_len))
        tokens = tokens[start:start + window_len]
        entity_token_spans = [
            [(c - start, d - start) for (c, d) in spans] for spans in entity_token_spans
        ]

    # shift token coords by +1: row 0 of the hidden matrix is CLS
    matrix_spans = [tuple((c + 1, d + 1) for (c, d) in spans)
                    for spans in entity_token_spans]
    return MarkedInput(marked_text=marked_text, tokens=tokens,
                       entity_spans=matrix_spans)


def pool_occurrence(hidden: np.ndarray, span: tuple[int, int]) -> np.ndarray:
    """Arithmetic mean of hidden rows span[0]..span[1] inclusive."""
    c, d = span
    if not (0 <= c <= d < hidden.shape[0]):
        raise ValueError(f"span ({c},{d}) out of range for {hidden.shape[0]} rows")
    return hidden[c:d + 1].mean(axis=0)


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis; entries at -inf get weight 0."""
    shifted = np.exp(x - x.max(axis=-1, keepdims=True))
    return shifted / shifted.sum(axis=-1, keepdims=True)


def attend(occ: np.ndarray, mask: np.ndarray, attn_w: np.ndarray, attn_b,
           norm: str = "softmax"):
    """Masked scalar-attention pooling over the occurrence axis.

    ``occ`` is (..., K, d) and ``mask`` (..., K) marks the real occurrences
    (padding rows get weight 0). Returns (scores, weights, aggregated).
    ``norm='softmax'`` applies a normalized exponential over the scores;
    ``norm='literal'`` divides each score by the raw score sum, falling back
    to uniform weights when that sum is numerically zero.
    """
    scores = np.tanh(occ @ attn_w + attn_b)
    if norm == "softmax":
        weights = softmax(np.where(mask, scores, -np.inf))
    elif norm == "literal":
        total = (scores * mask).sum(axis=-1, keepdims=True)
        flat = np.abs(total) < 1e-12
        uniform = 1.0 / mask.sum(axis=-1, keepdims=True)
        weights = np.where(mask, np.where(flat, uniform, scores / np.where(flat, 1.0, total)),
                           0.0)
    else:
        raise ValueError(f"unknown attention norm {norm!r}")
    return scores, weights, np.einsum("...k,...kd->...d", weights, occ)


def attend_backward(d_agg: np.ndarray, occ: np.ndarray, mask: np.ndarray,
                    scores: np.ndarray, weights: np.ndarray, norm: str) -> np.ndarray:
    """Gradient w.r.t. the pre-tanh attention logits (..., K) of :func:`attend`,
    given the gradient of its aggregated output; padding rows get 0. The
    literal norm's uniform fallback has zero gradient."""
    d_weights = np.einsum("...kd,...d->...k", occ, d_agg)
    d_mean = (weights * d_weights).sum(axis=-1, keepdims=True)
    if norm == "softmax":
        d_scores = weights * (d_weights - d_mean)
    else:
        total = (scores * mask).sum(axis=-1, keepdims=True)
        flat = np.abs(total) < 1e-12
        safe = np.where(flat, 1.0, total)
        d_scores = np.where(mask & ~flat, d_weights / safe - d_mean / safe, 0.0)
    return d_scores * (1.0 - scores ** 2)


@dataclass(frozen=True, slots=True)
class PackedInputs:
    """The frozen half of encoder inputs of one role layout, padded to a
    common shape: what :meth:`ArBertEncoder.prepare` returns for one input
    and the unit of every batched forward. ``cls[n]`` is the CLS row of
    input n and ``occ[n, s, :k]`` the k pooled occurrence rows of its
    entity s (canonical role order), flagged in ``mask``; the rest is zero.
    It depends only on the backbone, the segment text and the entities'
    roles and spans (see :func:`input_key`)."""

    roles: tuple[str, ...]
    cls: np.ndarray   # (N, d)
    occ: np.ndarray   # (N, S, K, d)
    mask: np.ndarray  # (N, S, K) bool

    def take(self, index) -> "PackedInputs":
        """The inputs at ``index`` (a gather along the first axis)."""
        return PackedInputs(self.roles, self.cls[index], self.occ[index], self.mask[index])


def pack(packs: Sequence[PackedInputs]) -> PackedInputs:
    """Stack packs of one role layout, padded to the largest occurrence count."""
    roles = packs[0].roles
    n, k = sum(len(p.cls) for p in packs), max(p.occ.shape[2] for p in packs)
    occ = np.zeros((n, len(roles), k, packs[0].occ.shape[3]))
    mask = np.zeros((n, len(roles), k), dtype=bool)
    i = 0
    for p in packs:
        if p.roles != roles:
            raise ValueError(f"cannot pack role layouts {roles} and {p.roles} together")
        m, _, kp = p.mask.shape
        occ[i:i + m, :, :kp] = p.occ
        mask[i:i + m, :, :kp] = p.mask
        i += m
    return PackedInputs(roles, np.concatenate([p.cls for p in packs]), occ, mask)


@dataclass
class EncoderCache:
    """What :meth:`ArBertEncoder.backward` reads of a batched forward."""

    keys: tuple[str, ...]  # parameter key per slot: "cls", then one per role
    tanh_out: np.ndarray   # (B, 1 + S, d)
    packed: PackedInputs
    scores: np.ndarray     # (B, S, K)
    weights: np.ndarray    # (B, S, K)


def input_key(segment: TextSegment, entities: Sequence[EntityMention]) -> tuple:
    """Everything :meth:`ArBertEncoder.prepare` reads: two inputs with equal
    keys prepare to equal :class:`PackedInputs` under one backbone. The
    key is one flat tuple (text, role, spans, role, spans, ...), the
    smallest form a training run's store keeps one of per input."""
    return (segment.text, *(x for e in entities for x in (e.role, e.occurrences)))


class ArBertEncoder:
    """Attention-enhanced entity encoder over a pluggable backbone.

    Trainable parameters: the occurrence-attention map (``attn.w``,
    ``attn.b``) and one tanh-linear projection per role slot. Gradients for
    all of them are produced by :meth:`backward`; the backbone is treated
    as fixed.
    """

    def __init__(self, backbone: EncoderBackbone, seed: int = 0,
                 attention_norm: str = "softmax"):
        if attention_norm not in ("softmax", "literal"):
            raise ValueError(f"unknown attention norm {attention_norm!r}")
        self.backbone = backbone
        self.attention_norm = attention_norm
        d = backbone.hidden_size
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(d)
        self.params: dict[str, np.ndarray] = {
            "attn.w": rng.normal(0.0, scale, size=d),
            "attn.b": np.zeros(()),
        }
        for key in ROLE_KEYS:
            self.params[f"proj.{key}.W"] = rng.normal(0.0, scale, size=(d, d))
            self.params[f"proj.{key}.b"] = np.zeros(d)

    @property
    def hidden_size(self) -> int:
        return self.backbone.hidden_size

    def prepare(self, segment: TextSegment,
                entities: Sequence[EntityMention]) -> PackedInputs:
        """Markers, tokenization, backbone and occurrence pooling: the part of
        :meth:`forward` that no encoder parameter reaches, as a pack of one.
        Raises :class:`ContextOverflowError` when the marked spans overflow
        the backbone window."""
        entities = canonical_entities(entities)
        marked = insert_markers(segment, entities, self.backbone)
        hidden = self.backbone.encode([t.text for t in marked.tokens])
        spans = marked.entity_spans
        occ = np.zeros((1, len(spans), max(map(len, spans)), self.hidden_size))
        mask = np.zeros(occ.shape[:3], dtype=bool)
        for s, entity_spans in enumerate(spans):
            for o, span in enumerate(entity_spans):
                occ[0, s, o] = pool_occurrence(hidden, span)
            mask[0, s, :len(entity_spans)] = True
        # a copy: a view of the CLS row would keep all of ``hidden`` alive
        return PackedInputs(tuple(e.role for e in entities), hidden[:1].copy(), occ, mask)

    def forward_batch(self, packed: PackedInputs):
        """Occurrence attention, tanh and the role projections of a batch of
        prepared inputs; returns ((B, (1+S)*d) features, cache for
        :meth:`backward`)."""
        p = self.params
        scores, weights, agg = attend(packed.occ, packed.mask, p["attn.w"], p["attn.b"],
                                      self.attention_norm)
        t = np.tanh(np.concatenate([packed.cls[:, None], agg], axis=1))
        keys = ("cls",) + tuple(r.lower() for r in packed.roles)
        w = np.stack([p[f"proj.{k}.W"] for k in keys])
        b = np.stack([p[f"proj.{k}.b"] for k in keys])
        out = (t.swapaxes(0, 1) @ w.swapaxes(1, 2)).swapaxes(0, 1) + b
        return (out.reshape(len(t), -1),
                EncoderCache(keys=keys, tanh_out=t, packed=packed, scores=scores,
                             weights=weights))

    def forward(self, segment: TextSegment, entities: Sequence[EntityMention]):
        """:meth:`forward_batch` of one input: (feature vector, cache)."""
        out, cache = self.forward_batch(self.prepare(segment, entities))
        return out[0], cache

    def backward(self, d_out: np.ndarray, cache: EncoderCache,
                 grads: dict[str, np.ndarray]) -> None:
        """Accumulate parameter gradients of a forward pass, summed over its
        batch.

        ``d_out`` is the loss gradient w.r.t. the features, (B, (1+S)*d) or
        one vector when B=1; gradients stop at the backbone's hidden states.
        """
        t = cache.tanh_out
        d_slots = d_out.reshape(t.shape)
        w = np.stack([self.params[f"proj.{k}.W"] for k in cache.keys])
        d_w = np.einsum("bsi,bsj->sij", d_slots, t)
        d_b = d_slots.sum(axis=0)
        for s, key in enumerate(cache.keys):
            grads[f"proj.{key}.W"] += d_w[s]
            grads[f"proj.{key}.b"] += d_b[s]
        d_pre = (d_slots.swapaxes(0, 1) @ w).swapaxes(0, 1) * (1.0 - t ** 2)
        # slot 0 is CLS: its gradient stops at the backbone
        packed = cache.packed
        d_z = attend_backward(d_pre[:, 1:], packed.occ, packed.mask, cache.scores,
                              cache.weights, self.attention_norm)
        grads["attn.w"] += np.einsum("bsk,bskd->d", d_z, packed.occ)
        grads["attn.b"] += d_z.sum()

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}
