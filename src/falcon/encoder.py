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
markers, tokenization, the backbone and occurrence pooling -- and
:meth:`ArBertEncoder.forward_prepared` runs the trainable rest, so a
training loop can prepare each distinct input once and reuse it every epoch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
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
    cls_index: int = 0

    @property
    def token_texts(self) -> list[str]:
        return [t.text for t in self.tokens]


@dataclass
class EntityFeature:
    occurrence_vectors: np.ndarray  # (k, d)
    scores: np.ndarray              # (k,)
    weights: np.ndarray             # (k,)
    aggregated: np.ndarray          # (d,)


@dataclass
class FeatureVector:
    vector: np.ndarray
    layout: tuple[str, ...]
    hidden_size: int

    def __post_init__(self):
        assert self.vector.shape == (len(self.layout) * self.hidden_size,)

    def slot(self, name: str) -> np.ndarray:
        i = self.layout.index(name)
        d = self.hidden_size
        return self.vector[i * d:(i + 1) * d]


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
    new_spans: dict[tuple[int, int], tuple[int, int]] = {}
    out_len = 0
    for start, end, ei, oi in flat:
        marker = MARKERS[entities[ei].role]
        pieces.append(text[pos:start])
        out_len += start - pos
        pieces.append(marker)
        out_len += 1
        new_start = out_len
        pieces.append(text[start:end])
        out_len += end - start
        new_spans[(ei, oi)] = (new_start, out_len)
        pieces.append(marker)
        out_len += 1
        pos = end
    pieces.append(text[pos:])
    marked_text = "".join(pieces)

    tokens = backbone.tokenize_with_offsets(marked_text)
    entity_token_spans: list[list[tuple[int, int]]] = [[] for _ in entities]
    for (ei, oi), (s, e) in sorted(new_spans.items()):
        inside = [ti for ti, tok in enumerate(tokens) if tok.start >= s and tok.end <= e]
        if not inside:
            raise ValueError(
                f"occurrence of {entities[ei].surface!r} produced no tokens")
        entity_token_spans[ei].append((inside[0], inside[-1]))

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


def aggregate_occurrences(occ_vectors: np.ndarray, attn_w: np.ndarray,
                          attn_b: float, norm: str = "softmax") -> EntityFeature:
    """Fuse per-occurrence vectors with scalar tanh attention scores.

    ``norm='softmax'`` (default) applies a normalized exponential over the
    scores; ``norm='literal'`` divides each score by the raw score sum,
    falling back to uniform weights when that sum is numerically zero.
    """
    occ = np.asarray(occ_vectors, dtype=float)
    if occ.ndim != 2 or occ.shape[0] == 0:
        raise ValueError("aggregate_occurrences needs a non-empty (k, d) matrix")
    scores = np.tanh(occ @ attn_w + attn_b)
    if norm == "softmax":
        shifted = np.exp(scores - scores.max())
        weights = shifted / shifted.sum()
    elif norm == "literal":
        total = scores.sum()
        if abs(total) < 1e-12:
            weights = np.full(len(scores), 1.0 / len(scores))
        else:
            weights = scores / total
    else:
        raise ValueError(f"unknown attention norm {norm!r}")
    aggregated = weights @ occ
    return EntityFeature(occurrence_vectors=occ, scores=scores,
                         weights=weights, aggregated=aggregated)


def _role_key(role: str) -> str:
    return role.lower()


@dataclass
class _SlotCache:
    key: str                      # parameter key ("cls" or role key)
    pre_tanh: np.ndarray          # H before tanh (aggregated or CLS row)
    tanh_out: np.ndarray
    feature: EntityFeature | None = None


@dataclass
class EncodeCache:
    slots: list[_SlotCache] = field(default_factory=list)


@dataclass(frozen=True, slots=True)
class PreparedInput:
    """The frozen half of one encoder input, packed into one matrix.

    ``rows`` holds the CLS row, then the pooled occurrence rows of each
    entity in canonical role order; ``counts`` gives each entity's number
    of rows. It depends only on the backbone, the segment text and the
    entities' roles and spans (see :func:`input_key`).
    """

    roles: tuple[str, ...]
    counts: tuple[int, ...]
    rows: np.ndarray  # (1 + sum(counts), d)


def input_key(segment: TextSegment, entities: Sequence[EntityMention]) -> tuple:
    """Everything :meth:`ArBertEncoder.prepare` reads: two inputs with equal
    keys prepare to equal :class:`PreparedInput` under one backbone. The
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
                entities: Sequence[EntityMention]) -> PreparedInput:
        """Markers, tokenization, backbone and occurrence pooling: the part of
        :meth:`forward` that no encoder parameter reaches. Raises
        :class:`ContextOverflowError` when the marked spans overflow the
        backbone window."""
        entities = canonical_entities(entities)
        marked = insert_markers(segment, entities, self.backbone)
        hidden = self.backbone.encode(marked.token_texts)
        rows = [hidden[marked.cls_index]]
        for spans in marked.entity_spans:
            rows.extend(pool_occurrence(hidden, span) for span in spans)
        return PreparedInput(roles=tuple(e.role for e in entities),
                             counts=tuple(len(spans) for spans in marked.entity_spans),
                             rows=np.stack(rows))

    def forward_prepared(self, prepared: PreparedInput):
        """Occurrence attention, tanh and the role projections of one
        prepared input; returns (feature vector, cache for :meth:`backward`)."""
        cache = EncodeCache()
        parts: list[np.ndarray] = []
        h0 = prepared.rows[0]
        t0 = np.tanh(h0)
        parts.append(self.params["proj.cls.W"] @ t0 + self.params["proj.cls.b"])
        cache.slots.append(_SlotCache(key="cls", pre_tanh=h0, tanh_out=t0))

        start = 1
        for role, k in zip(prepared.roles, prepared.counts):
            occ = prepared.rows[start:start + k]
            start += k
            feat = aggregate_occurrences(occ, self.params["attn.w"],
                                         float(self.params["attn.b"]),
                                         norm=self.attention_norm)
            key = _role_key(role)
            t = np.tanh(feat.aggregated)
            parts.append(self.params[f"proj.{key}.W"] @ t + self.params[f"proj.{key}.b"])
            cache.slots.append(_SlotCache(key=key, pre_tanh=feat.aggregated,
                                          tanh_out=t, feature=feat))
        return np.concatenate(parts), cache

    def forward(self, segment: TextSegment, entities: Sequence[EntityMention]):
        return self.forward_prepared(self.prepare(segment, entities))

    def encode(self, segment: TextSegment, entities: Sequence[EntityMention]) -> FeatureVector:
        vector, cache = self.forward(segment, entities)
        layout = tuple(slot.key for slot in cache.slots)
        return FeatureVector(vector=vector, layout=layout, hidden_size=self.hidden_size)

    def backward(self, d_out: np.ndarray, cache: EncodeCache,
                 grads: dict[str, np.ndarray]) -> None:
        """Accumulate parameter gradients for one forward pass.

        ``d_out`` is the loss gradient w.r.t. the concatenated feature
        vector; gradients stop at the backbone's hidden states.
        """
        d = self.hidden_size
        for i, slot in enumerate(cache.slots):
            d_slot = d_out[i * d:(i + 1) * d]
            w_key, b_key = f"proj.{slot.key}.W", f"proj.{slot.key}.b"
            grads[w_key] += np.outer(d_slot, slot.tanh_out)
            grads[b_key] += d_slot
            d_tanh = self.params[w_key].T @ d_slot
            d_agg = d_tanh * (1.0 - slot.tanh_out ** 2)
            if slot.feature is None:
                continue  # CLS: gradient stops at the backbone
            feat = slot.feature
            occ, weights, scores = feat.occurrence_vectors, feat.weights, feat.scores
            d_weights = occ @ d_agg
            if self.attention_norm == "softmax":
                d_scores = weights * (d_weights - np.dot(weights, d_weights))
            else:
                total = scores.sum()
                if abs(total) < 1e-12:
                    d_scores = np.zeros_like(scores)
                else:
                    d_scores = d_weights / total - np.dot(d_weights, weights) / total
            d_z = d_scores * (1.0 - scores ** 2)
            grads["attn.w"] += occ.T @ d_z
            grads["attn.b"] += d_z.sum()

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}
