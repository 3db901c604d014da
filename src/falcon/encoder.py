"""Entity-aware encoding: markers, occurrence pooling, attention, projections.

The encoder wraps every occurrence of every entity in role-specific marker
characters, runs the backbone (:mod:`falcon.backbone`'s stub of BERT),
mean-pools each occurrence's hidden rows, fuses multiple occurrences of one
entity by a softmax over learned scalar-attention scores, projects each slot
through tanh + a role-specific linear map, and concatenates [CLS, e_1..e_n]
into a single feature vector of dimension (n+1)*d. Forward passes cache
enough to run an exact manual backward for all encoder parameters (the
backbone itself is not trained here).

The encoder splits at the frozen/trainable boundary. The frozen half
depends only on (backbone, segment, entity spans) and runs in two steps:
:meth:`ArBertEncoder.mark` inserts the markers and tokenizes one input into
a :class:`MarkedInput` (here a window overflow is known), and
:meth:`ArBertEncoder.encode_marked` runs the backbone and occurrence pooling
of many marked inputs, one backbone call and one pooling gather per run of
at most ``ENCODE_BUDGET`` padded token rows, into a :class:`PackedInputs`.
:meth:`ArBertEncoder.prepare` is that path for one input.
:meth:`ArBertEncoder.forward_batch` runs the trainable rest over packs of
many (see :func:`pack`), so a training loop can prepare each distinct input
once and step in minibatches. Every training and scoring path runs the
batched forward; :meth:`ArBertEncoder.forward` is the batch of one that the
gradient checks use.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backbone import DeterministicStubBackbone
from .ingest import EntityMention, TextSegment

MARKERS = {"Person1": "#", "Person2": "$", "Time": "*", "Location": "&", "Person": "#"}

INTERACTION_ROLES = ("Person1", "Person2", "Time", "Location")
TRAJECTORY_ROLES = ("Person", "Time", "Location")

# Parameter key per role; cls has its own projection.
ROLE_KEYS = ("cls", "person1", "person2", "person", "time", "location")

# Padded token rows per backbone call (see :meth:`ArBertEncoder.encode_marked`).
# Measured on the perfbench ``train`` pass: from 256 to 4,096 rows its time
# stays flat within noise, while its peak RSS grows with the budget.
ENCODE_BUDGET = 512


class ContextOverflowError(Exception):
    """Marked occurrences cannot fit inside one backbone window."""


class MarkerOverlapError(ValueError):
    """Occurrence spans of different entities overlap."""


@dataclass(frozen=True, slots=True)
class MarkedInput:
    """One marked input, windowed: what the backbone encodes of it."""

    roles: tuple[str, ...]
    tokens: list[str]
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
                   backbone: DeterministicStubBackbone) -> MarkedInput:
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

    cuts = []
    for start, end, ei, _ in flat:
        marker = MARKERS[entities[ei].role]
        cuts += [(start, marker), (end, marker)]
    tokens, brackets = backbone.tokenize_marked(segment.text, cuts)
    entity_token_spans = [[(0, 0)] * len(ent.occurrences) for ent in entities]
    for j, (_, _, ei, oi) in enumerate(flat):
        first, last = brackets[2 * j] + 1, brackets[2 * j + 1] - 1
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
    return MarkedInput(roles=tuple(e.role for e in entities), tokens=tokens,
                       entity_spans=matrix_spans)


def pool_spans(hidden: np.ndarray, first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """Arithmetic mean of rows first[m]..last[m] (inclusive) of ``hidden``
    (R, d), for each m: one gather padded to the longest span, zeroed past
    each span's end and summed in row order, so each row equals
    ``hidden[first[m]:last[m] + 1].mean(axis=0)`` bit for bit."""
    if not (0 <= first.min() and (first <= last).all() and last.max() < len(hidden)):
        raise ValueError(f"a span is empty or out of range for {len(hidden)} rows")
    counts = last - first + 1
    index = first[:, None] + np.arange(counts.max())
    rows = hidden[np.minimum(index, last[:, None])]
    rows[index > last[:, None]] = 0.0
    return rows.sum(axis=1) / counts[:, None]


def row_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w.T`` over the last axis, each row of ``x`` multiplied on its
    own: (..., k) by (..., j, k), leading axes broadcast. A row's result
    depends only on that row and ``w``, not on how many rows share the call
    (a BLAS product of many rows takes a different path per row count), so
    a candidate scores the same bits alone, with its document or in any
    batch."""
    return (x[..., None, :] @ np.swapaxes(w, -1, -2))[..., 0, :]


def last_axis_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, kept as an axis of 1, added in order from the
    first entry: trailing zero padding leaves the bits unchanged, where
    ``np.sum``'s pairwise order changes with the axis length."""
    return np.cumsum(x, axis=-1)[..., -1:]


def softmax(x: np.ndarray) -> np.ndarray:
    """Softmax over the last axis; entries at -inf get weight 0, and padding
    at -inf leaves the other weights' bits unchanged."""
    shifted = np.exp(x - x.max(axis=-1, keepdims=True))
    return shifted / last_axis_sum(shifted)


def attend(occ: np.ndarray, mask: np.ndarray, attn_w: np.ndarray, attn_b):
    """Masked scalar-attention pooling over the occurrence axis.

    ``occ`` is (..., K, d) and ``mask`` (..., K) marks the real occurrences.
    Each occurrence scores tanh(w·occ + b), and the weights are the softmax
    of the real occurrences' scores, so they form a distribution; padding
    rows get weight 0. Returns (scores, weights, aggregated).
    """
    scores = np.tanh(row_matmul(occ, attn_w[None])[..., 0] + attn_b)
    weights = softmax(np.where(mask, scores, -np.inf))
    return scores, weights, np.einsum("...k,...kd->...d", weights, occ)


def attend_backward(d_agg: np.ndarray, occ: np.ndarray, scores: np.ndarray,
                    weights: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the pre-tanh attention logits (..., K) of :func:`attend`,
    given the gradient of its aggregated output; padding rows have weight 0,
    so their gradient is 0."""
    d_weights = np.einsum("...kd,...d->...k", occ, d_agg)
    d_mean = (weights * d_weights).sum(axis=-1, keepdims=True)
    return weights * (d_weights - d_mean) * (1.0 - scores ** 2)


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


def _budget_runs(marked: Sequence[MarkedInput]):
    """Consecutive runs of ``marked`` whose padded backbone block, inputs
    times (1 + longest token list) rows, holds at most ``ENCODE_BUDGET``
    rows; an input longer than that is a run of its own."""
    run: list[MarkedInput] = []
    longest = 0
    for m in marked:
        longest = max(longest, len(m.tokens) + 1)
        if run and (len(run) + 1) * longest > ENCODE_BUDGET:
            yield run
            run, longest = [], len(m.tokens) + 1
        run.append(m)
    if run:
        yield run


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
    """Attention-enhanced entity encoder over the backbone.

    Trainable parameters: the occurrence-attention map (``attn.w``,
    ``attn.b``) and one tanh-linear projection per role slot. Gradients for
    all of them are produced by :meth:`backward`; the backbone is treated
    as fixed.
    """

    def __init__(self, backbone: DeterministicStubBackbone, seed: int = 0):
        self.backbone = backbone
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

    def mark(self, segment: TextSegment, entities: Sequence[EntityMention]) -> MarkedInput:
        """Markers and tokenization of one input, entities in canonical role
        order. Raises :class:`ContextOverflowError` when the marked spans
        overflow the backbone window."""
        return insert_markers(segment, canonical_entities(entities), self.backbone)

    def encode_marked(self, marked: Sequence[MarkedInput]) -> PackedInputs:
        """The backbone and occurrence pooling of marked inputs of one role
        layout, as one pack: one backbone call and one pooling gather per
        run of inputs whose padded block stays within ``ENCODE_BUDGET``."""
        k = max(len(spans) for m in marked for spans in m.entity_spans)
        cls = np.empty((len(marked), self.hidden_size))
        occ = np.zeros((len(marked), len(marked[0].roles), k, self.hidden_size))
        mask = np.zeros(occ.shape[:3], dtype=bool)
        done = 0
        for run in _budget_runs(marked):
            hidden = self.backbone.encode_batch([m.tokens for m in run])
            n = hidden.shape[1]
            # per occurrence: (input, slot, occurrence, first row, last row)
            cells = np.array([(done + i, s, o, i * n + c, i * n + e)
                              for i, m in enumerate(run)
                              for s, spans in enumerate(m.entity_spans)
                              for o, (c, e) in enumerate(spans)])
            at = (cells[:, 0], cells[:, 1], cells[:, 2])
            occ[at] = pool_spans(hidden.reshape(n * len(run), -1), cells[:, 3], cells[:, 4])
            mask[at] = True
            cls[done:done + len(run)] = hidden[:, 0]
            done += len(run)
        return PackedInputs(marked[0].roles, cls, occ, mask)

    def prepare(self, segment: TextSegment,
                entities: Sequence[EntityMention]) -> PackedInputs:
        """Markers, tokenization, backbone and occurrence pooling: the part of
        :meth:`forward` that no encoder parameter reaches, as a pack of one
        (:meth:`mark`, then :meth:`encode_marked`)."""
        return self.encode_marked([self.mark(segment, entities)])

    def forward_batch(self, packed: PackedInputs):
        """Occurrence attention, tanh and the role projections of a batch of
        prepared inputs; returns ((B, (1+S)*d) features, cache for
        :meth:`backward`)."""
        p = self.params
        scores, weights, agg = attend(packed.occ, packed.mask, p["attn.w"], p["attn.b"])
        t = np.tanh(np.concatenate([packed.cls[:, None], agg], axis=1))
        keys = ("cls",) + tuple(r.lower() for r in packed.roles)
        w = np.stack([p[f"proj.{k}.W"] for k in keys])
        b = np.stack([p[f"proj.{k}.b"] for k in keys])
        out = row_matmul(t, w) + b
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
        d_z = attend_backward(d_pre[:, 1:], packed.occ, cache.scores, cache.weights)
        grads["attn.w"] += np.einsum("bsk,bskd->d", d_z, packed.occ)
        grads["attn.b"] += d_z.sum()

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.params.items()}
