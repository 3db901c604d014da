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
depends only on (backbone, segment, entity spans). Its inputs arrive as
columns: :class:`Views` read the segments and mentions of a
:class:`~falcon.ingest.MentionTable` as arrays (:func:`candidate_views`
gives a candidate table's interaction and trajectory views, and
:func:`views_of` builds views from (segment, entities) objects), and
:func:`input_keys` gives each view the key a store holds it by. The frozen
half runs in two steps: :meth:`ArBertEncoder.mark` inserts the markers and
tokenizes many inputs in one array pass (:func:`insert_markers`, over the
backbone's ``tokenize_views``) into :class:`MarkedInputs`, columns of
each token's backbone key with no token strings (here a window overflow
is known), and :meth:`ArBertEncoder.encode_marked` runs
the backbone and occurrence pooling of many marked inputs into a
:class:`PackedInputs`.
The backbone computes only the hidden rows that pooling reads, each
input's CLS row and the rows inside its occurrence spans, in one call and
one pooling gather per run of at most ``ENCODE_BUDGET`` such rows.
:meth:`ArBertEncoder.prepare` is that path for one input.
:meth:`ArBertEncoder.forward_batch` runs the trainable rest over packs of
many (see :func:`pack`), so a training loop can prepare each distinct input
once and step in minibatches. Every training and scoring path runs the
batched forward; :meth:`ArBertEncoder.forward` is the batch of one that the
gradient checks use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .backbone import MARKERS, DeterministicStubBackbone
from .ingest import INTERACTION_ROLES, TRAJECTORY_ROLES, EntityMention, MentionTable, TextSegment

# A candidate's trajectory triples: the slots of its Person1, then its
# Person2, with its Time and Location (the quadruple's two halves)
TRAJECTORY_SLOTS = ((0, 2, 3), (1, 2, 3))

# Parameter key per role; cls has its own projection.
ROLE_KEYS = ("cls", "person1", "person2", "person", "time", "location")

# Hidden rows computed per backbone call (see :meth:`ArBertEncoder.encode_marked`).
# It bounds the call's temporaries: unbounded, a perfbench ``train`` pass
# computes each store in one call, and its heap peak rises by about 6 %.
ENCODE_BUDGET = 512


def flat_size(shapes: dict[str, tuple[int, ...]]) -> int:
    """The entries of arrays of the given shapes, all together."""
    return sum(math.prod(shape) for shape in shapes.values())


def flat_views(vector: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Consecutive pieces of the 1-D ``vector``, one per name in order, as
    views of the given shapes; they must cover it exactly."""
    views, at = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        views[name] = vector[at:at + size].reshape(shape)
        at += size
    if at != vector.size:
        raise ValueError(f"arrays of {at} entries do not cover a vector of {vector.size}")
    return views


class ContextOverflowError(Exception):
    """Marked occurrences cannot fit inside one backbone window."""


class MarkerOverlapError(ValueError):
    """Occurrence spans of different entities overlap."""


def _gather(values: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """``values[starts[i]:stops[i]]`` for each i, one after another, and the
    bounds of each run in the result."""
    counts = stops - starts
    bounds = np.concatenate([[0], np.cumsum(counts)])
    index = np.repeat(starts - bounds[:-1], counts)
    index += np.arange(len(index))
    return values[index], bounds


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class MarkedInputs:
    """Marked inputs of one role layout, windowed: what the backbone encodes
    of them, as columns.

    Input i's tokens are ``keys[bounds[i]:bounds[i + 1]]``, each token's
    backbone input, and its entity occurrences are rows
    ``occ_bounds[i]:occ_bounds[i + 1]`` of ``occurrences`` (k, 4): (entity,
    occurrence, first row, last row), by entity then occurrence; the rows
    are inclusive, in the input's hidden matrix where row 0 is CLS; marking
    leaves no two occurrences sharing a row. ``errors`` maps an input that
    could not be marked to what marking it raised; such an input has no
    tokens and no occurrences.
    """

    roles: tuple[str, ...]
    keys: np.ndarray         # (T,)
    bounds: np.ndarray       # (N + 1,)
    occurrences: np.ndarray  # (K, 4)
    occ_bounds: np.ndarray   # (N + 1,)
    errors: dict[int, Exception]

    def __len__(self) -> int:
        return len(self.bounds) - 1

    @staticmethod
    def concat(parts: Sequence["MarkedInputs"]) -> "MarkedInputs":
        """The inputs of ``parts`` (of one layout, none with an error), one
        part after another."""
        if len(parts) == 1:
            return parts[0]

        def bounds(runs):  # each part's bounds, past the runs of the parts before it
            ends = np.cumsum([0] + [b[-1] for b in runs]).tolist()
            return np.concatenate([[0], *(b[1:] + end for b, end in zip(runs, ends))])
        return MarkedInputs(parts[0].roles, np.concatenate([part.keys for part in parts]),
                            bounds([part.bounds for part in parts]),
                            np.concatenate([part.occurrences for part in parts]),
                            bounds([part.occ_bounds for part in parts]), {})

    def take(self, index) -> "MarkedInputs":
        """The inputs at ``index``."""
        index = np.asarray(index, dtype=np.int64)
        keys, bounds = _gather(self.keys, self.bounds[index], self.bounds[index + 1])
        occ, occ_bounds = _gather(self.occurrences, self.occ_bounds[index],
                                  self.occ_bounds[index + 1])
        errors = {k: self.errors[i] for k, i in enumerate(index.tolist()) if i in self.errors}
        return MarkedInputs(self.roles, keys, bounds, occ, occ_bounds, errors)


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


@dataclass(frozen=True, eq=False)  # compared and hashed by identity
class Views:
    """Encoder inputs of one role layout, as columns of a
    :class:`~falcon.ingest.MentionTable`: view v is the text of the table's
    segment envelope ``text[v]`` with, in slot s, the table's mention
    ``mention[v, s]`` in role ``roles[s]``. ``bounds``, ``starts`` and
    ``ends`` are the table's occurrence columns as arrays."""

    roles: tuple[str, ...]
    table: MentionTable
    text: np.ndarray     # (V,)
    mention: np.ndarray  # (V, S)
    bounds: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    def __len__(self) -> int:
        return len(self.text)

    @classmethod
    def of(cls, table: MentionTable) -> "Views":
        """One view per row of ``table``: its mentions in the table's roles."""
        arity = len(table.roles)
        return cls(table.roles, table, np.array(table.segment, dtype=np.int64),
                   np.arange(len(table) * arity, dtype=np.int64).reshape(-1, arity),
                   np.array(table.bounds, dtype=np.int64), np.array(table.starts, dtype=np.int64),
                   np.array(table.ends, dtype=np.int64))

    def take(self, index) -> "Views":
        """The views at ``index``."""
        return Views(self.roles, self.table, self.text[index], self.mention[index],
                     self.bounds, self.starts, self.ends)

    def occurrences(self) -> tuple[np.ndarray, np.ndarray]:
        """(counts, index): the (V, S) occurrence counts of each view's
        entities, and every occurrence's index into ``starts``/``ends``, by
        view, entity and occurrence."""
        m = self.mention.ravel()
        first, counts = self.bounds[m], self.bounds[m + 1] - self.bounds[m]
        index = np.repeat(first - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())
        return counts.reshape(self.mention.shape), index


def candidate_views(cands: MentionTable) -> tuple[Views, Views]:
    """The encoder inputs of candidates: each candidate's interaction view,
    and its trajectory views (:data:`TRAJECTORY_SLOTS`), every candidate's
    Person1 view, then every candidate's Person2 view."""
    inter = Views.of(cands)
    tra = inter.mention[:, TRAJECTORY_SLOTS].transpose(1, 0, 2).reshape(-1, len(TRAJECTORY_ROLES))
    return inter, Views(TRAJECTORY_ROLES, cands, np.tile(inter.text, len(TRAJECTORY_SLOTS)), tra,
                        inter.bounds, inter.starts, inter.ends)


def views_of(pairs: Sequence[tuple[TextSegment, Sequence[EntityMention]]]) -> Views:
    """(segment, entities) pairs of one role layout as views, the entities in
    canonical order (:func:`canonical_entities`, which raises on a role set
    of neither layout)."""
    entities = [canonical_entities(entities) for _, entities in pairs]
    roles = {tuple(e.role for e in ents) for ents in entities}
    if len(roles) > 1:
        raise ValueError(f"views of more than one role layout: {sorted(roles)}")
    table = MentionTable(roles.pop() if roles else TRAJECTORY_ROLES)
    for (segment, _), ents in zip(pairs, entities):
        table.add(segment, ents)
    return Views.of(table)


def input_keys(views: Views) -> list[tuple]:
    """Everything :meth:`ArBertEncoder.encode_marked` reads of each view, as
    one hashable key: two views with equal keys prepare to equal
    :class:`PackedInputs` under one backbone. The key is (roles, text,
    bytes) with the bytes of the view's occurrence counts and spans, the
    smallest form a training run's store keeps one of per input."""
    counts, index = views.occurrences()
    n_slots = counts.shape[1]
    per_view = counts.sum(axis=1)
    size = n_slots + 2 * per_view
    at = np.cumsum(size) - size
    flat = np.empty(int(size.sum()), dtype=np.int64)
    flat[(at[:, None] + np.arange(n_slots)).ravel()] = counts.ravel()
    rank = np.arange(len(index)) - np.repeat(np.cumsum(per_view) - per_view, per_view)
    spans = np.repeat(at + n_slots, per_view) + 2 * rank
    flat[spans] = views.starts[index]
    flat[spans + 1] = views.ends[index]
    data = flat.tobytes()
    envelopes = views.table.envelopes
    return [(views.roles, envelopes[seg][4], data[8 * a:8 * b])
            for seg, a, b in zip(views.text.tolist(), at.tolist(), (at + size).tolist())]


def insert_markers(views: Sequence[Views],
                   backbone: DeterministicStubBackbone) -> list[MarkedInputs]:
    """Wrap every entity occurrence of each view in its role's marker
    character and map the occurrences to token spans (inclusive, in
    hidden-matrix coordinates where row 0 is CLS), every view of every
    :class:`Views` of ``views`` (of any layouts) in one backbone tokenizer
    pass. Selects a window centered on the marked occurrences when
    the marked text exceeds the backbone's token budget.

    Returns per :class:`Views` its views' :class:`MarkedInputs`, whose
    ``errors`` hold what marking a view raises:
    :class:`MarkerOverlapError` when occurrences overlap, a ``ValueError``
    when an occurrence holds no token, and :class:`ContextOverflowError`
    when the occurrences do not fit in one window.
    """
    # per view: its distinct text, its part and its entities; per entity, by
    # view: its slot, its occurrence count and its marker
    texts: dict[str, int] = {}
    view_text, n_ent, slot, n_occ, marker, occ_start, occ_end = ([] for _ in range(7))
    for part in views:
        envelopes, inverse = np.unique(part.text, return_inverse=True)
        ids = [texts.setdefault(part.table.envelopes[e][4], len(texts)) for e in envelopes.tolist()]
        view_text.append(np.array(ids, dtype=np.int64)[inverse])
        counts, occ = part.occurrences()
        n_ent.append(np.full(len(part), counts.shape[1]))
        slot.append(np.tile(np.arange(counts.shape[1]), len(part)))
        n_occ.append(counts.ravel())
        marker.append(np.tile([ord(MARKERS[role]) for role in part.roles], len(part)))
        occ_start.append(part.starts[occ])
        occ_end.append(part.ends[occ])
    view_part = np.repeat(np.arange(len(views)), [len(part) for part in views])
    part_start = np.cumsum([0] + [len(part) for part in views])
    view_text, n_ent, slot, n_occ, marker, start, end = map(
        np.concatenate, (view_text, n_ent, slot, n_occ, marker, occ_start, occ_end))
    # per occurrence, by view, entity and occurrence
    n_views = len(view_text)
    view = np.repeat(np.repeat(np.arange(n_views), n_ent), n_occ)
    entity = np.repeat(slot, n_occ)
    index = np.arange(len(view)) - np.repeat(np.cumsum(n_occ) - n_occ, n_occ)
    marker = np.repeat(marker, n_occ)
    del n_ent, slot, n_occ, occ_start, occ_end

    out: list[Exception | None] = [None] * n_views

    def fail(error, j, message):  # occurrence j's view fails with its first error
        v, e = int(view[j]), int(entity[j])
        if out[v] is None:
            part = views[view_part[v]]
            m = part.mention[v - part_start[view_part[v]], e]
            out[v] = error(message.format(start=start[j], role=part.roles[e],
                                          surface=part.table.surfaces[part.table.surface[m]]))

    # in text order per view (ties in entity order), as the markers go in
    order = np.lexsort((end, start, view))
    after = order[1:][(view[order[1:]] == view[order[:-1]])
                      & (start[order[1:]] < end[order[:-1]])]
    for j in after:
        fail(MarkerOverlapError, j,
             "occurrence spans overlap near offset {start} ({role} {surface!r})")
    order = order[np.array([error is None for error in out], dtype=bool)[view[order]]]

    keys, bounds, brackets = backbone.tokenize_views(
        list(texts), view_text, np.repeat(view[order], 2),
        np.stack([start[order], end[order]], axis=1).ravel(), np.repeat(marker[order], 2))
    first, last = np.zeros(len(view), dtype=np.int64), np.zeros(len(view), dtype=np.int64)
    first[order], last[order] = brackets[0::2] + 1, brackets[1::2] - 1
    for j in order[last[order] < first[order]]:
        fail(ValueError, j, "occurrence of {surface!r} produced no tokens")

    # the window: every token, or window_len of them around the occurrences
    window_len = backbone.max_tokens - 1  # one row reserved for CLS
    lo = np.full(n_views, np.iinfo(np.int64).max)
    hi = np.full(n_views, -1)
    np.minimum.at(lo, view[order], first[order])
    np.maximum.at(hi, view[order], last[order])
    length = np.diff(bounds)
    begin = np.clip((lo + hi) // 2 - window_len // 2, hi - window_len + 1, lo)
    begin = np.where(length > window_len,
                     np.maximum(0, np.minimum(begin, length - window_len)), 0)
    for v in np.flatnonzero((length > window_len) & (hi - lo + 1 > window_len)).tolist():
        if out[v] is None:
            out[v] = ContextOverflowError(
                f"context overflow: marked occurrences span {hi[v] - lo[v] + 1} tokens, "
                f"window holds {window_len}")

    # each view's window and occurrence rows; none of a view that failed
    shift = 1 - begin[view]  # row 0 of the hidden matrix is CLS
    rows = np.stack([entity, index, first + shift, last + shift], axis=1)
    ok = np.array([error is None for error in out], dtype=bool)
    token_lo = bounds[:-1] + begin
    token_hi = np.where(ok, token_lo + np.minimum(length, window_len), token_lo)
    occ_lo = np.concatenate([[0], np.cumsum(np.bincount(view, minlength=n_views))])
    occ_hi = np.where(ok, occ_lo[1:], occ_lo[:-1])
    marked = []
    for p, part in enumerate(views):
        at = slice(part_start[p], part_start[p + 1])
        part_keys, part_bounds = _gather(keys, token_lo[at], token_hi[at])
        occurrences, occ_bounds = _gather(rows, occ_lo[:-1][at], occ_hi[at])
        errors = {v: error for v, error in enumerate(out[at]) if error is not None}
        marked.append(MarkedInputs(part.roles, part_keys, part_bounds, occurrences, occ_bounds,
                                   errors))
    return marked


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
        """The inputs at ``index`` (a gather along the first axis); the pack
        itself when that is every input in order, as no pack is written to."""
        if np.array_equal(index, np.arange(len(self.cls))):
            return self
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


def _budget_runs(rows: list[int]):
    """(start, stop) of consecutive runs of inputs, where input i needs
    ``rows[i]`` hidden rows, that need at most ``ENCODE_BUDGET`` rows each;
    an input that needs more is a run of its own."""
    start = total = 0
    for i, n in enumerate(rows):
        if total and total + n > ENCODE_BUDGET:
            yield start, i
            start, total = i, 0
        total += n
    if rows:
        yield start, len(rows)


@dataclass
class EncoderCache:
    """What :meth:`ArBertEncoder.backward` reads of a batched forward."""

    slots: list[int]       # the ROLE_KEYS index of each slot's projection: cls, then each role
    tanh_out: np.ndarray   # (B, 1 + S, d)
    packed: PackedInputs
    scores: np.ndarray     # (B, S, K)
    weights: np.ndarray    # (B, S, K)


class ArBertEncoder:
    """Attention-enhanced entity encoder over the backbone.

    Trainable parameters: the occurrence-attention map (``attn.w``,
    ``attn.b``) and one tanh-linear projection per role slot. They live in
    one float64 vector, ``vector``, in the blocks of :meth:`shapes`: every
    role's projection matrix in one block and every role's bias in another,
    so a forward reads a layout's projections with one index. ``params``
    names views into it (``proj.<role>.W`` and ``.b`` per role of
    :data:`ROLE_KEYS`), and ``grads`` the same views into the gradient
    vector ``grad``, into which :meth:`backward` adds; the backbone is
    treated as fixed. A model passes slices of its own two vectors as
    ``vector`` and ``grad`` (zeroed); by default the encoder makes its own.
    """

    def __init__(self, backbone: DeterministicStubBackbone, seed: int = 0,
                 vector: np.ndarray | None = None, grad: np.ndarray | None = None):
        self.backbone = backbone
        d = backbone.hidden_size
        shapes = self.shapes(d)
        self.vector = np.zeros(flat_size(shapes)) if vector is None else vector
        self.grad = np.zeros(flat_size(shapes)) if grad is None else grad
        self._blocks = flat_views(self.vector, shapes)
        self._grad_blocks = flat_views(self.grad, shapes)
        self.params = self.named(self.vector)
        self.grads = self.named(self.grad)
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(d)
        self.params["attn.w"][...] = rng.normal(0.0, scale, size=d)
        for w in self._blocks["proj.W"]:
            w[...] = rng.normal(0.0, scale, size=(d, d))

    @staticmethod
    def shapes(d: int) -> dict[str, tuple[int, ...]]:
        """The parameter blocks of an encoder of width ``d``, in vector order:
        the attention map, then the projection matrices and the projection
        biases of every role, by :data:`ROLE_KEYS`."""
        n = len(ROLE_KEYS)
        return {"attn.w": (d,), "attn.b": (), "proj.W": (n, d, d), "proj.b": (n, d)}

    def named(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a vector laid out as ``vector``, by parameter name."""
        blocks = flat_views(vector, self.shapes(self.hidden_size))
        out = {"attn.w": blocks["attn.w"], "attn.b": blocks["attn.b"]}
        for i, key in enumerate(ROLE_KEYS):
            out[f"proj.{key}.W"] = blocks["proj.W"][i]
            out[f"proj.{key}.b"] = blocks["proj.b"][i]
        return out

    @property
    def hidden_size(self) -> int:
        return self.backbone.hidden_size

    def mark(self, views: Sequence[Views]) -> list[MarkedInputs]:
        """Markers and tokenization of many inputs in one pass: per
        :class:`Views` its marked inputs and the errors marking them raises
        (:func:`insert_markers`)."""
        return insert_markers(views, self.backbone)

    def encode_marked(self, marked: MarkedInputs) -> PackedInputs:
        """The backbone and occurrence pooling of marked inputs (of one role
        layout, none with an error), as one pack. The backbone computes only
        the rows pooling reads: each input's CLS row and the rows of its
        occurrence spans, each row once where the spans are disjoint, as
        marking makes them. One backbone call and one pooling gather per run
        of inputs that need at most ``ENCODE_BUDGET`` rows."""
        cells, occ_bounds, bounds = marked.occurrences, marked.occ_bounds, marked.bounds
        item = np.repeat(np.arange(len(marked)), np.diff(occ_bounds))  # each occurrence's input
        sizes = cells[:, 3] - cells[:, 2] + 1  # the rows of each occurrence span
        needs = 1 + np.diff(np.concatenate([[0], np.cumsum(sizes)])[occ_bounds])  # per input
        cls = np.empty((len(marked), self.hidden_size))
        occ = np.zeros((len(marked), len(marked.roles), int(cells[:, 1].max()) + 1,
                        self.hidden_size))
        mask = np.zeros(occ.shape[:3], dtype=bool)
        for a, b in _budget_runs(needs.tolist()):
            at = slice(occ_bounds[a], occ_bounds[b])
            n, size = b - a, sizes[at]
            # the run's rows: CLS of each input, then each occurrence's rows in order
            first = n + np.cumsum(size) - size
            spans = np.repeat(cells[at, 2] - first, size) + np.arange(n, first[-1] + size[-1])
            hidden = self.backbone.encode_at(
                [marked.keys[i:j] for i, j in zip(bounds[a:b].tolist(),
                                                  bounds[a + 1:b + 1].tolist())],
                np.concatenate([np.arange(n), np.repeat(item[at] - a, size)]),
                np.concatenate([np.zeros(n, dtype=np.int64), spans]))
            where = (item[at], cells[at, 0], cells[at, 1])
            occ[where] = pool_spans(hidden, first, first + size - 1)
            mask[where] = True
            cls[a:b] = hidden[:n]
        return PackedInputs(marked.roles, cls, occ, mask)

    def prepare(self, segment: TextSegment,
                entities: Sequence[EntityMention]) -> PackedInputs:
        """Markers, tokenization, backbone and occurrence pooling: the part of
        :meth:`forward` that no encoder parameter reaches, as a pack of one
        (:meth:`mark`, then :meth:`encode_marked`); raises what marking
        raises."""
        marked, = self.mark([views_of([(segment, entities)])])
        if marked.errors:
            raise marked.errors[0]
        return self.encode_marked(marked)

    def forward_batch(self, packed: PackedInputs):
        """Occurrence attention, tanh and the role projections of a batch of
        prepared inputs; returns ((B, (1+S)*d) features, cache for
        :meth:`backward`)."""
        p = self.params
        scores, weights, agg = attend(packed.occ, packed.mask, p["attn.w"], p["attn.b"])
        t = np.tanh(np.concatenate([packed.cls[:, None], agg], axis=1))
        slots = [0] + [ROLE_KEYS.index(role.lower()) for role in packed.roles]
        out = row_matmul(t, self._blocks["proj.W"][slots]) + self._blocks["proj.b"][slots]
        return (out.reshape(len(t), -1),
                EncoderCache(slots=slots, tanh_out=t, packed=packed, scores=scores,
                             weights=weights))

    def forward(self, segment: TextSegment, entities: Sequence[EntityMention]):
        """:meth:`forward_batch` of one input: (feature vector, cache)."""
        out, cache = self.forward_batch(self.prepare(segment, entities))
        return out[0], cache

    def backward(self, d_out: np.ndarray, cache: EncoderCache) -> None:
        """Add the parameter gradients of a forward pass, summed over its
        batch, into ``grad``.

        ``d_out`` is the loss gradient w.r.t. the features, (B, (1+S)*d) or
        one vector when B=1; gradients stop at the backbone's hidden states.
        """
        t = cache.tanh_out
        d_slots = d_out.reshape(t.shape)
        slots = cache.slots
        self._grad_blocks["proj.W"][slots] += np.einsum("bsi,bsj->sij", d_slots, t)
        self._grad_blocks["proj.b"][slots] += d_slots.sum(axis=0)
        w = self._blocks["proj.W"][slots]
        d_pre = (d_slots.swapaxes(0, 1) @ w).swapaxes(0, 1) * (1.0 - t ** 2)
        # slot 0 is CLS: its gradient stops at the backbone
        packed = cache.packed
        d_z = attend_backward(d_pre[:, 1:], packed.occ, cache.scores, cache.weights)
        self.grads["attn.w"] += np.einsum("bsk,bskd->d", d_z, packed.occ)
        self.grads["attn.b"] += d_z.sum()

    def zero_grads(self) -> dict[str, np.ndarray]:
        """Zero ``grad``; returns its named views, ``grads``."""
        self.grad.fill(0.0)
        return self.grads
