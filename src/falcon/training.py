"""Classification heads, losses, adaptive task weighting, and training loops.

The interaction head reads the fused feature (7d, or 5d when feature
transfer is off); the trajectory head (2 x 4d) is shared between both
trajectory branches. Joint training combines the two binary
cross-entropies either with fixed unit weights or with the adaptive
scheme L_inter/(2*c1^2) + L_tra/(2*c2^2) + log(1+c1^2) + log(1+c2^2),
where c1 and c2 are learnable scalars initialized to 1.

:func:`predict` is the one scorer: it scores and labels a candidate table
(:class:`~falcon.ingest.MentionTable`) in one batched forward. Training's
validation, :func:`~falcon.evalbench.evaluate_transfer` (``eval`` and the
ablation rows), ``falcon predict`` and
:func:`~falcon.extract.extract_corpus` all call it.
"""

from __future__ import annotations

import hashlib
import json
import math
import typing
from dataclasses import dataclass, field, fields as dataclass_fields
from pathlib import Path
from typing import Sequence

import numpy as np

from .dataset import LabeledTable
from .encoder import (
    ArBertEncoder,
    ContextOverflowError,
    MarkedInputs,
    PackedInputs,
    Views,
    candidate_views,
    input_keys,
    pack,
    row_matmul,
    softmax,
)
from .evalbench import compute_metrics
from .fusion import (
    EncoderModel,
    FrozenTrajectoryExtractor,
    copy_params,
    cross_attention_backward,
    cross_attention_forward,
    fuse,
    gate_backward,
    gate_forward,
)
from .ingest import INTERACTION_ROLES, TRAJECTORY_ROLES, MentionTable

PROB_EPS = 1e-7
C_MIN = 1e-3
# AdamW's moment decay rates, the floor of its update's denominator and
# its decoupled weight decay
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
ADAM_WEIGHT_DECAY = 0.01
# The settings that decide the frozen half of an encoder input; the frozen
# extractor reads the model's prepared inputs when all of them are equal.
BACKBONE_SETTINGS = ("hidden_size", "max_tokens")
# Trajectory inputs per frozen forward of a fill: it bounds the forward's
# temporaries, about 1.2 KB an input at d = 8.
FEATURE_RUN = 128


class TrainingDiverged(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Config

@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 5e-5
    batch_size: int = 16
    max_epochs: int = 10
    patience: int = 3
    seed: int = 0
    mt: bool = True
    aw: bool = True
    fusion_mode: str = "gated"
    hidden_size: int = 4
    max_tokens: int = 512
    threshold: float = 0.5

    def __post_init__(self):
        for f in dataclass_fields(self):
            problem = _field_problem(f.name, getattr(self, f.name))
            if problem:
                raise ValueError(problem)

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in dataclass_fields(self)}

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()).hexdigest()[:12]


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _field_problem(name: str, value) -> str | None:
    """Why ``value`` is out of range for the TrainConfig field ``name``, or None."""
    if name in ("learning_rate", "batch_size", "max_epochs", "hidden_size",
                "max_tokens") and value <= 0:
        return f"{name} must be positive"
    if name == "fusion_mode" and value not in ("gated", "concat", "off"):
        return f"unknown fusion_mode {value!r}"
    if name == "threshold" and not 0.0 <= value <= 1.0:
        return "threshold must be in [0, 1]"
    if name == "seed" and value < 0:
        return "seed must not be negative"
    return None


def load_config(path: str | Path) -> TrainConfig:
    """Parse a ``key = value`` config file into a TrainConfig, each value by
    its field's annotation. A line that is not ``key = value``, an unknown
    key, a value that does not parse or one out of the field's range raises
    ``ValueError("path:line: ...")``."""
    hints = typing.get_type_hints(TrainConfig)
    values: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.split("#", 1)[0].strip()
            if not stripped:
                continue
            key, eq, value = (part.strip() for part in stripped.partition("="))
            if not eq:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            if key not in hints:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            hint = hints[key]
            try:
                values[key] = _BOOLS[value.lower()] if hint is bool else hint(value)
            except (KeyError, ValueError):
                raise ValueError(f"{path}:{lineno}: {key} takes {hint.__name__}, "
                                 f"not {value!r}") from None
            problem = _field_problem(key, values[key])
            if problem:
                raise ValueError(f"{path}:{lineno}: {problem}")
    return TrainConfig(**values)


def config_from_meta(path: str | Path, values: dict) -> TrainConfig:
    """The TrainConfig a checkpoint's meta records as ``values``; a key that
    TrainConfig no longer has raises ``ValueError("path: ...")``."""
    stale = [key for key in values if key not in TrainConfig.__dataclass_fields__]
    if stale:
        raise ValueError(f"{path}: checkpoint config key {stale[0]!r} is not a "
                         "TrainConfig field; retrain with this version")
    return TrainConfig(**values)


# ---------------------------------------------------------------------------
# Losses

def _check_labels(labels: np.ndarray) -> None:
    bad = (labels != 0) & (labels != 1)
    if bad.any():
        raise ValueError(f"labels outside {{0,1}}: {sorted(set(labels[bad].tolist()))}")


def binary_cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    probs = np.asarray(probs, dtype=float)
    labels = np.asarray(labels)
    _check_labels(labels)
    p = np.clip(probs, PROB_EPS, 1.0 - PROB_EPS)
    return float(-np.mean(labels * np.log(p) + (1 - labels) * np.log(1 - p)))


def trajectory_loss(probs1, labels1, probs2, labels2) -> float:
    """Average of the two trajectory-branch cross-entropies."""
    return 0.5 * (binary_cross_entropy(probs1, labels1)
                  + binary_cross_entropy(probs2, labels2))


def multitask_loss(l_inter: float, l_tra: float, c1: float, c2: float) -> float:
    return (l_inter / (2.0 * c1 ** 2) + l_tra / (2.0 * c2 ** 2)
            + math.log1p(c1 ** 2) + math.log1p(c2 ** 2))


def multitask_loss_grad_c(l_inter: float, l_tra: float, c1: float, c2: float):
    """Analytic (dL/dc1, dL/dc2) of the adaptive weighting objective."""
    g1 = -l_inter / c1 ** 3 + 2.0 * c1 / (1.0 + c1 ** 2)
    g2 = -l_tra / c2 ** 3 + 2.0 * c2 / (1.0 + c2 ** 2)
    return g1, g2


# ---------------------------------------------------------------------------
# Optimizer

class AdamW:
    """Decoupled-weight-decay adaptive-moment optimizer of a model's
    parameters.

    Biases (names ending in ``.b``) and the adaptive-weight scalars ``c``
    are exempt from decay; ``c`` is clamped to |c| >= 1e-3 after each step.

    The model (:class:`~falcon.fusion.EncoderModel`) holds every parameter
    in one flat vector and every gradient in another, and the moments and
    the per-entry decay are flat vectors of the same layout, so a step is a
    few elementwise calls that update the moments and the parameters in
    place; the arithmetic is the per-array update's, element for element.
    """

    def __init__(self, model: EncoderModel, lr: float):
        self.lr = lr
        self.t = 0
        self.params, self.grad = model.vector, model.grad
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        # ADAM_WEIGHT_DECAY on decayed entries, 0 on exempt ones (0 * p adds nothing)
        self.decay = np.zeros_like(self.params)
        for name, view in model.named(self.decay).items():
            if not self._decay_exempt(name):
                view[...] = ADAM_WEIGHT_DECAY
        self.c = model.params.get("c")

    @staticmethod
    def _decay_exempt(name: str) -> bool:
        return name.endswith(".b") or name == "c"

    def step(self) -> None:
        """One update of the parameters from the model's gradient."""
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        g, p = self.grad, self.params
        self.m *= ADAM_BETA1
        self.m += (1 - ADAM_BETA1) * g
        self.v *= ADAM_BETA2
        self.v += (1 - ADAM_BETA2) * g * g
        p -= self.lr * ((self.m / bc1) / (np.sqrt(self.v / bc2) + ADAM_EPS) + self.decay * p)
        if self.c is not None:
            np.copyto(self.c, np.sign(self.c) * np.maximum(np.abs(self.c), C_MIN))


# ---------------------------------------------------------------------------
# Interaction model

class InteractionModel(EncoderModel):
    """Trainable encoder + feature transfer + classification heads."""

    def __init__(self, config: TrainConfig,
                 frozen: FrozenTrajectoryExtractor | None = None):
        d = config.hidden_size
        head_in = 7 * d if config.fusion_mode in ("gated", "concat") else 5 * d
        rng = np.random.default_rng(config.seed + 2)
        params: dict[str, np.ndarray] = {}
        if config.fusion_mode == "gated":
            params["fusion.W_gate"] = rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d))
            params["fusion.W_Q"] = rng.normal(0.0, 1.0 / np.sqrt(5 * d), size=(d, 5 * d))
        params["head.inter.W"] = rng.normal(0.0, 1.0 / np.sqrt(head_in), size=(2, head_in))
        if config.mt:
            params["head.tra.W"] = rng.normal(0.0, 1.0 / np.sqrt(4 * d), size=(2, 4 * d))
            if config.aw:
                params["c"] = np.array([1.0, 1.0])
        self.frozen = frozen
        if config.fusion_mode != "off":
            if frozen is None:
                raise ValueError("feature transfer requires a frozen trajectory extractor")
            if frozen.encoder.hidden_size != config.hidden_size:
                raise ValueError(
                    f"frozen extractor d={frozen.encoder.hidden_size} does not match "
                    f"model d={config.hidden_size}")
            if not frozen.frozen:
                raise ValueError("trajectory extractor must be frozen before fusion")
        super().__init__(config, params)

    # -- forward and backward -------------------------------------------------
    def forward_batch(self, inter: PackedInputs, tra: PackedInputs | None = None,
                      features: np.ndarray | None = None):
        """Batched forward of B candidates (:meth:`FeatureStore.gather`):
        returns (p_inter (B, 2), p_tra (2, B, 2) or None, cache); ``p_tra``
        holds the two trajectory branches when ``tra`` is given."""
        cfg = self.config
        p = self.params
        h_inter, enc_cache = self.encoder.forward_batch(inter)
        cache: dict = {"inter": enc_cache}
        if cfg.fusion_mode == "gated":
            g, cache["gate"] = gate_forward(features, p["fusion.W_gate"])
            (a1, a2), cache["xattn"] = cross_attention_forward(
                h_inter, g[0], g[1], p["fusion.W_Q"])
            h_fused = fuse(h_inter, a1, a2)
        elif cfg.fusion_mode == "concat":
            h_fused = fuse(h_inter, *features)
        else:
            h_fused = h_inter
        cache["h_fused"] = h_fused
        p_inter = softmax(row_matmul(h_fused, p["head.inter.W"]))

        p_tra = None
        if tra is not None:
            h_tra, cache["tra"] = self.encoder.forward_batch(tra)
            cache["h_tra"] = h_tra
            p_tra = softmax(row_matmul(h_tra, p["head.tra.W"])).reshape(2, -1, 2)
        return p_inter, p_tra, cache

    def backward_batch(self, cache: dict, d_logits_inter: np.ndarray,
                       d_logits_tra: np.ndarray | None) -> None:
        """Add the gradients of (B, 2) interaction and (2, B, 2) trajectory
        logit gradients, summed over the batch, into ``grad``."""
        cfg = self.config
        d = cfg.hidden_size
        p, grads = self.params, self.grads
        grads["head.inter.W"] += d_logits_inter.T @ cache["h_fused"]
        d_fused = d_logits_inter @ p["head.inter.W"]
        d_h_inter = d_fused[:, :5 * d]
        if cfg.fusion_mode == "gated":
            d_wq, d_h_inter_x, d_g1, d_g2 = cross_attention_backward(
                d_fused[:, 5 * d:6 * d], d_fused[:, 6 * d:], cache["xattn"], p["fusion.W_Q"])
            grads["fusion.W_Q"] += d_wq
            d_h_inter = d_h_inter + d_h_inter_x
            d_wg, _ = gate_backward(np.stack([d_g1, d_g2]), cache["gate"], p["fusion.W_gate"])
            grads["fusion.W_gate"] += d_wg

        self.encoder.backward(d_h_inter, cache["inter"])
        if d_logits_tra is not None:
            d_logits_tra = d_logits_tra.reshape(-1, 2)
            grads["head.tra.W"] += d_logits_tra.T @ cache["h_tra"]
            self.encoder.backward(d_logits_tra @ p["head.tra.W"], cache["tra"])

    @property
    def uses_features(self) -> bool:
        """Whether the model reads the frozen extractor's features."""
        return self.config.fusion_mode != "off"

    # -- persistence ----------------------------------------------------------
    def save(self, path: str | Path, history: list | None = None) -> None:
        arrays = self.all_params()
        meta = {"kind": "interaction-model", "config": self.config.to_dict(),
                "history": history or []}
        if self.frozen is not None:
            arrays = dict(arrays)
            for k, v in self.frozen.all_params().items():
                arrays[f"frozen.{k}"] = v
            meta["frozen_config"] = self.frozen.config.to_dict()
        save_archive(path, arrays, meta)

    @classmethod
    def load(cls, path: str | Path) -> "InteractionModel":
        """The model a checkpoint holds; its arrays must be the model's
        parameters and, under ``frozen.``, its extractor's, each in its shape
        (:func:`~falcon.fusion.copy_params`)."""
        arrays, meta = load_archive(path)
        if meta.get("kind") != "interaction-model":
            raise ValueError(f"{path} is not an interaction model checkpoint")
        config = config_from_meta(path, meta["config"])
        frozen = None
        if "frozen_config" in meta:
            frozen = FrozenTrajectoryExtractor(config_from_meta(path, meta["frozen_config"]))
            frozen.freeze()
        model = cls(config, frozen=frozen)
        views = model.all_params()
        if frozen is not None:
            views.update((f"frozen.{k}", v) for k, v in frozen.all_params().items())
        copy_params(views, arrays, str(path))
        return model


# ---------------------------------------------------------------------------
# Feature store

class FeatureStore:
    """The frozen inputs of forward passes, each prepared once per distinct
    input while the store lives and held once, packed for batched forwards.

    A fill reads its inputs as columns (:class:`~falcon.encoder.Views`: a
    candidate table's interaction and trajectory views, or the triples of
    pretraining), so no input is a Python object before it is marked.
    ``inputs`` maps an input's key (:func:`~falcon.encoder.input_keys`) to
    its row in the pack of its role layout, ``features`` a trajectory
    view's key to its row of frozen-extractor features. A filled candidate
    is a row of indices (interaction, trajectories 1 and 2, features 1 and
    2; -1 when not filled); a batch gathers the packs by them. A fill marks
    its new inputs, all of them in one pass per store and layout, so a
    window overflow is known per candidate; their backbone pass and pooling
    wait for :meth:`packed`, which runs them for every input of the layout
    marked since, in batches. The extractor reads its inputs from
    ``frozen_inputs``: the store itself when ``shared`` (its backbone
    settings equal the model's), else a store of its own encoder.
    """

    def __init__(self, encoder: ArBertEncoder,
                 frozen: FrozenTrajectoryExtractor | None = None, shared: bool = False):
        self.encoder = encoder
        self.frozen = frozen
        self.shared = shared
        # the extractor's own store; a shared store is not kept in itself, as
        # that cycle would hold a dropped store until the garbage collector runs
        self._frozen_store = None if shared or frozen is None else FeatureStore(frozen.encoder)
        self.inputs: dict[tuple, int] = {}
        self.features: dict[tuple, int] = {}
        self._packs: dict[tuple, PackedInputs] = {}  # per role layout
        self._marked: dict[tuple, list[MarkedInputs]] = {}  # not encoded yet
        self._features = np.empty((0, encoder.hidden_size))
        self._pending: list[int] = []  # frozen_inputs rows of features not computed yet

    @property
    def frozen_inputs(self) -> "FeatureStore | None":
        return self if self.shared else self._frozen_store

    @classmethod
    def for_model(cls, model: InteractionModel,
                  frozen: FrozenTrajectoryExtractor | None = None) -> "FeatureStore":
        """An empty store for ``model``, holding the frozen features of
        ``frozen`` (default: the model's extractor)."""
        frozen = frozen or model.frozen
        if frozen is None:
            return cls(model.encoder)
        shared = all(getattr(frozen.config, k) == getattr(model.config, k)
                     for k in BACKBONE_SETTINGS)
        return cls(model.encoder, frozen, shared)

    def fill(self, views: Views) -> tuple[np.ndarray, list[str | None]]:
        """Prepare each view not stored yet; returns each view's row and
        reason (-1 and the reason when it overflows its backbone window,
        else None)."""
        rows, reasons = self._fill(len(views), [(self, False, views, 0)])
        return rows[:, 0], reasons

    def fill_candidates(self, cands: MentionTable, with_tra: bool = False,
                        with_features: bool = True) -> tuple[np.ndarray, list[str | None]]:
        """:meth:`fill` for each candidate's interaction view, with
        ``with_tra`` its trajectory views, and with ``with_features`` (and an
        extractor) their frozen features; returns (n, 5) rows and reasons."""
        n = len(cands)
        with_features = with_features and self.frozen is not None
        inter, tra = candidate_views(cands)
        columns = [(self, False, inter, 0),
                   *([(self, False, tra, 0), (self, False, tra, n)] if with_tra else [None] * 2),
                   *([(self.frozen_inputs, True, tra, 0), (self.frozen_inputs, True, tra, n)]
                     if with_features else [None] * 2)]
        out = self._fill(n, columns)
        if self._pending:  # batched frozen forwards for the new features
            packed = self.frozen_inputs.packed(TRAJECTORY_ROLES)
            self._features = np.concatenate([self._features, *(
                self.frozen.features(packed.take(self._pending[a:a + FEATURE_RUN]))
                for a in range(0, len(self._pending), FEATURE_RUN))])
            self._pending = []
        return out

    def _fill(self, n: int, columns):
        """Rows and reasons of ``n`` items. Column c is (store, is_feature,
        views, offset), item i's view in it is ``views`` row ``offset + i``,
        or None when not filled. Every view that its store does not hold yet
        is marked first, in one pass per store, with the store's own
        encoder. An item stops at its first view that overflows its window
        (its row stays -1); the views it reaches are stored, column by
        column. The first item, in order, whose first failing view cannot be
        marked raises what marking it raised, once the items before it are
        stored."""
        filled = [(c, *column) for c, column in enumerate(columns) if column is not None]
        keys = {}  # per views: each view's input key
        lacking = {}  # per store: the index in each views of each view it lacks, by input key
        for _, store, _, views, _ in filled:
            if views not in keys:
                keys[views] = input_keys(views)
            new = lacking.setdefault(store, {}).setdefault(views, {})
            for j, key in enumerate(keys[views]):
                if key not in store.inputs:
                    new.setdefault(key, j)
        marks = {}  # per store: each view it lacks, by input key: its marked inputs and index there
        for store, new in lacking.items():
            parts = store.encoder.mark([views.take(list(index.values()))
                                        for views, index in new.items()])
            marks[store] = {key: (marked, j) for marked, index in zip(parts, new.values())
                            for j, key in enumerate(index)}

        # each item's first view that overflows or cannot be marked, and what marking it raised
        stop = np.full(n, len(columns))
        error: list[Exception | None] = [None] * n
        for c, store, _, views, offset in reversed(filled):
            lacks = marks[store]
            for i, key in enumerate(keys[views][offset:offset + n]):
                marked, j = lacks.get(key, (None, None))
                if marked is not None and j in marked.errors:
                    stop[i], error[i] = c, marked.errors[j]
        raising = next((i for i, exc in enumerate(error)
                        if exc is not None and not isinstance(exc, ContextOverflowError)), n)
        rows = np.full((n, len(columns)), -1)
        for c, store, is_feature, views, offset in filled:
            reach = np.flatnonzero(stop[:raising + 1] > c).tolist()
            column_keys = keys[views]
            rows[reach, c] = self._rows(store, is_feature, views.roles,
                                        [column_keys[offset + i] for i in reach], marks)
        if raising < n:
            raise error[raising].with_traceback(None)
        rows[stop < len(columns)] = -1
        return rows, [None if exc is None else str(exc) for exc in error]

    def _rows(self, store: "FeatureStore", is_feature: bool, roles: tuple[str, ...],
              keys: list[tuple], marks) -> list[int]:
        """The rows of filled views of one layout: their inputs' rows in
        ``store``, or their features' rows in this store."""
        if not is_feature:
            return store._add(roles, keys, marks)
        new = [key for key in dict.fromkeys(keys) if key not in self.features]
        if new:
            base = len(self._features) + len(self._pending)
            self._pending += store._add(roles, new, marks)
            self.features.update(zip(new, range(base, base + len(new))))
        return [self.features[key] for key in keys]

    def _add(self, roles: tuple[str, ...], keys: list[tuple], marks) -> list[int]:
        """The rows of the inputs at ``keys`` (of one layout), each new one
        stored from ``marks``."""
        new = {}  # the new inputs' keys and indices, per marked inputs they are in
        for key in dict.fromkeys(keys):
            if key not in self.inputs:
                marked, j = marks[self][key]
                new_keys, index = new.setdefault(marked, ([], []))
                new_keys.append(key)
                index.append(j)
        if new:
            pending = self._marked.setdefault(roles, [])
            packed = self._packs.get(roles)
            base = sum(map(len, pending)) + (0 if packed is None else len(packed.cls))
            for marked, (new_keys, index) in new.items():
                pending.append(marked.take(index))
                self.inputs.update(zip(new_keys, range(base, base + len(index))))
                base += len(index)
        return [self.inputs[key] for key in keys]

    def packed(self, roles: tuple[str, ...]) -> PackedInputs:
        """Every stored input of one role layout in one pack (the inputs of
        that layout marked since the last call encoded and merged in)."""
        if roles in self._marked:  # the marked inputs go once concatenated
            added = self.encoder.encode_marked(MarkedInputs.concat(self._marked.pop(roles)))
            merged = self._packs.get(roles)
            self._packs[roles] = added if merged is None else pack([merged, added])
        return self._packs[roles]

    def gather(self, rows: np.ndarray, with_tra: bool = False):
        """The frozen inputs of the candidates at ``rows`` (:meth:`fill_candidates`):
        (interaction pack, trajectory pack of B triples 1 then B triples 2
        when ``with_tra``, else None, (2, B, d) features or None)."""
        tra = (self.packed(TRAJECTORY_ROLES).take(rows[:, 1:3].T.reshape(-1))
               if with_tra else None)
        features = self._features[rows[:, 3:5].T] if rows[0, 3] >= 0 else None
        return self.packed(INTERACTION_ROLES).take(rows[:, 0]), tra, features


# ---------------------------------------------------------------------------
# Batched objective

def _batch_pass(model: InteractionModel, labels: np.ndarray,
                backward: bool, store: FeatureStore, rows: np.ndarray):
    """Forward (and with ``backward``, add the gradient into the model's
    ``grad``) one batch; returns loss components.
    ``labels`` are the examples' (3, B) y_inter, y_tra1 and y_tra2, and
    ``rows`` their rows in ``store`` (:meth:`FeatureStore.fill_candidates`,
    with trajectories when the model is multi-task)."""
    cfg = model.config
    n = labels.shape[1]
    p_inter, p_tra, cache = model.forward_batch(*store.gather(rows, cfg.mt))
    y_inter = labels[0]
    l_inter = binary_cross_entropy(p_inter[:, 1], y_inter)
    l_tra = None
    if cfg.mt:
        y_tra = labels[1:]
        l_tra = trajectory_loss(p_tra[0, :, 1], y_tra[0], p_tra[1, :, 1], y_tra[1])

    if cfg.mt and cfg.aw:
        c1, c2 = float(model.params["c"][0]), float(model.params["c"][1])
        total = multitask_loss(l_inter, l_tra, c1, c2)
        w_inter, w_tra = 1.0 / (2 * c1 ** 2), 1.0 / (2 * c2 ** 2)
    elif cfg.mt:
        total = l_inter + l_tra
        w_inter, w_tra = 1.0, 1.0
    else:
        total = l_inter
        w_inter, w_tra = 1.0, 0.0

    if backward:
        d_tra = (p_tra - _one_hot(y_tra)) * (w_tra * 0.5 / n) if cfg.mt else None
        model.backward_batch(cache, (p_inter - _one_hot(y_inter)) * (w_inter / n), d_tra)
        if cfg.mt and cfg.aw:
            g1, g2 = multitask_loss_grad_c(l_inter, l_tra, c1, c2)
            model.grads["c"] += np.array([g1, g2])

    return total, l_inter, l_tra


def _one_hot(labels: np.ndarray) -> np.ndarray:
    """(..., 2) targets [1 - y, y] of binary labels."""
    return np.stack([1 - labels, labels], axis=-1)


# ---------------------------------------------------------------------------
# Training loops

@dataclass
class TrainResult:
    history: list[dict] = field(default_factory=list)
    best_epoch: int = -1
    best_val_f1: float | None = None
    skipped: int = 0  # items left out: their marked spans overflow the window


def _fit(model: EncoderModel, items: Sequence, config: TrainConfig, batch_step,
         end_epoch) -> None:
    """The epoch loop shared by both training stages.

    Each epoch visits ``items`` in a seeded permutation, in minibatches of
    ``config.batch_size``. ``batch_step(batch)`` adds the batch gradient
    into the model's zeroed ``grad`` and returns the batch's loss terms, the
    total first; a non-finite total aborts before the AdamW step.
    ``end_epoch(epoch, means)`` receives the example-weighted epoch means
    of those terms and returns True to stop early.
    """
    optimizer = AdamW(model, lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    for epoch in range(config.max_epochs):
        order = rng.permutation(len(items))
        sums = None
        for start in range(0, len(order), config.batch_size):
            batch = [items[i] for i in order[start:start + config.batch_size]]
            model.zero_grads()
            terms = batch_step(batch)
            if not math.isfinite(terms[0]):
                raise TrainingDiverged(
                    f"non-finite loss {terms[0]} at epoch {epoch}, batch offset {start}")
            optimizer.step()
            weighted = [term * len(batch) for term in terms]
            sums = weighted if sums is None else [a + b for a, b in zip(sums, weighted)]
        if end_epoch(epoch, [total / len(items) for total in sums]):
            break


def train(model: InteractionModel, examples: LabeledTable,
          store: FeatureStore | None = None) -> TrainResult:
    """Train on split=='train', early-stop on validation F1, restore the best.

    Deterministic under ``model.config`` (its seed, epochs and patience)
    and single-worker batch order.
    Aborts with a diagnostic when the objective stops being finite. One
    :class:`FeatureStore`, filled before the first epoch, holds each
    distinct encoder input and frozen feature; each minibatch is a gather
    from its packed arrays. Train and val examples with an input that
    overflows its backbone window are left out and counted in
    ``TrainResult.skipped``. Validation is :func:`predict` on that store,
    of the val rows filled once, scored by
    :func:`~falcon.evalbench.compute_metrics`. ``store`` lets runs with the
    same backbone and extractor share one store.
    """
    config = model.config
    train_set = examples.take(i for i, split in enumerate(examples.split) if split == "train")
    val_set = examples.take(i for i, split in enumerate(examples.split) if split == "val")
    if not train_set:
        raise ValueError("no examples with split='train'")

    result = TrainResult()
    store = FeatureStore.for_model(model) if store is None else store
    rows, reasons = store.fill_candidates(train_set.mentions, config.mt, model.uses_features)
    kept = [i for i, reason in enumerate(reasons) if reason is None]
    labels = np.array(list(train_set.labels.values()), dtype=int)  # y_inter, y_tra1, y_tra2
    val_filled = store.fill_candidates(val_set.mentions, with_features=model.uses_features)
    val_kept = [i for i, reason in enumerate(val_filled[1]) if reason is None]
    val_gold = [val_set.labels["y_inter"][i] for i in val_kept]
    result.skipped = len(reasons) - len(kept) + len(val_set) - len(val_kept)
    if not kept:
        raise ValueError("every train example overflows the backbone window")

    best_params = model.snapshot()
    best_f1 = -1.0
    stale = 0

    def batch_step(batch):
        total, l_inter, l_tra = _batch_pass(model, labels[:, batch], True, store, rows[batch])
        return total, l_inter, l_tra or 0.0

    def end_epoch(epoch, means):
        nonlocal best_params, best_f1, stale
        entry = {
            "epoch": epoch,
            "loss": means[0],
            "loss_inter": means[1],
            "loss_tra": means[2] if config.mt else None,
            "c1": float(model.params["c"][0]) if "c" in model.params else None,
            "c2": float(model.params["c"][1]) if "c" in model.params else None,
        }
        if val_gold:
            val_labels = predict(model, val_set.mentions, store=store, filled=val_filled)[1]
            report = compute_metrics(val_labels[val_kept].tolist(), val_gold)
            f1 = report.f1 / 100  # MetricReport is in percent, the history in fractions
            entry.update(val_acc=report.accuracy / 100, val_precision=report.precision / 100,
                         val_recall=report.recall / 100, val_f1=f1)
            if f1 > best_f1:
                best_f1 = f1
                best_params = model.snapshot()
                result.best_epoch = epoch
                stale = 0
            else:
                stale += 1
        else:
            best_params = model.snapshot()
            result.best_epoch = epoch
        result.history.append(entry)
        return bool(val_gold) and stale >= config.patience

    _fit(model, kept, config, batch_step, end_epoch)
    model.set_params(best_params)
    result.best_val_f1 = best_f1 if val_gold else None
    return result


def pretrain_trajectory_extractor(corpus: LabeledTable, config: TrainConfig,
                                  result: TrainResult | None = None,
                                  ) -> tuple[FrozenTrajectoryExtractor, list[dict]]:
    """Train the trajectory extractor on labeled triples, then freeze it.

    Each distinct triple is prepared once, before the first epoch, and
    packed; each minibatch is a gather from the pack. Triples whose marked
    spans overflow the backbone window are left out. A given ``result``
    receives the history and the count of left-out triples.
    """
    if not corpus:
        raise ValueError("empty trajectory corpus")
    extractor = FrozenTrajectoryExtractor(config)
    history: list[dict] = []
    store = FeatureStore(extractor.encoder)
    rows, reasons = store.fill(Views.of(corpus.mentions))
    kept = [i for i, reason in enumerate(reasons) if reason is None]
    if result is not None:
        result.history = history
        result.skipped = len(corpus) - len(kept)
    if not kept:
        raise ValueError("every trajectory triple overflows the backbone window")
    packed = store.packed(TRAJECTORY_ROLES)
    labels = np.array(corpus.labels["y_tra"], dtype=int)

    def batch_step(batch):
        probs, caches = extractor.forward_train(packed.take(rows[batch]))
        y = labels[batch]
        extractor.backward_train((probs - _one_hot(y)) / len(batch), caches)
        return (binary_cross_entropy(probs[:, 1], y),)

    def end_epoch(epoch, means):
        history.append({"epoch": epoch, "loss": means[0]})
        return False

    _fit(extractor, kept, config, batch_step, end_epoch)
    extractor.freeze()
    return extractor, history


# ---------------------------------------------------------------------------
# Scoring

def predict(model: InteractionModel, cands: MentionTable, threshold: float | None = None,
            store: FeatureStore | None = None, filled: tuple | None = None,
            ) -> tuple[np.ndarray, np.ndarray, list[str | None]]:
    """Score and label each candidate of a table, in one batched forward:
    (scores, labels, reasons). A label is 1 where the score reaches
    ``threshold`` (default: the model's ``config.threshold``). A candidate
    whose input overflows its backbone window gets score NaN, label 0 and
    its reason; every other reason is None. Reads and extends ``store``
    (training passes its own); without one, the call fills a fresh store
    and drops it after. ``filled``, when given, is what
    :meth:`FeatureStore.fill_candidates` returned for ``cands`` on ``store``
    (training fills its val rows once). A candidate's score is the same
    bits whatever else the call scores (see :func:`~falcon.encoder.row_matmul`)."""
    threshold = model.config.threshold if threshold is None else threshold
    store = FeatureStore.for_model(model) if store is None else store
    rows, reasons = filled or store.fill_candidates(cands, with_features=model.uses_features)
    scores = np.full(len(cands), np.nan)
    labels = np.zeros(len(cands), dtype=int)
    ok = np.flatnonzero(rows[:, 0] >= 0)
    if len(ok):
        inputs = store.gather(rows[ok])
        del store  # the forward reads only the gathered inputs: a store made here goes first
        scores[ok] = model.forward_batch(*inputs)[0][:, 1]
        labels[ok] = scores[ok] >= threshold
    return scores, labels, reasons


# ---------------------------------------------------------------------------
# Checkpoint archive: npz with an embedded JSON meta blob

def save_archive(path: str | Path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    payload = dict(arrays)
    meta_bytes = json.dumps(meta, sort_keys=True).encode("utf-8")
    payload["__meta__"] = np.frombuffer(meta_bytes, dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def load_archive(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    with np.load(path, allow_pickle=False) as npz:
        meta = json.loads(bytes(npz["__meta__"].tobytes()).decode("utf-8"))
        arrays = {k: npz[k] for k in npz.files if k != "__meta__"}
    return arrays, meta
