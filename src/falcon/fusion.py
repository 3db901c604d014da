"""Feature transfer for the interaction task: gating, cross-attention, fusion.

A frozen extractor (its own entity encoder plus a small MLP head, trained
separately on labeled trajectories) produces one d-vector per trajectory.
Those vectors are filtered through a sigmoid gate, then cross-attended: a
query projection of the interaction feature scores each gated vector, one
softmax over the two scores weights them, and the weighted vectors are
concatenated after the interaction feature: (5d | d | d) -> 7d.

Both models over an entity encoder, the extractor here and
:class:`~falcon.training.InteractionModel`, are described by one
:class:`~falcon.training.TrainConfig`, which builds their backbone and
encoder (:class:`EncoderModel`) and which their checkpoints record. The
pretraining loop for the frozen extractor lives in :mod:`falcon.training`;
this module owns the ops and the extractor model.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .backbone import DeterministicStubBackbone
from .encoder import ArBertEncoder, PackedInputs, flat_size, flat_views, row_matmul, softmax

if TYPE_CHECKING:
    from .training import TrainConfig


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# Gating and cross-attention. Each op takes one vector per argument or a
# batch of them along leading axes; backward sums parameter gradients over
# the batch.

def _outer_sum(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Sum over the leading axes of the outer products a_i b_j (D.T @ X)."""
    return a.reshape(-1, a.shape[-1]).T @ b.reshape(-1, b.shape[-1])


def gate_forward(h: np.ndarray, w_gate: np.ndarray):
    """Returns (sigmoid(W_gate h) ⊙ h, cache for :func:`gate_backward`)."""
    if w_gate.shape != (h.shape[-1], h.shape[-1]):
        raise ValueError(f"gate matrix {w_gate.shape} does not match feature {h.shape}")
    gate = _sigmoid(row_matmul(h, w_gate))
    return gate * h, (h, gate)


def gate_backward(d_out: np.ndarray, cache: tuple, w_gate: np.ndarray):
    """Returns (d_w_gate, d_h)."""
    h, gate = cache
    d_z = d_out * h * gate * (1.0 - gate)
    return _outer_sum(d_z, h), d_out * gate + d_z @ w_gate


@dataclass
class CrossAttentionCache:
    h_inter: np.ndarray
    gated: tuple[np.ndarray, np.ndarray]
    q: np.ndarray
    alphas: np.ndarray  # (..., 2)


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a * b).sum(axis=-1)


def cross_attention_forward(h_inter: np.ndarray, h1_g: np.ndarray, h2_g: np.ndarray,
                            w_q: np.ndarray):
    """Score each gated trajectory vector against a query ``W_Q h_inter`` of
    the interaction feature, scaled by 1/d (not 1/sqrt(d)), and weight each
    vector by the joint softmax of the two scores: the two weights sum to 1.
    """
    d = h1_g.shape[-1]
    if w_q.shape != (d, h_inter.shape[-1]):
        raise ValueError(f"query matrix {w_q.shape} does not match "
                         f"({d},{h_inter.shape[-1]})")
    q = row_matmul(h_inter, w_q)
    alphas = softmax(np.stack([_dot(q, h1_g) / d, _dot(q, h2_g) / d], axis=-1))
    out1 = alphas[..., :1] * h1_g
    out2 = alphas[..., 1:] * h2_g
    cache = CrossAttentionCache(h_inter=h_inter, gated=(h1_g, h2_g), q=q,
                                alphas=alphas)
    return (out1, out2), cache


def cross_attention_backward(d_out1: np.ndarray, d_out2: np.ndarray,
                             cache: CrossAttentionCache, w_q: np.ndarray):
    """Returns (d_w_q, d_h_inter, d_h1_g, d_h2_g)."""
    h1_g, h2_g = cache.gated
    d = h1_g.shape[-1]
    alphas = cache.alphas
    d_alphas = np.stack([_dot(d_out1, h1_g), _dot(d_out2, h2_g)], axis=-1)
    d_scores = alphas * (d_alphas - _dot(alphas, d_alphas)[..., None])
    d_q = (d_scores[..., :1] * h1_g + d_scores[..., 1:] * h2_g) / d
    d_h1 = alphas[..., :1] * d_out1 + d_scores[..., :1] * cache.q / d
    d_h2 = alphas[..., 1:] * d_out2 + d_scores[..., 1:] * cache.q / d
    return _outer_sum(d_q, cache.h_inter), d_q @ w_q, d_h1, d_h2


def fuse(h_inter: np.ndarray, h1_a: np.ndarray, h2_a: np.ndarray) -> np.ndarray:
    """Concatenate (interaction, attended-1, attended-2): 5d + d + d -> 7d."""
    d = h1_a.shape[-1]
    if h2_a.shape[-1] != d or h_inter.shape[-1] != 5 * d:
        raise ValueError(
            f"fusion dim mismatch: inter {h_inter.shape[-1]}, "
            f"trajectories {h1_a.shape[-1]}/{h2_a.shape[-1]}")
    return np.concatenate([h_inter, h1_a, h2_a], axis=-1)


# ---------------------------------------------------------------------------
# Frozen trajectory extractor

def copy_params(views: dict[str, np.ndarray], arrays: dict[str, np.ndarray],
                source: str) -> None:
    """Copy ``arrays`` into the parameter ``views`` of the same names. Every
    view must have its array, numeric, finite and in its shape, and every
    array its view: a missing name, an unknown name, a wrong shape, a
    non-numeric dtype or a NaN or infinite entry raises
    ``ValueError("<source>: ...")`` naming the array, before anything is
    copied."""
    for name, view in views.items():
        if name not in arrays:
            raise ValueError(f"{source}: array {name!r} is missing")
        array = np.asarray(arrays[name])
        if array.shape != view.shape:
            raise ValueError(f"{source}: array {name!r} has shape {array.shape}, "
                             f"expected {view.shape}")
        if array.dtype.kind not in "biuf":
            raise ValueError(f"{source}: array {name!r} has dtype {array.dtype}, not a number")
        if not np.isfinite(array).all():
            raise ValueError(f"{source}: array {name!r} is not finite")
    unknown = sorted(arrays.keys() - views.keys())
    if unknown:
        raise ValueError(f"{source}: unknown array {unknown[0]!r}")
    for name, view in views.items():
        view[...] = arrays[name]


class EncoderModel:
    """A model built on an :class:`ArBertEncoder`, described by one
    :class:`~falcon.training.TrainConfig`: ``config`` builds the backbone
    and the encoder, and the encoder's parameters appear as ``enc.<name>``
    beside the model's own ``params``.

    Every parameter lives in one float64 vector, ``vector``: the encoder's
    blocks (:meth:`ArBertEncoder.shapes`), then the model's own arrays, in
    the order the subclass gives their initial values. ``params`` and the
    encoder's ``params`` are views into it, and ``grads`` (every name) the
    same views into the gradient vector ``grad``, into which the backward
    passes add. So an optimizer step is one update of ``vector``, and
    :meth:`zero_grads` one fill of ``grad``."""

    def __init__(self, config: TrainConfig, initial: dict[str, np.ndarray]):
        self.config = config
        backbone = DeterministicStubBackbone(config.hidden_size, config.max_tokens)
        n = flat_size(ArBertEncoder.shapes(config.hidden_size))
        self._shapes = {name: value.shape for name, value in initial.items()}
        self.vector = np.zeros(n + flat_size(self._shapes))
        self.grad = np.zeros_like(self.vector)
        self.encoder = ArBertEncoder(backbone, config.seed, self.vector[:n], self.grad[:n])
        self.params = flat_views(self.vector[n:], self._shapes)
        for name, value in initial.items():
            self.params[name][...] = value
        self.grads = self.named(self.grad)

    def named(self, vector: np.ndarray) -> dict[str, np.ndarray]:
        """Views of a vector laid out as ``vector``, by parameter name."""
        n = self.encoder.vector.size
        out = {f"enc.{k}": v for k, v in self.encoder.named(vector[:n]).items()}
        out.update(flat_views(vector[n:], self._shapes))
        return out

    def all_params(self) -> dict[str, np.ndarray]:
        return self.named(self.vector)

    def set_params(self, arrays: dict[str, np.ndarray], source: str = "parameters") -> None:
        """Copy ``arrays`` into the parameters (:func:`copy_params`)."""
        copy_params(self.all_params(), arrays, source)

    def snapshot(self) -> dict[str, np.ndarray]:
        return self.named(self.vector.copy())

    def zero_grads(self) -> dict[str, np.ndarray]:
        """Zero ``grad``; returns its named views, ``grads``."""
        self.grad.fill(0.0)
        return self.grads


class FrozenTrajectoryExtractor(EncoderModel):
    """Entity encoder + two-layer MLP mapping the 4d trajectory feature to d.

    Trained on a labeled trajectory corpus (binary cross-entropy through a
    temporary linear head), then frozen: after :meth:`freeze` the main task
    may call :meth:`features` but no gradient path exists into it.
    """

    def __init__(self, config: TrainConfig):
        d = config.hidden_size
        rng = np.random.default_rng(config.seed + 1)
        super().__init__(config, {
            "mlp.W1": rng.normal(0.0, 1.0 / np.sqrt(4 * d), size=(d, 4 * d)),
            "mlp.b1": np.zeros(d),
            "mlp.W2": rng.normal(0.0, 1.0 / np.sqrt(d), size=(d, d)),
            "mlp.b2": np.zeros(d),
            "head.W": rng.normal(0.0, 1.0 / np.sqrt(d), size=(2, d)),
        })
        self.frozen = False

    def freeze(self) -> None:
        self.frozen = True

    # -- forward paths -----------------------------------------------------
    def _mlp_feature(self, h_prime: np.ndarray):
        p = self.params
        a1 = np.tanh(row_matmul(h_prime, p["mlp.W1"]) + p["mlp.b1"])
        return row_matmul(a1, p["mlp.W2"]) + p["mlp.b2"], (h_prime, a1)

    def features(self, packed: PackedInputs) -> np.ndarray:
        """The (B, d) features of a pack of B prepared inputs; no gradients."""
        h_prime, _ = self.encoder.forward_batch(packed)
        return self._mlp_feature(h_prime)[0]

    def forward_train(self, packed: PackedInputs):
        """(B, 2) class probabilities of a pack of B prepared inputs through
        the pretraining head, with caches for :meth:`backward_train`."""
        if self.frozen:
            raise RuntimeError("extractor is frozen; training forward is forbidden")
        h_prime, enc_cache = self.encoder.forward_batch(packed)
        feat, mlp_cache = self._mlp_feature(h_prime)
        return softmax(row_matmul(feat, self.params["head.W"])), (enc_cache, mlp_cache, feat)

    def backward_train(self, d_logits: np.ndarray, caches) -> None:
        """Add the gradients of (B, 2) logit gradients into ``grad``."""
        enc_cache, (h_prime, a1), feat = caches
        p, grads = self.params, self.grads
        grads["head.W"] += d_logits.T @ feat
        d_feat = d_logits @ p["head.W"]
        grads["mlp.W2"] += d_feat.T @ a1
        grads["mlp.b2"] += d_feat.sum(axis=0)
        d_z1 = (d_feat @ p["mlp.W2"]) * (1.0 - a1 ** 2)
        grads["mlp.W1"] += d_z1.T @ h_prime
        grads["mlp.b1"] += d_z1.sum(axis=0)
        self.encoder.backward(d_z1 @ p["mlp.W1"], enc_cache)

    # -- persistence ---------------------------------------------------------
    def save(self, path: str | Path, history: list | None = None) -> None:
        from .training import save_archive

        meta = {"kind": "trajectory-extractor", "config": self.config.to_dict(),
                "frozen": self.frozen, "history": history or []}
        save_archive(path, self.all_params(), meta)

    @classmethod
    def load(cls, path: str | Path) -> "FrozenTrajectoryExtractor":
        from .training import config_from_meta, load_archive

        arrays, meta = load_archive(path)
        if meta.get("kind") != "trajectory-extractor":
            raise ValueError(f"{path} is not a trajectory extractor checkpoint")
        extractor = cls(config_from_meta(path, meta["config"]))
        extractor.set_params(arrays, str(path))
        if meta.get("frozen"):
            extractor.freeze()
        return extractor
