"""Feature transfer for the interaction task: gating, cross-attention, fusion.

A frozen extractor (its own entity encoder plus a small MLP head, trained
separately on labeled trajectories) produces one d-vector per trajectory.
Those vectors are filtered through a sigmoid gate, attended against the
interaction feature via a query projection, and concatenated after the
interaction feature: (5d | d | d) -> 7d.

The pretraining loop for the frozen extractor lives in
:mod:`falcon.training`; this module owns the ops and the extractor model.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backbone import get_backbone
from .encoder import ArBertEncoder, PreparedInput


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


# ---------------------------------------------------------------------------
# Gating

@dataclass
class GateCache:
    h: np.ndarray
    gate: np.ndarray


def gate_forward(h: np.ndarray, w_gate: np.ndarray) -> tuple[np.ndarray, GateCache]:
    if w_gate.shape != (h.shape[0], h.shape[0]):
        raise ValueError(f"gate matrix {w_gate.shape} does not match feature {h.shape}")
    gate = _sigmoid(w_gate @ h)
    return gate * h, GateCache(h=h, gate=gate)


def gate_features(h: np.ndarray, w_gate: np.ndarray) -> np.ndarray:
    """sigmoid(W_gate h) ⊙ h."""
    return gate_forward(h, w_gate)[0]


def gate_backward(d_out: np.ndarray, cache: GateCache, w_gate: np.ndarray):
    """Returns (d_w_gate, d_h)."""
    d_gate = d_out * cache.h
    d_z = d_gate * cache.gate * (1.0 - cache.gate)
    d_w = np.outer(d_z, cache.h)
    d_h = d_out * cache.gate + w_gate.T @ d_z
    return d_w, d_h


# ---------------------------------------------------------------------------
# Cross-attention

@dataclass
class CrossAttentionCache:
    h_inter: np.ndarray
    gated: tuple[np.ndarray, np.ndarray]
    q: np.ndarray
    alphas: np.ndarray
    mode: str


def cross_attention_forward(h_inter: np.ndarray, h1_g: np.ndarray, h2_g: np.ndarray,
                            w_q: np.ndarray, mode: str = "joint"):
    """Score each gated trajectory vector against a query of the interaction
    feature; scores are scaled by 1/d (not 1/sqrt(d)).

    ``joint`` (default) softmaxes the two scores against each other;
    ``literal`` softmaxes each scalar alone, which is identically 1 and
    passes the gated vectors through unchanged.
    """
    d = h1_g.shape[0]
    if w_q.shape != (d, h_inter.shape[0]):
        raise ValueError(f"query matrix {w_q.shape} does not match "
                         f"({d},{h_inter.shape[0]})")
    q = w_q @ h_inter
    scores = np.array([np.dot(q, h1_g) / d, np.dot(q, h2_g) / d])
    if mode == "joint":
        shifted = np.exp(scores - scores.max())
        alphas = shifted / shifted.sum()
    elif mode == "literal":
        alphas = np.ones(2)
    else:
        raise ValueError(f"unknown cross-attention mode {mode!r}")
    out1 = alphas[0] * h1_g
    out2 = alphas[1] * h2_g
    cache = CrossAttentionCache(h_inter=h_inter, gated=(h1_g, h2_g), q=q,
                                alphas=alphas, mode=mode)
    return (out1, out2), cache


def cross_attend(h_inter: np.ndarray, h1_g: np.ndarray, h2_g: np.ndarray,
                 w_q: np.ndarray, mode: str = "joint") -> tuple[np.ndarray, np.ndarray]:
    return cross_attention_forward(h_inter, h1_g, h2_g, w_q, mode=mode)[0]


def cross_attention_backward(d_out1: np.ndarray, d_out2: np.ndarray,
                             cache: CrossAttentionCache, w_q: np.ndarray):
    """Returns (d_w_q, d_h_inter, d_h1_g, d_h2_g)."""
    h1_g, h2_g = cache.gated
    d = h1_g.shape[0]
    alphas = cache.alphas
    d_h1 = alphas[0] * d_out1
    d_h2 = alphas[1] * d_out2
    if cache.mode == "literal":
        d_w = np.zeros_like(w_q)
        return d_w, np.zeros_like(cache.h_inter), d_h1, d_h2
    d_alphas = np.array([np.dot(d_out1, h1_g), np.dot(d_out2, h2_g)])
    d_scores = alphas * (d_alphas - np.dot(alphas, d_alphas))
    d_q = (d_scores[0] * h1_g + d_scores[1] * h2_g) / d
    d_h1 += d_scores[0] * cache.q / d
    d_h2 += d_scores[1] * cache.q / d
    d_w = np.outer(d_q, cache.h_inter)
    d_h_inter = w_q.T @ d_q
    return d_w, d_h_inter, d_h1, d_h2


def fuse(h_inter: np.ndarray, h1_a: np.ndarray, h2_a: np.ndarray) -> np.ndarray:
    """Concatenate (interaction, attended-1, attended-2): 5d + d + d -> 7d."""
    d = h1_a.shape[0]
    if h2_a.shape[0] != d or h_inter.shape[0] != 5 * d:
        raise ValueError(
            f"fusion dim mismatch: inter {h_inter.shape[0]}, "
            f"trajectories {h1_a.shape[0]}/{h2_a.shape[0]}")
    return np.concatenate([h_inter, h1_a, h2_a])


# ---------------------------------------------------------------------------
# Frozen trajectory extractor

class FrozenTrajectoryExtractor:
    """Entity encoder + two-layer MLP mapping the 4d trajectory feature to d.

    Trained on a labeled trajectory corpus (binary cross-entropy through a
    temporary linear head), then frozen: after :meth:`freeze` the main task
    may call :meth:`features` but no gradient path exists into it.
    """

    def __init__(self, backbone_name: str = "deterministic-stub",
                 hidden_size: int = 4, max_tokens: int = 512,
                 mlp_hidden: int | None = None, seed: int = 0,
                 attention_norm: str = "softmax",
                 weights_path: str | None = None):
        backbone = get_backbone(backbone_name, hidden_size=hidden_size,
                                max_tokens=max_tokens, weights_path=weights_path)
        self.encoder = ArBertEncoder(backbone, seed=seed, attention_norm=attention_norm)
        d = hidden_size
        m = mlp_hidden or d
        rng = np.random.default_rng(seed + 1)
        self.mlp_params: dict[str, np.ndarray] = {
            "mlp.W1": rng.normal(0.0, 1.0 / np.sqrt(4 * d), size=(m, 4 * d)),
            "mlp.b1": np.zeros(m),
            "mlp.W2": rng.normal(0.0, 1.0 / np.sqrt(m), size=(d, m)),
            "mlp.b2": np.zeros(d),
            "head.W": rng.normal(0.0, 1.0 / np.sqrt(d), size=(2, d)),
        }
        self.frozen = False
        self.config = {
            "backbone": backbone_name,
            "hidden_size": hidden_size,
            "max_tokens": max_tokens,
            "mlp_hidden": m,
            "seed": seed,
            "attention_norm": attention_norm,
            "weights_path": weights_path,
        }

    # -- parameter plumbing ------------------------------------------------
    def all_params(self) -> dict[str, np.ndarray]:
        params = {f"enc.{k}": v for k, v in self.encoder.params.items()}
        params.update(self.mlp_params)
        return params

    def set_params(self, params: dict[str, np.ndarray]) -> None:
        for k, v in params.items():
            if k.startswith("enc."):
                self.encoder.params[k[4:]] = v.copy()
            else:
                self.mlp_params[k] = v.copy()

    def param_checksum(self) -> str:
        digest = hashlib.sha256()
        for k in sorted(self.all_params()):
            digest.update(k.encode())
            digest.update(self.all_params()[k].tobytes())
        return digest.hexdigest()

    def freeze(self) -> None:
        self.frozen = True

    # -- forward paths -----------------------------------------------------
    def _mlp_feature(self, h_prime: np.ndarray):
        z1 = self.mlp_params["mlp.W1"] @ h_prime + self.mlp_params["mlp.b1"]
        a1 = np.tanh(z1)
        feat = self.mlp_params["mlp.W2"] @ a1 + self.mlp_params["mlp.b2"]
        return feat, (h_prime, a1)

    def features(self, prepared: PreparedInput) -> np.ndarray:
        """The d-dimensional feature of one prepared input; no gradients."""
        h_prime, _ = self.encoder.forward_prepared(prepared)
        return self._mlp_feature(h_prime)[0]

    def forward_train(self, prepared: PreparedInput):
        """Class probabilities of one prepared input (``encoder.prepare``)
        through the pretraining head, with caches."""
        if self.frozen:
            raise RuntimeError("extractor is frozen; training forward is forbidden")
        h_prime, enc_cache = self.encoder.forward_prepared(prepared)
        feat, mlp_cache = self._mlp_feature(h_prime)
        logits = self.mlp_params["head.W"] @ feat
        shifted = np.exp(logits - logits.max())
        probs = shifted / shifted.sum()
        return probs, (enc_cache, mlp_cache, feat)

    def backward_train(self, d_logits: np.ndarray, caches, grads: dict[str, np.ndarray]):
        enc_cache, (h_prime, a1), feat = caches
        grads["head.W"] += np.outer(d_logits, feat)
        d_feat = self.mlp_params["head.W"].T @ d_logits
        grads["mlp.W2"] += np.outer(d_feat, a1)
        grads["mlp.b2"] += d_feat
        d_a1 = self.mlp_params["mlp.W2"].T @ d_feat
        d_z1 = d_a1 * (1.0 - a1 ** 2)
        grads["mlp.W1"] += np.outer(d_z1, h_prime)
        grads["mlp.b1"] += d_z1
        d_hprime = self.mlp_params["mlp.W1"].T @ d_z1
        enc_grads = {k[4:]: grads[k] for k in grads if k.startswith("enc.")}
        self.encoder.backward(d_hprime, enc_cache, enc_grads)

    def zero_grads(self) -> dict[str, np.ndarray]:
        return {k: np.zeros_like(v) for k, v in self.all_params().items()}

    # -- persistence ---------------------------------------------------------
    def save(self, path: str | Path, history: list | None = None) -> None:
        from .training import save_archive

        meta = {"kind": "trajectory-extractor", "config": self.config,
                "frozen": self.frozen, "history": history or []}
        save_archive(path, self.all_params(), meta)

    @classmethod
    def from_config(cls, cfg: dict) -> "FrozenTrajectoryExtractor":
        """An untrained, unfrozen extractor built from a saved ``config`` dict."""
        return cls(backbone_name=cfg["backbone"], hidden_size=cfg["hidden_size"],
                   max_tokens=cfg["max_tokens"], mlp_hidden=cfg["mlp_hidden"],
                   seed=cfg["seed"], attention_norm=cfg["attention_norm"],
                   weights_path=cfg.get("weights_path"))

    @classmethod
    def load(cls, path: str | Path) -> "FrozenTrajectoryExtractor":
        from .training import load_archive

        arrays, meta = load_archive(path)
        if meta.get("kind") != "trajectory-extractor":
            raise ValueError(f"{path} is not a trajectory extractor checkpoint")
        extractor = cls.from_config(meta["config"])
        extractor.set_params(arrays)
        if meta.get("frozen"):
            extractor.freeze()
        return extractor

    def config_hash(self) -> str:
        return hashlib.sha256(
            json.dumps(self.config, sort_keys=True).encode()).hexdigest()[:12]
