"""Real (numpy) DLRM/DCN inference — the dense side of DLR serving.

Implements the reference DLRM architecture [36] functionally: a bottom MLP
embeds the dense features, pairwise dot-product interactions combine them
with the (cache-extracted) embedding vectors, and a top MLP produces the
click probability.  The DCN variant [41] replaces the interaction layer
with explicit cross layers.  Weights are random (inference-only, as in the
paper's DLR evaluation); performance is modelled by
:mod:`repro.dlr.models` — this module supplies functional realism for the
examples and tests.
"""

from __future__ import annotations

import numpy as np

from repro.utils.rng import make_rng


def _mlp_params(dims: list[int], rng: np.random.Generator):
    weights = []
    biases = []
    for d_in, d_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, 1.0 / np.sqrt(d_in), (d_in, d_out)))
        biases.append(np.zeros(d_out))
    return weights, biases


def _mlp_forward(x: np.ndarray, weights, biases, final_activation: bool) -> np.ndarray:
    for i, (w, b) in enumerate(zip(weights, biases)):
        x = x @ w + b
        last = i == len(weights) - 1
        if not last or final_activation:
            x = np.maximum(x, 0.0)
    return x


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30, 30)))


#: Continuous features per sample (Criteo's 13), and the hidden widths of
#: DLRM's bottom and top MLPs and of DCN's deep branch; DCN cross layers.
DENSE_DIM = 13
BOTTOM_DIMS = (64,)
TOP_DIMS = (128, 64)
DEEP_DIMS = (128, 64)
CROSS_LAYERS = 3


class DlrmNet:
    """Reference DLRM: bottom MLP → dot interactions → top MLP → sigmoid."""

    def __init__(self, num_tables: int, embedding_dim: int, seed: int = 0) -> None:
        if num_tables < 1:
            raise ValueError("need at least one embedding table")
        rng = make_rng(seed)
        self.num_tables = num_tables
        self.embedding_dim = embedding_dim
        self.bottom_w, self.bottom_b = _mlp_params(
            [DENSE_DIM, *BOTTOM_DIMS, embedding_dim], rng
        )
        num_features = num_tables + 1  # embeddings + projected dense vector
        interaction_dim = num_features * (num_features - 1) // 2 + embedding_dim
        self.top_w, self.top_b = _mlp_params([interaction_dim, *TOP_DIMS, 1], rng)

    def forward(self, dense: np.ndarray, embeddings: np.ndarray) -> np.ndarray:
        """Click probabilities.

        Args:
            dense: ``(batch, dense_dim)`` continuous features.
            embeddings: ``(batch, num_tables, embedding_dim)`` — the
                vectors the embedding cache extracted for this batch.

        Returns:
            ``(batch,)`` probabilities in (0, 1).
        """
        batch = dense.shape[0]
        if embeddings.shape != (batch, self.num_tables, self.embedding_dim):
            raise ValueError(
                f"embeddings must be (batch, {self.num_tables}, "
                f"{self.embedding_dim}), got {embeddings.shape}"
            )
        projected = _mlp_forward(dense, self.bottom_w, self.bottom_b, True)
        feats = np.concatenate([projected[:, None, :], embeddings], axis=1)
        # Pairwise dot interactions (upper triangle, no diagonal).
        gram = np.einsum("bik,bjk->bij", feats, feats)
        iu = np.triu_indices(feats.shape[1], k=1)
        interactions = gram[:, iu[0], iu[1]]
        top_in = np.concatenate([projected, interactions], axis=1)
        logit = _mlp_forward(top_in, self.top_w, self.top_b, False)
        return sigmoid(logit[:, 0])


class DcnNet:
    """Deep & Cross Network: explicit cross layers over the flat features."""

    def __init__(self, num_tables: int, embedding_dim: int, seed: int = 0) -> None:
        rng = make_rng(seed)
        self.num_tables = num_tables
        self.embedding_dim = embedding_dim
        d = DENSE_DIM + num_tables * embedding_dim
        self.cross_w = [rng.normal(0.0, 1.0 / np.sqrt(d), d) for _ in range(CROSS_LAYERS)]
        self.cross_b = [np.zeros(d) for _ in range(CROSS_LAYERS)]
        self.deep_w, self.deep_b = _mlp_params([d, *DEEP_DIMS], rng)
        self.head_w = rng.normal(0.0, 1.0 / np.sqrt(d + DEEP_DIMS[-1]), d + DEEP_DIMS[-1])

    def forward(self, dense: np.ndarray, embeddings: np.ndarray) -> np.ndarray:
        """Click probabilities for a batch (same contract as DLRM)."""
        batch = dense.shape[0]
        if embeddings.shape != (batch, self.num_tables, self.embedding_dim):
            raise ValueError("embeddings shape mismatch")
        x0 = np.concatenate([dense, embeddings.reshape(batch, -1)], axis=1)
        x = x0
        for w, b in zip(self.cross_w, self.cross_b):
            # x_{l+1} = x0 * (x_l · w) + b + x_l  — the cross layer.
            x = x0 * (x @ w)[:, None] + b + x
        deep = _mlp_forward(x0, self.deep_w, self.deep_b, True)
        logit = np.concatenate([x, deep], axis=1) @ self.head_w
        return sigmoid(logit)


def serve_batch(
    net,
    lookup,
    keys: np.ndarray,
    dense: np.ndarray,
) -> np.ndarray:
    """Glue: run one inference batch through an embedding cache + model.

    Args:
        net: a :class:`DlrmNet` or :class:`DcnNet`.
        lookup: callable ``(flat_keys) -> (len(flat_keys), dim)`` values —
            e.g. ``lambda k: layer.lookup(gpu, k)``.
        keys: ``(batch, num_tables)`` embedding keys.
        dense: ``(batch, dense_dim)`` continuous features.
    """
    batch, num_tables = keys.shape
    values = lookup(keys.reshape(-1))
    embeddings = values.reshape(batch, num_tables, -1)
    return net.forward(dense, embeddings)
