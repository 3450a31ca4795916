"""PyTorch-style integration (§7.1): UGache as a drop-in ``nn.Module``.

PyTorch itself is unavailable offline, so this module provides the same
*calling convention* — a ``Module`` with ``forward`` invoked via
``__call__``, mirroring ``torch.nn.Embedding``'s shape contract — over
numpy arrays.  Applications written against this surface port to the real
binding by swapping the import.
"""

from __future__ import annotations

import numpy as np

from repro.core.embedding_layer import EmbeddingLayerConfig, UGacheEmbeddingLayer
from repro.hardware.platform import Platform


class Module:
    """Minimal ``nn.Module`` look-alike: ``__call__`` dispatches to the
    subclass's ``forward``."""

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class UGacheEmbedding(Module):
    """Drop-in replacement for ``nn.Embedding`` backed by the unified cache.

    Shape contract matches ``nn.Embedding``: input of any integer shape
    ``(...,)`` yields output ``(..., embedding_dim)``.

    Example::

        emb = UGacheEmbedding(platform, weight, hotness, cache_ratio=0.1)
        out = emb(keys, device=0)            # like nn.Embedding on GPU 0
    """

    def __init__(
        self,
        platform: Platform,
        weight: np.ndarray,
        hotness: np.ndarray,
        cache_ratio: float,
    ) -> None:
        self._layer = UGacheEmbeddingLayer(
            platform, weight, hotness, EmbeddingLayerConfig(cache_ratio=cache_ratio)
        )

    @property
    def num_embeddings(self) -> int:
        return self._layer.cache.num_entries

    @property
    def embedding_dim(self) -> int:
        return self._layer.cache.dim

    @property
    def layer(self) -> UGacheEmbeddingLayer:
        """The underlying UGache embedding layer (for stats/refresh)."""
        return self._layer

    def forward(self, keys: np.ndarray, device: int = 0) -> np.ndarray:
        keys = np.asarray(keys)
        flat = keys.reshape(-1)
        values = self._layer.lookup(device, flat)
        return values.reshape(*keys.shape, self.embedding_dim)
