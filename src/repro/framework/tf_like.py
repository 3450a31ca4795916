"""TensorFlow/Keras-style integration (§7.1): UGache as an embedding layer.

Mirrors the ``tf.keras.layers.Layer`` lifecycle — construct with config,
``build`` on first call, ``call`` for lookups — over numpy arrays, since
TensorFlow is unavailable offline.  This is the surface the paper's DLR
inference integration (HPS / SOK plugin replacement) exposes.
"""

from __future__ import annotations

import numpy as np

from repro.core.embedding_layer import EmbeddingLayerConfig, UGacheEmbeddingLayer
from repro.hardware.platform import Platform


class UGacheKerasEmbedding:
    """Keras-style layer serving multi-table DLR lookups.

    Example::

        layer = UGacheKerasEmbedding(platform, cache_ratio=0.08)
        layer.build(weight, hotness)                # once, like Keras build()
        dense = layer(keys, device=0)               # call per batch
    """

    def __init__(self, platform: Platform, cache_ratio: float) -> None:
        self._platform = platform
        self._cache_ratio = cache_ratio
        self._name = "ugache_embedding"
        self._layer: UGacheEmbeddingLayer | None = None

    @property
    def built(self) -> bool:
        return self._layer is not None

    def build(self, weight: np.ndarray, hotness: np.ndarray) -> None:
        """Materialize the cache (Keras calls this before first use)."""
        if self.built:
            raise RuntimeError(f"layer {self._name!r} is already built")
        self._layer = UGacheEmbeddingLayer(
            self._platform,
            weight,
            hotness,
            EmbeddingLayerConfig(cache_ratio=self._cache_ratio),
        )

    def call(self, keys: np.ndarray, device: int) -> np.ndarray:
        if not self.built:
            raise RuntimeError(
                f"layer {self._name!r} must be built before it is called"
            )
        keys = np.asarray(keys)
        flat = keys.reshape(-1)
        values = self._layer.lookup(device, flat)
        return values.reshape(*keys.shape, self._layer.cache.dim)

    __call__ = call

    @property
    def layer(self) -> UGacheEmbeddingLayer:
        if not self.built:
            raise RuntimeError("layer not built yet")
        return self._layer
