"""Per-entry content checksums: the anti-entropy scrubber's ground truth.

Every value row — in the host table and in each GPU store's slot arena —
gets one ``uint64`` checksum over its raw bytes.  The scrubber
(:mod:`repro.repair.scrub`) cross-checks a GPU slot's *recomputed*
checksum against the host table's, so any silent byte flip between fill
time and scrub time is caught without comparing full rows.

The checksum is a positional weighted byte sum mod ``2**64``: byte ``j``
is weighted by ``MULT**(j+1)`` for an odd multiplier, so the weights are
all odd (hence invertible mod ``2**64``) and **any single-byte change is
guaranteed to change the checksum** — the property bit-rot detection
actually needs.  Multi-byte collisions are possible but need adversarial
alignment, not random flips.  Everything is vectorized: checksumming a
whole store is one ``(slots, bytes) @ weights`` pass.
"""

from __future__ import annotations

import numpy as np

__all__ = ["row_checksums"]

#: Odd multiplier (2**64 / golden ratio): every positional weight
#: ``_MULT**(j+1)`` stays odd, so per-byte deltas never vanish mod 2**64.
_MULT = np.uint64(0x9E3779B97F4A7C15)

#: byte-width -> weight vector, grown on demand and sliced per call.
_weight_cache: dict[int, np.ndarray] = {}


def _weights(num_bytes: int) -> np.ndarray:
    w = _weight_cache.get(num_bytes)
    if w is None:
        with np.errstate(over="ignore"):
            w = np.full(num_bytes, _MULT, dtype=np.uint64)
            np.cumprod(w, out=w)  # wraps mod 2**64 (C semantics)
        _weight_cache[num_bytes] = w
    return w


def row_checksums(values: np.ndarray) -> np.ndarray:
    """One ``uint64`` checksum per row of a 2-D value array.

    Rows are checksummed over their raw bytes (dtype-agnostic), so the
    same function covers the float32 host table and the GPU stores'
    slot arenas.
    """
    arr = np.ascontiguousarray(values)
    if arr.ndim != 2:
        raise ValueError("row checksums need a 2-D (rows x dim) array")
    n = arr.shape[0]
    if n == 0 or arr.shape[1] == 0:
        return np.zeros(n, dtype=np.uint64)
    raw = arr.view(np.uint8).reshape(n, -1)
    w = _weights(raw.shape[1])
    with np.errstate(over="ignore"):
        return (raw.astype(np.uint64) * w).sum(axis=1, dtype=np.uint64)


