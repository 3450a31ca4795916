"""Consistent-hash ring: keyspace partitioning with R-way replication.

The ring is the cluster's default placement mode.  Each node projects
:data:`VNODES_PER_NODE` virtual nodes onto a 64-bit ring; a key is owned by
the first ``replication`` *distinct* nodes encountered clockwise from its
hash.  That gives the two properties the cluster tier needs:

* **balance** — virtual nodes smooth out the per-node keyspace share, so
  no node owns a pathological slice;
* **minimal disruption** — removing a node moves only the keys it owned
  (they slide to their next clockwise successor); every other key keeps
  its owner set, so a node death never triggers a full reshuffle.

Everything is vectorized: ``owners_for`` resolves a whole batch of keys
with one hash, one ``searchsorted``, and one table gather, mirroring the
bulk-probing idiom of :class:`~repro.core.location_table.LocationTable`.
"""

from __future__ import annotations

import numpy as np

from repro.utils.logging import get_logger

logger = get_logger("cluster.ring")

__all__ = ["HashRing", "hash_keys"]

#: Virtual nodes each node projects onto the ring.
VNODES_PER_NODE = 64


def hash_keys(keys: np.ndarray, seed: int = 0) -> np.ndarray:
    """SplitMix64 finalizer over int keys: uniform uint64 ring positions.

    Deterministic, seedable, and vectorized — the same key always lands
    on the same ring position, so placement never depends on insertion
    order or process state.
    """
    x = np.asarray(keys, dtype=np.uint64).copy()
    with np.errstate(over="ignore"):
        x += np.uint64(0x9E3779B97F4A7C15) * np.uint64(2 * seed + 1)
        x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x


class HashRing:
    """R-way replicated consistent hashing over ``num_nodes`` nodes.

    The constructor precomputes, for every virtual-node slot, the first
    ``replication`` distinct owner nodes clockwise — so resolving a batch
    of keys is a hash + ``searchsorted`` + table row gather, with no
    per-key python loop.
    """

    def __init__(
        self,
        num_nodes: int,
        replication: int = 1,
        seed: int = 0,
    ) -> None:
        if num_nodes < 1:
            raise ValueError("need at least one node")
        if not 1 <= replication <= num_nodes:
            raise ValueError(
                f"replication must be in [1, {num_nodes}], got {replication}"
            )
        self.num_nodes = num_nodes
        self.replication = replication
        self.seed = seed

        # Each node's virtual positions: hash (node_id, replica_index)
        # pairs so adding/removing a node never moves another node's
        # virtual points.
        owners = np.repeat(np.arange(num_nodes, dtype=np.int64), VNODES_PER_NODE)
        salt = np.tile(np.arange(VNODES_PER_NODE, dtype=np.int64), num_nodes)
        positions = hash_keys(owners * np.int64(1_000_003) + salt, seed=seed)
        order = np.argsort(positions, kind="stable")
        self._positions = positions[order]
        self._slot_owner = owners[order]
        # Successor table: slot -> first R distinct nodes clockwise.
        self._successors = self._build_successors()

    def _build_successors(self) -> np.ndarray:
        slots = len(self._slot_owner)
        R = self.replication
        table = np.empty((slots, R), dtype=np.int64)
        for s in range(slots):
            seen: list[int] = []
            i = s
            while len(seen) < R:
                owner = int(self._slot_owner[i % slots])
                if owner not in seen:
                    seen.append(owner)
                i += 1
            table[s] = seen
        return table

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def slot_of(self, keys: np.ndarray) -> np.ndarray:
        """Ring slot (virtual-node index) owning each key's position."""
        h = hash_keys(np.ascontiguousarray(keys, dtype=np.int64), seed=self.seed)
        idx = np.searchsorted(self._positions, h, side="left")
        return idx % len(self._positions)

    def owners_for(self, keys: np.ndarray) -> np.ndarray:
        """``(len(keys), replication)`` owner nodes, primary first."""
        return self._successors[self.slot_of(keys)]
