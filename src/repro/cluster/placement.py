"""Solver-driven node placement: the stage *above* the per-GPU MILP.

UGache's §6 MILP answers "which GPU inside one box stores which entry".
A cluster adds a question above it: **which node owns which slice of the
keyspace**, with R-way replication so node death never orphans a key.
The consistent-hash ring (:mod:`repro.cluster.ring`) answers it blindly;
this module answers it from the same hotness profile the MILP consumes:

1. **node stage** — :func:`solve_node_placement` assigns each entry's R
   replicas to the R least-loaded nodes at that point of a hotness-sorted
   sweep (an LPT-style greedy that is within a few percent of the LP
   optimum for balance), optionally replicating the hottest head on
   *every* node so no single node bottlenecks the flash-crowd keys;
2. **per-GPU stage** — each node then hands its shard's hotness to the
   unchanged per-GPU machinery
   (:func:`repro.core.solver.solve_sharded_policy`), which masks hotness
   outside the shard and solves the §6 MILP/greedy/cached chain as if the
   shard were the whole world.

Both placement modes expose the same ``owners_for`` surface, so the
front-end routes through either interchangeably.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np

from repro.utils.arrays import hot_order
from repro.utils.logging import get_logger

logger = get_logger("cluster.placement")

__all__ = ["NodePlacement", "analyze_node_loss", "solve_node_placement"]

#: Share of the keyspace (the hottest head) the solver placement replicates
#: on every node.
WIDE_REPLICATE_FRAC = 0.01


@dataclass(frozen=True)
class NodePlacement:
    """Explicit per-entry owner table: ``owners[k]`` lists key ``k``'s
    replica nodes, primary first."""

    #: ``(num_entries, replication)`` node ids.
    owners: np.ndarray
    num_nodes: int
    #: optional boolean mask of wide-replicated entries: the hot head
    #: every node caches regardless of the owner columns (the owner table
    #: only routes reads; membership is owners ∪ wide).
    wide: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.owners.ndim != 2:
            raise ValueError("owners must be a (num_entries, R) table")
        if self.owners.size and (
            self.owners.min() < 0 or self.owners.max() >= self.num_nodes
        ):
            raise ValueError("owner ids out of range")

    @property
    def num_entries(self) -> int:
        return int(self.owners.shape[0])

    def owners_for(self, keys: np.ndarray) -> np.ndarray:
        """``(len(keys), replication)`` owner nodes, primary first."""
        return self.owners[np.ascontiguousarray(keys, dtype=np.int64)]

    def member_mask(self, node: int) -> np.ndarray:
        """Boolean mask over the keyspace: which entries ``node`` holds."""
        mask = (self.owners == node).any(axis=1)
        if self.wide is not None:
            mask = mask | self.wide
        return mask

    def share_of(self) -> dict[int, float]:
        """Fraction of the keyspace each node primarily owns."""
        primary = self.owners[:, 0]
        n = self.num_entries
        return {
            node: float((primary == node).sum()) / n
            for node in range(self.num_nodes)
        }


def analyze_node_loss(placement, node_ids, num_entries: int) -> list[dict]:
    """What-if: for each node, the blast radius of losing it.

    Works on anything with the ``owners_for`` surface (ring or solved
    placement), so the CLI can run the analysis without instantiating
    cache nodes.  Keys whose surviving replica set is empty spill to the
    survivors' host tables round-robin for the share estimate — in the
    live front-end that is exactly the host-fallback path.
    """
    node_ids = sorted(int(n) for n in node_ids)
    entries = np.arange(num_entries, dtype=np.int64)
    owners = placement.owners_for(entries)
    primary = owners[:, 0]
    out: list[dict] = []
    for node_id in node_ids:
        affected = primary == node_id
        moved = int(affected.sum())
        covered = np.zeros(num_entries, dtype=bool)
        new_primary = primary.copy()
        pending = affected.copy()
        for r in range(1, owners.shape[1]):
            takeover = pending & (owners[:, r] != node_id)
            new_primary[takeover] = owners[takeover, r]
            covered |= takeover
            pending &= ~takeover
        survivors = [n for n in node_ids if n != node_id]
        uncovered = np.flatnonzero(affected & ~covered)
        if len(uncovered) and survivors:
            new_primary[uncovered] = np.asarray(survivors)[
                uncovered % len(survivors)
            ]
        shares = {
            int(n): float((new_primary == n).sum()) / num_entries
            for n in survivors
        }
        out.append(
            {
                "node": node_id,
                "share": moved / num_entries,
                "moved_primaries": moved,
                "replica_covered": (
                    float(covered.sum()) / moved if moved else 1.0
                ),
                "uncovered_keys": int(len(uncovered)),
                "post_loss_max_share": max(shares.values(), default=0.0),
            }
        )
    return out


def solve_node_placement(
    hotness: np.ndarray,
    num_nodes: int,
    replication: int = 1,
) -> NodePlacement:
    """Balance expected load (hotness), not key count, across nodes.

    Entries are swept hottest-first; each entry's R replicas go to the R
    least-loaded nodes at that moment, so the aggregate hotness per node
    stays within one entry's weight of even.  :data:`WIDE_REPLICATE_FRAC` of
    the keyspace (the hottest head) is instead replicated on *every*
    node — the cluster twin of the MILP's hot-replicate tier, so the keys
    that dominate traffic never funnel through one node.
    """
    hotness = np.asarray(hotness, dtype=np.float64)
    n = len(hotness)
    if num_nodes < 1:
        raise ValueError("need at least one node")
    if not 1 <= replication <= num_nodes:
        raise ValueError(
            f"replication must be in [1, {num_nodes}], got {replication}"
        )

    owners = np.empty((n, replication), dtype=np.int64)
    wide_mask = np.zeros(n, dtype=bool)
    order = hot_order(hotness)
    wide = int(round(WIDE_REPLICATE_FRAC * n))
    # (load, node) heap; ties resolve by node id for determinism.
    loads = [(0.0, node) for node in range(num_nodes)]
    heapq.heapify(loads)

    for rank, entry in enumerate(order):
        h = float(hotness[entry])
        if rank < wide:
            # Hot head: on every node; the primary rotates round-robin so
            # the head's *read* load also spreads.
            primary = rank % num_nodes
            owners[entry, 0] = primary
            rest = [x for x in range(num_nodes) if x != primary]
            owners[entry, 1:] = rest[: replication - 1]
            wide_mask[entry] = True
            continue
        picked = [heapq.heappop(loads) for _ in range(replication)]
        for r, (load, node) in enumerate(picked):
            owners[entry, r] = node
            # The primary serves the reads; replicas only pay storage and
            # failover standby, weighted well below a live serve.
            heapq.heappush(
                loads, (load + (h if r == 0 else 0.1 * h), node)
            )
    placement = NodePlacement(
        owners=owners,
        num_nodes=num_nodes,
        wide=wide_mask if wide else None,
    )
    share = placement.share_of()
    logger.debug(
        "node placement: %d entries over %d nodes (R=%d), primary shares %s",
        n, num_nodes, replication,
        {k: round(v, 3) for k, v in share.items()},
    )
    return placement
