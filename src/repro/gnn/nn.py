"""Real (numpy) GraphSAGE over sampled neighbourhood trees.

The paper treats the dense side as a black box behind DGL/PyTorch; for the
examples to be genuinely end-to-end (extract embeddings → aggregate →
predict → update) this module implements layered GraphSAGE exactly on the
sampled fanout tree, with full backpropagation and SGD — in plain numpy,
CPU-only.  The *performance* of the dense side is modelled separately by
:mod:`repro.gnn.models`; this module supplies functional realism.

Structure: a batch of seeds is expanded depth by depth with fixed fanouts
(:class:`FanoutTree`); level ``ℓ`` of the network computes, for every tree
position at depth ``d ≤ L−ℓ``,

    h^ℓ[d] = relu( h^{ℓ-1}[d]·W_self + mean(h^{ℓ-1}[children(d)])·W_neigh )

with ``h⁰`` the (frozen, cache-extracted) embedding features.  The final
representation of depth-0 positions (the seeds) feeds a linear classifier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gnn.graph import CSRGraph
from repro.gnn.sampling import sample_neighbors
from repro.utils.rng import make_rng


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


@dataclass(frozen=True)
class FanoutTree:
    """A sampled neighbourhood tree for one seed batch.

    ``nodes[d]`` holds the vertex id of every tree position at depth ``d``;
    depth d+1 has ``len(nodes[d]) * fanouts[d]`` positions, children of
    position ``i`` occupying the slice ``i*fanout:(i+1)*fanout``.
    """

    fanouts: tuple[int, ...]
    nodes: tuple[np.ndarray, ...]

    @property
    def depth(self) -> int:
        return len(self.fanouts)

    def all_keys(self) -> np.ndarray:
        """Every vertex occurrence — the embedding keys to extract."""
        return np.concatenate(self.nodes)

    def features_by_depth(
        self, unique_keys: np.ndarray, values: np.ndarray
    ) -> list[np.ndarray]:
        """Scatter extracted (unique) embedding values onto tree positions.

        ``values[i]`` must be the embedding of ``unique_keys[i]``; returns
        one ``(positions, dim)`` matrix per depth.
        """
        lookup = {int(k): i for i, k in enumerate(unique_keys)}
        out = []
        for depth_nodes in self.nodes:
            rows = np.fromiter(
                (lookup[int(v)] for v in depth_nodes),
                dtype=np.int64,
                count=len(depth_nodes),
            )
            out.append(values[rows])
        return out


def sample_tree(
    graph: CSRGraph,
    seeds: np.ndarray,
    fanouts: tuple[int, ...],
    seed: int | np.random.Generator = 0,
) -> FanoutTree:
    """Expand seeds into a fixed-fanout tree (with-replacement sampling).

    Zero-degree vertices contribute themselves as their own "neighbours"
    so the tree stays rectangular (their aggregation degenerates to a
    self-loop, the usual fallback).
    """
    rng = make_rng(seed)
    nodes = [np.asarray(seeds, dtype=np.int64)]
    frontier = nodes[0]
    for fanout in fanouts:
        degs = graph.indptr[frontier + 1] - graph.indptr[frontier]
        children = np.repeat(frontier, fanout)
        alive = degs > 0
        if alive.any():
            sampled = sample_neighbors(graph, frontier[alive], fanout, rng)
            mask = np.repeat(alive, fanout)
            children[mask] = sampled
        nodes.append(children)
        frontier = children
    return FanoutTree(fanouts=tuple(fanouts), nodes=tuple(nodes))


@dataclass
class SageGradients:
    """Per-level weight gradients plus the classifier's."""

    w_self: list[np.ndarray]
    w_neigh: list[np.ndarray]
    w_out: np.ndarray


class GraphSageModel:
    """L-level mean-aggregator GraphSAGE + linear classifier (numpy)."""

    def __init__(
        self,
        input_dim: int,
        hidden_dim: int,
        num_levels: int,
        num_classes: int,
        seed: int = 0,
    ) -> None:
        if num_levels < 1:
            raise ValueError("need at least one message-passing level")
        rng = make_rng(seed)
        self.w_self: list[np.ndarray] = []
        self.w_neigh: list[np.ndarray] = []
        dim = input_dim
        for _ in range(num_levels):
            scale = 1.0 / np.sqrt(2.0 * dim)
            self.w_self.append(rng.normal(0.0, scale, (dim, hidden_dim)))
            self.w_neigh.append(rng.normal(0.0, scale, (dim, hidden_dim)))
            dim = hidden_dim
        self.w_out = rng.normal(0.0, 1.0 / np.sqrt(dim), (dim, num_classes))

    @property
    def num_levels(self) -> int:
        return len(self.w_self)

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(
        self, tree: FanoutTree, features: list[np.ndarray]
    ) -> tuple[np.ndarray, list]:
        """Seed logits + the tape needed for :meth:`backward`."""
        if tree.depth != self.num_levels:
            raise ValueError(
                f"tree depth {tree.depth} != model levels {self.num_levels}"
            )
        if len(features) != tree.depth + 1:
            raise ValueError("need one feature matrix per tree depth")
        h = list(features)
        tape = []
        for level in range(self.num_levels):
            new_h = []
            level_tape = []
            active_depths = self.num_levels - level
            for d in range(active_depths):
                fanout = tree.fanouts[d]
                self_in = h[d]
                neigh_in = h[d + 1].reshape(len(h[d]), fanout, -1).mean(axis=1)
                pre = self_in @ self.w_self[level] + neigh_in @ self.w_neigh[level]
                new_h.append(relu(pre))
                level_tape.append((self_in, neigh_in, pre))
            tape.append(level_tape)
            h = new_h
        logits = h[0] @ self.w_out
        tape.append(h[0])
        return logits, tape

    # ------------------------------------------------------------------
    # Loss + exact backward
    # ------------------------------------------------------------------
    def loss_and_grads(
        self,
        tree: FanoutTree,
        features: list[np.ndarray],
        labels: np.ndarray,
    ) -> tuple[float, SageGradients]:
        """Softmax cross-entropy over seeds and exact weight gradients.

        Input embeddings stay frozen (read-only access, §2); all dense
        weights receive full gradients through the tree.
        """
        logits, tape = self.forward(tree, features)
        final_h = tape[-1]
        labels = np.asarray(labels)
        n = len(labels)
        shifted = logits - logits.max(axis=1, keepdims=True)
        probs = np.exp(shifted)
        probs /= probs.sum(axis=1, keepdims=True)
        loss = float(-np.log(probs[np.arange(n), labels] + 1e-12).mean())

        dlogits = probs
        dlogits[np.arange(n), labels] -= 1.0
        dlogits /= n
        dw_out = final_h.T @ dlogits

        grads = SageGradients(
            w_self=[np.zeros_like(w) for w in self.w_self],
            w_neigh=[np.zeros_like(w) for w in self.w_neigh],
            w_out=dw_out,
        )
        # d h^{level}[d] for the depths active after the final level.
        dh = [dlogits @ self.w_out.T]
        for level in range(self.num_levels - 1, -1, -1):
            level_tape = tape[level]
            new_dh = [None] * (len(level_tape) + 1)
            for d, (self_in, neigh_in, pre) in enumerate(level_tape):
                grad_out = dh[d]
                if grad_out is None:
                    continue
                dpre = grad_out * (pre > 0)
                grads.w_self[level] += self_in.T @ dpre
                grads.w_neigh[level] += neigh_in.T @ dpre
                dself = dpre @ self.w_self[level].T
                dneigh = dpre @ self.w_neigh[level].T
                fanout = tree.fanouts[d]
                spread = np.repeat(dneigh / fanout, fanout, axis=0)
                if new_dh[d] is None:
                    new_dh[d] = dself
                else:
                    new_dh[d] = new_dh[d] + dself
                if new_dh[d + 1] is None:
                    new_dh[d + 1] = spread
                else:
                    new_dh[d + 1] = new_dh[d + 1] + spread
            dh = new_dh
        return loss, grads

    def sgd_step(self, grads: SageGradients, lr: float) -> None:
        for level in range(self.num_levels):
            self.w_self[level] -= lr * grads.w_self[level]
            self.w_neigh[level] -= lr * grads.w_neigh[level]
        self.w_out -= lr * grads.w_out

    def predict(self, tree: FanoutTree, features: list[np.ndarray]) -> np.ndarray:
        logits, _ = self.forward(tree, features)
        return logits.argmax(axis=1)
