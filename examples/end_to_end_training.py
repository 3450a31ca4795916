"""Fully end-to-end GNN training: cache-extracted features → real model.

Everything in one loop, nothing mocked: a power-law graph, a UGache
embedding (the ``nn.Embedding`` look-alike of §7.1) across the modelled
8×A100 server, fanout-tree sampling,
and an actual numpy GraphSAGE (exact forward/backward) learning a
feature-derived node-classification task.  Training loss falls while every
feature vector is served by the multi-GPU cache — and the simulated
extraction time of each iteration is reported alongside.

Run:  python examples/end_to_end_training.py
"""

import numpy as np

from repro import server_c
from repro.core.hotness import degree_hotness
from repro.framework import UGacheEmbedding
from repro.gnn import GraphSageModel, power_law_graph, sample_tree

NUM_NODES, NUM_EDGES = 20_000, 300_000
DIM, HIDDEN, CLASSES = 16, 32, 4
FANOUTS = (5, 5)
BATCH, STEPS = 256, 30


def main() -> None:
    rng = np.random.default_rng(0)
    platform = server_c()

    print("building graph, embeddings, and a learnable labelling...")
    graph = power_law_graph(NUM_NODES, NUM_EDGES, degree_alpha=1.1, seed=0)
    table = rng.standard_normal((NUM_NODES, DIM)).astype(np.float32)
    true_w = rng.standard_normal((DIM, CLASSES))
    labels = (table @ true_w).argmax(axis=1)  # ground truth from features

    # Hotness from degree (PaGraph-style §6.1) — no profiling epoch needed.
    hotness = degree_hotness(graph.degrees()) * (BATCH * 31)

    emb = UGacheEmbedding(platform, table, hotness, cache_ratio=0.10)
    layer = emb.layer
    hits = layer.hit_rates()
    print(f"cache ready for a {emb.num_embeddings} x {emb.embedding_dim} table: "
          f"local {hits.local:.1%} / remote {hits.remote:.1%} / host {hits.host:.1%}")

    model = GraphSageModel(DIM, HIDDEN, num_levels=len(FANOUTS),
                           num_classes=CLASSES, seed=1)
    print(f"\ntraining GraphSAGE for {STEPS} steps:")
    extraction_total = 0.0
    for step in range(STEPS):
        seeds = rng.choice(NUM_NODES, size=BATCH, replace=False)
        tree = sample_tree(graph, seeds, FANOUTS, seed=1000 + step)

        # Extract every tree position's embedding through the cache —
        # duplicates included, as the paper's extract() does.
        keys = tree.all_keys()
        unique = np.unique(keys)
        values = emb(unique, device=0).astype(np.float64)
        features = tree.features_by_depth(unique, values)
        report = layer.extract([keys for _ in platform.gpu_ids])[1]
        extraction_total += report.time

        loss, grads = model.loss_and_grads(tree, features, labels[seeds])
        model.sgd_step(grads, lr=0.5)
        if step % 5 == 0 or step == STEPS - 1:
            acc = (model.predict(tree, features) == labels[seeds]).mean()
            print(f"  step {step:3d}: loss {loss:.3f}  batch acc {acc:.2%}  "
                  f"extraction {report.time * 1e3:.3f} ms (simulated)")

    print(f"\ntotal simulated extraction time: {extraction_total * 1e3:.2f} ms "
          f"across {STEPS} iterations")
    print("the embedding table never changed (read-only, §2); "
          "only dense weights trained.")


if __name__ == "__main__":
    main()
