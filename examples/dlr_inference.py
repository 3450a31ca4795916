"""DLR inference with UGache — the paper's second application domain (§8).

Serves a multi-table recommendation workload (Criteo-like: heterogeneous
table sizes, Zipf keys) through the TensorFlow-style embedding layer
(§7.1) into the two models of §8.1 (DLRM and DCN), then demonstrates the background Refresher (§7.2): the key
popularity drifts, the Solver re-evaluates, and the cache is migrated in
small throttled steps while lookups stay exact throughout.

Run:  python examples/dlr_inference.py
"""

import numpy as np

from repro import server_c
from repro.dlr import DcnNet, DlrmNet, DlrWorkload, serve_batch
from repro.framework import UGacheKerasEmbedding

TABLE_SIZES = (40_000, 20_000, 10_000, 5_000, 2_500) + (500,) * 10
DIM, BATCH, NUM_GPUS = 32, 4096, 8


def main() -> None:
    platform = server_c()
    rng = np.random.default_rng(0)

    workload = DlrWorkload(
        table_sizes=TABLE_SIZES, alpha=1.2, batch_size=BATCH,
        num_gpus=NUM_GPUS, seed=0,
    )
    print(f"{workload.num_tables} embedding tables, "
          f"{workload.num_entries:,} entries total")

    table = rng.standard_normal((workload.num_entries, DIM)).astype(np.float32)
    layer = UGacheKerasEmbedding(platform, cache_ratio=0.08)
    layer.build(table, workload.hotness())
    hits = layer.layer.hit_rates()
    print(f"cache built: local {hits.local:.1%}, remote {hits.remote:.1%}, "
          f"host {hits.host:.1%}")

    models = {
        "DLRM": DlrmNet(workload.num_tables, DIM),
        "DCN": DcnNet(workload.num_tables, DIM),
    }
    print("\nserving inference batches:")
    for it, batches in enumerate(workload.take_batches(3, seed=5)):
        # Keras-style call: (batch × tables) keys → (batch × tables × dim).
        keys = batches[0].reshape(workload.num_tables, BATCH).T
        dense_input = layer(keys, device=0)
        assert dense_input.shape == (BATCH, workload.num_tables, DIM)
        _values, report = layer.layer.extract(batches)
        # The dense half: cache-extracted embeddings + continuous features
        # through each model's interaction layers to click probabilities.
        features = rng.standard_normal((BATCH, 13))
        clicks = {
            name: serve_batch(
                net, lambda k: layer.layer.lookup(0, k), keys, features
            ).mean()
            for name, net in models.items()
        }
        print(f"  iter {it}: extraction {report.time * 1e3:.3f} ms (simulated); "
              + ", ".join(f"{n} mean p(click) {p:.3f}" for n, p in clicks.items()))

    # ------------------------------------------------------------------
    # Hotness drift + background refresh (§7.2)
    # ------------------------------------------------------------------
    print("\npopularity drifts (daily trace rollover) → refresh:")
    drifted = DlrWorkload(
        table_sizes=TABLE_SIZES, alpha=1.2, batch_size=BATCH,
        num_gpus=NUM_GPUS, seed=99,  # new permutation = new hot set
    )
    stale_hits = _hit_rate_under(layer, drifted)
    outcome = layer.layer.refresh(drifted.hotness())
    fresh_hits = _hit_rate_under(layer, drifted)
    print(f"  refresh triggered: {outcome.triggered}, "
          f"moved {outcome.entries_moved:,} entries in {outcome.steps} steps "
          f"(~{outcome.estimated_duration:.1f} s incl. solve)")
    print(f"  GPU hit rate on drifted trace: {stale_hits:.1%} -> {fresh_hits:.1%}")

    batch = next(iter(drifted.batches(seed=7)))[0]
    values = layer.layer.lookup(0, batch)
    assert np.array_equal(values, table[batch]), "lookups must stay exact"
    print("  post-refresh lookups verified byte-exact")


def _hit_rate_under(layer: UGacheKerasEmbedding, workload: DlrWorkload) -> float:
    from repro.core.evaluate import hit_rates

    hits = hit_rates(
        layer.layer.platform, layer.layer.placement, workload.hotness()
    )
    return hits.global_hit


if __name__ == "__main__":
    main()
