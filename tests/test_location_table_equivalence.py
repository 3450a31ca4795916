"""Scalar-vs-vectorized equivalence for the location hashtable.

The batch operations (`insert_batch`, `lookup_batch`, `remove_batch`) run
bulk numpy probing rounds; the scalar ops are thin wrappers.  These tests
drive both against each other — and against a plain dict model — on
randomized workloads (duplicate keys, removes with backward-shift
compaction, grows, corrupt slots, absent keys) so the vectorized probe
engine cannot drift from the hashtable semantics §4 specifies.

Also holds the regression test for the grow-on-overwrite bug: inserting
an already-present key used to count toward the load factor and could
trigger a spurious grow; overwrites must be capacity-neutral.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.location_table import (
    CorruptEntryError,
    LocationTable,
)
from repro.hardware.platform import HOST

SEEDS = [0, 1, 7, 42, 1234]


def _random_workload(rng, n_ops: int, key_space: int, num_sources: int = 8):
    keys = rng.integers(0, key_space, size=n_ops)
    sources = rng.integers(0, num_sources, size=n_ops)
    offsets = rng.integers(0, 10_000, size=n_ops)
    return keys, sources, offsets


def _dict_model(keys, sources, offsets) -> dict[int, tuple[int, int]]:
    model: dict[int, tuple[int, int]] = {}
    for k, s, o in zip(keys, sources, offsets):
        model[int(k)] = (int(s), int(o))
    return model


def _assert_matches_model(table: LocationTable, model: dict, key_space: int):
    """The table must agree with the dict model on every possible key."""
    assert len(table) == len(model)
    probe = np.arange(key_space, dtype=np.int64)
    sources, offsets = table.lookup_batch(probe)
    for k in range(key_space):
        want = model.get(k, (HOST, k))  # miss ⇒ host, addressed by key
        assert (int(sources[k]), int(offsets[k])) == want, f"key {k}"
        assert table.get(k) == (model[k] if k in model else None)


@pytest.mark.parametrize("seed", SEEDS)
def test_insert_batch_matches_scalar_inserts(seed):
    rng = np.random.default_rng(seed)
    keys, sources, offsets = _random_workload(rng, 500, key_space=300)
    scalar = LocationTable(expected_entries=4)
    batch = LocationTable(expected_entries=4)
    for k, s, o in zip(keys, sources, offsets):
        scalar.insert(int(k), int(s), int(o))
    batch.insert_batch(keys, sources, offsets)
    model = _dict_model(keys, sources, offsets)  # duplicate keys: last wins
    _assert_matches_model(scalar, model, 300)
    _assert_matches_model(batch, model, 300)
    assert scalar.capacity == batch.capacity


@pytest.mark.parametrize("seed", SEEDS)
def test_lookup_batch_matches_scalar_get(seed):
    rng = np.random.default_rng(seed)
    keys, sources, offsets = _random_workload(rng, 400, key_space=1_000)
    table = LocationTable(expected_entries=4)
    table.insert_batch(keys, sources, offsets)
    # Probe a mix of present and absent keys, with repeats.
    probe = rng.integers(0, 2_000, size=600)
    got_src, got_off = table.lookup_batch(probe)
    for i, k in enumerate(probe):
        want = table.get(int(k)) or (HOST, int(k))
        assert (int(got_src[i]), int(got_off[i])) == want


@pytest.mark.parametrize("seed", SEEDS)
def test_remove_batch_matches_scalar_removes(seed):
    rng = np.random.default_rng(seed)
    keys, sources, offsets = _random_workload(rng, 600, key_space=400)
    a = LocationTable(expected_entries=4)
    b = LocationTable(expected_entries=4)
    a.insert_batch(keys, sources, offsets)
    b.insert_batch(keys, sources, offsets)
    doomed = rng.integers(0, 500, size=250)  # some absent
    removed_scalar = sum(a.remove(int(k)) for k in doomed)
    removed_batch = b.remove_batch(doomed)
    assert removed_scalar == removed_batch
    model = _dict_model(keys, sources, offsets)
    for k in doomed:
        model.pop(int(k), None)
    _assert_matches_model(a, model, 400)
    _assert_matches_model(b, model, 400)
    # Backward-shift compaction: surviving chains stay reachable with no
    # tombstones, so probe lengths stay bounded by the live cluster sizes.
    assert a.max_probe_length() < a.capacity
    assert b.max_probe_length() < b.capacity


@pytest.mark.parametrize("seed", SEEDS)
def test_grow_equivalence(seed):
    """Incremental scalar grows and one bulk reserve land identically."""
    rng = np.random.default_rng(seed)
    n = 3_000  # forces multiple doublings from the initial 8 slots
    keys = rng.permutation(n).astype(np.int64)
    sources = rng.integers(0, 4, size=n)
    offsets = np.arange(n)
    scalar = LocationTable(expected_entries=1)
    batch = LocationTable(expected_entries=1)
    for k, s, o in zip(keys, sources, offsets):
        scalar.insert(int(k), int(s), int(o))
    batch.insert_batch(keys, sources, offsets)
    assert len(scalar) == len(batch) == n
    assert scalar.capacity == batch.capacity
    assert scalar.load_factor <= 0.7 and batch.load_factor <= 0.7
    got_src, got_off = batch.lookup_batch(keys)
    want_src, want_off = scalar.lookup_batch(keys)
    np.testing.assert_array_equal(got_src, want_src)
    np.testing.assert_array_equal(got_off, want_off)


@pytest.mark.parametrize("seed", SEEDS[:3])
def test_random_op_sequences_match_dict_semantics(seed):
    """Interleaved batch inserts/removes/lookups mirror a plain dict."""
    rng = np.random.default_rng(seed)
    key_space = 200
    table = LocationTable(expected_entries=4)
    model: dict[int, tuple[int, int]] = {}
    for _ in range(30):
        op = rng.integers(0, 3)
        if op == 0:
            keys, sources, offsets = _random_workload(
                rng, int(rng.integers(1, 60)), key_space
            )
            table.insert_batch(keys, sources, offsets)
            model.update(_dict_model(keys, sources, offsets))
        elif op == 1:
            doomed = rng.integers(0, key_space, size=int(rng.integers(1, 40)))
            removed = table.remove_batch(doomed)
            expected = 0
            for k in doomed:
                if model.pop(int(k), None) is not None:
                    expected += 1
            assert removed == expected
        else:
            probe = rng.integers(0, key_space, size=50)
            sources, offsets = table.lookup_batch(probe)
            for i, k in enumerate(probe):
                want = model.get(int(k), (HOST, int(k)))
                assert (int(sources[i]), int(offsets[i])) == want
    _assert_matches_model(table, model, key_space)


def test_corrupt_slots_scalar_and_batch_agree():
    table = LocationTable(expected_entries=16, num_sources=4, max_offset=100)
    for k in range(12):
        table.insert(k, k % 4, k)
    table.corrupt_slot(3, 9, 5)  # out-of-range source
    table.corrupt_slot(7, 2, 999)  # out-of-range offset
    for bad in (3, 7):
        with pytest.raises(CorruptEntryError):
            table.get(bad)
    # the batch form surfaces the first corrupt key in batch order.
    with pytest.raises(CorruptEntryError) as exc:
        table.lookup_batch(np.asarray([0, 7, 3, 1]))
    assert exc.value.key == 7


def test_absent_keys_route_to_host_addressed_by_key():
    table = LocationTable(expected_entries=8)
    table.insert(5, 2, 77)
    probe = np.asarray([0, 5, 10**9], dtype=np.int64)
    sources, offsets = table.lookup_batch(probe)
    assert list(sources) == [HOST, 2, HOST]
    assert list(offsets) == [0, 77, 10**9]
    assert table.get(0) is None
    assert table.get(5) == (2, 77)


# ----------------------------------------------------------------------
# Regression: overwriting an existing key must never trigger a grow
# ----------------------------------------------------------------------
def test_overwrite_does_not_grow():
    table = LocationTable(expected_entries=8)
    # Fill to exactly the load limit: 11/16 < 0.7, one more would grow.
    for k in range(11):
        table.insert(k, 0, k)
    capacity = table.capacity
    assert table.load_factor <= 0.7
    for _ in range(50):  # repeated overwrites used to inflate the load count
        for k in range(11):
            table.insert(k, 1, k + 100)
    assert table.capacity == capacity, "overwrites must be capacity-neutral"
    assert len(table) == 11
    assert table.get(4) == (1, 104)


def test_batch_overwrite_grows_only_for_new_keys():
    table = LocationTable(expected_entries=8)
    keys = np.arange(11)
    table.insert_batch(keys, np.zeros(11, dtype=np.int64), keys)
    capacity = table.capacity
    # A batch that is pure overwrite (with duplicates) must not grow...
    table.insert_batch(
        np.concatenate([keys, keys]),
        np.ones(22, dtype=np.int64),
        np.concatenate([keys, keys]) + 100,
    )
    assert table.capacity == capacity
    assert len(table) == 11
    # ...while genuinely new keys still do.
    table.insert_batch(
        np.asarray([50]), np.asarray([2]), np.asarray([1])
    )
    assert table.capacity == 2 * capacity
    assert table.get(50) == (2, 1)
    assert table.get(10) == (1, 110)
