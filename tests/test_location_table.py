"""The §4 location hashtable: packing, probing, deletion, batch lookup."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.location_table import (
    LocationTable,
    pack_location,
    unpack_location,
)
from repro.hardware.platform import HOST


class TestPacking:
    def test_roundtrip(self):
        for source, offset in [(0, 0), (7, 123456), (HOST, 5), (255, 2**40)]:
            assert unpack_location(pack_location(source, offset)) == (source, offset)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            pack_location(-2, 0)
        with pytest.raises(ValueError):
            pack_location(0, 2**48)
        with pytest.raises(ValueError):
            pack_location(0, -1)


class TestInsertGet:
    def test_basic(self):
        table = LocationTable(10)
        table.insert(42, 3, 7)
        assert table.get(42) == (3, 7)
        assert table.get(43) is None
        assert len(table) == 1

    def test_overwrite(self):
        table = LocationTable(10)
        table.insert(42, 3, 7)
        table.insert(42, 5, 9)
        assert table.get(42) == (5, 9)
        assert len(table) == 1

    def test_negative_key_rejected(self):
        with pytest.raises(ValueError):
            LocationTable(4).insert(-1, 0, 0)

    def test_growth_preserves_entries(self):
        table = LocationTable(4)
        for key in range(500):
            table.insert(key, key % 8, key * 2)
        assert len(table) == 500
        for key in range(500):
            assert table.get(key) == (key % 8, key * 2)

    def test_load_factor_bounded(self):
        table = LocationTable(4)
        for key in range(1000):
            table.insert(key, 0, key)
        assert table.load_factor <= 0.7


class TestRemove:
    def test_remove_present(self):
        table = LocationTable(10)
        table.insert(1, 0, 0)
        assert table.remove(1)
        assert table.get(1) is None
        assert len(table) == 0

    def test_remove_absent(self):
        assert not LocationTable(10).remove(5)

    def test_backward_shift_keeps_cluster_reachable(self):
        # Insert many colliding keys, remove from the middle, and verify
        # the rest stay findable (tombstone-free deletion).
        table = LocationTable(64)
        keys = list(range(0, 4096, 64))
        for key in keys:
            table.insert(key, 1, key)
        for key in keys[:: 2]:
            assert table.remove(key)
        for key in keys[1:: 2]:
            assert table.get(key) == (1, key)

    def test_probe_lengths_stay_bounded_after_churn(self):
        table = LocationTable(256)
        rng = np.random.default_rng(0)
        live: set[int] = set()
        for _ in range(5000):
            key = int(rng.integers(0, 2000))
            if key in live:
                table.remove(key)
                live.discard(key)
            else:
                table.insert(key, 2, key)
                live.add(key)
        assert len(table) == len(live)
        assert table.max_probe_length() < 64


class TestBatchLookup:
    def test_hits_and_misses(self):
        table = LocationTable(10)
        table.insert(5, 2, 100)
        sources, offsets = table.lookup_batch(np.array([5, 6]))
        assert sources[0] == 2 and offsets[0] == 100
        assert sources[1] == HOST and offsets[1] == 6  # miss ⇒ host-by-key

    def test_from_source_map(self):
        sources = np.array([0, HOST, 1, HOST], dtype=np.int16)
        offsets = np.array([10, 0, 20, 0])
        table = LocationTable.from_source_map(sources, offsets)
        assert len(table) == 2
        assert table.get(0) == (0, 10)
        assert table.get(2) == (1, 20)
        assert table.get(1) is None


class TestHypothesis:
    @given(
        entries=st.dictionaries(
            keys=st.integers(0, 10_000),
            values=st.tuples(st.integers(-1, 15), st.integers(0, 2**30)),
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_dict_semantics(self, entries):
        table = LocationTable(8)
        for key, (source, offset) in entries.items():
            table.insert(key, source, offset)
        assert len(table) == len(entries)
        for key, value in entries.items():
            assert table.get(key) == value

    @given(
        keys=st.lists(st.integers(0, 500), min_size=1, max_size=300),
    )
    @settings(max_examples=50, deadline=None)
    def test_insert_remove_interleaved(self, keys):
        table = LocationTable(8)
        reference: dict[int, tuple[int, int]] = {}
        for i, key in enumerate(keys):
            if key in reference:
                table.remove(key)
                del reference[key]
            else:
                table.insert(key, i % 4, i)
                reference[key] = (i % 4, i)
        assert len(table) == len(reference)
        for key, value in reference.items():
            assert table.get(key) == value


class TestProbeBounds:
    """Probe loops are capped: a full/corrupt table raises, never hangs."""

    @staticmethod
    def _filled_to_capacity() -> LocationTable:
        table = LocationTable(4)
        # Bypass the load-factor guard (as a corrupting writer would) so
        # every slot ends up occupied.
        table._max_load = 2.0
        key = 0
        while len(table) < table.capacity:
            table.insert(key, 0, key)
            key += 1
        return table

    def test_insert_into_full_table_raises(self):
        from repro.core.location_table import ProbeLimitError

        table = self._filled_to_capacity()
        with pytest.raises(ProbeLimitError, match="full or corrupt"):
            table.insert(10_000, 0, 0)

    def test_get_absent_key_in_full_table_raises(self):
        from repro.core.location_table import ProbeLimitError

        table = self._filled_to_capacity()
        with pytest.raises(ProbeLimitError):
            table.get(10_000)

    def test_remove_absent_key_in_full_table_raises(self):
        from repro.core.location_table import ProbeLimitError

        table = self._filled_to_capacity()
        with pytest.raises(ProbeLimitError):
            table.remove(10_000)

    def test_present_keys_still_resolve_when_full(self):
        table = self._filled_to_capacity()
        for key in range(table.capacity):
            assert table.get(key) == (0, key)

    def test_remove_in_nearly_full_table_still_works(self):
        # One empty slot is enough for backward-shift to terminate.
        table = LocationTable(4)
        table._max_load = 2.0
        for key in range(table.capacity - 1):
            table.insert(key, 0, key)
        assert table.remove(0) is True
        assert table.get(0) is None
        for key in range(1, table.capacity - 1):
            assert table.get(key) == (0, key)


class TestCorruptEntries:
    """Out-of-range ``<gpu, offset>`` slots raise typed errors, never garbage."""

    @staticmethod
    def _bounded_table() -> LocationTable:
        table = LocationTable(16, num_sources=4, max_offset=100)
        table.insert(1, 2, 50)
        table.insert(2, 3, 99)
        return table

    def test_valid_entries_pass_the_bounds_check(self):
        table = self._bounded_table()
        assert table.get(1) == (2, 50)
        assert table.get(2) == (3, 99)

    def test_out_of_range_source_raises(self):
        from repro.core.location_table import CorruptEntryError

        table = self._bounded_table()
        table.corrupt_slot(1, 9, 50)
        with pytest.raises(CorruptEntryError) as info:
            table.get(1)
        assert info.value.key == 1
        assert info.value.source == 9
        assert info.value.offset == 50

    def test_out_of_range_offset_raises(self):
        from repro.core.location_table import CorruptEntryError

        table = self._bounded_table()
        table.corrupt_slot(2, 3, 5000)
        with pytest.raises(CorruptEntryError):
            table.get(2)

    def test_host_sentinel_is_never_corrupt(self):
        table = self._bounded_table()
        table.corrupt_slot(1, HOST, 0)
        assert table.get(1) == (HOST, 0)

    def test_corrupt_absent_key_raises_keyerror(self):
        with pytest.raises(KeyError):
            self._bounded_table().corrupt_slot(999, 0, 0)

    def test_unbounded_table_does_not_validate(self):
        table = LocationTable(16)
        table.insert(1, 2, 50)
        table.corrupt_slot(1, 200, 2**40)
        assert table.get(1) == (200, 2**40)

    def test_lookup_batch_raise_mode(self):
        from repro.core.location_table import CorruptEntryError

        table = self._bounded_table()
        table.corrupt_slot(1, 9, 50)
        with pytest.raises(CorruptEntryError):
            table.lookup_batch(np.array([1, 2]))

    def test_lookup_batch_rejects_bad_mode(self):
        # there is one mode: a poisoned slot raises
        with pytest.raises(TypeError):
            self._bounded_table().lookup_batch(np.array([1]), on_corrupt="host")

    def test_from_source_map_arms_bounds(self):
        from repro.core.location_table import CorruptEntryError

        sources = np.array([0, HOST, 1], dtype=np.int16)
        offsets = np.array([10, 0, 20])
        table = LocationTable.from_source_map(
            sources, offsets, num_sources=2
        )
        table.corrupt_slot(0, 7, 10)
        with pytest.raises(CorruptEntryError):
            table.get(0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LocationTable(8, num_sources=0)
        with pytest.raises(ValueError):
            LocationTable(8, max_offset=-1)
