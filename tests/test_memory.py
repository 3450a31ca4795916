"""Slot arena allocator."""

import pytest

from repro.hardware.memory import OutOfDeviceMemory, SlotArena


def test_slot_count_from_budget():
    arena = SlotArena(capacity_bytes=1000, slot_bytes=64)
    assert arena.free_slots == 15


def test_allocate_returns_distinct_offsets():
    arena = SlotArena(640, 64)
    offsets = [arena.allocate() for _ in range(10)]
    assert len(set(offsets)) == 10


def test_exhaustion_raises():
    arena = SlotArena(128, 64)
    arena.allocate()
    arena.allocate()
    with pytest.raises(OutOfDeviceMemory):
        arena.allocate()


def test_free_recycles():
    arena = SlotArena(128, 64)
    a = arena.allocate()
    arena.allocate()
    arena.free(a)
    assert arena.allocate() == a


def test_used_bytes_accounting():
    arena = SlotArena(1024, 64)
    arena.allocate()
    arena.allocate()
    assert arena.used_slots == 2
    assert arena.free_slots == 14


def test_allocate_many_atomic():
    arena = SlotArena(256, 64)
    with pytest.raises(OutOfDeviceMemory):
        arena.allocate_many(5)
    # Nothing was leaked by the failed bulk allocation.
    assert arena.used_slots == 0
    assert len(arena.allocate_many(4)) == 4


def test_double_free_rejected():
    arena = SlotArena(128, 64)
    a = arena.allocate()
    arena.free(a)
    with pytest.raises(ValueError):
        arena.free(a)


def test_free_unallocated_rejected():
    arena = SlotArena(128, 64)
    with pytest.raises(ValueError):
        arena.free(0)


def test_zero_capacity_arena():
    arena = SlotArena(0, 64)
    assert arena.free_slots == 0
    with pytest.raises(OutOfDeviceMemory):
        arena.allocate()


def test_rejects_bad_slot_size():
    with pytest.raises(ValueError):
        SlotArena(100, 0)


def test_rejects_negative_capacity():
    with pytest.raises(ValueError):
        SlotArena(-1, 8)
