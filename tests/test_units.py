"""Unit conversion helpers."""

import pytest

from repro.utils import units


def test_gb_is_decimal():
    assert units.GB == 1_000_000_000


def test_gib_is_binary():
    assert units.GIB == 1024**3


def test_gbps_converts_to_bytes_per_second():
    assert units.gbps(25) == 25e9


def test_seconds_to_ms():
    assert units.seconds_to_ms(0.0215) == pytest.approx(21.5)


def test_gb_vs_gib_differ():
    assert units.GB < units.GIB
