"""Shared fixtures: small platforms, tables and hotness distributions."""

from __future__ import annotations

import gc
import sys

import numpy as np
import pytest

from repro.hardware import server_a, server_b, server_c, single_gpu
from repro.utils.stats import zipf_pmf


@pytest.fixture
def platform_a():
    """4×V100 hard-wired (Server A)."""
    return server_a()


@pytest.fixture
def platform_b():
    """8×V100 DGX-1 with unconnected pairs (Server B)."""
    return server_b()


@pytest.fixture
def platform_c():
    """8×A100 behind NVSwitch (Server C)."""
    return server_c()


@pytest.fixture
def platform_1gpu():
    return single_gpu()


@pytest.fixture(params=["server-a", "server-b", "server-c"])
def any_platform(request):
    """Parametrized over all three paper testbeds."""
    return {"server-a": server_a, "server-b": server_b, "server-c": server_c}[
        request.param
    ]()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def small_table(rng):
    """A 2000×8 float32 embedding table."""
    return rng.standard_normal((2000, 8)).astype(np.float32)


@pytest.fixture
def skewed_hotness():
    """Zipf(1.2) hotness over 2000 entries, ~1000 accesses per batch."""
    return zipf_pmf(2000, 1.2) * 1000.0


@pytest.fixture
def uniform_hotness():
    return np.full(2000, 0.5)


@pytest.fixture
def count_calls():
    """``count_calls(fn)``: Python-level calls (``call`` + ``c_call`` profile
    events) made while running ``fn()`` — an exact-repeat cost proxy."""

    def count(fn) -> int:
        calls = 0

        def profiler(frame, event, arg):
            nonlocal calls
            if event in ("call", "c_call"):
                calls += 1

        # No collection inside the count: a finaliser of some earlier
        # test's garbage would be counted as fn's call.
        collecting = gc.isenabled()
        gc.disable()
        sys.setprofile(profiler)
        try:
            fn()
        finally:
            sys.setprofile(None)
            if collecting:
                gc.enable()
        return calls

    return count
