"""Degraded platform view: a :class:`~repro.hardware.platform.Platform`
seen through a :class:`~repro.faults.spec.HealthView`.

The analytic timing models and the event simulator only ask a platform
three questions — ``bandwidth``, ``tolerance``, ``cost_per_byte`` — so
degradation composes cleanly: wrap the platform, scale the answers by the
health view's link factors, and every downstream model (factored, naive,
message, event-driven) prices faults without knowing they exist.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.faults.spec import HealthView
from repro.hardware.platform import HOST, Platform, remember

if TYPE_CHECKING:  # avoid a circular import with repro.sim (engine ↔ faults)
    from repro.sim.mechanisms import GpuDemand


class DegradedPlatform:
    """A platform with fault-scaled bandwidths; delegates everything else.

    Duck-types :class:`~repro.hardware.platform.Platform` for the methods
    the simulators consume.  Downed GPUs disappear from ``sources_for``
    and report zero bandwidth; degraded links scale linearly with the
    health view's factor (Figure 6's tolerance shrinks with them, since
    fewer SMs saturate a slower link).  A view remembers its own answers
    in :attr:`memo`, never in the base's, whose answers are the healthy ones.
    """

    def __init__(self, base: Platform, health: HealthView) -> None:
        self._base = base
        self._health = health
        self.memo: dict = {}

    def __getattr__(self, name: str) -> Any:
        # num_gpus, gpu, gpu_ids, topology, name, … delegate unchanged.
        return getattr(self._base, name)

    # -- the three questions the timing models ask ----------------------
    def bandwidth(self, dst: int, src: int) -> float:
        return self._base.bandwidth(dst, src) * self._health.link_factor(dst, src)

    def peak_pair_bandwidth(self, dst: int, src: int) -> float:
        return self._base.peak_pair_bandwidth(dst, src) * self._health.link_factor(
            dst, src
        )

    # Same formulas over the scaled bandwidth, remembered in the view's memo.
    tolerance = Platform.tolerance
    cost_per_byte = Platform.cost_per_byte

    # -- structure under faults -----------------------------------------
    def is_connected(self, dst: int, src: int) -> bool:
        if not self._base.is_connected(dst, src):
            return False
        return self._health.source_usable(dst, src)

    def sources_for(self, dst: int) -> list[int]:
        return [
            s
            for s in self._base.sources_for(dst)
            if self._base.is_backing(s)
            or s == dst
            or self._health.source_usable(dst, s)
        ]


def degraded_platform(platform: Platform, health: HealthView) -> Platform:
    """``platform`` seen under ``health`` (itself when fully healthy): one
    view per health value, remembered — warm memo included — by the base."""
    if health.healthy:
        return platform
    base = platform._base if isinstance(platform, DegradedPlatform) else platform
    view = base.memo.get(("degraded", health))
    if view is None:
        view = remember(base.memo, ("degraded", health), DegradedPlatform(base, health))
    return view  # type: ignore[return-value]


def reroute_demand(demand: GpuDemand, platform: Platform, health: HealthView) -> GpuDemand:
    """Move volume off unusable sources onto the host path.

    The defensive twin of the extractor's key-level rerouting: if a demand
    still references a downed GPU or partitioned link (e.g. it was built
    before the fault struck), its bytes are served from host DRAM instead
    of raising inside the simulator.
    """
    from repro.sim.mechanisms import GpuDemand

    volumes: dict[int, float] = {}
    moved = 0.0
    for src, vol in demand.volumes.items():
        if platform.is_backing(src):
            usable = True
        elif src == demand.dst:
            # A downed destination lost its local copies: its replacement
            # serves the batch from host until the cache refills.
            usable = health.gpu_ok(demand.dst)
        else:
            usable = health.source_usable(demand.dst, src) and platform.is_connected(
                demand.dst, src
            )
        if usable:
            volumes[src] = volumes.get(src, 0.0) + vol
        else:
            moved += vol
    if moved > 0:
        volumes[HOST] = volumes.get(HOST, 0.0) + moved
    return GpuDemand(dst=demand.dst, volumes=volumes)
