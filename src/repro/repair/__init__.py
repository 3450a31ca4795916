"""Self-healing subsystem: anti-entropy scrubbing, staged recovery, and
the node-lifecycle watchdog.

Three cooperating parts keep the cluster's caches true and its heals
cheap:

* :mod:`repro.repair.scrub` — find silent corruption (checksum
  cross-checks against the host ground truth), quarantine it, repair it
  from the cheapest intact replica;
* :mod:`repro.repair.restage` — refill a healed node's caches in
  hotness order under an idle-link-time budget instead of one burst;
* :mod:`repro.repair.watchdog` — fuse breakers, scrub findings, and the
  health view into one healthy → suspect → ejected → recovering →
  healthy lifecycle the frontend routes by.
"""

from repro.repair.restage import RestageGrant, StagedRecovery
from repro.repair.scrub import CacheScrubber, ScrubTick
from repro.repair.watchdog import STATE_CODE, NodeState, NodeWatchdog

__all__ = [
    "CacheScrubber",
    "NodeState",
    "NodeWatchdog",
    "RestageGrant",
    "STATE_CODE",
    "ScrubTick",
    "StagedRecovery",
]
