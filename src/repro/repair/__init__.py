"""Self-healing subsystem: anti-entropy scrubbing and staged recovery.

Two cooperating parts keep the cluster's caches true and its heals
cheap:

* :mod:`repro.repair.scrub` — find silent corruption (checksum
  cross-checks against the host ground truth), quarantine it, repair it
  from the cheapest intact replica;
* :mod:`repro.repair.restage` — refill a healed node's caches in
  hotness order under an idle-link-time budget instead of one burst;
  while a refill is in flight the frontend routes the node's
  un-restaged keys to replica owners.
"""

from repro.repair.restage import RestageGrant, StagedRecovery
from repro.repair.scrub import CacheScrubber, ScrubTick

__all__ = [
    "CacheScrubber",
    "RestageGrant",
    "ScrubTick",
    "StagedRecovery",
]
