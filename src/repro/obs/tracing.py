"""Wall-clock stage timing: the extraction pipeline's stage names.

A timed block looks its histogram up once per registry
(``reg.cached("histogram", "pipeline.<stage>.seconds")``, so a swap
redirects it), reads ``time.perf_counter`` at entry and observes the
duration in a ``finally``, so a block that raises is still timed.  A
disabled registry records nothing.

Wall-clock here is the *instrumentation's* clock; the simulator's modelled
seconds are untouched, so enabling metrics never perturbs simulated
timings.
"""

from __future__ import annotations

__all__ = ["PIPELINE_STAGES"]

#: The extraction pipeline's stage names, in execution order.  Each stage
#: times itself into ``pipeline.<stage>.seconds``; exporters and the
#: metrics summarizer use this list to render the per-stage breakdown.
#: ``resolve`` … ``execute`` are the six per-extraction stages and never
#: nest; the last, ``fanout``, is the cluster front-end's enclosing stage:
#: it times a whole fanned-out request, node-side stages included.
PIPELINE_STAGES = (
    "resolve", "reroute", "group", "dedicate", "price", "execute", "fanout",
)
