"""Workload layer: traffic simulation over the sharded serving boundary.

The ROADMAP's north star serves "millions of users"; this package makes
that population concrete. It has three parts, each deterministic from an
integer seed:

- :mod:`~repro.workload.arrivals` — the league of arrival processes
  (``poisson``, ``bursty``, ``diurnal``) generating request instants;
- :mod:`~repro.workload.trace` — :class:`TrafficTrace`, a
  structure-of-arrays request log built by :func:`make_trace`
  (thousands-to-millions of named tenants) and :func:`attacker_trace`
  (one adversary's accumulation), merged by arrival time;
- :mod:`~repro.workload.sharded` — :class:`ShardedPredictionService`,
  N share-nothing serving shards whose merged per-consumer accounting
  is bit-identical across shard counts, in a :class:`WorkloadReport`
  whose anomaly ranking answers the needle-in-traffic question: does
  the GRNA/PRA/ESA consumer stand out from benign load?

::

    from repro.workload import ShardedPredictionService, make_trace

    trace = make_trace(1000, 5000, n_samples=vfl.n_samples, seed=7)
    sharded = ShardedPredictionService(vfl, n_shards=4, cache=True,
                                       cache_size=64)
    report = sharded.replay(trace)
    report.queries_per_second, report.ranked_consumers()[:3]
"""

from repro.workload.arrivals import ARRIVALS
from repro.workload.sharded import (
    ShardedPredictionService,
    WorkloadReport,
    shard_of,
)
from repro.workload.trace import TrafficTrace, attacker_trace, make_trace

__all__ = [
    "ARRIVALS",
    "ShardedPredictionService",
    "TrafficTrace",
    "WorkloadReport",
    "attacker_trace",
    "make_trace",
    "shard_of",
]
