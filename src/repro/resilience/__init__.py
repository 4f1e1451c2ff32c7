"""Resilience layer: deterministic fault storms, retries, degradation.

Real federated deployments lose parties mid-protocol, and the paper's
attacks are only as interesting as the serving stack that survives long
enough to answer queries. This package makes failure a *first-class,
reproducible* input: a storm of flaky parties, crashes, corrupted
frames and timeouts is just another seeded scenario — bit-identical
run to run, across checkpoint/resume, and free of wall-clock time.

- :mod:`~repro.resilience.chaos` — every stochastic fault decision is a
  pure function of ``(seed, party, round, attempt)`` under the library's
  spawn-prefix seeding scheme; statelessness, not locking, is what makes
  storms reproducible;
- :mod:`~repro.resilience.clock` — :class:`SimClock`, simulated time as
  counter arithmetic so timeouts and backoff cost no wall time;
- :mod:`~repro.resilience.retry` — :class:`RetryPolicy`: bounded
  attempts, exponential backoff with seeded jitter, per-attempt timeout;
- :mod:`~repro.resilience.degrade` — the :data:`DEGRADATIONS` registry
  (``zero_fill``, ``last_known``) imputing a missing party's block when
  the surviving coalition still meets quorum;
- :mod:`~repro.resilience.breaker` — request-counted per-consumer
  circuit breakers for the serving layer;
- :mod:`~repro.resilience.state` — checkpoint codecs so a SIGKILL
  mid-storm resumes byte-for-byte.

The layer sits just above :mod:`repro.utils` in the import DAG: the
federation runtime and serving layer *consume* these primitives, never
the reverse.

::

    from repro import run_scenario, ScenarioConfig

    report = run_scenario(ScenarioConfig(
        dataset="bank", model="nn", attack="grna",
        topology={"n_parties": 3,
                  "faults": [{"kind": "flaky", "party": 1, "p": 0.3}]},
        retry=3, quorum=2 / 3,
    ))
    print(report.availability)   # which rounds degraded, retry/timeout counts
"""

from repro.resilience.breaker import BreakerPolicy, CircuitBreaker
from repro.resilience.chaos import FaultOutcome, decision_rng, party_stream_base
from repro.resilience.clock import SimClock
from repro.resilience.degrade import DEGRADATIONS, ReplyCache
from repro.resilience.retry import RetryPolicy

# Register this layer's checkpoint codecs (clock/cache state, breakers)
# on import.
from repro.resilience import state as _state  # noqa: F401
from repro.resilience.state import ResilienceState

__all__ = [
    "BreakerPolicy",
    "CircuitBreaker",
    "DEGRADATIONS",
    "FaultOutcome",
    "ReplyCache",
    "ResilienceState",
    "RetryPolicy",
    "SimClock",
    "decision_rng",
    "party_stream_base",
]
