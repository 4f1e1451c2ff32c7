"""Federation runtime: the multi-party protocol as an explicit subsystem.

The paper's threat model (§III) is defined by *what crosses party
boundaries*: the adversary learns only protocol messages and the final
confidence vector. :mod:`repro.federated` holds the data side of that
story (parties, partitions, the in-process protocol simulation); this
package holds the *runtime* side — the protocol as observable
message-passing:

- :mod:`~repro.federation.message` — the versioned wire codec; every
  cross-party value is a serialized :class:`Message`;
- :mod:`~repro.federation.transport` — metered point-to-point delivery
  with an audit log of frame sizes;
- :mod:`~repro.federation.ledger` — :class:`CommLedger`: per-edge
  message/byte accounting, rounds, optional budgets raising
  :class:`~repro.exceptions.CommBudgetExceededError`;
- :mod:`~repro.federation.nodes` — party actors executing train/predict
  as request/reply rounds, one party after another in party order;
- :mod:`~repro.federation.faults` — dropped parties, stragglers, and
  the seeded stochastic storm kinds (``flaky``/``crash_after``/
  ``corrupt``/``timeout``) as injectable round behaviour; stragglers
  and timeouts cost simulated seconds, never real waits;
- :mod:`~repro.federation.runtime` — :class:`FederationRuntime`, the
  façade the serving layer drives: ``predict`` is byte-identical to
  :meth:`~repro.federated.model.VerticalFLModel.predict` while every
  transferred float lands in the ledger; with ``retry``/``quorum``
  knobs it runs the *resilient exchange* — retry waves on a simulated
  clock, metered timeouts, and quorum-degraded rounds with imputed
  blocks (see :mod:`repro.resilience`);
- :mod:`~repro.federation.topology` — :class:`TopologyConfig`, the
  declarative N-party/colluder/partition-strategy/fault knob consumed by
  :class:`~repro.api.ScenarioConfig`.

::

    from repro.federation import FederationRuntime

    runtime = FederationRuntime(vfl, comm_budget=2**20)
    v = runtime.predict(sample_ids)            # == vfl.predict, but metered
    print(runtime.ledger.as_dict()["bytes"])   # exact wire traffic
"""

from repro.exceptions import (
    CommBudgetExceededError,
    PartyTimeoutError,
    PartyUnavailableError,
    QuorumLostError,
    WireFormatError,
)
from repro.federation.faults import FAULT_KINDS, FaultPlan
from repro.federation.ledger import CommLedger
from repro.federation.message import (
    Message,
    WIRE_VERSION,
    decode_message,
    encode_message,
    encoded_size,
)
from repro.federation.nodes import ActivePartyNode, PartyNode, PassivePartyNode
from repro.federation.runtime import FederationRuntime, train_vertical_runtime
from repro.federation.topology import TopologyConfig
from repro.federation.transport import DeliveryRecord, Transport

# Register this layer's checkpoint codec (comm ledger) on import.
from repro.federation import state as _state  # noqa: F401

__all__ = [
    "Message",
    "WIRE_VERSION",
    "encode_message",
    "decode_message",
    "encoded_size",
    "Transport",
    "DeliveryRecord",
    "CommLedger",
    "CommBudgetExceededError",
    "WireFormatError",
    "PartyUnavailableError",
    "PartyTimeoutError",
    "QuorumLostError",
    "PartyNode",
    "ActivePartyNode",
    "PassivePartyNode",
    "FAULT_KINDS",
    "FaultPlan",
    "FederationRuntime",
    "train_vertical_runtime",
    "TopologyConfig",
]
