"""Party actors: protocol-round behaviour bound to a data-holding party.

The :mod:`repro.federated.party` classes hold *data*; these nodes hold
*behaviour*: how a party turns an incoming protocol message into its
reply. A :class:`PassivePartyNode` answers ``feature_request`` /
``train_request`` messages with its column block for the named rows; an
:class:`ActivePartyNode` builds those requests and assembles the replies
back into the joint matrix — the only place the blocks ever meet.

Nodes never touch another node's state: everything they learn arrives
through :meth:`~repro.federation.transport.Transport.receive` and
everything they reveal leaves through a returned
:class:`~repro.federation.message.Message` that the runtime sends (and
the ledger meters). Fault injection hooks in here: a dropped, crashed
or flaky party raises :class:`~repro.exceptions.PartyUnavailableError`
instead of replying. Latency faults (stragglers, timeouts) still reply;
the runtime charges their delay to the simulated clock.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import PartyUnavailableError, ProtocolError
from repro.federated.party import ActiveParty, Party
from repro.federation.faults import FaultPlan
from repro.federation.message import Message
from repro.federation.transport import Transport
from repro.resilience.chaos import FaultOutcome

__all__ = ["ActivePartyNode", "PartyNode", "PassivePartyNode"]

#: Message kinds of the prediction round.
FEATURE_REQUEST = "feature_request"
FEATURE_BLOCK = "feature_block"

#: Message kinds of the training round.
TRAIN_REQUEST = "train_request"
TRAIN_BLOCK = "train_block"

_REQUEST_TO_REPLY = {FEATURE_REQUEST: FEATURE_BLOCK, TRAIN_REQUEST: TRAIN_BLOCK}


class PartyNode:
    """Behaviour wrapper around one data-holding :class:`Party`."""

    def __init__(
        self,
        party: Party,
        transport: Transport,
        faults: "FaultPlan | None" = None,
    ) -> None:
        self.party = party
        self.transport = transport
        self.faults = faults if faults is not None else FaultPlan()

    @property
    def party_id(self) -> int:
        """The wrapped party's id."""
        return self.party.party_id

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(party={self.party_id})"


class PassivePartyNode(PartyNode):
    """A feature-contributing party's protocol behaviour."""

    def respond(self, attempt: int, outcome: FaultOutcome) -> Message:
        """Answer the oldest pending request with this party's block.

        Pop the request from this node's inbox, honour any injected
        fault, gather the local columns, and return the reply message
        for the runtime to send. The stochastic fault decision for
        ``(party, round, attempt)`` is a pure chaos function; the
        runtime draws it once per cell and passes it as ``outcome``.
        """
        request = self.transport.receive(self.party_id)
        if request.kind not in _REQUEST_TO_REPLY:
            raise ProtocolError(
                f"party {self.party_id} cannot answer message kind "
                f"{request.kind!r}"
            )
        if self.party_id in self.faults.dropped:
            raise PartyUnavailableError(
                f"party {self.party_id} dropped out of round "
                f"{request.round_id}; the {request.kind!r} request has no "
                "responder"
            )
        if outcome.kind == "crash":
            raise PartyUnavailableError(
                f"party {self.party_id} crashed before round "
                f"{request.round_id}; it will not answer this or any later "
                "round"
            )
        if outcome.kind == "flaky":
            raise PartyUnavailableError(
                f"party {self.party_id} failed attempt {attempt} of round "
                f"{request.round_id} (flaky); a retry may succeed"
            )
        # "corrupt" and "timeout" outcomes still produce the reply: the
        # runtime (which holds the same pure outcome) flips the frame in
        # flight / accounts the simulated latency.
        rows = np.asarray(request.payload, dtype=np.int64).ravel()
        return Message(
            sender=self.party_id,
            receiver=request.sender,
            kind=_REQUEST_TO_REPLY[request.kind],
            payload=self.party.local_features(rows),
            round_id=request.round_id,
        )


class ActivePartyNode(PartyNode):
    """The coordinating (label-owning) party's protocol behaviour."""

    def __init__(
        self,
        party: ActiveParty,
        transport: Transport,
        faults: "FaultPlan | None" = None,
    ) -> None:
        if not isinstance(party, ActiveParty):
            raise ProtocolError("the coordinating node must wrap the active party")
        super().__init__(party, transport, faults)

    def make_request(
        self, receiver: int, sample_indices: np.ndarray, round_id: int, *, kind: str = FEATURE_REQUEST
    ) -> Message:
        """A request naming the rows ``receiver`` must contribute."""
        return Message(
            sender=self.party_id,
            receiver=receiver,
            kind=kind,
            payload=np.asarray(sample_indices, dtype=np.int64).ravel(),
            round_id=round_id,
        )

    def collect_blocks(
        self, n_expected: int, round_id: "int | None" = None
    ) -> dict[int, np.ndarray]:
        """Drain ``n_expected`` reply blocks from this node's inbox.

        Replies were sent in party order by the runtime, so the drain is
        deterministic; keyed by sender id for the assembly scatter. With
        ``round_id`` given, a reply from any other round is rejected —
        the belt to the runtime's braces of clearing the transport when
        a round aborts.
        """
        blocks: dict[int, np.ndarray] = {}
        for _ in range(n_expected):
            reply = self.transport.receive(self.party_id)
            if reply.kind not in (FEATURE_BLOCK, TRAIN_BLOCK):
                raise ProtocolError(
                    f"active party expected a block reply, got {reply.kind!r} "
                    f"from party {reply.sender}"
                )
            if round_id is not None and reply.round_id != round_id:
                raise ProtocolError(
                    f"active party received a round-{reply.round_id} block "
                    f"from party {reply.sender} while collecting round "
                    f"{round_id}; a previous round leaked state"
                )
            blocks[int(reply.sender)] = reply.payload
        return blocks

    def assemble(
        self,
        sample_indices: np.ndarray,
        blocks: dict[int, np.ndarray],
        parties: list[Party],
        n_features: int,
    ) -> np.ndarray:
        """Scatter the blocks into the joint matrix, own columns local.

        Column-for-column the same construction as
        :meth:`VerticalFLModel._assemble`, with the sole difference that
        every non-local block arrived through the wire codec — which is
        lossless for float64, so the result is byte-identical.
        """
        rows = np.asarray(sample_indices, dtype=np.int64).ravel()
        joint = np.empty((rows.size, n_features))
        for party in parties:
            if party.party_id == self.party_id:
                joint[:, party.feature_indices] = party.local_features(rows)
            else:
                joint[:, party.feature_indices] = blocks[party.party_id]
        return joint
