"""The federation runtime: protocol rounds over a metered transport.

Where :class:`~repro.federated.model.VerticalFLModel` collapses the
"simulated secure protocol" into one in-process concatenation, the
runtime executes it as explicit message-passing rounds: the active party
node requests rows, passive party nodes reply with their encoded column
blocks, and the active node assembles and evaluates — every cross-party
value a serialized :class:`~repro.federation.message.Message` charged to
the :class:`~repro.federation.ledger.CommLedger`. The in-process
concatenation survives as the *oracle*:
:meth:`FederationRuntime.predict` is byte-identical to
:meth:`VerticalFLModel.predict` (the wire codec is lossless for float64
blocks and the assembly scatter is column-for-column the same).

One prediction round = one request/reply exchange serving a whole index
batch; the serving layer maps each of its protocol rounds onto one
runtime round, so ``bytes/round`` is well-defined for any batching.
Training can run as a round too (:func:`train_vertical_runtime`): the
passive training blocks cross the metered wire once and the fit itself
stays central, matching the paper's perfectly-protected training phase.
"""

from __future__ import annotations

import math

import numpy as np

from repro.exceptions import (
    PartyTimeoutError,
    PartyUnavailableError,
    ProtocolError,
    QuorumLostError,
    ValidationError,
    WireFormatError,
)
from repro.federated.model import VerticalFLModel, build_parties
from repro.federated.partition import FeaturePartition
from repro.federation.faults import FaultPlan
from repro.federation.ledger import CommLedger
from repro.federation.message import encoded_size
from repro.federation.nodes import (
    FEATURE_BLOCK,
    FEATURE_REQUEST,
    TRAIN_BLOCK,
    TRAIN_REQUEST,
    ActivePartyNode,
    PassivePartyNode,
)
from repro.federation.transport import Transport
from repro.models.base import BaseClassifier
from repro.resilience import DEGRADATIONS, ResilienceState, RetryPolicy

__all__ = ["FederationRuntime", "train_vertical_runtime"]


def _exchange_round(
    transport: Transport,
    active: ActivePartyNode,
    passives: "list[PassivePartyNode]",
    rows: np.ndarray,
    kind: str,
) -> dict[int, np.ndarray]:
    """One request/reply exchange: blocks from every passive party.

    The single definition of a protocol round, shared by prediction and
    training: requests go out, the passive parties respond, and replies
    are sent and drained, each step in party order. On any failure
    (budget, dropped party) the transport is cleared so
    delivered-but-unconsumed frames cannot poison a later round.
    """
    round_id = transport.ledger.begin_round()
    completed = False
    try:
        for node in passives:
            transport.send(
                active.make_request(node.party_id, rows, round_id, kind=kind)
            )
        # Every party answers before any reply is sent, so a party that
        # fails the round leaves no reply bytes on the ledger.
        replies = [
            node.respond(0, node.faults.outcome(node.party_id, round_id, 0))
            for node in passives
        ]
        for reply in replies:
            transport.send(reply)
        blocks = active.collect_blocks(len(passives), round_id)
        completed = True
        return blocks
    finally:
        # Cleanup-on-failure without a broad catch: any exception —
        # budget, dropped party, or a genuine bug — propagates untouched
        # while delivered-but-unconsumed frames are cleared so they
        # cannot poison a later round.
        if not completed:
            transport.clear()


class FederationRuntime:
    """Message-passing façade over one deployed vertical FL model.

    Parameters
    ----------
    vfl:
        The deployment to serve (model + partition + aligned parties).
    comm_budget:
        Byte budget for the underlying :class:`CommLedger`; an
        over-budget send raises
        :class:`~repro.exceptions.CommBudgetExceededError`.
    message_budget:
        Optional cap on message count.
    faults:
        A :class:`~repro.federation.faults.FaultPlan` (or ``None``) —
        dropped parties, stragglers, and stochastic storm kinds,
        validated against the deployment's party count.
    retry:
        A :class:`~repro.resilience.RetryPolicy`, an int attempt count,
        a policy payload dict, or ``None``. Anything but ``None``
        engages the *resilient exchange*: failed parties are retried
        (each retry metered as real request frames plus a ledger retry
        count), reply latencies accrue on a simulated clock, and replies
        slower than the policy timeout are discarded as metered
        timeouts.
    quorum:
        ``None`` (default) fails a round fast when any party stays
        missing after retries — today's behaviour. A float in ``(0, 1]``
        or an int party count degrades instead: if at least that many
        parties (active included) survive, the missing blocks are
        imputed and the round is recorded as degraded.
    degradation:
        Imputation strategy key from
        :data:`~repro.resilience.DEGRADATIONS` (``"zero_fill"``,
        ``"last_known"``) used for quorum-degraded rounds.
    tracer:
        A :class:`~repro.telemetry.Tracer` to report into: one
        ``federation.round`` span per exchange, ``resilience.retry_wave``
        events per retry wave, and ``federation.degraded`` events for
        quorum-degraded rounds. When the resilient exchange is engaged,
        the simulated clock is bound as the tracer's time source, so
        span ``sim`` seconds track protocol latency. ``None`` (default)
        traces nothing.
    """

    def __init__(
        self,
        vfl: VerticalFLModel,
        *,
        comm_budget: "int | None" = None,
        message_budget: "int | None" = None,
        faults: "FaultPlan | None" = None,
        retry: "RetryPolicy | int | dict | None" = None,
        quorum: "int | float | None" = None,
        degradation: str = "zero_fill",
        tracer=None,
        _transport: "Transport | None" = None,
    ) -> None:
        self.vfl = vfl
        if _transport is not None:
            if comm_budget is not None or message_budget is not None:
                raise ValidationError(
                    "pass budgets through the existing transport's ledger, "
                    "not alongside it"
                )
            self.transport = _transport
        else:
            self.transport = Transport(
                CommLedger(comm_budget, message_budget=message_budget)
            )
        self.faults = faults if faults is not None else FaultPlan()
        self.faults.validate_parties(len(vfl.parties))
        self.retry_policy = RetryPolicy.from_spec(retry)
        self.quorum = self._check_quorum(quorum, len(vfl.parties))
        DEGRADATIONS.get(degradation)  # choices-listing error on typos
        self.degradation = degradation
        # The resilient exchange engages only when asked for (or when
        # stochastic faults make it necessary); otherwise the legacy
        # round path runs untouched, bit-identical to prior releases.
        engaged = (
            retry is not None or quorum is not None or self.faults.has_stochastic
        )
        self.resilience: "ResilienceState | None" = (
            ResilienceState() if engaged else None
        )
        self.tracer = tracer
        if tracer is not None and self.resilience is not None:
            # Read through self.resilience on every tick: a checkpoint
            # restore replaces the SimClock object, and a captured
            # reference would keep reporting the dead clock.
            tracer.bind_clock(lambda: self.resilience.clock.now)
        self._active = ActivePartyNode(vfl.parties[0], self.transport, self.faults)
        self._passives = [
            PassivePartyNode(party, self.transport, self.faults)
            for party in vfl.parties[1:]
        ]

    @staticmethod
    def _check_quorum(quorum: "int | float | None", n_parties: int) -> "int | float | None":
        if quorum is None:
            return None
        if isinstance(quorum, bool):
            raise ValidationError(f"quorum {quorum!r} is not a party count or fraction")
        if isinstance(quorum, int):
            if not 1 <= quorum <= n_parties:
                raise ValidationError(
                    f"integer quorum must name 1..{n_parties} surviving "
                    f"parties, got {quorum}"
                )
            return quorum
        if isinstance(quorum, float):
            if not 0.0 < quorum <= 1.0:
                raise ValidationError(
                    f"fractional quorum must lie in (0, 1], got {quorum}"
                )
            return quorum
        raise ValidationError(
            f"quorum must be an int party count, a float fraction, or None, "
            f"got {type(quorum).__name__}"
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def ledger(self) -> CommLedger:
        """The communication ledger every protocol message is charged to."""
        return self.transport.ledger

    @property
    def n_parties(self) -> int:
        """Parties participating in every round."""
        return len(self.vfl.parties)

    def estimate_predict_bytes(
        self, n_samples: int, *, max_batch: "int | None" = None
    ) -> int:
        """Exact wire bytes an undefended ``n_samples`` accumulation costs.

        Mirrors the serving layer's batching: with ``max_batch`` set,
        every protocol round is padded to exactly ``max_batch`` rows
        (``ceil(n/max_batch)`` rounds); without it, one round serves
        everything. Computed purely from
        :func:`~repro.federation.message.encoded_size` — no protocol is
        executed — and regression-tested to equal the measured ledger
        bytes, which is what lets communication budgets be planned as
        fractions of a full run. Assumes the cache-free request path
        (every row computed, none replayed).
        """
        n = int(n_samples)
        if n <= 0:
            raise ValidationError(f"n_samples must be positive, got {n}")
        if max_batch is None:
            n_rounds, rows = 1, n
        else:
            n_rounds, rows = math.ceil(n / int(max_batch)), int(max_batch)
        total = 0
        for node in self._passives:
            request = encoded_size(FEATURE_REQUEST, np.int64, (rows,))
            reply = encoded_size(
                FEATURE_BLOCK, np.float64, (rows, node.party.n_features)
            )
            total += n_rounds * (request + reply)
        return total

    # ------------------------------------------------------------------
    # Protocol rounds
    # ------------------------------------------------------------------
    def _exchange(self, kind: str, rows: np.ndarray) -> dict[int, np.ndarray]:
        """One protocol round over this deployment (see :func:`_exchange_round`)."""
        if self.tracer is None:
            return self._exchange_inner(kind, rows)
        with self.tracer.span(
            "federation.round", message=kind, rows=int(rows.size)
        ) as span:
            blocks = self._exchange_inner(kind, rows)
            span["parties"] = len(blocks)
            return blocks

    def _exchange_inner(self, kind: str, rows: np.ndarray) -> dict[int, np.ndarray]:
        if self.resilience is not None:
            return self._resilient_round(kind, rows)
        return _exchange_round(self.transport, self._active, self._passives, rows, kind)

    def _resilient_round(self, kind: str, rows: np.ndarray) -> dict[int, np.ndarray]:
        """One request/reply exchange under retries, timeouts, and quorum.

        Structured as retry *waves*: every still-pending party gets a
        fresh (metered) request and responds in party order, a party
        that raises :class:`PartyUnavailableError` is recorded as a
        casualty of the wave, the wave's replies are delivered and
        drained in party order, and the simulated clock pays the
        slowest surviving reply plus any backoff. Every stochastic
        decision is a pure chaos function of ``(party, round, attempt)``,
        so the whole storm is reproducible and resumable mid-storm.
        """
        transport = self.transport
        policy = self.retry_policy
        resilience = self.resilience
        round_id = transport.ledger.begin_round()
        node_by_id = {node.party_id: node for node in self._passives}
        blocks: dict[int, np.ndarray] = {}
        last_failure: dict[int, str] = {}
        crashed: set[int] = set()
        pending = [node.party_id for node in self._passives]
        completed = False
        try:
            for attempt in range(policy.max_attempts):
                if not pending:
                    break
                if attempt > 0:
                    transport.ledger.record_retries(len(pending))
                    if self.tracer is not None:
                        self.tracer.event(
                            "resilience.retry_wave",
                            round=int(round_id),
                            attempt=attempt,
                            pending=[int(p) for p in pending],
                        )
                    resilience.clock.advance(
                        max(policy.backoff(p, round_id, attempt) for p in pending)
                    )
                for party in pending:
                    transport.send(
                        self._active.make_request(party, rows, round_id, kind=kind)
                    )
                wave_latency = 0.0
                still_pending: list[int] = []
                delivered: list[int] = []
                for party in pending:
                    outcome = self.faults.outcome(party, round_id, attempt)
                    try:
                        reply = node_by_id[party].respond(attempt, outcome)
                    except PartyUnavailableError:
                        last_failure[party] = outcome.kind
                        if outcome.permanent:
                            crashed.add(party)
                        else:
                            still_pending.append(party)
                        continue
                    if (
                        outcome.kind == "timeout"
                        and policy.timeout is not None
                        and outcome.latency > policy.timeout
                    ):
                        # The receiver closes the connection at the
                        # deadline: the request bytes are spent, the
                        # reply never crosses the wire, and the clock
                        # pays only up to the timeout.
                        transport.ledger.record_timeouts(1)
                        wave_latency = max(wave_latency, policy.timeout)
                        last_failure[party] = "timeout"
                        still_pending.append(party)
                        continue
                    wave_latency = max(wave_latency, outcome.latency)
                    if outcome.kind == "corrupt":
                        data = bytearray(reply.encode())
                        position = outcome.token % len(data)
                        bit = (outcome.token >> 32) % 8
                        data[position] ^= 1 << bit
                        transport.send_raw(
                            bytes(data),
                            sender=party,
                            receiver=self._active.party_id,
                            kind=reply.kind,
                            round_id=round_id,
                        )
                    else:
                        transport.send(reply)
                    delivered.append(party)
                resilience.clock.advance(wave_latency)
                # Drain this wave's frames in delivery (party) order; a
                # decode failure is attributable by position because the
                # inbox preserves it.
                for party in delivered:
                    try:
                        message = transport.receive(self._active.party_id)
                    except WireFormatError:
                        last_failure[party] = "corrupt"
                        still_pending.append(party)
                        continue
                    if message.kind not in (FEATURE_BLOCK, TRAIN_BLOCK):
                        raise ProtocolError(
                            f"active party expected a block reply, got "
                            f"{message.kind!r} from party {message.sender}"
                        )
                    if message.round_id != round_id:
                        raise ProtocolError(
                            f"active party received a round-{message.round_id} "
                            f"block from party {message.sender} while "
                            f"collecting round {round_id}; a previous round "
                            "leaked state"
                        )
                    blocks[int(message.sender)] = message.payload
                    resilience.cache.put(int(message.sender), message.payload)
                pending = sorted(still_pending)
            missing = sorted(crashed | set(pending))
            if missing:
                blocks = self._degrade_round(
                    kind, rows, round_id, blocks, missing, last_failure
                )
            completed = True
            return blocks
        finally:
            if not completed:
                transport.clear()

    def _degrade_round(
        self,
        kind: str,
        rows: np.ndarray,
        round_id: int,
        blocks: dict[int, np.ndarray],
        missing: list[int],
        last_failure: dict[int, str],
    ) -> dict[int, np.ndarray]:
        """Impute the missing parties' blocks, or fail the round.

        Without a quorum policy this is today's fail-fast behaviour
        (timeout-only losses surface as the more specific
        :class:`PartyTimeoutError`). With one, a surviving coalition at
        or above quorum proceeds on imputed blocks and the round is
        recorded in the availability log.
        """
        attempts = self.retry_policy.max_attempts
        if self.quorum is None:
            names = ", ".join(str(p) for p in missing)
            if all(last_failure.get(p) == "timeout" for p in missing):
                raise PartyTimeoutError(
                    f"round {round_id} lost party(ies) {names}: every reply "
                    f"exceeded the {self.retry_policy.timeout}s timeout across "
                    f"{attempts} attempt(s)"
                )
            raise PartyUnavailableError(
                f"round {round_id} lost party(ies) {names} after {attempts} "
                f"attempt(s); no quorum policy allows degraded service"
            )
        if isinstance(self.quorum, int):
            required = self.quorum
        else:
            required = math.ceil(self.quorum * self.n_parties - 1e-9)
        live = self.n_parties - len(missing)
        if live < required:
            raise QuorumLostError(
                f"round {round_id} has {live} of {self.n_parties} parties "
                f"alive, below the quorum of {required}; degraded service is "
                "not possible"
            )
        strategy = DEGRADATIONS.get(self.degradation)
        for party in missing:
            node = self._passive_by_id(party)
            blocks[party] = strategy(
                party, (rows.size, node.party.n_features), self.resilience.cache
            )
        self.resilience.availability.append(
            {
                "round": int(round_id),
                "missing": [int(p) for p in missing],
                "attempts": int(attempts),
                "strategy": self.degradation,
            }
        )
        if self.tracer is not None:
            self.tracer.event(
                "federation.degraded",
                round=int(round_id),
                missing=[int(p) for p in missing],
                strategy=self.degradation,
            )
        return blocks

    def _passive_by_id(self, party_id: int) -> PassivePartyNode:
        for node in self._passives:
            if node.party_id == party_id:
                return node
        raise ProtocolError(f"no passive node with party id {party_id}")

    def availability_report(self) -> dict:
        """JSON-ready summary of degraded rounds and retry/timeout costs.

        Empty when the resilient exchange never engaged — the report's
        presence is itself the signal that resilience knobs were active.
        """
        if self.resilience is None:
            return {}
        return {
            "rounds_total": self.ledger.rounds,
            "rounds_degraded": len(self.resilience.availability),
            "degraded": [dict(entry) for entry in self.resilience.availability],
            "retries": self.ledger.retries,
            "timeouts": self.ledger.timeouts,
            "sim_seconds": self.resilience.clock.now,
        }

    def predict(self, sample_indices: np.ndarray) -> np.ndarray:
        """Confidence scores via one protocol round, ``(N, C)``.

        Byte-identical to :meth:`VerticalFLModel.predict` for the same
        indices (regression-tested per model kind), with
        every passive block metered on the way in.
        """
        indices = np.asarray(sample_indices, dtype=np.int64).ravel()
        if indices.size == 0:
            raise ProtocolError("prediction request with no sample ids")
        blocks = self._exchange(FEATURE_REQUEST, indices)
        joint = self._active.assemble(
            indices, blocks, self.vfl.parties, self.vfl.partition.n_features
        )
        self.vfl.prediction_log_.extend(int(i) for i in indices)
        return self.vfl.model.predict_proba(joint)

    def predict_all(self) -> np.ndarray:
        """Serve every sample of the aligned prediction dataset."""
        return self.predict(np.arange(self.vfl.n_samples))

    def __repr__(self) -> str:
        spans = 0 if self.tracer is None else self.tracer.records_emitted
        degraded = (
            0 if self.resilience is None else len(self.resilience.availability)
        )
        return (
            f"FederationRuntime(parties={self.n_parties}, "
            f"rounds={self.ledger.rounds}, "
            f"degraded={degraded}, spans={spans})"
        )


def train_vertical_runtime(
    model: BaseClassifier,
    X_train: np.ndarray,
    y_train: np.ndarray,
    X_pred: np.ndarray,
    y_pred: np.ndarray,
    partition: FeaturePartition,
    *,
    comm_budget: "int | None" = None,
    message_budget: "int | None" = None,
    faults: "FaultPlan | None" = None,
    retry: "RetryPolicy | int | dict | None" = None,
    quorum: "int | float | None" = None,
    degradation: str = "zero_fill",
    tracer=None,
) -> FederationRuntime:
    """Train through a metered protocol round and deploy the runtime.

    The message-passing twin of
    :func:`~repro.federated.model.train_vertical_model`: every passive
    party ships its *training* block to the active party as wire
    messages (one ``train_request``/``train_block`` exchange, charged to
    the ledger the returned runtime keeps using), the fit itself runs
    centrally on the assembled matrix — the paper's evaluation protocol
    assumes a perfectly protected training computation, so what the
    simulation makes explicit is the data movement, not the optimizer.
    The fitted model is bit-identical to the in-process path: the
    assembled matrix carries the exact float64 bytes of ``X_train``.

    The resilience knobs (``retry``/``quorum``/``degradation``) apply to
    the *deployed* runtime's prediction rounds. The single training
    exchange itself is deliberately fail-fast: a model fitted on an
    imputed training block would silently differ from the central
    oracle, so a party lost during training aborts rather than degrades.
    """
    X_train = np.asarray(X_train, dtype=np.float64)
    y_train = np.asarray(y_train, dtype=np.int64)
    train_parties = build_parties(X_train, y_train, partition)
    transport = Transport(CommLedger(comm_budget, message_budget=message_budget))
    fault_plan = faults if faults is not None else FaultPlan()
    fault_plan.validate_parties(len(train_parties))

    active = ActivePartyNode(train_parties[0], transport, fault_plan)
    passives = [
        PassivePartyNode(party, transport, fault_plan) for party in train_parties[1:]
    ]
    rows = np.arange(X_train.shape[0])
    blocks = _exchange_round(transport, active, passives, rows, TRAIN_REQUEST)
    joint = active.assemble(rows, blocks, train_parties, partition.n_features)
    model.fit(joint, y_train)

    vfl = VerticalFLModel(model, partition, build_parties(X_pred, y_pred, partition))
    return FederationRuntime(
        vfl,
        faults=fault_plan,
        retry=retry,
        quorum=quorum,
        degradation=degradation,
        tracer=tracer,
        _transport=transport,
    )
