"""Tests for the federation runtime: codec, ledger, transport, party
nodes, fault injection, and the scenario-facade integration.

The two load-bearing contracts:

- **bit-identity** — for every model kind,
  :meth:`FederationRuntime.predict` is byte-identical to the in-process
  :meth:`VerticalFLModel.predict` oracle;
- **metering exactness** — ledger bytes == sum of encoded frame sizes ==
  the transport's delivery log, with zero unmetered transfers, and the
  analytic :meth:`estimate_predict_bytes` equals the measured traffic.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import ScaleConfig
from repro.datasets import load_dataset
from repro.exceptions import (
    CommBudgetExceededError,
    PartyTimeoutError,
    PartyUnavailableError,
    ProtocolError,
    ValidationError,
    WireFormatError,
)
from repro.federated import FeaturePartition, train_vertical_model
from repro.federation import (
    CommLedger,
    FaultPlan,
    FederationRuntime,
    Message,
    TopologyConfig,
    Transport,
    WIRE_VERSION,
    decode_message,
    encode_message,
    encoded_size,
    train_vertical_runtime,
)
from repro.federation.message import _HEADER, MAGIC
from repro.api import ScenarioConfig, make_model, run_scenario

TINY = ScaleConfig(
    name="tiny-fed",
    n_samples=200,
    n_predictions=60,
    n_trials=1,
    fractions=(0.4,),
    lr_epochs=4,
    mlp_hidden=(12,),
    mlp_epochs=2,
    rf_trees=3,
    rf_depth=2,
    dt_depth=4,
    grna_hidden=(16,),
    grna_epochs=2,
    grna_batch_size=32,
    distiller_hidden=(24,),
    distiller_dummy=150,
    distiller_epochs=2,
)


def deploy(model_kind="lr", n_parties=2, n=120, d=8, seed=0):
    """A small fitted VFL deployment with ``n_parties`` parties."""
    dataset = load_dataset("bank", n_samples=n, rng=seed)
    half = dataset.n_samples // 2
    if n_parties == 2:
        partition = FeaturePartition.adversary_target(
            dataset.n_features, 0.4, rng=seed
        )
    else:
        partition = FeaturePartition.from_topology(
            dataset.n_features, 0.4, n_parties=n_parties, rng=seed
        )
    model = make_model(model_kind, TINY, np.random.default_rng(seed))
    return train_vertical_model(
        model,
        dataset.X[:half],
        dataset.y[:half],
        dataset.X[half:],
        dataset.y[half:],
        partition,
    )


# ----------------------------------------------------------------------
# Wire codec
# ----------------------------------------------------------------------
WIRE_DTYPES = st.sampled_from(
    [np.float64, np.float32, np.int64, np.int32, np.int16, np.uint8, np.bool_]
)
SHAPES = st.lists(st.integers(min_value=0, max_value=5), min_size=0, max_size=3)


class TestMessageCodec:
    @settings(max_examples=120, deadline=None)
    @given(dtype=WIRE_DTYPES, shape=SHAPES, data=st.data())
    def test_encode_decode_identity_all_dtypes_and_shapes(self, dtype, shape, data):
        """Property: decode(encode(m)) == m for every payload dtype/shape."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**31 - 1)))
        payload = (rng.random(shape) * 100).astype(dtype)
        message = Message(
            sender=0, receiver=3, kind="feature_block", payload=payload, round_id=7
        )
        decoded = decode_message(encode_message(message))
        assert decoded.sender == 0 and decoded.receiver == 3
        assert decoded.kind == "feature_block" and decoded.round_id == 7
        assert decoded.payload.dtype == payload.dtype
        assert decoded.payload.shape == payload.shape
        assert decoded.payload.tobytes() == payload.tobytes()

    def test_float64_payload_is_bit_exact(self):
        """Wire round-trip preserves every float64 bit pattern (nan, -0.0)."""
        payload = np.array([np.nan, -0.0, np.inf, -np.inf, np.pi, 5e-324])
        decoded = Message.decode(
            Message(0, 1, "feature_block", payload).encode()
        )
        assert decoded.payload.tobytes() == payload.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(dtype=WIRE_DTYPES, shape=SHAPES)
    def test_encoded_size_matches_frame_length(self, dtype, shape):
        payload = np.zeros(shape, dtype=dtype)
        message = Message(1, 2, "train_block", payload)
        assert len(message.encode()) == message.nbytes
        assert message.nbytes == encoded_size("train_block", dtype, tuple(shape))

    def test_unknown_header_version_rejected(self):
        frame = bytearray(Message(0, 1, "k", np.zeros(3)).encode())
        bumped = struct.pack("<H", WIRE_VERSION + 1)
        frame[4:6] = bumped  # the version field sits right after the magic
        with pytest.raises(WireFormatError, match=f"version {WIRE_VERSION + 1}"):
            decode_message(bytes(frame))

    def test_bad_magic_rejected(self):
        frame = bytearray(Message(0, 1, "k", np.zeros(3)).encode())
        frame[:4] = b"HTTP"
        with pytest.raises(WireFormatError, match="magic"):
            decode_message(bytes(frame))

    def test_truncated_frame_rejected(self):
        frame = Message(0, 1, "k", np.zeros(3)).encode()
        with pytest.raises(WireFormatError, match="truncated"):
            decode_message(frame[: _HEADER.size - 2])
        with pytest.raises(WireFormatError, match="frame length"):
            decode_message(frame[:-1])

    def test_every_truncation_point_raises_wire_format_error(self):
        """The error contract holds for a cut at *any* byte offset.

        Regression test: cuts inside the variable-length header region
        (kind string, dtype string, shape dims) used to escape as
        struct.error / TypeError instead of WireFormatError.
        """
        frame = Message(0, 3, "feature_block", np.arange(6.0).reshape(2, 3)).encode()
        for cut in range(len(frame)):
            with pytest.raises(WireFormatError):
                decode_message(frame[:cut])

    def test_object_payload_rejected(self):
        with pytest.raises(WireFormatError, match="dtype"):
            encode_message(Message(0, 1, "k", np.array([object()])))

    def test_corrupted_string_regions_rejected(self):
        """Byte flips inside kind/dtype stay WireFormatError, not Unicode."""
        frame = bytearray(Message(0, 1, "feature_request", np.arange(3)).encode())
        frame[_HEADER.size] = 0xFF  # first byte of the kind string
        with pytest.raises(WireFormatError, match="corrupted frame"):
            decode_message(bytes(frame))

    def test_frame_declaring_object_dtype_rejected(self):
        """A crafted frame cannot smuggle an object dtype past decode."""
        frame = Message(0, 1, "kk", np.arange(3, dtype=np.int64)).encode()
        crafted = frame.replace(b"<i8", b"|O8")
        with pytest.raises(WireFormatError):
            decode_message(crafted)

    def test_decoded_payload_never_aliases_the_wire_buffer(self):
        payload = np.arange(4.0)
        decoded = decode_message(encode_message(Message(0, 1, "k", payload)))
        decoded.payload[0] = 99.0  # writable, and detached from the sender
        assert payload[0] == 0.0

    def test_magic_is_stable(self):
        assert Message(0, 1, "k", np.zeros(1)).encode()[:4] == MAGIC


# ----------------------------------------------------------------------
# Comm ledger
# ----------------------------------------------------------------------
class TestCommLedger:
    def test_per_edge_accounting(self):
        ledger = CommLedger()
        ledger.charge(0, 1, 100)
        ledger.charge(0, 1, 50)
        ledger.charge(1, 0, 25)
        assert ledger.edge(0, 1) == {"messages": 2, "bytes": 150}
        assert ledger.edge(1, 0) == {"messages": 1, "bytes": 25}
        assert ledger.edge(2, 0) == {"messages": 0, "bytes": 0}
        assert ledger.total_bytes == 175 and ledger.total_messages == 3

    def test_byte_budget_is_atomic(self):
        ledger = CommLedger(100)
        ledger.charge(0, 1, 80)
        with pytest.raises(CommBudgetExceededError, match="20 of 100"):
            ledger.charge(0, 1, 21)
        # The refused message was not charged.
        assert ledger.total_bytes == 80 and ledger.remaining_bytes() == 20
        ledger.charge(0, 1, 20)
        assert ledger.remaining_bytes() == 0

    def test_message_budget(self):
        ledger = CommLedger(message_budget=2)
        ledger.charge(0, 1, 10)
        ledger.charge(1, 0, 10)
        with pytest.raises(CommBudgetExceededError, match="message budget"):
            ledger.charge(0, 1, 1)

    def test_rounds_counter(self):
        ledger = CommLedger()
        assert ledger.begin_round() == 0
        assert ledger.begin_round() == 1
        assert ledger.rounds == 2

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValidationError):
            CommLedger().charge(0, 1, 0)
        with pytest.raises(ValidationError):
            CommLedger(byte_budget=0)

    def test_as_dict_snapshot(self):
        ledger = CommLedger(1000)
        ledger.begin_round()
        ledger.charge(0, 2, 40)
        snapshot = ledger.as_dict()
        assert snapshot["bytes"] == 40
        assert snapshot["rounds"] == 1
        assert snapshot["byte_budget"] == 1000
        assert snapshot["edges"] == {"0->2": {"messages": 1, "bytes": 40}}


# ----------------------------------------------------------------------
# Transport
# ----------------------------------------------------------------------
class TestTransport:
    def test_send_receive_fifo_and_metered(self):
        transport = Transport()
        first = Message(0, 1, "feature_request", np.arange(3))
        second = Message(0, 1, "feature_request", np.arange(5))
        transport.send(first)
        transport.send(second)
        assert transport.pending(1) == 2
        assert transport.receive(1).payload.size == 3
        assert transport.receive(1).payload.size == 5
        assert transport.ledger.total_bytes == first.nbytes + second.nbytes
        assert transport.delivered_bytes == transport.ledger.total_bytes

    def test_self_send_rejected(self):
        with pytest.raises(ProtocolError, match="itself"):
            Transport().send(Message(1, 1, "k", np.zeros(1)))

    def test_empty_inbox_raises(self):
        with pytest.raises(ProtocolError, match="no pending messages"):
            Transport().receive(0)

    def test_over_budget_send_is_not_delivered(self):
        transport = Transport(CommLedger(10))
        with pytest.raises(CommBudgetExceededError):
            transport.send(Message(0, 1, "k", np.zeros(100)))
        assert transport.pending(1) == 0 and not transport.delivery_log


# ----------------------------------------------------------------------
# Runtime: bit-identity and metering exactness
# ----------------------------------------------------------------------
class TestRuntimePredict:
    @pytest.mark.parametrize("model_kind", ["lr", "nn", "dt", "rf"])
    def test_bit_identical_to_in_process_protocol(self, model_kind):
        """runtime.predict == vfl.predict, byte for byte."""
        vfl = deploy(model_kind)
        indices = np.arange(40)
        expected = vfl.predict(indices)
        got = FederationRuntime(vfl).predict(indices)
        assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("n_parties", [2, 4])
    def test_ledger_bytes_equal_sum_of_encoded_frames(self, n_parties):
        """Metering exactness: zero unmetered transfers, any topology."""
        vfl = deploy("lr", n_parties=n_parties)
        runtime = FederationRuntime(vfl)
        runtime.predict(np.arange(25))
        ledger = runtime.ledger
        log = runtime.transport.delivery_log
        # Every frame in the log is one metered message...
        assert ledger.total_bytes == sum(record.nbytes for record in log)
        assert ledger.total_messages == len(log)
        # ...and the round moved exactly one request + one block per
        # passive party: nothing else crossed any boundary.
        n_passive = n_parties - 1
        assert sorted(r.kind for r in log) == sorted(
            ["feature_request"] * n_passive + ["feature_block"] * n_passive
        )
        # Every cross-party float of the round is inside those frames:
        # each passive party's block frame is exactly its (25, d_p)
        # float64 payload plus the fixed header.
        blocks = sorted(
            (r for r in log if r.kind == "feature_block"), key=lambda r: r.sender
        )
        assert [r.nbytes for r in blocks] == [
            encoded_size(
                "feature_block", np.float64, (25, vfl.parties[p].n_features)
            )
            for p in range(1, n_parties)
        ]

    def test_estimate_matches_measured_traffic(self):
        vfl = deploy("lr", n_parties=3)
        runtime = FederationRuntime(vfl)
        estimate = runtime.estimate_predict_bytes(37)
        runtime.predict(np.arange(37))
        assert runtime.ledger.total_bytes == estimate

    def test_estimate_matches_batched_traffic(self):
        from repro.serving import PredictionService

        vfl = deploy("lr")
        runtime = FederationRuntime(vfl)
        service = PredictionService(vfl, runtime=runtime, max_batch=16)
        estimate = runtime.estimate_predict_bytes(50, max_batch=16)
        service.query(np.arange(50))
        assert runtime.ledger.total_bytes == estimate
        assert runtime.ledger.rounds == 4  # ceil(50/16) padded rounds

    def test_empty_request_rejected(self):
        with pytest.raises(ProtocolError, match="no sample ids"):
            FederationRuntime(deploy()).predict(np.array([], dtype=np.int64))

    def test_prediction_log_parity_with_vfl(self):
        vfl = deploy()
        runtime = FederationRuntime(vfl)
        vfl.prediction_log_.clear()
        runtime.predict(np.array([4, 7]))
        assert vfl.prediction_log_ == [4, 7]

    def test_runtime_comm_budget_binds(self):
        vfl = deploy()
        per_round = FederationRuntime(vfl).estimate_predict_bytes(10)
        runtime = FederationRuntime(vfl, comm_budget=per_round)
        runtime.predict(np.arange(10))  # exactly affordable
        with pytest.raises(CommBudgetExceededError):
            runtime.predict(np.arange(10))

    def test_aborted_round_leaves_no_stale_frames(self):
        """A budget-aborted round must not poison the next one.

        Regression test: with 3 parties and a budget admitting the first
        request frame but not the second, the delivered-but-unconsumed
        request used to linger in party 1's inbox; after raising the
        budget, the next round would answer it with the *old* rows.
        """
        vfl = deploy("lr", n_parties=3)
        probe = FederationRuntime(vfl)
        request_bytes = encoded_size("feature_request", np.int64, (10,))
        runtime = FederationRuntime(vfl, comm_budget=request_bytes + 1)
        with pytest.raises(CommBudgetExceededError):
            runtime.predict(np.arange(10))
        assert all(
            runtime.transport.pending(p.party_id) == 0 for p in vfl.parties
        )
        # Lift the budget and retry with different rows: the result must
        # match the oracle for the *new* rows.
        runtime.ledger.byte_budget = None
        rows = np.arange(20, 35)
        assert runtime.predict(rows).tobytes() == probe.predict(rows).tobytes()

    def test_dropped_party_round_leaves_no_stale_frames(self):
        vfl = deploy("lr", n_parties=3)
        runtime = FederationRuntime(
            vfl, faults=FaultPlan.from_specs([("drop", {"party": 2})])
        )
        with pytest.raises(PartyUnavailableError):
            runtime.predict(np.arange(5))
        assert all(
            runtime.transport.pending(p.party_id) == 0 for p in vfl.parties
        )


class TestTrainRound:
    def test_trained_model_bit_identical_to_central_path(self):
        dataset = load_dataset("bank", n_samples=120, rng=0)
        half = dataset.n_samples // 2
        partition = FeaturePartition.from_topology(
            dataset.n_features, 0.4, n_parties=3, rng=0
        )
        args = (
            dataset.X[:half],
            dataset.y[:half],
            dataset.X[half:],
            dataset.y[half:],
            partition,
        )
        central = train_vertical_model(make_model("lr", TINY, np.random.default_rng(3)), *args)
        runtime = train_vertical_runtime(
            make_model("lr", TINY, np.random.default_rng(3)), *args
        )
        indices = np.arange(30)
        assert (
            runtime.vfl.predict(indices).tobytes()
            == central.predict(indices).tobytes()
        )

    def test_training_traffic_is_metered(self):
        dataset = load_dataset("bank", n_samples=100, rng=0)
        half = dataset.n_samples // 2
        partition = FeaturePartition.adversary_target(dataset.n_features, 0.4, rng=0)
        runtime = train_vertical_runtime(
            make_model("lr", TINY, np.random.default_rng(3)),
            dataset.X[:half],
            dataset.y[:half],
            dataset.X[half:],
            dataset.y[half:],
            partition,
        )
        kinds = {record.kind for record in runtime.transport.delivery_log}
        assert kinds == {"train_request", "train_block"}
        assert runtime.ledger.rounds == 1
        # The same ledger keeps metering at predict time.
        runtime.predict(np.arange(5))
        assert "feature_block" in {r.kind for r in runtime.transport.delivery_log}


# ----------------------------------------------------------------------
# Fault injection
# ----------------------------------------------------------------------
class TestFaults:
    def test_dropped_party_fails_the_round(self):
        vfl = deploy("lr", n_parties=3)
        runtime = FederationRuntime(
            vfl, faults=FaultPlan.from_specs([("drop", {"party": 2})])
        )
        with pytest.raises(PartyUnavailableError, match="party 2 dropped"):
            runtime.predict(np.arange(10))

    def test_straggler_changes_nothing_but_time(self):
        """A straggler costs simulated seconds, never bytes or results."""
        vfl = deploy("lr", n_parties=3)
        delay, rounds = 0.125, 5
        straggler = [("straggler", {"party": 1, "delay": delay})]
        reference = FederationRuntime(vfl)
        runtime = FederationRuntime(vfl, faults=FaultPlan.from_specs(straggler))
        for r in range(rounds):
            rows = np.arange(8 * r, 8 * r + 8)
            assert runtime.predict(rows).tobytes() == reference.predict(rows).tobytes()
        assert runtime.ledger.as_dict() == reference.ledger.as_dict()
        assert runtime.transport.delivered_bytes == reference.transport.delivered_bytes
        assert runtime.availability_report()["sim_seconds"] == rounds * delay
        # Only a per-attempt timeout shorter than the delay makes it fail.
        impatient = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs(straggler),
            retry={"max_attempts": 1, "timeout": delay / 2},
        )
        with pytest.raises(PartyTimeoutError):
            impatient.predict(np.arange(8))

    def test_straggler_is_a_certain_timeout(self):
        straggler = FaultPlan.from_specs([("straggler", {"party": 1, "delay": 0.5})])
        timeout = FaultPlan.from_specs([("timeout", {"party": 1, "p": 1.0, "delay": 0.5})])
        assert straggler == timeout
        assert FaultPlan.from_specs([("straggler", {"party": 1})]).outcome(1, 0, 0).latency == 0.001

    def test_unknown_fault_kind_lists_choices(self):
        with pytest.raises(ValidationError, match="drop.*straggler"):
            FaultPlan.from_specs([("meteor", {"party": 1})])

    def test_fault_on_active_party_rejected(self):
        plan = FaultPlan.from_specs([("drop", {"party": 0})])
        with pytest.raises(ValidationError, match="active party"):
            plan.validate_parties(3)

    def test_fault_on_unknown_party_rejected(self):
        plan = FaultPlan.from_specs([("drop", {"party": 7})])
        with pytest.raises(ValidationError, match="parties 0..2"):
            plan.validate_parties(3)


# ----------------------------------------------------------------------
# Topology config
# ----------------------------------------------------------------------
class TestTopologyConfig:
    def test_default_is_default(self):
        assert TopologyConfig().is_default

    def test_validation_errors(self):
        with pytest.raises(ValidationError, match="at least 2"):
            TopologyConfig(n_parties=1).validate()
        with pytest.raises(ValidationError, match="passive party id"):
            TopologyConfig(n_parties=3, colluders=(0,)).validate()
        with pytest.raises(ValidationError, match="no attack target"):
            TopologyConfig(n_parties=3, colluders=(1, 2)).validate()
        with pytest.raises(ValidationError, match="dirichlet.*uniform|uniform.*dirichlet"):
            TopologyConfig(partition="fancy").validate()

    def test_payload_round_trip(self):
        topology = TopologyConfig(
            n_parties=4,
            colluders=(2,),
            partition="dirichlet",
            partition_params={"alpha": 0.3},
            faults=(("straggler", {"party": 1, "delay": 0.001}),),
        )
        assert TopologyConfig.from_payload(topology.to_payload()) == topology


# ----------------------------------------------------------------------
# Scenario facade integration
# ----------------------------------------------------------------------
class TestScenarioIntegration:
    def _config(self, **overrides):
        base = dict(
            dataset="bank",
            model="lr",
            attack="esa",
            target_fraction=0.4,
            scale=TINY,
            seed=5,
        )
        base.update(overrides)
        return ScenarioConfig(**base)

    def test_report_carries_exact_comm_cost(self):
        report = run_scenario(self._config())
        scenario = report.scenario
        assert report.comm_cost["bytes"] == scenario.runtime.ledger.total_bytes
        assert report.comm_cost["bytes"] == scenario.runtime.estimate_predict_bytes(
            TINY.n_predictions
        )
        assert report.comm_cost["rounds"] == 1

    def test_multiparty_topology_with_colluders(self):
        report = run_scenario(
            self._config(
                model="nn",
                attack="grna",
                topology=TopologyConfig(n_parties=4, colluders=(1,)),
            )
        )
        runtime = report.scenario.runtime
        assert runtime.n_parties == 4
        # Colluder 1's columns sit in the adversary view, yet its block
        # still crosses the (metered) wire as a separate party.
        assert runtime.ledger.edge(1, 0)["messages"] > 0
        coalition_cols = report.scenario.view.d_adv
        party_cols = sum(p.n_features for p in runtime.vfl.parties[:2])
        assert coalition_cols == party_cols

    def test_comm_budget_fraction_truncates_rounds(self):
        report = run_scenario(
            self._config(
                comm_budget=0.5, batch_size=15, on_budget_exhausted="truncate"
            )
        )
        assert report.queries_used == 30  # 2 of 4 padded rounds
        assert report.comm_cost["bytes"] <= report.comm_cost["byte_budget"]

    def test_comm_budget_raise_mode(self):
        with pytest.raises(CommBudgetExceededError):
            run_scenario(self._config(comm_budget=0.25, batch_size=15))

    def test_fractional_budget_floored_at_one_round(self):
        """A fraction below one round's share still yields a pool.

        Regression test: scales whose actual pool serves fewer rounds
        than planned used to turn small fractions into an empty
        accumulation (ScenarioError) instead of a data point; the facade
        now floors fractional budgets at the first round's cost.
        """
        report = run_scenario(
            self._config(
                comm_budget=0.01, batch_size=15, on_budget_exhausted="truncate"
            )
        )
        assert report.queries_used == 15  # exactly one round
        assert report.comm_cost["byte_budget"] == report.comm_cost["bytes"]

    def test_dropped_target_party_surfaces(self):
        with pytest.raises(PartyUnavailableError):
            run_scenario(
                self._config(
                    topology=TopologyConfig(
                        n_parties=3, faults=(("drop", {"party": 2}),)
                    )
                )
            )

    def test_invalid_knobs_rejected_with_choices(self):
        from repro.exceptions import ScenarioError

        with pytest.raises(ScenarioError, match="comm_budget"):
            run_scenario(self._config(comm_budget=0))
        with pytest.raises(ScenarioError, match=r"\(0, 1\]"):
            run_scenario(self._config(comm_budget=1.5))

    def test_screening_with_multiparty_topology_rejected(self):
        """Screening rebuilds two-block partitions; N-party must not be
        silently collapsed under a declared topology."""
        from repro.exceptions import IncompatibleScenarioError

        with pytest.raises(IncompatibleScenarioError, match="screening"):
            run_scenario(
                self._config(
                    defenses=("screening",),
                    topology=TopologyConfig(n_parties=4, colluders=(1,)),
                )
            )
        # The default 2-party layout still composes with screening, with
        # or without (partition-neutral) faults.
        report = run_scenario(
            self._config(
                defenses=("screening",),
                topology=TopologyConfig(
                    faults=(("straggler", {"party": 1, "delay": 0.001}),)
                ),
            )
        )
        assert report.comm_cost["bytes"] > 0

    def test_federation_knobs_rejected_on_prebuilt_scenario(self):
        from repro.api import build_scenario
        from repro.exceptions import ScenarioError

        scenario = build_scenario("bank", "lr", 0.4, TINY, 5)
        with pytest.raises(ScenarioError, match="prebuilt"):
            run_scenario(self._config(comm_budget=1024), scenario=scenario)

    def test_report_payload_round_trips_topology_and_comm_cost(self):
        from repro.api import ScenarioReport

        report = run_scenario(
            self._config(
                topology=TopologyConfig(n_parties=3, partition="dirichlet"),
                comm_budget=1.0,
                batch_size=30,
                on_budget_exhausted="truncate",
            )
        )
        restored = ScenarioReport.from_json(report.to_json())
        assert restored.config == report.config
        assert restored.comm_cost == report.comm_cost
        assert restored.config.topology == report.config.topology

    def test_old_payloads_without_federation_keys_still_load(self):
        from repro.api import ScenarioReport

        report = run_scenario(self._config())
        payload = report.to_payload()
        for key in ("topology", "comm_budget"):
            del payload["config"][key]
        del payload["comm_cost"]
        restored = ScenarioReport.from_payload(payload)
        assert restored.config.topology is None
        assert restored.comm_cost == {}

    @pytest.mark.parametrize("scheduler", ["sequential", "threaded"])
    def test_legacy_scheduler_key_is_ignored(self, scheduler):
        """Payloads persisted with a ``scheduler`` key load as if it were absent."""
        from repro.api import ScenarioReport

        payload = run_scenario(self._config()).to_payload()
        legacy = {**payload, "config": {**payload["config"], "scheduler": scheduler}}
        restored = ScenarioReport.from_payload(legacy)
        assert restored.config == ScenarioReport.from_payload(payload).config
        assert "scheduler" not in restored.to_payload()["config"]
