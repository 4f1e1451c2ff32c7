"""Tests for the resilience layer: chaos engine, retry/timeout/backoff,
quorum-degraded rounds, circuit breakers, and the scenario integration.

The load-bearing contracts:

- **chaos purity** — every stochastic fault decision is a pure function
  of ``(seed, party, round, attempt)``, so storms are bit-identical
  run to run and across checkpoint/resume;
- **metered resilience** — retries are real request frames on the
  ledger, timeouts are counted, and ledger bytes equal the transport's
  delivered frame bytes even when frames are corrupted in flight;
- **backward compatibility** — with every resilience knob at its
  default, the legacy exchange runs untouched and reports stay
  byte-identical to the pre-resilience layout (plus empty new fields).
"""

import numpy as np
import pytest

from repro.checkpoint import capture_state, restore_state
from repro.config import ScaleConfig
from repro.datasets import load_dataset
from repro.exceptions import (
    CheckpointError,
    PartyTimeoutError,
    PartyUnavailableError,
    QuorumLostError,
    ScenarioError,
    ServiceUnavailableError,
    ValidationError,
    WireFormatError,
)
from repro.federated import FeaturePartition, train_vertical_model
from repro.federation import (
    FaultPlan,
    FederationRuntime,
    Message,
    TopologyConfig,
    decode_message,
)
from repro.federation.message import _HEADER
from repro.federation.nodes import FEATURE_REQUEST
from repro.models import LogisticRegression
from repro.resilience import (
    DEGRADATIONS,
    BreakerPolicy,
    CircuitBreaker,
    FaultOutcome,
    ReplyCache,
    ResilienceState,
    RetryPolicy,
    SimClock,
    decision_rng,
    party_stream_base,
)
from repro.resilience.chaos import FAULT_SALT, JITTER_SALT
from repro.serving import PredictionService
from repro.api import ScenarioConfig, run_scenario

TINY = ScaleConfig(
    name="tiny-res",
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


def deploy(n_parties=3, n=120, seed=0):
    """A small fitted 3-party VFL deployment."""
    dataset = load_dataset("bank", n_samples=n, rng=seed)
    half = dataset.n_samples // 2
    partition = FeaturePartition.from_topology(
        dataset.n_features, 0.4, n_parties=n_parties, rng=seed
    )
    model = LogisticRegression(rng=np.random.default_rng(1), epochs=4)
    return train_vertical_model(
        model,
        dataset.X[:half],
        dataset.y[:half],
        dataset.X[half:],
        dataset.y[half:],
        partition,
    )


def storm_runtime(vfl, **kwargs):
    kwargs.setdefault(
        "faults",
        FaultPlan.from_specs(
            [
                ("flaky", {"party": 1, "p": 0.4, "seed": 5}),
                ("timeout", {"party": 2, "p": 0.3, "delay": 0.5, "seed": 6}),
            ]
        ),
    )
    kwargs.setdefault("retry", {"max_attempts": 3, "backoff_base": 0.01, "timeout": 0.1})
    kwargs.setdefault("quorum", 2 / 3)
    kwargs.setdefault("degradation", "last_known")
    return FederationRuntime(vfl, **kwargs)


class TestChaosEngine:
    def test_decisions_are_pure(self):
        draws = [
            decision_rng(7, 2, 5, 1, FAULT_SALT).random() for _ in range(3)
        ]
        assert draws[0] == draws[1] == draws[2]

    def test_cells_and_salts_are_independent(self):
        base = decision_rng(7, 2, 5, 1, FAULT_SALT).random()
        assert decision_rng(7, 2, 5, 2, FAULT_SALT).random() != base
        assert decision_rng(7, 2, 6, 1, FAULT_SALT).random() != base
        assert decision_rng(7, 3, 5, 1, FAULT_SALT).random() != base
        assert decision_rng(7, 2, 5, 1, JITTER_SALT).random() != base

    def test_party_streams_are_prefix_stable(self):
        # Party p's base stream is the p-th draw of one spawn prefix, so
        # widening the topology never reshuffles existing parties.
        assert party_stream_base(7, 1) == party_stream_base(7, 1)
        assert party_stream_base(7, 1) != party_stream_base(7, 2)
        assert party_stream_base(8, 1) != party_stream_base(7, 1)

    def test_outcome_flags(self):
        assert FaultOutcome(kind="drop").permanent
        assert FaultOutcome(kind="crash").permanent
        assert not FaultOutcome(kind="flaky").permanent
        assert FaultOutcome(kind="flaky").failed
        assert FaultOutcome(kind="corrupt", token=3).failed
        assert not FaultOutcome(kind="timeout", latency=1.0).failed
        assert not FaultOutcome(kind="ok").failed

    def test_plan_outcomes_are_pure(self):
        plan = FaultPlan.from_specs([("flaky", {"party": 1, "p": 0.5, "seed": 3})])
        cells = [(1, r, a) for r in range(10) for a in range(3)]
        first = [plan.outcome(*cell).kind for cell in cells]
        second = [plan.outcome(*cell).kind for cell in cells]
        assert first == second
        assert set(first) == {"ok", "flaky"}

    def test_sim_clock(self):
        clock = SimClock()
        assert clock.now == 0.0
        assert clock.advance(0.5) == 0.5
        assert clock.advance(0.25) == 0.75
        with pytest.raises(ValidationError, match="forward"):
            clock.advance(-0.1)
        with pytest.raises(ValidationError):
            SimClock(-1.0)


class TestRetryPolicy:
    def test_from_spec_normalizations(self):
        assert RetryPolicy.from_spec(None) == RetryPolicy()
        assert RetryPolicy.from_spec(4).max_attempts == 4
        policy = RetryPolicy.from_spec({"max_attempts": 2, "timeout": 0.5})
        assert (policy.max_attempts, policy.timeout) == (2, 0.5)
        assert RetryPolicy.from_spec(policy) is policy

    @pytest.mark.parametrize(
        "spec",
        [True, 0, -1, 2.5, {"bogus": 1}, {"max_attempts": 0}, {"jitter": 2.0}],
    )
    def test_from_spec_rejections(self, spec):
        with pytest.raises(ValidationError):
            RetryPolicy.from_spec(spec)

    def test_backoff_grows_exponentially(self):
        policy = RetryPolicy(max_attempts=4, backoff_base=0.1, backoff_factor=2.0)
        delays = [policy.backoff(1, 0, a) for a in (1, 2, 3)]
        assert delays == [0.1, 0.2, 0.4]
        with pytest.raises(ValidationError, match=">= 1"):
            policy.backoff(1, 0, 0)

    def test_jitter_is_seeded_and_bounded(self):
        policy = RetryPolicy(max_attempts=3, backoff_base=0.1, jitter=0.5, seed=9)
        first = policy.backoff(1, 4, 2)
        assert first == policy.backoff(1, 4, 2)
        assert 0.2 <= first <= 0.3  # base*factor within [1, 1.5]x
        assert policy.backoff(2, 4, 2) != first

    def test_payload_roundtrip(self):
        policy = RetryPolicy(max_attempts=3, jitter=0.25, timeout=1.5, seed=2)
        assert RetryPolicy.from_payload(policy.to_payload()) == policy


class TestCircuitBreaker:
    def test_policy_from_spec(self):
        assert BreakerPolicy.from_spec(None) is None
        assert BreakerPolicy.from_spec(5).failure_threshold == 5
        policy = BreakerPolicy.from_spec({"cooldown": 2})
        assert (policy.failure_threshold, policy.cooldown) == (3, 2)
        for bad in (True, 0, {"bogus": 1}, 1.5):
            with pytest.raises(ValidationError):
                BreakerPolicy.from_spec(bad)

    def test_lifecycle(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2, cooldown=2))
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == "closed"
        breaker.record_failure()
        assert breaker.state == "open"
        assert not breaker.allow()  # burns cooldown 2 -> 1
        assert breaker.allow()  # cooldown exhausted: half-open probe
        assert breaker.state == "half_open"
        breaker.record_failure()  # probe fails: straight back to open
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.allow()
        breaker.record_success()
        assert (breaker.state, breaker.failures) == ("closed", 0)

    def test_checkpoint_codec_roundtrip(self):
        breaker = CircuitBreaker(BreakerPolicy(failure_threshold=2, cooldown=5))
        breaker.record_failure()
        breaker.record_failure()
        breaker.allow()
        fragment = capture_state(breaker)
        restored = CircuitBreaker(BreakerPolicy())
        restore_state(restored, fragment)
        assert restored.policy == breaker.policy
        assert (restored.state, restored.failures, restored.cooldown_left) == (
            breaker.state,
            breaker.failures,
            breaker.cooldown_left,
        )

    def test_checkpoint_rejects_illegal_state(self):
        breaker = CircuitBreaker(BreakerPolicy())
        fragment = capture_state(breaker)
        fragment["meta"]["state"] = "exploded"
        with pytest.raises(CheckpointError, match="legal states"):
            restore_state(CircuitBreaker(BreakerPolicy()), fragment)


class TestDegradation:
    def test_reply_cache_copies_both_ways(self):
        cache = ReplyCache()
        block = np.ones((2, 3))
        cache.put(1, block)
        block[0, 0] = 99.0
        out = cache.get(1)
        assert out[0, 0] == 1.0
        out[0, 1] = 42.0
        assert cache.get(1)[0, 1] == 1.0
        assert cache.parties() == [1]
        assert len(cache) == 1

    def test_zero_fill_and_last_known(self):
        cache = ReplyCache()
        zero = DEGRADATIONS.get("zero_fill")(1, (4, 2), cache)
        assert zero.shape == (4, 2) and not zero.any()
        cached = np.arange(8, dtype=np.float64).reshape(4, 2)
        cache.put(1, cached)
        assert np.array_equal(DEGRADATIONS.get("last_known")(1, (4, 2), cache), cached)
        # Shape mismatch (different batch size) falls back to zeros.
        assert not DEGRADATIONS.get("last_known")(1, (3, 2), cache).any()

    def test_unknown_strategy_lists_choices(self):
        with pytest.raises(ScenarioError, match="zero_fill"):
            DEGRADATIONS.get("interpolate")


class TestFaultPlanEdges:
    def test_duplicate_party_spec_rejected(self):
        with pytest.raises(ValidationError, match="already carries.*flaky"):
            FaultPlan.from_specs(
                [
                    ("flaky", {"party": 1, "p": 0.5}),
                    ("drop", {"party": 1}),
                ]
            )

    @pytest.mark.parametrize(
        "specs,match",
        [
            ([("flaky", {"party": 1, "p": 1.5})], r"\[0, 1\]"),
            ([("flaky", {"party": 1})], "probability"),
            ([("meteor", {"party": 1})], "unknown fault kind"),
            ([("flaky", {"p": 0.5})], "'party'"),
            ([("crash_after", {"party": 1})], "'round'"),
            ([("crash_after", {"party": 1, "round": -1})], ">= 0"),
            ([("timeout", {"party": 1})], "positive simulated"),
            ([("flaky", {"party": 1, "p": 0.5, "seed": -1})], "seed"),
            (["flaky"], "pair"),
        ],
    )
    def test_malformed_specs_rejected(self, specs, match):
        with pytest.raises(ValidationError, match=match):
            FaultPlan.from_specs(specs)

    def test_validate_parties_edges(self):
        plan = FaultPlan.from_specs([("flaky", {"party": 2, "p": 0.5})])
        plan.validate_parties(3)  # party 2 exists: fine
        with pytest.raises(ValidationError, match="parties 0..1"):
            plan.validate_parties(2)
        with pytest.raises(ValidationError, match="active party"):
            FaultPlan.from_specs([("crash_after", {"party": 0, "round": 1})]).validate_parties(3)
        # The stochastic kinds are covered, not just drops/delays.
        with pytest.raises(ValidationError, match="parties 0..2"):
            FaultPlan.from_specs(
                [("timeout", {"party": 5, "delay": 0.1})]
            ).validate_parties(3)

    def test_noop_and_stochastic_flags(self):
        assert FaultPlan().is_noop and not FaultPlan().has_stochastic
        plan = FaultPlan.from_specs([("corrupt", {"party": 1, "p": 0.5})])
        assert plan.has_stochastic and not plan.is_noop
        assert not FaultPlan.from_specs([("drop", {"party": 1})]).has_stochastic


class TestWireCorruption:
    def _frame(self):
        payload = np.arange(12, dtype=np.float64).reshape(3, 4)
        return Message(
            sender=1, receiver=0, kind="feature_block", round_id=2, payload=payload
        ).encode()

    def test_crc_catches_a_flipped_checksum_byte(self):
        data = bytearray(self._frame())
        data[_HEADER.size] ^= 0x01  # first checksum byte
        with pytest.raises(WireFormatError, match="corrupted frame"):
            decode_message(bytes(data))

    def test_crc_catches_a_flipped_body_byte(self):
        data = bytearray(self._frame())
        data[-1] ^= 0x80  # last payload byte
        with pytest.raises(WireFormatError, match="altered in flight"):
            decode_message(bytes(data))

    def test_truncated_frames_rejected(self):
        frame = self._frame()
        with pytest.raises(WireFormatError, match="truncated"):
            decode_message(frame[: _HEADER.size - 2])
        with pytest.raises(WireFormatError, match="declared by the header"):
            decode_message(frame[: len(frame) - 5])

    def test_intact_frame_roundtrips(self):
        message = decode_message(self._frame())
        assert message.payload.shape == (3, 4)
        assert message.round_id == 2


class TestResilientExchange:
    def test_engaged_without_faults_matches_oracle(self):
        vfl = deploy()
        runtime = FederationRuntime(vfl, retry=3, quorum=2 / 3)
        indices = np.arange(20)
        assert np.array_equal(runtime.predict(indices), vfl.predict(indices))
        report = runtime.availability_report()
        assert report["rounds_degraded"] == 0
        assert report["retries"] == 0

    def test_defaults_do_not_engage(self):
        vfl = deploy()
        runtime = FederationRuntime(vfl)
        assert runtime.resilience is None
        assert runtime.availability_report() == {}
        runtime.predict(np.arange(10))
        ledger = runtime.ledger.as_dict()
        assert ledger["retries"] == 0 and ledger["timeouts"] == 0

    def test_flaky_exhaustion_fails_fast_without_quorum(self):
        vfl = deploy()
        runtime = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs([("flaky", {"party": 1, "p": 1.0})]),
            retry=2,
        )
        with pytest.raises(PartyUnavailableError, match="2 attempt"):
            runtime.predict(np.arange(8))
        # Retries were real, metered frames even though the round failed.
        assert runtime.ledger.retries == 1
        assert runtime.ledger.total_bytes == runtime.transport.delivered_bytes

    def test_all_timeouts_surface_as_timeout_error(self):
        vfl = deploy()
        runtime = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs(
                [("timeout", {"party": 1, "p": 1.0, "delay": 0.9})]
            ),
            retry={"max_attempts": 2, "timeout": 0.1},
        )
        with pytest.raises(PartyTimeoutError, match="exceeded the 0.1s timeout"):
            runtime.predict(np.arange(8))
        assert runtime.ledger.timeouts == 2
        # The clock paid the timeout deadline per wave, not the full delay.
        assert runtime.resilience.clock.now == pytest.approx(
            2 * 0.1 + runtime.retry_policy.backoff(1, 0, 1)
        )

    def test_slow_reply_within_deadline_is_delivered(self):
        vfl = deploy()
        runtime = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs(
                [("timeout", {"party": 1, "p": 1.0, "delay": 0.05})]
            ),
            retry={"max_attempts": 1, "timeout": 0.1},
        )
        indices = np.arange(8)
        assert np.array_equal(runtime.predict(indices), vfl.predict(indices))
        assert runtime.ledger.timeouts == 0
        assert runtime.resilience.clock.now == pytest.approx(0.05)

    def test_quorum_degrades_with_zero_fill(self):
        vfl = deploy()
        runtime = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs([("crash_after", {"party": 1, "round": 0})]),
            quorum=2 / 3,
        )
        indices = np.arange(10)
        degraded = runtime.predict(indices)
        assert degraded.shape == vfl.predict(indices).shape
        assert not np.array_equal(degraded, vfl.predict(indices))
        report = runtime.availability_report()
        assert report["rounds_degraded"] == 1
        entry = report["degraded"][0]
        assert entry["missing"] == [1]
        assert entry["strategy"] == "zero_fill"

    def test_last_known_replays_the_cached_block(self):
        vfl = deploy()
        runtime = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs([("crash_after", {"party": 1, "round": 1})]),
            quorum=2 / 3,
            degradation="last_known",
        )
        indices = np.arange(10)
        healthy = runtime.predict(indices)  # round 0: party 1 alive, cached
        degraded = runtime.predict(indices)  # round 1: imputed from cache
        # Same rows, so the cached block IS the true block: bit-identical.
        assert np.array_equal(degraded, healthy)
        assert runtime.availability_report()["rounds_degraded"] == 1

    def test_below_quorum_raises(self):
        vfl = deploy()
        runtime = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs(
                [
                    ("crash_after", {"party": 1, "round": 0}),
                    ("crash_after", {"party": 2, "round": 0}),
                ]
            ),
            quorum=2 / 3,
        )
        with pytest.raises(QuorumLostError, match="below the quorum of 2"):
            runtime.predict(np.arange(8))

    def test_integer_quorum_counts_parties(self):
        vfl = deploy()
        runtime = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs(
                [
                    ("crash_after", {"party": 1, "round": 0}),
                    ("crash_after", {"party": 2, "round": 0}),
                ]
            ),
            quorum=1,
        )
        # The active party alone satisfies quorum=1: fully imputed round.
        assert runtime.predict(np.arange(8)).shape == (8, 2)
        assert runtime.availability_report()["degraded"][0]["missing"] == [1, 2]

    @pytest.mark.parametrize("quorum", [True, 0, 4, 1.5, 0.0, "half"])
    def test_quorum_validation(self, quorum):
        with pytest.raises(ValidationError):
            FederationRuntime(deploy(), quorum=quorum)

    def test_corrupt_frames_are_charged_and_retried(self):
        vfl = deploy()
        runtime = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs([("corrupt", {"party": 1, "p": 1.0})]),
            retry=2,
            quorum=2 / 3,
        )
        runtime.predict(np.arange(8))
        # Every corrupted reply crossed the wire metered before the CRC
        # rejected it, so the books still balance exactly.
        assert runtime.ledger.total_bytes == runtime.transport.delivered_bytes
        assert runtime.availability_report()["rounds_degraded"] == 1
        replies_from_1 = [
            rec
            for rec in runtime.transport.delivery_log
            if rec.sender == 1 and rec.kind == "feature_block"
        ]
        assert len(replies_from_1) == 2  # one per attempt, both corrupted

    def test_retries_are_metered_request_frames(self):
        vfl = deploy()
        runtime = storm_runtime(vfl)
        for start in range(0, 40, 8):
            runtime.predict(np.arange(start, start + 8))
        ledger = runtime.ledger.as_dict()
        requests = sum(
            1
            for rec in runtime.transport.delivery_log
            if rec.kind == FEATURE_REQUEST
        )
        assert ledger["retries"] > 0
        assert requests == ledger["rounds"] * 2 + ledger["retries"]
        assert ledger["bytes"] == runtime.transport.delivered_bytes

    def test_each_fault_cell_is_drawn_once(self, monkeypatch):
        vfl = deploy()
        runtime = storm_runtime(vfl)
        cells = []
        draw = FaultPlan.outcome

        def counting(plan, party, round_id, attempt):
            cells.append((party, round_id, attempt))
            return draw(plan, party, round_id, attempt)

        monkeypatch.setattr(FaultPlan, "outcome", counting)
        for start in range(0, 40, 8):
            runtime.predict(np.arange(start, start + 8))
        assert runtime.ledger.retries > 0
        assert len(cells) == len(set(cells)) == runtime.ledger.rounds * 2 + runtime.ledger.retries

    def test_resilience_state_codec_roundtrip(self):
        state = ResilienceState()
        state.clock.advance(1.25)
        state.availability.append(
            {"round": 3, "missing": [1], "attempts": 2, "strategy": "zero_fill"}
        )
        state.cache.put(1, np.arange(6, dtype=np.float64).reshape(2, 3))
        fragment = capture_state(state)
        restored = ResilienceState()
        restore_state(restored, fragment)
        assert restored.clock.now == 1.25
        assert restored.availability == state.availability
        assert np.array_equal(restored.cache.get(1), state.cache.get(1))


class TestServingBreaker:
    def _crashing_service(self, breaker):
        vfl = deploy()
        runtime = FederationRuntime(
            vfl,
            faults=FaultPlan.from_specs([("crash_after", {"party": 1, "round": 0})]),
            retry=1,
        )
        return PredictionService(vfl, runtime=runtime, breaker=breaker)

    def test_breaker_opens_and_refuses(self):
        service = self._crashing_service({"failure_threshold": 2, "cooldown": 3})
        indices = np.arange(4)
        for _ in range(2):
            with pytest.raises(ServiceUnavailableError, match="breaker is now"):
                service.query(indices, consumer="adv")
        # Open: refusals never reach the runtime.
        rounds_before = service.runtime.ledger.rounds
        with pytest.raises(ServiceUnavailableError, match="is open"):
            service.query(indices, consumer="adv")
        assert service.runtime.ledger.rounds == rounds_before
        # Another consumer gets its own breaker, still closed.
        with pytest.raises(ServiceUnavailableError, match="breaker is now"):
            service.query(indices, consumer="other")
        assert service._breakers["other"].state == "closed"

    def test_breaker_disabled_propagates_runtime_errors(self):
        service = self._crashing_service(None)
        with pytest.raises(PartyUnavailableError):
            service.query(np.arange(4), consumer="adv")

    def test_breaker_rides_serving_fragments(self):
        service = self._crashing_service(2)
        for _ in range(2):
            with pytest.raises(ServiceUnavailableError):
                service.query(np.arange(4), consumer="adv")
        fragments = service.serving_fragments()
        assert "breaker:adv" in fragments
        twin = self._crashing_service(2)
        twin.restore_serving_fragments(fragments)
        assert twin._breakers["adv"].state == service._breakers["adv"].state
        assert twin._breakers["adv"].failures == service._breakers["adv"].failures

    def test_breakerless_fragments_stay_legacy_shaped(self):
        vfl = deploy()
        service = PredictionService(vfl, runtime=FederationRuntime(vfl))
        assert not any(
            name.startswith("breaker:") or name == "resilience"
            for name in service.serving_fragments()
        )


class TestScenarioIntegration:
    def _storm_config(self, **overrides):
        kwargs = dict(
            dataset="bank",
            model="lr",
            attack="esa",
            target_fraction=0.4,
            scale=TINY,
            seed=11,
            topology=TopologyConfig(
                n_parties=3,
                faults=(("flaky", {"party": 1, "p": 0.7, "seed": 3}),),
            ),
            batch_size=16,
            retry={"max_attempts": 3, "backoff_base": 0.01},
            quorum=2 / 3,
            degradation="last_known",
        )
        kwargs.update(overrides)
        return ScenarioConfig(**kwargs)

    def test_default_reports_carry_empty_availability(self):
        report = run_scenario(
            ScenarioConfig(
                dataset="bank", model="lr", attack="esa", scale=TINY, seed=11
            )
        )
        assert report.availability == {}
        assert report.comm_cost["retries"] == 0
        payload = report.to_payload()
        assert payload["config"]["retry"] is None
        assert payload["availability"] == {}

    def test_storm_scenario_reports_availability(self):
        report = run_scenario(self._storm_config())
        assert report.availability["rounds_total"] > 0
        assert report.availability["retries"] > 0
        assert "mse" in report.metrics

    def test_storm_report_roundtrips(self):
        report = run_scenario(self._storm_config())
        from repro.api import ScenarioReport

        back = ScenarioReport.from_json(report.to_json())
        assert back.config == report.config
        assert back.availability == report.availability

    def test_legacy_payloads_default_the_new_knobs(self):
        report = run_scenario(self._storm_config())
        from repro.api import ScenarioReport

        payload = report.to_payload()
        for key in ("retry", "quorum", "degradation", "breaker"):
            del payload["config"][key]
        del payload["availability"]
        legacy = ScenarioReport.from_payload(payload)
        assert legacy.config.retry is None
        assert legacy.config.degradation == "zero_fill"
        assert legacy.availability == {}

    def test_prebuilt_scenarios_reject_resilience_knobs(self):
        base = run_scenario(
            ScenarioConfig(
                dataset="bank", model="lr", attack="esa", scale=TINY, seed=11
            )
        )
        for knob in (
            {"retry": 3},
            {"quorum": 0.5},
            {"degradation": "last_known"},
            {"breaker": 2},
        ):
            config = ScenarioConfig(
                dataset="bank", model="lr", attack="esa", scale=TINY, seed=11, **knob
            )
            with pytest.raises(ScenarioError, match="prebuilt"):
                run_scenario(config, scenario=base.scenario)

    @pytest.mark.parametrize(
        "knob",
        [
            {"quorum": 1.5},
            {"quorum": True},
            {"degradation": "interpolate"},
            {"retry": {"bogus": 1}},
            {"breaker": 0},
        ],
    )
    def test_config_validation_fails_early(self, knob):
        config = ScenarioConfig(
            dataset="bank", model="lr", attack="esa", scale=TINY, seed=11, **knob
        )
        with pytest.raises((ScenarioError, ValidationError)):
            run_scenario(config)
