"""Tests for repro.telemetry — deterministic spans, sinks, and trace tooling.

The determinism contract under test: every canonical record field (all
but ``wall``) is a pure function of (config, seed) — identical across
runs, shard counts, and kill/resume; ``wall`` is quarantined and
ignored by every comparison.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.api import ScenarioConfig, run_scenario
from repro.api.scenario import ScenarioReport, build_scenario
from repro.api.resume import run_scenario_resumable
from repro.checkpoint import capture_state, restore_state
from repro.config import get_scale
from repro.exceptions import (
    CheckpointPause,
    ScenarioError,
    TelemetryError,
)
from repro.experiments import ResultsStore, run_batch
from repro.federation import FederationRuntime
from repro.serving import PredictionService
from repro.telemetry import (
    TRACE_SINKS,
    JsonlSink,
    MemorySink,
    Tracer,
    load_trace,
    make_tracer,
)
from repro.telemetry.cli import critical_path, main, summarize_lines, trace_diff
from repro.workload.sharded import ShardedPredictionService
from repro.workload.trace import make_trace


def strip_wall(records):
    return [{k: v for k, v in r.items() if k != "wall"} for r in records]


# ----------------------------------------------------------------------
# Tracer core
# ----------------------------------------------------------------------
class TestTracerCore:
    def test_span_nesting_parents_and_order(self):
        tracer = Tracer()
        with tracer.span("outer", label="a") as outer:
            tracer.event("ping", n=1)
            with tracer.span("inner"):
                pass
            outer["served"] = 7
        records = tracer.sink.records
        # Sink order is close order: event, inner, outer.
        assert [r["kind"] for r in records] == ["ping", "inner", "outer"]
        assert [r["seq"] for r in records] == [0, 1, 2]
        by_kind = {r["kind"]: r for r in records}
        assert by_kind["ping"]["parent"] == by_kind["outer"]["span"]
        assert by_kind["inner"]["parent"] == by_kind["outer"]["span"]
        assert by_kind["outer"]["parent"] is None
        assert by_kind["outer"]["attrs"] == {"label": "a", "served": 7}
        # Ticks advance once per open/close/event: outer covers everything.
        assert by_kind["outer"]["t0"] < by_kind["inner"]["t0"]
        assert by_kind["outer"]["t1"] > by_kind["inner"]["t1"]

    def test_determinism_two_identical_runs(self):
        def run():
            tracer = Tracer()
            with tracer.span("a", x=1):
                tracer.event("e")
            tracer.count("hits", 3)
            return tracer.sink.records, tracer.summary()

        assert run() == run()

    def test_error_attr_on_exception(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("work"):
                raise ValueError("boom")
        [record] = tracer.sink.records
        assert record["attrs"] == {"error": True}

    def test_checkpoint_pause_abandons_without_emitting(self):
        tracer = Tracer()
        with pytest.raises(CheckpointPause):
            with tracer.span("work"):
                raise CheckpointPause("suspend")
        assert tracer.sink.records == []
        assert tracer.records_emitted == 0

    def test_wall_quarantine(self):
        silent = Tracer()
        with silent.span("w"):
            pass
        assert silent.sink.records[0]["wall"] is None
        loud = Tracer(wall=True)
        with loud.span("w"):
            pass
        assert loud.sink.records[0]["wall"] >= 0.0

    def test_bound_clock_feeds_sim_fields(self):
        tracer = Tracer()
        now = {"t": 1.5}
        tracer.bind_clock(lambda: now["t"])
        with tracer.span("w"):
            now["t"] = 4.0
        [record] = tracer.sink.records
        assert record["sim0"] == 1.5 and record["sim1"] == 4.0
        assert tracer.summary()["sim_seconds"] == 4.0

    def test_step_stamped_at_open(self):
        tracer = Tracer()
        tracer.step = 9
        tracer.event("e")
        assert tracer.sink.records[0]["step"] == 9

    def test_counters_and_summary(self):
        tracer = Tracer()
        tracer.count("hits")
        tracer.count("hits", 2)
        tracer.event("b.kind")
        tracer.event("a.kind")
        summary = tracer.summary()
        assert summary["records"] == 2
        assert summary["counters"] == {"hits": 3}
        assert list(summary["by_kind"]) == ["a.kind", "b.kind"]  # sorted

    def test_make_tracer_specs(self, tmp_path):
        assert make_tracer(None) is None
        assert make_tracer(False) is None
        assert isinstance(make_tracer(True).sink, MemorySink)
        jsonl = make_tracer({"sink": "jsonl", "path": tmp_path / "t.jsonl"})
        assert isinstance(jsonl.sink, JsonlSink)
        jsonl.close()
        assert make_tracer({"wall": True}).wall is True
        with pytest.raises(Exception):
            make_tracer({"sink": "nope"})

    def test_sink_registry_names(self):
        assert set(TRACE_SINKS.names()) >= {"memory", "jsonl"}


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class TestJsonlSink:
    def emit_n(self, sink, n, start=0):
        for seq in range(start, n):
            sink.emit({"seq": seq, "kind": "k", "n": seq})

    def test_roundtrip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        self.emit_n(sink, 3)
        sink.close()
        assert load_trace(path) == [{"seq": s, "kind": "k", "n": s} for s in range(3)]

    def test_skip_by_seq_resume_is_byte_identical(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        self.emit_n(sink, 3)
        sink.close()
        before = path.read_bytes()
        # A resumed run deterministically re-emits seq 0..2, then appends.
        resumed = JsonlSink(path)
        self.emit_n(resumed, 5)
        resumed.close()
        after = path.read_bytes()
        assert after.startswith(before)
        assert len(load_trace(path)) == 5

    def test_torn_trailing_line_quarantined(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        sink = JsonlSink(path)
        self.emit_n(sink, 2)
        sink.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"seq": 2, "tor')  # SIGKILL mid-write
        resumed = JsonlSink(path)
        self.emit_n(resumed, 4)
        resumed.close()
        assert [r["seq"] for r in load_trace(path)] == [0, 1, 2, 3]

    def test_seq_gap_refused(self, tmp_path):
        sink = JsonlSink(tmp_path / "trace.jsonl")
        try:
            with pytest.raises(TelemetryError, match="skips ahead"):
                sink.emit({"seq": 5, "kind": "k"})
        finally:
            sink.close()

    def test_load_trace_mid_file_corruption_refused(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text('{"seq": 0}\nnot json\n{"seq": 2}\n')
        with pytest.raises(TelemetryError, match="corrupt"):
            load_trace(path)


# ----------------------------------------------------------------------
# Checkpoint codec
# ----------------------------------------------------------------------
class TestTracerCodec:
    def test_restore_continues_mid_span(self):
        fresh = Tracer()
        with fresh.span("outer", x=1) as span:
            fresh.event("early")
            span["late"] = True
            fragment = capture_state(fresh)
        reference = fresh.sink.records

        resumed = Tracer()
        # The deterministic prefix replays before the restore overwrites it.
        with resumed.span("outer", x=1) as span:
            resumed.event("early")
            restore_state(resumed, fragment)
            span["late"] = True  # lost: the restored span is closed instead
        assert strip_wall(resumed.sink.records) == strip_wall(reference)

    def test_restore_replaces_counters(self):
        fresh = Tracer()
        fresh.count("hits", 4)
        fresh.event("e")
        fragment = capture_state(fresh)
        resumed = Tracer()
        resumed.sink.emit({"seq": 0, "kind": "e"})  # stand-in for the replay
        restore_state(resumed, fragment)
        assert resumed.counters == {"hits": 4}
        assert resumed.records_emitted == 1
        assert resumed.summary() == fresh.summary()


# ----------------------------------------------------------------------
# Scenario integration
# ----------------------------------------------------------------------
CFG = dict(dataset="bank", model="lr", attack="esa", scale="smoke", seed=0)


class TestScenarioTelemetry:
    def test_off_by_default_and_metrics_unchanged(self):
        off = run_scenario(ScenarioConfig(**CFG))
        on = run_scenario(ScenarioConfig(**CFG, telemetry=True))
        assert off.telemetry == {}
        assert off.scenario.tracer is None
        assert on.metrics == off.metrics
        assert on.queries_used == off.queries_used

    def test_summary_and_trace_kinds(self):
        report = run_scenario(ScenarioConfig(**CFG, telemetry=True))
        assert report.telemetry["by_kind"] == {
            "federation.round": 1,
            "scenario.build": 1,
            "serving.chunk": 1,
            "serving.query": 1,
        }
        records = report.scenario.tracer.sink.records
        build = records[-1]
        assert build["kind"] == "scenario.build"
        assert build["attrs"]["dataset"] == "bank"
        assert build["attrs"]["predictions"] == report.queries_used

    def test_grna_epochs_traced(self):
        config = ScenarioConfig(
            dataset="bank", model="nn", attack="grna", scale="smoke",
            seed=0, telemetry=True,
        )
        report = run_scenario(config)
        scale = get_scale("smoke")
        assert report.telemetry["by_kind"]["grna.epoch"] == scale.grna_epochs

    def test_report_payload_roundtrip(self):
        on = run_scenario(ScenarioConfig(**CFG, telemetry=True))
        restored = ScenarioReport.from_json(on.to_json())
        assert restored.telemetry == on.telemetry
        assert restored.config.telemetry is True
        legacy = dict(json.loads(run_scenario(ScenarioConfig(**CFG)).to_json()))
        # Pre-telemetry payloads (no key at all) decode to the defaults.
        legacy.pop("telemetry")
        legacy["config"].pop("telemetry")
        old = ScenarioReport.from_payload(legacy)
        assert old.config.telemetry is None and old.telemetry == {}

    def test_prebuilt_scenario_rejects_knob(self):
        scenario = build_scenario("bank", "lr", 0.3, get_scale("smoke"), 0)
        with pytest.raises(ScenarioError, match="telemetry"):
            run_scenario(
                ScenarioConfig(**CFG, telemetry=True), scenario=scenario
            )

    @pytest.mark.parametrize(
        "spec", ["yes", {"sink": "nope"}, {"sink": "jsonl"}, {"bogus": 1}]
    )
    def test_bad_specs_fail_fast(self, spec):
        with pytest.raises(Exception):
            run_scenario(ScenarioConfig(**CFG, telemetry=spec))

    def test_resumed_trace_concatenates_bit_identically(self, tmp_path):
        def config(run_dir):
            return ScenarioConfig(
                dataset="bank", model="nn", attack="grna", scale="smoke",
                seed=0, batch_size=16,
                telemetry={"sink": "jsonl", "path": str(run_dir / "trace.jsonl")},
            )

        fresh_dir, resumed_dir = tmp_path / "fresh", tmp_path / "resumed"
        fresh = run_scenario_resumable(config(fresh_dir), store_dir=fresh_dir)
        with pytest.raises(CheckpointPause):
            run_scenario_resumable(
                config(resumed_dir), store_dir=resumed_dir, halt_after=3
            )
        resumed = run_scenario_resumable(config(resumed_dir), store_dir=resumed_dir)
        fresh.scenario.tracer.close()
        resumed.scenario.tracer.close()
        assert resumed.metrics == fresh.metrics
        assert resumed.telemetry == fresh.telemetry
        assert (resumed_dir / "trace.jsonl").read_bytes() == (
            fresh_dir / "trace.jsonl"
        ).read_bytes()


# ----------------------------------------------------------------------
# Sharded workload
# ----------------------------------------------------------------------
_VFL_CACHE = {}


def served_vfl():
    if "vfl" not in _VFL_CACHE:
        scenario = build_scenario("bank", "lr", 0.3, get_scale("smoke"), 0)
        _VFL_CACHE["vfl"] = scenario.vfl
    return _VFL_CACHE["vfl"]


def replay_traced(n_shards):
    vfl = served_vfl()
    trace = make_trace(5, 40, n_samples=vfl.n_samples, batch_size=4, seed=7)
    service = ShardedPredictionService(
        vfl, n_shards=n_shards, cache=True, tracer=Tracer()
    )
    report = service.replay(trace)
    return report, service


class TestShardedTelemetry:
    def test_coordinator_span(self):
        report, service = replay_traced(2)
        [record] = service.tracer.sink.records
        assert record["kind"] == "workload.replay"
        assert record["attrs"]["events"] == 40
        assert record["attrs"]["refused"] == sum(report.refusals.values())

    @given(n_shards=st.integers(min_value=1, max_value=6))
    def test_consumer_scoped_records_invariant_to_shard_count(self, n_shards):
        _, baseline = replay_traced(1)
        _, sharded = replay_traced(n_shards)
        key = lambda recs: [(r["step"], r["kind"], r["attrs"]) for r in recs]
        assert key(sharded.merged_trace()) == key(baseline.merged_trace())

    def test_untraced_replay_has_no_tracers(self):
        vfl = served_vfl()
        service = ShardedPredictionService(vfl, n_shards=2)
        assert service.tracer is None
        assert all(shard.tracer is None for shard in service.shards)
        assert service.merged_trace() == []


# ----------------------------------------------------------------------
# Tested reprs (no more pragma: no cover)
# ----------------------------------------------------------------------
class TestReprs:
    def test_prediction_service_repr(self):
        report = run_scenario(ScenarioConfig(**CFG, telemetry=True))
        service = report.scenario.service
        text = repr(service)
        assert text.startswith("PredictionService(")
        assert f"spans={service.tracer.records_emitted}" in text
        assert "breakers=off" in text
        assert f"queries_used={report.queries_used}" in text

    def test_prediction_service_repr_breaker_states(self, fitted_lr, blobs):
        from repro.federated import FeaturePartition, train_vertical_model

        X, y = blobs
        partition = FeaturePartition.adversary_target(X.shape[1], 0.3, rng=0)
        vfl = train_vertical_model(fitted_lr, X, y, X, y, partition)
        service = PredictionService(vfl, breaker=3)
        service.query([0, 1], consumer="alice")
        assert "breakers={'alice': 'closed'}" in repr(service)
        assert "spans=0" in repr(service)

    def test_federation_runtime_repr(self):
        report = run_scenario(ScenarioConfig(**CFG, telemetry=True))
        runtime = report.scenario.runtime
        text = repr(runtime)
        assert text.startswith("FederationRuntime(")
        assert "rounds=1" in text and "degraded=0" in text
        assert f"spans={runtime.tracer.records_emitted}" in text


# ----------------------------------------------------------------------
# run_batch progress events
# ----------------------------------------------------------------------
class TestRunBatchTelemetry:
    TINY = None

    @classmethod
    def tiny_scale(cls):
        from repro.experiments import ScaleConfig

        if cls.TINY is None:
            cls.TINY = ScaleConfig(
                name="tiny", n_samples=200, n_predictions=80, n_trials=1,
                fractions=(0.4,), lr_epochs=5, mlp_hidden=(16,), mlp_epochs=2,
                rf_trees=4, grna_hidden=(24,), grna_epochs=3,
                distiller_hidden=(32,), distiller_dummy=200, distiller_epochs=2,
            )
        return cls.TINY

    def test_unit_events_and_cache_hits(self, tmp_path):
        store = ResultsStore(tmp_path / "results")
        first = Tracer()
        run_batch("fig5", self.tiny_scale(), store=store, tracer=first)
        events = [r["attrs"] for r in first.sink.records]
        statuses = {e["status"] for e in events}
        assert statuses == {"start", "finish"}
        assert all(r["kind"] == "batch.unit" for r in first.sink.records)
        assert first.counters.get("batch.cache_hits", 0) == 0

        second = Tracer()
        run_batch("fig5", self.tiny_scale(), store=store, tracer=second)
        hit_events = [r for r in second.sink.records if r["attrs"]["status"] == "hit"]
        assert hit_events and len(hit_events) == second.counters["batch.cache_hits"]
        assert not [
            r for r in second.sink.records if r["attrs"]["status"] == "start"
        ]


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestTraceCli:
    @staticmethod
    def record_trace(path, **overrides):
        report = run_scenario(
            ScenarioConfig(
                **{**CFG, **overrides},
                telemetry={"sink": "jsonl", "path": str(path)},
            )
        )
        report.scenario.tracer.close()
        assert report.telemetry["records"] > 0
        return path

    @pytest.fixture()
    def trace_file(self, tmp_path):
        return self.record_trace(tmp_path / "run.jsonl")

    def test_summarize(self, trace_file, capsys):
        assert main(["summarize", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert "federation.round" in out and "scenario.build" in out
        assert "4 records, 4 kinds" in out

    def test_summarize_lines_self_time(self, trace_file):
        records = load_trace(trace_file)
        lines = summarize_lines(records)
        assert lines[0].split()[:3] == ["kind", "count", "ticks"]

    def test_critical_path(self, trace_file, capsys):
        assert main(["critical-path", str(trace_file)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].startswith("federation.round")
        path = critical_path(load_trace(trace_file), kind="scenario.build")
        assert [r["kind"] for r in path] == [
            "scenario.build", "serving.query", "serving.chunk", "federation.round",
        ]
        assert critical_path([]) == []

    def test_diff_identical_and_divergent(self, trace_file, tmp_path, capsys):
        twin = self.record_trace(tmp_path / "twin.jsonl")
        assert main(["diff", str(trace_file), str(twin)]) == 0
        assert "identical" in capsys.readouterr().out

        # The seed alone leaves record content untouched (attrs are counts,
        # not data); a different workload shape diverges the trace.
        other = self.record_trace(tmp_path / "other.jsonl", n_predictions=10)
        assert main(["diff", str(trace_file), str(other)]) == 1
        assert "diverge" in capsys.readouterr().out

    def test_diff_ignores_wall(self):
        a = [{"seq": 0, "kind": "k", "wall": 1.0}]
        b = [{"seq": 0, "kind": "k", "wall": 9.0}]
        assert trace_diff(a, b) is None
        assert trace_diff(a, []) == (0, {"seq": 0, "kind": "k"}, None)


# ----------------------------------------------------------------------
# Timing tier
# ----------------------------------------------------------------------
class TestTimingTier:
    def test_wall_module_in_tier_siblings_out(self):
        from repro.analysis.config import LintConfig
        from repro.analysis.core import SourceFile

        config = LintConfig()

        def src(module, relpath="src/x.py"):
            return SourceFile(
                path=Path(relpath), relpath=relpath, module=module,
                text="", lines=[], tree=None,
            )

        assert config.in_timing_tier(src("repro.telemetry.wall"))
        assert not config.in_timing_tier(src("repro.telemetry"))
        assert not config.in_timing_tier(src("repro.telemetry.tracer"))
        assert not config.in_timing_tier(src("repro.telemetry.wallet"))
