PY ?= python
export PYTHONPATH := src

.PHONY: test lint smoke docs-check examples-smoke bench bench-smoke bench-baseline bench-serving bench-resilience bench-telemetry resume-smoke storm-smoke trace-smoke

## test: run the full test suite (tier-1 gate)
test:
	$(PY) -m pytest -x -q

## lint: repro-lint contract checks, plus ruff/mypy when installed
lint:
	$(PY) -m repro.analysis.cli src --strict
	@if command -v ruff > /dev/null 2>&1; then \
	    ruff check src tests benchmarks; \
	else \
	    echo "ruff not installed; skipping (pip install ruff)"; \
	fi
	@if command -v mypy > /dev/null 2>&1; then \
	    mypy; \
	else \
	    echo "mypy not installed; skipping (pip install mypy)"; \
	fi

## bench: full-scale model-kernel benchmark, writes BENCH_vectorized.json
bench:
	$(PY) -m repro.bench

## bench-baseline: regenerate the seed-kernel anchor BENCH_seed.json
bench-baseline:
	$(PY) -m repro.bench --seed-baseline

## bench-serving: full-scale sharded-serving throughput, writes BENCH_serving_scale.json
bench-serving:
	$(PY) benchmarks/bench_serving_scale.py

## bench-resilience: full-scale resilient-exchange gates, writes BENCH_resilience.json
bench-resilience:
	$(PY) benchmarks/bench_resilience.py

## bench-telemetry: full-scale telemetry overhead gates, writes BENCH_telemetry.json
bench-telemetry:
	$(PY) benchmarks/bench_telemetry.py

## bench-smoke: kernel + serving + federation checks at tiny scale (regression-gated)
bench-smoke:
	$(PY) -m repro.bench --smoke
	$(PY) benchmarks/bench_service.py --tiny
	$(PY) benchmarks/bench_federation.py --tiny
	$(PY) benchmarks/bench_serving_scale.py --tiny
	$(PY) benchmarks/bench_resilience.py --tiny
	$(PY) benchmarks/bench_telemetry.py --tiny

## resume-smoke: SIGKILL a GRNA run mid-epoch, resume it, assert bit-identical report
resume-smoke:
	$(PY) scripts/kill_resume_smoke.py

## storm-smoke: a fault storm degrades rounds, and a mid-storm resume is bit-identical
storm-smoke:
	$(PY) scripts/fault_storm_smoke.py

## trace-smoke: SIGKILL a traced GRNA run mid-epoch, resume, assert byte-identical trace
trace-smoke:
	$(PY) scripts/trace_resume_smoke.py

## smoke: regenerate everything at smoke scale, in parallel, resumably
smoke:
	$(PY) -m repro.experiments all --scale smoke --jobs 2 --store-dir .cache/results

## examples-smoke: execute every example script at tiny scale
examples-smoke:
	set -e; for script in examples/*.py; do \
	    echo "== $$script"; \
	    $(PY) $$script --smoke; \
	done

## docs-check: docs exist, stay in sync with the CLI, and the API self-describes
docs-check:
	test -f README.md
	test -f docs/architecture.md
	grep -q -- '--jobs' README.md
	grep -q -- '--store-dir' README.md
	grep -q 'run_scenario' README.md
	grep -q 'repro-experiments' README.md
	grep -q 'query_budget' README.md
	grep -q 'comm_budget' README.md
	grep -q 'repro-bench' README.md
	grep -q 'BENCH_vectorized' README.md
	grep -q 'trial_units' docs/architecture.md
	grep -q 'run_scenario' docs/architecture.md
	grep -q 'DefenseStack' docs/architecture.md
	grep -q 'PredictionService' docs/architecture.md
	grep -q 'on_query' docs/architecture.md
	grep -q '## Federation runtime' docs/architecture.md
	grep -q 'CommLedger' docs/architecture.md
	grep -q 'TopologyConfig' docs/architecture.md
	grep -q '## Performance' docs/architecture.md
	grep -q 'repro-bench' docs/architecture.md
	grep -q '## Workload layer' docs/architecture.md
	grep -q 'ShardedPredictionService' docs/architecture.md
	grep -q 'make_trace' docs/architecture.md
	grep -q 'repro.workload' README.md
	grep -q 'BENCH_serving_scale' README.md
	grep -q 'repro-lint' README.md
	grep -q '## Static analysis' docs/architecture.md
	grep -q 'rng-discipline' docs/architecture.md
	grep -q 'layer-boundary' docs/architecture.md
	grep -q '## Checkpoint layer' docs/architecture.md
	grep -q 'SnapshotStore' docs/architecture.md
	grep -q 'checkpoint-completeness' docs/architecture.md
	grep -q 'run_scenario_resumable' docs/architecture.md
	grep -q 'repro-ckpt' README.md
	grep -q 'run_scenario_resumable' README.md
	grep -q '## Resilience layer' docs/architecture.md
	grep -q 'RetryPolicy' docs/architecture.md
	grep -q 'quorum' docs/architecture.md
	grep -q 'CircuitBreaker' docs/architecture.md
	grep -q 'fault_storm' README.md
	grep -q 'BENCH_resilience' README.md
	grep -q '## Telemetry layer' docs/architecture.md
	grep -q 'Tracer' docs/architecture.md
	grep -q 'repro-trace' docs/architecture.md
	grep -q 'repro-trace' README.md
	grep -q 'BENCH_telemetry' README.md
	$(PY) -c "import repro.analysis as a; assert a.__doc__ and 'repro-lint' in a.__doc__; \
	    assert all(getattr(a, n).__doc__ for n in ('run_lint', 'LintConfig', 'LintReport', 'Finding', 'RULES'))"
	$(PY) -c "import repro.federation as f; assert f.__doc__ and 'CommLedger' in f.__doc__; \
	    assert all(getattr(f, n).__doc__ for n in ('Message', 'Transport', 'CommLedger', 'FederationRuntime', 'TopologyConfig', 'FaultPlan'))"
	$(PY) -c "import repro.resilience as r; assert r.__doc__ and 'RetryPolicy' in r.__doc__; \
	    assert all(getattr(r, n).__doc__ for n in ('RetryPolicy', 'BreakerPolicy', 'CircuitBreaker', 'SimClock', 'ReplyCache'))"
	$(PY) -c "import repro.bench as b; assert b.__doc__ and 'repro-bench' in b.__doc__; \
	    assert all(getattr(b, n).__doc__ for n in ('run_bench', 'regression_failures', 'KernelResult'))"
	$(PY) -c "import repro.workload as w; assert w.__doc__ and 'TrafficTrace' in w.__doc__; \
	    assert all(getattr(w, n).__doc__ for n in ('ShardedPredictionService', 'TrafficTrace', 'WorkloadReport', 'make_trace', 'attacker_trace', 'shard_of'))"
	$(PY) -m repro.experiments --help > /dev/null
	$(PY) -c "import repro.experiments as e; assert e.__doc__ and 'run_batch' in e.__doc__; \
	    assert all(getattr(e, n).__doc__ for n in ('ResultsStore', 'RunSummary', 'run_batch', 'TrialSpec'))"
	$(PY) -c "import repro.api as a; assert a.__doc__ and 'run_scenario' in a.__doc__; \
	    assert all(getattr(a, n).__doc__ for n in ('Registry', 'DefenseStack', 'ScenarioAttack', 'ScenarioConfig', 'ScenarioReport', 'run_scenario'))"
	$(PY) -c "import repro.checkpoint as c; assert c.__doc__ and 'bit-identical' in c.__doc__; \
	    assert all(getattr(c, n).__doc__ for n in ('CHECKPOINTS', 'StateCodec', 'CheckpointPlan', 'Snapshot', 'SnapshotStore', 'capture_state', 'restore_state'))"
	$(PY) -c "import repro.telemetry as t; assert t.__doc__ and 'Tracer' in t.__doc__; \
	    assert all(getattr(t, n).__doc__ for n in ('Tracer', 'TRACE_SINKS', 'MemorySink', 'JsonlSink', 'make_tracer', 'load_trace'))"
