"""The four benchmark workloads.

Each workload drives the program only through public names of
``repro.api``, ``repro.experiments`` and ``repro.workload``. A workload is
built from a seed, so one seed always gives the same inputs, and has:

- ``prepare()``: input generation, deployment build and warm-up (the
  harness times it as set-up);
- ``begin_round()``: untimed per-round state, such as fresh services, so
  that every round of a run repeats the same work and the same outputs;
- ``run_round(op)``: the timed round; every operation goes through
  ``op(fn, *args, **kwargs)``, which times it and counts its failure;
- ``check(outputs, charged)``: the output checks, returning a list of
  problems (``charged`` holds the queries the serving ledgers charged per
  operation in traced rounds, else ``None``);
- ``digest(outputs)``: sha256 over the round's outputs.

``tiny=True`` runs the same code path at a size small enough for tests.
Why each workload exists, and which metrics it should move, is recorded
in ``perfbench/WORKLOADS.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math

import numpy as np

import repro.api as api
import repro.experiments as experiments
import repro.workload as workload

#: Events each serving workload serves untimed during set-up.
WARM_EVENTS = 100


def _numbers(value):
    """Every numeric leaf of a JSON-like value."""
    if isinstance(value, dict):
        for item in value.values():
            yield from _numbers(item)
    elif isinstance(value, (list, tuple)):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float, np.floating, np.integer)) and not isinstance(value, bool):
        yield float(value)


def _nonfinite(value) -> bool:
    return any(not math.isfinite(x) for x in _numbers(value))


def _sha256(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def _call(fn, *args, **kwargs):
    """Call without timing: the ``op`` of warm-up work."""
    return fn(*args, **kwargs)


def _canonical(value) -> bytes:
    return json.dumps(value, sort_keys=True, default=float).encode()


# ----------------------------------------------------------------------
# grna-train: GRNA cells, generator training dominates
# ----------------------------------------------------------------------
class GrnaTrain:
    """``run_scenario`` cells ``nn``/``grna`` and ``rf``/``grna`` on ``bank``."""

    name = "grna-train"
    WINDOW_OPS = 1
    CELLS = (("nn", "grna"), ("rf", "grna"))

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        self.scale = experiments.get_scale("smoke" if tiny else "default")
        seeds = experiments.derive_trial_seeds(seed, len(self.CELLS))
        self.configs = [
            api.ScenarioConfig(
                dataset="bank", model=model, attack=attack, scale=self.scale, seed=cell_seed
            )
            for (model, attack), cell_seed in zip(self.CELLS, seeds)
        ]

    def prepare(self) -> None:
        for config in self.configs:
            api.run_scenario(dataclasses.replace(config, scale="smoke"))

    def begin_round(self) -> None:
        pass

    @staticmethod
    def _cell(config):
        report = api.run_scenario(config)
        return {
            "metrics": report.metrics,
            "queries_used": int(report.queries_used),
            "predictions": int(report.scenario.V.shape[0]),
            "x_hat": report.result.x_target_hat,
        }

    def run_round(self, op) -> list:
        return [op(self._cell, config) for config in self.configs]

    def check(self, outputs, charged=None) -> "list[str]":
        problems = []
        for config, out in zip(self.configs, outputs):
            cell = f"{config.model}/{config.attack}"
            if out is None:
                continue
            if _nonfinite(out["metrics"]) or not np.isfinite(out["x_hat"]).all():
                problems.append(f"{cell}: non-finite metric or reconstruction")
            expected = self.scale.n_predictions
            if not out["queries_used"] == out["predictions"] == expected:
                problems.append(
                    f"{cell}: queries_used {out['queries_used']} and predictions "
                    f"{out['predictions']} must both be {expected}"
                )
        return problems

    def digest(self, outputs) -> str:
        return _sha256(
            b"failed" if out is None
            else _canonical({k: v for k, v in out.items() if k != "x_hat"}) + out["x_hat"].tobytes()
            for out in outputs
        )


# ----------------------------------------------------------------------
# closed-form-grid: every fig5 (ESA/LR) and fig6 (PRA/DT) unit
# ----------------------------------------------------------------------
class ClosedFormGrid:
    """Every unit of ``fig5`` and ``fig6`` through ``run_unit``.

    An operation is one grid column, ``(fraction, trial)``: the ``fig5``
    and ``fig6`` units of every dataset at that fraction and trial, 8
    units at ``default`` scale. Smaller operations form latency clusters
    (ESA/LR units about a third of PRA/DT; ``news`` and ``drive`` cells
    about twice ``bank`` and ``credit``), and a median taken across the
    gap between two clusters jumps between runs; columns give one cluster.
    """

    name = "closed-form-grid"
    WINDOW_OPS = None
    EXPERIMENTS = ("fig5", "fig6")
    #: Branching rates, NaN by definition when no target-feature decision
    #: was scored (``repro.metrics.aggregate_cbr``); else within [0, 1].
    CBR_RATES = ("pra_cbr", "rg_cbr")

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        self.scale = experiments.get_scale("smoke" if tiny else "default")
        self.run_unit = {}
        units = []
        for experiment_id in self.EXPERIMENTS:
            spec = experiments.get_experiment_spec(experiment_id)
            self.run_unit[experiment_id] = spec.run_unit
            found = spec.trial_units(self.scale)
            units.extend(found[:2] if tiny else found)
        seeds = experiments.derive_trial_seeds(seed, len(units))
        units = [dataclasses.replace(u, seed=s) for u, s in zip(units, seeds)]
        columns: "dict[str, list]" = {}
        for unit in units:
            # unit_id is "<dataset>:<fraction %>:t<trial>".
            columns.setdefault(unit.unit_id.partition(":")[2], []).append(unit)
        self.columns = list(columns.values())

    def prepare(self) -> None:
        self._column(self.columns[0], experiments.get_scale("smoke"))

    def begin_round(self) -> None:
        pass

    def _column(self, column, scale) -> list:
        return [self.run_unit[unit.experiment_id](unit, scale) for unit in column]

    def run_round(self, op) -> list:
        return [
            op(self._column, column, self.scale, span="experiments.unit")
            for column in self.columns
        ]

    def check(self, outputs, charged=None) -> "list[str]":
        problems = []
        for i, (column, out) in enumerate(zip(self.columns, outputs)):
            if out is None:
                continue
            for unit, payload in zip(column, out):
                rates = [payload[key] for key in self.CBR_RATES if key in payload]
                rest = {k: v for k, v in payload.items() if k not in self.CBR_RATES}
                if _nonfinite(rest) or any(not (math.isnan(r) or 0.0 <= r <= 1.0) for r in rates):
                    problems.append(
                        f"{unit.experiment_id}/{unit.unit_id}: non-finite metric or rate "
                        "outside [0, 1]"
                    )
            # run_unit returns no report, so the queries it charged are only
            # seen by the serving wrapper of a traced round.
            expected = self.scale.n_predictions * len(column)
            if charged is not None and charged[i] != expected:
                problems.append(
                    f"column {column[0].unit_id}: queries_used {charged[i]} != {expected}"
                )
        return problems

    def digest(self, outputs) -> str:
        return _sha256(b"failed" if out is None else _canonical(out) for out in outputs)


# ----------------------------------------------------------------------
# The two serving workloads
# ----------------------------------------------------------------------
class _Serving:
    """Shared round/digest logic: one ``PredictionService.query`` per event."""

    def _serve(self, op, trace, services, pins, n_events=None) -> list:
        names, consumer_ids = trace.names, trace.consumer_ids
        offsets, sample_ids = trace.offsets, trace.sample_ids
        outputs = []
        for i in range(trace.n_events if n_events is None else n_events):
            consumer = consumer_ids[i]
            ids = sample_ids[offsets[i] : offsets[i + 1]]
            outputs.append(
                (ids, op(services[pins[consumer]].query, ids, consumer=names[consumer]))
            )
        return outputs

    def digest(self, outputs) -> str:
        return _sha256(
            ids.tobytes() + (b"failed" if out is None else out.tobytes())
            for ids, out in outputs
        )


class TenantTraffic(_Serving):
    """Needle-in-traffic replay on 4 shards with a per-tenant LRU cache and audit."""

    name = "tenant-traffic"
    WINDOW_OPS = 200
    N_SHARDS = 4

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        self.scale = experiments.get_scale("smoke" if tiny else "default")
        self.deploy_seed, self.benign_seed, self.attack_seed = (
            experiments.derive_trial_seeds(seed, 3)
        )
        self.n_tenants, self.n_events = (50, 200) if tiny else (1000, 8000)
        self.pool, self.repeats, self.batch = (16, 2, 8) if tiny else (48, 6, 16)

    def prepare(self) -> None:
        scenario = api.build_scenario("bank", "nn", 0.3, self.scale, self.deploy_seed)
        self.vfl = scenario.vfl
        self.vfl.log_predictions = False
        self.expected = self.vfl.predict_all()
        # Warm-up: the first events of a round, on throwaway shards.
        self.begin_round()
        trace = self._trace()
        self._serve(_call, trace, self.sharded.shards, self._pins(trace), WARM_EVENTS)

    def begin_round(self) -> None:
        self.sharded = workload.ShardedPredictionService(
            self.vfl,
            n_shards=self.N_SHARDS,
            defense_specs=("query_audit",),
            max_batch=32,
            cache=True,
            cache_size=256,
            seed=self.deploy_seed,
        )

    def _trace(self):
        benign = workload.make_trace(
            self.n_tenants, self.n_events, n_samples=self.vfl.n_samples, seed=self.benign_seed
        )
        return benign.merge(
            workload.attacker_trace(
                "grna-attacker",
                np.arange(self.pool),
                repeats=self.repeats,
                batch_size=self.batch,
                seed=self.attack_seed,
            )
        )

    def _pins(self, trace):
        return [workload.shard_of(name, self.N_SHARDS) for name in trace.names]

    def run_round(self, op) -> list:
        trace = self._trace()
        return self._serve(op, trace, self.sharded.shards, self._pins(trace))

    def check(self, outputs, charged=None) -> "list[str]":
        problems = []
        for event, (ids, out) in enumerate(outputs):
            if out is not None and out.tobytes() != self.expected[ids].tobytes():
                problems.append(f"event {event}: response differs from predict_all rows {ids}")
        return problems[:5]


class FederatedStorm(_Serving):
    """One-row queries through a 4-party runtime under a flaky/timeout storm."""

    name = "federated-storm"
    WINDOW_OPS = 100
    #: The fault storm, retry policy and quorum of the resilience benchmark.
    STORM = (
        ("flaky", {"party": 1, "p": 0.25, "seed": 11}),
        ("flaky", {"party": 2, "p": 0.25, "seed": 12}),
        ("timeout", {"party": 3, "p": 0.2, "delay": 0.5, "seed": 13}),
    )
    RETRY = {"max_attempts": 3, "backoff_base": 0.01, "jitter": 0.25, "timeout": 0.1}
    QUORUM = 0.5
    BREAKER = 3

    def __init__(self, seed: int, *, tiny: bool = False) -> None:
        self.scale = experiments.get_scale("smoke" if tiny else "default")
        self.deploy_seed, self.trace_seed = experiments.derive_trial_seeds(seed, 2)
        self.n_consumers, self.n_events = (16, 100) if tiny else (64, 4000)
        self.topology = api.TopologyConfig(n_parties=4, partition="dirichlet", faults=self.STORM)

    def prepare(self) -> None:
        scenario = api.build_scenario(
            "bank", "nn", 0.3, self.scale, self.deploy_seed,
            topology=self.topology,
            retry=dict(self.RETRY),
            quorum=self.QUORUM,
            degradation="last_known",
            breaker=self.BREAKER,
            batch_size=16,
        )
        self.vfl = scenario.vfl
        # Warm-up: the scenario's own service serves the first events of a round.
        trace = self._trace()
        self._serve(_call, trace, [scenario.service], [0] * len(trace.names), WARM_EVENTS)

    def begin_round(self) -> None:
        # A fresh runtime and service configured as the scenario's, so that
        # every round replays the same storm rounds and outputs.
        self.vfl.prediction_log_.clear()
        self.runtime = api.FederationRuntime(
            self.vfl,
            faults=self.topology.fault_plan(),
            retry=dict(self.RETRY),
            quorum=self.QUORUM,
            degradation="last_known",
        )
        self.service = api.PredictionService(
            self.vfl, runtime=self.runtime, max_batch=16, breaker=self.BREAKER
        )

    def _trace(self):
        return workload.make_trace(
            self.n_consumers, self.n_events, n_samples=self.vfl.n_samples, seed=self.trace_seed
        )

    def run_round(self, op) -> list:
        trace = self._trace()
        return self._serve(op, trace, [self.service], [0] * len(trace.names))

    def check(self, outputs, charged=None) -> "list[str]":
        problems = []
        ledger, transport = self.runtime.ledger, self.runtime.transport
        if ledger.total_bytes != transport.delivered_bytes:
            problems.append(
                f"CommLedger bytes {ledger.total_bytes} != delivered {transport.delivered_bytes}"
            )
        for event, (ids, out) in enumerate(outputs):
            if out is None:
                continue
            if out.shape != (ids.size, self.vfl.n_classes) or not np.isfinite(out).all():
                problems.append(f"event {event}: bad response shape {out.shape} or value")
        return problems[:5]


WORKLOADS = {cls.name: cls for cls in (GrnaTrain, ClosedFormGrid, TenantTraffic, FederatedStorm)}
