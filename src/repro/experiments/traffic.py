"""The ``traffic`` experiment: needle-in-traffic attacker isolation.

The paper's threat model has an auditing blind spot the ROADMAP calls
out: every attack consumer in the evaluation is served *alone*, so
"could a defender have noticed?" is untestable. This experiment poses
the question properly. For each attack family (GRNA/PRA/ESA on its
paper model) and each arrival shape in the workload league
(poisson/bursty/diurnal), a deployment serves ≥1000 benign tenants
interleaved with the attacker's accumulation through a 4-shard
:class:`~repro.workload.ShardedPredictionService` stacked with
``query_audit``, and the defender's view — the merged
:class:`~repro.workload.WorkloadReport` — ranks every consumer by
anomaly score. The claim under test: the attacker ranks **top-1**,
because accumulating a pool and re-querying it (to average per-query
noise away) is an outlier in both volume and duplicate rate.

Each unit also replays the same trace through a single shard and
asserts the per-consumer accounting is bit-identical
(``shard_identical``), and repeats the run with a ``rate_limit`` policy
sized to bind under attack-inflated load — the refusal counts show the
blunt deployment-wide defense punishing benign tenants on the
attacker's shard alongside the attacker, which is the case for the
anomaly-score route.
"""

from __future__ import annotations

import numpy as np

from repro.api import build_scenario
from repro.config import ScaleConfig, get_scale
from repro.experiments.figures import _pct, _run_serial  # noqa: F401 (shared helpers)
from repro.experiments.reporting import ExperimentResult
from repro.experiments.spec import (
    ExperimentSpec,
    TrialSpec,
    derive_trial_seeds,
    group_payloads as _group_by,
    register_experiment,
)
from repro.workload import ShardedPredictionService, attacker_trace, make_trace

__all__ = ["traffic_units", "traffic_run_unit", "traffic_aggregate", "traffic_sweep"]

#: Attack families and the paper model each one targets.
TRAFFIC_ATTACKS = (("grna", "nn"), ("pra", "dt"), ("esa", "lr"))

#: The league of arrival shapes the benign population is drawn from.
TRAFFIC_PROCESSES = ("poisson", "bursty", "diurnal")

#: Benign population: tenants, request events (one sample each).
N_BENIGN = 1000
N_BENIGN_EVENTS = 4000

#: The attacker's accumulation: pool size, re-query rounds, event batch.
ATTACK_POOL = 48
ATTACK_REPEATS = 6
ATTACK_BATCH = 16

#: Serving layout under test.
N_SHARDS = 4


def traffic_units(
    scale: "str | ScaleConfig",
    *,
    attacks: tuple = TRAFFIC_ATTACKS,
    processes: tuple[str, ...] = TRAFFIC_PROCESSES,
    seed: int = 23,
) -> list[TrialSpec]:
    """One unit per (attack family, arrival process, trial) cell."""
    scale = get_scale(scale)
    trial_seeds = derive_trial_seeds(seed, scale.n_trials)
    return [
        TrialSpec.make(
            "traffic",
            f"{attack}:{process}:t{t}",
            trial_seed,
            attack=attack,
            model=model,
            process=process,
        )
        for attack, model in attacks
        for process in processes
        for t, trial_seed in enumerate(trial_seeds)
    ]


def traffic_run_unit(spec: TrialSpec, scale: ScaleConfig) -> dict:
    """Serve one attacker inside benign traffic; report the audit verdict."""
    params = spec.kwargs
    scenario = build_scenario("bank", params["model"], 0.3, scale, spec.seed)
    vfl = scenario.vfl
    benign_seed, attack_seed = derive_trial_seeds(spec.seed, 2)
    benign = make_trace(
        N_BENIGN,
        N_BENIGN_EVENTS,
        n_samples=vfl.n_samples,
        process=params["process"],
        seed=benign_seed,
    )
    attacker = f"{params['attack']}-attacker"
    trace = benign.merge(
        attacker_trace(
            attacker,
            np.arange(min(ATTACK_POOL, vfl.n_samples)),
            repeats=ATTACK_REPEATS,
            batch_size=ATTACK_BATCH,
            seed=attack_seed,
        )
    )

    def deploy(n_shards: int, *, cache: bool, specs: tuple) -> ShardedPredictionService:
        return ShardedPredictionService(
            vfl,
            n_shards=n_shards,
            defense_specs=specs,
            max_batch=32,
            cache=cache,
            cache_size=256 if cache else None,
            seed=spec.seed,
        )

    # The audited 4-shard deployment, plus the single-shard oracle the
    # per-consumer accounting must match exactly.
    report = deploy(N_SHARDS, cache=True, specs=("query_audit",)).replay(trace)
    oracle = deploy(1, cache=True, specs=("query_audit",)).replay(trace)
    ranked = report.ranked_consumers()
    scores = report.anomaly_scores()
    benign_top = max(
        (score for name, score in scores.items() if name != attacker),
        default=0.0,
    )

    # The blunt alternative: a per-shard rate limit sized to bind under
    # attack-inflated load (cache off so the attacker's repeats charge).
    cap = max(1, int(1.05 * benign.n_queries / N_SHARDS))
    limited = deploy(
        N_SHARDS,
        cache=False,
        specs=("query_audit", ("rate_limit", {"max_queries": cap})),
    ).replay(trace)

    return {
        "attacker_rank": 1 + ranked.index(attacker),
        "attacker_score": float(scores[attacker]),
        "benign_top_score": float(benign_top),
        "shard_identical": report.consumer_accounting()
        == oracle.consumer_accounting(),
        "attacker_refusals": int(limited.refusals.get(attacker, 0)),
        "benign_refusals": int(
            sum(n for name, n in limited.refusals.items() if name != attacker)
        ),
        "queries_per_second": float(report.queries_per_second),
    }


def traffic_aggregate(
    scale: "str | ScaleConfig",
    units: list[TrialSpec],
    results: dict[str, dict],
    *,
    seed: int = 23,
) -> ExperimentResult:
    """Fold trials into the per-(attack, process) isolation table."""
    scale = get_scale(scale)
    rows = []
    for (attack, model, process), payloads in _group_by(
        units, results, "attack", "model", "process"
    ).items():
        rows.append(
            (
                attack,
                model,
                process,
                N_BENIGN,
                float(np.mean([p["attacker_rank"] == 1 for p in payloads])),
                float(np.mean([p["attacker_score"] for p in payloads])),
                float(np.mean([p["benign_top_score"] for p in payloads])),
                bool(all(p["shard_identical"] for p in payloads)),
                int(np.mean([p["attacker_refusals"] for p in payloads])),
                int(np.mean([p["benign_refusals"] for p in payloads])),
            )
        )
    return ExperimentResult(
        experiment_id="traffic",
        title="Needle in traffic: audit ranking of the attack consumer "
        f"among {N_BENIGN} benign tenants ({N_SHARDS} shards)",
        columns=[
            "attack",
            "model",
            "process",
            "n_benign",
            "top1_rate",
            "attacker_score",
            "benign_top_score",
            "shard_identical",
            "attacker_refusals",
            "benign_refusals",
        ],
        rows=rows,
        meta={"scale": scale.name, "trials": scale.n_trials, "seed": seed},
    )


def traffic_sweep(
    scale: "str | ScaleConfig" = "default",
    *,
    attacks: tuple = TRAFFIC_ATTACKS,
    processes: tuple[str, ...] = TRAFFIC_PROCESSES,
    seed: int = 23,
) -> ExperimentResult:
    """Attacker isolation by anomaly score, across attacks and arrivals."""
    scale = get_scale(scale)
    units = traffic_units(scale, attacks=attacks, processes=processes, seed=seed)
    return _run_serial(units, traffic_run_unit, traffic_aggregate, scale, seed=seed)


register_experiment(
    ExperimentSpec("traffic", traffic_units, traffic_run_unit, traffic_aggregate)
)
