"""Needle in traffic: isolate an attacker inside benign serving load.

The paper evaluates each feature-inference attack against a deployment
it has all to itself. This walkthrough serves the defender's view
instead: a population of benign tenants (drawn from the workload
layer's league of arrival processes) is interleaved with one GRNA-style
accumulation and replayed through a sharded, audited
``ShardedPredictionService``. The merged ``WorkloadReport`` then ranks
every consumer by anomaly score — volume plus duplicate rate, z-scored —
and the attacker surfaces as the top-1 outlier under every arrival
shape, while a per-shard rate limit (the blunt alternative) refuses
benign tenants alongside the attacker.

Also demonstrated: the 4-shard replay is bit-identical to a single-shard
replay on the per-consumer accounting — the determinism contract that
makes the sharded numbers trustworthy.

Run:
    python examples/needle_in_traffic.py            # default scale
    python examples/needle_in_traffic.py --smoke    # tiny scale
"""

import sys

import numpy as np

from repro.api import build_scenario
from repro.config import ScaleConfig
from repro.workload import (
    ARRIVALS,
    ShardedPredictionService,
    attacker_trace,
    make_trace,
)

SMOKE = "--smoke" in sys.argv

SCALE = ScaleConfig(
    name="traffic-smoke" if SMOKE else "traffic",
    n_samples=400 if SMOKE else 2000,
    n_predictions=120 if SMOKE else 600,
    n_trials=1,
    fractions=(0.3,),
    lr_epochs=10 if SMOKE else 40,
)

N_BENIGN = 200 if SMOKE else 1000
N_EVENTS = 800 if SMOKE else 4000
N_SHARDS = 4


def main() -> None:
    # One deployed model serves every tenant; the attacker is just
    # another consumer name on the same boundary.
    vfl = build_scenario("bank", "lr", 0.3, SCALE, seed=0).vfl
    attacker = attacker_trace(
        "grna-attacker",
        np.arange(min(48, vfl.n_samples)),
        repeats=6,
        batch_size=16,
        seed=1,
    )

    print(
        f"[{N_BENIGN} benign tenants + 1 attacker, {N_SHARDS} shards, "
        "query_audit stacked]"
    )
    print(f"  {'arrivals':>10}  {'top-1':>14}  {'score':>7}  {'benign max':>10}  {'qps':>8}")
    for process in sorted(ARRIVALS.names()):
        benign = make_trace(
            N_BENIGN,
            N_EVENTS,
            n_samples=vfl.n_samples,
            process=process,
            seed=7,
        )
        trace = benign.merge(attacker)
        sharded = ShardedPredictionService(
            vfl,
            n_shards=N_SHARDS,
            defense_specs=("query_audit",),
            max_batch=32,
            cache=True,
            cache_size=256,
            seed=0,
        )
        report = sharded.replay(trace)

        # The determinism contract: the merged per-consumer accounting of
        # the 4-shard replay equals a 1-shard replay.
        oracle = ShardedPredictionService(
            vfl,
            n_shards=1,
            defense_specs=("query_audit",),
            max_batch=32,
            cache=True,
            cache_size=256,
            seed=0,
        ).replay(trace)
        assert report.consumer_accounting() == oracle.consumer_accounting()

        scores = report.anomaly_scores()
        top = report.ranked_consumers()[0]
        benign_max = max(
            score for name, score in scores.items() if name != "grna-attacker"
        )
        print(
            f"  {process:>10}  {top:>14}  {scores[top]:>7.2f}  "
            f"{benign_max:>10.2f}  {report.queries_per_second:>8.0f}"
        )

    # The blunt alternative: a per-shard rate limit sized for benign load
    # refuses whoever lands on a hot shard — attacker and bystanders.
    benign = make_trace(
        N_BENIGN, N_EVENTS, n_samples=vfl.n_samples, process="poisson", seed=7
    )
    trace = benign.merge(attacker)
    cap = max(1, int(1.05 * benign.n_queries / N_SHARDS))
    limited = ShardedPredictionService(
        vfl,
        n_shards=N_SHARDS,
        defense_specs=("query_audit", ("rate_limit", {"max_queries": cap})),
        max_batch=32,
        seed=0,
    ).replay(trace)
    attacker_refused = limited.refusals.get("grna-attacker", 0)
    benign_refused = sum(
        n for name, n in limited.refusals.items() if name != "grna-attacker"
    )
    print(f"\n[rate_limit alternative: {cap} queries per shard]")
    print(f"  attacker events refused: {attacker_refused}")
    print(f"  benign events refused:   {benign_refused}")

    print("\nconclusion: the audit's anomaly ranking isolates the accumulating")
    print("attacker as the top-1 outlier under every arrival shape, while the")
    print("deployment-wide rate limit punishes benign tenants that merely")
    print("share the attacker's shard.")


if __name__ == "__main__":
    main()
