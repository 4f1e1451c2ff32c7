"""Multi-party federation: topologies, communication metering, faults.

A four-party deployment over the bank-marketing stand-in: the bank
(active, holds labels), a colluding credit bureau, and two independent
data vendors whose columns are the attack target. The prediction
protocol runs as explicit message-passing rounds through the federation
runtime, so every cross-party byte is accounted — and can be budgeted,
exactly like query counts one layer up.

Shown here:

1. an N-party topology with a skewed (Dirichlet) column apportionment
   and one colluder feeding the adversary view;
2. the communication ledger: per-edge bytes, rounds, and the exact
   analytic cost of the accumulation;
3. a fractional communication budget that truncates the accumulation at
   the last affordable protocol round (GRNA trains on what crossed);
4. fault injection: a straggler costs simulated seconds, never a
   different result; a dropped party kills the round with a clear error.

Run:
    python examples/multiparty_federation.py            # default scale
    python examples/multiparty_federation.py --smoke    # tiny scale
"""

import sys

from repro.api import ScenarioConfig, TopologyConfig, run_scenario
from repro.config import ScaleConfig
from repro.exceptions import PartyUnavailableError

SMOKE = "--smoke" in sys.argv

SCALE = ScaleConfig(
    name="federation-smoke" if SMOKE else "federation",
    n_samples=400 if SMOKE else 2000,
    n_predictions=120 if SMOKE else 600,
    n_trials=1,
    fractions=(0.4,),
    lr_epochs=10 if SMOKE else 40,
    mlp_hidden=(16,) if SMOKE else (64, 32),
    mlp_epochs=3 if SMOKE else 10,
    grna_hidden=(32,) if SMOKE else (256, 128, 64),
    grna_epochs=5 if SMOKE else 40,
)

TOPOLOGY = TopologyConfig(
    n_parties=4,
    colluders=(1,),                      # the credit bureau leaks to the bank
    partition="dirichlet",               # skewed column widths, not equal splits
    partition_params={"alpha": 0.6},
)


def main() -> None:
    # ------------------------------------------------------------------
    # 1+2 — N-party GRNA with full communication accounting.
    # ------------------------------------------------------------------
    report = run_scenario(
        ScenarioConfig(
            dataset="bank", model="nn", attack="grna",
            target_fraction=0.4, scale=SCALE, seed=0,
            baselines=("uniform",),
            topology=TOPOLOGY, batch_size=32,
        )
    )
    runtime = report.scenario.runtime
    widths = [p.n_features for p in runtime.vfl.parties]
    print("[4-party topology, dirichlet columns, party 1 colluding]")
    print(f"  party widths   : {widths} (parties 2+3 are the target)")
    print(f"  adversary view : {report.scenario.view.d_adv} columns, "
          f"target {report.scenario.view.d_target}")
    print(f"  GRNA MSE       : {report.metrics['mse']:.4f} "
          f"(random guess {report.metrics['rg_uniform_mse']:.4f})")
    cost = report.comm_cost
    print(f"  protocol cost  : {cost['bytes']} bytes over {cost['rounds']} rounds, "
          f"{cost['messages']} messages")
    for edge, stats in cost["edges"].items():
        print(f"    edge {edge:>4}   : {stats['bytes']:>8} bytes "
              f"({stats['messages']} messages)")
    projected = runtime.estimate_predict_bytes(
        report.queries_used, max_batch=32
    )
    print(f"  analytic cost  : {projected} bytes (codec-exact, no execution)\n")

    # ------------------------------------------------------------------
    # 3 — the same attack under half the communication budget.
    # ------------------------------------------------------------------
    report = run_scenario(
        ScenarioConfig(
            dataset="bank", model="nn", attack="grna",
            target_fraction=0.4, scale=SCALE, seed=0,
            baselines=("uniform",),
            topology=TOPOLOGY, batch_size=32,
            comm_budget=0.5, on_budget_exhausted="truncate",
        )
    )
    cost = report.comm_cost
    print(f"[same deployment, comm_budget=0.5 (={cost['byte_budget']} bytes)]")
    print(f"  queries served : {report.queries_used} of {SCALE.n_predictions} "
          "(the wire budget bound first)")
    print(f"  bytes moved    : {cost['bytes']} <= {cost['byte_budget']}")
    print(f"  GRNA MSE       : {report.metrics['mse']:.4f} "
          "(trained on the affordable rounds)\n")

    # ------------------------------------------------------------------
    # 4 — faults: a straggler only costs simulated time; a dropped party
    # fails loudly.
    # ------------------------------------------------------------------
    report = run_scenario(
        ScenarioConfig(
            dataset="bank", model="lr", attack="esa",
            target_fraction=0.4, scale=SCALE, seed=0,
            topology=TopologyConfig(
                n_parties=3,
                faults=(("straggler", {"party": 1, "delay": 0.002}),),
            ),
        )
    )
    print("[straggling party 1, 2 ms per reply]")
    print(f"  ESA MSE        : {report.metrics['mse']:.4f} (identical result)")
    print(f"  simulated wait : {report.availability['sim_seconds']:.4f} s over "
          f"{report.availability['rounds_total']} round(s)")

    try:
        run_scenario(
            ScenarioConfig(
                dataset="bank", model="lr", attack="esa",
                target_fraction=0.4, scale=SCALE, seed=0,
                topology=TopologyConfig(
                    n_parties=3, faults=(("drop", {"party": 2}),)
                ),
            )
        )
    except PartyUnavailableError as exc:
        print(f"  dropped party  : {exc}")


if __name__ == "__main__":
    main()
