"""Throughput and exactness gates for the resilient federation exchange.

Measures what surviving a fault storm costs over the fault-free metered
protocol, and gates the resilience layer's accounting identities —
this is a regression gate, not a printout::

    PYTHONPATH=src python benchmarks/bench_resilience.py          # default
    PYTHONPATH=src python benchmarks/bench_resilience.py --tiny   # CI smoke

Modes benchmarked (4-party LR deployment, batched prediction rounds):

- ``fault-free``: the legacy exchange, no resilience engaged;
- ``storm-sequential``: flaky+timeout storm, retries and quorum
  degradation.

Gates (any failure prints ``!!`` and exits non-zero):

1. **Metering exactness** — under the storm, ledger bytes equal the
   transport's summed delivered frame sizes: every retry and every
   corrupted frame crossed the wire metered.
2. **Retry accounting** — request frames in the delivery log equal
   ``rounds x passives + ledger.retries``: a retry is a real re-request,
   nothing more, nothing less.
3. **Pure-replay exactness** — degraded rounds, retry count, and timeout
   count recomputed *analytically* from the pure chaos functions
   (:meth:`FaultPlan.outcome` alone, no protocol run) match the
   runtime's availability report exactly.
4. **Storm overhead** — the storm's wire bytes stay within
   ``MAX_BYTE_OVERHEAD``x of the fault-free accumulation, and the
   sequential storm round rate stays within ``MAX_OVERHEAD``x of the
   fault-free path.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

import numpy as np

from repro.api import make_model
from repro.config import ScaleConfig
from repro.datasets import load_dataset
from repro.federated import FeaturePartition, train_vertical_model
from repro.federation import FaultPlan, FederationRuntime
from repro.federation.nodes import FEATURE_REQUEST
from repro.resilience import RetryPolicy

#: Gate: the storm's sequential rounds may cost at most this many times
#: the fault-free metered rounds (wall clock; generous — catches
#: accidental quadratic retry work, not codec noise).
MAX_OVERHEAD = 12.0

#: Gate: storm wire bytes (retries included) over fault-free bytes.
MAX_BYTE_OVERHEAD = 2.5

TINY = ScaleConfig(
    name="res-tiny",
    n_samples=400,
    n_predictions=128,
    n_trials=1,
    fractions=(0.4,),
    lr_epochs=3,
    mlp_hidden=(16,),
    mlp_epochs=2,
    rf_trees=5,
    rf_depth=3,
    dt_depth=4,
    grna_hidden=(16,),
    grna_epochs=2,
    grna_batch_size=32,
    distiller_hidden=(32,),
    distiller_dummy=200,
    distiller_epochs=2,
)

DEFAULT = ScaleConfig(
    name="res-default",
    n_samples=4000,
    n_predictions=1536,
    n_trials=1,
    fractions=(0.4,),
    lr_epochs=10,
    mlp_hidden=(64, 32),
    mlp_epochs=4,
    rf_trees=20,
    rf_depth=3,
    dt_depth=5,
    grna_hidden=(32,),
    grna_epochs=2,
    grna_batch_size=64,
    distiller_hidden=(64,),
    distiller_dummy=500,
    distiller_epochs=2,
)

BATCH = 16
N_PARTIES = 4

#: The storm under test: two flaky parties, one timeout-prone party.
STORM = (
    ("flaky", {"party": 1, "p": 0.25, "seed": 11}),
    ("flaky", {"party": 2, "p": 0.25, "seed": 12}),
    ("timeout", {"party": 3, "p": 0.2, "delay": 0.5, "seed": 13}),
)
RETRY = {"max_attempts": 3, "backoff_base": 0.01, "jitter": 0.25, "timeout": 0.1}
QUORUM = 0.5


def deploy(scale: ScaleConfig):
    """One trained 4-party LR deployment."""
    dataset = load_dataset("bank", n_samples=scale.n_samples, rng=0)
    half = dataset.n_samples // 2
    partition = FeaturePartition.from_topology(
        dataset.n_features, 0.4, n_parties=N_PARTIES, rng=0
    )
    model = make_model("lr", scale, np.random.default_rng(0))
    return train_vertical_model(
        model,
        dataset.X[:half],
        dataset.y[:half],
        dataset.X[half:],
        dataset.y[half:],
        partition,
    )


def chunks(n: int) -> list[np.ndarray]:
    indices = np.arange(n)
    return [indices[start : start + BATCH] for start in range(0, n, BATCH)]


def timed(fn, repeats: int) -> float:
    """Best-of-N wall-clock seconds (robust to scheduler noise)."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def storm_runtime(vfl) -> FederationRuntime:
    return FederationRuntime(
        vfl,
        faults=FaultPlan.from_specs(STORM),
        retry=dict(RETRY),
        quorum=QUORUM,
        degradation="last_known",
    )


def replay_storm_analytically(
    plan: FaultPlan, policy: RetryPolicy, rounds: "list[int]", parties: "list[int]"
) -> dict:
    """Recompute the storm's bookkeeping from the pure chaos functions.

    No protocol, no transport: for every ``(party, round)`` cell, walk
    the attempt budget through :meth:`FaultPlan.outcome` exactly as the
    resilient exchange does, and tally what the ledger and availability
    report *must* say. Any divergence from the measured run means a
    chaos decision was consumed impurely (order-dependent).
    """
    retries = 0
    timeouts = 0
    degraded: list[dict] = []
    for round_id in rounds:
        missing: list[int] = []
        for party in parties:
            delivered = False
            for attempt in range(policy.max_attempts):
                if attempt > 0:
                    retries += 1
                outcome = plan.outcome(party, round_id, attempt)
                if outcome.kind == "ok":
                    delivered = True
                    break
                if (
                    outcome.kind == "timeout"
                    and policy.timeout is not None
                    and outcome.latency > policy.timeout
                ):
                    timeouts += 1
                elif outcome.kind == "timeout":
                    delivered = True  # slow but within the deadline
                    break
                if outcome.permanent:
                    break
            if not delivered:
                missing.append(party)
        if missing:
            degraded.append({"round": round_id, "missing": missing})
    return {"retries": retries, "timeouts": timeouts, "degraded": degraded}


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny", action="store_true", help="CI smoke scale (seconds, small models)"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N timing repeats"
    )
    parser.add_argument(
        "--out", default=None,
        help="summary path (default: BENCH_resilience.json, or "
        "BENCH_resilience-live.json with --tiny so the checked-in "
        "trajectory file is never clobbered by CI)",
    )
    args = parser.parse_args(argv)
    scale = TINY if args.tiny else DEFAULT
    ok = True

    vfl = deploy(scale)
    rounds = chunks(scale.n_predictions)
    print(
        f"# Resilient exchange — {scale.n_predictions} predictions in rounds "
        f"of {BATCH}, {N_PARTIES} parties, scale={scale.name}"
    )

    seconds: dict[str, float] = {}
    baseline = FederationRuntime(vfl)
    seconds["fault-free"] = timed(
        lambda: [baseline.predict(chunk) for chunk in rounds], args.repeats
    )
    free_bytes_runtime = FederationRuntime(vfl)
    for chunk in rounds:
        free_bytes_runtime.predict(chunk)
    fault_free_bytes = free_bytes_runtime.ledger.total_bytes

    seconds["storm-sequential"] = timed(
        lambda: [storm_runtime(vfl).predict(chunk) for chunk in rounds],
        args.repeats,
    )

    # One clean measured run for the exactness gates.
    runtime = storm_runtime(vfl)
    for chunk in rounds:
        runtime.predict(chunk)
    measured = {
        "ledger": runtime.ledger.as_dict(),
        "availability": runtime.availability_report(),
        "delivered_bytes": runtime.transport.delivered_bytes,
        "request_frames": sum(
            1
            for rec in runtime.transport.delivery_log
            if rec.kind == FEATURE_REQUEST
        ),
    }

    # Gate 1: every frame the storm moved is on the ledger, exactly.
    if measured["ledger"]["bytes"] != measured["delivered_bytes"]:
        ok = False
        print(
            f"!! ledger bytes {measured['ledger']['bytes']} != delivered "
            f"frame bytes {measured['delivered_bytes']}; unmetered traffic"
        )

    # Gate 2: a retry is exactly one extra metered request frame.
    expected_requests = len(rounds) * (N_PARTIES - 1) + measured["ledger"]["retries"]
    if measured["request_frames"] != expected_requests:
        ok = False
        print(
            f"!! {measured['request_frames']} request frames != "
            f"{len(rounds)} rounds x {N_PARTIES - 1} passives + "
            f"{measured['ledger']['retries']} retries = {expected_requests}"
        )

    # Gate 3: the availability report is a pure function of the chaos seeds.
    analytic = replay_storm_analytically(
        FaultPlan.from_specs(STORM),
        RetryPolicy.from_spec(dict(RETRY)),
        list(range(len(rounds))),
        list(range(1, N_PARTIES)),
    )
    availability = measured["availability"]
    measured_degraded = [
        {"round": entry["round"], "missing": entry["missing"]}
        for entry in availability["degraded"]
    ]
    if (
        analytic["retries"] != availability["retries"]
        or analytic["timeouts"] != availability["timeouts"]
        or analytic["degraded"] != measured_degraded
    ):
        ok = False
        print(
            f"!! analytic replay {analytic} != measured availability "
            f"{availability}; a chaos decision was consumed impurely"
        )

    # Gate 4: overhead bounds.
    byte_overhead = measured["ledger"]["bytes"] / fault_free_bytes
    if byte_overhead > MAX_BYTE_OVERHEAD:
        ok = False
        print(
            f"!! storm bytes {measured['ledger']['bytes']} are "
            f"{byte_overhead:.2f}x the fault-free {fault_free_bytes}; "
            f"gate is {MAX_BYTE_OVERHEAD}x"
        )
    time_overhead = seconds["storm-sequential"] / seconds["fault-free"]
    if time_overhead > MAX_OVERHEAD:
        ok = False
        print(
            f"!! storm rounds cost {time_overhead:.1f}x the fault-free "
            f"path; gate is {MAX_OVERHEAD}x"
        )

    header = f"{'mode':<18} {'seconds':>10} {'rounds/s':>10}"
    print(header)
    print("-" * len(header))
    for mode, secs in seconds.items():
        rate = len(rounds) / secs if secs > 0 else float("inf")
        print(f"{mode:<18} {secs:>10.4f} {rate:>10.0f}")
    print(
        f"storm: {availability['rounds_degraded']}/{availability['rounds_total']} "
        f"rounds degraded, {availability['retries']} retries, "
        f"{availability['timeouts']} timeouts, "
        f"{byte_overhead:.2f}x fault-free bytes"
    )

    summary = {
        "label": "resilience",
        "scale": scale.name,
        "created": time.strftime("%Y-%m-%d %H:%M:%S"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "batch": BATCH,
        "n_parties": N_PARTIES,
        "storm": [list(spec) for spec in STORM],
        "retry": dict(RETRY),
        "quorum": QUORUM,
        "seconds": seconds,
        "fault_free_bytes": fault_free_bytes,
        "storm_bytes": measured["ledger"]["bytes"],
        "byte_overhead": byte_overhead,
        "availability": {
            k: v for k, v in availability.items() if k != "degraded"
        },
    }
    out = args.out or (
        "BENCH_resilience-live.json" if args.tiny else "BENCH_resilience.json"
    )
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")
    if not ok:
        print("FAIL: resilience layer regression detected", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
