"""Sustained-throughput benchmark for the sharded serving boundary.

Replays a deterministic traffic trace — one million distinct named
consumers at full scale — through :class:`~repro.workload.\
ShardedPredictionService` and measures sustained queries/sec, with the
shard-count identity checked on the very same replays::

    PYTHONPATH=src python benchmarks/bench_serving_scale.py           # full
    PYTHONPATH=src python benchmarks/bench_serving_scale.py --tiny    # CI smoke

Modes benchmarked over the same trace (fresh deployment per mode so the
ledgers start empty):

- ``raw-predict``: the bare ``vfl.predict`` event loop — no ledger, no
  shards; the floor every serving number is compared against;
- ``serial-1shard``: one shard — the accounting oracle;
- ``serial-4shard``: the sharded deployment, the headline number.

Writes a ``BENCH_serving_scale*.json`` summary (the CI artifact). Exits
non-zero — a regression gate, not a printout — when the 4-shard
per-consumer accounting is not bit-identical to the single-shard
oracle, or (``--tiny``) when the serving-layer overhead over
``raw-predict`` regresses more than ``GATE_MARGIN``× against the
checked-in ``BENCH_serving_scale.json``.
Overhead ratios, not raw seconds, are gated so the gate is portable
across machines.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

import numpy as np

from repro.api import make_model
from repro.config import ScaleConfig
from repro.datasets import load_dataset
from repro.federated import FeaturePartition, train_vertical_model
from repro.workload import ShardedPredictionService, make_trace

#: Gate slack: live serving overhead (serving seconds / raw-predict
#: seconds on the same trace) may be at most this factor above the
#: checked-in reference before ``--tiny`` fails.
GATE_MARGIN = 1.5

#: Serving layout the headline number is quoted at.
N_SHARDS = 4

#: Trace sizes per mode: (distinct consumers, request events).
TRACE_SIZES = {
    "tiny": (2_000, 4_000),
    "full": (1_000_000, 1_000_000),
}

#: Model-training sizes (the deployment is deliberately small — this
#: bench measures the serving layer, not the kernels; repro.bench owns
#: those).
TRAIN_SCALE = ScaleConfig(
    name="serving-scale",
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


def deploy(model_kind: str, n_parties: int = 4):
    """One trained multi-party VFL deployment (small on purpose)."""
    dataset = load_dataset("bank", n_samples=TRAIN_SCALE.n_samples, rng=0)
    half = dataset.n_samples // 2
    partition = FeaturePartition.from_topology(
        dataset.n_features, 0.4, n_parties=n_parties, rng=0
    )
    model = make_model(model_kind, TRAIN_SCALE, np.random.default_rng(0))
    return train_vertical_model(
        model,
        dataset.X[:half],
        dataset.y[:half],
        dataset.X[half:],
        dataset.y[half:],
        partition,
    )


def raw_predict_seconds(vfl, trace, repeats: int) -> float:
    """The bare per-event ``vfl.predict`` loop — the serving-free floor."""
    predict = vfl.predict
    sample_ids = trace.sample_ids
    offsets = trace.offsets
    predict(sample_ids[offsets[0] : offsets[1]])  # warm lazy kernel caches
    logging = vfl.log_predictions
    vfl.log_predictions = False
    try:
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            for event in range(trace.n_events):
                predict(sample_ids[offsets[event] : offsets[event + 1]])
            best = min(best, time.perf_counter() - start)
        return best
    finally:
        vfl.log_predictions = logging


def bench_trace(vfl, trace, seed: int, repeats: int) -> "tuple[dict, list[str]]":
    """Replay ``trace`` in every mode; return per-mode stats + failures.

    Timings are best-of-``repeats`` (a fresh deployment each repeat so
    ledgers start empty); the accounting compared across modes is
    deterministic, so any repeat's report serves for the identity checks.
    """

    def sharded(n_shards: int) -> ShardedPredictionService:
        # No cache and no defenses: the headline number is the pure
        # serving + ledger path (the traffic experiment owns the
        # defended configurations).
        return ShardedPredictionService(vfl, n_shards=n_shards, seed=seed)

    modes: dict[str, dict] = {}
    raw = raw_predict_seconds(vfl, trace, repeats)
    modes["raw-predict"] = {
        "seconds": raw,
        "queries_per_second": trace.n_queries / raw if raw > 0 else None,
    }

    reports = {}
    for mode_name, n_shards in (("serial-1shard", 1), ("serial-4shard", N_SHARDS)):
        best = float("inf")
        for _ in range(repeats):
            report = sharded(n_shards).replay(trace)
            best = min(best, report.elapsed_s)
        reports[mode_name] = report
        modes[mode_name] = {
            "seconds": best,
            "queries_per_second": trace.n_queries / best if best > 0 else None,
            "overhead_vs_raw": best / raw if raw > 0 else None,
        }

    failures = []
    # Different layouts — merged per-consumer accounting identical.
    headline = reports["serial-4shard"]
    if headline.consumer_accounting() != reports["serial-1shard"].consumer_accounting():
        failures.append(
            "serial-4shard per-consumer accounting differs from the "
            "serial-1shard oracle"
        )

    served = len(headline.ledger["counts"])
    if served != trace.n_consumers:
        failures.append(
            f"ledger served {served} consumers, trace has {trace.n_consumers}"
        )
    stats = {
        "n_consumers": trace.n_consumers,
        "n_events": trace.n_events,
        "n_queries": trace.n_queries,
        "n_shards": N_SHARDS,
        "consumers_served": served,
        "identity_ok": not failures,
        "modes": modes,
    }
    return stats, failures


def overhead_failures(
    live: dict, reference: dict, margin: float = GATE_MARGIN
) -> list[str]:
    """Serving modes whose live overhead regressed >``margin``× vs the
    reference. Ratios to the in-run raw-predict floor are compared, not
    seconds, so the gate holds across machines and trace sizes."""
    failures = []
    for mode, ref_stats in reference.get("modes", {}).items():
        ref_overhead = ref_stats.get("overhead_vs_raw")
        if ref_overhead is None:
            continue
        live_stats = live.get("modes", {}).get(mode)
        live_overhead = None if live_stats is None else live_stats.get("overhead_vs_raw")
        if live_overhead is None or live_overhead > ref_overhead * margin:
            shown = None if live_overhead is None else round(live_overhead, 2)
            failures.append(
                f"{mode}: live serving overhead {shown} > "
                f"reference {round(ref_overhead, 2)} x {margin}"
            )
    return failures


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny", action="store_true",
        help="CI smoke scale + overhead gate against the checked-in baseline",
    )
    parser.add_argument(
        "--model", default="lr",
        help="model kind behind the deployment (default: lr)",
    )
    parser.add_argument("--seed", type=int, default=11, help="trace/shard seed")
    parser.add_argument(
        "--repeats", type=int, default=None,
        help="best-of-N timing repeats (default: 3 tiny, 1 full)",
    )
    parser.add_argument(
        "--baseline", default="BENCH_serving_scale.json",
        help="reference summary the --tiny gate compares against",
    )
    parser.add_argument(
        "--out", default=None,
        help="summary path (default: BENCH_serving_scale.json, or "
        "BENCH_serving_scale-live.json with --tiny so the checked-in "
        "trajectory file is never clobbered by CI)",
    )
    args = parser.parse_args(argv)
    scale = "tiny" if args.tiny else "full"
    n_consumers, n_events = TRACE_SIZES[scale]
    repeats = args.repeats if args.repeats is not None else (3 if args.tiny else 1)

    vfl = deploy(args.model)
    print(
        f"# ShardedPredictionService throughput — {n_consumers} consumers, "
        f"{n_events} events, {N_SHARDS} shards, model={args.model}"
    )
    trace = make_trace(
        n_consumers,
        n_events,
        n_samples=vfl.n_samples,
        seed=args.seed,
    )
    stats, failures = bench_trace(vfl, trace, args.seed, repeats)

    header = f"{'mode':<16} {'seconds':>10} {'queries/s':>12} {'overhead':>9}"
    print(header)
    print("-" * len(header))
    for mode, mode_stats in stats["modes"].items():
        overhead = mode_stats.get("overhead_vs_raw")
        print(
            f"{mode:<16} {mode_stats['seconds']:>10.3f} "
            f"{mode_stats['queries_per_second']:>12.0f} "
            + (f"{overhead:>8.2f}x" if overhead is not None else f"{'—':>9}")
        )

    summary = {
        "label": "serving_scale",
        "scale": scale,
        "created": time.strftime("%Y-%m-%d %H:%M:%S"),
        "machine": {
            "platform": platform.platform(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "cpus": os.cpu_count(),
        },
        "model": args.model,
        **stats,
    }
    out = args.out or (
        "BENCH_serving_scale-live.json" if args.tiny else "BENCH_serving_scale.json"
    )
    if args.tiny and os.path.abspath(out) == os.path.abspath(args.baseline):
        print(
            "FAIL: --tiny output would overwrite its own gate baseline; "
            "pass a different --out",
            file=sys.stderr,
        )
        return 1
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {out}")

    if args.tiny:
        try:
            with open(args.baseline, encoding="utf-8") as fh:
                reference = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"FAIL: cannot read baseline {args.baseline}: {exc}", file=sys.stderr)
            return 1
        failures.extend(overhead_failures(summary, reference))
    for failure in failures:
        print(f"!! {failure}", file=sys.stderr)
    if failures:
        print("FAIL: serving-scale regression detected", file=sys.stderr)
        return 1
    if args.tiny:
        print(f"gate ok: no mode regressed >{GATE_MARGIN}x vs {args.baseline}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
